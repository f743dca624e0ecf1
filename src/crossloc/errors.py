"""Exception types raised across the crossloc pipeline.

Every failure mode that callers are expected to handle has its own class so
that tests and batch drivers can discriminate without string matching.
``require_int``, ``require_real``, ``require_choice`` and ``require_bool``
are the one validation rule of every config and public scalar argument.
"""

import math
from numbers import Integral, Real


class CrosslocError(Exception):
    """Base class for all crossloc-specific errors."""


# --- geometry ---------------------------------------------------------------

class LengthMismatch(CrosslocError):
    """Parallel arrays (points / weights) disagree in length."""


class DegenerateConfiguration(CrosslocError):
    """Point configuration does not determine a transform (e.g. all
    positively weighted source points coincide, or fewer than two pairs)."""


# --- matching ---------------------------------------------------------------

class DimensionMismatch(CrosslocError):
    """Feature dimensions of the two grids differ."""


class ZeroNormFeature(CrosslocError):
    """A feature vector has zero norm and cannot be cosine-normalized."""


# --- scalar arguments and configs --------------------------------------------

class OutOfRange(CrosslocError):
    """Scalar argument outside its valid range (e.g. temperature <= 0).
    ``field`` names the argument or config field when one is at fault."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


def require_int(name: str, value, least: int) -> None:
    """OutOfRange naming ``name`` unless ``value`` is an integer (not a
    bool) of at least ``least``."""
    if isinstance(value, bool) or not (isinstance(value, Integral) and value >= least):
        raise OutOfRange(f"{name} must be an integer >= {least}, got {value!r}", field=name)


def require_real(name: str, value, low, high=math.inf, ends: str = "[)") -> None:
    """OutOfRange naming ``name`` unless ``value`` is a real number (not a
    bool) in the interval from ``low`` to ``high`` whose ends are closed
    ("[", "]") or open ("(", ")"), as ``ends`` gives them.  NaN is never in
    range, and an open infinite end keeps infinity out."""
    ok = isinstance(value, Real) and not isinstance(value, bool)
    ok = ok and (value >= low if ends[0] == "[" else value > low)
    if not (ok and (value <= high if ends[1] == "]" else value < high)):
        if high != math.inf:
            what = f"in {ends[0]}{low}, {high}{ends[1]}"
        elif low == -math.inf:
            what = "finite"
        else:
            what = (">= " if ends[0] == "[" else "> ") + str(low)
            what = what if ends[1] == "]" else f"finite and {what}"
        raise OutOfRange(f"{name} must be {what}, got {value!r}", field=name)


def require_choice(name: str, value, choices: tuple) -> None:
    """OutOfRange naming ``name`` unless ``value`` is one of ``choices``."""
    if value not in choices:
        raise OutOfRange(f"{name} must be one of {choices}, got {value!r}", field=name)


def require_bool(name: str, value) -> None:
    """OutOfRange naming ``name`` unless ``value`` is a bool (1, 0 and "no"
    are not)."""
    if not isinstance(value, bool):
        raise OutOfRange(f"{name} must be a bool, got {value!r}", field=name)


# --- lifting ----------------------------------------------------------------

class InvalidDepth(CrosslocError):
    """Depth value at the requested cell is missing, non-positive, or
    non-finite."""


# --- estimator --------------------------------------------------------------

class InsufficientMatches(CrosslocError):
    """Fewer than two positively weighted correspondences survive masking
    and depth filtering."""


class AllHypothesesDegenerate(CrosslocError):
    """Every RANSAC sample drawn was degenerate; no hypothesis was scored."""


# --- losses -----------------------------------------------------------------

class NoValidTargets(CrosslocError):
    """Every projected target fell outside the usable region."""


# --- gradcheck --------------------------------------------------------------

class NonDifferentiablePoint(CrosslocError):
    """The loss is not differentiable at this parameter point (e.g. an exact
    probability tie at the top-N sampling boundary)."""


# --- simulator --------------------------------------------------------------

class PlacementFailure(CrosslocError):
    """Could not place the camera so that enough landmarks are in range."""


# --- trainer ----------------------------------------------------------------

class DivergenceDetected(CrosslocError):
    """Training loss exploded past the divergence guard."""


# --- metrics ----------------------------------------------------------------

class EmptyInput(CrosslocError):
    """An aggregate was requested over an empty collection."""


# --- file formats -----------------------------------------------------------

class FormatError(CrosslocError):
    """Base class for binary/results file format violations."""


class BadMagic(FormatError):
    """File does not start with the expected magic bytes."""


class VersionUnsupported(FormatError):
    """File declares a format version this build does not understand."""


class TruncatedPayload(FormatError):
    """Payload size does not match the header's declared shape."""


class MetadataMissing(FormatError):
    """Required sidecar metadata file is absent or lacks required keys."""


class NonFiniteValue(FormatError):
    """A results document or a feature grid holds NaN or infinity."""


# --- command line -----------------------------------------------------------

class UsageError(OutOfRange):
    """A command-line argument is malformed or names an empty range."""
