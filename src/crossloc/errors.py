"""Exception types raised across the crossloc pipeline.

Every failure mode that callers are expected to handle has its own class so
that tests and batch drivers can discriminate without string matching.
"""


class CrosslocError(Exception):
    """Base class for all crossloc-specific errors."""


# --- geometry ---------------------------------------------------------------

class LengthMismatch(CrosslocError):
    """Parallel arrays (points / weights) disagree in length."""


class ZeroWeightSum(CrosslocError):
    """Weights are all zero; a weighted mean is undefined."""


class DegenerateConfiguration(CrosslocError):
    """Point configuration does not determine a transform (e.g. all
    positively weighted source points coincide, or fewer than two pairs)."""


# --- matching ---------------------------------------------------------------

class DimensionMismatch(CrosslocError):
    """Feature dimensions of the two grids differ."""


class ZeroNormFeature(CrosslocError):
    """A feature vector has zero norm and cannot be cosine-normalized."""


class OutOfRange(CrosslocError):
    """Scalar argument outside its valid range (e.g. temperature <= 0)."""


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
