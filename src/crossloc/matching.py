"""Dense feature matching between an aerial grid and a ground grid.

Scores are temperature-scaled cosine similarities between every aerial cell
and every ground cell.  A learnable dustbin row/column gives unmatched cells
somewhere to put probability mass, and a dual softmax (row softmax times
column softmax) turns scores into soft mutual-assignment probabilities from
which the top-N entries are sampled as weighted ``Matches`` (index arrays).
Scoring and the soft assignment take leading batch axes and keep the
float type, so the training loss and its long-double FD oracle run them too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, ZeroNormFeature, require_int, require_real

__all__ = [
    "AerialMeta",
    "GroundMeta",
    "FeatureGrid",
    "Matches",
    "score_matrix",
    "augment_dustbin",
    "row_softmax",
    "col_softmax",
    "dual_softmax",
    "soft_assign",
    "top_n_flat_indices",
    "sample_correspondences",
]

@dataclass(frozen=True)
class AerialMeta:
    """Metric calibration of an aerial grid: cell size and the world offset
    of the grid center."""

    meters_per_cell: float
    center_offset: np.ndarray = field(default_factory=lambda: np.zeros(2))


@dataclass(frozen=True)
class GroundMeta:
    """Calibration of a ground grid: the per-cell viewing-ray table."""

    rays: "object"  # lifting.RayModel; kept loose to avoid a cyclic import


@dataclass(frozen=True)
class FeatureGrid:
    """A rows x cols grid of feature vectors with its calibration metadata."""

    data: np.ndarray  # (rows, cols, dim) float
    kind: str  # "aerial" | "ground"
    meta: object = None

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def dim(self) -> int:
        return self.data.shape[2]

    def flat(self) -> np.ndarray:
        """Row-major (rows*cols, dim) view of the features."""
        return self.data.reshape(-1, self.data.shape[2])


@dataclass(frozen=True)
class Matches:
    """Sampled matches as parallel arrays; ``len()`` is their number."""

    aerial: np.ndarray  # (N,) flat aerial cell indices
    ground: np.ndarray  # (N,) flat ground cell indices
    weights: np.ndarray  # (N,) soft weights

    def __len__(self) -> int:
        return len(self.weights)


def _unit_rows(flat: np.ndarray):
    """(unit rows, norms) of ``flat`` along the last axis; raises
    ZeroNormFeature on a zero row."""
    norms = np.linalg.norm(flat, axis=-1)
    if (norms == 0).any():
        bad = int(np.flatnonzero(norms == 0)[0])
        raise ZeroNormFeature(f"feature vector {bad} has zero norm")
    return flat / norms[..., None], norms


def _common_dim(aerial_dim: int, ground_dim: int) -> int:
    """The features' shared dimension; DimensionMismatch if the two differ."""
    if aerial_dim != ground_dim:
        raise DimensionMismatch(f"feature dims differ: aerial {aerial_dim} vs ground {ground_dim}")
    return aerial_dim


def score_matrix(aerial: np.ndarray, ground: np.ndarray, tau: float, units: bool = False):
    """Cosine similarity of every pair of raw ``(..., n, dim)`` aerial and
    ground feature rows over tau, in their float type.  With ``units`` it
    returns ``(scores, (a_hat, a_norm), (g_hat, g_norm))``: also each side's
    unit rows and norms, which a reverse sweep through the scores reads.

    Entries lie in [-1/tau, 1/tau].  Raises DimensionMismatch when feature
    dimensions differ and OutOfRange unless tau is finite and positive.
    """
    require_real("tau", tau, 0, ends="()")
    _common_dim(aerial.shape[-1], ground.shape[-1])
    a, g = _unit_rows(aerial), _unit_rows(ground)
    scores = a[0] @ g[0].swapaxes(-1, -2)
    scores /= a[0].dtype.type(tau)
    return (scores, a, g) if units else scores


def augment_dustbin(scores: np.ndarray, z) -> np.ndarray:
    """Append one dustbin row and column filled with the score z (a scalar,
    or one per matrix of a batch); a float ``scores`` keeps its type."""
    n_a, n_g = scores.shape[-2:]
    z = np.asarray(z, dtype=scores.dtype if scores.dtype.kind == "f" else float)
    out = np.empty(scores.shape[:-2] + (n_a + 1, n_g + 1), z.dtype)
    out[..., :-1, :-1] = scores
    out[..., -1, :] = out[..., :-1, -1] = z[..., None]
    return out


def _exp_record(x: np.ndarray, axis: int, out=None) -> tuple:
    """``(max, exp(x - max))`` along ``axis`` (keepdims): the shifted
    exponentials every softmax and log-sum-exp of the package sums.  They
    are formed in ``out`` (which may be ``x``) or in one new array laid out
    as ``x - max`` lays it out."""
    m = x.max(axis=axis, keepdims=True)
    e = np.subtract(x, m, out=out)
    return m, np.exp(e, out=e)


def _softmax(m: np.ndarray, z, axis: int) -> np.ndarray:
    """Softmax along ``axis`` of ``m``, or of ``augment_dustbin(m, z)``,
    normalised in one new array and in place."""
    x = m if z is None else augment_dustbin(m, z)
    e = _exp_record(x, axis, out=None if z is None else x)[1]
    e /= e.sum(axis=axis, keepdims=True)
    return e


def row_softmax(m: np.ndarray, z=None) -> np.ndarray:
    """Numerically stable softmax over each row (last axis; max subtraction)
    of ``m``, or of ``augment_dustbin(m, z)`` given the dustbin score z.
    Returns a new array; ``m`` is not written."""
    return _softmax(m, z, -1)


def col_softmax(m: np.ndarray, z=None) -> np.ndarray:
    """Numerically stable softmax over each column (second-to-last axis),
    as ``row_softmax``."""
    return _softmax(m, z, -2)


def dual_softmax(extended: np.ndarray) -> np.ndarray:
    """Entry-wise product of the row softmax and the column softmax.

    Each entry is the probability that the pair is a mutual match; entries
    lie in [0, 1] and the result is invariant to adding any constant to the
    whole input matrix.
    """
    return row_softmax(extended) * col_softmax(extended)


def soft_assign(scores: np.ndarray, z, rows=slice(None), cols=slice(None)):
    """The row softmaxes of aerial ``rows`` and the column softmaxes of
    ground ``cols`` of the dustbin-augmented scores (default all).  Each is
    normalised in its own contiguous ``augment_dustbin`` copy at least 2
    columns wide, which numpy sums in the whole matrix's order, to the same
    bits.  Inference and training select their top-N from
    ``ra[..., :-1, :-1] * cb[..., :-1, :-1]``."""
    ra = row_softmax(scores[..., rows, :], z)
    return ra, col_softmax(scores[..., :, cols], z)


def top_n_flat_indices(flat_probs: np.ndarray, n: int) -> np.ndarray:
    """Indices of the n largest entries, descending, ties broken by index
    (NaN last); only the entries at or above the n-th largest are sorted."""
    take = min(n, flat_probs.size)
    candidates = np.arange(flat_probs.size)
    if 0 < take < flat_probs.size:
        key = np.negative(flat_probs)  # ascending key; NaN stays NaN and sorts last
        key.partition(take - 1)
        kth = key[take - 1]
        del key
        if not np.isnan(kth):  # else every non-NaN entry is a candidate
            # negation is exact: these are the entries whose key is <= kth
            candidates = np.flatnonzero(flat_probs >= -kth)
    # the stable sort keeps ascending flat index order within ties
    return candidates[np.argsort(-flat_probs[candidates], kind="stable")[:take]]


def sample_correspondences(probs: np.ndarray, n: int) -> Matches:
    """Deterministic top-N entries of the probability matrix as matches.

    Entries are ordered by descending probability; exact ties are broken by
    row-major flat index so the result never depends on sort internals.
    Cell indices are the entry's row and column (flat cells of the scored
    grids).  Returns fewer than ``n`` entries when the matrix has fewer cells.
    """
    require_int("n", n, 1)
    flat = probs.ravel()
    order = top_n_flat_indices(flat, n)
    aerial, ground = np.divmod(order, probs.shape[1])
    return Matches(aerial, ground, flat[order])
