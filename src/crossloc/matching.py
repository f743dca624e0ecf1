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
    "match_probabilities",
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


def score_matrix(aerial: np.ndarray, ground: np.ndarray, tau: float, units: bool = False):
    """Cosine similarity of every pair of raw ``(..., n, dim)`` aerial and
    ground feature rows over tau, in their float type.  With ``units`` it
    returns ``(scores, (a_hat, a_norm), (g_hat, g_norm))``: also each side's
    unit rows and norms, which a reverse sweep through the scores reads.

    Entries lie in [-1/tau, 1/tau].  Raises DimensionMismatch when feature
    dimensions differ and OutOfRange unless tau is finite and positive.
    """
    require_real("tau", tau, 0, ends="()")
    if aerial.shape[-1] != ground.shape[-1]:
        raise DimensionMismatch(
            f"feature dims differ: aerial {aerial.shape[-1]} vs ground {ground.shape[-1]}"
        )
    a, g = _unit_rows(aerial), _unit_rows(ground)
    scores = (a[0] @ g[0].swapaxes(-1, -2)) / a[0].dtype.type(tau)
    return (scores, a, g) if units else scores


def augment_dustbin(scores: np.ndarray, z) -> np.ndarray:
    """Append one dustbin row and column filled with the score z (a scalar,
    or one per matrix of a batch); a float ``scores`` keeps its type."""
    n_a, n_g = scores.shape[-2:]
    z = np.asarray(z, dtype=scores.dtype if scores.dtype.kind == "f" else float)
    out = np.full(scores.shape[:-2] + (n_a + 1, n_g + 1), z[..., None, None])
    out[..., :-1, :-1] = scores
    return out


def row_softmax(m: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over each row (last axis; max subtraction)."""
    e = np.exp(m - m.max(axis=-1, keepdims=True))
    e /= e.sum(axis=-1, keepdims=True)
    return e


def col_softmax(m: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over each column (second-to-last axis)."""
    e = np.exp(m - m.max(axis=-2, keepdims=True))
    e /= e.sum(axis=-2, keepdims=True)
    return e


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
    a contiguous ``augment_dustbin`` copy at least 2 columns wide, which
    numpy sums in the whole matrix's order, to the same bits."""
    ra = row_softmax(augment_dustbin(scores[..., rows, :], z))
    return ra, col_softmax(augment_dustbin(scores[..., :, cols], z))


def match_probabilities(m: np.ndarray, z: float = 0.0) -> np.ndarray:
    """Full soft-assignment chain: dustbin augment and dual softmax; returns
    the (n_aerial, n_ground) real-pair probabilities without renormalizing,
    as a contiguous copy, so the extended matrix is freed before top-N."""
    return dual_softmax(augment_dustbin(m, z))[..., :-1, :-1].copy()


def top_n_flat_indices(flat_probs: np.ndarray, n: int) -> np.ndarray:
    """Indices of the n largest entries, descending, ties broken by index
    (NaN last); only the entries at or above the n-th largest are sorted."""
    key = -flat_probs  # ascending key; NaN stays NaN and sorts last
    take = min(n, key.size)
    candidates = np.arange(key.size)
    if 0 < take < key.size:
        kth = np.partition(key, take - 1)[take - 1]
        if not np.isnan(kth):  # else every non-NaN entry is a candidate
            candidates = np.flatnonzero(key <= kth)
    # the stable sort keeps ascending flat index order within ties
    return candidates[np.argsort(key[candidates], kind="stable")[:take]]


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
