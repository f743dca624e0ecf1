"""Dense feature matching between an aerial grid and a ground grid.

Scores are temperature-scaled cosine similarities between every aerial cell
and every ground cell.  A learnable dustbin row/column gives unmatched cells
somewhere to put probability mass, and a dual softmax (row softmax times
column softmax) turns scores into soft mutual-assignment probabilities from
which the top-N entries are sampled as weighted ``Matches`` (index arrays).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, OutOfRange, TooSmall, ZeroNormFeature

__all__ = [
    "MASK_SCORE",
    "AerialMeta",
    "GroundMeta",
    "FeatureGrid",
    "ScoreMatrix",
    "Matches",
    "normalize_features",
    "score_matrix",
    "augment_dustbin",
    "row_softmax",
    "col_softmax",
    "dual_softmax",
    "drop_dustbin",
    "mask_ground_columns",
    "match_probabilities",
    "top_n_flat_indices",
    "sample_correspondences",
]

# Finite stand-in for -inf: large enough that exp() underflows to exactly 0
# after max subtraction, small enough to stay well inside float range.
MASK_SCORE = -1.0e9


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
class ScoreMatrix:
    """Pairwise aerial-by-ground scores plus the grid shapes they came from."""

    scores: np.ndarray  # (n_aerial, n_ground)
    tau: float
    aerial_shape: tuple
    ground_shape: tuple


@dataclass(frozen=True)
class Matches:
    """Sampled matches as parallel arrays; ``len()`` is their number."""

    aerial: np.ndarray  # (N,) flat aerial cell indices
    ground: np.ndarray  # (N,) flat ground cell indices
    weights: np.ndarray  # (N,) soft weights

    def __len__(self) -> int:
        return len(self.weights)


def normalize_features(flat: np.ndarray) -> np.ndarray:
    """L2-normalize each row (along the last axis); raises ZeroNormFeature
    on a zero row."""
    norms = np.linalg.norm(flat, axis=-1)
    if (norms == 0).any():
        bad = int(np.flatnonzero(norms == 0)[0])
        raise ZeroNormFeature(f"feature vector {bad} has zero norm")
    return flat / norms[..., None]


def score_matrix(aerial: FeatureGrid, ground: FeatureGrid, tau: float) -> ScoreMatrix:
    """Cosine similarity of every (aerial cell, ground cell) pair over tau.

    Entries lie in [-1/tau, 1/tau].  Raises DimensionMismatch when feature
    dimensions differ and OutOfRange for a non-positive temperature.
    """
    if tau <= 0:
        raise OutOfRange(f"temperature must be positive, got {tau}")
    if aerial.dim != ground.dim:
        raise DimensionMismatch(
            f"feature dims differ: aerial {aerial.dim} vs ground {ground.dim}"
        )
    a = normalize_features(aerial.flat().astype(float))
    g = normalize_features(ground.flat().astype(float))
    return ScoreMatrix(
        scores=(a @ g.T) / tau,
        tau=tau,
        aerial_shape=(aerial.rows, aerial.cols),
        ground_shape=(ground.rows, ground.cols),
    )


def augment_dustbin(scores: np.ndarray, z: float) -> np.ndarray:
    """Append one dustbin row and column filled with the scalar score z."""
    n_a, n_g = scores.shape
    out = np.full((n_a + 1, n_g + 1), float(z))
    out[:n_a, :n_g] = scores
    return out


def row_softmax(m: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over each row (max subtraction)."""
    shifted = m - m.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def col_softmax(m: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over each column."""
    shifted = m - m.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)


def dual_softmax(extended: np.ndarray) -> np.ndarray:
    """Entry-wise product of the row softmax and the column softmax.

    Each entry is the probability that the pair is a mutual match; entries
    lie in [0, 1] and the result is invariant to adding any constant to the
    whole input matrix.
    """
    return row_softmax(extended) * col_softmax(extended)


def drop_dustbin(extended_probs: np.ndarray) -> np.ndarray:
    """Remove the dustbin row and column, leaving real-pair probabilities.

    Interior entries are returned unchanged (no renormalization).  Raises
    TooSmall when the input has no dustbin to drop.
    """
    if extended_probs.shape[0] < 2 or extended_probs.shape[1] < 2:
        raise TooSmall(f"matrix {extended_probs.shape} has no dustbin to drop")
    return extended_probs[:-1, :-1].copy()


def mask_ground_columns(m: ScoreMatrix, valid: np.ndarray) -> ScoreMatrix:
    """Overwrite every score in invalid ground columns with MASK_SCORE.

    ``valid`` is a boolean array over the flattened ground cells.  Masked
    columns receive an effectively minus-infinite score, so after the dual
    softmax they carry exactly zero probability.
    """
    valid = np.asarray(valid, dtype=bool)
    if valid.shape != (m.scores.shape[1],):
        raise DimensionMismatch(
            f"valid mask length {valid.shape} vs {m.scores.shape[1]} ground cells"
        )
    scores = np.where(valid[None, :], m.scores, MASK_SCORE)
    return ScoreMatrix(scores, m.tau, m.aerial_shape, m.ground_shape)


def match_probabilities(m: ScoreMatrix, z: float = 0.0) -> np.ndarray:
    """Full soft-assignment chain: dustbin augment, dual softmax, dustbin
    drop; returns the (n_aerial, n_ground) real-pair probabilities."""
    return drop_dustbin(dual_softmax(augment_dustbin(m.scores, z)))


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
    if n <= 0:
        raise OutOfRange(f"sample count must be positive, got {n}")
    flat = probs.ravel()
    order = top_n_flat_indices(flat, n)
    aerial, ground = np.divmod(order, probs.shape[1])
    return Matches(aerial, ground, flat[order])
