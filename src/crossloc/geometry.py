"""Planar similarity estimation from weighted point correspondences.

Implements the weighted least-squares alignment of two 2-D point sets under a
scaled rotation plus translation,

    minimize  sum_n  w_n * || s * R(theta) * p_n + t - q_n ||^2 ,

solved in closed form: with [[a, b], [d, e]] the weighted cross-covariance
of the centered sets, the reflection-corrected optimum (Umeyama, TPAMI 1991,
in 2-D) is the complex number s * e^(i theta) = ((a + e) + i (b - d)) /
spread, so no SVD is taken.  A scale-free variant (s fixed to 1) is
provided for ablations.
All point sets are numpy arrays of shape (N, 2); weights are nonnegative
arrays of shape (N,).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateConfiguration, LengthMismatch, OutOfRange

__all__ = [
    "SimilarityTransform2D",
    "rotation_matrix",
    "wrap_angle",
    "solve_similarity",
    "solve_orthogonal",
    "apply_transform",
]

_TWO_PI = 2.0 * math.pi


def rotation_matrix(theta: float) -> np.ndarray:
    """Proper 2x2 rotation by ``theta`` radians (counterclockwise)."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def wrap_angle(theta: float) -> float:
    """Wrap an angle to the half-open interval [-pi, pi)."""
    return float((theta + math.pi) % _TWO_PI - math.pi)


@dataclass(frozen=True)
class SimilarityTransform2D:
    """A planar scaled rotation plus translation: x -> scale * R(theta) x + t."""

    scale: float = 1.0
    theta: float = 0.0
    t: np.ndarray = field(default_factory=lambda: np.zeros(2))


def _check_pairs(p: np.ndarray, q: np.ndarray, w: np.ndarray):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    w = np.asarray(w, dtype=float)
    if p.ndim != 2 or p.shape[1] != 2 or q.ndim != 2 or q.shape[1] != 2:
        raise LengthMismatch(f"expected (N, 2) point arrays, got {p.shape} and {q.shape}")
    if len(p) != len(q) or len(p) != len(w):
        raise LengthMismatch(
            f"point/weight lengths disagree: {len(p)}, {len(q)}, {len(w)}"
        )
    return p, q, w


def _solve(p, q, w, with_scale: bool) -> SimilarityTransform2D:
    """One path for every N: the pairs as one (N, 4) array, centered once
    at the centroid ``w @ pq / total``; one weighted Gram product of it
    holds the spread and the cross-covariance entries a, b, d, e.  A
    non-finite point or weight leaves the sum or a centroid non-finite."""
    p, q, w = _check_pairs(p, q, w)
    low = float(np.minimum.reduce(w, initial=math.inf))
    if low < 0.0:
        raise OutOfRange("weights must be >= 0")
    positive = len(w) if low > 0.0 else int(np.count_nonzero(w > 0.0))
    if positive < 2:
        raise DegenerateConfiguration(
            f"need >= 2 positively weighted pairs, got {positive}"
        )
    # a float sum of weights >= 0 is at least its largest term: the total
    # is positive, or NaN or infinite and caught before any product with it
    total = float(np.add.reduce(w))
    if not math.isfinite(total):
        raise OutOfRange("points and weights must be finite")

    pq = np.concatenate((p, q), axis=1)
    bar = w @ pq
    bar /= total
    p_x, p_y, q_x, q_y = bar.tolist()
    if not math.isfinite(p_x + p_y + q_x + q_y):
        raise OutOfRange("points and weights must be finite")
    pq -= bar
    (xx, _, a, b), (_, yy, d, e), _, _ = ((pq.T * w) @ pq).tolist()
    spread = xx + yy
    if spread == 0.0:
        raise DegenerateConfiguration(
            "all positively weighted source points coincide"
        )

    theta = math.atan2(b - d, a + e)
    scale = math.hypot(a + e, b - d) / spread if with_scale else 1.0
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    t = np.array([
        q_x - scale * (cos_t * p_x - sin_t * p_y),
        q_y - scale * (sin_t * p_x + cos_t * p_y),
    ])
    return SimilarityTransform2D(scale=scale, theta=theta, t=t)


def solve_similarity(p: np.ndarray, q: np.ndarray, w: np.ndarray) -> SimilarityTransform2D:
    """Optimal weighted similarity (scale, rotation, translation) mapping p to q.

    Closed-form solution: center both sets at their weighted centroids and
    form the weighted cross-covariance C = sum w_n outer(p_n, q_n) =
    [[a, b], [d, e]] and the source spread sum w_n |p_n|^2.  The complex
    number sum w_n conj(p_n) q_n = (a + e) + i (b - d) has as its angle the
    best proper rotation (the SVD route's R = V diag(1, sign(det(V U^T))) U^T)
    and as its modulus the sign-corrected singular value sum, so
    theta = atan2(b - d, a + e), scale = hypot(a + e, b - d) / spread, and
    the translation aligns the centroids.

    Raises DegenerateConfiguration for fewer than two positively weighted
    pairs or when all positively weighted source points coincide, and
    OutOfRange for a negative weight or a non-finite point or weight.
    """
    return _solve(p, q, w, with_scale=True)


def solve_orthogonal(p: np.ndarray, q: np.ndarray, w: np.ndarray) -> SimilarityTransform2D:
    """Best weighted rotation + translation with the scale pinned to 1."""
    return _solve(p, q, w, with_scale=False)


def apply_transform(transform: SimilarityTransform2D, points: np.ndarray) -> np.ndarray:
    """Apply ``scale * R(theta) @ p + t`` to each row of a (N, 2) array."""
    points = np.asarray(points, dtype=float)
    single = points.ndim == 1
    pts = np.atleast_2d(points)
    out = transform.scale * (pts @ rotation_matrix(transform.theta).T) + transform.t
    return out[0] if single else out

