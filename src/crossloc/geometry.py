"""Planar similarity estimation from weighted point correspondences.

Implements the weighted least-squares alignment of two 2-D point sets under a
scaled rotation plus translation,

    minimize  sum_n  w_n * || s * R(theta) * p_n + t - q_n ||^2 ,

solved in closed form through the 2x2 singular value decomposition of the
weighted cross-covariance.  A scale-free variant (s fixed to 1) is provided
for ablations.  All point sets are numpy arrays of shape (N, 2); weights are
nonnegative arrays of shape (N,).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateConfiguration, LengthMismatch, OutOfRange, ZeroWeightSum

__all__ = [
    "SimilarityTransform2D",
    "rotation_matrix",
    "wrap_angle",
    "weighted_centroid",
    "weighted_covariance",
    "svd2x2",
    "solve_similarity",
    "solve_orthogonal",
    "apply_transform",
    "alignment_objective",
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

    def rotation(self) -> np.ndarray:
        return rotation_matrix(self.theta)

    def inverse(self) -> "SimilarityTransform2D":
        """Transform mapping the target frame back to the source frame."""
        inv_scale = 1.0 / self.scale
        inv_theta = wrap_angle(-self.theta)
        inv_t = -inv_scale * (rotation_matrix(-self.theta) @ self.t)
        return SimilarityTransform2D(inv_scale, inv_theta, inv_t)

    def apply(self, points: np.ndarray) -> np.ndarray:
        return apply_transform(self, points)


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


def weighted_centroid(points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted mean of a (N, 2) point set.

    Raises ZeroWeightSum when the weights sum to zero and LengthMismatch when
    the array lengths disagree.
    """
    points = np.asarray(points, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if len(points) != len(weights):
        raise LengthMismatch(f"{len(points)} points vs {len(weights)} weights")
    total = float(weights.sum())
    if total == 0.0:
        raise ZeroWeightSum("weights sum to zero")
    return (weights[:, None] * points).sum(axis=0) / total


def weighted_covariance(
    p_centered: np.ndarray, q_centered: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Weighted cross-covariance C = sum_n w_n * outer(p_n, q_n) of centered sets."""
    p, q, w = _check_pairs(p_centered, q_centered, weights)
    return (p * w[:, None]).T @ q


def _svd2x2_angles(a: float, b: float, d: float, e: float):
    """(phi, psi, s1, s2) with [[a, b], [d, e]] = R(phi) diag(s1, s2) R(-psi),
    s1 >= |s2|; s2 < 0 exactly when the matrix reflects (det < 0)."""
    # Rotation-like part [[E, -H], [H, E]] and reflection-like part
    # [[F, G], [G, -F]]; their polar angles are the sum/difference of the
    # left and right rotation angles.
    big_e = 0.5 * (a + e)
    big_f = 0.5 * (a - e)
    big_g = 0.5 * (d + b)
    big_h = 0.5 * (d - b)

    q_mag = math.hypot(big_e, big_h)
    r_mag = math.hypot(big_f, big_g)
    a_sum = math.atan2(big_g, big_f)  # phi + psi
    a_diff = math.atan2(big_h, big_e)  # phi - psi
    phi = 0.5 * (a_diff + a_sum)
    psi = 0.5 * (a_sum - a_diff)
    return phi, psi, q_mag + r_mag, q_mag - r_mag


def svd2x2(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form SVD of a 2x2 matrix: c = U @ diag(sigma) @ V.T.

    Built from the rotation angles of ``_svd2x2_angles``; a negative
    determinant is absorbed by negating the second column of V, and the
    zero matrix yields identity factors.  Returns (U, sigma, V) with U, V
    orthogonal 2x2 arrays and sigma[0] >= sigma[1] >= 0.
    """
    c = np.asarray(c, dtype=float)
    phi, psi, s1, s2 = _svd2x2_angles(c[0, 0], c[0, 1], c[1, 0], c[1, 1])
    u = rotation_matrix(phi)
    v_t = rotation_matrix(-psi)
    sigma = np.array([s1, s2])
    if s2 < 0.0:
        sigma[1] = -s2
        v_t = np.diag([1.0, -1.0]) @ v_t
    # c = u @ diag(sigma) @ v_t  => V = v_t.T
    return u, sigma, v_t.T


def _solve(p, q, w, with_scale: bool) -> SimilarityTransform2D:
    """``svd2x2``'s route on scalars: R = V diag(1, det_sign) U^T, with
    det_sign = -1 exactly in the reflection case (s2 < 0), is R(psi - phi)
    either way, and the sign-corrected singular value sum is s1 + s2.  The
    two point sets are centered side by side, as one (N, 4) array; a
    non-finite point or weight leaves the sum or a centroid non-finite."""
    p, q, w = _check_pairs(p, q, w)
    low = float(w.min(initial=math.inf))
    if low < 0.0:
        raise OutOfRange("weights must be >= 0")
    positive = len(w) if low > 0.0 else int(np.count_nonzero(w > 0.0))
    if positive < 2:
        raise DegenerateConfiguration(
            f"need >= 2 positively weighted pairs, got {positive}"
        )
    total = float(w.sum())
    if total <= 0.0:
        raise ZeroWeightSum("weights sum to zero")

    w_col = w[:, None]
    pq = np.concatenate((p, q), axis=1)
    bar = (w_col * pq).sum(axis=0) / total
    p_x, p_y, q_x, q_y = bar.tolist()
    if not math.isfinite(total + p_x + p_y + q_x + q_y):
        raise OutOfRange("points and weights must be finite")
    centered = pq - bar
    p_c = centered[:, :2]
    spread = float((w * (p_c**2).sum(axis=1)).sum())
    if spread == 0.0:
        raise DegenerateConfiguration(
            "all positively weighted source points coincide"
        )

    (a, b), (d, e) = ((p_c * w_col).T @ centered[:, 2:]).tolist()
    phi, psi, s1, s2 = _svd2x2_angles(a, b, d, e)
    theta = wrap_angle(psi - phi)
    scale = (s1 + s2) / spread if with_scale else 1.0
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    t = np.array([
        q_x - scale * (cos_t * p_x - sin_t * p_y),
        q_y - scale * (sin_t * p_x + cos_t * p_y),
    ])
    return SimilarityTransform2D(scale=scale, theta=theta, t=t)


def solve_similarity(p: np.ndarray, q: np.ndarray, w: np.ndarray) -> SimilarityTransform2D:
    """Optimal weighted similarity (scale, rotation, translation) mapping p to q.

    Closed-form solution: center both sets at their weighted centroids, take
    the SVD of the weighted cross-covariance C = sum w_n outer(p_n, q_n), and
    compose R = V diag(1, sign(det(V U^T))) U^T so the result is always a
    proper rotation.  The scale is the (sign-corrected) trace of the singular
    values divided by the weighted source spread, and the translation aligns
    the centroids.

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
    out = transform.scale * (pts @ transform.rotation().T) + transform.t
    return out[0] if single else out


def alignment_objective(
    transform: SimilarityTransform2D,
    p: np.ndarray,
    q: np.ndarray,
    w: np.ndarray,
) -> float:
    """Weighted sum of squared residuals under a candidate transform."""
    p, q, w = _check_pairs(p, q, w)
    residual = apply_transform(transform, p) - q
    return float((w * (residual**2).sum(axis=1)).sum())
