"""Fixed inputs of the training loss.

The loss itself -- a virtual-point consistency term comparing the estimated
planar pose with the ground-truth pose (rotation and translation only), two
symmetric contrastive terms, and their weighted sum -- is computed by
``gradcheck``'s chain.  This module holds what that chain reads: the
lattice of virtual points, the ground-truth (or pseudo-scale) projections
of each view's points into the other view that place the contrastive
targets, and the planar radius beyond which ground points are negatives.
"""

from __future__ import annotations

import numpy as np

from .errors import require_int, require_real
from .geometry import SimilarityTransform2D, rotation_matrix, solve_similarity

__all__ = [
    "NEGATIVE_RADIUS",
    "virtual_point_grid",
    "gt_aerial_targets",
    "gt_ground_targets",
    "pseudo_scale_targets",
]


# ground points farther than this many meters (planar) from a projected
# aerial target are the aerial-to-ground term's negatives
NEGATIVE_RADIUS = 1.0


def virtual_point_grid(side: int = 10, extent: float = 5.0) -> np.ndarray:
    """Uniform side x side lattice on [-extent, extent]^2, row-major.

    The point count is side squared by construction.
    """
    require_int("side", side, 1)
    require_real("extent", extent, 0, ends="()")
    axis = np.linspace(-extent, extent, side)
    xx, yy = np.meshgrid(axis, axis, indexing="xy")
    return np.column_stack([xx.ravel(), yy.ravel()])


def gt_aerial_targets(
    ground_planar: np.ndarray, truth: SimilarityTransform2D, scale: float
) -> np.ndarray:
    """Where ground BEV points land in the aerial frame under the true pose:
    q_hat = scale * R_gt p + t_gt."""
    ground_planar = np.asarray(ground_planar, dtype=float)
    return scale * (ground_planar @ rotation_matrix(truth.theta).T) + truth.t


def gt_ground_targets(
    aerial_metric: np.ndarray, truth: SimilarityTransform2D, scale: float
) -> np.ndarray:
    """Where aerial points land in the ground BEV frame under the true pose:
    p_hat = R_gt^T (q - t_gt) / scale."""
    aerial_metric = np.asarray(aerial_metric, dtype=float)
    return ((aerial_metric - truth.t) / scale) @ rotation_matrix(truth.theta)


def pseudo_scale_targets(
    ground_planar: np.ndarray,
    aerial_metric: np.ndarray,
    weights: np.ndarray,
    truth: SimilarityTransform2D,
) -> tuple:
    """Contrastive targets when the true depth scale is unknown.

    The scale recovered by the alignment solver on the current weighted
    correspondences stands in for the hidden true scale; rotation and
    translation still come from the ground truth.  Returns
    (aerial-frame targets for the ground points,
     ground-frame targets for the aerial points).
    """
    est = solve_similarity(ground_planar, aerial_metric, weights)
    q_hat = gt_aerial_targets(ground_planar, truth, est.scale)
    p_hat = gt_ground_targets(aerial_metric, truth, est.scale)
    return q_hat, p_hat
