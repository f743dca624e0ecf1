"""Fixed inputs of the training loss.

The loss itself -- a virtual-point consistency term comparing the estimated
planar pose with the ground-truth pose (rotation and translation only), two
symmetric contrastive terms, and their weighted sum -- is computed by
``gradcheck``'s chain.  This module holds what that chain reads: the
lattice of virtual points, the ground-truth (or pseudo-scale) projections
of each view's points into the other view that place the contrastive
targets, the planar radius beyond which ground points are negatives, and
the index structure they give a step's scenes (``_contrastive_indices``).
"""

from __future__ import annotations

import numpy as np

from .errors import require_int, require_real
from .geometry import SimilarityTransform2D, rotation_matrix, solve_similarity
from .lifting import aerial_coverage_mask, metric_to_aerial_cells
from .matching import AerialMeta

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


def _pose(truth, scale) -> tuple:
    """(R_gt, t_gt, scale) of one pose, or of a list of poses and their
    scales stacked to broadcast against ``(S, N, 2)`` points."""
    if isinstance(truth, SimilarityTransform2D):
        return rotation_matrix(truth.theta), truth.t, scale
    rot = np.array([rotation_matrix(pose.theta) for pose in truth])
    t = np.array([pose.t for pose in truth], dtype=float)[:, None]
    return rot, t, np.asarray(scale, dtype=float)[:, None, None]


def gt_aerial_targets(
    ground_planar: np.ndarray, truth: SimilarityTransform2D, scale: float
) -> np.ndarray:
    """Where ground BEV points land in the aerial frame under the true pose:
    q_hat = scale * R_gt p + t_gt.  ``(S, N, 2)`` points take a list of
    ``S`` poses and scales, one per scene."""
    rot, t, scale = _pose(truth, scale)
    ground_planar = np.asarray(ground_planar, dtype=float)
    return scale * (ground_planar @ rot.swapaxes(-1, -2)) + t


def gt_ground_targets(
    aerial_metric: np.ndarray, truth: SimilarityTransform2D, scale: float
) -> np.ndarray:
    """Where aerial points land in the ground BEV frame under the true pose:
    p_hat = R_gt^T (q - t_gt) / scale.  ``(S, N, 2)`` points take a list of
    ``S`` poses and scales, one per scene."""
    rot, t, scale = _pose(truth, scale)
    aerial_metric = np.asarray(aerial_metric, dtype=float)
    return ((aerial_metric - t) / scale) @ rot


def _contrastive_indices(planar, metric, truths, scales, metas, shapes) -> tuple:
    """The contrastive terms' structure for S scenes of N pairs, once over a
    leading scene axis: ``(inside, cells, keep, pos)``.  ``inside`` and
    ``cells`` are (S, N): whether each pair's aerial target lies in
    coverage, and its flat aerial cell.  ``keep`` (S, N, N) says whether
    pair m is a candidate for the row of pair n, and ``pos`` (S, N) is each
    row's positive candidate.  ``planar`` and ``metric`` are the (S, N, 2)
    ground and aerial points; the others hold one pose, target scale,
    ``AerialMeta`` and aerial grid shape per scene."""
    meta = AerialMeta(np.array([m.meters_per_cell for m in metas])[:, None],
                      np.array([m.center_offset for m in metas], dtype=float)[:, None])
    rows, cols = np.array(shapes).T[..., None]
    q_hat = gt_aerial_targets(planar, truths, scales)
    inside = aerial_coverage_mask(q_hat, meta, (rows, cols))
    # only targets in coverage are read: one outside (maybe not finite) takes the centre's cell
    q_hat = np.where(inside[..., None], q_hat, meta.center_offset)
    cells = metric_to_aerial_cells(q_hat, meta, (rows, cols))
    p_hat = gt_ground_targets(metric, truths, scales)
    dist = np.linalg.norm(planar[:, None, :, :] - p_hat[:, :, None, :], axis=-1)
    pos = np.argmin(dist, axis=-1)  # ties keep the earliest candidate
    keep = dist > NEGATIVE_RADIUS
    keep.reshape(-1, keep.shape[-1])[np.arange(pos.size), pos.ravel()] = True
    return inside, cells[..., 0] * cols + cells[..., 1], keep, pos


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
