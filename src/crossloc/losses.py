"""Training losses for the matching-and-alignment pipeline.

Three ingredients:

* a virtual-point consistency loss comparing the estimated planar pose with
  the ground-truth pose over a fixed lattice of virtual points (scale plays
  no part -- only rotation and translation are compared);
* two symmetric contrastive terms that pull the score of the true match
  above competitors, using ground-truth (or pseudo-scale) projections of
  each view's points into the other view;
* their weighted sum.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EmptyInput, NoValidTargets, OutOfRange
from .geometry import SimilarityTransform2D, apply_transform, rotation_matrix
from .lifting import aerial_coverage_mask, metric_to_aerial_cells
from .matching import AerialMeta

__all__ = [
    "NEGATIVE_RADIUS",
    "virtual_point_grid",
    "vce_loss",
    "gt_aerial_targets",
    "gt_ground_targets",
    "info_nce_g2s",
    "info_nce_s2g",
    "pseudo_scale_targets",
    "total_loss",
]


# ground points farther than this many meters (planar) from a projected
# aerial target are the aerial-to-ground term's negatives
NEGATIVE_RADIUS = 1.0


def virtual_point_grid(side: int = 10, extent: float = 5.0) -> np.ndarray:
    """Uniform side x side lattice on [-extent, extent]^2, row-major.

    The point count is side squared by construction.
    """
    if side < 1:
        raise OutOfRange(f"side must be >= 1, got {side}")
    if extent <= 0:
        raise OutOfRange(f"extent must be positive, got {extent}")
    axis = np.linspace(-extent, extent, side)
    xx, yy = np.meshgrid(axis, axis, indexing="xy")
    return np.column_stack([xx.ravel(), yy.ravel()])


def vce_loss(
    estimate: SimilarityTransform2D,
    truth: SimilarityTransform2D,
    virtual_points: np.ndarray,
) -> float:
    """Mean distance between virtual points mapped by the two poses.

    Only rotation and translation enter; the transforms' scales are ignored
    so that pose supervision stays in metric units.
    """
    virtual_points = np.asarray(virtual_points, dtype=float)
    if len(virtual_points) == 0:
        raise EmptyInput("no virtual points")
    r_est = rotation_matrix(estimate.theta)
    r_gt = rotation_matrix(truth.theta)
    delta = (virtual_points @ r_gt.T + truth.t) - (virtual_points @ r_est.T + estimate.t)
    return float(np.linalg.norm(delta, axis=1).mean())


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


def info_nce_g2s(
    scores: np.ndarray,
    aerial_shape: tuple,
    ground_cols: np.ndarray,
    targets: np.ndarray,
    meta: AerialMeta,
) -> float:
    """Ground-to-aerial contrastive loss.

    For each sampled ground point (a column of the ``(n_aerial, n_ground)``
    scores over an aerial grid of ``aerial_shape``) the positive is the
    aerial cell nearest its projected target; the denominator runs
    over the point's entire score column.  Targets outside the aerial
    coverage are dropped from the mean.  Raises NoValidTargets when nothing
    remains.
    """
    ground_cols = np.asarray(ground_cols, dtype=int)
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if len(ground_cols) != len(targets):
        raise OutOfRange(
            f"{len(ground_cols)} columns vs {len(targets)} targets"
        )
    inside = aerial_coverage_mask(targets, meta, aerial_shape)
    if not inside.any():
        raise NoValidTargets("every ground-to-aerial target left the aerial coverage")
    cells = metric_to_aerial_cells(targets[inside], meta, aerial_shape)
    total = 0.0
    for col, pos in zip(ground_cols[inside], cells[:, 0] * aerial_shape[1] + cells[:, 1]):
        column = scores[:, col]
        total += -(column[pos] - _logsumexp(column))
    return total / len(cells)


def info_nce_s2g(
    scores: np.ndarray,
    aerial_rows: np.ndarray,
    targets: np.ndarray,
    ground_cols: np.ndarray,
    ground_planar: np.ndarray,
    radius: float = NEGATIVE_RADIUS,
) -> float:
    """Aerial-to-ground contrastive loss.

    For each sampled aerial point (a row of the score matrix) the positive is
    the candidate ground point planar-closest to the projected target; the
    denominator is the positive plus all candidates farther than ``radius``
    meters (nearby non-positives are neither attracted nor repelled).
    Raises NoValidTargets when there is no aerial row or no candidate.
    """
    aerial_rows = np.asarray(aerial_rows, dtype=int)
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    ground_cols = np.asarray(ground_cols, dtype=int)
    ground_planar = np.atleast_2d(np.asarray(ground_planar, dtype=float))
    if len(ground_cols) != len(ground_planar) or len(aerial_rows) != len(targets):
        raise OutOfRange(
            f"{len(ground_cols)} candidate columns vs {len(ground_planar)} positions, "
            f"{len(aerial_rows)} rows vs {len(targets)} targets"
        )
    if len(ground_cols) == 0 or len(aerial_rows) == 0:
        raise NoValidTargets("no candidate ground points or no aerial rows")
    total = 0.0
    for row, target in zip(aerial_rows, targets):
        dist = np.linalg.norm(ground_planar - target, axis=1)
        pos = int(np.argmin(dist))  # ties keep the earliest candidate
        keep = dist > radius
        keep[pos] = True
        entries = scores[row, ground_cols[keep]]
        pos_in_subset = int(keep[:pos].sum())  # kept candidates before the positive
        total += -(entries[pos_in_subset] - _logsumexp(entries))
    return total / len(aerial_rows)


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
    from .geometry import solve_similarity

    est = solve_similarity(ground_planar, aerial_metric, weights)
    q_hat = gt_aerial_targets(ground_planar, truth, est.scale)
    p_hat = gt_ground_targets(aerial_metric, truth, est.scale)
    return q_hat, p_hat


def total_loss(vce: float, g2s: float, s2g: float, beta: float) -> float:
    """Weighted combination: vce + beta * (g2s + s2g) / 2."""
    if beta < 0:
        raise OutOfRange(f"beta must be nonnegative, got {beta}")
    return float(vce + beta * (g2s + s2g) / 2.0)


def _logsumexp(x: np.ndarray) -> float:
    m = float(np.max(x))
    return m + math.log(float(np.exp(x - m).sum()))
