"""End-to-end pose estimation from an aerial grid and a ground view.

Pipeline: score every aerial cell against the ground cells with usable
depth, soft-assign with a dustbin dual softmax, take the top-N
probabilities as weighted correspondences (``matching.Matches`` index
arrays), lift the ground cells to BEV points, convert aerial cells to
metric coordinates, and solve for the aligning similarity (scale, heading,
translation).  An optional RANSAC wrapper makes the solve robust to
outlier correspondences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import AllHypothesesDegenerate, DegenerateConfiguration, InsufficientMatches
from .errors import OutOfRange
from .geometry import (
    SimilarityTransform2D,
    apply_transform,
    solve_orthogonal,
    solve_similarity,
)
from .lifting import (
    DepthMap,
    LiftConfig,
    RayModel,
    aerial_cells_to_metric,
    depth_valid_mask,
    lift_ground_cells,
    topmost_selection,
)
from .matching import (
    FeatureGrid,
    Matches,
    match_probabilities,
    sample_correspondences,
    score_matrix,
)

__all__ = [
    "RansacConfig",
    "PipelineConfig",
    "PoseEstimate",
    "CorrespondenceSet",
    "build_correspondences",
    "estimate_pose",
    "ransac_estimate",
    "count_inliers",
    "overlay_layout",
]


@dataclass(frozen=True)
class RansacConfig:
    """Robust-solve settings: hypotheses from minimal samples, consensus by
    an inlier distance threshold, optional weighted refit on the winners."""

    iterations: int = 1000
    inlier_threshold: float = 1.0  # meters
    min_sample: int = 3
    refit_on_inliers: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1 or self.min_sample < 2:
            raise OutOfRange(f"need iterations >= 1 and min_sample >= 2: {self}")
        if not 0.0 < self.inlier_threshold < math.inf:
            raise OutOfRange(f"need a finite inlier threshold > 0: {self}")


@dataclass(frozen=True)
class PipelineConfig:
    """Full estimator settings."""

    tau: float = 0.1
    num_correspondences: int = 1024
    dustbin_z: float = 0.0
    lift: LiftConfig = field(default_factory=LiftConfig)
    ransac: Optional[RansacConfig] = None
    scale_aware: bool = True  # False pins scale to 1 (ablation)

    def __post_init__(self):
        if self.num_correspondences < 1 or not 0.0 < self.tau < math.inf:
            raise OutOfRange(f"need num_correspondences >= 1 and a finite tau > 0: {self}")


@dataclass(frozen=True)
class PoseEstimate:
    """Solver output plus the evidence that produced it."""

    transform: SimilarityTransform2D
    correspondences: Optional[Matches] = None  # the pairs actually used
    inlier_mask: Optional[np.ndarray] = None  # only when RANSAC ran
    inlier_count: Optional[int] = None
    ground_points3: Optional[np.ndarray] = None  # (N, 3) their lifted points


@dataclass(frozen=True)
class CorrespondenceSet:
    """Weighted planar correspondence geometry extracted from the grids."""

    ground_planar: np.ndarray  # (N, 2) BEV points in the camera frame
    aerial_metric: np.ndarray  # (N, 2) metric points in the aerial frame
    weights: np.ndarray  # (N,)
    ground_points3: np.ndarray  # (N, 3) lifted points before projection
    matches: Matches  # the kept pairs, parallel to the rows


def build_correspondences(
    aerial: FeatureGrid,
    ground: FeatureGrid,
    depth: DepthMap,
    rays: RayModel,
    cfg: PipelineConfig,
) -> CorrespondenceSet:
    """Run matching and lifting, returning solver-ready weighted pairs.

    Only ground cells passing the depth validity test are scored (the
    others would carry exactly zero probability to every real pair),
    matches whose weight is not positive (zero or NaN) are discarded, and
    in topmost mode only the highest lifted point per aerial-cell-sized
    planar bucket survives.
    Raises InsufficientMatches when fewer than two weighted pairs remain.
    """
    valid = np.flatnonzero(depth_valid_mask(depth, cfg.lift))
    if len(valid) == 0:
        raise InsufficientMatches("only 0 correspondences: no ground cell has valid depth")
    valid_ground = FeatureGrid(ground.flat()[valid][None], "ground")  # one row
    probs = match_probabilities(score_matrix(aerial, valid_ground, cfg.tau), cfg.dustbin_z)
    return _lift_top_n(probs, valid, aerial, ground, depth, rays, cfg)


def _lift_top_n(probs, valid, aerial, ground, depth, rays, cfg) -> CorrespondenceSet:
    """``build_correspondences`` from the aerial-by-``valid``-ground
    probabilities on (``gradcheck.build_context`` selects through it too).
    Private: a tracer of public functions sees its calls as the caller's."""
    matches = sample_correspondences(probs, cfg.num_correspondences)
    keep = matches.weights > 0.0
    # the matrix columns index the valid cells: map them back to ground cells
    aerial_flat, ground_flat = matches.aerial[keep], valid[matches.ground[keep]]
    weights = matches.weights[keep]
    if len(weights) < 2:
        raise InsufficientMatches(
            f"only {len(weights)} positively weighted correspondences after masking"
        )

    ground_cells = np.stack(np.divmod(ground_flat, ground.cols), axis=1)
    aerial_cells = np.stack(np.divmod(aerial_flat, aerial.cols), axis=1)
    points3 = lift_ground_cells(ground_cells, depth, rays, cfg.lift.initial_scale)
    aerial_xy = aerial_cells_to_metric(
        aerial_cells, aerial.meta, (aerial.rows, aerial.cols)
    )

    if cfg.lift.projection_mode == "topmost":
        keep = topmost_selection(points3, aerial.meta.meters_per_cell)
        if len(keep) < 2:
            raise InsufficientMatches(
                f"only {len(keep)} correspondences after topmost selection"
            )
        points3 = points3[keep]
        aerial_xy = aerial_xy[keep]
        weights = weights[keep]
        aerial_flat, ground_flat = aerial_flat[keep], ground_flat[keep]

    return CorrespondenceSet(
        ground_planar=points3[:, :2].copy(),
        aerial_metric=aerial_xy,
        weights=weights,
        ground_points3=points3,
        matches=Matches(aerial_flat, ground_flat, weights),
    )


def estimate_pose(
    aerial: FeatureGrid,
    ground: FeatureGrid,
    depth: DepthMap,
    rays: RayModel,
    cfg: PipelineConfig = PipelineConfig(),
) -> PoseEstimate:
    """Full pipeline: grids in, planar pose (and depth scale) out."""
    corr = build_correspondences(aerial, ground, depth, rays, cfg)
    if cfg.ransac is not None:
        est = ransac_estimate(
            corr.ground_planar, corr.aerial_metric, corr.weights, cfg.ransac,
            scale_aware=cfg.scale_aware,
        )
    else:
        solver = solve_similarity if cfg.scale_aware else solve_orthogonal
        est = PoseEstimate(solver(corr.ground_planar, corr.aerial_metric, corr.weights))
    return replace(est, correspondences=corr.matches, ground_points3=corr.ground_points3)


def count_inliers(
    transform: SimilarityTransform2D,
    ground_planar: np.ndarray,
    aerial_metric: np.ndarray,
    threshold: float,
):
    """Correspondences whose transformed ground point lands within
    ``threshold`` meters of its aerial point (at exactly ``threshold`` it
    counts).  Returns (count, flags).  Planar points are read as complex
    numbers x + iy, so the transform is x -> scale * e^(i theta) * x + t."""
    p, q = (np.ascontiguousarray(x, dtype=float).view(complex)[:, 0]
            for x in (ground_planar, aerial_metric))
    turn = transform.scale * complex(math.cos(transform.theta), math.sin(transform.theta))
    flags = np.abs(turn * p + complex(*transform.t) - q) <= threshold
    return int(np.count_nonzero(flags)), flags


def ransac_estimate(
    ground_planar: np.ndarray,
    aerial_metric: np.ndarray,
    weights: np.ndarray,
    cfg: RansacConfig = RansacConfig(),
    scale_aware: bool = True,
) -> PoseEstimate:
    """Classic hypothesize-and-verify around the closed-form solver.

    Each iteration solves a minimal uniform-weight sample (3 pairs by
    default); consensus is counted over all pairs and the earliest best
    hypothesis wins ties.  Degenerate samples are redrawn without consuming
    iterations (total draws are capped at ten times the iteration budget).
    With ``refit_on_inliers`` the final transform is a weighted solve over
    the winning consensus set; the reported inlier flags are the winning
    hypothesis's consensus.  Deterministic for a fixed seed.
    """
    ground_planar = np.asarray(ground_planar, dtype=float)
    aerial_metric = np.asarray(aerial_metric, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = len(ground_planar)
    solver = solve_similarity if scale_aware else solve_orthogonal
    if n < cfg.min_sample:
        raise InsufficientMatches(
            f"{n} correspondences cannot seed {cfg.min_sample}-point hypotheses"
        )
    rng = np.random.default_rng(cfg.seed)
    uniform = np.ones(cfg.min_sample)

    best_count = -1
    best_transform = None
    best_flags = None
    completed = 0
    attempts = 0
    max_attempts = cfg.iterations * 10
    while completed < cfg.iterations and attempts < max_attempts:
        attempts += 1
        sample = rng.choice(n, size=cfg.min_sample, replace=False)
        try:
            hyp = solver(ground_planar[sample], aerial_metric[sample], uniform)
        except DegenerateConfiguration:
            continue  # redraw; not counted against the iteration budget
        count, flags = count_inliers(
            hyp, ground_planar, aerial_metric, cfg.inlier_threshold
        )
        if count > best_count:
            best_count, best_transform, best_flags = count, hyp, flags
        completed += 1
    if best_transform is None:
        raise AllHypothesesDegenerate(
            f"no valid hypothesis in {attempts} sample draws"
        )

    transform = best_transform
    if cfg.refit_on_inliers and best_count >= 2:
        try:
            transform = solver(
                ground_planar[best_flags],
                aerial_metric[best_flags],
                weights[best_flags],
            )
        except DegenerateConfiguration:
            transform = best_transform  # keep the raw hypothesis
    return PoseEstimate(
        transform=transform,
        inlier_mask=best_flags,
        inlier_count=best_count,
    )


def overlay_layout(points3: np.ndarray, transform: SimilarityTransform2D) -> np.ndarray:
    """Project lifted scene points into the aerial frame for inspection."""
    points3 = np.asarray(points3, dtype=float)
    return apply_transform(transform, points3[:, :2])
