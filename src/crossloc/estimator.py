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

from .errors import AllHypothesesDegenerate, DegenerateConfiguration, DimensionMismatch
from .errors import InsufficientMatches, OutOfRange, require_bool, require_int, require_real
from .geometry import (
    SimilarityTransform2D,
    _check_pairs,
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
    sample_correspondences,
    score_matrix,
    soft_assign,
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
]

MIN_SAMPLE = 3  # pairs per RANSAC hypothesis
_DRAW_BLOCK = 4096  # most minimal samples drawn and gathered at once


@dataclass(frozen=True)
class RansacConfig:
    """Robust-solve settings: hypotheses from minimal samples, consensus by
    an inlier distance threshold, optional weighted refit on the winners."""

    iterations: int = 1000
    inlier_threshold: float = 1.0  # meters
    refit_on_inliers: bool = True
    seed: int = 0

    def __post_init__(self):
        require_int("iterations", self.iterations, 1)
        require_int("seed", self.seed, 0)
        require_real("inlier_threshold", self.inlier_threshold, 0, ends="()")
        require_bool("refit_on_inliers", self.refit_on_inliers)


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
        require_real("tau", self.tau, 0, ends="()")
        require_int("num_correspondences", self.num_correspondences, 1)
        require_real("dustbin_z", self.dustbin_z, -math.inf, ends="()")
        require_bool("scale_aware", self.scale_aware)


@dataclass(frozen=True)
class PoseEstimate:
    """Solver output plus the evidence that produced it."""

    transform: SimilarityTransform2D
    correspondences: Optional[Matches] = None  # the pairs actually used
    inlier_mask: Optional[np.ndarray] = None  # only when RANSAC ran
    inlier_count: Optional[int] = None
    ground_points3: Optional[np.ndarray] = None  # (N, 3) their lifted points
    # RANSAC's own counts (only when it ran): minimal samples drawn, of them
    # degenerate ones redrawn, and whether the weighted refit replaced the
    # winning hypothesis
    draws: Optional[int] = None
    redraws: Optional[int] = None
    refit: Optional[bool] = None


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
    Raises DimensionMismatch when the depth map or the ray table is not the
    ground grid's shape, OutOfRange naming the grid and its first cell when
    a feature is NaN or infinite, and InsufficientMatches when fewer than
    two weighted pairs remain.
    """
    valid, points3 = _scene_tables(aerial, ground, depth, rays, cfg)
    # the scores live only while soft_assign runs, and its two factors only
    # until their product: at most three score-sized matrices at a time
    ra, cb = soft_assign(score_matrix(aerial.flat(), ground.flat()[valid], cfg.tau), cfg.dustbin_z)
    probs = ra[:-1, :-1] * cb[:-1, :-1]
    del ra, cb  # freed before the top-N, which copies the probabilities once
    return _lift_top_n(probs, valid, points3, aerial, cfg)


def _scene_tables(aerial, ground, depth, rays, cfg):
    """``build_correspondences``' input checks, then the tables ``_lift_top_n``
    selects from (``gradcheck._prepare``'s too): the flat indices of the
    depth-valid ground cells, which are the scored columns, and each one's
    lifted 3-D point, the same bits as lifting that one cell."""
    shapes = {"depth map": depth.depth.shape, "ray table": rays.directions.shape[:2]}
    for what, shape in shapes.items():
        if shape != (ground.rows, ground.cols):
            raise DimensionMismatch(f"{what} {shape} vs ground grid {(ground.rows, ground.cols)}")
    for name, grid in (("aerial", aerial), ("ground", ground)):
        finite = np.isfinite(grid.data).all(axis=-1)
        if not finite.all():
            cell = tuple(np.argwhere(~finite)[0].tolist())
            raise OutOfRange(f"{name} feature at cell {cell} is NaN or infinite", field=name)
    valid = np.flatnonzero(depth_valid_mask(depth, cfg.lift))
    if len(valid) == 0:
        raise InsufficientMatches("only 0 correspondences: no ground cell has valid depth")
    cells = np.stack(np.divmod(valid, ground.cols), axis=1)
    return valid, lift_ground_cells(cells, depth, rays, cfg.lift.initial_scale)


def _lift_top_n(probs, valid, points3, aerial, cfg) -> CorrespondenceSet:
    """``build_correspondences`` from the aerial-by-``valid``-ground
    probabilities on, looking the selected ground cells up in
    ``_scene_tables``' ``points3`` and converting the kept aerial cells
    (``gradcheck`` selects through it too).  Private: a tracer of public
    functions sees its calls as the caller's."""
    matches = sample_correspondences(probs, cfg.num_correspondences)
    keep = matches.weights > 0.0
    # the matrix columns index the valid cells: map them back to ground cells
    aerial_flat, columns = matches.aerial[keep], matches.ground[keep]
    ground_flat, weights = valid[columns], matches.weights[keep]
    if len(weights) < 2:
        raise InsufficientMatches(
            f"only {len(weights)} positively weighted correspondences after masking"
        )
    points3 = points3[columns]

    if cfg.lift.projection_mode == "topmost":
        keep = topmost_selection(points3, aerial.meta.meters_per_cell)
        if len(keep) < 2:
            raise InsufficientMatches(
                f"only {len(keep)} correspondences after topmost selection"
            )
        points3, weights, aerial_flat, ground_flat = (
            a[keep] for a in (points3, weights, aerial_flat, ground_flat)
        )

    aerial_cells = np.stack(np.divmod(aerial_flat, aerial.cols), axis=1)
    return CorrespondenceSet(
        ground_planar=points3[:, :2].copy(),
        aerial_metric=aerial_cells_to_metric(aerial_cells, aerial.meta, (aerial.rows, aerial.cols)),
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
    numbers x + iy, so the transform is x -> scale * e^(i theta) * x + t.
    The residual is (turn * p + t) - q in that order, formed in place on one
    temporary; the inputs are not written."""
    p = np.ascontiguousarray(ground_planar, dtype=float).view(complex)[:, 0]
    q = np.ascontiguousarray(aerial_metric, dtype=float).view(complex)[:, 0]
    turn = transform.scale * complex(math.cos(transform.theta), math.sin(transform.theta))
    residual = turn * p
    residual += complex(*transform.t.tolist())
    residual -= q
    flags = np.abs(residual) <= threshold
    return int(np.count_nonzero(flags)), flags


def _minimal_samples(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """The next ``count`` results of ``rng.choice(n, MIN_SAMPLE,
    replace=False)`` as one (count, MIN_SAMPLE) array.

    numpy 2.4.6's ``Generator.choice`` picks k < n items by Floyd's
    algorithm -- bounded draws on [0, n-3], [0, n-2], [0, n-1], a value
    already picked replaced by the bound -- and then shuffles them, swapping
    slot 2 with a draw on [0, 2] and slot 1 with one on [0, 1].
    ``Generator.integers`` over an array of bounds makes each of its draws
    the same way: a Lemire draw on the generator's buffered 32-bit words,
    rejections redrawn, and a bound of 0 reading no word.  numpy's
    tail-shuffle branch (n > 10000 and k > n // 50) cannot occur for k = 3.
    """
    first, second, third, swap2, swap1 = rng.integers(
        0, [n - 3, n - 2, n - 1, 2, 1], size=(count, 5), endpoint=True
    ).T
    second = np.where(second == first, n - 2, second)
    third = np.where((third == first) | (third == second), n - 1, third)
    rows = np.stack((first, second, third), axis=1)
    every = np.arange(count)
    for slot, other in ((2, swap2), (1, swap1)):
        moved = rows[every, other]
        rows[every, other] = rows[:, slot]
        rows[:, slot] = moved
    return rows


def ransac_estimate(
    ground_planar: np.ndarray,
    aerial_metric: np.ndarray,
    weights: np.ndarray,
    cfg: RansacConfig = RansacConfig(),
    scale_aware: bool = True,
) -> PoseEstimate:
    """Classic hypothesize-and-verify around the closed-form solver.

    Each iteration solves a minimal uniform-weight sample of ``MIN_SAMPLE``
    pairs; consensus is counted over all pairs and the earliest best
    hypothesis wins ties.  Degenerate samples are redrawn without consuming
    iterations (total draws are capped at ten times the iteration budget).
    With ``refit_on_inliers`` the final transform is a weighted solve over
    the winning consensus set; the reported inlier flags are the winning
    hypothesis's consensus, and ``draws``, ``redraws`` and ``refit`` report
    the loop's own counts.  Deterministic for a fixed seed: the samples are
    exactly the stream of ``default_rng(seed).choice(n, MIN_SAMPLE,
    replace=False)`` calls, taken by ``_minimal_samples`` in blocks just
    large enough to finish if no sample is degenerate.
    Raises LengthMismatch for arrays that are not (N, 2), (N, 2) and (N,),
    InsufficientMatches for fewer than ``MIN_SAMPLE`` pairs, and OutOfRange
    for a negative weight or a non-finite point or weight, all before the
    first draw.
    """
    ground_planar, aerial_metric, weights = _check_pairs(ground_planar, aerial_metric, weights)
    n = len(ground_planar)
    solver = solve_similarity if scale_aware else solve_orthogonal
    if n < MIN_SAMPLE:
        raise InsufficientMatches(
            f"{n} correspondences cannot seed {MIN_SAMPLE}-point hypotheses"
        )
    # the solver's own checks, once for every pair instead of per sample
    if float(np.minimum.reduce(weights, initial=math.inf)) < 0.0:
        raise OutOfRange("weights must be >= 0")
    if not all(np.isfinite(a).all() for a in (ground_planar, aerial_metric, weights)):
        raise OutOfRange("points and weights must be finite")
    rng = np.random.default_rng(cfg.seed)
    uniform = np.ones(MIN_SAMPLE)

    best_count = -1
    best_transform = None
    best_flags = None
    completed = 0
    draws = 0
    max_draws = cfg.iterations * 10
    while completed < cfg.iterations and draws < max_draws:
        block = min(cfg.iterations - completed, max_draws - draws, _DRAW_BLOCK)
        rows = _minimal_samples(rng, n, block)
        for p3, q3 in zip(ground_planar[rows], aerial_metric[rows]):
            draws += 1
            try:
                hyp = solver(p3, q3, uniform)
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
            f"no valid hypothesis in {draws} sample draws"
        )

    transform, refit = best_transform, False
    if cfg.refit_on_inliers and best_count >= 2:
        try:
            transform = solver(
                ground_planar[best_flags],
                aerial_metric[best_flags],
                weights[best_flags],
            )
            refit = True
        except DegenerateConfiguration:
            pass  # keep the raw hypothesis
    return PoseEstimate(
        transform=transform,
        inlier_mask=best_flags,
        inlier_count=best_count,
        draws=draws,
        redraws=draws - completed,
        refit=refit,
    )
