"""End-to-end pipeline tests: matching + lifting + alignment.

The load-bearing checks are the closure invariants: on noiseless scenes the
full pipeline must reproduce the generating pose to near machine precision,
and rescaling all depths by k must leave the pose fixed while the recovered
scale absorbs exactly 1/k.
"""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crossloc.errors import (
    AllHypothesesDegenerate,
    DegenerateConfiguration,
    DimensionMismatch,
    InsufficientMatches,
    OutOfRange,
)
from crossloc.estimator import (
    PipelineConfig,
    RansacConfig,
    build_correspondences,
    count_inliers,
    estimate_pose,
    ransac_estimate,
)
from crossloc.geometry import (
    SimilarityTransform2D,
    apply_transform,
    solve_similarity,
    wrap_angle,
)
from crossloc.lifting import DepthMap, LiftConfig, depth_valid_mask
from crossloc.matching import AerialMeta
from crossloc.simulator import SceneConfig, contaminate, generate


def closure_config(scene, n=8, **kwargs):
    """Pipeline settings under which a noiseless scene should close exactly."""
    return PipelineConfig(
        num_correspondences=n,
        lift=LiftConfig(initial_scale=scene.scale_gt),
        **kwargs,
    )


def pose_gap(estimate, scene):
    t_err = float(np.linalg.norm(estimate.transform.t - scene.truth.t))
    r_err = abs(wrap_angle(estimate.transform.theta - scene.truth.theta))
    return t_err, r_err


# ---------------------------------------------------------------------------
# closure


def test_noiseless_closure_recovers_pose():
    for seed in range(10):
        scene = generate(SceneConfig(seed=seed))
        est = estimate_pose(
            scene.aerial, scene.ground, scene.depth, scene.rays, closure_config(scene)
        )
        t_err, r_err = pose_gap(est, scene)
        assert t_err < 1e-6, f"seed {seed}: translation error {t_err}"
        assert r_err < 1e-9, f"seed {seed}: rotation error {r_err}"
        assert abs(est.transform.scale - 1.0) < 1e-9
        assert est.inlier_mask is None


def test_noiseless_closure_with_hidden_scale():
    for seed in range(6):
        scene = generate(SceneConfig(seed=seed, depth_kind="relative"))
        est = estimate_pose(
            scene.aerial, scene.ground, scene.depth, scene.rays, closure_config(scene)
        )
        t_err, r_err = pose_gap(est, scene)
        assert t_err < 1e-6
        assert r_err < 1e-9
        # Depths were pre-divided by the hidden scale and the lift multiplied
        # it back in, so the solver sees metric points and reports scale one.
        assert abs(est.transform.scale - 1.0) < 1e-9


def test_noiseless_closure_pinhole():
    for seed in range(3):
        scene = generate(
            SceneConfig(seed=seed, camera="pinhole", ground_cols=32, min_visible=5)
        )
        est = estimate_pose(
            scene.aerial, scene.ground, scene.depth, scene.rays, closure_config(scene)
        )
        t_err, r_err = pose_gap(est, scene)
        assert t_err < 1e-6
        assert r_err < 1e-9


def test_depth_rescaling_moves_scale_not_pose():
    """Multiplying every depth by k must divide the recovered scale by k and
    leave translation and heading untouched."""
    scene = generate(SceneConfig(seed=1))
    reference = None
    for k in np.logspace(-3, 3, 7):
        depth = DepthMap(scene.depth.depth * k, scene.depth.kind)
        cfg = PipelineConfig(
            num_correspondences=8,
            lift=LiftConfig(max_depth=35.0 * k, initial_scale=1.0),
        )
        est = estimate_pose(scene.aerial, scene.ground, depth, scene.rays, cfg)
        assert abs(est.transform.scale * k - 1.0) < 1e-9
        if reference is None:
            reference = est.transform
        assert np.linalg.norm(est.transform.t - reference.t) < 1e-6
        assert abs(wrap_angle(est.transform.theta - reference.theta)) < 1e-9


# cached: the power-of-two properties below compare many scalings to one base
@functools.lru_cache(maxsize=None)
def default_scene(seed, noise):
    return generate(SceneConfig(seed=seed, noise_sigma=noise))


@functools.lru_cache(maxsize=None)
def scene_and_estimate(seed, noise, ransac, n=1024):
    """A default scene and its estimate under ``symmetry_config``."""
    scene = default_scene(seed, noise)
    cfg = symmetry_config(ransac, n=n)
    return scene, estimate_pose(scene.aerial, scene.ground, scene.depth, scene.rays, cfg)


def symmetry_config(ransac, max_depth=35.0, n=1024, threshold=1.0):
    """Default settings but ``n`` correspondences, all-points projection,
    direct or 200-iteration RANSAC."""
    return PipelineConfig(
        num_correspondences=n,
        lift=LiftConfig(max_depth=max_depth),
        ransac=RansacConfig(iterations=200, inlier_threshold=threshold) if ransac else None,
    )


def assert_same_pose_bits(est, base, scale, t_factor=1.0):
    assert est.transform.scale == scale
    assert est.transform.theta == base.transform.theta
    np.testing.assert_array_equal(est.transform.t, base.transform.t * t_factor)
    np.testing.assert_array_equal(est.inlier_mask, base.inlier_mask)


@given(seed=st.integers(0, 11), k=st.sampled_from([1, -3, 40]), ransac=st.booleans())
def test_depth_and_max_depth_times_two_to_the_k_divide_only_the_scale(seed, k, ransac):
    """Depths and ``max_depth`` times 2^k keep the same cells valid and lift
    every point exactly 2^k times farther, so the scale is exactly 2^-k of
    the unscaled one and heading, translation and inlier mask keep their
    bits.  Topmost mode is left out: its buckets are in lifted units, which
    are metres only for metric depth, so scaling the depth moves points
    between buckets."""
    scene, base = scene_and_estimate(seed, 0.0, ransac)
    depth = DepthMap(scene.depth.depth * 2.0**k, scene.depth.kind)
    cfg = symmetry_config(ransac, max_depth=35.0 * 2.0**k)
    est = estimate_pose(scene.aerial, scene.ground, depth, scene.rays, cfg)
    assert_same_pose_bits(est, base, base.transform.scale * 2.0**-k)


@given(seed=st.integers(0, 11), k=st.sampled_from([3, -7, 200]), ransac=st.booleans())
def test_ground_features_times_two_to_the_k_keep_the_pose(seed, k, ransac):
    """Matching reads only unit feature rows, and a row times 2^k normalises
    to the same bits, so the whole estimate keeps its bits."""
    scene, base = scene_and_estimate(seed, 0.3, ransac)
    ground = dataclasses.replace(scene.ground, data=scene.ground.data * 2.0**k)
    est = estimate_pose(scene.aerial, ground, scene.depth, scene.rays, symmetry_config(ransac))
    assert_same_pose_bits(est, base, base.transform.scale)


@given(seed=st.integers(0, 11), k=st.sampled_from([3, -7]), ransac=st.booleans())
def test_aerial_geometry_times_two_to_the_k_multiplies_scale_and_translation(seed, k, ransac):
    """Aerial ``meters_per_cell`` and ``center_offset`` times 2^k place every
    aerial point exactly 2^k times farther out, and the inlier threshold
    times 2^k keeps each residual's verdict, so scale and translation are
    exactly 2^k times the unscaled ones and heading and inlier mask keep
    their bits.  Topmost mode is left out: its buckets are sized by
    ``meters_per_cell`` but hold lifted points, which do not scale with it."""
    scene, base = scene_and_estimate(seed, 0.0, ransac, n=256)
    meta = scene.aerial.meta
    meta = AerialMeta(meta.meters_per_cell * 2.0**k, meta.center_offset * 2.0**k)
    aerial = dataclasses.replace(scene.aerial, meta=meta)
    cfg = symmetry_config(ransac, n=256, threshold=2.0**k)
    est = estimate_pose(aerial, scene.ground, scene.depth, scene.rays, cfg)
    assert_same_pose_bits(est, base, base.transform.scale * 2.0**k, 2.0**k)


def test_estimate_is_deterministic():
    scene = generate(SceneConfig(seed=2, noise_sigma=0.1))
    cfg = PipelineConfig(num_correspondences=64)
    a = estimate_pose(scene.aerial, scene.ground, scene.depth, scene.rays, cfg)
    b = estimate_pose(scene.aerial, scene.ground, scene.depth, scene.rays, cfg)
    assert a.transform.scale == b.transform.scale
    assert a.transform.theta == b.transform.theta
    np.testing.assert_array_equal(a.transform.t, b.transform.t)


def test_scale_pinning_ablation():
    scene = generate(SceneConfig(seed=3, depth_kind="relative"))
    cfg = PipelineConfig(
        num_correspondences=8,
        lift=LiftConfig(initial_scale=scene.scale_gt),
        scale_aware=False,
    )
    est = estimate_pose(scene.aerial, scene.ground, scene.depth, scene.rays, cfg)
    assert est.transform.scale == 1.0


# ---------------------------------------------------------------------------
# correspondence construction


def test_build_correspondences_masks_invalid_depth():
    scene = generate(SceneConfig(seed=4))
    corr = build_correspondences(
        scene.aerial, scene.ground, scene.depth, scene.rays, closure_config(scene)
    )
    assert len(corr.matches) == 8
    assert (corr.weights > 0).all()
    scaled = (scene.depth.depth * scene.scale_gt).ravel()[corr.matches.ground]
    assert np.isfinite(scaled).all()
    assert (scaled <= 35.0 + 1e-12).all()


def test_matching_holds_at_most_three_score_sized_matrices():
    """On a default scene the traced peak of ``build_correspondences`` stays
    within three (A+1) x (k+1) float64 matrices (k valid ground cells) plus
    the two feature grids' bytes: the scores, the row factor and the column
    factor, or the two factors and their product, and never a further
    augmented or exponential copy."""
    scene = generate(SceneConfig(seed=0))
    cfg = PipelineConfig(num_correspondences=256)
    args = (scene.aerial, scene.ground, scene.depth, scene.rays, cfg)
    build_correspondences(*args)  # first-call allocations are not the stage's
    k = int(depth_valid_mask(scene.depth, cfg.lift).sum())
    matrix = (scene.aerial.rows * scene.aerial.cols + 1) * (k + 1) * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        build_correspondences(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 3 * matrix + scene.aerial.data.nbytes + scene.ground.data.nbytes


def test_all_invalid_depth_raises():
    scene = generate(SceneConfig(seed=5))
    blank = DepthMap(np.full_like(scene.depth.depth, np.nan), scene.depth.kind)
    with pytest.raises(InsufficientMatches):
        estimate_pose(
            scene.aerial, scene.ground, blank, scene.rays, closure_config(scene)
        )


def test_depth_or_rays_of_another_shape_are_a_dimension_mismatch():
    """A depth map or ray table whose cells are not the ground grid's is
    refused before anything is scored, not indexed out of bounds."""
    scene = generate(SceneConfig(seed=4))  # a 16 x 48 ground grid
    cfg = closure_config(scene)
    reshaped = DepthMap(scene.depth.depth.reshape(24, 32), scene.depth.kind)
    with pytest.raises(DimensionMismatch, match=r"depth map \(24, 32\)"):
        build_correspondences(scene.aerial, scene.ground, reshaped, scene.rays, cfg)
    rays = dataclasses.replace(scene.rays, directions=scene.rays.directions[:, :-1])
    with pytest.raises(DimensionMismatch, match=r"ray table \(16, 47\)"):
        build_correspondences(scene.aerial, scene.ground, scene.depth, rays, cfg)


@pytest.mark.parametrize(
    "side, value, scored",
    [("ground", np.nan, True), ("ground", np.inf, False), ("aerial", np.nan, None),
     ("aerial", -np.inf, None)],
)
def test_non_finite_feature_is_out_of_range(side, value, scored):
    """A NaN or infinite feature in either grid, in a scored ground cell or
    not, is OutOfRange naming the grid and its first such cell."""
    scene = generate(SceneConfig(seed=4))
    cfg = PipelineConfig()
    grids = {"aerial": scene.aerial, "ground": scene.ground}
    valid = depth_valid_mask(scene.depth, cfg.lift)
    cell = tuple(np.argwhere(valid == scored)[0]) if side == "ground" else (3, 5)
    data = grids[side].data.copy()
    data[cell + (2,)] = value
    data[-1, -1, 0] = np.nan  # a later cell is not the one named
    grids[side] = dataclasses.replace(grids[side], data=data)
    named = rf"^{side} feature at cell \({cell[0]}, {cell[1]}\) "
    with pytest.raises(OutOfRange, match=named) as e:
        build_correspondences(grids["aerial"], grids["ground"], scene.depth, scene.rays, cfg)
    assert e.value.field == side


def test_topmost_mode_still_closes():
    scene = generate(SceneConfig(seed=6))
    cfg = PipelineConfig(
        num_correspondences=8,
        lift=LiftConfig(initial_scale=scene.scale_gt, projection_mode="topmost"),
    )
    est = estimate_pose(scene.aerial, scene.ground, scene.depth, scene.rays, cfg)
    t_err, r_err = pose_gap(est, scene)
    assert t_err < 1e-6
    assert r_err < 1e-9


def test_degradation_with_feature_noise_is_monotone():
    def median_error(sigma):
        errs = []
        for seed in range(12):
            scene = generate(SceneConfig(seed=seed, noise_sigma=sigma))
            cfg = PipelineConfig(num_correspondences=64)
            est = estimate_pose(scene.aerial, scene.ground, scene.depth, scene.rays, cfg)
            errs.append(np.linalg.norm(est.transform.t - scene.truth.t))
        return float(np.median(errs))

    clean, mild, heavy = (median_error(s) for s in (0.0, 0.1, 0.3))
    assert clean <= mild <= heavy
    assert heavy > 10 * clean + 1e-9


# ---------------------------------------------------------------------------
# robust estimation


def synthetic_pairs(seed, n=60):
    rng = np.random.default_rng(seed)
    truth = SimilarityTransform2D(1.0, rng.uniform(-np.pi, np.pi), rng.uniform(-20, 20, 2))
    p = rng.uniform(-25, 25, size=(n, 2))
    return p, apply_transform(truth, p), truth


def test_ransac_matches_direct_solver_without_outliers():
    p, q, _ = synthetic_pairs(0)
    w = np.ones(len(p))
    direct = solve_similarity(p, q, w)
    est = ransac_estimate(p, q, w, RansacConfig(iterations=50, seed=1))
    assert est.inlier_count == len(p)
    assert abs(est.transform.scale - direct.scale) < 1e-9
    assert abs(wrap_angle(est.transform.theta - direct.theta)) < 1e-9
    assert np.linalg.norm(est.transform.t - direct.t) < 1e-9


def test_ransac_rejects_outliers_direct_does_not():
    for seed in range(5):
        p, q, truth = synthetic_pairs(seed)
        bad_q, flags = contaminate(q, 0.3, extent=70.0, seed=seed + 100)
        w = np.ones(len(p))
        direct = solve_similarity(p, bad_q, w)
        est = ransac_estimate(p, bad_q, w, RansacConfig(iterations=200, seed=seed))
        direct_err = np.linalg.norm(direct.t - truth.t)
        robust_err = np.linalg.norm(est.transform.t - truth.t)
        assert robust_err < 1e-6
        assert direct_err > 0.1
        # The consensus set is exactly the uncontaminated pairs.
        np.testing.assert_array_equal(est.inlier_mask, ~flags)


def test_ransac_deterministic_per_seed():
    p, q, _ = synthetic_pairs(3)
    bad_q, _ = contaminate(q, 0.25, extent=70.0, seed=7)
    w = np.ones(len(p))
    a = ransac_estimate(p, bad_q, w, RansacConfig(iterations=100, seed=4))
    b = ransac_estimate(p, bad_q, w, RansacConfig(iterations=100, seed=4))
    np.testing.assert_array_equal(a.transform.t, b.transform.t)
    assert a.transform.theta == b.transform.theta
    np.testing.assert_array_equal(a.inlier_mask, b.inlier_mask)


def test_ransac_needs_minimum_points():
    with pytest.raises(InsufficientMatches):
        ransac_estimate(np.zeros((2, 2)), np.zeros((2, 2)), np.ones(2))


def test_ransac_all_samples_degenerate():
    # Every ground point identical: no minimal sample has planar spread.
    p = np.zeros((10, 2))
    q = np.random.default_rng(0).normal(size=(10, 2))
    with pytest.raises(AllHypothesesDegenerate):
        ransac_estimate(p, q, np.ones(10), RansacConfig(iterations=20, seed=0))


def test_degenerate_redraw_does_not_burn_iterations():
    """A few degenerate rows must not stop the sampler from finding the pose."""
    p, q, truth = synthetic_pairs(8, n=12)
    p[:4] = p[0]  # four coincident ground points make many samples degenerate
    q[:4] = q[0]
    est = ransac_estimate(p, q, np.ones(len(p)), RansacConfig(iterations=40, seed=2))
    assert np.linalg.norm(est.transform.t - truth.t) < 1e-6


# winning inlier count of the default RANSAC on each seed-0 scene of the
# benchmark's localize variants, as the SVD-angle solver gave them; a solver
# or consensus change that moves a winner fails here
RANSAC_PINNED = {
    ("panorama", 0.0): 12,
    ("panorama", 0.1): 6,
    ("pinhole", 0.0): 19,
    ("pinhole", 0.1): 19,
}


@pytest.mark.parametrize("camera, noise", list(RANSAC_PINNED))
def test_ransac_winners_are_pinned_and_inputs_untouched(camera, noise):
    """Default RANSAC keeps its pinned winners, and neither it nor
    ``count_inliers`` writes to the pair arrays it is given."""
    scene = generate(SceneConfig(camera=camera, noise_sigma=noise, seed=0))
    grids = (scene.aerial, scene.ground, scene.depth, scene.rays)
    cfg = PipelineConfig(ransac=RansacConfig())
    est = estimate_pose(*grids, cfg)
    assert est.inlier_count == RANSAC_PINNED[camera, noise]
    assert int(est.inlier_mask.sum()) == est.inlier_count

    corr = build_correspondences(*grids, cfg)
    pairs = (corr.ground_planar, corr.aerial_metric, corr.weights)
    before = [x.tobytes() for x in pairs]
    for x in pairs:
        x.setflags(write=False)  # an in-place write raises instead of passing
    again = ransac_estimate(*pairs, cfg.ransac)
    count, flags = count_inliers(again.transform, *pairs[:2], cfg.ransac.inlier_threshold)
    assert [x.tobytes() for x in pairs] == before
    assert again.inlier_count == est.inlier_count
    np.testing.assert_array_equal(again.inlier_mask, est.inlier_mask)
    assert count == int(flags.sum())


@pytest.mark.parametrize(
    "kwargs",
    [
        {"iterations": 0},
        {"inlier_threshold": -1.0},
        {"inlier_threshold": 0.0},
        {"inlier_threshold": float("nan")},
        {"inlier_threshold": float("inf")},
        {"iterations": 2.5},
        {"iterations": True},
        {"seed": -1},
        {"seed": 1.5},
        {"seed": True},
    ],
    ids=["zero-iterations", "negative-threshold",
         "zero-threshold", "nan-threshold", "inf-threshold",
         "fractional-iterations", "bool-iterations",
         "negative-seed", "fractional-seed", "bool-seed"],
)
def test_invalid_ransac_config_is_rejected(kwargs):
    with pytest.raises(OutOfRange):
        RansacConfig(**kwargs)


def test_ransac_config_accepts_numpy_integers():
    cfg = RansacConfig(iterations=np.int64(5), seed=np.uint32(2))
    assert (cfg.iterations, cfg.seed) == (5, 2)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_correspondences": 0},
        {"tau": 0.0},
        {"tau": -0.1},
        {"tau": float("nan")},
        {"tau": float("inf")},
    ],
    ids=["zero-matches", "zero-tau", "negative-tau", "nan-tau", "inf-tau"],
)
def test_invalid_pipeline_config_is_rejected(kwargs):
    with pytest.raises(OutOfRange):
        PipelineConfig(**kwargs)


# ---------------------------------------------------------------------------
# helpers


def test_count_inliers_hand_case():
    transform = SimilarityTransform2D(1.0, 0.0, np.zeros(2))
    p = np.arange(12, dtype=float).reshape(6, 2)
    q = p.copy()
    q[1] += (2.0, 0.0)
    q[4] += (0.0, -3.0)
    count, flags = count_inliers(transform, p, q, threshold=1.0)
    assert count == 4
    np.testing.assert_array_equal(flags, [True, False, True, True, False, True])
