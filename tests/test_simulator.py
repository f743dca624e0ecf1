"""Tests for synthetic scene generation and rendering.

The simulator is the ground-truth factory for the whole suite, so these
tests pin down its exactness guarantees: landmark positions sit on aerial
cell centers, rendered ground cells store the exact direction and range of
the point they see, and every render is a pure function of (config, seed).
"""

import dataclasses
import math

import numpy as np
import pytest

from crossloc.errors import OutOfRange, PlacementFailure
from crossloc.lifting import (
    AerialMeta,
    aerial_cells_to_metric,
    metric_to_aerial_cell,
)
from crossloc.simulator import (
    SceneConfig,
    SyntheticScene,
    contaminate,
    generate,
    render_aerial,
)


def claimed_mask(scene):
    """Cells rendered from a landmark, telling them apart from clutter.

    Landmark slant ranges are bounded by the patch diagonal; far clutter
    depth starts at 1.5x the patch extent, so scaled depth below the extent
    identifies landmark cells unambiguously.
    """
    scaled = scene.depth.depth * scene.scale_gt
    return np.isfinite(scaled) & (scaled < scene.config.extent)


# ---------------------------------------------------------------------------
# layout


def test_landmarks_sit_on_distinct_cell_centers():
    scene = generate(SceneConfig(seed=3))
    cfg = scene.config
    meta = AerialMeta(cfg.meters_per_cell)
    shape = (cfg.aerial_cells, cfg.aerial_cells)
    cells = [metric_to_aerial_cell(xy, meta, shape) for xy in scene.landmark_xy]
    assert len(set(cells)) == cfg.landmark_count
    centers = aerial_cells_to_metric(np.array(cells), meta, shape)
    np.testing.assert_array_equal(centers, scene.landmark_xy)


def test_camera_sees_enough_landmarks():
    for seed in range(6):
        scene = generate(SceneConfig(seed=seed))
        d = np.linalg.norm(scene.landmark_xy - scene.truth.t, axis=1)
        assert int((d <= scene.config.visibility_range).sum()) >= scene.config.min_visible
        assert d.min() >= scene.config.min_clearance


def test_placement_failure_when_pose_is_impossible():
    # No patch position can have eight landmarks within one meter.
    with pytest.raises(PlacementFailure):
        generate(SceneConfig(seed=0, visibility_range=1.0))


def test_too_many_landmarks_rejected():
    with pytest.raises(OutOfRange):
        generate(SceneConfig(aerial_cells=5, landmark_count=26))


@pytest.mark.parametrize(
    "field, value",
    [
        ("landmark_count", -3),
        ("aerial_cells", 0),
        ("ground_rows", 0),
        ("feature_dim", 0),
        ("min_visible", -1),
        ("seed", -1),
        ("extent", math.nan),
        ("visibility_range", 0.0),
        ("noise_sigma", -0.1),
        ("max_height", math.inf),
        ("clutter_fraction", 1.5),
        ("fov_deg", 180.0),
        ("ray_tolerance", 0.0),
        ("scale_bounds", (2.0, 1.0)),
        ("scale_bounds", (0.0, 1.0)),
        ("scale_bounds", (1.0,)),
        ("camera", "fisheye"),
        ("depth_kind", "absolute"),
    ],
)
def test_scene_config_rejects_out_of_range_values(field, value):
    with pytest.raises(OutOfRange, match=field):
        SceneConfig(**{field: value})


def test_pose_prior_modes():
    assert generate(SceneConfig(seed=1, pose_prior="fixed")).truth.theta == 0.0
    narrow = generate(SceneConfig(seed=1, pose_prior="narrow")).truth.theta
    assert abs(narrow) <= math.radians(10)
    with pytest.raises(OutOfRange):
        generate(SceneConfig(seed=1, pose_prior="sideways"))


def test_metric_scenes_have_unit_scale():
    assert generate(SceneConfig(seed=2)).scale_gt == 1.0


def test_relative_scenes_draw_scale_in_bounds():
    scales = [
        generate(SceneConfig(seed=s, depth_kind="relative")).scale_gt for s in range(8)
    ]
    lo, hi = SceneConfig().scale_bounds
    assert all(lo <= s <= hi for s in scales)
    assert len(set(scales)) == len(scales)  # actually random, not constant


# ---------------------------------------------------------------------------
# determinism


def test_generate_is_pure_function_of_config():
    a = generate(SceneConfig(seed=11, noise_sigma=0.2, depth_kind="relative"))
    b = generate(SceneConfig(seed=11, noise_sigma=0.2, depth_kind="relative"))
    np.testing.assert_array_equal(a.landmark_xy, b.landmark_xy)
    np.testing.assert_array_equal(a.landmark_latent, b.landmark_latent)
    np.testing.assert_array_equal(a.aerial.data, b.aerial.data)
    np.testing.assert_array_equal(a.ground.data, b.ground.data)
    np.testing.assert_array_equal(a.depth.depth, b.depth.depth)
    np.testing.assert_array_equal(a.rays.directions, b.rays.directions)
    assert a.truth == dataclasses.replace(b.truth, t=a.truth.t)
    np.testing.assert_array_equal(a.truth.t, b.truth.t)
    assert a.scale_gt == b.scale_gt


def test_different_seeds_differ():
    a = generate(SceneConfig(seed=0))
    b = generate(SceneConfig(seed=1))
    assert not np.array_equal(a.landmark_xy, b.landmark_xy)


# ---------------------------------------------------------------------------
# aerial rendering


def test_aerial_landmark_cells_carry_exact_latents():
    scene = generate(SceneConfig(seed=4))
    cfg = scene.config
    meta = AerialMeta(cfg.meters_per_cell)
    shape = (cfg.aerial_cells, cfg.aerial_cells)
    for k, xy in enumerate(scene.landmark_xy):
        cell = metric_to_aerial_cell(xy, meta, shape)
        np.testing.assert_array_equal(
            scene.aerial.data[cell], scene.landmark_latent[k]
        )


def test_aerial_collision_keeps_landmark_nearest_cell_center():
    base = generate(SceneConfig(seed=5))
    cfg = base.config
    meta = AerialMeta(cfg.meters_per_cell)
    shape = (cfg.aerial_cells, cfg.aerial_cells)
    center = aerial_cells_to_metric(np.array([(7, 9)]), meta, shape)[0]
    # Two landmarks in cell (7, 9): index 0 offset by 0.4 m, index 1 by 0.1 m.
    xy = np.array([center + (0.4, 0.0), center + (0.0, 0.1)])
    rigged = dataclasses.replace(
        base,
        landmark_xy=xy,
        landmark_height=base.landmark_height[:2],
        landmark_latent=base.landmark_latent[:2],
    )
    grid = render_aerial(rigged)
    np.testing.assert_array_equal(grid.data[7, 9], base.landmark_latent[1])


def test_aerial_clutter_fraction_roughly_respected():
    scene = generate(SceneConfig(seed=6, clutter_fraction=0.0))
    cfg = scene.config
    meta = AerialMeta(cfg.meters_per_cell)
    shape = (cfg.aerial_cells, cfg.aerial_cells)
    lm_cells = {metric_to_aerial_cell(xy, meta, shape) for xy in scene.landmark_xy}
    # Without clutter every non-landmark cell carries the same background latent.
    background = None
    for r in range(cfg.aerial_cells):
        for c in range(cfg.aerial_cells):
            if (r, c) in lm_cells:
                continue
            if background is None:
                background = scene.aerial.data[r, c]
            np.testing.assert_array_equal(scene.aerial.data[r, c], background)


# ---------------------------------------------------------------------------
# ground rendering


def test_ground_cells_lift_exactly_onto_landmark_axes():
    """Rendered depth and stored rays reproduce landmark planar positions.

    For every landmark-claimed cell, depth * scale_gt * direction is a point
    on some landmark's vertical axis, so mapping its planar part through the
    true pose must land on a landmark to machine precision.
    """
    for kind in ("metric", "relative"):
        scene = generate(SceneConfig(seed=7, depth_kind=kind))
        mask = claimed_mask(scene)
        assert mask.sum() >= scene.config.min_visible
        points = (
            scene.depth.depth[mask, None]
            * scene.scale_gt
            * scene.rays.directions[mask]
        )
        world = scene.truth.apply(points[:, :2])
        gap = np.linalg.norm(
            world[:, None, :] - scene.landmark_xy[None, :, :], axis=2
        ).min(axis=1)
        assert gap.max() < 1e-9


def test_ground_claimed_cells_carry_exact_latents():
    scene = generate(SceneConfig(seed=8))
    mask = claimed_mask(scene)
    lat = scene.ground.data[mask]
    sims = lat @ scene.landmark_latent.T
    np.testing.assert_allclose(sims.max(axis=1), 1.0, atol=1e-12)


def test_sky_cells_are_invalid_and_above_horizon():
    scene = generate(SceneConfig(seed=9))
    sky = ~np.isfinite(scene.depth.depth)
    assert sky.any()
    assert (scene.rays.directions[sky][:, 2] > 0).all()


def test_far_clutter_depth_exceeds_patch():
    scene = generate(SceneConfig(seed=10))
    clutter = np.isfinite(scene.depth.depth) & ~claimed_mask(scene)
    assert clutter.any()
    scaled = scene.depth.depth[clutter] * scene.scale_gt
    assert scaled.min() >= 1.5 * scene.config.extent


def test_pinhole_claims_only_in_front_of_camera():
    scene = generate(
        SceneConfig(seed=12, camera="pinhole", ground_cols=32, min_visible=5)
    )
    mask = claimed_mask(scene)
    assert mask.any()
    assert (scene.rays.directions[mask][:, 0] > 0).all()


def test_noise_perturbs_latents_but_keeps_them_close():
    clean = generate(SceneConfig(seed=13, noise_sigma=0.0))
    noisy = generate(SceneConfig(seed=13, noise_sigma=0.05))
    mask = claimed_mask(clean)
    assert not np.array_equal(noisy.ground.data[mask], clean.ground.data[mask])
    a = noisy.ground.data[mask]
    a = a / np.linalg.norm(a, axis=1, keepdims=True)
    sims = (a * clean.ground.data[mask]).sum(axis=1)
    assert sims.min() > 0.9


# ---------------------------------------------------------------------------
# contamination


def test_contaminate_floor_rule_and_flags():
    pts = np.zeros((10, 2))
    out, flags = contaminate(pts, 0.25, extent=70.0, seed=0)
    assert flags.sum() == 2  # floor(0.25 * 10)
    np.testing.assert_array_equal(out[~flags], pts[~flags])
    assert (np.abs(out[flags]) <= 35.0).all()
    assert not np.array_equal(out[flags], pts[flags])


def test_contaminate_zero_fraction_is_identity():
    pts = np.arange(12, dtype=float).reshape(6, 2)
    out, flags = contaminate(pts, 0.0, extent=70.0, seed=0)
    np.testing.assert_array_equal(out, pts)
    assert not flags.any()


def test_contaminate_rejects_bad_fraction():
    with pytest.raises(OutOfRange):
        contaminate(np.zeros((4, 2)), 1.2, extent=70.0, seed=0)
    with pytest.raises(OutOfRange):
        contaminate(np.zeros((4, 2)), -0.1, extent=70.0, seed=0)


def test_contaminate_deterministic_per_seed():
    pts = np.random.default_rng(0).normal(size=(20, 2))
    a = contaminate(pts, 0.3, extent=70.0, seed=5)
    b = contaminate(pts, 0.3, extent=70.0, seed=5)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    c = contaminate(pts, 0.3, extent=70.0, seed=6)
    assert not np.array_equal(a[0], c[0])
