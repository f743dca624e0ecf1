"""Tests for synthetic scene generation and rendering.

The simulator is the ground-truth factory for the whole suite, so these
tests pin down its exactness guarantees: landmark positions sit on aerial
cell centers, rendered ground cells store the exact direction and range of
the point they see, and every render is a pure function of (config, seed).
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from crossloc.errors import OutOfRange, PlacementFailure
from crossloc.geometry import SimilarityTransform2D, apply_transform, rotation_matrix
from crossloc.lifting import AerialMeta, aerial_cells_to_metric
from crossloc.simulator import (
    SceneConfig,
    SyntheticScene,
    contaminate,
    generate,
    render_aerial,
    render_ground,
)
from crossloc.trainer import reference_dataset
from oracles import metric_to_aerial_cell, reference_render_ground


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
        world = apply_transform(scene.truth, points[:, :2])
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


def assert_same_render(a, b):
    """Two (FeatureGrid, DepthMap, RayModel) renders hold the same bytes."""
    for x, y in ((a[0].data, b[0].data), (a[1].depth, b[1].depth),
                 (a[2].directions, b[2].directions)):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


def camera_frame(scene):
    return (scene.landmark_xy - scene.truth.t) @ rotation_matrix(-scene.truth.theta).T


@pytest.mark.parametrize(
    "overrides",
    [
        dict(camera="panorama", depth_kind="metric"),
        dict(camera="panorama", depth_kind="relative"),
        dict(camera="pinhole", depth_kind="metric"),
        dict(camera="pinhole", depth_kind="relative"),
        dict(ray_tolerance=1e-9),
        dict(ray_tolerance=10.0),
        dict(camera="pinhole", ray_tolerance=10.0),
        dict(max_height=0.0),
        dict(camera="pinhole", fov_deg=20.0, min_visible=2),
    ],
)
def test_render_ground_equals_the_per_sample_reference(overrides):
    for seed in range(4):
        scene = generate(SceneConfig(seed=seed, noise_sigma=0.1, **overrides))
        if overrides.get("fov_deg") == 20.0:
            assert (camera_frame(scene)[:, 0] <= 0).any()  # landmarks behind the camera
        assert_same_render(render_ground(scene), reference_render_ground(scene))


def test_render_ground_skips_landmarks_inside_a_large_clearance():
    for seed in range(4):
        scene = generate(SceneConfig(seed=seed))
        near = np.flatnonzero(np.linalg.norm(camera_frame(scene), axis=1) < 15.0)
        cleared = dataclasses.replace(
            scene, config=dataclasses.replace(scene.config, min_clearance=15.0)
        )
        grid, depth, rays = render_ground(cleared)
        assert_same_render((grid, depth, rays), reference_render_ground(cleared))

        def drawn(latents):
            return {k for k in near if (latents == scene.landmark_latent[k]).all(axis=1).any()}

        assert drawn(scene.ground.data[claimed_mask(scene)])
        assert not drawn(grid.data[depth.depth < scene.config.extent])


def test_nearer_landmark_then_higher_sample_claims_a_shared_cell():
    cfg = SceneConfig(feature_dim=4)
    center = [2 * math.pi * (c + 0.5) / cfg.ground_cols - math.pi for c in (30, 6)]
    ray, side = (np.array([math.cos(a), math.sin(a)]) for a in center)
    # landmark 0 stands on landmark 1's ray twice as far and twice as tall,
    # so it sees the same cells; landmark 2 is short and far, so its top
    # samples fall in one cell
    xy = np.array([10.0 * ray, 5.0 * ray, 20.0 * side])
    height = np.array([6.0, 3.0, 2.0])
    scene = SyntheticScene(
        cfg, xy, height, np.eye(4)[:3], SimilarityTransform2D(1.0, 0.0, np.zeros(2)), 1.0
    )

    def owners(scene):
        grid, depth, rays = render_ground(scene)
        assert_same_render((grid, depth, rays), reference_render_ground(scene))
        # landmark cells carry one-hot latents; 0 marks sky and clutter
        drawn = depth.depth < cfg.extent
        return np.where(drawn, grid.data.argmax(axis=2) + 1, 0), depth, rays

    alone = dataclasses.replace(scene, landmark_xy=xy[:1], landmark_height=height[:1])
    far_cells = owners(alone)[0] == 1
    assert far_cells.sum() >= 2
    claimed, depth, rays = owners(scene)
    assert (claimed[far_cells] == 2).all()  # the nearer landmark 1 holds them

    # 4 is the fewest samples a landmark gets: z = 2, 4/3, 2/3, 0
    top, second = (np.array([*xy[2], z]) for z in np.linspace(2.0, 0.0, 4)[:2])
    d = np.array([top, second])
    cells, seen = rays.nearest_cells(d / np.linalg.norm(d, axis=1, keepdims=True))
    assert seen.all() and (cells[0] == cells[1]).all()
    r, c = cells[0]
    assert claimed[r, c] == 3
    assert depth.depth[r, c] == math.sqrt(top.dot(top))
    np.testing.assert_allclose(rays.directions[r, c], top / math.sqrt(top.dot(top)),
                               rtol=0, atol=1e-15)


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


def scenes_digest(scenes) -> str:
    """sha256 over every generated array and number of the scenes."""
    h = hashlib.sha256()
    for s in scenes:
        t = s.truth
        for a in (s.landmark_xy, s.landmark_height, s.landmark_latent,
                  [t.scale, t.theta, *t.t, s.scale_gt], s.aerial.data, s.ground.data,
                  s.depth.depth, s.rays.directions):
            h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


# digests of ``generate`` outputs taken before the per-sample rendering
# loop dropped np.clip and np.linalg.norm for scalar ``min``/``max`` and
# ``math.sqrt`` of the same dot product, and the aerial render looked its
# landmarks' cells up in one call: the renders must stay the same bits
PINNED_DIGESTS = {
    ("panorama", "metric"): "ed66d20ac93ce75fd8bb706b5883f8be95b3cf618a7f7f25785c4f436a47a2cf",
    ("panorama", "relative"): "54363ccca4abd60132a3bca0b5b3051ac6ab797eaf8d5126badfa864d17c2c31",
    ("pinhole", "metric"): "dc4ecd23e044001f776b8414783ed4c00edf527d779ae4e9d0ca816882b1f2e4",
    ("pinhole", "relative"): "48d83fb5c5aecd78f0f6b9c5ea912e8bc1496ef3952d1d1989af7f837ed45f72",
}
PINNED_REFERENCE_DIGEST = "b95e7468bd53360e59f06072df56d431bd3bf8b53a9d041f5cbbe126cccead32"


@pytest.mark.parametrize("camera, depth_kind", sorted(PINNED_DIGESTS))
def test_renders_are_pinned_bit_for_bit(camera, depth_kind):
    scenes = [
        generate(SceneConfig(seed=seed, camera=camera, depth_kind=depth_kind, noise_sigma=0.1))
        for seed in range(8)
    ]
    assert scenes_digest(scenes) == PINNED_DIGESTS[camera, depth_kind]


def test_reference_dataset_is_pinned_bit_for_bit():
    assert scenes_digest(reference_dataset()) == PINNED_REFERENCE_DIGEST
