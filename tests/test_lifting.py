"""Tests for ray models, depth lifting, and aerial grid geometry."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crossloc.errors import InvalidDepth, OutOfRange
from crossloc.lifting import (
    DepthMap,
    LiftConfig,
    RayModel,
    aerial_cells_to_metric,
    aerial_coverage_mask,
    depth_valid_mask,
    lift_ground_cells,
    metric_to_aerial_cells,
    topmost_selection,
)
from crossloc.estimator import PipelineConfig, build_correspondences
from crossloc.matching import AerialMeta
from crossloc.simulator import SceneConfig, generate
from oracles import metric_to_aerial_cell, reference_nearest_cell

TIGHT = 1e-9


def spherical_oracle(r, c, rows, cols):
    """Independent spherical-coordinate evaluation of a panorama ray."""
    azimuth = 2 * math.pi * (c + 0.5) / cols - math.pi
    elevation = math.pi / 2 - math.pi * (r + 0.5) / rows
    return np.array(
        [
            math.cos(elevation) * math.cos(azimuth),
            math.cos(elevation) * math.sin(azimuth),
            math.sin(elevation),
        ]
    )


# --- ray models -------------------------------------------------------------


def test_equirectangular_matches_spherical_oracle():
    rows, cols = 8, 24
    model = RayModel.equirectangular(rows, cols)
    for r in range(rows):
        for c in range(cols):
            assert np.allclose(
                model.directions[r, c], spherical_oracle(r, c, rows, cols), atol=TIGHT
            )


def test_ray_directions_are_unit():
    for model in (
        RayModel.equirectangular(6, 20),
        RayModel.pinhole_from_fov(8, 12, fov_deg=90.0),
    ):
        norms = np.linalg.norm(model.directions, axis=2)
        assert np.allclose(norms, 1.0, atol=TIGHT)


def test_panorama_wraps_azimuth():
    """Leftmost and rightmost columns view adjacent azimuths across the seam."""
    model = RayModel.equirectangular(4, 36)
    step = 2 * math.pi / 36
    left = model.directions[2, 0]
    right = model.directions[2, -1]
    az_left = math.atan2(left[1], left[0])
    az_right = math.atan2(right[1], right[0])
    gap = (az_left - az_right) % (2 * math.pi)
    assert gap == pytest.approx(step, abs=TIGHT)


def test_pinhole_center_pixel_points_forward():
    model = RayModel.pinhole_from_fov(9, 11, fov_deg=60.0)
    center = model.directions[4, 5]
    assert np.allclose(center, [1.0, 0.0, 0.0], atol=TIGHT)


def test_pinhole_fov_edges():
    """Extreme columns view half the field of view off axis."""
    model = RayModel.pinhole_from_fov(5, 101, fov_deg=90.0)
    d = model.directions[2, 0]  # leftmost column -> +y side
    angle = math.atan2(abs(d[1]), d[0])
    assert angle <= math.radians(45.0) + 1e-6
    assert angle == pytest.approx(math.radians(45.0), abs=0.02)


def test_nearest_cells_roundtrip():
    for model in (
        RayModel.equirectangular(10, 30),
        RayModel.pinhole_from_fov(12, 16, fov_deg=80.0),
    ):
        cells, seen = model.nearest_cells(model.directions.reshape(-1, 3))
        assert seen.all()
        np.testing.assert_array_equal(cells, np.argwhere(np.ones((model.rows, model.cols))))
    pin = RayModel.pinhole_from_fov(6, 8, fov_deg=70.0)
    cells, seen = pin.nearest_cells(np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    assert seen.tolist() == [False, True]
    assert cells.tolist() == [[0, 0], [2, 4]]  # the center (2.5, 3.5) rounds half to even


def test_nearest_cells_equals_the_scalar_lookup_at_cell_edges():
    """Directions a few ulps from every panorama cell edge, where numpy's
    arctan2 and arcsin, one ulp off libm's on some inputs, would round to
    the neighboring cell."""
    rows, cols = 16, 48
    model = RayModel.equirectangular(rows, cols)
    rng = np.random.default_rng(0)
    az = np.linspace(-math.pi, math.pi, cols + 1)[:, None, None]
    el = np.linspace(math.pi / 2, -math.pi / 2, rows + 1)[None, :, None]
    az = az * (1 + rng.integers(-40, 41, size=(cols + 1, rows + 1, 20)) * 1e-16)
    el = el * (1 + rng.integers(-40, 41, size=az.shape) * 1e-16)
    d = np.stack([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)], axis=-1)
    d = d.reshape(-1, 3)
    cells, seen = model.nearest_cells(d)
    assert seen.all()
    assert cells.tolist() == [list(reference_nearest_cell(model, v)) for v in d]


def test_canonical_directions_reproduce_constructor_table():
    model = RayModel.equirectangular(7, 19)
    assert np.array_equal(model.canonical_directions(), model.directions)


# --- aerial grid ------------------------------------------------------------


def test_aerial_cell_to_metric_hand_values():
    meta = AerialMeta(meters_per_cell=1.75)
    shape = (41, 41)
    pts = aerial_cells_to_metric([(20, 20), (20, 40), (0, 20), (40, 0)], meta, shape)
    assert np.allclose(pts[0], [0.0, 0.0], atol=0)
    assert np.allclose(pts[1], [35.0, 0.0], atol=TIGHT)
    assert np.allclose(pts[2], [0.0, 35.0], atol=TIGHT)
    assert np.allclose(pts[3], [-35.0, -35.0], atol=TIGHT)


def test_aerial_metric_roundtrip_all_cells():
    meta = AerialMeta(meters_per_cell=0.8, center_offset=np.array([3.0, -2.0]))
    shape = (13, 17)
    cells = np.array([(r, c) for r in range(13) for c in range(17)])
    pts = aerial_cells_to_metric(cells, meta, shape)
    for cell, pt in zip(cells, pts):
        assert metric_to_aerial_cell(pt, meta, shape) == tuple(cell)
        # every point within half a cell diagonal of its center
        back = aerial_cells_to_metric([cell], meta, shape)[0]
        assert np.linalg.norm(back - pt) < 0.8 / math.sqrt(2)


def test_metric_to_cell_nearest_and_tie_rule():
    meta = AerialMeta(meters_per_cell=1.0)
    shape = (5, 5)
    # cell (2, 2) is the origin; a point at (0.4, 0) still rounds to it
    assert metric_to_aerial_cell(np.array([0.4, 0.0]), meta, shape) == (2, 2)
    assert metric_to_aerial_cell(np.array([0.6, 0.0]), meta, shape) == (2, 3)
    # exact half-cell ties resolve to the smaller index
    assert metric_to_aerial_cell(np.array([0.5, 0.0]), meta, shape) == (2, 2)
    assert metric_to_aerial_cell(np.array([0.0, 0.5]), meta, shape) == (1, 2)
    # far outside points clamp to the border
    assert metric_to_aerial_cell(np.array([100.0, 100.0]), meta, shape) == (0, 4)


@given(
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
    meters=st.floats(0.05, 20.0),
    offset=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
)
def test_cell_centers_map_back_to_their_cells(rows, cols, meters, offset):
    meta = AerialMeta(meters_per_cell=meters, center_offset=np.array(offset))
    cells = np.array([(r, c) for r in range(rows) for c in range(cols)])
    centers = aerial_cells_to_metric(cells, meta, (rows, cols))
    np.testing.assert_array_equal(metric_to_aerial_cells(centers, meta, (rows, cols)), cells)
    for cell, center in zip(cells, centers):
        assert metric_to_aerial_cell(center, meta, (rows, cols)) == tuple(cell)


def test_vectorized_metric_to_cell_equals_scalar_at_half_cell_ties():
    meta = AerialMeta(meters_per_cell=1.0, center_offset=np.array([0.25, -0.75]))
    shape = (5, 6)
    # every half-cell boundary in x and y, plus points clamped from outside
    xs = np.arange(-4.0, 4.5, 0.5) + 0.25
    ys = np.arange(-4.0, 4.5, 0.5) - 0.75
    pts = np.array([(x, y) for x in xs for y in ys])
    cells = metric_to_aerial_cells(pts, meta, shape)
    assert cells.shape == (len(pts), 2)
    for pt, cell in zip(pts, cells):
        assert metric_to_aerial_cell(pt, meta, shape) == tuple(cell)
    # the grid center is a column tie (2 | 3), half a cell up a row tie (1 | 2)
    ties = np.array([[0.25, -0.75], [0.25, -0.25]])
    np.testing.assert_array_equal(metric_to_aerial_cells(ties, meta, shape), [[2, 2], [1, 2]])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_metric_to_cell_rejects_non_finite_points(bad):
    meta = AerialMeta(meters_per_cell=1.0)
    with pytest.raises(OutOfRange):
        metric_to_aerial_cell(np.array([bad, 0.0]), meta, (5, 5))
    with pytest.raises(OutOfRange):
        metric_to_aerial_cells(np.array([[0.0, 0.0], [0.0, bad]]), meta, (5, 5))


def test_aerial_coverage_mask():
    meta = AerialMeta(meters_per_cell=2.0)
    shape = (10, 10)  # footprint spans [-10, 10] in x and y
    pts = np.array([[0.0, 0.0], [9.9, -9.9], [10.0, 10.0], [10.1, 0.0], [0.0, -11.0]])
    assert list(aerial_coverage_mask(pts, meta, shape)) == [True, True, True, False, False]


# --- lifting ----------------------------------------------------------------


def test_lift_ground_cell_along_ray():
    model = RayModel.equirectangular(6, 12)
    depth = DepthMap(np.full((6, 12), 7.0))
    (p,) = lift_ground_cells(np.array([(3, 4)]), depth, model, initial_scale=2.0)
    assert np.allclose(p, 14.0 * model.directions[3, 4], atol=TIGHT)
    assert np.linalg.norm(p) == pytest.approx(14.0, abs=TIGHT)


def test_lift_straight_ahead_hand_value():
    """A horizon-level forward ray at depth d lifts to (d, 0, 0)."""
    model = RayModel.pinhole_from_fov(5, 7, fov_deg=60.0)
    depth = DepthMap(np.full((5, 7), 12.5))
    (p,) = lift_ground_cells(np.array([(2, 3)]), depth, model, initial_scale=1.0)
    assert np.allclose(p, [12.5, 0.0, 0.0], atol=TIGHT)


def test_lift_invalid_depth_raises():
    model = RayModel.equirectangular(4, 8)
    d = np.full((4, 8), 5.0)
    d[1, 2] = np.nan
    d[2, 3] = -1.0
    d[3, 4] = 0.0
    depth = DepthMap(d)
    for cell in [(1, 2), (2, 3), (3, 4)]:
        with pytest.raises(InvalidDepth):
            lift_ground_cells(np.array([cell]), depth, model)
    with pytest.raises(InvalidDepth):
        lift_ground_cells(np.array([(0, 0), (1, 2)]), depth, model)


def test_lift_vectorized_matches_scalar():
    rng = np.random.default_rng(1)
    model = RayModel.equirectangular(8, 16)
    depth = DepthMap(rng.uniform(1.0, 30.0, size=(8, 16)))
    cells = np.array([(r, c) for r in range(8) for c in range(16)])
    batch = lift_ground_cells(cells, depth, model, initial_scale=1.3)
    for k, (r, c) in enumerate(cells):
        single = depth.depth[r, c] * 1.3 * model.directions[r, c]
        assert np.allclose(batch[k], single, atol=0)


# --- validity mask ----------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(max_depth=-1.0),
        dict(max_depth=0.0),
        dict(max_depth=math.nan),
        dict(max_depth=math.inf),
        dict(initial_scale=0.0),
        dict(initial_scale=-2.0),
        dict(initial_scale=math.nan),
        dict(initial_scale=math.inf),
        dict(projection_mode="highest"),
    ],
    ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
)
def test_invalid_lift_config_is_rejected(kwargs):
    with pytest.raises(OutOfRange):
        LiftConfig(**kwargs)


def test_depth_valid_mask_threshold_inclusive():
    d = np.array([[10.0, 35.0, 35.0001, np.nan], [0.0, -3.0, np.inf, 1e-6]])
    mask = depth_valid_mask(DepthMap(d), LiftConfig(max_depth=35.0, initial_scale=1.0))
    assert mask.tolist() == [[True, True, False, False], [False, False, False, True]]


def test_depth_valid_mask_scales_before_threshold():
    d = np.full((2, 2), 30.0)
    cfg_pass = LiftConfig(max_depth=35.0, initial_scale=1.0)
    cfg_fail = LiftConfig(max_depth=35.0, initial_scale=2.0)
    assert depth_valid_mask(DepthMap(d), cfg_pass).all()
    assert not depth_valid_mask(DepthMap(d), cfg_fail).any()


def test_mask_commutes_with_scaling_depth_and_threshold():
    """Scaling depths and max depth by the same factor leaves the mask fixed."""
    rng = np.random.default_rng(2)
    d = rng.uniform(0.5, 60.0, size=(6, 9))
    d[0, 0] = np.nan
    base = depth_valid_mask(DepthMap(d), LiftConfig(max_depth=35.0))
    for k in (1e-3, 0.2, 5.0, 1e3):
        scaled = depth_valid_mask(DepthMap(d * k), LiftConfig(max_depth=35.0 * k))
        assert np.array_equal(base, scaled)


# --- planar projection ------------------------------------------------------


def test_planar_projection_all_drops_z():
    """In "all" mode the solver's BEV points are the lifted points without z."""
    scene = generate(SceneConfig(seed=3))
    cfg = PipelineConfig(num_correspondences=20)
    corr = build_correspondences(
        scene.aerial, scene.ground, scene.depth, scene.rays, cfg
    )
    pts, flat = corr.ground_points3, corr.ground_planar
    assert len(pts) == 20
    assert np.array_equal(flat, pts[:, :2])


def test_topmost_keeps_highest_per_bucket():
    pts = np.array(
        [
            [0.2, 0.2, 1.0],
            [0.3, 0.1, 5.0],  # same bucket, higher
            [0.4, 0.4, 2.0],  # same bucket, middle
            [1.5, 0.2, 0.5],  # different bucket
        ]
    )
    keep = topmost_selection(pts, bucket_size=1.0)
    assert keep.tolist() == [1, 3]
    flat = pts[topmost_selection(pts, bucket_size=1.0), :2]
    assert np.allclose(flat, [[0.3, 0.1], [1.5, 0.2]], atol=0)


def test_topmost_tie_keeps_first():
    pts = np.array([[0.1, 0.1, 2.0], [0.2, 0.2, 2.0]])
    assert topmost_selection(pts, 1.0).tolist() == [0]


def test_topmost_all_identical_buckets_reduces_to_one():
    pts = np.column_stack([np.full(10, 0.5), np.full(10, 0.5), np.arange(10.0)])
    keep = topmost_selection(pts, 1.0)
    assert keep.tolist() == [9]


def topmost_loop(points, bucket_size):
    """One pass keeping, per planar bucket, the first index of maximal z."""
    best = {}
    for i, (x, y, z) in enumerate(points):
        key = (math.floor(x / bucket_size), math.floor(y / bucket_size))
        if key not in best or z > points[best[key]][2]:
            best[key] = i
    return sorted(best.values())


TOPMOST_Z = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-5.0, 5.0)


@given(
    st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), TOPMOST_Z), max_size=30),
    st.sampled_from([0.25, 1.0, 2.5]),
)
def test_topmost_equals_loop_oracle(rows, bucket_size):
    """Including equal-z ties and signed zeros, where the earliest index wins."""
    pts = np.array(rows, dtype=float).reshape(-1, 3)
    assert topmost_selection(pts, bucket_size).tolist() == topmost_loop(rows, bucket_size)


def test_projection_errors():
    pts = np.zeros((3, 3))
    with pytest.raises(OutOfRange):
        topmost_selection(pts, 0.0)
