"""Tests for the binary grid/depth formats and the results files."""

import json
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from crossloc.errors import (
    BadMagic,
    FormatError,
    MetadataMissing,
    NonFiniteValue,
    OutOfRange,
    TruncatedPayload,
    VersionUnsupported,
)
from crossloc.io import (
    read_depth_map,
    read_feature_grid,
    read_results,
    sidecar_path,
    write_depth_map,
    write_feature_grid,
    write_results,
)
from crossloc.lifting import DepthMap, RayModel
from crossloc.matching import AerialMeta, FeatureGrid, GroundMeta
from crossloc.simulator import SceneConfig, generate


def random_aerial(rng, rows=5, cols=7, dim=3):
    data = rng.normal(size=(rows, cols, dim)).astype(np.float32).astype(float)
    return FeatureGrid(data, "aerial", AerialMeta(1.5, np.array([0.25, -0.75])))


def random_ground(rng, rows=4, cols=9, dim=3):
    data = rng.normal(size=(rows, cols, dim)).astype(np.float32).astype(float)
    return FeatureGrid(data, "ground", GroundMeta(RayModel.equirectangular(rows, cols)))


# --- feature grids ----------------------------------------------------------


def test_aerial_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    grid = random_aerial(rng)
    path = tmp_path / "a.fgrd"
    write_feature_grid(grid, path)
    back = read_feature_grid(path)
    assert back.kind == "aerial"
    np.testing.assert_array_equal(back.data, grid.data)
    assert back.meta.meters_per_cell == 1.5
    np.testing.assert_array_equal(back.meta.center_offset, [0.25, -0.75])


def test_ground_round_trip_with_canonical_rays(tmp_path):
    rng = np.random.default_rng(1)
    grid = random_ground(rng)
    path = tmp_path / "g.fgrd"
    write_feature_grid(grid, path)
    back = read_feature_grid(path)
    assert back.kind == "ground"
    np.testing.assert_array_equal(back.data, grid.data)
    rays = back.meta.rays
    assert rays.kind == "equirectangular"
    np.testing.assert_array_equal(rays.directions, grid.meta.rays.directions)


def test_ray_overrides_survive_round_trip(tmp_path):
    """Per-cell exact viewing directions are restored bit-for-bit."""
    rng = np.random.default_rng(2)
    base = RayModel.equirectangular(4, 9)
    directions = base.directions.copy()
    for r, c in ((0, 3), (2, 7)):
        v = rng.normal(size=3)
        directions[r, c] = v / np.linalg.norm(v)
    rays = RayModel(directions, base.kind, base.params)
    grid = FeatureGrid(rng.normal(size=(4, 9, 3)), "ground", GroundMeta(rays))
    path = tmp_path / "g.fgrd"
    write_feature_grid(grid, path)
    back = read_feature_grid(path)
    np.testing.assert_array_equal(back.meta.rays.directions, directions)


def test_pinhole_metadata_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    rays = RayModel.pinhole_from_fov(4, 9, 90.0)
    grid = FeatureGrid(rng.normal(size=(4, 9, 3)), "ground", GroundMeta(rays))
    path = tmp_path / "g.fgrd"
    write_feature_grid(grid, path)
    back = read_feature_grid(path)
    assert back.meta.rays.kind == "pinhole"
    assert back.meta.rays.params == rays.params
    np.testing.assert_array_equal(back.meta.rays.directions, rays.directions)


def test_write_read_write_is_byte_identical(tmp_path):
    rng = np.random.default_rng(4)
    for i in range(20):
        if i % 2:
            grid = random_aerial(rng, rows=2 + i % 5, cols=3 + i % 4, dim=1 + i % 6)
        else:
            grid = random_ground(rng, rows=2 + i % 3, cols=4 + i % 5, dim=1 + i % 6)
        p1 = tmp_path / f"one_{i}.fgrd"
        p2 = tmp_path / f"two_{i}.fgrd"
        write_feature_grid(grid, p1)
        write_feature_grid(read_feature_grid(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / f"one_{i}.fgrd.json").read_bytes() == (
            tmp_path / f"two_{i}.fgrd.json"
        ).read_bytes()


def test_simulated_scene_grids_round_trip(tmp_path):
    scene = generate(
        SceneConfig(
            extent=20.0, aerial_cells=7, landmark_count=8, ground_rows=4,
            ground_cols=10, feature_dim=6, min_visible=3, visibility_range=12.0,
        )
    )
    for name, grid in (("a", scene.aerial), ("g", scene.ground)):
        path = tmp_path / f"{name}.fgrd"
        write_feature_grid(grid, path)
        back = read_feature_grid(path)
        np.testing.assert_array_equal(
            back.data, grid.data.astype(np.float32).astype(float)
        )
        if name == "g":
            np.testing.assert_array_equal(
                back.meta.rays.directions, grid.meta.rays.directions
            )


def test_wrong_magic_raises(tmp_path):
    path = tmp_path / "bad.fgrd"
    rng = np.random.default_rng(5)
    write_feature_grid(random_aerial(rng), path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(BadMagic):
        read_feature_grid(path)


def test_unsupported_version_raises(tmp_path):
    path = tmp_path / "v9.fgrd"
    rng = np.random.default_rng(6)
    write_feature_grid(random_aerial(rng), path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 4, 9)
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionUnsupported):
        read_feature_grid(path)


def test_truncated_payload_raises(tmp_path):
    path = tmp_path / "cut.fgrd"
    rng = np.random.default_rng(7)
    write_feature_grid(random_aerial(rng), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(TruncatedPayload):
        read_feature_grid(path)
    path.write_bytes(blob + b"\x00" * 4)
    with pytest.raises(TruncatedPayload):
        read_feature_grid(path)
    path.write_bytes(blob[:10])
    with pytest.raises(TruncatedPayload):
        read_feature_grid(path)


def test_missing_sidecar_raises(tmp_path):
    path = tmp_path / "lonely.fgrd"
    rng = np.random.default_rng(8)
    write_feature_grid(random_aerial(rng), path)
    os.remove(sidecar_path(path))
    with pytest.raises(MetadataMissing):
        read_feature_grid(path)


def test_sidecar_missing_keys_raises(tmp_path):
    path = tmp_path / "halfmeta.fgrd"
    rng = np.random.default_rng(9)
    write_feature_grid(random_aerial(rng), path)
    with open(sidecar_path(path), "w") as f:
        json.dump({"grid": "aerial"}, f)
    with pytest.raises(MetadataMissing):
        read_feature_grid(path)


def test_bad_kind_flag_raises(tmp_path):
    path = tmp_path / "kind.fgrd"
    rng = np.random.default_rng(10)
    write_feature_grid(random_aerial(rng), path)
    blob = bytearray(path.read_bytes())
    blob[20] = 7
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        read_feature_grid(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_feature_payload_raises(tmp_path, bad):
    rng = np.random.default_rng(11)
    grid = random_ground(rng)
    grid.data[1, 2, 0] = bad
    path = tmp_path / "g.fgrd"
    write_feature_grid(grid, path)
    with pytest.raises(NonFiniteValue):
        read_feature_grid(path)


@pytest.mark.parametrize("kind", ["aerial", "ground"])
def test_sidecar_of_the_other_grid_kind_raises(tmp_path, kind):
    """The sidecar's ``grid`` must name the kind the header's flag gives."""
    rng = np.random.default_rng(12)
    grid, other = random_aerial(rng), random_ground(rng)
    if kind == "ground":
        grid, other = other, grid
    path, decoy = tmp_path / "g.fgrd", tmp_path / "other.fgrd"
    write_feature_grid(grid, path)
    write_feature_grid(other, decoy)
    os.replace(sidecar_path(decoy), sidecar_path(path))
    with pytest.raises(FormatError) as caught:
        read_feature_grid(path)
    assert type(caught.value) is FormatError and kind in str(caught.value)


@pytest.mark.parametrize(
    "overrides",
    [
        [[0, 3]],
        [7],
        ["abc"],
        [[0, 3, "up"]],
        [[0, 3, [1.0, 0.0]]],
        [[0, 3, [[1.0, 0.0, 0.0]]]],
        [[4, 0, [1.0, 0.0, 0.0]]],
        [[0, 9, [1.0, 0.0, 0.0]]],
        [[-1, 0, [1.0, 0.0, 0.0]]],
        [[0.5, 0, [1.0, 0.0, 0.0]]],
        [[True, 0, [1.0, 0.0, 0.0]]],
        [[0, 3, [float("nan"), 0.0, 0.0]]],
        [[0, 3, [0.0, float("inf"), 0.0]]],
        [[0, 3, [0.0, 0.0, 0.0]]],
        [[0, 3, [5.0, 0.0, 0.0]]],
        {"0": [1.0, 0.0, 0.0]},
    ],
    ids=[
        "short-entry", "bare-number", "string-entry", "string-vector", "two-components",
        "nested-vector", "row-out-of-bounds", "col-out-of-bounds", "negative-row",
        "fractional-row", "bool-row", "nan-component", "inf-component", "zero-vector",
        "five-times-unit", "not-a-list",
    ],
)
def test_bad_ray_override_raises_format_error(tmp_path, overrides):
    rng = np.random.default_rng(13)
    path = tmp_path / "g.fgrd"
    write_feature_grid(random_ground(rng), path)  # 4 x 9 cells
    side = sidecar_path(path)
    doc = json.loads(open(side).read())
    doc["ray_overrides"] = overrides
    with open(side, "w") as f:
        json.dump(doc, f)
    with pytest.raises(FormatError) as caught:
        read_feature_grid(path)
    assert type(caught.value) is FormatError


def test_a_non_unit_ray_override_names_its_cell(tmp_path):
    """An override 5e-13 off unit length is read; 1e-11 off is a FormatError
    naming the cell."""
    path = tmp_path / "g.fgrd"
    write_feature_grid(random_ground(np.random.default_rng(13)), path)
    side = sidecar_path(path)
    doc = json.loads(open(side).read())
    for norm, ok in ((1.0 + 5e-13, True), (1.0 + 1e-11, False)):
        doc["ray_overrides"] = [[2, 7, [0.0, norm, 0.0]]]
        with open(side, "w") as f:
            json.dump(doc, f)
        if ok:
            assert read_feature_grid(path).meta.rays.directions[2, 7, 1] == norm
        else:
            with pytest.raises(FormatError, match=r"cell \(2, 7\) is not a unit vector"):
                read_feature_grid(path)


GRID_SHAPES = array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=6)
FINITE32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


@given(
    data=arrays(np.float32, GRID_SHAPES, elements=FINITE32),
    kind=st.sampled_from(["aerial", "ground"]),
    cell=st.floats(1e-3, 1e3),
    offset=st.tuples(FINITE32, FINITE32),
)
def test_feature_grid_round_trip_is_bit_exact_for_any_shape(data, kind, cell, offset):
    rows, cols, _ = data.shape
    if kind == "aerial":
        meta = AerialMeta(cell, np.array(offset, dtype=float))
    else:
        meta = GroundMeta(RayModel.equirectangular(rows, cols))
    grid = FeatureGrid(data.astype(float), kind, meta)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.fgrd")
        write_feature_grid(grid, path)
        back = read_feature_grid(path)
    assert back.kind == kind
    assert back.data.tobytes() == grid.data.tobytes()
    if kind == "aerial":
        assert back.meta.meters_per_cell == cell
        assert back.meta.center_offset.tobytes() == meta.center_offset.tobytes()
    else:
        assert back.meta.rays.directions.tobytes() == meta.rays.directions.tobytes()


@given(
    depth=arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8)),
    kind=st.sampled_from(["metric", "relative"]),
)
def test_depth_round_trip_is_bit_exact_for_any_shape(depth, kind):
    """Every float64 bit pattern survives, NaN and infinity included (the
    lifting step, not the reader, treats those cells as invalid)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.dpth")
        write_depth_map(DepthMap(depth, kind), path)
        back = read_depth_map(path)
    assert back.kind == kind
    assert back.depth.shape == depth.shape
    assert back.depth.tobytes() == depth.tobytes()


# --- depth maps -------------------------------------------------------------


def test_depth_round_trip_exact_bits(tmp_path):
    rng = np.random.default_rng(11)
    depth = rng.uniform(0.5, 30.0, size=(6, 11))
    depth[0, 0] = np.nan
    dm = DepthMap(depth, "relative")
    path = tmp_path / "d.dpth"
    write_depth_map(dm, path)
    back = read_depth_map(path)
    assert back.kind == "relative"
    np.testing.assert_array_equal(
        back.depth.view(np.uint64), depth.view(np.uint64)
    )


def test_depth_write_read_write_byte_identical(tmp_path):
    rng = np.random.default_rng(12)
    for i in range(20):
        depth = rng.uniform(0.1, 50.0, size=(2 + i % 4, 3 + i % 5))
        dm = DepthMap(depth, "metric" if i % 2 else "relative")
        p1, p2 = tmp_path / f"a{i}.dpth", tmp_path / f"b{i}.dpth"
        write_depth_map(dm, p1)
        write_depth_map(read_depth_map(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_depth_wrong_magic_raises(tmp_path):
    path = tmp_path / "m.dpth"
    write_depth_map(DepthMap(np.ones((2, 2)), "metric"), path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"FGRD"
    path.write_bytes(bytes(blob))
    with pytest.raises(BadMagic):
        read_depth_map(path)


def test_depth_truncation_raises(tmp_path):
    path = tmp_path / "t.dpth"
    write_depth_map(DepthMap(np.ones((3, 3)), "metric"), path)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(TruncatedPayload):
        read_depth_map(path)


# --- results ----------------------------------------------------------------


def test_results_round_trip_and_determinism(tmp_path):
    data = {"config": {"seed": 3, "tau": 0.1}, "errors": [1.0, 0.5], "zeta": "last"}
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    write_results(data, p1)
    write_results(data, p2)
    assert p1.read_bytes() == p2.read_bytes()
    doc = read_results(p1)
    assert doc["config"] == data["config"]
    assert doc["errors"] == data["errors"]
    assert doc["timestamp"] == ""


def test_results_timestamp_is_the_only_varying_field(tmp_path):
    data = {"value": 1.25}
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    write_results(data, p1, timestamp="2030-01-01T00:00:00")
    write_results(data, p2, timestamp="2031-06-30T12:00:00")
    d1, d2 = read_results(p1), read_results(p2)
    d1.pop("timestamp")
    d2.pop("timestamp")
    assert d1 == d2


def test_results_reject_embedded_timestamp(tmp_path):
    with pytest.raises(OutOfRange):
        write_results({"timestamp": "x"}, tmp_path / "r.json")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_results_reject_non_finite_values(tmp_path, bad):
    """JSON has no NaN or infinity; the writer refuses them and writes
    nothing rather than emitting bare ``NaN``/``Infinity`` tokens."""
    path = tmp_path / "r.json"
    with pytest.raises(NonFiniteValue):
        write_results({"nested": {"err": [1.0, bad]}}, path)
    assert not path.exists()
    assert issubclass(NonFiniteValue, FormatError)


def test_float_values_round_trip_exactly(tmp_path):
    rng = np.random.default_rng(13)
    vals = [float(v) for v in rng.normal(size=50)]
    path = tmp_path / "f.json"
    write_results({"vals": vals}, path)
    assert read_results(path)["vals"] == vals


@pytest.mark.parametrize("content", [b"{bad", b"", b"\xff\xfe{}"], ids=["broken", "empty", "not-utf8"])
def test_read_results_names_the_file_of_invalid_json(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(FormatError, match="not valid JSON") as caught:
        read_results(path)
    assert str(path) in str(caught.value)


def test_no_partial_files_on_crash(tmp_path, monkeypatch):
    """A write that fails mid-stream must not leave the target path behind."""
    path = tmp_path / "never.fgrd"

    real_replace = os.replace

    def boom(src, dst):
        raise RuntimeError("simulated crash before rename")

    monkeypatch.setattr(os, "replace", boom)
    rng = np.random.default_rng(14)
    with pytest.raises(RuntimeError):
        write_feature_grid(random_aerial(rng), path)
    monkeypatch.setattr(os, "replace", real_replace)
    assert not path.exists()
    assert list(tmp_path.iterdir()) == []  # nor its temp file


def test_results_written_onto_a_directory_raise_and_leave_no_temp_file(tmp_path):
    """The rename onto a directory fails; the error propagates and the
    temp file written beside the target is removed."""
    target = tmp_path / "out"
    target.mkdir()
    (target / "kept.txt").write_text("x")
    with pytest.raises(OSError):
        write_results({"value": 1.0}, target)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    assert [p.name for p in target.iterdir()] == ["kept.txt"]
