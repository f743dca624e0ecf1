"""Bit-exact artifact formats: binary grids, depth maps, and results files.

Feature grids ("FGRD") and depth maps ("DPTH") share a fixed 24-byte
little-endian header::

    magic     4 bytes   b"FGRD" / b"DPTH"
    version   uint32    currently 1
    rows      uint32
    cols      uint32
    dim       uint32    always 1 for depth maps
    kind      uint8     FGRD: 0 aerial / 1 ground;  DPTH: 0 metric / 1 relative
    reserved  3 bytes   zero

followed by a row-major payload: float32 for features, float64 for depths
(depth values participate in exact closure checks, so they keep full
precision on disk).  Feature grids carry their calibration in a JSON
sidecar next to the binary file (``<path>.json``): cell size and center
offset for aerial grids; the camera model plus any per-cell exact-ray
overrides for ground grids.

Results files are sorted-key JSON so reruns with the same seeds produce
byte-identical output; the only run-varying value is the single top-level
``timestamp`` field the caller may supply.  All writes go through a
temp-file-then-rename so readers never observe partial files.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .errors import (
    BadMagic,
    FormatError,
    MetadataMissing,
    NonFiniteValue,
    OutOfRange,
    TruncatedPayload,
    VersionUnsupported,
)
from .lifting import DepthMap, RayModel
from .matching import AerialMeta, FeatureGrid, GroundMeta

__all__ = [
    "FORMAT_VERSION",
    "read_depth_map",
    "read_feature_grid",
    "read_results",
    "sidecar_path",
    "write_depth_map",
    "write_feature_grid",
    "write_results",
]

FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIIIIB3x")  # magic, version, rows, cols, dim, kind

_GRID_KINDS = ("aerial", "ground")
_DEPTH_KINDS = ("metric", "relative")
_UNIT_TOLERANCE = 1e-12  # a ray override's |norm - 1| (rendered ones: <= 2.2e-16)


def _atomic_write_bytes(path, blob: bytes) -> None:
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)
    finally:
        if os.path.lexists(tmp):  # the write or the replace failed
            os.unlink(tmp)


def sidecar_path(path) -> str:
    """The JSON metadata file that travels with a binary grid file."""
    return os.fspath(path) + ".json"


def _read_header(blob: bytes, magic: bytes, path) -> tuple:
    if len(blob) < _HEADER.size:
        raise TruncatedPayload(
            f"{path}: file holds {len(blob)} bytes, shorter than the "
            f"{_HEADER.size}-byte header"
        )
    got_magic, version, rows, cols, dim, kind = _HEADER.unpack_from(blob)
    if got_magic != magic:
        raise BadMagic(f"{path}: magic {got_magic!r}, expected {magic!r}")
    if version != FORMAT_VERSION:
        raise VersionUnsupported(
            f"{path}: version {version}, this reader handles {FORMAT_VERSION}"
        )
    return rows, cols, dim, kind


def _check_payload(blob: bytes, count: int, itemsize: int, path) -> bytes:
    payload = blob[_HEADER.size :]
    expected = count * itemsize
    if len(payload) != expected:
        raise TruncatedPayload(
            f"{path}: payload holds {len(payload)} bytes, header promises {expected}"
        )
    return payload


# --- feature grids ----------------------------------------------------------


def write_feature_grid(grid: FeatureGrid, path) -> None:
    """Binary grid plus its JSON calibration sidecar (atomic, both files)."""
    if grid.kind not in _GRID_KINDS:
        raise OutOfRange(f"unknown grid kind {grid.kind!r}")
    data = np.ascontiguousarray(grid.data, dtype="<f4")
    header = _HEADER.pack(
        b"FGRD",
        FORMAT_VERSION,
        grid.rows,
        grid.cols,
        grid.dim,
        _GRID_KINDS.index(grid.kind),
    )
    _atomic_write_bytes(path, header + data.tobytes())
    _atomic_write_bytes(
        sidecar_path(path),
        (json.dumps(_meta_to_json(grid), sort_keys=True, indent=2) + "\n").encode(),
    )


def _meta_to_json(grid: FeatureGrid) -> dict:
    if grid.kind == "aerial":
        meta = grid.meta
        if meta is None:
            raise MetadataMissing("aerial grid has no calibration to write")
        return {
            "grid": "aerial",
            "meters_per_cell": float(meta.meters_per_cell),
            "center_offset": [float(v) for v in meta.center_offset],
        }
    rays = grid.meta.rays if grid.meta is not None else None
    if rays is None:
        raise MetadataMissing("ground grid has no ray model to write")
    cells = np.argwhere((rays.directions != rays.canonical_directions()).any(axis=2))
    directions = rays.directions[cells[:, 0], cells[:, 1]].tolist()
    return {
        "grid": "ground",
        "camera": {"kind": rays.kind, "params": dict(rays.params)},
        "ray_overrides": [[r, c, d] for (r, c), d in zip(cells.tolist(), directions)],
    }


def read_feature_grid(path) -> FeatureGrid:
    """Parse a binary grid and rebuild its calibration from the sidecar.

    A NaN or infinite feature raises NonFiniteValue; a sidecar of the other
    grid kind, or a malformed, out-of-bounds, non-finite or non-unit ray
    override, raises FormatError.
    """
    with open(path, "rb") as f:
        blob = f.read()
    rows, cols, dim, kind = _read_header(blob, b"FGRD", path)
    if kind >= len(_GRID_KINDS):
        raise FormatError(f"{path}: unknown grid kind flag {kind}")
    payload = _check_payload(blob, rows * cols * dim, 4, path)
    data = (
        np.frombuffer(payload, dtype="<f4")
        .reshape(rows, cols, dim)
        .astype(float)
    )
    if not np.isfinite(data).all():
        raise NonFiniteValue(f"{path}: payload holds NaN or infinite features")
    meta = _meta_from_json(path, rows, cols, _GRID_KINDS[kind])
    return FeatureGrid(data, _GRID_KINDS[kind], meta)


def _meta_from_json(path, rows: int, cols: int, kind: str):
    """The grid's calibration from its sidecar.  A missing key raises
    MetadataMissing; a document that is not a JSON object, or a value of
    the wrong type, shape or range, raises FormatError naming the key."""
    side = sidecar_path(path)
    if not os.path.exists(side):
        raise MetadataMissing(f"{path}: sidecar {side} not found")
    with open(side, "r") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{side}: sidecar is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{side}: sidecar must be a JSON object, got {type(doc).__name__}")
    try:
        if doc["grid"] != kind:
            raise FormatError(f"{side}: grid {doc['grid']!r}, but {path} holds a {kind} grid")
        if kind == "aerial":
            offset = doc["center_offset"]
            if not (isinstance(offset, list) and len(offset) == 2):
                raise FormatError(f"{side}: center_offset must be two numbers, got {offset!r}")
            return AerialMeta(
                _json_number(side, "meters_per_cell", doc["meters_per_cell"], positive=True),
                np.array([_json_number(side, "center_offset", v) for v in offset]),
            )
        camera = doc["camera"]
        if not isinstance(camera, dict):
            raise FormatError(f"{side}: camera must be an object, got {camera!r}")
        if camera["kind"] == "equirectangular":
            rays = RayModel.equirectangular(rows, cols)
        elif camera["kind"] == "pinhole":
            params = camera["params"]
            if not (isinstance(params, dict) and params.keys() <= {"fx", "fy", "cx", "cy"}):
                raise FormatError(
                    f"{side}: camera.params must be an object of fx, fy and optional "
                    f"cx, cy, got {params!r}"
                )
            focal = {k: _json_number(side, f"camera.params.{k}", params[k], positive=True)
                     for k in ("fx", "fy")}
            center = {k: _json_number(side, f"camera.params.{k}", params[k])
                      for k in ("cx", "cy") if k in params}
            rays = RayModel.pinhole(rows, cols, **focal, **center)
        else:
            raise MetadataMissing(f"{side}: unknown camera kind {camera['kind']!r}")
        if doc.get("ray_overrides"):
            directions = _override_rays(side, doc["ray_overrides"], rays.directions)
            rays = RayModel(directions, rays.kind, rays.params)
        return GroundMeta(rays)
    except KeyError as missing:
        raise MetadataMissing(f"{side}: missing key {missing}") from None


def _json_number(path, key: str, value, positive: bool = False) -> float:
    """``value`` as a float when it is a finite JSON number (not a bool),
    and > 0 when ``positive``; otherwise a FormatError naming the key."""
    try:
        number = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:  # an integer literal too large for a float
        number = math.inf
    if not math.isfinite(number) or (positive and number <= 0.0):
        what = "a finite number > 0" if positive else "a finite number"
        raise FormatError(f"{path}: {key} must be {what}, got {value!r}")
    return number


def _override_rays(side, overrides, canonical: np.ndarray) -> np.ndarray:
    """``canonical`` with each ``[row, col, [x, y, z]]`` override written in;
    a malformed, out-of-bounds, non-finite or non-unit entry is a FormatError."""
    rows, cols, width = canonical.shape
    try:
        if not isinstance(overrides, list):
            raise TypeError
        cells = [(r, c) for r, c, _ in overrides]
        vecs = np.array([vec for _, _, vec in overrides], dtype=float)
        if vecs.shape != (len(cells), width) or not np.isfinite(vecs).all():
            raise ValueError
        for r, c in cells:
            if not (type(r) is int and type(c) is int and 0 <= r < rows and 0 <= c < cols):
                raise ValueError
    except (TypeError, ValueError):
        raise FormatError(
            f"{side}: ray_overrides must be [row, col, [x, y, z]] entries naming "
            f"cells of the {rows}x{cols} grid, with {width} finite components"
        ) from None
    off = np.flatnonzero(np.abs(np.linalg.norm(vecs, axis=1) - 1.0) > _UNIT_TOLERANCE)
    if off.size:
        raise FormatError(f"{side}: ray override at cell {cells[off[0]]} is not a unit vector")
    directions = canonical.copy()
    for (r, c), vec in zip(cells, vecs):
        directions[r, c] = vec
    return directions


# --- depth maps -------------------------------------------------------------


def write_depth_map(depth: DepthMap, path) -> None:
    if depth.kind not in _DEPTH_KINDS:
        raise OutOfRange(f"unknown depth kind {depth.kind!r}")
    data = np.ascontiguousarray(depth.depth, dtype="<f8")
    rows, cols = data.shape
    header = _HEADER.pack(
        b"DPTH", FORMAT_VERSION, rows, cols, 1, _DEPTH_KINDS.index(depth.kind)
    )
    _atomic_write_bytes(path, header + data.tobytes())


def read_depth_map(path) -> DepthMap:
    with open(path, "rb") as f:
        blob = f.read()
    rows, cols, dim, kind = _read_header(blob, b"DPTH", path)
    if dim != 1:
        raise FormatError(f"{path}: depth maps are scalar fields, got dim {dim}")
    if kind >= len(_DEPTH_KINDS):
        raise FormatError(f"{path}: unknown depth kind flag {kind}")
    payload = _check_payload(blob, rows * cols, 8, path)
    data = np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()
    return DepthMap(data, _DEPTH_KINDS[kind])


# --- results ----------------------------------------------------------------


def write_results(data: dict, path, timestamp: str = "") -> None:
    """Sorted-key JSON results document; deterministic except ``timestamp``.

    Raises NonFiniteValue, before touching ``path``, when a value is NaN or
    infinite: JSON has no encoding for them.
    """
    if "timestamp" in data:
        raise OutOfRange("pass the timestamp as the argument, not inside data")
    doc = dict(data)
    doc["timestamp"] = timestamp
    try:
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteValue(f"{path}: {exc}") from None
    _atomic_write_bytes(path, (text + "\n").encode())


def read_results(path):
    """The JSON document at ``path`` (results, truth or config file);
    content that is not valid JSON raises FormatError naming the file."""
    with open(path, "r") as f:
        try:
            return json.load(f)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise FormatError(f"{path}: not valid JSON: {exc}") from None
