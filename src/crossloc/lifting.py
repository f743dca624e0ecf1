"""Lifting ground-view cells into a bird's-eye-view point set.

Camera frame: camera center at the origin, +z up, +x the camera's forward
heading, +y to the left (right-handed).  A ground cell with depth d and unit
viewing ray r lifts to the 3-D point d * initial_scale * r; dropping z (or
keeping only the topmost point per planar bucket) gives the 2-D point fed to
the alignment solver.  Aerial cells convert to metric BEV coordinates with
+x along increasing columns and +y along decreasing rows, grid-centered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidDepth, OutOfRange
from .matching import AerialMeta

__all__ = [
    "RayModel",
    "DepthMap",
    "LiftConfig",
    "aerial_cells_to_metric",
    "metric_to_aerial_cell",
    "metric_to_aerial_cells",
    "aerial_coverage_mask",
    "lift_ground_cell",
    "lift_ground_cells",
    "depth_valid_mask",
    "topmost_selection",
]


@dataclass(frozen=True)
class RayModel:
    """Per-cell unit viewing directions for a ground camera.

    ``kind`` is "equirectangular" or "pinhole"; ``params`` holds the
    constructor parameters needed to rebuild the canonical table (empty for
    equirectangular, fx/fy/cx/cy for pinhole).  Cells may carry directions
    that deviate sub-cell from the canonical table (e.g. exact directions to
    rendered scene points); ``canonical_directions`` always reproduces the
    analytic table.
    """

    directions: np.ndarray  # (rows, cols, 3), unit rows
    kind: str
    params: dict = field(default_factory=dict)

    @property
    def rows(self) -> int:
        return self.directions.shape[0]

    @property
    def cols(self) -> int:
        return self.directions.shape[1]

    @classmethod
    def equirectangular(cls, rows: int, cols: int) -> "RayModel":
        """Full panorama: azimuth wraps the horizon, elevation spans +-90 deg.

        Cell (r, c) center maps to azimuth 2*pi*(c + 0.5)/cols - pi and
        elevation pi/2 - pi*(r + 0.5)/rows; azimuth 0 is the forward (+x)
        axis and elevation +pi/2 is straight up.
        """
        return cls(cls._equirect_table(rows, cols), "equirectangular", {})

    @staticmethod
    def _equirect_table(rows: int, cols: int) -> np.ndarray:
        c = np.arange(cols)
        r = np.arange(rows)
        azimuth = 2.0 * math.pi * (c + 0.5) / cols - math.pi
        elevation = math.pi / 2 - math.pi * (r + 0.5) / rows
        az = azimuth[None, :]
        el = elevation[:, None]
        d = np.empty((rows, cols, 3))
        d[..., 0] = np.cos(el) * np.cos(az)
        d[..., 1] = np.cos(el) * np.sin(az)
        d[..., 2] = np.broadcast_to(np.sin(el), (rows, cols))
        return d

    @classmethod
    def pinhole(
        cls, rows: int, cols: int, fx: float, fy: float,
        cx: Optional[float] = None, cy: Optional[float] = None,
    ) -> "RayModel":
        """Forward-facing pinhole camera with focal lengths in pixels.

        Pixel (r, c) maps to the unit direction of
        (1, -(c - cx)/fx, -(r - cy)/fy): columns increase rightward (-y),
        rows increase downward (-z).
        """
        if cx is None:
            cx = (cols - 1) / 2.0
        if cy is None:
            cy = (rows - 1) / 2.0
        params = {"fx": float(fx), "fy": float(fy), "cx": float(cx), "cy": float(cy)}
        return cls(cls._pinhole_table(rows, cols, **params), "pinhole", params)

    @classmethod
    def pinhole_from_fov(cls, rows: int, cols: int, fov_deg: float) -> "RayModel":
        """Pinhole with a given horizontal field of view and square pixels."""
        if not 0 < fov_deg < 180:
            raise OutOfRange(f"field of view must be in (0, 180), got {fov_deg}")
        fx = (cols / 2.0) / math.tan(math.radians(fov_deg) / 2.0)
        return cls.pinhole(rows, cols, fx=fx, fy=fx)

    @staticmethod
    def _pinhole_table(rows, cols, fx, fy, cx, cy) -> np.ndarray:
        c = np.arange(cols)
        r = np.arange(rows)
        d = np.empty((rows, cols, 3))
        d[..., 0] = 1.0
        d[..., 1] = np.broadcast_to(-(c[None, :] - cx) / fx, (rows, cols))
        d[..., 2] = np.broadcast_to(-(r[:, None] - cy) / fy, (rows, cols))
        return d / np.linalg.norm(d, axis=2, keepdims=True)

    def canonical_directions(self) -> np.ndarray:
        if self.kind == "equirectangular":
            return self._equirect_table(self.rows, self.cols)
        if self.kind == "pinhole":
            return self._pinhole_table(self.rows, self.cols, **self.params)
        raise OutOfRange(f"unknown ray model kind {self.kind!r}")

    def nearest_cell(self, direction: np.ndarray) -> Optional[tuple]:
        """Cell whose canonical ray is closest to a unit direction.

        Returns None when the direction falls outside the camera's view
        (behind a pinhole, or off the pixel grid).
        """
        dx, dy, dz = float(direction[0]), float(direction[1]), float(direction[2])
        if self.kind == "equirectangular":
            azimuth = math.atan2(dy, dx)
            elevation = math.asin(max(-1.0, min(1.0, dz)))
            col = int(round((azimuth + math.pi) * self.cols / (2 * math.pi) - 0.5)) % self.cols
            row = int(round((math.pi / 2 - elevation) * self.rows / math.pi - 0.5))
            row = max(0, min(self.rows - 1, row))
            return row, col
        if self.kind == "pinhole":
            if dx <= 0:
                return None
            p = self.params
            col = int(round(p["cx"] - p["fx"] * dy / dx))
            row = int(round(p["cy"] - p["fy"] * dz / dx))
            if 0 <= row < self.rows and 0 <= col < self.cols:
                return row, col
            return None
        raise OutOfRange(f"unknown ray model kind {self.kind!r}")


@dataclass(frozen=True)
class DepthMap:
    """Per-cell depth along the viewing ray.

    ``kind`` is "metric" (meters) or "relative" (meters divided by an
    unknown global scale).  Invalid cells are NaN; values must otherwise be
    positive and finite.
    """

    depth: np.ndarray  # (rows, cols)
    kind: str = "metric"


@dataclass(frozen=True)
class LiftConfig:
    """How ground cells become BEV points."""

    max_depth: float = 35.0
    initial_scale: float = 1.0
    projection_mode: str = "all"  # "all" | "topmost"

    def __post_init__(self):
        if not (0.0 < self.max_depth < math.inf and 0.0 < self.initial_scale < math.inf):
            raise OutOfRange(f"need a finite max_depth > 0 and initial_scale > 0: {self}")
        if self.projection_mode not in ("all", "topmost"):
            raise OutOfRange(f"unknown projection mode {self.projection_mode!r}")


# --- aerial grid geometry ---------------------------------------------------


def aerial_cells_to_metric(cells: np.ndarray, meta: AerialMeta, shape: tuple) -> np.ndarray:
    """Metric BEV coordinates of aerial cell centers; ``cells`` is (N, 2) of
    (row, col).

    x grows with column index, y grows toward smaller row index, and the
    grid center sits at ``meta.center_offset``:
    x = (col - (cols-1)/2) * m, y = ((rows-1)/2 - row) * m.
    """
    cells = np.asarray(cells, dtype=float)
    rows, cols = shape
    m = meta.meters_per_cell
    x = (cells[:, 1] - (cols - 1) / 2.0) * m
    y = ((rows - 1) / 2.0 - cells[:, 0]) * m
    return np.stack([x, y], axis=1) + np.asarray(meta.center_offset, dtype=float)


def metric_to_aerial_cell(point: np.ndarray, meta: AerialMeta, shape: tuple) -> tuple:
    """Aerial cell ``(row, col)`` whose center is nearest a metric point."""
    row, col = metric_to_aerial_cells(np.array([point], dtype=float), meta, shape)[0]
    return int(row), int(col)


def metric_to_aerial_cells(points: np.ndarray, meta: AerialMeta, shape: tuple) -> np.ndarray:
    """Nearest aerial cells of (N, 2) metric points as (N, 2) ``(row, col)``.

    Exact half-cell ties resolve to the smaller index (row-major first),
    and results are clamped to the grid.  Raises OutOfRange for a point
    that is not finite.
    """
    rows, cols = shape
    m = meta.meters_per_cell
    rel = np.asarray(points, dtype=float) - np.asarray(meta.center_offset, dtype=float)
    if not np.isfinite(rel).all():
        raise OutOfRange("metric points must be finite")
    col_f = rel[:, 0] / m + (cols - 1) / 2.0
    row_f = (rows - 1) / 2.0 - rel[:, 1] / m
    # ceil(x - 0.5) rounds halves down, so the smaller index wins ties
    cells = np.ceil(np.stack([row_f, col_f], axis=1) - 0.5).astype(int)
    return np.clip(cells, 0, [rows - 1, cols - 1])


def aerial_coverage_mask(points: np.ndarray, meta: AerialMeta, shape: tuple) -> np.ndarray:
    """True for metric points inside the union of aerial cell footprints."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    rows, cols = shape
    m = meta.meters_per_cell
    rel = points - np.asarray(meta.center_offset, dtype=float)
    half_x = cols * m / 2.0
    half_y = rows * m / 2.0
    return (np.abs(rel[:, 0]) <= half_x) & (np.abs(rel[:, 1]) <= half_y)


# --- ground lifting ---------------------------------------------------------


def lift_ground_cell(
    cell: tuple, depth_map: DepthMap, rays: RayModel, initial_scale: float = 1.0
) -> np.ndarray:
    """3-D point seen by one ground cell: depth * initial_scale * ray."""
    r, c = cell
    d = float(depth_map.depth[r, c])
    if not math.isfinite(d) or d <= 0:
        raise InvalidDepth(f"cell {cell} has depth {d}")
    return d * initial_scale * rays.directions[r, c]


def lift_ground_cells(
    cells: np.ndarray, depth_map: DepthMap, rays: RayModel, initial_scale: float = 1.0
) -> np.ndarray:
    """Vectorized lift of (N, 2) ground cells to (N, 3) points."""
    cells = np.asarray(cells, dtype=int)
    d = depth_map.depth[cells[:, 0], cells[:, 1]]
    if not np.isfinite(d).all() or (d <= 0).any():
        bad = int(np.flatnonzero(~np.isfinite(d) | (d <= 0))[0])
        raise InvalidDepth(f"cell {tuple(cells[bad])} has depth {d[bad]}")
    return (d * initial_scale)[:, None] * rays.directions[cells[:, 0], cells[:, 1]]


def depth_valid_mask(depth_map: DepthMap, config: LiftConfig) -> np.ndarray:
    """Boolean (rows, cols) mask of cells usable for lifting.

    A cell is valid when its depth is finite, positive, and its scaled depth
    does not exceed the maximum depth (inclusive threshold).
    """
    d = depth_map.depth
    with np.errstate(invalid="ignore"):
        return np.isfinite(d) & (d > 0) & (d * config.initial_scale <= config.max_depth)


def topmost_selection(points: np.ndarray, bucket_size: float) -> np.ndarray:
    """Indices keeping only the highest point per planar bucket.

    Buckets quantize x and y at ``bucket_size``.  Within a bucket the point
    with maximal z wins; exact z ties keep the earliest input index.
    """
    points = np.asarray(points, dtype=float)
    if bucket_size <= 0:
        raise OutOfRange(f"bucket size must be positive, got {bucket_size}")
    if len(points) == 0:
        return np.empty(0, dtype=int)
    bx = np.floor(points[:, 0] / bucket_size).astype(np.int64)
    by = np.floor(points[:, 1] / bucket_size).astype(np.int64)
    best: dict = {}
    for i, (kx, ky, z) in enumerate(zip(bx, by, points[:, 2])):
        key = (int(kx), int(ky))
        if key not in best or z > points[best[key], 2]:
            best[key] = i
    return np.array(sorted(best.values()), dtype=int)

