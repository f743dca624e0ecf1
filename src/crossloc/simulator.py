"""Synthetic cross-view scenes with exact ground truth.

A scene is a set of vertical landmarks (planar position, height, latent
feature) on a square world patch, plus a ground camera pose.  Rendering
produces the aerial feature grid, the ground feature grid, and the ground
depth map:

* aerial cells containing a landmark carry its latent (plus optional noise);
  a configurable fraction of the remaining cells carry fresh clutter
  latents and the rest share one background latent;
* ground cells whose viewing ray passes a landmark's vertical axis within
  the cell's angular footprint carry the landmark latent and the true slant
  range (divided by the hidden depth scale for relative-depth scenes);
  each rendered cell stores the exact direction to the point it sees, so
  lifting reproduces scene geometry to machine precision;
* remaining ground cells are sky (invalid depth) or far clutter (depth well
  beyond any sensible threshold).

Landmarks are placed at aerial cell centers so that the aerial grid
quantization introduces no correspondence error; all randomness flows from
the scene seed through named substreams, making every render a pure
function of (config, seed).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import OutOfRange, PlacementFailure
from .geometry import SimilarityTransform2D, rotation_matrix, wrap_angle
from .lifting import DepthMap, RayModel, aerial_cells_to_metric, metric_to_aerial_cell
from .matching import AerialMeta, FeatureGrid, GroundMeta

__all__ = [
    "SceneConfig",
    "SyntheticScene",
    "generate",
    "render_aerial",
    "render_ground",
    "contaminate",
]


@dataclass(frozen=True)
class SceneConfig:
    """Knobs for scene generation and rendering."""

    extent: float = 70.0  # world patch side length, meters
    aerial_cells: int = 41  # aerial grid is aerial_cells x aerial_cells
    landmark_count: int = 48
    ground_rows: int = 16
    ground_cols: int = 48
    feature_dim: int = 24
    noise_sigma: float = 0.0  # stddev of per-cell feature noise
    clutter_fraction: float = 0.3  # fraction of empty aerial cells with clutter
    camera: str = "panorama"  # "panorama" | "pinhole"
    fov_deg: float = 90.0  # pinhole horizontal field of view
    pose_prior: str = "full"  # "full" (+-180deg) | "narrow" (+-10deg) | "fixed"
    depth_kind: str = "metric"  # "metric" | "relative" (hidden scale)
    scale_bounds: tuple = (0.01, 100.0)  # hidden-scale range (log-uniform)
    max_height: float = 8.0  # landmark heights drawn uniform on [0, max]
    visibility_range: float = 28.0  # planar range within which a landmark counts
    min_visible: int = 8  # landmarks required in range at placement
    min_clearance: float = 1.5  # no landmark closer than this to the camera
    ray_tolerance: Optional[float] = None  # radians; None = one cell footprint
    seed: int = 0

    def __post_init__(self):
        def require(ok, name, what):
            if not ok:
                raise OutOfRange(f"{name} must be {what}, got {getattr(self, name)!r}")

        for name in ("aerial_cells", "landmark_count", "ground_rows", "ground_cols",
                     "feature_dim"):
            require(getattr(self, name) >= 1, name, ">= 1")
        for name in ("min_visible", "seed"):
            require(getattr(self, name) >= 0, name, ">= 0")
        cells = self.aerial_cells**2
        require(self.landmark_count <= cells, "landmark_count", f"<= {cells} aerial cells")
        for name in ("extent", "visibility_range"):
            require(0.0 < getattr(self, name) < math.inf, name, "finite and > 0")
        for name in ("noise_sigma", "max_height", "min_clearance"):
            require(0.0 <= getattr(self, name) < math.inf, name, "finite and >= 0")
        require(0.0 <= self.clutter_fraction <= 1.0, "clutter_fraction", "in [0, 1]")
        require(0.0 < self.fov_deg < 180.0, "fov_deg", "in (0, 180)")
        tol = self.ray_tolerance
        require(tol is None or 0.0 < tol < math.inf, "ray_tolerance", "None or finite and > 0")
        bounds = self.scale_bounds
        require(
            len(bounds) == 2 and 0.0 < bounds[0] <= bounds[1] < math.inf,
            "scale_bounds", "a finite (lo, hi) with 0 < lo <= hi",
        )
        for name, kinds in (("camera", ("panorama", "pinhole")),
                            ("pose_prior", ("full", "narrow", "fixed")),
                            ("depth_kind", ("metric", "relative"))):
            require(getattr(self, name) in kinds, name, f"one of {kinds}")

    @property
    def meters_per_cell(self) -> float:
        return self.extent / self.aerial_cells


@dataclass(frozen=True)
class SyntheticScene:
    """A generated scene: layout, ground truth, and rendered observations."""

    config: SceneConfig
    landmark_xy: np.ndarray  # (K, 2) world positions
    landmark_height: np.ndarray  # (K,)
    landmark_latent: np.ndarray  # (K, dim), unit rows
    truth: SimilarityTransform2D  # camera BEV frame -> world (scale field is 1)
    scale_gt: float  # hidden depth scale (1 for metric scenes)
    aerial: FeatureGrid = None
    ground: FeatureGrid = None
    depth: DepthMap = None
    rays: RayModel = None


def _stream(cfg: SceneConfig, label: int) -> np.random.Generator:
    """Named deterministic substream of the scene seed."""
    return np.random.default_rng([cfg.seed, label])


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def generate(cfg: SceneConfig) -> SyntheticScene:
    """Draw a scene layout and render all observations.

    Landmarks occupy distinct aerial cells (positions are the cell centers);
    the camera is re-drawn until at least ``min_visible`` landmarks lie
    within the visibility range (and the field of view, for a pinhole),
    with none closer than the clearance.  Raises PlacementFailure when no
    acceptable pose is found in a bounded number of attempts.
    """
    rng = _stream(cfg, 0)
    n_cells = cfg.aerial_cells**2
    flat = rng.choice(n_cells, size=cfg.landmark_count, replace=False)
    cells = np.column_stack(divmod(flat, cfg.aerial_cells))
    meta = AerialMeta(cfg.meters_per_cell)
    shape = (cfg.aerial_cells, cfg.aerial_cells)
    landmark_xy = aerial_cells_to_metric(cells, meta, shape)
    landmark_height = rng.uniform(0.0, cfg.max_height, size=cfg.landmark_count)
    landmark_latent = _unit_rows(rng.normal(size=(cfg.landmark_count, cfg.feature_dim)))

    if cfg.pose_prior == "fixed":
        theta = 0.0
    elif cfg.pose_prior == "narrow":
        theta = float(rng.uniform(-math.radians(10), math.radians(10)))
    else:  # "full"
        theta = float(rng.uniform(-math.pi, math.pi))

    half = cfg.extent / 2.0
    t = None
    for _ in range(500):
        cand = rng.uniform(-half, half, size=2)
        d = np.linalg.norm(landmark_xy - cand, axis=1)
        if d.min() < cfg.min_clearance:
            continue
        in_range = d <= cfg.visibility_range
        if cfg.camera == "pinhole":
            bearing = np.arctan2(
                landmark_xy[:, 1] - cand[1], landmark_xy[:, 0] - cand[0]
            )
            rel = np.array([wrap_angle(b - theta) for b in bearing])
            in_range &= np.abs(rel) <= math.radians(cfg.fov_deg) * 0.45
        if int(in_range.sum()) >= cfg.min_visible:
            t = cand
            break
    if t is None:
        raise PlacementFailure(
            f"no camera pose with {cfg.min_visible} landmarks in range after 500 tries"
        )

    if cfg.depth_kind == "metric":
        scale_gt = 1.0
    else:  # "relative"
        lo, hi = cfg.scale_bounds
        scale_gt = float(math.exp(rng.uniform(math.log(lo), math.log(hi))))

    scene = SyntheticScene(
        config=cfg,
        landmark_xy=landmark_xy,
        landmark_height=landmark_height,
        landmark_latent=landmark_latent,
        truth=SimilarityTransform2D(1.0, wrap_angle(theta), np.asarray(t, dtype=float)),
        scale_gt=scale_gt,
    )
    ground, depth, rays = render_ground(scene)
    return dataclasses.replace(
        scene, aerial=render_aerial(scene), ground=ground, depth=depth, rays=rays
    )


def render_aerial(scene: SyntheticScene) -> FeatureGrid:
    """Aerial feature grid: landmark latents in their cells, clutter and a
    shared background latent elsewhere.

    When two landmarks fall in one cell the one nearest the cell center
    wins (ties keep the lowest landmark index).
    """
    cfg = scene.config
    rng = _stream(cfg, 1)
    g = cfg.aerial_cells
    meta = AerialMeta(cfg.meters_per_cell)
    shape = (g, g)

    features = np.empty((g, g, cfg.feature_dim))
    features[:] = _unit_rows(rng.normal(size=cfg.feature_dim))  # background
    clutter = rng.random((g, g)) < cfg.clutter_fraction
    n_clutter = int(clutter.sum())
    if n_clutter:
        features[clutter] = _unit_rows(rng.normal(size=(n_clutter, cfg.feature_dim)))

    owner = {}  # cell -> (distance to center, landmark index)
    for k, xy in enumerate(scene.landmark_xy):
        cell = metric_to_aerial_cell(xy, meta, shape)
        center = aerial_cells_to_metric(np.array([cell]), meta, shape)[0]
        d = float(np.linalg.norm(xy - center))
        if cell not in owner or d < owner[cell][0]:
            owner[cell] = (d, k)
    noise = rng.normal(size=(len(owner), cfg.feature_dim)) * cfg.noise_sigma
    for slot, (cell, (_, k)) in enumerate(sorted(owner.items())):
        features[cell] = scene.landmark_latent[k] + noise[slot]

    return FeatureGrid(features, "aerial", meta)


def render_ground(scene: SyntheticScene):
    """Ground feature grid, depth map, and per-cell rays.

    Each landmark is a vertical segment from the ground plane to its height.
    The segment is sampled top-down; each sample is assigned to the ground
    cell whose canonical ray is nearest, provided the directions agree
    within the angular tolerance (one cell footprint by default).  A cell
    keeps the first claim it receives -- landmarks are processed near to
    far, and within a landmark higher points come first -- and stores the
    exact direction and slant range of the claimed point, so lifting the
    rendered depth reproduces the scene geometry exactly.

    Returns (FeatureGrid, DepthMap, RayModel).
    """
    cfg = scene.config
    rng = _stream(cfg, 2)
    rows, cols = cfg.ground_rows, cfg.ground_cols
    if cfg.camera == "panorama":
        canonical = RayModel.equirectangular(rows, cols)
        cell_angle = 2 * math.pi / cols
    else:  # "pinhole"
        canonical = RayModel.pinhole_from_fov(rows, cols, cfg.fov_deg)
        cell_angle = math.radians(cfg.fov_deg) / cols
    tol = cfg.ray_tolerance if cfg.ray_tolerance is not None else cell_angle * 1.2

    directions = canonical.directions.copy()
    depth = np.full((rows, cols), np.nan)
    claim = np.full((rows, cols), -1, dtype=int)

    world_to_cam = rotation_matrix(-scene.truth.theta)
    rel = (scene.landmark_xy - scene.truth.t) @ world_to_cam.T
    planar_range = np.linalg.norm(rel, axis=1)
    for k in np.argsort(planar_range, kind="stable"):
        rho = float(planar_range[k])
        if rho < cfg.min_clearance:
            continue
        h = float(scene.landmark_height[k])
        span = math.atan2(h, rho)  # elevation extent as seen from the camera
        n_samples = max(4, min(128, int(math.ceil(3 * rows * span / math.pi)) + 2))
        for z in np.linspace(h, 0.0, n_samples):
            point = np.array([rel[k, 0], rel[k, 1], z])
            slant = float(np.linalg.norm(point))
            d3 = point / slant
            cell = canonical.nearest_cell(d3)
            if cell is None:
                continue
            dot = float(np.clip(canonical.directions[cell] @ d3, -1.0, 1.0))
            if math.acos(dot) > tol:
                continue
            if claim[cell] == -1:
                claim[cell] = k
                directions[cell] = d3
                depth[cell] = slant / scene.scale_gt

    features = np.empty((rows, cols, cfg.feature_dim))
    empty = claim == -1
    n_empty = int(empty.sum())
    features[empty] = _unit_rows(rng.normal(size=(n_empty, cfg.feature_dim)))
    # sky above the horizon stays invalid; below it, far clutter depth
    below = empty & (canonical.directions[..., 2] <= 0)
    depth[below] = (cfg.extent * (1.5 + rng.random(int(below.sum())))) / scene.scale_gt
    claimed_cells = np.argwhere(~empty)
    if len(claimed_cells):
        noise = rng.normal(size=(len(claimed_cells), cfg.feature_dim)) * cfg.noise_sigma
        for slot, (r, c) in enumerate(claimed_cells):
            features[r, c] = scene.landmark_latent[claim[r, c]] + noise[slot]

    rays = RayModel(directions, canonical.kind, canonical.params)
    grid = FeatureGrid(features, "ground", GroundMeta(rays=rays))
    return grid, DepthMap(depth, cfg.depth_kind), rays


def contaminate(
    aerial_points: np.ndarray, outlier_fraction: float, extent: float, seed: int
):
    """Replace a fraction of aerial correspondence points with random ones.

    floor(fraction * n) points, chosen without replacement, are redrawn
    uniformly on the world patch.  Returns (contaminated points, boolean
    outlier flags) so evaluations can compare against the injected truth.
    """
    if not 0.0 <= outlier_fraction <= 1.0:
        raise OutOfRange(f"outlier fraction must be in [0, 1], got {outlier_fraction}")
    pts = np.array(aerial_points, dtype=float)
    n = len(pts)
    n_out = int(math.floor(outlier_fraction * n))
    flags = np.zeros(n, dtype=bool)
    if n_out:
        rng = np.random.default_rng(seed)
        chosen = rng.choice(n, size=n_out, replace=False)
        flags[chosen] = True
        half = extent / 2.0
        pts[chosen] = rng.uniform(-half, half, size=(n_out, 2))
    return pts, flags
