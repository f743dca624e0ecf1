"""Independent references the tests hold the library to.

They are not on any program path, so they live with the tests:

* ``forward`` -- the training loss by the production route:
  ``matching.match_probabilities``, the production ``solve_similarity``
  (its own Gram-product closed form) and the ``losses`` module, held to
  ``gradcheck``'s loss chain;
* ``finite_difference`` -- scalar central differences of any function, one
  leaf at a time, the generic reference for ``gradcheck.fd_gradient``;
* ``pose_weight_gradients`` -- the alignment's per-weight gradient on one
  weighted solve, as the chain's reverse sweep forms it;
* ``add_at_value_and_grad`` -- ``gradcheck.value_and_grad``'s reverse
  sweep with nothing reused and the contrastive scatters done by
  ``np.add.at``;
* ``reference_render_ground`` -- ``simulator.render_ground`` as a Python
  loop over every sample of every landmark, each looked up one at a time
  by ``reference_nearest_cell``, the scalar ``RayModel.nearest_cells``.
"""

import math

import numpy as np

from crossloc import gradcheck
from crossloc.geometry import rotation_matrix, solve_similarity
from crossloc.losses import (
    gt_aerial_targets,
    gt_ground_targets,
    info_nce_g2s,
    info_nce_s2g,
    total_loss,
    vce_loss,
)
from crossloc.lifting import DepthMap, RayModel
from crossloc.matching import FeatureGrid, GroundMeta, match_probabilities
from crossloc.simulator import _stream, _unit_rows


def forward(ctx, params) -> float:
    """Total training loss at ``params`` with the context's frozen selection.

    Uses the production matching, solver and loss implementations end to
    end, as an independent route to the loss ``value_and_grad`` returns.
    Only the depth-valid ground columns are scored (see ``forward_value``).
    """
    params = gradcheck._float_leaves(ctx, params)
    sel = ctx.sel
    scores, _ = gradcheck._valid_scores(ctx, params, ctx.cols, np.float64)
    probs = match_probabilities(scores, params[-1])
    estimate = solve_similarity(
        ctx.ground_planar, ctx.aerial_metric, probs[ctx.aerial_flat, sel]
    )
    vce = vce_loss(estimate, ctx.truth, gradcheck._VIRTUAL_POINTS)
    if ctx.beta == 0.0:
        return total_loss(vce, 0.0, 0.0, 0.0)
    q_hat = gt_aerial_targets(ctx.ground_planar, ctx.truth, ctx.target_scale)
    p_hat = gt_ground_targets(ctx.aerial_metric, ctx.truth, ctx.target_scale)
    g2s = info_nce_g2s(scores, ctx.aerial_shape, sel, q_hat, ctx.aerial_meta)
    s2g = info_nce_s2g(scores, ctx.aerial_flat, p_hat, sel, ctx.ground_planar)
    return total_loss(vce, g2s, s2g, ctx.beta)


def finite_difference(f, params, epsilon: float = 1.0e-5) -> np.ndarray:
    """Central differences (f(p + eps e_i) - f(p - eps e_i)) / (2 eps)."""
    gradcheck._check_epsilon(epsilon)
    params = np.asarray(params, dtype=float)
    grad = np.empty_like(params)
    for i in range(params.size):
        step = np.zeros_like(params)
        step[i] = epsilon
        grad[i] = (f(params + step) - f(params - step)) / (2.0 * epsilon)
    return grad


def pose_weight_gradients(p, q, w, d_theta: float, d_scale: float, d_t) -> np.ndarray:
    """dE/dw for every correspondence weight, given a scalar E's partials in
    the angle, scale and translation that the weighted alignment solves."""
    p, q, w = (np.asarray(x, float) for x in (p, q, w))
    al = gradcheck._align(p, q, w, strict=True)
    return gradcheck._align_vjp(al, d_theta, d_scale, d_t)


def add_at_value_and_grad(ctx, params):
    """``gradcheck.value_and_grad`` as a reverse sweep that reuses nothing
    stage one or ``build_context`` formed: the valid columns, the selection,
    the probabilities and the unit feature rows are formed afresh, and the
    two contrastive terms' score gradients go into the score gradient by
    two dense ``np.add.at`` scatters, one after the other."""
    params = np.asarray(params, dtype=float)
    cols = np.flatnonzero(ctx.valid)
    sel = np.searchsorted(cols, ctx.ground_flat)
    stage = gradcheck._stage_one(ctx, params, np.float64)
    ra, cb = stage.ra, stage.cb
    gradcheck._check_selection_boundary(ctx, ra[:-1, :-1] * cb[:-1, :-1], sel)
    tape = gradcheck._loss(ctx, stage, sel, np.float64, strict=True)
    al = tape.align
    d_theta, d_t = gradcheck._vce_vjp(gradcheck._VIRTUAL_POINTS, al.cos_t, al.sin_t, tape.offsets)
    d_probs = np.zeros_like(ra)
    d_probs[ctx.aerial_flat, sel] = gradcheck._align_vjp(al, d_theta, 0.0, d_t)
    u, v = d_probs * cb, d_probs * ra
    d_ext = ra * (u - (ra * u).sum(axis=1, keepdims=True)) + cb * (
        v - (cb * v).sum(axis=0, keepdims=True)
    )
    d_scores = d_ext[:-1, :-1]
    d_z = d_ext[-1, :].sum() + d_ext[:-1, -1].sum()
    if tape.g2s is not None:
        coef = ctx.beta / 2.0
        d_g2s = gradcheck._cross_entropy_vjp(*tape.g2s, ctx.g2s_targets)
        np.add.at(d_scores, (slice(None), sel[ctx.g2s_pairs]), coef * d_g2s.T)
        d_s2g = gradcheck._cross_entropy_vjp(*tape.s2g, ctx.s2g_pos)
        np.add.at(d_scores, (ctx.aerial_flat[:, None], sel[None, :]), coef * d_s2g)
    if ctx.mode == "score":
        grad = np.zeros((ctx.n_aerial, ctx.n_ground))
        grad[:, cols] = d_scores
        return tape.loss, np.append(grad.ravel(), d_z)
    (na, d), ng = ctx.aerial_raw.shape, ctx.n_ground
    if ctx.mode == "features":
        a_raw = params[: na * d].reshape(na, d)
        g_raw = params[na * d : (na + ng) * d].reshape(ng, d)[cols]
    else:
        mat = params[: d * d].reshape(d, d)
        a_raw, g_raw = ctx.aerial_raw @ mat.T, ctx.ground_raw[cols] @ mat.T
    a_norm = np.linalg.norm(a_raw, axis=1, keepdims=True)
    g_norm = np.linalg.norm(g_raw, axis=1, keepdims=True)
    a_hat, g_hat = a_raw / a_norm, g_raw / g_norm
    d_a_hat = (d_scores @ g_hat) / ctx.tau
    d_g_hat = (d_scores.T @ a_hat) / ctx.tau
    d_a_raw = (d_a_hat - a_hat * (a_hat * d_a_hat).sum(axis=1, keepdims=True)) / a_norm
    d_g_raw = (d_g_hat - g_hat * (g_hat * d_g_hat).sum(axis=1, keepdims=True)) / g_norm
    if ctx.mode == "features":
        d_ground = np.zeros((ng, d))
        d_ground[cols] = d_g_raw
        return tape.loss, np.concatenate([d_a_raw.ravel(), d_ground.ravel(), [d_z]])
    d_mat = d_a_raw.T @ ctx.aerial_raw + d_g_raw.T @ ctx.ground_raw[cols]
    return tape.loss, np.append(d_mat.ravel(), d_z)


def reference_nearest_cell(rays, direction):
    """The cell whose canonical ray is nearest one unit direction, or None
    outside the view; scalar libm angles and Python's half-even ``round``."""
    dx, dy, dz = float(direction[0]), float(direction[1]), float(direction[2])
    if rays.kind == "equirectangular":
        azimuth = math.atan2(dy, dx)
        elevation = math.asin(max(-1.0, min(1.0, dz)))
        col = int(round((azimuth + math.pi) * rays.cols / (2 * math.pi) - 0.5)) % rays.cols
        row = int(round((math.pi / 2 - elevation) * rays.rows / math.pi - 0.5))
        return max(0, min(rays.rows - 1, row)), col
    if dx <= 0:
        return None
    p = rays.params
    col = int(round(p["cx"] - p["fx"] * dy / dx))
    row = int(round(p["cy"] - p["fy"] * dz / dx))
    if 0 <= row < rays.rows and 0 <= col < rays.cols:
        return row, col
    return None


def reference_render_ground(scene):
    """``render_ground`` one sample at a time: landmarks near to far, each
    sampled top-down by ``np.linspace``, and a cell kept by the first
    sample within tolerance that lands in it."""
    cfg = scene.config
    rng = _stream(cfg, 2)
    rows, cols = cfg.ground_rows, cfg.ground_cols
    if cfg.camera == "panorama":
        canonical = RayModel.equirectangular(rows, cols)
        cell_angle = 2 * math.pi / cols
    else:
        canonical = RayModel.pinhole_from_fov(rows, cols, cfg.fov_deg)
        cell_angle = math.radians(cfg.fov_deg) / cols
    tol = cfg.ray_tolerance if cfg.ray_tolerance is not None else cell_angle * 1.2

    directions = canonical.directions.copy()
    depth = np.full((rows, cols), np.nan)
    claim = np.full((rows, cols), -1, dtype=int)
    rel = (scene.landmark_xy - scene.truth.t) @ rotation_matrix(-scene.truth.theta).T
    planar_range = np.linalg.norm(rel, axis=1)
    for k in np.argsort(planar_range, kind="stable"):
        rho = float(planar_range[k])
        if rho < cfg.min_clearance:
            continue
        h = float(scene.landmark_height[k])
        span = math.atan2(h, rho)
        n_samples = max(4, min(128, int(math.ceil(3 * rows * span / math.pi)) + 2))
        for z in np.linspace(h, 0.0, n_samples):
            point = np.array([rel[k, 0], rel[k, 1], z])
            slant = math.sqrt(point.dot(point))
            d3 = point / slant
            cell = reference_nearest_cell(canonical, d3)
            if cell is None:
                continue
            dot = max(-1.0, min(1.0, float(canonical.directions[cell] @ d3)))
            if math.acos(dot) > tol:
                continue
            if claim[cell] == -1:
                claim[cell] = k
                directions[cell] = d3
                depth[cell] = slant / scene.scale_gt

    features = np.empty((rows, cols, cfg.feature_dim))
    empty = claim == -1
    features[empty] = _unit_rows(rng.normal(size=(int(empty.sum()), cfg.feature_dim)))
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
