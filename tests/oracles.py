"""Independent references the tests hold the library to.

They are not on any program path, so they live with the tests:

* ``forward`` -- the training loss by an independent route:
  ``match_probabilities`` below, the production ``solve_similarity`` (its
  own Gram-product closed form) and the ``losses`` module, held to
  ``gradcheck``'s loss chain;
* ``match_probabilities`` -- the real pairs' probabilities by gate 04's
  ``matching.dual_softmax`` of the whole dustbin-augmented matrix, held to
  the product of ``matching.soft_assign``'s factors that the library
  selects from;
* ``finite_difference`` -- scalar central differences of any function, one
  leaf at a time, the generic reference for ``gradcheck.fd_gradient``;
* ``reference_fd_gradient`` -- ``gradcheck.fd_gradient`` with every read
  leaf through the whole chain, ``FD_BLOCK`` leaves per batched
  ``forward_value`` call: the route the oracle took before its per-column
  and per-row routes, held to them bit for bit;
* ``pose_weight_gradients`` -- the alignment's per-weight gradient on one
  weighted solve, as the chain's reverse sweep forms it;
* ``add_at_value_and_grad`` -- ``gradcheck.value_and_grad``'s reverse
  sweep with nothing reused and the contrastive scatters done by
  ``np.add.at``;
* ``reference_render_ground`` -- ``simulator.render_ground`` as a Python
  loop over every sample of every landmark, each looked up one at a time
  by ``reference_nearest_cell``, the scalar ``RayModel.nearest_cells``;
* ``vce_loss``, ``info_nce_g2s``, ``info_nce_s2g`` and ``total_loss`` --
  the loss terms and their sum, the contrastive ones one ground column or
  aerial row at a time, which ``forward`` combines;
* ``alignment_objective`` -- the weighted squared residual the solver
  minimises, under any candidate transform;
* ``metric_to_aerial_cell`` -- ``lifting.metric_to_aerial_cells`` for one
  point, as a tuple;
* ``mask_ground_columns`` -- the full score matrix with the invalid ground
  columns at ``MASK_SCORE``, the route the estimator took before it scored
  only the depth-valid columns;
* ``inverse`` -- the similarity transform undoing a given one.
"""

import math

import numpy as np

from crossloc import gradcheck
from crossloc.errors import EmptyInput, NoValidTargets, OutOfRange, require_real
from crossloc.geometry import (
    SimilarityTransform2D,
    _check_pairs,
    apply_transform,
    rotation_matrix,
    solve_similarity,
    wrap_angle,
)
from crossloc.losses import NEGATIVE_RADIUS, gt_aerial_targets, gt_ground_targets
from crossloc.lifting import DepthMap, RayModel, aerial_coverage_mask, metric_to_aerial_cells
from crossloc.matching import AerialMeta, FeatureGrid, GroundMeta, _unit_rows
from crossloc.matching import augment_dustbin, dual_softmax
from crossloc.simulator import _stream

# Finite stand-in for -inf: large enough that exp() underflows to exactly 0
# after max subtraction, small enough to stay well inside float range.
MASK_SCORE = -1.0e9


def forward(ctx, params) -> float:
    """Total training loss at ``params`` with the context's frozen selection.

    Uses ``match_probabilities`` (the dual softmax of the whole augmented
    matrix), the production solver and the loss terms below end to end, as
    an independent route to the loss ``value_and_grad`` returns.  Only the
    depth-valid ground columns are scored (see ``forward_value``).
    """
    params = gradcheck._float_leaves(ctx.params0.size, ctx.mode, params)
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


def match_probabilities(m: np.ndarray, z=0.0) -> np.ndarray:
    """The (..., n_aerial, n_ground) real-pair probabilities of the scores
    ``m``: ``dual_softmax`` of the dustbin-augmented matrix, without the
    dustbin row and column and without renormalizing."""
    return dual_softmax(augment_dustbin(m, z))[..., :-1, :-1]


def finite_difference(f, params, epsilon: float = 1.0e-5) -> np.ndarray:
    """Central differences (f(p + eps e_i) - f(p - eps e_i)) / (2 eps)."""
    require_real("epsilon", epsilon, 0, ends="()")
    params = np.asarray(params, dtype=float)
    grad = np.empty_like(params)
    for i in range(params.size):
        step = np.zeros_like(params)
        step[i] = epsilon
        grad[i] = (f(params + step) - f(params - step)) / (2.0 * epsilon)
    return grad


def reference_fd_gradient(ctx, params, epsilon: float = 1.0e-5) -> np.ndarray:
    """``gradcheck.fd_gradient`` by the whole chain: the + and - rows of
    ``FD_BLOCK`` read leaves at a time, ascending, through one batched
    ``forward_value`` call each; an exact +0.0 for every other leaf."""
    require_real("epsilon", epsilon, 0, ends="()")
    params = gradcheck._float_leaves(ctx.params0.size, ctx.mode, params)
    grad = np.zeros_like(params)
    columns, rows, whole = gradcheck._read_leaves(ctx)
    read = np.union1d(np.union1d(columns, rows), whole)
    for start in range(0, read.size, gradcheck.FD_BLOCK):
        idx = read[start : start + gradcheck.FD_BLOCK]
        k = len(idx)
        rows = np.tile(params, (2 * k, 1))
        rows[np.arange(k), idx] += epsilon
        rows[np.arange(k, 2 * k), idx] -= epsilon
        values = gradcheck.forward_value(ctx, rows)
        grad[idx] = (values[:k] - values[k:]) / (2.0 * epsilon)
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
    features[empty] = _unit_rows(rng.normal(size=(int(empty.sum()), cfg.feature_dim)))[0]
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


def vce_loss(
    estimate: SimilarityTransform2D,
    truth: SimilarityTransform2D,
    virtual_points: np.ndarray,
) -> float:
    """Mean distance between virtual points mapped by the two poses.

    Only rotation and translation enter; the transforms' scales are ignored
    so that pose supervision stays in metric units.
    """
    virtual_points = np.asarray(virtual_points, dtype=float)
    if len(virtual_points) == 0:
        raise EmptyInput("no virtual points")
    r_est = rotation_matrix(estimate.theta)
    r_gt = rotation_matrix(truth.theta)
    delta = (virtual_points @ r_gt.T + truth.t) - (virtual_points @ r_est.T + estimate.t)
    return float(np.linalg.norm(delta, axis=1).mean())


def info_nce_g2s(
    scores: np.ndarray,
    aerial_shape: tuple,
    ground_cols: np.ndarray,
    targets: np.ndarray,
    meta: AerialMeta,
) -> float:
    """Ground-to-aerial contrastive loss.

    For each sampled ground point (a column of the ``(n_aerial, n_ground)``
    scores over an aerial grid of ``aerial_shape``) the positive is the
    aerial cell nearest its projected target; the denominator runs
    over the point's entire score column.  Targets outside the aerial
    coverage are dropped from the mean.  Raises NoValidTargets when nothing
    remains.
    """
    ground_cols = np.asarray(ground_cols, dtype=int)
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if len(ground_cols) != len(targets):
        raise OutOfRange(
            f"{len(ground_cols)} columns vs {len(targets)} targets"
        )
    inside = aerial_coverage_mask(targets, meta, aerial_shape)
    if not inside.any():
        raise NoValidTargets("every ground-to-aerial target left the aerial coverage")
    cells = metric_to_aerial_cells(targets[inside], meta, aerial_shape)
    total = 0.0
    for col, pos in zip(ground_cols[inside], cells[:, 0] * aerial_shape[1] + cells[:, 1]):
        column = scores[:, col]
        total += -(column[pos] - _logsumexp(column))
    return total / len(cells)


def info_nce_s2g(
    scores: np.ndarray,
    aerial_rows: np.ndarray,
    targets: np.ndarray,
    ground_cols: np.ndarray,
    ground_planar: np.ndarray,
    radius: float = NEGATIVE_RADIUS,
) -> float:
    """Aerial-to-ground contrastive loss.

    For each sampled aerial point (a row of the score matrix) the positive is
    the candidate ground point planar-closest to the projected target; the
    denominator is the positive plus all candidates farther than ``radius``
    meters (nearby non-positives are neither attracted nor repelled).
    Raises NoValidTargets when there is no aerial row or no candidate.
    """
    aerial_rows = np.asarray(aerial_rows, dtype=int)
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    ground_cols = np.asarray(ground_cols, dtype=int)
    ground_planar = np.atleast_2d(np.asarray(ground_planar, dtype=float))
    if len(ground_cols) != len(ground_planar) or len(aerial_rows) != len(targets):
        raise OutOfRange(
            f"{len(ground_cols)} candidate columns vs {len(ground_planar)} positions, "
            f"{len(aerial_rows)} rows vs {len(targets)} targets"
        )
    if len(ground_cols) == 0 or len(aerial_rows) == 0:
        raise NoValidTargets("no candidate ground points or no aerial rows")
    total = 0.0
    for row, target in zip(aerial_rows, targets):
        dist = np.linalg.norm(ground_planar - target, axis=1)
        pos = int(np.argmin(dist))  # ties keep the earliest candidate
        keep = dist > radius
        keep[pos] = True
        entries = scores[row, ground_cols[keep]]
        pos_in_subset = int(keep[:pos].sum())  # kept candidates before the positive
        total += -(entries[pos_in_subset] - _logsumexp(entries))
    return total / len(aerial_rows)


def total_loss(vce: float, g2s: float, s2g: float, beta: float) -> float:
    """Weighted combination: vce + beta * (g2s + s2g) / 2."""
    if beta < 0:
        raise OutOfRange(f"beta must be nonnegative, got {beta}")
    return float(vce + beta * (g2s + s2g) / 2.0)


def _logsumexp(x: np.ndarray) -> float:
    m = float(np.max(x))
    return m + math.log(float(np.exp(x - m).sum()))


def alignment_objective(
    transform: SimilarityTransform2D,
    p: np.ndarray,
    q: np.ndarray,
    w: np.ndarray,
) -> float:
    """Weighted sum of squared residuals under a candidate transform."""
    p, q, w = _check_pairs(p, q, w)
    residual = apply_transform(transform, p) - q
    return float((w * (residual**2).sum(axis=1)).sum())


def metric_to_aerial_cell(point: np.ndarray, meta: AerialMeta, shape: tuple) -> tuple:
    """Aerial cell ``(row, col)`` whose center is nearest a metric point."""
    row, col = metric_to_aerial_cells(np.array([point], dtype=float), meta, shape)[0]
    return int(row), int(col)


def mask_ground_columns(m: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """The scores with every entry of an invalid ground column (``valid`` is
    a boolean array over the ground cells) set to MASK_SCORE."""
    return np.where(valid[None, :], m, MASK_SCORE)


def inverse(t: SimilarityTransform2D) -> SimilarityTransform2D:
    """The transform mapping ``t``'s target frame back to its source frame."""
    inv_scale = 1.0 / t.scale
    inv_t = -inv_scale * (rotation_matrix(-t.theta) @ t.t)
    return SimilarityTransform2D(inv_scale, wrap_angle(-t.theta), inv_t)
