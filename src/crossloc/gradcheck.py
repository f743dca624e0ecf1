"""Analytic gradients of the matching-to-alignment loss, with an FD oracle.

The pipeline from scores to pose is differentiable once the discrete top-N
selection is frozen: gradients flow through the selected entries' soft
weights, not through which entries were selected (the usual straight-through
treatment of hard selection).  This module builds that frozen view of a
scene, evaluates the training loss through the *production* code paths
(``forward``: SVD-based alignment solver, loss module), and computes the
loss and its gradient in one reverse sweep through an independent
closed-form route (``value_and_grad``; ``backward`` is its gradient):

* dual softmax with dustbin -- one row and one column softmax of the
  augmented matrix, shared by the match weights and their vector-Jacobian
  product;
* weighted scale-aware alignment -- the optimal angle in 2-D has the closed
  form theta* = atan2(C01 - C10, C00 + C11) over the weighted covariance C,
  and the optimal scale is hypot of the same two invariants over the
  weighted ground spread, so no SVD differentiation is needed;
* contrastive losses -- softmax cross-entropy values and gradients on the
  raw score entries, one log-sum-exp per term.

``forward`` (SVD) vs ``value_and_grad`` (closed-form angle) vs the
long-double FD oracle is a genuine consistency test, not a tautology, and
it certifies the very pass the trainer runs.

The FD oracle evaluates the loss in extended precision (``np.longdouble``):
float64 rounding of an O(1) loss leaves ~1e-10 of noise in a central
difference at step 1e-5, which would swamp honest gradient entries near the
relative-error floor.  The extended-precision path is a dtype-parameterized
twin of the forward computation; its float64 instantiation is tested to
match the production forward to machine precision.

Every route, float64 and long double, scores only the depth-valid ground
columns plus the dustbin: masked columns carry exactly 0 probability to
real pairs, and most ground columns are masked in typical scenes (in
``np.longdouble`` an ``exp`` that underflows costs several times a normal
one).  The oracle is also batched: ``forward_value`` accepts a leading
batch axis (``(P,)`` -> scalar, ``(K, P)`` -> ``(K,)``), so ``fd_gradient``
evaluates the + and - rows of ``FD_BLOCK`` coordinates per call instead of
two calls per coordinate.  The scalar ``finite_difference`` stays as the
generic reference.

Leaf parameterizations:

* ``"score"``      -- every raw score-matrix entry plus the dustbin score;
* ``"features"``   -- both grids' raw (pre-normalization) feature vectors
                      plus the dustbin score;
* ``"projection"`` -- a shared linear projection applied to both grids'
                      features before normalization, plus the dustbin score
                      (the trainable parameterization used by the trainer).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateConfiguration, NonDifferentiablePoint
from .errors import NoValidTargets, OutOfRange
from .estimator import PipelineConfig, build_correspondences
from .geometry import rotation_matrix, solve_similarity
from .lifting import aerial_coverage_mask, depth_valid_mask, metric_to_aerial_cells
from .losses import (
    NegativeRule,
    gt_aerial_targets,
    gt_ground_targets,
    info_nce_g2s,
    info_nce_s2g,
    total_loss,
    vce_loss,
    virtual_point_grid,
)
from .matching import (
    FeatureGrid,
    ScoreMatrix,
    augment_dustbin,
    col_softmax,
    drop_dustbin,
    dual_softmax,
    normalize_features,
    row_softmax,
    score_matrix,
)

__all__ = [
    "GradContext",
    "GradReport",
    "build_context",
    "forward",
    "forward_value",
    "value_and_grad",
    "backward",
    "finite_difference",
    "fd_gradient",
    "check",
    "compare_gradients",
    "pose_weight_gradients",
]

REL_FLOOR = 1.0e-8


@dataclass(frozen=True)
class GradContext:
    """Everything held fixed while differentiating: the frozen selection,
    the lifted geometry, the supervision targets, and the leaf layout."""

    mode: str  # "score" | "features" | "projection"
    tau: float
    valid: np.ndarray  # (n_ground,) bool, usable ground cells
    aerial_flat: np.ndarray  # (N,) selected aerial cells, flat indices
    ground_flat: np.ndarray  # (N,) selected ground cells, flat indices
    ground_planar: np.ndarray  # (N, 2) lifted BEV points (fixed)
    aerial_metric: np.ndarray  # (N, 2) matched aerial points (fixed)
    truth: object  # SimilarityTransform2D supervision pose
    target_scale: float  # scale used for contrastive targets (frozen)
    virtual_points: np.ndarray  # (V, 2) lattice for the pose loss
    beta: float
    rule: NegativeRule
    aerial_meta: object
    aerial_shape: tuple
    ground_shape: tuple
    aerial_raw: np.ndarray  # (n_aerial, dim) unnormalized features
    ground_raw: np.ndarray  # (n_ground, dim) unnormalized features
    params0: np.ndarray  # flat leaf vector matching the scene as rendered
    # frozen contrastive structure as index arrays over the N selected pairs:
    # positives and negative sets are fixed functions of the (fixed)
    # geometry, captured once at construction
    g2s_pairs: np.ndarray  # (T,) pairs whose aerial target lies in coverage
    g2s_targets: np.ndarray  # (T,) positive aerial flat cell of each such pair
    s2g_keep: np.ndarray  # (N, N) bool: pair m is a candidate for row of pair n
    s2g_pos: np.ndarray  # (N,) the positive candidate pair of each row

    @property
    def n_aerial(self) -> int:
        return self.aerial_raw.shape[0]

    @property
    def n_ground(self) -> int:
        return self.ground_raw.shape[0]

    @property
    def dim(self) -> int:
        return self.aerial_raw.shape[1]


@dataclass(frozen=True)
class GradReport:
    """Outcome of one analytic-versus-finite-difference comparison."""

    mode: str
    n_params: int
    analytic: Optional[np.ndarray]
    fd: Optional[np.ndarray]
    max_abs_err: float
    max_rel_err: float
    passed: bool
    error: Optional[str] = None  # failure surfaced instead of gradients

    def to_dict(self) -> dict:
        """JSON-ready summary; errors that are not finite (a failed check
        carries ``inf``) become ``None``, since JSON cannot encode them."""

        def finite_or_none(x):
            return float(x) if math.isfinite(x) else None

        return {
            "mode": self.mode,
            "n_params": int(self.n_params),
            "max_abs_err": finite_or_none(self.max_abs_err),
            "max_rel_err": finite_or_none(self.max_rel_err),
            "passed": bool(self.passed),
            "error": self.error,
        }


# ---------------------------------------------------------------------------
# context construction


def build_context(
    scene,
    cfg: PipelineConfig = None,
    mode: str = "score",
    beta: float = 0.1,
    virtual_side: int = 8,
    virtual_extent: float = 5.0,
    rule: NegativeRule = NegativeRule(),
    projection: Optional[tuple] = None,
    target_scale: Optional[float] = None,
) -> GradContext:
    """Freeze one scene's pipeline state into a differentiable view.

    Runs the production matching/lifting once, records the selected pairs
    and their fixed geometry, and captures the contrastive-target scale
    (the true scale when depths are metric, otherwise the solver's estimate
    at the frozen weights -- the stop-gradient treatment the trainer uses;
    pass ``target_scale`` to override either).

    ``projection`` supplies (matrix, dustbin z) applied to both feature
    grids before matching, so the frozen selection reflects the current
    trainable weights; it also becomes ``params0`` in projection mode.
    """
    if mode not in ("score", "features", "projection"):
        raise OutOfRange(f"unknown leaf mode {mode!r}")
    if cfg is None:
        cfg = PipelineConfig(num_correspondences=8)
    aerial_view, ground_view = scene.aerial, scene.ground
    if projection is not None:
        proj_mat, proj_z = projection
        proj_mat = np.asarray(proj_mat, dtype=float)
        aerial_view = FeatureGrid(
            scene.aerial.data @ proj_mat.T, "aerial", scene.aerial.meta
        )
        ground_view = FeatureGrid(
            scene.ground.data @ proj_mat.T, "ground", scene.ground.meta
        )
        cfg = dataclasses.replace(cfg, dustbin_z=float(proj_z))
    corr = build_correspondences(aerial_view, ground_view, scene.depth, scene.rays, cfg)

    valid = depth_valid_mask(scene.depth, cfg.lift).ravel()

    if target_scale is None:
        if scene.depth.kind == "metric":
            target_scale = 1.0 / cfg.lift.initial_scale
        else:
            est = solve_similarity(corr.ground_planar, corr.aerial_metric, corr.weights)
            target_scale = est.scale

    aerial_shape = (scene.aerial.rows, scene.aerial.cols)
    q_hat = gt_aerial_targets(corr.ground_planar, scene.truth, target_scale)
    inside = aerial_coverage_mask(q_hat, scene.aerial.meta, aerial_shape)
    g2s_pairs = np.flatnonzero(inside)
    cells = metric_to_aerial_cells(q_hat[g2s_pairs], scene.aerial.meta, aerial_shape)
    g2s_targets = cells[:, 0] * aerial_shape[1] + cells[:, 1]
    p_hat = gt_ground_targets(corr.aerial_metric, scene.truth, target_scale)
    dist = np.linalg.norm(corr.ground_planar[None, :, :] - p_hat[:, None, :], axis=2)
    s2g_pos = np.argmin(dist, axis=1)  # ties keep the earliest candidate
    s2g_keep = dist > rule.radius
    s2g_keep[np.arange(len(s2g_pos)), s2g_pos] = True

    aerial_raw = scene.aerial.flat().astype(float).copy()
    ground_raw = scene.ground.flat().astype(float).copy()
    if mode == "score":
        scores0 = score_matrix(aerial_view, ground_view, cfg.tau).scores
        params0 = np.append(scores0.ravel(), cfg.dustbin_z)
    elif mode == "features":
        params0 = np.concatenate(
            [aerial_raw.ravel(), ground_raw.ravel(), [cfg.dustbin_z]]
        )
    else:  # projection
        dim = aerial_raw.shape[1]
        base = np.eye(dim) if projection is None else proj_mat
        params0 = np.append(base.ravel(), cfg.dustbin_z)

    return GradContext(
        mode=mode,
        tau=cfg.tau,
        valid=valid,
        aerial_flat=corr.matches.aerial,
        ground_flat=corr.matches.ground,
        ground_planar=corr.ground_planar.copy(),
        aerial_metric=corr.aerial_metric.copy(),
        truth=scene.truth,
        target_scale=float(target_scale),
        virtual_points=virtual_point_grid(virtual_side, virtual_extent),
        beta=float(beta),
        rule=rule,
        aerial_meta=scene.aerial.meta,
        aerial_shape=aerial_shape,
        ground_shape=(scene.ground.rows, scene.ground.cols),
        aerial_raw=aerial_raw,
        ground_raw=ground_raw,
        params0=params0,
        g2s_pairs=g2s_pairs,
        g2s_targets=g2s_targets,
        s2g_keep=s2g_keep,
        s2g_pos=s2g_pos,
    )


def _float_leaves(ctx: GradContext, params: np.ndarray) -> np.ndarray:
    """One float64 leaf vector of the context's layout."""
    params = np.asarray(params, dtype=float)
    if params.shape != ctx.params0.shape:
        raise OutOfRange(
            f"expected {ctx.params0.shape[0]} parameters, got {params.shape}"
        )
    return params


def _valid_columns(ctx: GradContext):
    """The depth-valid ground columns, and each selected pair's column among
    them (build_correspondences scores only valid columns, so it never
    selects a masked one)."""
    cols = np.flatnonzero(ctx.valid)
    return cols, np.searchsorted(cols, ctx.ground_flat)


def _compact_features(ctx: GradContext, params: np.ndarray, cols: np.ndarray, dtype):
    """Raw aerial features and raw features of the ground columns ``cols``
    (feature and projection leaves), with any leading batch axis kept."""
    batch = params.shape[:-1]
    na, ng, d = ctx.n_aerial, ctx.n_ground, ctx.dim
    if ctx.mode == "features":
        a_raw = params[..., : na * d].reshape(batch + (na, d)).astype(dtype)
        g_raw = params[..., na * d : (na + ng) * d].reshape(batch + (ng, d))
        return a_raw, g_raw[..., cols, :].astype(dtype)
    mat_t = params[..., : d * d].reshape(batch + (d, d)).astype(dtype).swapaxes(-1, -2)
    return ctx.aerial_raw.astype(dtype) @ mat_t, ctx.ground_raw[cols].astype(dtype) @ mat_t


def _valid_scores(ctx: GradContext, params: np.ndarray, cols: np.ndarray, dtype):
    """Raw scores of the ground columns ``cols``, ``(..., n_aerial, len(cols))``.

    Leaves are gathered before they are widened to ``dtype``, so leaves of
    other columns are never converted or copied.
    """
    if ctx.mode == "score":
        shape = params.shape[:-1] + (ctx.n_aerial, len(cols))
        entries = (np.arange(ctx.n_aerial)[:, None] * ctx.n_ground + cols).ravel()
        return params[..., entries].reshape(shape).astype(dtype)
    a_raw, g_raw = _compact_features(ctx, params, cols, dtype)
    a_hat, g_hat = normalize_features(a_raw), normalize_features(g_raw)
    return (a_hat @ g_hat.swapaxes(-1, -2)) / dtype(ctx.tau)


# ---------------------------------------------------------------------------
# forward


def forward(ctx: GradContext, params: np.ndarray) -> float:
    """Total training loss at ``params`` with the context's frozen selection.

    Uses the production solver and loss implementations end to end, as an
    independent route to the loss ``value_and_grad`` returns.  Only the
    depth-valid ground columns are scored (see ``forward_value``).
    """
    params = _float_leaves(ctx, params)
    cols, sel = _valid_columns(ctx)
    scores = _valid_scores(ctx, params, cols, np.float64)
    m = ScoreMatrix(scores, ctx.tau, ctx.aerial_shape, (1, len(cols)))
    probs = drop_dustbin(dual_softmax(augment_dustbin(scores, params[-1])))
    estimate = solve_similarity(
        ctx.ground_planar, ctx.aerial_metric, probs[ctx.aerial_flat, sel]
    )
    vce = vce_loss(estimate, ctx.truth, ctx.virtual_points)
    if ctx.beta == 0.0:
        return total_loss(vce, 0.0, 0.0, 0.0).total
    q_hat = gt_aerial_targets(ctx.ground_planar, ctx.truth, ctx.target_scale)
    p_hat = gt_ground_targets(ctx.aerial_metric, ctx.truth, ctx.target_scale)
    g2s = info_nce_g2s(m, sel, q_hat, ctx.aerial_meta)
    s2g = info_nce_s2g(m, ctx.aerial_flat, p_hat, sel, ctx.ground_planar, ctx.rule)
    return total_loss(vce, g2s, s2g, ctx.beta).total


def _dual_softmax_at(scores: np.ndarray, z, rows: np.ndarray, cols: np.ndarray):
    """Dual-softmax probabilities of the entries ``(rows, cols)`` of
    ``scores`` with a dustbin row and column of score ``z`` appended."""
    na, nc = scores.shape[-2:]
    extended = np.empty(scores.shape[:-2] + (na + 1, nc + 1), dtype=scores.dtype)
    extended[..., :-1, :-1] = scores
    extended[..., -1, :] = z[..., None]
    extended[..., :-1, -1] = z[..., None]
    er = np.exp(extended - extended.max(axis=-1, keepdims=True))
    ec = np.exp(extended - extended.max(axis=-2, keepdims=True))
    return (er[..., rows, cols] / er.sum(axis=-1)[..., rows]) * (
        ec[..., rows, cols] / ec.sum(axis=-2)[..., cols]
    )


def forward_value(ctx: GradContext, params: np.ndarray, dtype=np.longdouble):
    """The same scalar as ``forward``, computed in a chosen float type.

    A dtype-parameterized twin of the loss chain built from elementwise
    numpy operations only (the alignment step uses the closed-form angle
    solution instead of an SVD, which LAPACK cannot run in extended
    precision).  The finite-difference oracle evaluates this in
    ``np.longdouble`` so that arithmetic rounding stays far below the
    gradient entries being resolved; with ``np.float64`` it reproduces
    ``forward`` to machine precision, which is tested.

    ``params`` may carry one leading batch axis: a ``(P,)`` leaf vector
    gives a scalar, a ``(K, P)`` stack of leaf vectors gives ``(K,)``
    values, row ``k`` equal to the single-vector call on ``params[k]``.

    Only the depth-valid ground columns (plus the dustbin) are scored:
    masked to ``MASK_SCORE`` they would carry exactly 0 probability after
    the softmax, and their dustbin-row entries are dropped with the
    dustbin, so the loss does not depend on them.
    """
    params = np.asarray(params)
    cols, sel = _valid_columns(ctx)
    scores = _valid_scores(ctx, params, cols, dtype)
    w = _dual_softmax_at(scores, params[..., -1].astype(dtype), ctx.aerial_flat, sel)

    p = ctx.ground_planar.astype(dtype)
    q = ctx.aerial_metric.astype(dtype)
    total = w.sum(axis=-1)
    p_bar = (w[..., None] * p).sum(axis=-2) / total[..., None]
    q_bar = (w[..., None] * q).sum(axis=-2) / total[..., None]
    pt = p - p_bar[..., None, :]
    qt = q - q_bar[..., None, :]
    g = (w * (pt[..., 0] * qt[..., 1] - pt[..., 1] * qt[..., 0])).sum(axis=-1)
    h = (w * (pt * qt).sum(axis=-1)).sum(axis=-1)
    theta = np.arctan2(g, h)
    scale = np.hypot(g, h) / (w * (pt**2).sum(axis=-1)).sum(axis=-1)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    t_x = q_bar[..., 0] - scale * (cos_t * p_bar[..., 0] - sin_t * p_bar[..., 1])
    t_y = q_bar[..., 1] - scale * (sin_t * p_bar[..., 0] + cos_t * p_bar[..., 1])

    v = ctx.virtual_points.astype(dtype)
    gt_theta = dtype(ctx.truth.theta)
    rot_gt = np.array(
        [
            [np.cos(gt_theta), -np.sin(gt_theta)],
            [np.sin(gt_theta), np.cos(gt_theta)],
        ],
        dtype=dtype,
    )
    v_gt = v @ rot_gt.T + ctx.truth.t.astype(dtype)  # (V, 2)
    cos_t, sin_t = cos_t[..., None], sin_t[..., None]
    dx = v_gt[:, 0] - (cos_t * v[:, 0] - sin_t * v[:, 1] + t_x[..., None])
    dy = v_gt[:, 1] - (sin_t * v[:, 0] + cos_t * v[:, 1] + t_y[..., None])
    vce = np.sqrt(dx**2 + dy**2).mean(axis=-1)
    if ctx.beta == 0.0:
        return vce

    def logsumexp(x):
        m = x.max(axis=-1, keepdims=True)
        return m[..., 0] + np.log(np.exp(x - m).sum(axis=-1))

    # ground -> aerial: each in-coverage pair's whole score column
    g2s_sel = sel[ctx.g2s_pairs]
    g2s_lse = logsumexp(scores[..., g2s_sel].swapaxes(-1, -2))  # over (..., T, A)
    g2s_pos = scores[..., ctx.g2s_targets, g2s_sel]
    g2s = -(g2s_pos - g2s_lse).sum(axis=-1) / len(g2s_sel)
    # aerial -> ground: each pair's row over its candidate pairs' columns
    block = scores[..., ctx.aerial_flat[:, None], sel[None, :]]  # (..., N, N)
    s2g_lse = logsumexp(np.where(ctx.s2g_keep, block, dtype(-np.inf)))
    s2g_pos = scores[..., ctx.aerial_flat, sel[ctx.s2g_pos]]
    s2g = -(s2g_pos - s2g_lse).sum(axis=-1) / len(sel)
    return vce + dtype(ctx.beta) * (g2s + s2g) / dtype(2.0)


# ---------------------------------------------------------------------------
# backward: closed-form chain rule


def _solver_internals(p: np.ndarray, q: np.ndarray, w: np.ndarray) -> dict:
    """Weighted-alignment byproducts needed by the chain rule.

    The optimal angle maximizes the weighted correlation
    c(theta) = h cos(theta) + g sin(theta), where g and h are the
    antisymmetric and symmetric invariants of the weighted covariance;
    the optimal scale is hypot(g, h) over the weighted ground spread.
    """
    total = float(w.sum())
    if total <= 0.0:
        raise DegenerateConfiguration("weights sum to zero")
    p_bar = (w[:, None] * p).sum(axis=0) / total
    q_bar = (w[:, None] * q).sum(axis=0) / total
    pt = p - p_bar
    qt = q - q_bar
    g = float((w * (pt[:, 0] * qt[:, 1] - pt[:, 1] * qt[:, 0])).sum())
    h = float((w * (pt * qt).sum(axis=1)).sum())
    r = math.hypot(g, h)
    spp = float((w * (pt**2).sum(axis=1)).sum())
    if spp <= 0.0:
        raise DegenerateConfiguration("ground points have no weighted spread")
    if r == 0.0:
        raise DegenerateConfiguration("zero covariance leaves the angle undefined")
    theta = math.atan2(g, h)
    scale = r / spp
    return {
        "total": total, "p_bar": p_bar, "q_bar": q_bar, "pt": pt, "qt": qt,
        "g": g, "h": h, "r": r, "spp": spp, "theta": theta, "scale": scale,
    }


def pose_weight_gradients(
    p: np.ndarray,
    q: np.ndarray,
    w: np.ndarray,
    d_theta: float,
    d_scale: float,
    d_t: np.ndarray,
) -> np.ndarray:
    """Gradient of a scalar through the weighted alignment, per weight.

    Given the scalar's partials with respect to the solved angle, scale, and
    translation, returns dE/dw for every correspondence weight.  Centering
    makes the centroid-shift terms vanish in the covariance derivatives, so
    each weight's contribution reduces to its centered pair.
    """
    s = _solver_internals(np.asarray(p, float), np.asarray(q, float), np.asarray(w, float))
    pt, qt = s["pt"], s["qt"]
    cross = pt[:, 0] * qt[:, 1] - pt[:, 1] * qt[:, 0]  # dg/dw_n
    dot = (pt * qt).sum(axis=1)  # dh/dw_n
    pp = (pt**2).sum(axis=1)  # dSpp/dw_n
    r2 = s["r"] ** 2
    dtheta_dw = (s["h"] * cross - s["g"] * dot) / r2
    dscale_dw = (s["g"] * cross + s["h"] * dot) / (s["r"] * s["spp"]) - s[
        "scale"
    ] * pp / s["spp"]
    rot = rotation_matrix(s["theta"])
    rot_p = rotation_matrix(s["theta"] + math.pi / 2)  # dR/dtheta
    rp = rot @ s["p_bar"]
    rpp = rot_p @ s["p_bar"]
    # t = q_bar - scale * R p_bar, totally differentiated in w_n
    dt_dw = (
        (qt - s["scale"] * (pt @ rot.T)) / s["total"]
        - np.outer(dscale_dw, rp)
        - s["scale"] * np.outer(dtheta_dw, rpp)
    )
    return d_theta * dtheta_dw + d_scale * dscale_dw + dt_dw @ np.asarray(d_t, float)


def _vce_partials(theta: float, t: np.ndarray, truth, points: np.ndarray):
    """(vce, dvce/dtheta, dvce/dt) for the mean virtual-point offset norm.

    Offsets that are exactly zero contribute nothing (the minimum of the
    cone; its symmetric subgradient).
    """
    r_est = rotation_matrix(theta)
    r_gt = rotation_matrix(truth.theta)
    delta = (points @ r_gt.T + truth.t) - (points @ r_est.T + t)
    norms = np.linalg.norm(delta, axis=1)
    unit = np.zeros_like(delta)
    nz = norms > 0.0
    unit[nz] = delta[nz] / norms[nz, None]
    rot_p = rotation_matrix(theta + math.pi / 2)
    d_theta = -float((unit * (points @ rot_p.T)).sum() / len(points))
    d_t = -unit.sum(axis=0) / len(points)
    return float(norms.mean()), d_theta, d_t


def _cross_entropy(logits: np.ndarray, targets: np.ndarray):
    """Mean softmax cross-entropy of the rows of ``logits`` against their
    ``targets`` columns (``-inf`` entries are left out), and its gradient,
    from one log-sum-exp per row."""
    top = logits.max(axis=1, keepdims=True)
    lse = top + np.log(np.exp(logits - top).sum(axis=1, keepdims=True))
    rows = np.arange(len(targets))
    grad = np.exp(logits - lse)
    grad[rows, targets] -= 1.0
    loss = -(logits[rows, targets] - lse[:, 0]).sum() / len(targets)
    return float(loss), grad / len(targets)


def _check_selection_boundary(ctx: GradContext, probs: np.ndarray, sel: np.ndarray):
    """Exact probability tie across the top-N boundary means the frozen
    selection is ambiguous at these parameters.

    ``probs`` holds the valid columns only; every entry of a masked column
    is an unselected entry of probability exactly 0.
    """
    flat = probs.ravel()
    outside = np.ones(flat.size, dtype=bool)
    outside[ctx.aerial_flat * probs.shape[1] + sel] = False
    floor = 0.0 if probs.shape[1] < ctx.n_ground else -np.inf
    if flat[~outside].min() == flat[outside].max(initial=floor):
        raise NonDifferentiablePoint(
            "selected and unselected entries tie exactly at the sampling boundary"
        )


def value_and_grad(ctx: GradContext, params: np.ndarray):
    """(loss, gradient) at ``params`` in one compacted reverse sweep.

    Scores only the depth-valid ground columns plus the dustbin, and takes
    one row softmax and one column softmax of that extended matrix for both
    the match weights and their vector-Jacobian product.  The pose enters
    through the closed-form angle route and each contrastive term through
    one log-sum-exp, so the loss equals ``forward``'s up to summation
    order.  Entries of masked ground columns, and of masked ground feature
    rows, are exactly 0 in the gradient.
    """
    params = _float_leaves(ctx, params)
    cols, sel = _valid_columns(ctx)
    if ctx.mode == "score":
        scores = _valid_scores(ctx, params, cols, np.float64)
    else:
        a_raw, g_raw = _compact_features(ctx, params, cols, np.float64)
        a_hat, g_hat = normalize_features(a_raw), normalize_features(g_raw)
        scores = (a_hat @ g_hat.T) / ctx.tau
    extended = augment_dustbin(scores, params[-1])
    ra, cb = row_softmax(extended), col_softmax(extended)
    probs = ra[:-1, :-1] * cb[:-1, :-1]
    _check_selection_boundary(ctx, probs, sel)
    w = probs[ctx.aerial_flat, sel]

    internals = _solver_internals(ctx.ground_planar, ctx.aerial_metric, w)
    rot = rotation_matrix(internals["theta"])
    t_est = internals["q_bar"] - internals["scale"] * (rot @ internals["p_bar"])
    loss, d_theta, d_t = _vce_partials(
        internals["theta"], t_est, ctx.truth, ctx.virtual_points
    )
    de_dw = pose_weight_gradients(
        ctx.ground_planar, ctx.aerial_metric, w, d_theta, 0.0, d_t
    )

    # VJP of row_softmax(E) * col_softmax(E); the selected entries are distinct
    d_probs = np.zeros_like(extended)
    d_probs[ctx.aerial_flat, sel] = de_dw
    u = d_probs * cb
    v = d_probs * ra
    d_extended = ra * (u - (ra * u).sum(axis=1, keepdims=True)) + cb * (
        v - (cb * v).sum(axis=0, keepdims=True)
    )
    d_scores = d_extended[:-1, :-1]
    d_z = float(d_extended[-1, :].sum() + d_extended[:-1, -1].sum())

    if ctx.beta != 0.0:
        if len(ctx.g2s_pairs) == 0:
            raise NoValidTargets("every ground-to-aerial target left the aerial coverage")
        coef = ctx.beta / 2.0
        # ground -> aerial: each in-coverage pair's whole score column
        g2s_cols = sel[ctx.g2s_pairs]
        g2s, d_g2s = _cross_entropy(scores[:, g2s_cols].T, ctx.g2s_targets)
        np.add.at(d_scores, (slice(None), g2s_cols), coef * d_g2s.T)
        # aerial -> ground: each pair's row over its candidate pairs' columns
        rows, cand = ctx.aerial_flat[:, None], sel[None, :]
        block = np.where(ctx.s2g_keep, scores[rows, cand], -np.inf)
        s2g, d_s2g = _cross_entropy(block, ctx.s2g_pos)
        np.add.at(d_scores, (rows, cand), coef * d_s2g)
        loss = loss + ctx.beta * (g2s + s2g) / 2.0

    if ctx.mode == "score":
        grad = np.zeros((ctx.n_aerial, ctx.n_ground))
        grad[:, cols] = d_scores
        return loss, np.append(grad.ravel(), d_z)

    # chain through the cosine scores and the normalization into raw features
    d_a_hat = (d_scores @ g_hat) / ctx.tau
    d_g_hat = (d_scores.T @ a_hat) / ctx.tau
    a_norm = np.linalg.norm(a_raw, axis=1, keepdims=True)
    g_norm = np.linalg.norm(g_raw, axis=1, keepdims=True)
    d_a_raw = (d_a_hat - a_hat * (a_hat * d_a_hat).sum(axis=1, keepdims=True)) / a_norm
    d_g_raw = (d_g_hat - g_hat * (g_hat * d_g_hat).sum(axis=1, keepdims=True)) / g_norm
    if ctx.mode == "features":
        d_ground = np.zeros((ctx.n_ground, ctx.dim))
        d_ground[cols] = d_g_raw
        return loss, np.concatenate([d_a_raw.ravel(), d_ground.ravel(), [d_z]])
    d_mat = d_a_raw.T @ ctx.aerial_raw + d_g_raw.T @ ctx.ground_raw[cols]
    return loss, np.append(d_mat.ravel(), d_z)


def backward(ctx: GradContext, params: np.ndarray) -> np.ndarray:
    """Exact gradient of ``forward`` at ``params``: ``value_and_grad``'s."""
    return value_and_grad(ctx, params)[1]


# ---------------------------------------------------------------------------
# finite differences and the comparison report


def finite_difference(
    f: Callable[[np.ndarray], float], params: np.ndarray, epsilon: float = 1.0e-5
) -> np.ndarray:
    """Central differences (f(p + eps e_i) - f(p - eps e_i)) / (2 eps)."""
    if epsilon <= 0:
        raise OutOfRange(f"epsilon must be positive, got {epsilon}")
    params = np.asarray(params, dtype=float)
    grad = np.empty_like(params)
    for i in range(params.size):
        step = np.zeros_like(params)
        step[i] = epsilon
        grad[i] = (f(params + step) - f(params - step)) / (2.0 * epsilon)
    return grad


# Coordinates perturbed per batched ``forward_value`` call (2 * FD_BLOCK
# rows).  Larger blocks shave per-call overhead but hold more long-double
# temporaries at once.
FD_BLOCK = 4


def fd_gradient(
    ctx: GradContext, params: np.ndarray, epsilon: float = 1.0e-5
) -> np.ndarray:
    """Central-difference gradient of ``forward_value`` in ``np.longdouble``.

    The same differences as ``finite_difference(lambda p: forward_value(ctx,
    p), params, epsilon)`` -- each perturbed vector is formed in float64 and
    evaluated in long double -- but the + and - rows of ``FD_BLOCK``
    coordinates at a time go through one batched ``forward_value`` call.
    """
    if epsilon <= 0:
        raise OutOfRange(f"epsilon must be positive, got {epsilon}")
    params = np.asarray(params, dtype=float)
    grad = np.empty_like(params)
    for start in range(0, params.size, FD_BLOCK):
        idx = np.arange(start, min(start + FD_BLOCK, params.size))
        k = len(idx)
        rows = np.tile(params, (2 * k, 1))
        rows[np.arange(k), idx] += epsilon
        rows[np.arange(k, 2 * k), idx] -= epsilon
        values = forward_value(ctx, rows)
        grad[idx] = (values[:k] - values[k:]) / (2.0 * epsilon)
    return grad


def compare_gradients(
    analytic: np.ndarray,
    fd: np.ndarray,
    tol: float = 1.0e-4,
    floor: float = REL_FLOOR,
):
    """(max abs err, max rel err, passed) with a floored relative error."""
    analytic = np.asarray(analytic, dtype=float)
    fd = np.asarray(fd, dtype=float)
    abs_err = np.abs(analytic - fd)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), floor)
    rel_err = abs_err / denom
    return float(abs_err.max()), float(rel_err.max()), bool(rel_err.max() < tol)


def check(
    ctx: GradContext,
    params: np.ndarray = None,
    epsilon: float = 1.0e-5,
    tol: float = 1.0e-4,
) -> GradReport:
    """Run backward against the FD oracle and report the discrepancy.

    Pipeline failures (degenerate alignment, selection-boundary ties, no
    contrastive target in coverage) are surfaced in the report rather than
    raised.
    """
    if params is None:
        params = ctx.params0
    try:
        analytic = backward(ctx, params)
        fd = fd_gradient(ctx, params, epsilon)
    except (DegenerateConfiguration, NonDifferentiablePoint, NoValidTargets) as exc:
        return GradReport(
            mode=ctx.mode,
            n_params=len(ctx.params0),
            analytic=None,
            fd=None,
            max_abs_err=math.inf,
            max_rel_err=math.inf,
            passed=False,
            error=f"{type(exc).__name__}: {exc}",
        )
    max_abs, max_rel, passed = compare_gradients(analytic, fd, tol)
    return GradReport(
        mode=ctx.mode,
        n_params=len(params),
        analytic=analytic,
        fd=fd,
        max_abs_err=max_abs,
        max_rel_err=max_rel,
        passed=passed,
    )
