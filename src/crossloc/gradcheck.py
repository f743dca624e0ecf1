"""Analytic gradients of the matching-to-alignment loss, with an FD oracle.

The pipeline from scores to pose is differentiable once the discrete top-N
selection is frozen: gradients flow through the selected entries' soft
weights, not through which entries were selected (the usual straight-through
treatment of hard selection).  This module writes the training loss once,
as one chain of elementwise numpy operations in any float type
(``forward_value``), recorded in two stages:

* scores and the dual softmax with dustbin -- the row- and column-shifted
  exponentials of the augmented matrix and their sums (no selection yet);
* weighted scale-aware alignment -- the optimal angle in 2-D has the closed
  form theta* = atan2(C01 - C10, C00 + C11) over the weighted covariance C,
  and the optimal scale is hypot of the same two invariants over the
  weighted ground spread, so no SVD is needed -- then the selected pairs'
  weights, the pose loss and the contrastive cross-entropies.

``build_context`` runs stage one once at the leaf vector ``params0`` and
freezes the top-N of its probabilities, so the loss differentiates the
very matching it selected from.  ``value_and_grad`` runs the chain in
float64, reusing that stage at ``params0``, and makes one reverse sweep
over the values it recorded (``backward`` is its gradient; the trainer
calls it once per scene-step).  The finite-difference oracle runs the same
chain in extended precision (``np.longdouble``): float64 rounding of an
O(1) loss leaves ~1e-10 of noise in a central difference at step 1e-5,
which would swamp honest gradient entries near the relative-error floor.
``forward`` is the independent route: the production SVD solver and the
``losses`` module, held to the chain's loss by the tests.

The chain scores only the depth-valid ground columns plus the dustbin:
masked columns carry exactly 0 probability to real pairs, and most ground
columns are masked in typical scenes (in ``np.longdouble`` an ``exp`` that
underflows costs several times a normal one).  It also takes a leading
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

import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateConfiguration, NonDifferentiablePoint
from .errors import NoValidTargets, OutOfRange
from .estimator import PipelineConfig, _lift_top_n
from .geometry import solve_similarity
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
    ScoreMatrix,
    augment_dustbin,
    drop_dustbin,
    dual_softmax,
    normalize_features,
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

# the pose loss's lattice of virtual points, shared by every context
_VIRTUAL_POINTS = virtual_point_grid(8, 5.0)
_VIRTUAL_POINTS.flags.writeable = False


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
    beta: float
    aerial_meta: object
    aerial_shape: tuple
    ground_shape: tuple
    aerial_raw: np.ndarray  # (n_aerial, dim) unnormalized features
    ground_raw: np.ndarray  # (n_ground, dim) unnormalized features
    params0: np.ndarray  # (P,) read-only leaf vector the selection is frozen at
    # frozen contrastive structure as index arrays over the N selected pairs:
    # positives and negative sets are fixed functions of the (fixed)
    # geometry, captured once at construction
    g2s_pairs: np.ndarray  # (T,) pairs whose aerial target lies in coverage
    g2s_targets: np.ndarray  # (T,) positive aerial flat cell of each such pair
    s2g_keep: np.ndarray  # (N, N) bool: pair m is a candidate for row of pair n
    s2g_pos: np.ndarray  # (N,) the positive candidate pair of each row
    stage0: tuple  # the chain's stage one at params0 (``_Stage``)
    virtual_points: np.ndarray = field(default_factory=lambda: _VIRTUAL_POINTS)
    rule: NegativeRule = NegativeRule()

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
    params0: Optional[np.ndarray] = None,
    target_scale: Optional[float] = None,
) -> GradContext:
    """Freeze one scene's pipeline state into a differentiable view.

    Runs the chain's stage one once at the leaf vector ``params0`` (of
    ``mode``'s layout; by default the scene as rendered: its scores, its
    raw features or the identity projection, with ``cfg.dustbin_z``) and
    records it.  The selection is the top-N of its probabilities, lifted
    as ``estimator.build_correspondences`` lifts its own.  Also captures
    the contrastive-target scale (the true scale when depths are metric,
    otherwise the solver's estimate at the frozen weights -- the
    stop-gradient treatment the trainer uses; pass ``target_scale`` to
    override either).
    """
    if mode not in ("score", "features", "projection"):
        raise OutOfRange(f"unknown leaf mode {mode!r}")
    if cfg is None:
        cfg = PipelineConfig(num_correspondences=8)
    aerial_raw = scene.aerial.flat().astype(float).copy()
    ground_raw = scene.ground.flat().astype(float).copy()
    (na, dim), ng = aerial_raw.shape, ground_raw.shape[0]
    if params0 is None:
        if mode == "score":
            base = score_matrix(scene.aerial, scene.ground, cfg.tau).scores
        elif mode == "features":
            base = np.concatenate([aerial_raw.ravel(), ground_raw.ravel()])
        else:  # projection
            base = np.eye(dim)
        params0 = np.append(base.ravel(), cfg.dustbin_z)
    else:
        params0 = np.array(params0, dtype=float)
        n = {"score": na * ng, "features": (na + ng) * dim, "projection": dim * dim}[mode]
        if params0.shape != (n + 1,):
            raise OutOfRange(f"expected {n + 1} {mode} leaves, got shape {params0.shape}")
    params0.flags.writeable = False  # value_and_grad reuses stage0 by identity

    valid = depth_valid_mask(scene.depth, cfg.lift).ravel()
    leaves = _Leaves(mode, cfg.tau, valid, aerial_raw, ground_raw)
    stage0 = _stage_one(leaves, params0, np.float64)
    ra, cb = _softmaxes(stage0)
    corr = _lift_top_n(ra[:-1, :-1] * cb[:-1, :-1], np.flatnonzero(valid), scene.aerial,
                       scene.ground, scene.depth, scene.rays, cfg)

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
    s2g_keep = dist > GradContext.rule.radius  # the field's default rule
    s2g_keep[np.arange(len(s2g_pos)), s2g_pos] = True

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
        beta=float(beta),
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
        stage0=stage0,
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
    them (the selection is made over valid columns only)."""
    cols = np.flatnonzero(ctx.valid)
    return cols, np.searchsorted(cols, ctx.ground_flat)


def _valid_scores(ctx: GradContext, params: np.ndarray, cols: np.ndarray, dtype):
    """Raw scores of the ground columns ``cols``, ``(..., n_aerial, len(cols))``,
    and the features they came from: ``(a_raw, g_raw, a_hat, g_hat)`` with
    the ground rows of ``cols`` for feature and projection leaves, ``None``
    for score leaves.  Any leading batch axis is kept.

    Leaves are gathered before they are widened to ``dtype``, so leaves of
    other columns are never converted or copied.
    """
    batch = params.shape[:-1]
    (na, d), ng = ctx.aerial_raw.shape, ctx.ground_raw.shape[0]
    if ctx.mode == "score":
        entries = (np.arange(na)[:, None] * ng + cols).ravel()
        return params[..., entries].reshape(batch + (na, len(cols))).astype(dtype), None
    if ctx.mode == "features":
        a_raw = params[..., : na * d].reshape(batch + (na, d)).astype(dtype)
        g_raw = params[..., na * d : (na + ng) * d].reshape(batch + (ng, d))
        g_raw = g_raw[..., cols, :].astype(dtype)
    else:
        mat_t = params[..., : d * d].reshape(batch + (d, d)).astype(dtype).swapaxes(-1, -2)
        a_raw = ctx.aerial_raw.astype(dtype) @ mat_t
        g_raw = ctx.ground_raw[cols].astype(dtype) @ mat_t
    a_hat, g_hat = normalize_features(a_raw), normalize_features(g_raw)
    scores = (a_hat @ g_hat.swapaxes(-1, -2)) / dtype(ctx.tau)
    return scores, (a_raw, g_raw, a_hat, g_hat)


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
    scores, _ = _valid_scores(ctx, params, cols, np.float64)
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


# ---------------------------------------------------------------------------
# the loss chain: one forward pass in two stages, in any float type, with an
# optional leading batch axis, recording what the reverse sweep reads.  Stage
# one: the valid columns' scores (and features), the row- and column-shifted
# exponentials of the extended matrix with their sums.  Stage two: the
# selected pairs' weights, the loss, the alignment, the virtual-point offsets
# and, with the contrastive terms on, each term's (logits, lse).

# the leaf layout, the only fields of a GradContext that stage one reads
_Leaves = namedtuple("_Leaves", "mode tau valid aerial_raw ground_raw")
_Stage = namedtuple("_Stage", "params scores features er ec er_sum ec_sum")
_Alignment = namedtuple(
    "_Alignment", "total p_bar pt qt cross dot pp g h r spp theta scale cos_t sin_t t_x t_y"
)
_Tape = namedtuple("_Tape", "loss align offsets g2s s2g", defaults=(None, None))


def _stage_one(ctx, params: np.ndarray, dtype) -> _Stage:
    """Stage one, which needs no selection: valid-column scores plus a
    dustbin of score ``params[..., -1]``, exponentiated along both axes.
    ``ctx`` may be just the ``_Leaves``."""
    scores, features = _valid_scores(ctx, params, np.flatnonzero(ctx.valid), dtype)
    z = params[..., -1].astype(dtype)
    na, nc = scores.shape[-2:]
    extended = np.empty(scores.shape[:-2] + (na + 1, nc + 1), dtype=dtype)
    extended[..., :-1, :-1] = scores
    extended[..., -1, :] = z[..., None]
    extended[..., :-1, -1] = z[..., None]
    er = np.exp(extended - extended.max(axis=-1, keepdims=True))
    ec = np.exp(extended - extended.max(axis=-2, keepdims=True))
    return _Stage(params, scores, features, er, ec, er.sum(axis=-1), ec.sum(axis=-2))


def _softmaxes(stage: _Stage):
    """Row and column softmax of one unbatched extended matrix; their
    product without the dustbin is the dual-softmax match probability."""
    return stage.er / stage.er_sum[:, None], stage.ec / stage.ec_sum


def _align(p, q, w, strict: bool = False) -> _Alignment:
    """Weighted similarity mapping ``p`` onto ``q`` (``w`` may be batched).

    The optimal angle maximizes h cos(theta) + g sin(theta), where g and h
    are the antisymmetric and symmetric invariants of the weighted
    covariance; the optimal scale is hypot(g, h) over the weighted ground
    spread.  With ``strict`` (one weight vector) a degenerate alignment
    raises DegenerateConfiguration before anything is divided by zero.
    """
    total = w.sum(axis=-1)
    if strict and total <= 0.0:
        raise DegenerateConfiguration("weights sum to zero")
    p_bar = (w[..., None] * p).sum(axis=-2) / total[..., None]
    q_bar = (w[..., None] * q).sum(axis=-2) / total[..., None]
    pt = p - p_bar[..., None, :]
    qt = q - q_bar[..., None, :]
    cross = pt[..., 0] * qt[..., 1] - pt[..., 1] * qt[..., 0]
    dot = (pt * qt).sum(axis=-1)
    pp = (pt**2).sum(axis=-1)
    g = (w * cross).sum(axis=-1)
    h = (w * dot).sum(axis=-1)
    r = np.hypot(g, h)
    spp = (w * pp).sum(axis=-1)
    if strict and spp <= 0.0:
        raise DegenerateConfiguration("ground points have no weighted spread")
    if strict and r == 0.0:
        raise DegenerateConfiguration("zero covariance leaves the angle undefined")
    theta = np.arctan2(g, h)
    scale = r / spp
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    t_x = q_bar[..., 0] - scale * (cos_t * p_bar[..., 0] - sin_t * p_bar[..., 1])
    t_y = q_bar[..., 1] - scale * (sin_t * p_bar[..., 0] + cos_t * p_bar[..., 1])
    return _Alignment(
        total, p_bar, pt, qt, cross, dot, pp, g, h, r, spp, theta, scale, cos_t, sin_t, t_x, t_y
    )


def _vce(truth, points: np.ndarray, cos_t, sin_t, t_x, t_y, dtype):
    """(vce, (dx, dy, norms)): the mean norm of the virtual-point offsets
    ``truth - solved``, the offsets and their norms.  Both poses map the
    points by the same arithmetic, so equal poses give offsets of exactly 0.
    """
    v_x, v_y = points.astype(dtype).T
    c, s = np.cos(dtype(truth.theta)), np.sin(dtype(truth.theta))
    gt_x, gt_y = truth.t.astype(dtype)
    cos_t, sin_t = cos_t[..., None], sin_t[..., None]
    dx = (c * v_x - s * v_y + gt_x) - (cos_t * v_x - sin_t * v_y + t_x[..., None])
    dy = (s * v_x + c * v_y + gt_y) - (sin_t * v_x + cos_t * v_y + t_y[..., None])
    norms = np.sqrt(dx**2 + dy**2)
    return norms.mean(axis=-1), (dx, dy, norms)


def _logsumexp(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=-1, keepdims=True)
    return m[..., 0] + np.log(np.exp(x - m).sum(axis=-1))


def _loss(ctx: GradContext, stage: _Stage, sel, dtype, strict: bool = False) -> _Tape:
    """Stage two: the weights of the selected pairs (``sel`` holds their
    columns among the valid ones), the alignment, the pose loss and the
    contrastive terms (NoValidTargets when they are on and no
    ground-to-aerial target is in coverage); ``strict`` is ``_align``'s."""
    rows, er, ec = ctx.aerial_flat, stage.er, stage.ec
    w = (er[..., rows, sel] / stage.er_sum[..., rows]) * (
        ec[..., rows, sel] / stage.ec_sum[..., sel]
    )
    p, q = ctx.ground_planar.astype(dtype), ctx.aerial_metric.astype(dtype)
    al = _align(p, q, w, strict)
    vce, offsets = _vce(
        ctx.truth, ctx.virtual_points, al.cos_t, al.sin_t, al.t_x, al.t_y, dtype
    )
    if ctx.beta == 0.0:
        return _Tape(vce, al, offsets)
    if len(ctx.g2s_pairs) == 0:
        raise NoValidTargets("every ground-to-aerial target left the aerial coverage")
    scores = stage.scores
    # ground -> aerial: each in-coverage pair's whole score column
    g2s_sel = sel[ctx.g2s_pairs]
    g2s_logits = scores[..., g2s_sel].swapaxes(-1, -2)
    g2s_lse = _logsumexp(g2s_logits)
    g2s_pos = scores[..., ctx.g2s_targets, g2s_sel]
    g2s = -(g2s_pos - g2s_lse).sum(axis=-1) / len(g2s_sel)
    # aerial -> ground: each pair's row over its candidate pairs' columns
    block = scores[..., ctx.aerial_flat[:, None], sel[None, :]]  # (..., N, N)
    s2g_logits = np.where(ctx.s2g_keep, block, dtype(-np.inf))
    s2g_lse = _logsumexp(s2g_logits)
    s2g_pos = scores[..., ctx.aerial_flat, sel[ctx.s2g_pos]]
    s2g = -(s2g_pos - s2g_lse).sum(axis=-1) / len(sel)
    loss = vce + dtype(ctx.beta) * (g2s + s2g) / dtype(2.0)
    return _Tape(loss, al, offsets, (g2s_logits, g2s_lse), (s2g_logits, s2g_lse))


def forward_value(ctx: GradContext, params: np.ndarray, dtype=np.longdouble):
    """The loss chain: the same scalar as ``forward``, in a chosen float type.

    Elementwise numpy operations only, so it runs in ``np.longdouble``,
    which LAPACK's SVD cannot.  ``params`` may carry one leading batch axis:
    a ``(P,)`` leaf vector gives a scalar, a ``(K, P)`` stack gives ``(K,)``
    values, row ``k`` equal to the single-vector call on ``params[k]``.
    Only the depth-valid ground columns (plus the dustbin) are scored:
    masked to ``MASK_SCORE`` they would carry exactly 0 probability after
    the softmax, so the loss does not depend on them.
    """
    stage = _stage_one(ctx, np.asarray(params), dtype)
    return _loss(ctx, stage, _valid_columns(ctx)[1], dtype).loss


# ---------------------------------------------------------------------------
# the reverse sweep


def _align_vjp(al: _Alignment, d_theta, d_scale, d_t) -> np.ndarray:
    """Per-weight gradient of a scalar with the given partials in the
    solved angle, scale and translation, for one unbatched alignment.

    Centering makes the centroid-shift terms vanish in the covariance
    derivatives, so each weight's contribution reduces to its centered pair.
    """
    g, h, r, spp = float(al.g), float(al.h), float(al.r), float(al.spp)
    scale, c, s = float(al.scale), float(al.cos_t), float(al.sin_t)
    dtheta_dw = (h * al.cross - g * al.dot) / r**2
    dscale_dw = (g * al.cross + h * al.dot) / (r * spp) - scale * al.pp / spp
    rot = np.array([[c, -s], [s, c]])
    rot_p = np.array([[-s, -c], [c, -s]])  # dR/dtheta
    # t = q_bar - scale * R p_bar, totally differentiated in w_n
    dt_dw = (
        (al.qt - scale * (al.pt @ rot.T)) / float(al.total)
        - np.outer(dscale_dw, rot @ al.p_bar)
        - scale * np.outer(dtheta_dw, rot_p @ al.p_bar)
    )
    return d_theta * dtheta_dw + d_scale * dscale_dw + dt_dw @ np.asarray(d_t, float)


def pose_weight_gradients(p, q, w, d_theta: float, d_scale: float, d_t) -> np.ndarray:
    """dE/dw for every correspondence weight, given a scalar E's partials in
    the angle, scale and translation that the weighted alignment solves."""
    p, q, w = (np.asarray(x, float) for x in (p, q, w))
    return _align_vjp(_align(p, q, w, strict=True), d_theta, d_scale, d_t)


def _vce_vjp(points: np.ndarray, cos_t, sin_t, offsets):
    """(dvce/dtheta, dvce/dt) of ``_vce`` for one unbatched pose.

    Offsets that are exactly zero contribute nothing (the minimum of the
    cone; its symmetric subgradient).
    """
    dx, dy, norms = offsets
    delta, norms = np.stack([dx, dy], axis=1), norms[:, None]
    unit = np.divide(delta, norms, out=np.zeros_like(delta), where=norms > 0.0)
    c, s = float(cos_t), float(sin_t)
    rot_p = np.array([[-s, -c], [c, -s]])  # dR/dtheta
    d_theta = -float((unit * (points @ rot_p.T)).sum() / len(points))
    d_t = -unit.sum(axis=0) / len(points)
    return d_theta, d_t


def _cross_entropy_vjp(logits: np.ndarray, lse: np.ndarray, targets: np.ndarray):
    """Gradient of the mean softmax cross-entropy of the rows of ``logits``
    against their ``targets`` columns, from the rows' log-sum-exps."""
    grad = np.exp(logits - lse[:, None])
    grad[np.arange(len(targets)), targets] -= 1.0
    return grad / len(targets)


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


def value_and_grad(ctx: GradContext, params: np.ndarray = None):
    """(loss, gradient) at ``params`` (default ``ctx.params0``):
    ``forward_value``'s chain in float64, so the loss is
    ``forward_value(ctx, params, np.float64)`` exactly, then one reverse
    sweep over the values it recorded.  At ``ctx.params0`` itself stage one
    is the one ``build_context`` recorded, not a recomputation; any other
    array, a copy of ``params0`` included, runs the whole chain.

    A selection-boundary tie, checked between the chain's two stages,
    raises NonDifferentiablePoint before the alignment runs, then come
    DegenerateConfiguration and NoValidTargets.  Entries of masked ground
    columns and feature rows are exactly 0 in the gradient.
    """
    params = _float_leaves(ctx, ctx.params0 if params is None else params)
    stage = ctx.stage0 if params is ctx.stage0.params else _stage_one(ctx, params, np.float64)
    cols, sel = _valid_columns(ctx)
    ra, cb = _softmaxes(stage)
    _check_selection_boundary(ctx, ra[:-1, :-1] * cb[:-1, :-1], sel)
    tape = _loss(ctx, stage, sel, np.float64, strict=True)
    al = tape.align

    d_theta, d_t = _vce_vjp(ctx.virtual_points, al.cos_t, al.sin_t, tape.offsets)
    de_dw = _align_vjp(al, d_theta, 0.0, d_t)

    # VJP of row_softmax(E) * col_softmax(E); the selected entries are distinct
    d_probs = np.zeros_like(ra)
    d_probs[ctx.aerial_flat, sel] = de_dw
    u = d_probs * cb
    v = d_probs * ra
    d_extended = ra * (u - (ra * u).sum(axis=1, keepdims=True)) + cb * (
        v - (cb * v).sum(axis=0, keepdims=True)
    )
    d_scores = d_extended[:-1, :-1]
    d_z = float(d_extended[-1, :].sum() + d_extended[:-1, -1].sum())

    if tape.g2s is not None:
        coef = ctx.beta / 2.0
        d_g2s = _cross_entropy_vjp(*tape.g2s, ctx.g2s_targets)
        np.add.at(d_scores, (slice(None), sel[ctx.g2s_pairs]), coef * d_g2s.T)
        d_s2g = _cross_entropy_vjp(*tape.s2g, ctx.s2g_pos)
        np.add.at(d_scores, (ctx.aerial_flat[:, None], sel[None, :]), coef * d_s2g)

    loss = float(tape.loss)
    if ctx.mode == "score":
        grad = np.zeros((ctx.n_aerial, ctx.n_ground))
        grad[:, cols] = d_scores
        return loss, np.append(grad.ravel(), d_z)

    # chain through the cosine scores and the normalization into raw features
    a_raw, g_raw, a_hat, g_hat = stage.features
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
