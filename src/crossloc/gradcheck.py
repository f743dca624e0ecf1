"""Analytic gradients of the matching-to-alignment loss, with an FD oracle.

The pipeline from scores to pose is differentiable once the discrete top-N
selection is frozen: gradients flow through the selected entries' soft
weights, not through which entries were selected (the usual straight-through
treatment of hard selection).  This module writes the training loss once,
as one chain of elementwise numpy operations in any float type
(``forward_value``), recorded in two stages:

* scores and the dual softmax with dustbin -- ``matching``'s own
  ``score_matrix`` and ``soft_assign``, batched and in the chain's float
  type (the selection at most slices its rows and columns);
* weighted scale-aware alignment -- the optimal angle in 2-D has the closed
  form theta* = atan2(C01 - C10, C00 + C11) over the weighted covariance C,
  and the optimal scale is hypot of the same two invariants over the
  weighted ground spread, so no SVD is needed -- then the selected pairs'
  weights, the pose loss and the contrastive cross-entropies.

``build_context`` runs stage one once at the leaf vector ``params0`` and
freezes the top-N of its probabilities, so the loss differentiates the
very matching it selected from.  It is two parts.  ``_prepare`` holds what
no leaf vector changes, once per scene (the trainer prepares each training
scene once per run): the depth-valid mask and its columns, the raw
features as read-only views of the scene's arrays, the lifted 3-D point of
every valid ground cell and the metric point of every aerial cell.
``_freeze`` is what each scene-step recomputes: stage one, its top-N looked
up in those tables, the contrastive targets and index arrays.
``value_and_grad`` runs the chain in float64, reusing that stage at
``params0`` -- its unit feature rows and norms and its probabilities --
and makes one reverse sweep over the values it recorded (``backward`` is
its gradient; the trainer calls it once per scene-step).  The
finite-difference oracle runs the same chain in extended precision
(``np.longdouble``): float64 rounding of an O(1) loss leaves ~1e-10 of
noise in a central difference at step 1e-5, which would swamp honest
gradient entries near the relative-error floor.

The chain scores only the depth-valid ground columns plus the dustbin:
masked columns carry exactly 0 probability to real pairs, and most ground
columns are masked in typical scenes (in ``np.longdouble`` an ``exp`` that
underflows costs several times a normal one).  For the same reason
``forward_value`` normalises only the selected pairs' rows and columns plus
the dustbin (about 5 of 49 rows and 7 of 9 columns in gate-05 scenes; the
top-N and the reverse sweep need them all), and ``fd_gradient`` perturbs
only the leaves the chain reads (``_read_leaves``: the valid columns'
scores, or every aerial feature and the valid cells' ground feature rows,
or every projection entry; plus the dustbin) and writes an exact +0.0 for
the others, whose central differences are two equal losses.

Every other read leaf writes one line of the scores: a score leaf or a
valid cell's ground feature row its column, an aerial cell's feature row
its row.  ``fd_gradient`` evaluates the perturbed vectors of a few such
lines as one batch (``_line_values``): each vector forms only its own line
and swaps the entries it changed into the unperturbed vector's shifted
exponentials exp(x - max) of the lines the chain normalises, then runs
stage two.  That is exact: max and subtraction are, so the other entries'
exponentials keep their bits, and a line whose max moves is redone whole.
The leaves that move every score (projection entries, the dustbin) run the
whole chain, which takes a leading batch axis (``(P,)`` -> scalar,
``(K, P)`` -> ``(K,)``): the + and - rows of ``FD_BLOCK`` of them per
``forward_value`` call.  Both routes give the whole chain's values bit for
bit, since numpy sums a batch's reductions in an order set by its memory
layout, which the line route copies (``_batch_like``).

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
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import matching
from .errors import DegenerateConfiguration, DimensionMismatch, NonDifferentiablePoint
from .errors import NoValidTargets, OutOfRange, require_choice, require_real
from .estimator import PipelineConfig, _lift_tables, _lift_top_n
from .geometry import solve_similarity
from .lifting import aerial_coverage_mask, depth_valid_mask, metric_to_aerial_cells
from .losses import NEGATIVE_RADIUS, gt_aerial_targets, gt_ground_targets, virtual_point_grid
from .matching import _exp_record, score_matrix, soft_assign

__all__ = [
    "GradContext",
    "GradReport",
    "build_context",
    "forward_value",
    "value_and_grad",
    "backward",
    "fd_gradient",
    "check",
    "compare_gradients",
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

    @cached_property
    def cols(self) -> np.ndarray:
        """The depth-valid ground cells' flat indices: the scored columns."""
        return np.flatnonzero(self.valid)

    @cached_property
    def sel(self) -> np.ndarray:
        """Each selected pair's column among ``cols`` (the selection is made
        over valid columns only)."""
        return np.searchsorted(self.cols, self.ground_flat)

    @cached_property
    def unique_rows(self) -> tuple:
        """(the selected pairs' distinct aerial rows, each pair's position
        among them): the rows the loss normalises."""
        return np.unique(self.aerial_flat, return_inverse=True)

    @cached_property
    def unique_cols(self) -> tuple:
        """(the distinct ``sel`` columns, each pair's position among them):
        the columns the loss normalises."""
        return np.unique(self.sel, return_inverse=True)

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
) -> GradContext:
    """Freeze one scene's pipeline state into a differentiable view.

    Runs the chain's stage one once at the leaf vector ``params0`` (of
    ``mode``'s layout; by default the scene as rendered: its scores, its
    raw features or the identity projection, with ``cfg.dustbin_z``) and
    records it.  The selection is the top-N of its probabilities, lifted
    as ``estimator.build_correspondences`` lifts its own.  Also captures
    the contrastive-target scale: the true scale when depths are metric,
    otherwise the solver's estimate at the frozen weights (the
    stop-gradient treatment the trainer uses).  The same as
    ``_freeze(_prepare(scene, cfg, mode), beta, params0)``; the trainer
    prepares each scene once and passes its loss mode's scale to ``_freeze``.
    """
    return _freeze(_prepare(scene, cfg, mode), beta, params0)


# what no leaf vector changes: the scene, the leaf layout (all stage one
# reads of it), the depth-valid mask and its columns, and the lifted points
# the top-N is looked up in
_Prepared = namedtuple(
    "_Prepared", "scene cfg mode tau valid cols aerial_raw ground_raw points3"
)


def _prepare(scene, cfg: PipelineConfig = None, mode: str = "score") -> _Prepared:
    """The part of ``build_context`` no leaf vector changes, once per scene:
    the raw features as read-only float views of the scene's arrays, and
    ``estimator._lift_tables``' lifted point of every valid ground cell."""
    require_choice("mode", mode, ("score", "features", "projection"))
    if cfg is None:
        cfg = PipelineConfig(num_correspondences=8)
    aerial_raw = np.asarray(scene.aerial.flat(), dtype=float)
    ground_raw = np.asarray(scene.ground.flat(), dtype=float)
    aerial_raw.flags.writeable = ground_raw.flags.writeable = False
    valid = depth_valid_mask(scene.depth, cfg.lift).ravel()
    cols = np.flatnonzero(valid)
    points3 = _lift_tables(cols, scene.ground, scene.depth, scene.rays, cfg)
    return _Prepared(scene, cfg, mode, cfg.tau, valid, cols, aerial_raw, ground_raw, points3)


def _freeze(prep: _Prepared, beta: float = 0.1, params0=None, target_scale=None) -> GradContext:
    """``build_context``'s per-step part: stage one at ``params0``, its
    top-N looked up in the prepared tables, the targets and the contrastive
    index arrays."""
    scene, cfg, mode = prep.scene, prep.cfg, prep.mode
    (na, dim), ng = prep.aerial_raw.shape, prep.ground_raw.shape[0]
    if params0 is None:
        if mode == "score":
            base = score_matrix(prep.aerial_raw, prep.ground_raw, cfg.tau)
        elif mode == "features":
            base = np.concatenate([prep.aerial_raw.ravel(), prep.ground_raw.ravel()])
        else:  # projection
            base = np.eye(dim)
        params0 = np.append(base.ravel(), cfg.dustbin_z)
    else:
        params0 = np.array(params0, dtype=float)
        n = {"score": na * ng, "features": (na + ng) * dim, "projection": dim * dim}[mode]
        if params0.shape != (n + 1,):
            raise OutOfRange(f"expected {n + 1} {mode} leaves, got shape {params0.shape}")
        _require_finite("params0", params0)
    params0.flags.writeable = False  # value_and_grad reuses stage0 by identity

    stage0 = _stage_one(prep, params0, np.float64)
    stage0 = stage0._replace(probs=stage0.ra[:-1, :-1] * stage0.cb[:-1, :-1])
    corr = _lift_top_n(stage0.probs, prep.cols, prep.points3, scene.aerial, cfg)

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
    s2g_keep = dist > NEGATIVE_RADIUS
    s2g_keep[np.arange(len(s2g_pos)), s2g_pos] = True

    return GradContext(
        mode=mode,
        tau=cfg.tau,
        valid=prep.valid,
        aerial_flat=corr.matches.aerial,
        ground_flat=corr.matches.ground,
        ground_planar=corr.ground_planar,
        aerial_metric=corr.aerial_metric,
        truth=scene.truth,
        target_scale=float(target_scale),
        beta=float(beta),
        aerial_meta=scene.aerial.meta,
        aerial_shape=aerial_shape,
        aerial_raw=prep.aerial_raw,
        ground_raw=prep.ground_raw,
        params0=params0,
        g2s_pairs=g2s_pairs,
        g2s_targets=g2s_targets,
        s2g_keep=s2g_keep,
        s2g_pos=s2g_pos,
        stage0=stage0,
    )


def _require_finite(name: str, params: np.ndarray) -> None:
    """OutOfRange naming ``name`` unless every leaf of ``params`` is finite."""
    bad = np.flatnonzero(~np.isfinite(params))
    if bad.size:
        raise OutOfRange(
            f"{name} must be finite, got {params[bad[0]]} at leaf {bad[0]} "
            f"({bad.size} of {params.size} leaves non-finite)",
            field=name,
        )


def _float_leaves(ctx: GradContext, params: np.ndarray) -> np.ndarray:
    """One finite float64 leaf vector of the context's layout."""
    params = np.asarray(params, dtype=float)
    if params.shape != ctx.params0.shape:
        raise OutOfRange(
            f"expected {ctx.params0.shape[0]} parameters, got {params.shape}"
        )
    _require_finite("params", params)
    return params


def _score_leaves(ctx, cols: np.ndarray) -> np.ndarray:
    """Flat indices of the score leaves of the ground columns ``cols``,
    row-major over ``(n_aerial, len(cols))`` (ascending for sorted ``cols``)."""
    na, ng = ctx.aerial_raw.shape[0], ctx.ground_raw.shape[0]
    return (np.arange(na)[:, None] * ng + cols).ravel()


def _read_leaves(ctx: GradContext):
    """The leaves ``_valid_scores`` gathers, plus the dustbin: the only
    leaves ``forward_value`` reads, as ``(columns, rows, whole)``.  Row
    ``j`` of ``columns`` (one row per valid column) holds the leaves that
    move only valid column ``j``'s scores: its score leaves (score mode) or
    its ground cell's feature row (features mode); projection mode has
    none.  Row ``i`` of ``rows`` holds aerial cell ``i``'s feature row,
    which moves only score row ``i`` (features mode; the other modes have
    none).  ``whole`` (ascending) holds the leaves that move every score:
    every projection entry, and the dustbin.  Score leaves of masked
    columns and ground feature rows of masked cells are never read.
    """
    cols = ctx.cols
    (na, d), n = ctx.aerial_raw.shape, ctx.params0.shape[0]
    no_rows = np.empty((0, d), dtype=int)
    if ctx.mode == "score":
        return _score_leaves(ctx, cols).reshape(na, len(cols)).T, no_rows, np.array([n - 1])
    if ctx.mode == "features":
        columns = na * d + cols[:, None] * d + np.arange(d)
        return columns, np.arange(na * d).reshape(na, d), np.array([n - 1])
    return np.empty((len(cols), 0), dtype=int), no_rows, np.arange(n)


def _valid_scores(ctx: GradContext, params: np.ndarray, cols: np.ndarray, dtype):
    """Raw scores of the ground columns ``cols``, ``(..., n_aerial, len(cols))``,
    and for feature and projection leaves the unit rows and norms of the
    features they came from, ``((a_hat, a_norm), (g_hat, g_norm))`` with the
    ground rows of ``cols`` (``None`` for score leaves).  Any leading batch
    axis is kept.

    Leaves are gathered before they are widened to ``dtype``, so leaves of
    other columns are never converted or copied.
    """
    batch = params.shape[:-1]
    (na, d), ng = ctx.aerial_raw.shape, ctx.ground_raw.shape[0]
    if ctx.mode == "score":
        entries = _score_leaves(ctx, cols)
        return params[..., entries].reshape(batch + (na, len(cols))).astype(dtype), None
    if ctx.mode == "features":
        a_raw = params[..., : na * d].reshape(batch + (na, d)).astype(dtype)
        g_raw = params[..., na * d : (na + ng) * d].reshape(batch + (ng, d))
        g_raw = g_raw[..., cols, :].astype(dtype)
    else:
        mat_t = params[..., : d * d].reshape(batch + (d, d)).astype(dtype).swapaxes(-1, -2)
        a_raw = ctx.aerial_raw.astype(dtype) @ mat_t
        g_raw = ctx.ground_raw[cols].astype(dtype) @ mat_t
    scores, a_units, g_units = score_matrix(a_raw, g_raw, ctx.tau, units=True)
    return scores, (a_units, g_units)


# ---------------------------------------------------------------------------
# the loss chain: one forward pass in two stages, in any float type, with an
# optional leading batch axis, recording what the reverse sweep reads.  Stage
# one: the valid columns' scores (and the features' unit rows and norms), and
# ``matching``'s softmaxes of the dustbin-augmented matrix's rows and columns.
# Stage two: the selected pairs' weights, the loss, the alignment, the
# virtual-point offsets and, with the contrastive terms on, each term's
# shifted exponentials and their sums.

# ``probs``, the real pairs' dual softmax, is recorded only by ``_freeze``
_Stage = namedtuple("_Stage", "params scores features ra cb probs", defaults=(None,))
_Alignment = namedtuple(
    "_Alignment", "total p_bar pt qt cross dot pp g h r spp theta scale cos_t sin_t t_x t_y"
)
_Tape = namedtuple("_Tape", "loss align offsets g2s s2g", defaults=(None, None))


def _stage_one(ctx, params: np.ndarray, dtype, rows=slice(None), cols=slice(None)) -> _Stage:
    """Stage one, which the selection at most slices: valid-column scores plus a
    dustbin of score ``params[..., -1]``, and ``soft_assign``'s row softmaxes
    of aerial ``rows`` and column softmaxes of valid ``cols`` (default all).
    ``ctx`` may be a ``_Prepared`` scene."""
    scores, features = _valid_scores(ctx, params, ctx.cols, dtype)
    ra, cb = soft_assign(scores, params[..., -1], rows, cols)
    return _Stage(params, scores, features, ra, cb)


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


def _logsumexp(x: np.ndarray):
    """(log-sum-exp of each row of ``x``, and the reverse sweep's record of
    it: the rows' shifted exponentials from ``matching._exp_record``, and
    their sums)."""
    m, e = _exp_record(x, -1)
    total = e.sum(axis=-1)
    return m[..., 0] + np.log(total), (e, total)


def _g2s_logits(ctx: GradContext, scores: np.ndarray, sel) -> np.ndarray:
    """Ground-to-aerial logits: each in-coverage pair's score column down the rows."""
    return scores[..., sel[ctx.g2s_pairs]].swapaxes(-1, -2)


def _s2g_logits(ctx: GradContext, scores: np.ndarray, sel) -> np.ndarray:
    """Aerial-to-ground logits: each pair's score row over the pairs' columns."""
    block = scores[..., ctx.aerial_flat[:, None], sel[None, :]]
    return np.where(ctx.s2g_keep, block, scores.dtype.type(-np.inf))


def _loss(ctx: GradContext, stage: _Stage, sel, dtype, strict: bool = False, at=None) -> _Tape:
    """Stage two on ``stage``: the selected pairs' weights (``sel``: their
    columns among the valid ones; ``at``: their rows and columns in a sliced
    stage one), then ``_stage_two``."""
    r_at, c_at = (ctx.aerial_flat, sel) if at is None else at
    w = stage.ra[..., r_at, sel] * stage.cb[..., ctx.aerial_flat, c_at]
    return _stage_two(ctx, w, stage.scores, sel, dtype, strict)


def _stage_two(
    ctx: GradContext, w, scores, sel, dtype, strict: bool = False, g2s_lse=None, s2g_lse=None
) -> _Tape:
    """From the selected pairs' weights ``w`` and the valid columns'
    ``scores``: the alignment, the pose loss and the contrastive terms
    (NoValidTargets when on with no ground-to-aerial target in coverage);
    ``strict`` is ``_align``'s.  ``g2s_lse`` and ``s2g_lse``, when given,
    hold the ground-to-aerial and aerial-to-ground rows' log-sum-exps, which
    are then neither recomputed nor recorded."""
    p, q = ctx.ground_planar.astype(dtype), ctx.aerial_metric.astype(dtype)
    al = _align(p, q, w, strict)
    vce, offsets = _vce(
        ctx.truth, _VIRTUAL_POINTS, al.cos_t, al.sin_t, al.t_x, al.t_y, dtype
    )
    if ctx.beta == 0.0:
        return _Tape(vce, al, offsets)
    if len(ctx.g2s_pairs) == 0:
        raise NoValidTargets("every ground-to-aerial target left the aerial coverage")
    g2s_exp = s2g_exp = None
    if g2s_lse is None:
        g2s_lse, g2s_exp = _logsumexp(_g2s_logits(ctx, scores, sel))
    g2s_pos = scores[..., ctx.g2s_targets, sel[ctx.g2s_pairs]]
    g2s = -(g2s_pos - g2s_lse).sum(axis=-1) / len(ctx.g2s_pairs)
    if s2g_lse is None:
        s2g_lse, s2g_exp = _logsumexp(_s2g_logits(ctx, scores, sel))
    s2g_pos = scores[..., ctx.aerial_flat, sel[ctx.s2g_pos]]
    s2g = -(s2g_pos - s2g_lse).sum(axis=-1) / len(sel)
    loss = vce + dtype(ctx.beta) * (g2s + s2g) / dtype(2.0)
    return _Tape(loss, al, offsets, g2s_exp, s2g_exp)


def forward_value(ctx: GradContext, params: np.ndarray, dtype=np.longdouble):
    """The loss chain, in a chosen float type.

    Elementwise numpy operations only, so it runs in ``np.longdouble``,
    which LAPACK's SVD cannot.  ``params`` may carry one leading batch axis:
    a ``(P,)`` leaf vector gives a scalar, a ``(K, P)`` stack gives ``(K,)``
    values, row ``k`` equal to the single-vector call on ``params[k]``.
    Only the depth-valid ground columns (plus the dustbin) are scored --
    masked, they would carry exactly 0 probability after the softmax -- and
    only the selected pairs' rows and columns, all the loss reads, normalised.
    """
    (rows, r_at), (cols, c_at) = ctx.unique_rows, ctx.unique_cols
    stage = _stage_one(ctx, np.asarray(params), dtype, rows, cols)
    return _loss(ctx, stage, ctx.sel, dtype, at=(r_at, c_at)).loss


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


def _cross_entropy_vjp(e: np.ndarray, total: np.ndarray, targets: np.ndarray):
    """Gradient of the mean softmax cross-entropy of rows of logits against
    their ``targets`` columns, from ``_logsumexp``'s record of the rows."""
    grad = e / total[:, None]
    grad[np.arange(len(targets)), targets] -= 1.0
    return grad / len(targets)


def _check_selection_boundary(ctx: GradContext, probs: np.ndarray, sel: np.ndarray):
    """Exact probability tie across the top-N boundary means the frozen
    selection is ambiguous at these parameters.

    ``probs`` holds the valid columns only; every entry of a masked column
    is an unselected entry of probability exactly 0.
    """
    outside = probs.copy()
    outside[ctx.aerial_flat, sel] = -np.inf
    floor = 0.0 if probs.shape[1] < ctx.n_ground else -np.inf
    if probs[ctx.aerial_flat, sel].min() == outside.max(initial=floor):
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
    cols, sel = ctx.cols, ctx.sel
    ra, cb = stage.ra, stage.cb
    probs = ra[:-1, :-1] * cb[:-1, :-1] if stage.probs is None else stage.probs
    _check_selection_boundary(ctx, probs, sel)
    tape = _loss(ctx, stage, sel, np.float64, strict=True)
    al = tape.align

    d_theta, d_t = _vce_vjp(_VIRTUAL_POINTS, al.cos_t, al.sin_t, tape.offsets)
    de_dw = _align_vjp(al, d_theta, 0.0, d_t)

    # VJP of row_softmax(E) * col_softmax(E) at the distinct selected
    # entries: ra * (u - rowsum(ra * u)) + cb * (v - colsum(cb * v)) with
    # u = d_probs * cb and v = d_probs * ra, which are 0 off the selection
    af, r_sel, c_sel = ctx.aerial_flat, ra[ctx.aerial_flat, sel], cb[ctx.aerial_flat, sel]
    u, v = de_dw * c_sel, de_dw * r_sel
    r, c = np.bincount(af, r_sel * u, len(ra)), np.bincount(sel, c_sel * v, ra.shape[1])
    d_extended = ra * -r[:, None] - cb * c
    d_extended[af, sel] = r_sel * (u - r[af]) + c_sel * (v - c[sel])
    d_scores = d_extended[:-1, :-1]
    d_z = float(d_extended[-1, :].sum() + d_extended[:-1, -1].sum())

    if tape.g2s is not None:
        # the contrastive score gradients, whose entries repeat: summed per
        # column through the selected columns' one-hot matrix, then the
        # aerial-to-ground term's rows per entry by one scatter
        k = len(cols)
        hot = (ctx.beta / 2.0) * (sel[:, None] == np.arange(k))
        d_scores += _cross_entropy_vjp(*tape.g2s, ctx.g2s_targets).T @ hot[ctx.g2s_pairs]
        d_s2g = _cross_entropy_vjp(*tape.s2g, ctx.s2g_pos) @ hot
        at = (af[:, None] * k + np.arange(k)).ravel()
        d_scores += np.bincount(at, d_s2g.ravel(), d_scores.size).reshape(d_scores.shape)

    loss = float(tape.loss)
    if ctx.mode == "score":
        grad = np.zeros((ctx.n_aerial, ctx.n_ground))
        grad[:, cols] = d_scores
        return loss, np.append(grad.ravel(), d_z)

    # chain through the cosine scores and the normalization into raw
    # features, from the unit rows and norms stage one recorded
    (a_hat, a_norm), (g_hat, g_norm) = stage.features
    a_norm, g_norm = a_norm[:, None], g_norm[:, None]
    d_a_hat = (d_scores @ g_hat) / ctx.tau
    d_g_hat = (d_scores.T @ a_hat) / ctx.tau
    d_a_raw = (d_a_hat - a_hat * (a_hat * d_a_hat).sum(axis=1, keepdims=True)) / a_norm
    d_g_raw = (d_g_hat - g_hat * (g_hat * d_g_hat).sum(axis=1, keepdims=True)) / g_norm
    if ctx.mode == "features":
        d_ground = np.zeros((ctx.n_ground, ctx.dim))
        d_ground[cols] = d_g_raw
        return loss, np.concatenate([d_a_raw.ravel(), d_ground.ravel(), [d_z]])
    d_mat = d_a_raw.T @ ctx.aerial_raw + d_g_raw.T @ ctx.ground_raw[cols]
    return loss, np.append(d_mat.ravel(), d_z)


def backward(ctx: GradContext, params: np.ndarray) -> np.ndarray:
    """Exact gradient of the loss at ``params``: ``value_and_grad``'s."""
    return value_and_grad(ctx, params)[1]


# ---------------------------------------------------------------------------
# finite differences and the comparison report


# The leaves that move every score go FD_BLOCK per ``forward_value`` call
# (2 * FD_BLOCK vectors).  Those that write one score line go whole lines
# at a time, as many as keep a ``_line_values`` call within FD_VECTORS
# vectors (at least one line): 4 feature rows of dimension 8, or one column
# of 49 score leaves on gate 05's scenes.  A vector forms only its own line,
# so larger blocks save only calls, and they raise the peak memory.
FD_BLOCK = 4
FD_VECTORS = 64


def _plus_minus(rows: np.ndarray, idx: np.ndarray, epsilon: float) -> np.ndarray:
    """``2k`` float64 copies of ``rows`` (``k`` rows, or one for all) for
    the ``k`` leaves ``idx``: row ``i`` moves leaf ``idx[i]`` of ``rows[i]``
    by +epsilon, row ``k + i`` by -epsilon."""
    k = len(idx)
    out = np.tile(np.broadcast_to(rows, (k, rows.shape[-1])), (2, 1))
    out[np.arange(k), idx] += epsilon
    out[np.arange(k, 2 * k), idx] -= epsilon
    return out


def _batch_like(a: np.ndarray, v: int) -> np.ndarray:
    """``v`` copies of ``a[0]`` laid out in memory as the batch ``a`` is.
    The chain's batches are not all C-ordered (a leaf gather puts the batch
    axis innermost), and numpy sums a reduced axis pairwise when it is
    contiguous and in order when it is not, so a copy must keep the layout."""
    out = np.empty_like(a, shape=(v,) + a.shape[1:])
    out[...] = a[0]
    return out


_Lines = namedtuple("_Lines", "x m e top arg")


def _lines_record(x: np.ndarray, axis: int) -> _Lines:
    """Lines the chain normalises along ``axis`` of ``x`` (a stage one
    stacked twice): the view (batch, line, entry) with that axis last
    (``np.moveaxis`` keeps the memory layout), its ``matching._exp_record``,
    each line's runner-up and max entry, and the max's position."""
    x = np.moveaxis(x, axis, -1)
    return _Lines(x, *_exp_record(x, -1), np.sort(x[0], axis=-1)[:, -2:], x[0].argmax(axis=-1))


def _swap(rec: _Lines, at: np.ndarray, new: np.ndarray) -> tuple:
    """``(max, exp(x - max), sum)`` of ``V`` copies of ``rec``'s lines in
    which entry ``at[v]`` of every line is ``new[v, line]``.  Max and
    subtraction are exact: a line's new max is the larger of the new entry
    and the rest's (the runner-up where ``at[v]`` held the max), the other
    entries keep the base's exponentials, and a line whose max moves is
    redone whole.
    They are summed again in the base's memory layout (``_batch_like``)."""
    v, n = new.shape
    m = np.maximum(np.where(rec.arg == at[:, None], rec.top[:, 0], rec.top[:, 1]), new)
    e = _batch_like(rec.e, v)
    e[np.arange(v)[:, None], np.arange(n), at[:, None]] = np.exp(new - m)
    vv, ll = np.nonzero(m != rec.m[0, :, 0])
    if len(vv):
        x = rec.x[0, ll]
        x[np.arange(len(vv)), at[vv]] = new[vv, ll]
        e[vv, ll] = np.exp(x - m[vv, ll, None])
    return m[..., None], e, e.sum(axis=-1, keepdims=True)


def _redo(rec: _Lines, line: np.ndarray, new: np.ndarray) -> tuple:
    """``(max, exp(x - max), sum)`` of ``rec``'s line ``line[v]`` with the
    entries ``new[v]``, forming exponentials only where an entry changed, or
    the line's max did.  It is summed in a two-line copy of the base's
    memory layout, which numpy sums in the whole set's order."""
    v = len(new)
    m = new.max(axis=-1, keepdims=True)
    e = _batch_like(rec.e[:, :2], v)
    e[:, 0] = rec.e[0, line]
    redo = (new != rec.x[0, line]) | (m != rec.m[0, line])
    e[:, 0][redo] = np.exp(new[redo] - np.broadcast_to(m, new.shape)[redo])
    return m, e[:, 0], e.sum(axis=-1)[:, :1]


def _records(ctx: GradContext, base: _Stage) -> tuple:
    """What ``_line_values`` reads of the stage one ``base`` (stacked
    twice): the selected pairs' row and column softmax entries, the
    ground-to-aerial and aerial-to-ground log-sum-exps (``None`` with the
    contrastive terms off or without targets, which stage two then raises
    on), each laid out as the chain lays it out; and the ``_Lines`` of the
    selected columns' dustbin-augmented scores and of the ground-to-aerial
    logits, whose lines are score columns."""
    (_, r_at), (cols, c_at) = ctx.unique_rows, ctx.unique_cols
    scores, z, sel = base.scores, base.params[..., -1], ctx.sel
    columns = _lines_record(matching.augment_dustbin(scores[..., :, cols], z), -2)
    out = (base.ra[..., r_at, sel], base.cb[..., ctx.aerial_flat, c_at])
    if ctx.beta == 0.0 or len(ctx.g2s_pairs) == 0:
        return out + (None, None, columns, None)
    g2s = _g2s_logits(ctx, scores, sel)
    s2g_lse = _logsumexp(_s2g_logits(ctx, scores, sel))[0]
    return out + (_logsumexp(g2s)[0], s2g_lse, columns, _lines_record(g2s, -1))


def _line_values(ctx: GradContext, base: _Stage, records: tuple, axis: int, lines, new):
    """``forward_value`` in long double at ``V`` leaf vectors, vector ``v``
    differing from ``base.params`` (stage one there, stacked twice, with its
    ``_records``) only in the scores of valid column ``lines[v]`` (``axis``
    -1) or aerial row ``lines[v]`` (-2), which are ``new[v]``.

    The selected columns' softmaxes and the ground-to-aerial log-sum-exps
    read score columns: a row changes one entry of each (``_swap``), a
    column its own lines (``_redo``).  The selected rows' row softmaxes and
    the aerial-to-ground log-sum-exps are recomputed by the chain's own
    expressions for the vectors whose line reaches them.  The rest is the
    base's, so each value equals the whole chain's bit for bit."""
    v, sel, af = len(lines), ctx.sel, ctx.aerial_flat
    (rows, r_at), (cols, c_at) = ctx.unique_rows, ctx.unique_cols
    z = base.params[0, -1]
    scores = _batch_like(base.scores, v)
    at = (np.arange(v),) + (slice(None),) * (2 + axis) + (lines,)
    changed = new != scores[at]
    scores[at] = new
    ra, cb, g2s_lse, s2g_lse = (None if a is None else _batch_like(a, v) for a in records[:4])
    columns, g2s = records[4:]
    if axis == -2:
        reach_r, reach_s = np.isin(lines, rows), np.isin(lines, af)
        _, e, t = _swap(columns, lines, matching.augment_dustbin(new[:, None, cols], z)[:, 0])
        cb[...] = e[:, c_at, af] / t[:, c_at, 0]
        if g2s is not None:
            m, _, t = _swap(g2s, lines, new[:, sel[ctx.g2s_pairs]])
            g2s_lse[...] = m[..., 0] + np.log(t[..., 0])
    else:
        reach_r = changed[:, rows].any(axis=1)
        reach_s = changed[:, af].any(axis=1) & np.isin(lines, sel)
        pairs = sel == lines[:, None]
        hit = pairs.any(axis=1)
        line = np.searchsorted(cols, lines[hit])
        _, e, t = _redo(columns, line, matching.augment_dustbin(new[hit, :, None], z)[..., 0])
        cb[pairs] = (e[:, af] / t)[pairs[hit]]
        if g2s is not None:
            reads = sel[ctx.g2s_pairs] == lines[:, None]
            hit = reads.any(axis=1)
            m, _, t = _redo(g2s, reads[hit].argmax(axis=1), new[hit])
            g2s_lse[reads] = np.broadcast_to(m + np.log(t), reads[hit].shape)[reads[hit]]
    del _, e, t  # stage two, where a call peaks, reads no line's exponentials
    if reach_r.any():
        ra[reach_r] = matching.row_softmax(scores[reach_r][..., rows, :], z)[..., r_at, sel]
    if g2s is not None and reach_s.any():
        s2g_lse[reach_s] = _logsumexp(_s2g_logits(ctx, scores[reach_s], sel))[0]
    tape = _stage_two(ctx, ra * cb, scores, sel, np.longdouble, g2s_lse=g2s_lse, s2g_lse=s2g_lse)
    return tape.loss


def _line_scores(ctx: GradContext, base: _Stage, axis: int, leaves: np.ndarray):
    """Each vector's new line of scores, in long double, from the ``(V, L)``
    leaves that write it: a column's score leaves, or a raw feature row
    scored against ``base``'s aerial rows (a ground cell's, ``axis`` -1) or
    valid ground rows (an aerial cell's, -2)."""
    leaves = leaves.astype(np.longdouble)
    if ctx.mode == "score":
        return leaves
    na_d = ctx.n_aerial * ctx.dim
    if axis == -1:
        a_raw = base.params[0, :na_d].reshape(ctx.n_aerial, ctx.dim)
        return score_matrix(a_raw.astype(np.longdouble), leaves[:, None, :], ctx.tau)[..., 0]
    g_raw = base.params[0, na_d:-1].reshape(ctx.n_ground, ctx.dim)[ctx.cols]
    return score_matrix(leaves[:, None, :], g_raw.astype(np.longdouble), ctx.tau)[:, 0]


def fd_gradient(
    ctx: GradContext, params: np.ndarray, epsilon: float = 1.0e-5
) -> np.ndarray:
    """Central-difference gradient of ``forward_value`` in ``np.longdouble``.

    Central differences (f(p + eps e_i) - f(p - eps e_i)) / (2 eps) of f =
    ``forward_value(ctx, .)`` -- each perturbed vector is formed in float64
    and evaluated in long double -- but only for the leaves the chain reads
    (``_read_leaves``).  The leaves that write one score line go through
    ``_line_values``, whole lines per call (``FD_VECTORS``), each vector
    forming only its own line and taking the rest from one stage one at
    ``params``; the leaves that move every score go through
    ``forward_value``, ``FD_BLOCK`` per call.  Both give the whole chain's
    values bit for bit.  Every other leaf gets an exact +0.0, the value its
    central difference of two equal losses would give.  Raises OutOfRange,
    once per call, when a leaf of ``params`` is not finite.
    """
    require_real("epsilon", epsilon, 0, ends="()")
    params = _float_leaves(ctx, params)
    grad = np.zeros_like(params)
    columns, rows, whole = _read_leaves(ctx)

    def central(idx, values):
        k = len(idx)
        grad[idx] = (values[:k] - values[k:]) / (2.0 * epsilon)

    if columns.size:
        # a stack of two: a batch of one lays out and sums some rows otherwise
        pair = np.stack([params, params])
        base = _stage_one(ctx, pair, np.longdouble, ctx.unique_rows[0], ctx.unique_cols[0])
        records = _records(ctx, base)
        for axis, table in ((-1, columns), (-2, rows)):
            n = table.shape[1]
            step = max(1, FD_VECTORS // (2 * n))
            for start in range(0, len(table), step):
                block = table[start : start + step]
                at = np.tile(np.arange(n), len(block))
                leaves = _plus_minus(np.repeat(params[block], n, axis=0), at, epsilon)
                lines = np.tile(np.repeat(np.arange(start, start + len(block)), n), 2)
                new = _line_scores(ctx, base, axis, leaves)
                central(block.ravel(), _line_values(ctx, base, records, axis, lines, new))
    for start in range(0, whole.size, FD_BLOCK):
        idx = whole[start : start + FD_BLOCK]
        central(idx, forward_value(ctx, _plus_minus(params, idx, epsilon)))
    return grad


def compare_gradients(
    analytic: np.ndarray,
    fd: np.ndarray,
    tol: float = 1.0e-4,
):
    """(max abs err, max rel err, passed) with the relative error's
    denominator floored at ``REL_FLOOR``.

    Raises OutOfRange unless ``tol`` is finite and positive, and
    DimensionMismatch when the two gradients' shapes differ."""
    require_real("tol", tol, 0, ends="()")
    analytic = np.asarray(analytic, dtype=float)
    fd = np.asarray(fd, dtype=float)
    if analytic.shape != fd.shape:
        raise DimensionMismatch(
            f"analytic gradient of shape {analytic.shape} vs finite differences of shape {fd.shape}"
        )
    abs_err = np.abs(analytic - fd)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), REL_FLOOR)
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
    raised.  Bad arguments are raised before any gradient is taken:
    OutOfRange for a ``tol`` that is not finite and positive and for
    non-finite ``params``.
    """
    require_real("tol", tol, 0, ends="()")
    if params is None:
        params = ctx.params0
    try:
        analytic = backward(ctx, params)
        fd = fd_gradient(ctx, params, epsilon)
    except (DegenerateConfiguration, NonDifferentiablePoint, NoValidTargets) as exc:
        return GradReport(
            mode=ctx.mode,
            n_params=len(ctx.params0),
            max_abs_err=math.inf,
            max_rel_err=math.inf,
            passed=False,
            error=f"{type(exc).__name__}: {exc}",
        )
    max_abs, max_rel, passed = compare_gradients(analytic, fd, tol)
    return GradReport(
        mode=ctx.mode,
        n_params=len(params),
        max_abs_err=max_abs,
        max_rel_err=max_rel,
        passed=passed,
    )
