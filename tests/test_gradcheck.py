"""Tests for the analytic-gradient machinery.

Oracles come first: a generic central-difference routine is verified on
functions with known derivatives, the closed-form angle solver is checked
against the SVD solver, and only then is the full chain's backward pass
held to the FD oracle.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from crossloc import gradcheck
from crossloc.errors import DegenerateConfiguration, NonDifferentiablePoint
from crossloc.errors import NoValidTargets, OutOfRange
from crossloc.estimator import PipelineConfig, build_correspondences
from crossloc.geometry import SimilarityTransform2D, solve_similarity, wrap_angle
from crossloc.lifting import LiftConfig
from crossloc.losses import vce_loss, virtual_point_grid
from crossloc.matching import (
    FeatureGrid,
    ScoreMatrix,
    augment_dustbin,
    col_softmax,
    mask_ground_columns,
    row_softmax,
)
from crossloc.simulator import SceneConfig, generate

SMALL_SCENE = dict(
    extent=20.0,
    aerial_cells=7,
    landmark_count=10,
    ground_rows=4,
    ground_cols=8,
    feature_dim=8,
    noise_sigma=0.15,
    visibility_range=12.0,
    min_visible=4,
    max_height=6.0,
)
SMALL_PIPE = PipelineConfig(num_correspondences=8, lift=LiftConfig(max_depth=15.0))


def small_context(seed, mode, beta=0.1, **scene_kwargs):
    cfg = dict(SMALL_SCENE)
    cfg.update(scene_kwargs)
    scene = generate(SceneConfig(seed=seed, **cfg))
    return gradcheck.build_context(scene, SMALL_PIPE, mode=mode, beta=beta)


def vce_partials(theta, t, truth, points):
    """(vce, dvce/dtheta, dvce/dt) from the chain's pose-loss stage and its
    reverse sweep, at one float64 pose."""
    cos_t, sin_t = np.cos(np.float64(theta)), np.sin(np.float64(theta))
    t_x, t_y = np.asarray(t, dtype=float)
    vce, offsets = gradcheck._vce(truth, points, cos_t, sin_t, t_x, t_y, np.float64)
    d_theta, d_t = gradcheck._vce_vjp(points, cos_t, sin_t, offsets)
    return float(vce), d_theta, d_t


# ---------------------------------------------------------------------------
# the FD oracle itself


def test_finite_difference_quadratic():
    grad = gradcheck.finite_difference(
        lambda x: float(x @ x), np.array([1.0, 2.0]), epsilon=1e-5
    )
    np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-9)


def test_finite_difference_linear_is_exact():
    c = np.array([3.0, -0.5, 2.0])
    grad = gradcheck.finite_difference(lambda x: float(c @ x), np.zeros(3), 1e-5)
    np.testing.assert_allclose(grad, c, atol=1e-10)


def test_finite_difference_rejects_bad_epsilon():
    with pytest.raises(Exception):
        gradcheck.finite_difference(lambda x: 0.0, np.zeros(2), epsilon=0.0)
    ctx = small_context(2, "projection")
    with pytest.raises(OutOfRange):
        gradcheck.fd_gradient(ctx, ctx.params0, epsilon=0.0)


# ---------------------------------------------------------------------------
# angle-form solver equals the SVD solver


def test_angle_solver_matches_svd_solver():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = rng.integers(3, 12)
        p = rng.normal(scale=5.0, size=(n, 2))
        truth = SimilarityTransform2D(
            float(rng.uniform(0.2, 5.0)),
            float(rng.uniform(-np.pi, np.pi)),
            rng.normal(scale=10.0, size=2),
        )
        q = truth.apply(p) + rng.normal(scale=1.0, size=(n, 2))
        w = rng.uniform(0.05, 1.0, size=n)
        svd_est = solve_similarity(p, q, w)
        internals = gradcheck._align(p, q, w)
        assert abs(wrap_angle(internals.theta - svd_est.theta)) < 1e-12
        assert abs(internals.scale - svd_est.scale) < 1e-12 * svd_est.scale


def test_pose_weight_gradients_match_fd_of_svd_route():
    """The chain-rule weight gradients (angle route) must differentiate the
    production SVD solver: a scalar probe of (theta, scale, t) is compared
    against central differences through solve_similarity."""
    rng = np.random.default_rng(1)
    coeffs = (0.7, -0.3, np.array([0.4, -1.1]))
    for trial in range(5):
        n = 8
        p = rng.normal(scale=4.0, size=(n, 2))
        q = rng.normal(scale=4.0, size=(n, 2))
        w = rng.uniform(0.2, 1.0, size=n)

        def probe(weights):
            est = solve_similarity(p, q, weights)
            # unwrapped angle: instances stay away from the +-pi seam
            return float(
                coeffs[0] * est.theta + coeffs[1] * est.scale + coeffs[2] @ est.t
            )

        analytic = gradcheck.pose_weight_gradients(
            p, q, w, coeffs[0], coeffs[1], coeffs[2]
        )
        fd = gradcheck.finite_difference(probe, w, 1e-6)
        np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-8)


def test_pose_weight_gradients_scale_inversely_with_weights():
    rng = np.random.default_rng(2)
    p = rng.normal(size=(6, 2))
    q = rng.normal(size=(6, 2))
    w = rng.uniform(0.5, 1.5, size=6)
    g1 = gradcheck.pose_weight_gradients(p, q, w, 1.0, 0.5, np.array([1.0, -1.0]))
    g2 = gradcheck.pose_weight_gradients(p, q, 2 * w, 1.0, 0.5, np.array([1.0, -1.0]))
    # the solved pose is weight-scale invariant, so the gradient halves
    np.testing.assert_allclose(g2, g1 / 2.0, rtol=1e-12)


def test_vce_partials_equal_rotation_closed_form():
    """With equal rotations every virtual point shares one offset, so the
    translation gradient is minus the unit offset direction."""
    truth = SimilarityTransform2D(1.0, 0.3, np.array([3.0, 4.0]))
    t_est = np.array([0.0, 0.0])
    points = virtual_point_grid(5, 4.0)
    vce, d_theta, d_t = vce_partials(0.3, t_est, truth, points)
    np.testing.assert_allclose(d_t, -np.array([3.0, 4.0]) / 5.0, atol=1e-12)

    est = SimilarityTransform2D(1.0, 0.3, t_est)
    assert vce == vce_loss(est, truth, points)
    fd = gradcheck.finite_difference(
        lambda t: vce_loss(dataclasses.replace(est, t=t), truth, points), t_est, 1e-6
    )
    np.testing.assert_allclose(d_t, fd, atol=1e-8)


def test_vce_partials_theta_matches_fd():
    truth = SimilarityTransform2D(1.0, -0.4, np.array([1.0, -2.0]))
    points = virtual_point_grid(6, 5.0)
    t_est = np.array([0.5, 0.5])
    _, d_theta, _ = vce_partials(0.2, t_est, truth, points)
    fd = gradcheck.finite_difference(
        lambda th: vce_loss(
            SimilarityTransform2D(1.0, float(th[0]), t_est), truth, points
        ),
        np.array([0.2]),
        1e-6,
    )
    assert abs(d_theta - fd[0]) < 1e-8


# ---------------------------------------------------------------------------
# full-chain agreement


def test_forward_deterministic_and_twin_consistent():
    ctx = small_context(0, "score")
    f1 = gradcheck.forward(ctx, ctx.params0)
    f2 = gradcheck.forward(ctx, ctx.params0)
    assert f1 == f2
    twin = float(gradcheck.forward_value(ctx, ctx.params0, np.float64))
    assert abs(f1 - twin) < 1e-11 * max(1.0, abs(f1))


def test_beta_zero_reduces_to_pose_loss():
    ctx = small_context(1, "score", beta=0.0)
    scene = generate(SceneConfig(seed=1, **SMALL_SCENE))
    corr = build_correspondences(
        scene.aerial, scene.ground, scene.depth, scene.rays, SMALL_PIPE
    )
    est = solve_similarity(corr.ground_planar, corr.aerial_metric, corr.weights)
    expected = vce_loss(est, scene.truth, ctx.virtual_points)
    assert abs(gradcheck.forward(ctx, ctx.params0) - expected) < 1e-12


def test_check_passes_across_modes_and_seeds():
    for seed, mode in [(0, "score"), (1, "features"), (2, "projection"),
                       (3, "projection"), (4, "features"), (5, "score")]:
        rep = gradcheck.check(small_context(seed, mode))
        assert rep.passed, f"seed {seed} mode {mode}: rel {rep.max_rel_err:.2e}"
        assert rep.max_rel_err < 1e-4


def test_check_passes_away_from_initial_params():
    ctx = small_context(6, "projection")
    rng = np.random.default_rng(0)
    params = ctx.params0 + rng.normal(scale=1e-2, size=ctx.params0.shape)
    rep = gradcheck.check(ctx, params)
    assert rep.passed


def test_masked_column_gradients_are_exactly_zero():
    ctx = small_context(7, "score")
    assert not ctx.valid.all()  # scene must actually have masked cells
    grad = gradcheck.backward(ctx, ctx.params0)
    entries = grad[:-1].reshape(ctx.n_aerial, ctx.n_ground)
    assert (entries[:, ~ctx.valid] == 0.0).all()
    fd = gradcheck.finite_difference(
        lambda p: gradcheck.forward_value(ctx, p),
        np.asarray(ctx.params0, np.longdouble),
        1e-5,
    ).astype(float)
    assert (fd[:-1].reshape(ctx.n_aerial, ctx.n_ground)[:, ~ctx.valid] == 0.0).all()
    batched = gradcheck.fd_gradient(ctx, ctx.params0)
    masked = batched[:-1].reshape(ctx.n_aerial, ctx.n_ground)[:, ~ctx.valid]
    assert (masked == 0.0).all()


# one context per leaf mode; every parameter count leaves a partial last
# FD block (1569, 649 and 65 leaves against blocks of FD_BLOCK)
LEAF_CONTEXTS = [(0, "score"), (1, "features"), (2, "projection")]


@pytest.mark.parametrize("seed, mode", LEAF_CONTEXTS)
def test_batched_rows_equal_single_vector_calls(seed, mode):
    """A (K, P) stack gives (K,) values, each the single-vector value up to
    a few long-double roundings (batched reductions may associate
    differently)."""
    ctx = small_context(seed, mode)
    rng = np.random.default_rng(seed)
    rows = ctx.params0 + rng.normal(scale=1e-2, size=(5,) + ctx.params0.shape)
    batched = gradcheck.forward_value(ctx, rows)
    assert batched.shape == (5,)
    single = np.array([gradcheck.forward_value(ctx, row) for row in rows])
    np.testing.assert_allclose(
        batched, single, rtol=64 * np.finfo(np.longdouble).eps, atol=0.0
    )


@pytest.mark.parametrize("seed, mode", LEAF_CONTEXTS)
def test_batched_fd_matches_scalar_reference(seed, mode):
    ctx = small_context(seed, mode)
    reference = gradcheck.finite_difference(
        lambda p: gradcheck.forward_value(ctx, p), ctx.params0, 1e-5
    )
    batched = gradcheck.fd_gradient(ctx, ctx.params0, 1e-5)
    np.testing.assert_allclose(batched, reference, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize(
    "seed, mode, beta",
    [(0, "score", 0.1), (1, "features", 0.1), (2, "projection", 0.1), (3, "projection", 0.0)],
)
def test_value_and_grad_equals_forward_and_passes_check(seed, mode, beta):
    """The loss is the oracle's chain run in float64, bit for bit (also away
    from ``params0``), and agrees with the independent SVD route."""
    ctx = small_context(seed, mode, beta=beta)
    loss, grad = gradcheck.value_and_grad(ctx, ctx.params0)
    assert loss == gradcheck.forward_value(ctx, ctx.params0, np.float64)
    away = ctx.params0 + np.random.default_rng(seed).normal(scale=1e-2, size=grad.shape)
    assert gradcheck.value_and_grad(ctx, away)[0] == gradcheck.forward_value(ctx, away, np.float64)
    f = gradcheck.forward(ctx, ctx.params0)
    assert abs(loss - f) < 1e-12 * max(1.0, abs(f))
    np.testing.assert_array_equal(grad, gradcheck.backward(ctx, ctx.params0))
    rep = gradcheck.check(ctx)
    assert rep.passed, f"rel {rep.max_rel_err:.2e}"


@pytest.mark.parametrize("beta", [0.0, 0.7])
@pytest.mark.parametrize("seed, mode", LEAF_CONTEXTS)
def test_value_and_grad_at_params0_reuses_the_recorded_stage(seed, mode, beta, monkeypatch):
    """At ``ctx.params0`` the chain's stage one is the one build_context
    recorded; a copy of ``params0`` recomputes it, to the same bits."""
    ctx = small_context(seed, mode, beta=beta)
    loss, grad = gradcheck.value_and_grad(ctx, ctx.params0.copy())
    stage_one = gradcheck._stage_one
    calls = []
    monkeypatch.setattr(
        gradcheck, "_stage_one", lambda *args: calls.append(args) or stage_one(*args)
    )
    reused = gradcheck.value_and_grad(ctx)
    assert calls == []
    assert reused[0] == loss
    np.testing.assert_array_equal(reused[1], grad)


def inference_route(scene, pipe, params0=None):
    """The selection as the inference path makes it: build_correspondences
    on the grids projected through ``params0``'s matrix, with its dustbin
    score (on the grids as rendered when ``params0`` is None)."""
    aerial, ground = scene.aerial, scene.ground
    if params0 is not None:
        dim = aerial.dim
        matrix = params0[:-1].reshape(dim, dim)
        aerial = FeatureGrid(aerial.data @ matrix.T, "aerial", aerial.meta)
        ground = FeatureGrid(ground.data @ matrix.T, "ground", ground.meta)
        pipe = dataclasses.replace(pipe, dustbin_z=float(params0[-1]))
    return build_correspondences(aerial, ground, scene.depth, scene.rays, pipe)


def test_selection_is_the_inference_paths_top_n():
    """build_context selects from the chain's own stage one and gets the
    pairs build_correspondences gets: on gate 05's 50 scenes as rendered,
    and at jittered projection weights on metric and relative-depth
    scenes, where the contrastive target scale is the solver's estimate
    on those pairs."""
    modes = ("score", "features", "projection")
    dim = SMALL_SCENE["feature_dim"]
    rng = np.random.default_rng(0)
    for seed in range(50):
        for kind in ("metric", "relative"):
            scene = generate(SceneConfig(
                seed=seed, depth_kind=kind, scale_bounds=(0.8, 1.25), **SMALL_SCENE
            ))
            params0 = np.append(np.eye(dim) + 0.2 * rng.standard_normal((dim, dim)),
                                rng.normal())
            contexts = [(gradcheck.build_context(scene, SMALL_PIPE, "projection",
                                                 params0=params0), params0)]
            if kind == "metric":
                contexts.append((gradcheck.build_context(scene, SMALL_PIPE, modes[seed % 3]),
                                 None))
            for ctx, leaves in contexts:
                corr = inference_route(scene, SMALL_PIPE, leaves)
                np.testing.assert_array_equal(ctx.aerial_flat, corr.matches.aerial)
                np.testing.assert_array_equal(ctx.ground_flat, corr.matches.ground)
                np.testing.assert_array_equal(ctx.ground_planar, corr.ground_planar)
                np.testing.assert_array_equal(ctx.aerial_metric, corr.aerial_metric)
                if kind == "relative":
                    est = solve_similarity(corr.ground_planar, corr.aerial_metric, corr.weights)
                    assert ctx.target_scale == est.scale


def test_build_context_rejects_a_params0_of_another_layout():
    scene = generate(SceneConfig(seed=0, **SMALL_SCENE))
    with pytest.raises(OutOfRange, match="65 projection leaves"):
        gradcheck.build_context(scene, SMALL_PIPE, "projection", params0=np.zeros(64))


def _softmax(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def masked_chain_gradient(ctx, params):
    """Reference score-leaf gradient through the full masked matrix: every
    ground column scored, masked ones at MASK_SCORE, the dual-softmax VJP
    over the whole augmented matrix and the contrastive terms one at a time."""
    full = ScoreMatrix(
        params[:-1].reshape(ctx.n_aerial, ctx.n_ground),
        ctx.tau,
        ctx.aerial_shape,
        ctx.ground_shape,
    )
    scores = mask_ground_columns(full, ctx.valid).scores
    ext = augment_dustbin(scores, params[-1])
    ra, cb = row_softmax(ext), col_softmax(ext)
    pairs = (ctx.aerial_flat, ctx.ground_flat)
    w = (ra * cb)[pairs]
    s = gradcheck._align(ctx.ground_planar, ctx.aerial_metric, w)
    t = (s.t_x, s.t_y)
    _, d_theta, d_t = vce_partials(s.theta, t, ctx.truth, ctx.virtual_points)
    d_probs = np.zeros_like(ext)
    d_probs[pairs] = gradcheck.pose_weight_gradients(
        ctx.ground_planar, ctx.aerial_metric, w, d_theta, 0.0, d_t
    )
    d_row = ra * (d_probs * cb - (ra * d_probs * cb).sum(axis=1, keepdims=True))
    d_col = cb * (d_probs * ra - (cb * d_probs * ra).sum(axis=0, keepdims=True))
    d_ext = d_row + d_col
    d_scores = d_ext[:-1, :-1]
    coef = ctx.beta / 2.0
    for n, target in zip(ctx.g2s_pairs, ctx.g2s_targets):
        col = ctx.ground_flat[n]
        g = _softmax(scores[:, col])
        g[target] -= 1.0
        d_scores[:, col] += coef / len(ctx.g2s_pairs) * g
    for n, row in enumerate(ctx.aerial_flat):
        cand = np.flatnonzero(ctx.s2g_keep[n])
        g = _softmax(scores[row, ctx.ground_flat[cand]])
        g[np.searchsorted(cand, ctx.s2g_pos[n])] -= 1.0
        np.add.at(d_scores[row], ctx.ground_flat[cand], coef / len(ctx.aerial_flat) * g)
    d_z = d_ext[-1, :].sum() + d_ext[:-1, -1].sum()
    return np.append(d_scores.ravel(), d_z)


@given(
    seed=st.integers(0, 5),
    mask_bits=st.integers(1, 2**32 - 1),
    pick=st.integers(0, 2**16),
)
@example(seed=0, mask_bits=2**32 - 1, pick=0)  # every column valid
@example(seed=1, mask_bits=1 << 5, pick=1)  # a single valid column
def test_compacted_gradient_equals_masked_chain(seed, mask_bits, pick):
    """On any valid-column mask, with the selected pairs moved onto distinct
    entries of the valid columns, the compacted gradient equals the masked
    full-matrix chain and is exactly 0 on masked columns."""
    base = small_context(seed, "score")
    valid = (mask_bits >> np.arange(base.n_ground)) & 1 == 1
    cols = np.flatnonzero(valid)
    rng = np.random.default_rng(pick)
    n_pairs = len(base.aerial_flat)
    entries = rng.choice(base.n_aerial * len(cols), size=n_pairs, replace=False)
    aerial_flat, sel = np.divmod(entries, len(cols))
    ctx = dataclasses.replace(
        base, valid=valid, aerial_flat=aerial_flat, ground_flat=cols[sel]
    )
    params = ctx.params0 + rng.normal(scale=0.1, size=ctx.params0.shape)
    grad = gradcheck.backward(ctx, params)
    reference = masked_chain_gradient(ctx, params)
    scale = max(1.0, np.abs(reference).max())
    np.testing.assert_allclose(grad, reference, rtol=0.0, atol=1e-12 * scale)
    entries = grad[:-1].reshape(ctx.n_aerial, ctx.n_ground)
    assert (entries[:, ~valid] == 0.0).all()


def test_uniform_shift_direction_has_zero_derivative():
    """Adding one constant to every score and the dustbin leaves the whole
    loss unchanged, so the gradient must sum to zero."""
    ctx = small_context(8, "score")
    f0 = gradcheck.forward(ctx, ctx.params0)
    shifted = gradcheck.forward(ctx, ctx.params0 + 0.37)
    assert abs(shifted - f0) < 1e-9
    grad = gradcheck.backward(ctx, ctx.params0)
    assert abs(grad.sum()) < 1e-10


def test_gradient_vanishes_at_constructed_minimum():
    """When the supervision pose is exactly the solved pose, the pose loss
    sits at the bottom of its cone and the whole gradient vanishes."""
    ctx = small_context(9, "score", beta=0.0)
    sel = gradcheck._valid_columns(ctx)[1]
    s = gradcheck._loss(ctx, ctx.stage0, sel, np.float64).align
    t_est = np.array([s.t_x, s.t_y])
    fitted = SimilarityTransform2D(1.0, float(s.theta), t_est)
    at_min = dataclasses.replace(ctx, truth=fitted)
    grad = gradcheck.backward(at_min, at_min.params0)
    assert np.linalg.norm(grad) < 1e-6


def test_noiseless_scene_sits_at_neighborhood_floor():
    """Scores consistent with exact geometry put the loss at (essentially)
    zero; random perturbations of the leaves never go meaningfully below."""
    scene = generate(SceneConfig(seed=3))
    cfg = PipelineConfig(
        num_correspondences=8, lift=LiftConfig(initial_scale=scene.scale_gt)
    )
    ctx = gradcheck.build_context(scene, cfg, mode="score", beta=0.0)
    f0 = gradcheck.forward(ctx, ctx.params0)
    assert f0 < 1e-9
    rng = np.random.default_rng(0)
    for _ in range(100):
        params = ctx.params0 + rng.normal(scale=0.05, size=ctx.params0.shape)
        assert gradcheck.forward(ctx, params) >= f0 - 1e-9


# ---------------------------------------------------------------------------
# failure surfacing


def test_corrupted_gradient_fails_comparison():
    ctx = small_context(10, "projection")
    analytic = gradcheck.backward(ctx, ctx.params0)
    fd = gradcheck.finite_difference(
        lambda p: gradcheck.forward_value(ctx, p),
        np.asarray(ctx.params0, np.longdouble),
        1e-5,
    ).astype(float)
    _, _, ok = gradcheck.compare_gradients(analytic, fd)
    assert ok
    corrupted = analytic.copy()
    worst = int(np.argmax(np.abs(corrupted)))
    corrupted[worst] = -corrupted[worst]
    _, rel, ok = gradcheck.compare_gradients(corrupted, fd)
    assert not ok
    assert rel > 1.0


@pytest.mark.filterwarnings("error")
def test_degenerate_configuration_surfaces_in_report():
    ctx = small_context(11, "score")
    collapsed = dataclasses.replace(
        ctx, ground_planar=np.zeros_like(ctx.ground_planar)
    )
    with pytest.raises(DegenerateConfiguration):
        gradcheck.backward(collapsed, collapsed.params0)
    report = gradcheck.check(collapsed)
    assert not report.passed
    assert "DegenerateConfiguration" in report.error
    # infinite errors serialize as null: JSON has no Infinity
    d = report.to_dict()
    assert d["max_abs_err"] is None and d["max_rel_err"] is None


@pytest.mark.filterwarnings("error")
def test_missing_contrastive_targets_surface_in_report():
    """With no ground-to-aerial target in coverage the contrastive loss is
    undefined: the fused pass raises, as ``forward`` does, and ``check``
    reports it."""
    ctx = small_context(2, "projection")
    bare = dataclasses.replace(
        ctx, g2s_pairs=ctx.g2s_pairs[:0], g2s_targets=ctx.g2s_targets[:0]
    )
    with pytest.raises(NoValidTargets):
        gradcheck.value_and_grad(bare, bare.params0)
    report = gradcheck.check(bare)
    assert not report.passed
    assert "NoValidTargets" in report.error


@pytest.mark.filterwarnings("error")
def test_boundary_tie_raises_non_differentiable():
    ctx = small_context(0, "score")
    flat_params = np.zeros_like(ctx.params0)  # all probabilities equal
    with pytest.raises(NonDifferentiablePoint):
        gradcheck.backward(ctx, flat_params)
    report = gradcheck.check(ctx, flat_params)
    assert not report.passed
    assert "NonDifferentiablePoint" in report.error
    # with every valid entry selected, the masked columns' entries (exactly
    # 0) are the only unselected ones: a selected entry at 0 ties with them
    col = ctx.ground_flat[0]
    every = dataclasses.replace(
        ctx,
        valid=np.arange(ctx.n_ground) == col,
        aerial_flat=np.arange(ctx.n_aerial),
        ground_flat=np.full(ctx.n_aerial, col),
    )
    params = ctx.params0.copy()
    params[col] = -1.0e9  # entry (0, col)
    with pytest.raises(NonDifferentiablePoint):
        gradcheck.backward(every, params)


def test_report_serializes():
    rep = gradcheck.check(small_context(2, "projection"))
    d = rep.to_dict()
    assert d["passed"] is True
    assert set(d) == {"mode", "n_params", "max_abs_err", "max_rel_err", "passed", "error"}
