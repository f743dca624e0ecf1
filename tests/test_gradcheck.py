"""Tests for the analytic-gradient machinery.

Oracles come first: a generic central-difference routine is verified on
functions with known derivatives, the closed-form angle solver is checked
against the SVD solver, and only then is the full chain's backward pass
held to the FD oracle.
"""

import dataclasses
import math

import numpy as np
import pytest

from crossloc import gradcheck
from crossloc.errors import DegenerateConfiguration, NonDifferentiablePoint, OutOfRange
from crossloc.estimator import PipelineConfig, build_correspondences
from crossloc.geometry import SimilarityTransform2D, solve_similarity, wrap_angle
from crossloc.lifting import LiftConfig
from crossloc.losses import vce_loss, virtual_point_grid
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
        internals = gradcheck._solver_internals(p, q, w)
        assert abs(wrap_angle(internals["theta"] - svd_est.theta)) < 1e-12
        assert abs(internals["scale"] - svd_est.scale) < 1e-12 * svd_est.scale


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
    d_theta, d_t = gradcheck._vce_partials(0.3, t_est, truth, points)
    np.testing.assert_allclose(d_t, -np.array([3.0, 4.0]) / 5.0, atol=1e-12)

    est = SimilarityTransform2D(1.0, 0.3, t_est)
    fd = gradcheck.finite_difference(
        lambda t: vce_loss(dataclasses.replace(est, t=t), truth, points), t_est, 1e-6
    )
    np.testing.assert_allclose(d_t, fd, atol=1e-8)


def test_vce_partials_theta_matches_fd():
    truth = SimilarityTransform2D(1.0, -0.4, np.array([1.0, -2.0]))
    points = virtual_point_grid(6, 5.0)
    t_est = np.array([0.5, 0.5])
    d_theta, _ = gradcheck._vce_partials(0.2, t_est, truth, points)
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
    scores, z = gradcheck._unpack(ctx, ctx.params0)
    masked = gradcheck._masked_matrix(ctx, scores)
    probs = gradcheck.drop_dustbin(
        gradcheck.dual_softmax(gradcheck.augment_dustbin(masked.scores, z))
    )
    w = gradcheck._selected_weights(ctx, probs)
    s = gradcheck._solver_internals(ctx.ground_planar, ctx.aerial_metric, w)
    rot = np.array(
        [[math.cos(s["theta"]), -math.sin(s["theta"])],
         [math.sin(s["theta"]), math.cos(s["theta"])]]
    )
    t_est = s["q_bar"] - s["scale"] * (rot @ s["p_bar"])
    fitted = SimilarityTransform2D(1.0, s["theta"], t_est)
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


def test_boundary_tie_raises_non_differentiable():
    ctx = small_context(0, "score")
    flat_params = np.zeros_like(ctx.params0)  # all probabilities equal
    with pytest.raises(NonDifferentiablePoint):
        gradcheck.backward(ctx, flat_params)
    report = gradcheck.check(ctx, flat_params)
    assert not report.passed
    assert "NonDifferentiablePoint" in report.error


def test_report_serializes():
    rep = gradcheck.check(small_context(2, "projection"))
    d = rep.to_dict()
    assert d["passed"] is True
    assert set(d) == {"mode", "n_params", "max_abs_err", "max_rel_err", "passed", "error"}
