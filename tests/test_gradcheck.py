"""Tests for the analytic-gradient machinery.

Oracles come first: a generic central-difference routine is verified on
functions with known derivatives, the chain's closed-form angle solver is
checked against the production solver (``solve_similarity``), and only
then is the full chain's backward pass
held to the FD oracle.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from crossloc import gradcheck, matching, trainer
from crossloc.errors import DegenerateConfiguration, NonDifferentiablePoint
from crossloc.errors import NoValidTargets, OutOfRange
from crossloc.estimator import PipelineConfig, build_correspondences
from crossloc.geometry import (
    SimilarityTransform2D,
    apply_transform,
    solve_similarity,
    wrap_angle,
)
from crossloc.lifting import LiftConfig, aerial_cells_to_metric, lift_ground_cells
from crossloc.losses import virtual_point_grid
from crossloc.matching import (
    FeatureGrid,
    augment_dustbin,
    col_softmax,
    row_softmax,
)
from crossloc.simulator import SceneConfig, generate
from oracles import (
    add_at_value_and_grad,
    finite_difference,
    forward,
    mask_ground_columns,
    pose_weight_gradients,
    reference_fd_gradient,
    vce_loss,
)

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
    grad = finite_difference(
        lambda x: float(x @ x), np.array([1.0, 2.0]), epsilon=1e-5
    )
    np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-9)


def test_finite_difference_linear_is_exact():
    c = np.array([3.0, -0.5, 2.0])
    grad = finite_difference(lambda x: float(c @ x), np.zeros(3), 1e-5)
    np.testing.assert_allclose(grad, c, atol=1e-10)


def test_finite_difference_rejects_bad_epsilon():
    with pytest.raises(Exception):
        finite_difference(lambda x: 0.0, np.zeros(2), epsilon=0.0)
    ctx = small_context(2, "projection")
    with pytest.raises(OutOfRange):
        gradcheck.fd_gradient(ctx, ctx.params0, epsilon=0.0)


@pytest.mark.parametrize("epsilon", [np.nan, np.inf, -np.inf, -1e-5])
def test_fd_rejects_a_non_finite_or_negative_epsilon_before_evaluating(epsilon):
    def never(x):
        pytest.fail("the oracle evaluated the function")

    with pytest.raises(OutOfRange):
        finite_difference(never, np.zeros(2), epsilon)
    ctx = small_context(2, "projection")
    with pytest.raises(OutOfRange):
        gradcheck.fd_gradient(ctx, ctx.params0, epsilon)


# ---------------------------------------------------------------------------
# the chain's angle-form alignment equals the production solver


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
        q = apply_transform(truth, p) + rng.normal(scale=1.0, size=(n, 2))
        w = rng.uniform(0.05, 1.0, size=n)
        est = solve_similarity(p, q, w)
        internals = gradcheck._align(p, q, w)
        assert abs(wrap_angle(internals.theta - est.theta)) < 1e-12
        assert abs(internals.scale - est.scale) < 1e-12 * est.scale


def test_pose_weight_gradients_match_fd_of_svd_route():
    """The chain-rule weight gradients (angle route) must differentiate the
    production solver: a scalar probe of (theta, scale, t) is compared
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

        analytic = pose_weight_gradients(
            p, q, w, coeffs[0], coeffs[1], coeffs[2]
        )
        fd = finite_difference(probe, w, 1e-6)
        np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-8)


def test_pose_weight_gradients_scale_inversely_with_weights():
    rng = np.random.default_rng(2)
    p = rng.normal(size=(6, 2))
    q = rng.normal(size=(6, 2))
    w = rng.uniform(0.5, 1.5, size=6)
    g1 = pose_weight_gradients(p, q, w, 1.0, 0.5, np.array([1.0, -1.0]))
    g2 = pose_weight_gradients(p, q, 2 * w, 1.0, 0.5, np.array([1.0, -1.0]))
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
    fd = finite_difference(
        lambda t: vce_loss(dataclasses.replace(est, t=t), truth, points), t_est, 1e-6
    )
    np.testing.assert_allclose(d_t, fd, atol=1e-8)


def test_vce_partials_theta_matches_fd():
    truth = SimilarityTransform2D(1.0, -0.4, np.array([1.0, -2.0]))
    points = virtual_point_grid(6, 5.0)
    t_est = np.array([0.5, 0.5])
    _, d_theta, _ = vce_partials(0.2, t_est, truth, points)
    fd = finite_difference(
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
    f1 = forward(ctx, ctx.params0)
    f2 = forward(ctx, ctx.params0)
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
    expected = vce_loss(est, scene.truth, gradcheck._VIRTUAL_POINTS)
    assert abs(forward(ctx, ctx.params0) - expected) < 1e-12


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
    fd = finite_difference(
        lambda p: gradcheck.forward_value(ctx, p),
        np.asarray(ctx.params0, np.longdouble),
        1e-5,
    ).astype(float)
    assert (fd[:-1].reshape(ctx.n_aerial, ctx.n_ground)[:, ~ctx.valid] == 0.0).all()
    batched = gradcheck.fd_gradient(ctx, ctx.params0)
    masked = batched[:-1].reshape(ctx.n_aerial, ctx.n_ground)[:, ~ctx.valid]
    assert (masked == 0.0).all()


# one context per leaf mode.  The FD oracle takes the score leaves and the
# valid cells' ground feature rows a column at a time, the aerial feature
# rows FD_ROWS at a time (49 rows: a partial last block), and the leaves
# that move every score in blocks of FD_BLOCK: the dustbin alone (one batch
# of two rows) or the projection plus the dustbin (65, a partial last block)
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
    reference = finite_difference(
        lambda p: gradcheck.forward_value(ctx, p), ctx.params0, 1e-5
    )
    batched = gradcheck.fd_gradient(ctx, ctx.params0, 1e-5)
    np.testing.assert_allclose(batched, reference, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("beta", [0.1, 0.0])
@pytest.mark.parametrize("kind", ["as-built", "lone-target", "one-column", "one-row"])
@pytest.mark.parametrize("seed, mode", LEAF_CONTEXTS)
def test_fd_gradient_equals_the_whole_chain_reference(seed, mode, kind, beta):
    """The per-column and per-row routes give the whole chain's FD vector
    to the byte, at ``params0`` and away from it, with the contrastive terms
    on and off: on the columns the selection reads and the valid columns it
    does not, on a column only one ground-to-aerial row reads, on the column
    of the only ground-to-aerial row (``lone-target``), with every pair on
    one column (``one-column``) and with every pair on one aerial row
    (``one-row``)."""
    ctx = small_context(seed, mode, beta=beta)
    if kind == "lone-target":
        ctx = dataclasses.replace(ctx, g2s_pairs=ctx.g2s_pairs[:1], g2s_targets=ctx.g2s_targets[:1])
    elif kind in ("one-column", "one-row"):
        ctx = forced_selection(ctx, kind)
    used = np.bincount(ctx.sel, minlength=len(ctx.cols))
    reads = np.bincount(ctx.sel[ctx.g2s_pairs], minlength=len(ctx.cols))
    if kind != "one-row":
        assert (used == 0).any()  # a valid column the selection does not read
    if kind == "as-built":
        assert (reads == 1).any()
    elif kind == "lone-target":
        assert reads.sum() == 1
    elif kind == "one-column":
        assert (used > 0).sum() == 1
    else:
        assert len(np.unique(ctx.aerial_flat)) == 1
    away = ctx.params0 + np.random.default_rng(seed).normal(scale=1e-3, size=ctx.params0.shape)
    for params in (ctx.params0, away):
        fd = gradcheck.fd_gradient(ctx, params)
        assert fd.tobytes() == reference_fd_gradient(ctx, params).tobytes()


@pytest.mark.parametrize("seed, mode", LEAF_CONTEXTS[:2])
def test_only_leaves_that_move_every_column_reach_forward_value(seed, mode, monkeypatch):
    """A score-mode or features-mode instance calls ``forward_value`` once,
    for the dustbin leaf's + and - rows."""
    ctx = small_context(seed, mode)
    whole_chain, calls = gradcheck.forward_value, []
    monkeypatch.setattr(
        gradcheck, "forward_value", lambda c, rows: calls.append(rows) or whole_chain(c, rows)
    )
    gradcheck.fd_gradient(ctx, ctx.params0)
    n = len(ctx.params0)
    assert len(calls) == 1 and calls[0].shape == (2, n)
    np.testing.assert_array_equal(np.flatnonzero((calls[0] != ctx.params0).any(axis=0)), [n - 1])


def spy_on_moved_maxima(monkeypatch):
    """The lines of the base's records whose max a line edit moved, so
    that the line was redone whole: ``(set, line, row)`` for an aerial row
    edit (``_swap``), ``(set, line)`` for a column edit (``_redo``), where
    ``set`` is ``"col"`` (line ``c``: selected column ``c``'s
    dustbin-augmented scores) or ``"g2s"`` (line ``t``: ground-to-aerial
    row ``t``'s logits)."""
    moved, records = set(), []
    make, swap, redo = gradcheck._records, gradcheck._swap, gradcheck._redo

    def which(rec):
        return "col" if rec is records[-1][4] else "g2s"

    def spy_swap(rec, at, new):
        m, e, t = swap(rec, at, new)
        for v, line in zip(*np.nonzero(m[..., 0] != rec.m[0, :, 0])):
            moved.add((which(rec), int(line), int(at[v])))
        return m, e, t

    def spy_redo(rec, line, new):
        m, e, t = redo(rec, line, new)
        moved.update((which(rec), int(line[v])) for v in np.flatnonzero(m[:, 0] != rec.m[0, line, 0]))
        return m, e, t

    monkeypatch.setattr(gradcheck, "_records", lambda c, b: records.append(make(c, b)) or records[-1])
    monkeypatch.setattr(gradcheck, "_swap", spy_swap)
    monkeypatch.setattr(gradcheck, "_redo", spy_redo)
    return moved


def assert_fd_is_the_whole_chains(ctx, seed):
    """``fd_gradient`` equals ``reference_fd_gradient`` to the byte, at
    ``params0`` and 1e-3 away from it."""
    away = ctx.params0 + np.random.default_rng(seed).normal(scale=1e-3, size=ctx.params0.shape)
    for params in (ctx.params0, away):
        fd = gradcheck.fd_gradient(ctx, params)
        assert fd.tobytes() == reference_fd_gradient(ctx, params).tobytes()


@pytest.mark.parametrize("beta", [0.1, 0.0])
@pytest.mark.parametrize("seed", [1, 4])
def test_a_row_holding_a_column_max_redoes_that_line(seed, beta, monkeypatch):
    """Perturbing an aerial row that holds a selected column's largest
    dustbin-augmented score (or a ground-to-aerial row's largest score)
    moves that max, so the line route redoes that whole line's shifted
    exponentials (in ``_swap``), and the FD vector is still the whole
    chain's to the byte, at ``params0`` and away from it."""
    ctx = small_context(seed, "features", beta=beta)
    scores, na = ctx.stage0.scores, ctx.n_aerial
    top = augment_dustbin(scores[:, ctx.unique_cols[0]], ctx.params0[-1]).argmax(axis=0)[:-1]
    holders = {("col", c, int(i)) for c, i in enumerate(top) if i < na}
    if beta != 0.0:
        g2s_top = scores[:, ctx.sel[ctx.g2s_pairs]].argmax(axis=0)
        holders |= {("g2s", t, int(i)) for t, i in enumerate(g2s_top)}
    assert any(h[0] == "col" for h in holders)  # an aerial row, not the dustbin, holds a column max
    moved = spy_on_moved_maxima(monkeypatch)
    gradcheck.fd_gradient(ctx, ctx.params0)
    assert holders <= moved
    assert_fd_is_the_whole_chains(ctx, seed)


@pytest.mark.parametrize("beta", [0.1, 0.0])
@pytest.mark.parametrize("seed", [0, 3])
def test_a_score_entry_holding_a_column_max_redoes_that_line(seed, beta, monkeypatch):
    """In score mode each vector moves one score entry of its column.  The
    entry that holds a selected column's largest dustbin-augmented score
    moves that max, so the column's line is redone whole (in ``_redo``),
    and the FD vector is still the whole chain's to the byte."""
    ctx = small_context(seed, "score", beta=beta)
    cols = ctx.unique_cols[0]
    top = augment_dustbin(ctx.stage0.scores[:, cols], ctx.params0[-1]).argmax(axis=0)[:-1]
    holders = {("col", c) for c, i in enumerate(top) if i < ctx.n_aerial}
    assert holders
    moved = spy_on_moved_maxima(monkeypatch)
    gradcheck.fd_gradient(ctx, ctx.params0)
    assert holders <= moved
    assert_fd_is_the_whole_chains(ctx, seed)


@pytest.mark.parametrize("seed, mode", [(1, "features"), (4, "features"), (0, "score")])
def test_a_line_reaching_an_s2g_row_recomputes_its_log_sum_exp(seed, mode, monkeypatch):
    """Every aerial-to-ground row is a selected pair's score row over the
    pairs' columns, so the aerial row holding its max is that pair's row.
    A vector whose line reaches such a row gets that row's log-sum-exp
    recomputed; every other vector takes the base's, and the FD vector is
    the whole chain's to the byte."""
    ctx = small_context(seed, mode, beta=0.1)
    af, sel = ctx.aerial_flat, ctx.sel
    calls, line_values, stage_two = [], gradcheck._line_values, gradcheck._stage_two
    monkeypatch.setattr(gradcheck, "_line_values", lambda c, b, r, axis, lines, new: calls.append(
        [axis, lines, new, b]) or line_values(c, b, r, axis, lines, new))
    monkeypatch.setattr(gradcheck, "_stage_two", lambda *a, **k: (
        "s2g_lse" in k and calls[-1].append(k["s2g_lse"])) or stage_two(*a, **k))
    gradcheck.fd_gradient(ctx, ctx.params0)
    base_lse = gradcheck._logsumexp(gradcheck._s2g_logits(ctx, calls[0][3].scores, sel))[0][0]
    moved = 0
    for axis, lines, new, base, lse in calls:
        if axis == -2:  # a whole aerial row moves every entry of its pairs' rows
            reach = np.isin(lines, af)
            assert (lse[reach] != base_lse).any(axis=1).all()
        else:  # a moved score in a pair's row and column (one a row may mask)
            reach = np.isin(lines, sel) & (new != base.scores[0][:, lines].T)[:, af].any(axis=1)
        assert (lse[~reach] == base_lse).all()
        moved += (lse[reach] != base_lse).any(axis=1).sum()
    assert moved > 0
    assert_fd_is_the_whole_chains(ctx, seed)


@pytest.mark.parametrize("beta", [0.1, 0.0])
@pytest.mark.parametrize("per_call", [1, 2, "chosen", "all"])
def test_fd_bytes_do_not_depend_on_the_block_size(per_call, beta, monkeypatch):
    """Features mode with 1, 2, the chosen number and all of the aerial
    feature rows per ``_line_values`` call (and as many ground rows): each
    FD vector is the whole chain's to the byte, at ``params0`` and away
    from it, because each perturbed vector forms only its own line."""
    ctx = small_context(1, "features", beta=beta)
    rows = {"chosen": gradcheck.FD_VECTORS // (2 * ctx.dim), "all": ctx.n_aerial}.get(per_call, per_call)
    monkeypatch.setattr(gradcheck, "FD_VECTORS", 2 * ctx.dim * rows)
    sizes, line_values = [], gradcheck._line_values
    monkeypatch.setattr(gradcheck, "_line_values", lambda c, b, r, axis, lines, new: sizes.append(
        (axis, len(np.unique(lines)))) or line_values(c, b, r, axis, lines, new))
    assert_fd_is_the_whole_chains(ctx, 1)
    assert max(n for axis, n in sizes if axis == -2) == rows


@pytest.mark.parametrize("seed, mode", LEAF_CONTEXTS)
def test_read_leaves_are_the_valid_columns_and_the_dustbin(seed, mode):
    """The oracle's read set, spelled out from the leaf layout: every score
    of a valid column (score mode), every aerial feature and each valid
    cell's ground feature row (features mode), every projection entry, and
    the dustbin.  It splits into one row per valid column of the leaves
    that write that column alone (its scores, or its cell's feature row),
    one row per aerial cell of the leaves that write that score row alone
    (its feature row, features mode only), and the ascending leaves that
    move every score."""
    ctx = small_context(seed, mode)
    na, ng, d = ctx.n_aerial, ctx.n_ground, ctx.dim
    if mode == "score":
        read = np.tile(ctx.valid, na)
        whole = np.zeros(na * ng, bool)
    elif mode == "features":
        read = np.concatenate([np.ones(na * d, bool), np.repeat(ctx.valid, d)])
        whole = np.zeros(len(read), bool)
    else:
        read = whole = np.ones(d * d, bool)
    expected = np.flatnonzero(np.append(read, True))
    columns, rows, moves_all = gradcheck._read_leaves(ctx)
    np.testing.assert_array_equal(np.union1d(np.union1d(columns, rows), moves_all), expected)
    np.testing.assert_array_equal(moves_all, np.flatnonzero(np.append(whole, True)))
    assert columns.shape[0] == len(ctx.cols)
    assert columns.size + rows.size + moves_all.size == expected.size
    for j, col in enumerate(ctx.cols):
        if mode == "score":
            np.testing.assert_array_equal(columns[j], np.arange(na) * ng + col)
        elif mode == "features":
            np.testing.assert_array_equal(columns[j], na * d + col * d + np.arange(d))
    if mode == "features":
        np.testing.assert_array_equal(rows, np.arange(na * d).reshape(na, d))
    else:
        assert rows.size == 0
    if mode == "projection":
        assert columns.size == 0 and len(expected) == len(ctx.params0)


@pytest.mark.parametrize("seed, mode", LEAF_CONTEXTS[:2])
def test_leaves_the_oracle_skips_never_move_the_loss(seed, mode):
    """Perturbing leaves outside the read set -- a sample one at a time by
    +-eps, and all of them at once by +-eps and by large amounts -- leaves
    ``forward_value`` bit-unchanged, so their exact +0.0 in ``fd_gradient``
    is the central difference the full oracle would take."""
    ctx = small_context(seed, mode)
    columns, rows, whole = gradcheck._read_leaves(ctx)
    skipped = np.setdiff1d(np.arange(len(ctx.params0)), np.union1d(np.union1d(columns, rows), whole))
    assert len(skipped) > 0  # the scene must have masked ground cells
    rng = np.random.default_rng(seed)
    base = gradcheck.forward_value(ctx, ctx.params0)
    sample = rng.choice(skipped, size=min(16, len(skipped)), replace=False)
    rows = np.tile(ctx.params0, (2 * len(sample) + 4, 1))
    rows[np.arange(len(sample)), sample] += 1e-5
    rows[np.arange(len(sample), 2 * len(sample)), sample] -= 1e-5
    for row, delta in zip(rows[-4:], (1e-5, -1e-5, 1e3, -1e6)):
        row[skipped] += delta * rng.uniform(0.5, 1.0, size=len(skipped))
    values = gradcheck.forward_value(ctx, rows)
    assert (values == gradcheck.forward_value(ctx, np.tile(ctx.params0, (len(rows), 1)))).all()
    for row in rows[-4:]:
        assert gradcheck.forward_value(ctx, row) == base
    fd = gradcheck.fd_gradient(ctx, ctx.params0)
    assert not np.signbit(fd[skipped]).any() and (fd[skipped] == 0.0).all()


@pytest.mark.parametrize(
    "seed, mode, beta",
    [(0, "score", 0.1), (1, "features", 0.1), (2, "projection", 0.1), (3, "projection", 0.0)],
)
def test_value_and_grad_equals_forward_and_passes_check(seed, mode, beta):
    """The loss is the oracle's chain run in float64, bit for bit (also away
    from ``params0``), and agrees with the independent ``forward`` route."""
    ctx = small_context(seed, mode, beta=beta)
    loss, grad = gradcheck.value_and_grad(ctx, ctx.params0)
    assert loss == gradcheck.forward_value(ctx, ctx.params0, np.float64)
    away = ctx.params0 + np.random.default_rng(seed).normal(scale=1e-2, size=grad.shape)
    assert gradcheck.value_and_grad(ctx, away)[0] == gradcheck.forward_value(ctx, away, np.float64)
    f = forward(ctx, ctx.params0)
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


@functools.lru_cache(maxsize=None)
def reference_training_scenes():
    """The reference run's 16 training scenes (its holdout left out)."""
    return trainer.reference_dataset()[: -trainer.REFERENCE_TRAIN.holdout]


@given(index=st.integers(0, 15), k=st.sampled_from([1, -5, 30]))
def test_projection_matrix_times_two_to_the_k_keeps_the_loss(index, k):
    """A projection matrix times 2^k scales every projected feature row by
    2^k, which normalises to the same unit row, so the frozen selection and
    the loss keep their bits; the matrix gradient, divided by the 2^k times
    larger norms, is exactly 2^-k times the unscaled one, and the dustbin
    entry keeps its bits.  On the reference run's training scenes at the
    identity plus 0.05 jitter."""
    scene, pipe = reference_training_scenes()[index], trainer.reference_pipeline()
    dim = scene.aerial.dim
    matrix = np.eye(dim) + 0.05 * np.random.default_rng(index).standard_normal((dim, dim))
    base, scaled = (
        gradcheck.build_context(scene, pipe, "projection", beta=0.7,
                                params0=np.append(matrix * factor, pipe.dustbin_z))
        for factor in (1.0, 2.0**k)
    )
    np.testing.assert_array_equal(scaled.aerial_flat, base.aerial_flat)
    np.testing.assert_array_equal(scaled.ground_flat, base.ground_flat)
    (loss, grad), (scaled_loss, scaled_grad) = map(gradcheck.value_and_grad, (base, scaled))
    assert scaled_loss == loss
    np.testing.assert_array_equal(scaled_grad[:-1], grad[:-1] * 2.0**-k)
    assert scaled_grad[-1] == grad[-1]


@pytest.mark.parametrize("seed, mode", LEAF_CONTEXTS)
def test_stage_one_takes_its_softmaxes_from_matching(seed, mode, monkeypatch):
    """Away from ``params0`` (and in the FD oracle's batched chain) stage one
    runs matching's own dustbin and softmax functions, once each per call,
    and the result is unchanged; gradcheck binds none of them itself."""
    ctx = small_context(seed, mode)
    away = ctx.params0 + np.random.default_rng(seed).normal(scale=1e-2, size=ctx.params0.shape)
    expected = gradcheck.value_and_grad(ctx, away)
    calls = dict.fromkeys(("augment_dustbin", "row_softmax", "col_softmax"), 0)
    for name in calls:
        fn = getattr(matching, name)
        assert not hasattr(gradcheck, name)

        def counting(*args, name=name, fn=fn):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(matching, name, counting)
    loss, grad = gradcheck.value_and_grad(ctx, away)
    # one dustbin-augmented copy for the row softmaxes, one for the columns
    assert calls == {"augment_dustbin": 2, "row_softmax": 1, "col_softmax": 1}
    assert loss == expected[0]
    np.testing.assert_array_equal(grad, expected[1])
    values = gradcheck.forward_value(ctx, np.stack([ctx.params0, away]))
    assert calls == {"augment_dustbin": 4, "row_softmax": 2, "col_softmax": 2}
    assert values.dtype == np.longdouble and values.shape == (2,)


def forced_selection(ctx, kind):
    """``ctx`` with its selected pairs as built, or moved onto a single
    distinct ground column (distinct aerial rows), or onto a single aerial
    row (the valid columns in turn)."""
    n, cols = len(ctx.aerial_flat), np.flatnonzero(ctx.valid)
    if kind == "one-column":
        return dataclasses.replace(ctx, aerial_flat=np.arange(n) * 3 % ctx.n_aerial,
                                   ground_flat=np.full(n, cols[-1]))
    if kind == "one-row":
        return dataclasses.replace(ctx, aerial_flat=np.full(n, ctx.aerial_flat[0]),
                                   ground_flat=cols[np.arange(n) % len(cols)])
    return ctx


@pytest.mark.parametrize("kind", ["as-built", "one-column", "one-row"])
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("seed, mode", LEAF_CONTEXTS + [(3, "score"), (4, "features")])
def test_sliced_stage_one_gives_the_whole_matrix_weights_bit_for_bit(seed, mode, dtype, kind):
    """Normalising only the selected pairs' rows and columns (plus the
    dustbin) gives the selected entries of the whole matrix's
    ``row_softmax(ext) * col_softmax(ext)`` to the bit, for one leaf vector
    and for a batch of FD-perturbed ones, so ``forward_value`` equals the
    whole-matrix chain exactly."""
    ctx = forced_selection(small_context(seed, mode), kind)
    sel = ctx.sel
    rows, r_at = np.unique(ctx.aerial_flat, return_inverse=True)
    cols, c_at = np.unique(sel, return_inverse=True)
    if kind != "as-built":
        assert len(rows if kind == "one-row" else cols) == 1
    batch = np.tile(ctx.params0, (8, 1))
    batch[np.arange(4), np.arange(4) * 7] += 1e-5
    batch[np.arange(4, 8), np.arange(4) * 7] -= 1e-5
    for params in (ctx.params0, batch):
        part = gradcheck._stage_one(ctx, params, dtype, rows, cols)
        ext = augment_dustbin(part.scores, params[..., -1].astype(dtype))
        whole = row_softmax(ext) * col_softmax(ext)
        w = part.ra[..., r_at, sel] * part.cb[..., ctx.aerial_flat, c_at]
        assert w.dtype == dtype
        # exact equality (long double's storage padding makes bytes unfit)
        np.testing.assert_array_equal(w, whole[..., ctx.aerial_flat, sel])
        full = gradcheck._loss(ctx, gradcheck._stage_one(ctx, params, dtype), sel, dtype)
        np.testing.assert_array_equal(gradcheck.forward_value(ctx, params, dtype), full.loss)


@pytest.mark.parametrize("seed, mode", LEAF_CONTEXTS)
def test_forward_value_normalises_only_the_selected_rows_and_columns(seed, mode, monkeypatch):
    """The oracle's softmaxes see the selected pairs' distinct aerial rows
    over every valid column, and the distinct selected columns over every
    aerial row, each with the dustbin score (which the softmax appends):
    never the whole matrix."""
    ctx = small_context(seed, mode)
    sel = ctx.sel
    rows, cols = np.unique(ctx.aerial_flat), np.unique(sel)
    n_valid = int(ctx.valid.sum())
    assert len(rows) < ctx.n_aerial and len(cols) < n_valid  # a proper slice
    params = np.tile(ctx.params0, (3, 1))
    scores = gradcheck._stage_one(ctx, params, np.longdouble).scores
    seen = {}
    for name in ("row_softmax", "col_softmax"):
        fn = getattr(matching, name)

        def recording(m, z, name=name, fn=fn):
            seen[name] = m, z
            return fn(m, z)

        monkeypatch.setattr(matching, name, recording)
    gradcheck.forward_value(ctx, params)
    assert seen["row_softmax"][0].shape == (3, len(rows), n_valid)
    assert (seen["row_softmax"][0] == scores[:, rows, :]).all()
    assert seen["col_softmax"][0].shape == (3, ctx.n_aerial, len(cols))
    assert (seen["col_softmax"][0] == scores[:, :, cols]).all()
    for name in seen:
        np.testing.assert_array_equal(seen[name][1], params[:, -1])


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
    on those pairs.  As rendered, both soft-assign the same scores, so the
    kept weights are the frozen probabilities bit for bit."""
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
                if leaves is None:
                    probs = ctx.stage0.ra[:-1, :-1] * ctx.stage0.cb[:-1, :-1]
                    kept = probs[ctx.aerial_flat, ctx.sel]
                    assert corr.weights.tobytes() == kept.tobytes()
                if kind == "relative":
                    est = solve_similarity(corr.ground_planar, corr.aerial_metric, corr.weights)
                    assert ctx.target_scale == est.scale


def test_build_context_rejects_a_params0_of_another_layout():
    scene = generate(SceneConfig(seed=0, **SMALL_SCENE))
    with pytest.raises(OutOfRange, match="65 projection leaves"):
        gradcheck.build_context(scene, SMALL_PIPE, "projection", params0=np.zeros(64))


def assert_same_stage(a, b):
    """Two ``_Stage`` records hold the same leaves and equal arrays."""
    assert a.params is not None and np.array_equal(a.params, b.params)
    for x, y in zip(a[1:], b[1:]):
        if isinstance(x, tuple):  # the unit rows and norms of both sides
            for u, v in zip(x, y):
                assert all(np.array_equal(p, q) for p, q in zip(u, v))
        else:
            assert (x is None and y is None) or np.array_equal(x, y)


@pytest.mark.parametrize("depth_kind", ["metric", "relative"])
@pytest.mark.parametrize("projection_mode", ["all", "topmost"])
@pytest.mark.parametrize("mode", ["score", "features", "projection"])
def test_a_prepared_scene_frozen_step_by_step_equals_fresh_contexts(mode, projection_mode,
                                                                   depth_kind):
    """One ``_prepare`` frozen at one leaf vector after another, as the
    trainer does step by step, gives field by field the context a fresh
    ``build_context`` makes at each; the prepared features are read-only
    views of the scene's arrays, nothing prepared is written, and the
    selected points are the bits of lifting and converting their cells."""
    scene = generate(SceneConfig(seed=5, depth_kind=depth_kind, scale_bounds=(0.8, 1.25),
                                 **SMALL_SCENE))
    lift = dataclasses.replace(SMALL_PIPE.lift, projection_mode=projection_mode)
    pipe = dataclasses.replace(SMALL_PIPE, num_correspondences=12, lift=lift)
    prep = gradcheck._prepare(scene, pipe, mode)
    assert np.shares_memory(prep.aerial_raw, scene.aerial.data)
    assert np.shares_memory(prep.ground_raw, scene.ground.data)
    assert not (prep.aerial_raw.flags.writeable or prep.ground_raw.flags.writeable)
    before = {k: v.copy() for k, v in vars(prep).items() if isinstance(v, np.ndarray)}
    rng = np.random.default_rng(0)
    base = gradcheck.build_context(scene, pipe, mode).params0
    leaves = [None] + [base + rng.normal(scale=0.05, size=base.shape) for _ in range(2)]
    for params0 in leaves:
        frozen = gradcheck._freeze(prep, 0.7, params0)
        fresh = gradcheck.build_context(scene, pipe, mode, beta=0.7, params0=params0)
        for field in dataclasses.fields(fresh):
            a, b = getattr(frozen, field.name), getattr(fresh, field.name)
            if field.name == "stage0":
                assert_same_stage(a, b)
            elif isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), field.name
            else:
                assert a == b, field.name
        np.testing.assert_array_equal(frozen.cols, fresh.cols)
        np.testing.assert_array_equal(frozen.sel, fresh.sel)
        if projection_mode == "all":
            assert len(frozen.aerial_flat) == 12
        cells = np.stack(np.divmod(frozen.ground_flat, scene.ground.cols), axis=1)
        points3 = lift_ground_cells(cells, scene.depth, scene.rays, lift.initial_scale)
        assert np.array_equal(frozen.ground_planar, points3[:, :2])
        cells = np.stack(np.divmod(frozen.aerial_flat, scene.aerial.cols), axis=1)
        shape = (scene.aerial.rows, scene.aerial.cols)
        metric = aerial_cells_to_metric(cells, scene.aerial.meta, shape)
        assert np.array_equal(frozen.aerial_metric, metric)
    for name, value in before.items():
        np.testing.assert_array_equal(getattr(prep, name), value)


def shared_selection(ctx):
    """``ctx`` with its pairs moved onto two aerial rows times half as many
    valid columns: distinct entries whose rows and columns all repeat."""
    n, cols = len(ctx.aerial_flat), np.flatnonzero(ctx.valid)
    rows = np.unique(ctx.aerial_flat)[:2]
    return dataclasses.replace(ctx, aerial_flat=np.repeat(rows, n // 2),
                               ground_flat=np.tile(cols[: n // 2], 2))


@pytest.mark.parametrize("kind", ["as-built", "shared"])
@pytest.mark.parametrize("seed, mode", LEAF_CONTEXTS + [(6, "projection"), (7, "score")])
def test_one_contrastive_scatter_equals_the_add_at_reference(seed, mode, kind):
    """Where the contrastive entries repeat -- pairs sharing aerial rows and
    ground columns, ground-to-aerial targets sharing a column -- the one
    ``np.bincount`` scatter and the reused stage-one values give the
    gradient of two dense ``np.add.at`` scatters over values formed afresh,
    to 1e-15 of its largest entry, and the same loss."""
    ctx = small_context(seed, mode, beta=0.7)
    if kind == "shared":
        ctx = shared_selection(ctx)
        sel, n = ctx.sel, len(ctx.sel)
        assert len(np.unique(ctx.aerial_flat)) == 2 and len(np.unique(sel)) == n // 2
        assert len(np.unique(sel[ctx.g2s_pairs])) < len(ctx.g2s_pairs)
        assert len(np.unique(ctx.aerial_flat * ctx.n_ground + ctx.ground_flat)) == n
    away = ctx.params0 + np.random.default_rng(seed).normal(scale=1e-2, size=ctx.params0.shape)
    for params in (ctx.params0, away):
        loss, grad = gradcheck.value_and_grad(ctx, params)
        ref_loss, ref = add_at_value_and_grad(ctx, params)
        assert loss == ref_loss
        np.testing.assert_allclose(grad, ref, rtol=0.0, atol=1e-15 * np.abs(ref).max())


def _softmax(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def masked_chain_gradient(ctx, params):
    """Reference score-leaf gradient through the full masked matrix: every
    ground column scored, masked ones at MASK_SCORE, the dual-softmax VJP
    over the whole augmented matrix and the contrastive terms one at a time."""
    full = params[:-1].reshape(ctx.n_aerial, ctx.n_ground)
    scores = mask_ground_columns(full, ctx.valid)
    ext = augment_dustbin(scores, params[-1])
    ra, cb = row_softmax(ext), col_softmax(ext)
    pairs = (ctx.aerial_flat, ctx.ground_flat)
    w = (ra * cb)[pairs]
    s = gradcheck._align(ctx.ground_planar, ctx.aerial_metric, w)
    t = (s.t_x, s.t_y)
    _, d_theta, d_t = vce_partials(s.theta, t, ctx.truth, gradcheck._VIRTUAL_POINTS)
    d_probs = np.zeros_like(ext)
    d_probs[pairs] = pose_weight_gradients(
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
    f0 = forward(ctx, ctx.params0)
    shifted = forward(ctx, ctx.params0 + 0.37)
    assert abs(shifted - f0) < 1e-9
    grad = gradcheck.backward(ctx, ctx.params0)
    assert abs(grad.sum()) < 1e-10


def test_gradient_vanishes_at_constructed_minimum():
    """When the supervision pose is exactly the solved pose, the pose loss
    sits at the bottom of its cone and the whole gradient vanishes."""
    ctx = small_context(9, "score", beta=0.0)
    sel = ctx.sel
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
    f0 = forward(ctx, ctx.params0)
    assert f0 < 1e-9
    rng = np.random.default_rng(0)
    for _ in range(100):
        params = ctx.params0 + rng.normal(scale=0.05, size=ctx.params0.shape)
        assert forward(ctx, params) >= f0 - 1e-9


# ---------------------------------------------------------------------------
# failure surfacing


def test_corrupted_gradient_fails_comparison():
    ctx = small_context(10, "projection")
    analytic = gradcheck.backward(ctx, ctx.params0)
    fd = finite_difference(
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
@pytest.mark.parametrize("seed, mode", LEAF_CONTEXTS)
def test_missing_contrastive_targets_surface_in_report(seed, mode):
    """With no ground-to-aerial target in coverage the contrastive loss is
    undefined: the fused pass and the FD oracle raise, as ``forward`` does,
    and ``check`` reports it."""
    ctx = small_context(seed, mode)
    bare = dataclasses.replace(
        ctx, g2s_pairs=ctx.g2s_pairs[:0], g2s_targets=ctx.g2s_targets[:0]
    )
    with pytest.raises(NoValidTargets):
        gradcheck.value_and_grad(bare, bare.params0)
    with pytest.raises(NoValidTargets):
        gradcheck.fd_gradient(bare, bare.params0)
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_leaf_is_out_of_range_naming_the_vector(bad, monkeypatch):
    """A non-finite leaf is rejected once per call, before anything is
    evaluated: ``fd_gradient``, ``value_and_grad``, ``backward`` and
    ``check`` raise OutOfRange naming ``params`` (not NaN gradients or a
    NaN report), and ``build_context`` one naming ``params0`` (not a
    misleading InsufficientMatches).  The FD oracle checks its leaf vector
    once, never each perturbed vector."""
    ctx = small_context(1, "features")
    params = ctx.params0.copy()
    params[3] = bad
    checked, float_leaves = [], gradcheck._float_leaves
    monkeypatch.setattr(gradcheck, "_float_leaves", lambda n, mode, p, name="params":
                        checked.append(name) or float_leaves(n, mode, p, name))
    for call in (gradcheck.fd_gradient, gradcheck.value_and_grad, gradcheck.backward,
                 gradcheck.check):
        with pytest.raises(OutOfRange) as info:
            call(ctx, params)
        assert info.value.field == "params"
        assert str(info.value).startswith(f"params must be finite, got {bad} at leaf 3 ")
    assert checked == ["params"] * 4
    checked.clear()
    gradcheck.fd_gradient(ctx, ctx.params0)
    assert checked == ["params"]
    scene = generate(SceneConfig(seed=1, **SMALL_SCENE))
    with pytest.raises(OutOfRange) as info:
        gradcheck.build_context(scene, SMALL_PIPE, mode="features", params0=params)
    assert info.value.field == "params0"


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-4])
def test_check_rejects_a_tol_that_is_not_finite_and_positive_first(tol, monkeypatch):
    """A NaN tol would fail every check and an infinite one pass every one:
    both, and any tol <= 0, are OutOfRange naming ``tol`` before a gradient
    is taken."""
    ctx = small_context(2, "projection")
    monkeypatch.setattr(gradcheck, "backward", lambda *args: pytest.fail("a gradient was taken"))
    with pytest.raises(OutOfRange) as info:
        gradcheck.check(ctx, tol=tol)
    assert info.value.field == "tol"


def test_report_serializes():
    rep = gradcheck.check(small_context(2, "projection"))
    d = rep.to_dict()
    assert d["passed"] is True
    assert set(d) == {"mode", "n_params", "max_abs_err", "max_rel_err", "passed", "error"}
