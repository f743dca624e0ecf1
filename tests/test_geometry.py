"""Tests for the weighted planar alignment solver.

Oracles used here are deliberately independent of the implementation:
loop-accumulated centroids/covariances, numpy's general SVD, explicit
forward generation of transforms, and brute-force searches over the
rotation angle.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crossloc.errors import DegenerateConfiguration, LengthMismatch, OutOfRange
from crossloc.estimator import count_inliers
from crossloc.geometry import (
    SimilarityTransform2D,
    apply_transform,
    rotation_matrix,
    solve_orthogonal,
    solve_similarity,
    wrap_angle,
)
from oracles import alignment_objective, inverse

EXACT = 1e-12
TIGHT = 1e-9


# --- oracles ----------------------------------------------------------------


def centroid_oracle(points, weights):
    acc = np.zeros(2)
    total = 0.0
    for p, w in zip(points, weights):
        acc += w * np.asarray(p, dtype=float)
        total += w
    return acc / total


def covariance_oracle(p_centered, q_centered, weights):
    acc = np.zeros((2, 2))
    for p, q, w in zip(p_centered, q_centered, weights):
        acc += w * np.outer(p, q)
    return acc


def random_instance(rng, n, scale_range=(0.2, 5.0), noise=0.0):
    """Generate a weighted pair set from a known ground-truth similarity."""
    s = rng.uniform(*scale_range)
    theta = rng.uniform(-math.pi, math.pi)
    t = rng.uniform(-20, 20, size=2)
    p = rng.normal(scale=5.0, size=(n, 2))
    q = s * (p @ rotation_matrix(theta).T) + t
    if noise:
        q = q + rng.normal(scale=noise, size=q.shape)
    w = rng.uniform(0.1, 2.0, size=n)
    return p, q, w, SimilarityTransform2D(s, wrap_angle(theta), t)


def best_for_angle(p, q, w, theta):
    """Closed-form optimal (s, t) for a fixed rotation angle."""
    r = rotation_matrix(theta)
    p_bar = centroid_oracle(p, w)
    q_bar = centroid_oracle(q, w)
    p_c, q_c = p - p_bar, q - q_bar
    num = float((w * ((p_c @ r.T) * q_c).sum(axis=1)).sum())
    den = float((w * (p_c**2).sum(axis=1)).sum())
    s = num / den
    t = q_bar - s * (r @ p_bar)
    return SimilarityTransform2D(s, theta, t)


# --- similarity solver ------------------------------------------------------


def test_solve_similarity_hand_case():
    p = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    q = p @ rotation_matrix(math.pi / 2).T
    est = solve_similarity(p, q, np.ones(3))
    assert est.theta == pytest.approx(math.pi / 2, abs=TIGHT)
    assert est.scale == pytest.approx(1.0, abs=TIGHT)
    assert np.allclose(est.t, 0.0, atol=TIGHT)


def test_solve_similarity_exact_recovery_sweep():
    rng = np.random.default_rng(4)
    for _ in range(300):
        n = int(rng.integers(2, 40))
        p, q, w, truth = random_instance(rng, n)
        est = solve_similarity(p, q, w)
        assert est.scale == pytest.approx(truth.scale, rel=TIGHT)
        assert abs(wrap_angle(est.theta - truth.theta)) < TIGHT
        assert np.allclose(est.t, truth.t, atol=1e-8)


def test_solve_similarity_two_point_minimum():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p, q, w, truth = random_instance(rng, 2)
        est = solve_similarity(p, q, w)
        assert est.scale == pytest.approx(truth.scale, rel=1e-8)
        assert abs(wrap_angle(est.theta - truth.theta)) < 1e-8


def test_solve_similarity_weight_rescale_invariance():
    rng = np.random.default_rng(6)
    p, q, w, _ = random_instance(rng, 25, noise=0.3)
    base = solve_similarity(p, q, w)
    for k in (1e-3, 7.0, 1e4):
        est = solve_similarity(p, q, k * w)
        assert est.scale == pytest.approx(base.scale, rel=TIGHT)
        assert est.theta == pytest.approx(base.theta, abs=TIGHT)
        assert np.allclose(est.t, base.t, atol=1e-8)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    log10_k=st.floats(-6.0, 6.0),
    data=st.data(),
)
def test_solve_similarity_invariant_to_pair_order_and_weight_scale(seed, n, log10_k, data):
    """Permuting the pairs, or scaling every weight by one positive factor,
    gives the same transform up to the rounding of reordered sums."""
    p, q, w, _ = random_instance(np.random.default_rng(seed), n, noise=0.5)
    order = np.array(data.draw(st.permutations(range(n))))
    base = solve_similarity(p, q, w)
    size = 1.0 + base.scale * np.abs(p).max() + np.abs(q).max()
    for est in (solve_similarity(p[order], q[order], w[order]),
                solve_similarity(p, q, 10.0**log10_k * w)):
        assert abs(est.scale - base.scale) <= TIGHT * base.scale
        assert abs(wrap_angle(est.theta - base.theta)) <= TIGHT
        assert np.abs(est.t - base.t).max() <= TIGHT * size


def test_solve_similarity_local_optimality():
    """Solution beats thousands of random perturbed transforms."""
    rng = np.random.default_rng(7)
    p, q, w, _ = random_instance(rng, 30, noise=0.5)
    est = solve_similarity(p, q, w)
    best = alignment_objective(est, p, q, w)
    for _ in range(10_000):
        cand = SimilarityTransform2D(
            est.scale * (1 + rng.normal() * 0.05),
            est.theta + rng.normal() * 0.05,
            est.t + rng.normal(size=2) * 0.1,
        )
        assert alignment_objective(cand, p, q, w) >= best - TIGHT


def test_solve_similarity_global_optimality_grid():
    """Solution is no worse than a dense sweep over the rotation angle with
    scale and translation solved in closed form per angle."""
    rng = np.random.default_rng(8)
    for _ in range(5):
        p, q, w, _ = random_instance(rng, 8, noise=1.0)
        est = solve_similarity(p, q, w)
        best = alignment_objective(est, p, q, w)
        for theta in np.arange(-math.pi, math.pi, 1e-3):
            cand = best_for_angle(p, q, w, theta)
            assert best <= alignment_objective(cand, p, q, w) + TIGHT


def test_solve_similarity_zero_weight_pairs_ignored():
    rng = np.random.default_rng(9)
    p, q, w, _ = random_instance(rng, 20)
    junk_p = rng.normal(size=(5, 2)) * 100
    junk_q = rng.normal(size=(5, 2)) * 100
    est_base = solve_similarity(p, q, w)
    est_aug = solve_similarity(
        np.vstack([p, junk_p]), np.vstack([q, junk_q]), np.concatenate([w, np.zeros(5)])
    )
    assert est_aug.scale == pytest.approx(est_base.scale, rel=TIGHT)
    assert est_aug.theta == pytest.approx(est_base.theta, abs=TIGHT)
    assert np.allclose(est_aug.t, est_base.t, atol=TIGHT)


def test_solve_similarity_degenerate_inputs():
    coincident = np.zeros((4, 2))
    target = np.random.default_rng(10).normal(size=(4, 2))
    with pytest.raises(DegenerateConfiguration):
        solve_similarity(coincident, target, np.ones(4))
    with pytest.raises(DegenerateConfiguration):
        solve_similarity(target, target, np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(LengthMismatch):
        solve_similarity(target, target[:3], np.ones(4))


def _bad_input(kind):
    rng = np.random.default_rng(11)
    p, q, w = rng.normal(size=(3, 2)), rng.normal(size=(3, 2)), np.ones(3)
    if kind == "negative-weight":
        w[1] = -0.5
    elif kind == "nan-weight":
        w[1] = np.nan
    elif kind == "inf-weight":
        w[0] = np.inf
    elif kind == "inf-point":
        p[1, 0] = np.inf
    elif kind == "nan-point":
        q[2, 1] = np.nan
    return p, q, w


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("solver", [solve_similarity, solve_orthogonal])
@pytest.mark.parametrize(
    "kind", ["negative-weight", "nan-weight", "inf-weight", "inf-point", "nan-point"]
)
def test_solver_rejects_negative_or_non_finite_input(solver, kind):
    """A negative weight, or a non-finite point or weight, is OutOfRange
    (not a reflected fit or a NaN transform), without a RuntimeWarning."""
    with pytest.raises(OutOfRange):
        solver(*_bad_input(kind))


POSITIVE_WEIGHT = st.one_of(st.sampled_from([5e-324, math.inf]), st.floats(1e-3, 1e3))
ANY_WEIGHT = st.one_of(st.sampled_from([0.0, 5e-324, math.nan, math.inf]), st.floats(0.0, 1e3))


@pytest.mark.parametrize("solver", [solve_similarity, solve_orthogonal])
@given(
    seed=st.integers(0, 2**32 - 1),
    positive=st.lists(POSITIVE_WEIGHT, min_size=2, max_size=4),
    rest=st.lists(ANY_WEIGHT, max_size=4),
)
def test_two_positive_weights_give_a_transform_or_a_named_error(solver, seed, positive, rest):
    """Past the count of positive weights the total is positive, NaN or
    infinite, never 0: the solver returns a finite transform or raises
    DegenerateConfiguration or OutOfRange, and nothing else."""
    rng = np.random.default_rng(seed)
    w = rng.permutation(positive + rest)
    p, q = rng.normal(size=(2, len(w), 2)) * 10.0
    try:
        t = solver(p, q, w)
    except (DegenerateConfiguration, OutOfRange):
        return
    assert np.isfinite([t.scale, t.theta, *t.t]).all()


def test_trace_identity_at_unit_scale():
    """At true scale 1 the corrected singular-value trace equals the weighted
    source spread, so the recovered scale is exactly 1."""
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(2, 30))
        p, q, w, _ = random_instance(rng, n, scale_range=(1.0, 1.0))
        est = solve_similarity(p, q, w)
        assert est.scale == pytest.approx(1.0, abs=TIGHT)


def test_scale_recovery_compensates_prescaling():
    """Dividing the source points by a hidden factor multiplies the recovered
    scale by that factor while leaving rotation and translation unchanged."""
    rng = np.random.default_rng(12)
    p, q, w, truth = random_instance(rng, 30, scale_range=(1.0, 1.0))
    for k in np.logspace(-3, 3, 7):
        est = solve_similarity(p / k, q, w)
        assert est.scale == pytest.approx(k, rel=TIGHT)
        assert abs(wrap_angle(est.theta - truth.theta)) < TIGHT
        assert np.allclose(est.t, truth.t, atol=1e-7)


# --- orthogonal solver ------------------------------------------------------


def test_solve_orthogonal_matches_similarity_at_unit_scale():
    rng = np.random.default_rng(13)
    for _ in range(100):
        p, q, w, _ = random_instance(rng, 15, scale_range=(1.0, 1.0))
        sim = solve_similarity(p, q, w)
        orth = solve_orthogonal(p, q, w)
        assert orth.scale == 1.0
        assert orth.theta == pytest.approx(sim.theta, abs=TIGHT)
        assert np.allclose(orth.t, sim.t, atol=1e-8)


def test_solve_orthogonal_ignores_true_scale():
    """With a genuine scale mismatch the orthogonal solver cannot reach the
    similarity solver's objective."""
    rng = np.random.default_rng(14)
    p, q, w, _ = random_instance(rng, 20, scale_range=(3.0, 3.0))
    sim = solve_similarity(p, q, w)
    orth = solve_orthogonal(p, q, w)
    assert alignment_objective(orth, p, q, w) > alignment_objective(sim, p, q, w) + 1.0


# --- transform utilities ----------------------------------------------------


def test_apply_transform_identity_and_known():
    pts = np.array([[1.0, 2.0], [-3.0, 0.5]])
    ident = SimilarityTransform2D()
    assert np.allclose(apply_transform(ident, pts), pts, atol=0)
    t = SimilarityTransform2D(2.0, math.pi / 2, np.array([1.0, 0.0]))
    assert np.allclose(apply_transform(t, np.array([[1.0, 0.0]])), [[1.0, 2.0]], atol=EXACT)


def test_transform_inverse_roundtrip():
    rng = np.random.default_rng(15)
    for _ in range(100):
        t = SimilarityTransform2D(
            float(rng.uniform(0.1, 10)),
            float(rng.uniform(-math.pi, math.pi)),
            rng.normal(size=2) * 10,
        )
        pts = rng.normal(size=(7, 2)) * 5
        back = apply_transform(inverse(t), apply_transform(t, pts))
        assert np.allclose(back, pts, atol=1e-9)


def test_wrap_angle_range_and_branch():
    rng = np.random.default_rng(16)
    for x in rng.uniform(-50, 50, size=1000):
        w = wrap_angle(float(x))
        assert -math.pi <= w < math.pi
        # equivalence modulo 2*pi
        assert abs(math.remainder(w - x, 2 * math.pi)) < 1e-9
    assert wrap_angle(math.pi) == pytest.approx(-math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(-math.pi)
    assert wrap_angle(3 * math.pi) == pytest.approx(-math.pi)


# --- properties -------------------------------------------------------------


def svd_route(p, q, w, with_scale=True):
    """The solver written with the full SVD matrices: R = V diag(1, d) U^T
    with d = sign(det(V U^T)), scale = (sigma * diag(1, d)).sum() / spread."""
    p, q, w = (np.asarray(x, dtype=float) for x in (p, q, w))
    if int((w > 0.0).sum()) < 2:
        raise DegenerateConfiguration("fewer than two positive weights")
    p_bar, q_bar = centroid_oracle(p, w), centroid_oracle(q, w)
    p_c, q_c = p - p_bar, q - q_bar
    spread = float((w * (p_c**2).sum(axis=1)).sum())
    if spread == 0.0:
        raise DegenerateConfiguration("source points coincide")
    u, sigma, v_t = np.linalg.svd(covariance_oracle(p_c, q_c, w))
    v = v_t.T
    correction = np.diag([1.0, 1.0 if np.linalg.det(v @ u.T) >= 0.0 else -1.0])
    rot = v @ correction @ u.T
    scale = float((sigma * np.diag(correction)).sum()) / spread if with_scale else 1.0
    theta = wrap_angle(math.atan2(rot[1, 0], rot[0, 0]))
    return SimilarityTransform2D(scale, theta, q_bar - scale * (rot @ p_bar))


def outcome(solver, *args):
    try:
        return solver(*args)
    except DegenerateConfiguration as e:
        return type(e)


def assert_same_solution(lean, ref, p, q):
    assert not isinstance(lean, type) and not isinstance(ref, type)
    assert abs(lean.scale - ref.scale) <= 1e-12 * abs(ref.scale)
    assert abs(wrap_angle(lean.theta - ref.theta)) <= 1e-12
    # t = q_bar - s R p_bar: rounding scales with the terms it combines
    size = 1.0 + abs(ref.scale) * np.abs(p).max() + np.abs(q).max()
    assert np.abs(lean.t - ref.t).max() <= 1e-12 * size


COORD = st.floats(-50.0, 50.0)
POINTS = st.lists(st.tuples(COORD, COORD, COORD, COORD, st.floats(0.0, 10.0)),
                  min_size=2, max_size=8)


@given(POINTS, st.booleans())
def test_lean_solver_equals_svd_route(rows, reflect):
    """Random inputs (with ``reflect``, nearly mirrored ones, whose
    covariance mostly has det < 0) give the SVD-matrix route's transform,
    or the same error."""
    data = np.array(rows)
    p, q, w = data[:, :2], data[:, 2:4], data[:, 4]
    if reflect:
        q = p * [1.0, -1.0] + 0.01 * q
    for solver, with_scale in ((solve_similarity, True), (solve_orthogonal, False)):
        lean = outcome(solver, p, q, w)
        ref = outcome(svd_route, p, q, w, with_scale)
        if isinstance(ref, type):
            assert lean is ref
        else:
            assert_same_solution(lean, ref, p, q)


@given(st.integers(0, 2**32 - 1), st.integers(3, 8))
def test_lean_solver_reflection_case(seed, n):
    """Mirrored targets make the covariance reflect (det < 0), the branch
    where the SVD route negates a column of V."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(-20, 20, size=(n, 2))
    mirror = rotation_matrix(rng.uniform(-np.pi, np.pi)) @ np.diag([1.0, -1.0])
    q = p @ mirror.T + rng.uniform(-20, 20, size=2)
    w = rng.uniform(0.1, 2.0, size=n)
    c = covariance_oracle(p - centroid_oracle(p, w), q - centroid_oracle(q, w), w)
    assert np.linalg.det(c) < 0.0
    assert_same_solution(solve_similarity(p, q, w), svd_route(p, q, w), p, q)


PYTHAGOREAN = st.sampled_from([(3, 4, 5), (5, 12, 13), (8, 15, 17), (0, 7, 7), (6, 0, 6)])


@given(
    st.lists(st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)), min_size=1, max_size=10),
    PYTHAGOREAN,
    st.integers(-3, 3),
    st.tuples(st.integers(-100, 100), st.integers(-100, 100)),
)
def test_count_inliers_threshold_is_inclusive(cells, triple, log2_scale, t):
    """A pair exactly ``threshold`` away is an inlier; one ulp less and it
    is not.  Integer data and power-of-two scales keep the residuals exact."""
    dx, dy, dist = triple
    scale = 2.0**log2_scale
    transform = SimilarityTransform2D(scale, 0.0, np.array(t, dtype=float))
    p = np.array(cells, dtype=float)
    q = scale * p + np.array(t, dtype=float) + [dx, dy]
    count, flags = count_inliers(transform, p, q, float(dist))
    assert count == len(p) and flags.all()
    count, flags = count_inliers(transform, p, q, np.nextafter(float(dist), 0.0))
    assert count == 0 and not flags.any()


def compose(a, b):
    """The transform x -> a(b(x))."""
    return SimilarityTransform2D(
        a.scale * b.scale, wrap_angle(a.theta + b.theta), apply_transform(a, b.t)
    )


# (solver, whether the motions it is equivariant under may scale)
SOLVERS = [(solve_similarity, True), (solve_orthogonal, False)]
MOTION = st.tuples(
    st.floats(-1.0, 1.0),  # log10 of the scale, used only where the solver allows it
    st.floats(-math.pi, math.pi),
    st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
)


def motion(params, scaled):
    log10_scale, theta, t = params
    return SimilarityTransform2D(10.0**log10_scale if scaled else 1.0, theta, np.array(t))


@pytest.mark.parametrize("solver, scaled", SOLVERS)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 12), params=MOTION)
def test_solver_is_equivariant_under_target_motion(solver, scaled, seed, n, params):
    """Moving the targets by T moves the solution by T: solve(p, T q) =
    T o solve(p, q), for a similarity T (a rigid one for the scale-pinned
    solver), on noisy pairs."""
    p, q, w, _ = random_instance(np.random.default_rng(seed), n, noise=0.5)
    moved = motion(params, scaled)
    tq = apply_transform(moved, q)
    assert_same_solution(solver(p, tq, w), compose(moved, solver(p, q, w)), p, tq)


@pytest.mark.parametrize("solver, scaled", SOLVERS)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 12), params=MOTION)
def test_solver_is_equivariant_under_source_motion(solver, scaled, seed, n, params):
    """Moving the sources by T composes the solution with T's inverse:
    solve(T p, q) = solve(p, q) o T^-1."""
    p, q, w, _ = random_instance(np.random.default_rng(seed), n, noise=0.5)
    moved = motion(params, scaled)
    tp = apply_transform(moved, p)
    assert_same_solution(solver(tp, q, w), compose(solver(p, q, w), inverse(moved)), tp, q)


@pytest.mark.parametrize("solver, scaled", SOLVERS)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), params=MOTION)
def test_solver_recovers_a_planted_motion(solver, scaled, seed, n, params):
    """Noise-free pairs q = T p give back T."""
    rng = np.random.default_rng(seed)
    p, w = rng.normal(scale=5.0, size=(n, 2)), rng.uniform(0.1, 2.0, size=n)
    planted = motion(params, scaled)
    q = apply_transform(planted, p)
    assert_same_solution(solver(p, q, w), planted, p, q)
