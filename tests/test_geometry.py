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
from crossloc.errors import ZeroWeightSum
from crossloc.estimator import count_inliers
from crossloc.geometry import (
    SimilarityTransform2D,
    alignment_objective,
    apply_transform,
    rotation_matrix,
    solve_orthogonal,
    solve_similarity,
    svd2x2,
    weighted_centroid,
    weighted_covariance,
    wrap_angle,
)

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


# --- weighted centroid ------------------------------------------------------


def test_centroid_matches_loop_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = rng.integers(1, 30)
        pts = rng.normal(size=(n, 2)) * 10
        w = rng.uniform(0.0, 3.0, size=n)
        if w.sum() == 0:
            continue
        assert np.allclose(weighted_centroid(pts, w), centroid_oracle(pts, w), atol=EXACT)


def test_centroid_uniform_weights_is_mean():
    pts = np.array([[0.0, 0.0], [2.0, 4.0]])
    assert np.allclose(weighted_centroid(pts, np.ones(2)), [1.0, 2.0], atol=0)


def test_centroid_weight_rescale_invariance():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(12, 2))
    w = rng.uniform(0.1, 1.0, size=12)
    base = weighted_centroid(pts, w)
    for k in (1e-6, 0.5, 3.0, 1e6):
        assert np.allclose(weighted_centroid(pts, k * w), base, atol=TIGHT)


def test_centroid_errors():
    with pytest.raises(ZeroWeightSum):
        weighted_centroid(np.zeros((3, 2)), np.zeros(3))
    with pytest.raises(LengthMismatch):
        weighted_centroid(np.zeros((3, 2)), np.ones(2))


# --- weighted covariance ----------------------------------------------------


def test_covariance_matches_loop_oracle():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = rng.integers(1, 30)
        p = rng.normal(size=(n, 2))
        q = rng.normal(size=(n, 2))
        w = rng.uniform(0.0, 2.0, size=n)
        assert np.allclose(
            weighted_covariance(p, q, w), covariance_oracle(p, q, w), atol=EXACT
        )


def test_covariance_hand_cases():
    p = np.array([[1.0, 0.0], [-1.0, 0.0]])
    w = np.ones(2)
    assert np.allclose(weighted_covariance(p, p, w), [[2.0, 0.0], [0.0, 0.0]], atol=0)
    q = p @ rotation_matrix(math.pi / 2).T  # rotate each point by +90 degrees
    assert np.allclose(
        weighted_covariance(p, q, w), [[0.0, 2.0], [0.0, 0.0]], atol=EXACT
    )


# --- 2x2 SVD ----------------------------------------------------------------


def test_svd2x2_against_numpy_oracle():
    rng = np.random.default_rng(3)
    for _ in range(500):
        c = rng.normal(scale=rng.uniform(0.1, 10), size=(2, 2))
        u, sigma, v = svd2x2(c)
        # orthogonality
        assert np.allclose(u.T @ u, np.eye(2), atol=EXACT)
        assert np.allclose(v.T @ v, np.eye(2), atol=EXACT)
        # descending nonnegative singular values
        assert sigma[0] >= sigma[1] >= 0.0
        # reconstruction
        assert np.allclose(u @ np.diag(sigma) @ v.T, c, atol=1e-12 * max(1.0, abs(c).max()))
        # values agree with the general-purpose route
        assert np.allclose(sigma, np.linalg.svd(c, compute_uv=False), atol=1e-11)


def test_svd2x2_zero_matrix():
    u, sigma, v = svd2x2(np.zeros((2, 2)))
    assert np.allclose(u, np.eye(2), atol=0)
    assert np.allclose(v, np.eye(2), atol=0)
    assert np.allclose(sigma, 0.0, atol=0)


def test_svd2x2_negative_determinant_sign_absorbed():
    c = np.diag([3.0, -2.0])
    u, sigma, v = svd2x2(c)
    assert np.allclose(sigma, [3.0, 2.0], atol=EXACT)
    assert np.allclose(u @ np.diag(sigma) @ v.T, c, atol=EXACT)


def test_svd2x2_rank_one():
    c = np.outer([1.0, 2.0], [3.0, -1.0])
    u, sigma, v = svd2x2(c)
    assert sigma[1] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(u @ np.diag(sigma) @ v.T, c, atol=EXACT)


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
    elif kind == "inf-point":
        p[1, 0] = np.inf
    elif kind == "nan-point":
        q[2, 1] = np.nan
    return p, q, w


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("solver", [solve_similarity, solve_orthogonal])
@pytest.mark.parametrize("kind", ["negative-weight", "nan-weight", "inf-point", "nan-point"])
def test_solver_rejects_negative_or_non_finite_input(solver, kind):
    """A negative weight, or a non-finite point or weight, is OutOfRange
    (not a reflected fit or a NaN transform), without a RuntimeWarning."""
    with pytest.raises(OutOfRange):
        solver(*_bad_input(kind))


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
        back = apply_transform(t.inverse(), apply_transform(t, pts))
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
    if float(w.sum()) <= 0.0:
        raise ZeroWeightSum("weights sum to zero")
    p_bar, q_bar = weighted_centroid(p, w), weighted_centroid(q, w)
    p_c, q_c = p - p_bar, q - q_bar
    spread = float((w * (p_c**2).sum(axis=1)).sum())
    if spread == 0.0:
        raise DegenerateConfiguration("source points coincide")
    u, sigma, v = svd2x2(weighted_covariance(p_c, q_c, w))
    correction = np.diag([1.0, 1.0 if np.linalg.det(v @ u.T) >= 0.0 else -1.0])
    rot = v @ correction @ u.T
    scale = float((sigma * np.diag(correction)).sum()) / spread if with_scale else 1.0
    theta = wrap_angle(math.atan2(rot[1, 0], rot[0, 0]))
    return SimilarityTransform2D(scale, theta, q_bar - scale * (rot @ p_bar))


def outcome(solver, *args):
    try:
        return solver(*args)
    except (DegenerateConfiguration, ZeroWeightSum) as e:
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
    c = weighted_covariance(p - weighted_centroid(p, w), q - weighted_centroid(q, w), w)
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
