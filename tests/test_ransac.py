"""RANSAC's minimal samples against numpy's own ``rng.choice`` loop.

``ransac_estimate`` takes its minimal samples from ``_minimal_samples``:
one ``Generator.integers`` call over Floyd's and the shuffle's bounds per
block, fixed up into the stream of ``Generator.choice(n, 3,
replace=False)`` calls.  These tests hold those blocks to the per-sample
calls (many seeds and sizes, n == 3, odd requests, a stream that meets a
Lemire rejection, random cases), hold ``ransac_estimate`` to
``reference_ransac``, the one-call-per-sample loop it replaced, kept here
as the oracle, and check that bad input is rejected before the first draw.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crossloc import estimator
from crossloc.errors import AllHypothesesDegenerate, DegenerateConfiguration, LengthMismatch
from crossloc.errors import OutOfRange
from crossloc.estimator import (
    MIN_SAMPLE,
    PipelineConfig,
    RansacConfig,
    count_inliers,
    estimate_pose,
    ransac_estimate,
)
from crossloc.geometry import solve_orthogonal, solve_similarity
from crossloc.simulator import SceneConfig, generate

# 2**32 + 1 = 641 * 6700417, so 2**32 % n = n - 1: about one word in 640 of
# the [0, n-1] draws is a Lemire rejection
REJECTING_N = 6_700_417
LOW32 = np.uint64(0xFFFFFFFF)


def choice_loop(seed, n, count):
    rng = np.random.default_rng(seed)
    return np.array([rng.choice(n, size=MIN_SAMPLE, replace=False) for _ in range(count)])


def reference_ransac(p, q, w, cfg, scale_aware=True):
    """The per-sample loop: one ``rng.choice`` call per draw.  Returns the
    final transform, the winning flags and count, draws and completed
    iterations."""
    solver = solve_similarity if scale_aware else solve_orthogonal
    rng = np.random.default_rng(cfg.seed)
    uniform = np.ones(MIN_SAMPLE)
    best_count, best_transform, best_flags = -1, None, None
    completed = attempts = 0
    while completed < cfg.iterations and attempts < cfg.iterations * 10:
        attempts += 1
        sample = rng.choice(len(p), size=MIN_SAMPLE, replace=False)
        try:
            hyp = solver(p[sample], q[sample], uniform)
        except DegenerateConfiguration:
            continue
        count, flags = count_inliers(hyp, p, q, cfg.inlier_threshold)
        if count > best_count:
            best_count, best_transform, best_flags = count, hyp, flags
        completed += 1
    if best_transform is None:
        raise AllHypothesesDegenerate(f"no valid hypothesis in {attempts} sample draws")
    transform = best_transform
    if cfg.refit_on_inliers and best_count >= 2:
        try:
            transform = solver(p[best_flags], q[best_flags], w[best_flags])
        except DegenerateConfiguration:
            pass
    return transform, best_flags, best_count, attempts, completed


def assert_same_as_reference(p, q, w, cfg, scale_aware=True):
    transform, flags, count, draws, completed = reference_ransac(p, q, w, cfg, scale_aware)
    est = ransac_estimate(p, q, w, cfg, scale_aware=scale_aware)
    assert est.transform.scale == transform.scale
    assert est.transform.theta == transform.theta
    np.testing.assert_array_equal(est.transform.t, transform.t)
    np.testing.assert_array_equal(est.inlier_mask, flags)
    assert est.inlier_count == count
    assert (est.draws, est.draws - est.redraws) == (draws, completed)
    return est


def pairs_with_coincident_rows(seed, n):
    """Random pairs, about 30% of them outliers sharing one target point,
    with two thirds of the ground rows coincident at a point with integer
    coordinates (its centroid is exact, so their spread is exactly 0) so that
    many samples are degenerate."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(-20.0, 20.0, size=(n, 2))
    p[: 2 * n // 3] = np.round(p[0])
    q = 1.3 * p[:, ::-1] + rng.normal(0.0, 0.05, size=(n, 2))
    q[rng.random(n) < 0.3] = rng.uniform(-30.0, 30.0, size=2)
    return p, q, rng.uniform(0.1, 1.0, size=n)


# ---------------------------------------------------------------------------
# the sampler against numpy's choice stream


def taken(seed, n, requests):
    rng = np.random.default_rng(seed)
    return np.concatenate([estimator._minimal_samples(rng, n, count) for count in requests])


def meets_rejection(seed, n, count):
    """Whether the first ``count`` samples of ``choice_loop(seed, n, ...)``
    (n > MIN_SAMPLE) read a word that Lemire's method rejects.  Each sample
    makes five bounded draws, one 32-bit word each until a rejection (PCG64
    hands out a raw word's low half before its high half); a word whose
    product with bound + 1 has a low half under 2**32 % (bound + 1) is
    rejected."""
    raw = np.random.default_rng(seed).bit_generator.random_raw((5 * count + 1) // 2)
    words = np.stack((raw & LOW32, raw >> np.uint64(32)), axis=-1).reshape(-1)
    span = np.array([n - 2, n - 1, n, 3, 2], dtype=np.uint64)
    scaled = words[: 5 * count].reshape(count, 5) * span
    return bool(np.any((scaled & LOW32) < 2**32 % span))


@pytest.mark.parametrize("n", [MIN_SAMPLE, 4, 9, 128, 1024, 5000, REJECTING_N])
def test_samples_equal_the_choice_loop(n):
    for seed in range(12):
        got = taken(seed, n, (501, 1, 299, 7))
        np.testing.assert_array_equal(got, choice_loop(seed, n, len(got)))


def test_a_lemire_rejection_still_equals_the_choice_loop():
    """Seed 1 at ``REJECTING_N`` meets a rejection in samples 400-999 (at
    sample 449; the word after it shifts every later draw).  numpy redraws
    it inside the same ``integers`` call, whether it falls in the first
    block, the fifth, or the second after an odd request."""
    assert not meets_rejection(1, REJECTING_N, 400)
    assert meets_rejection(1, REJECTING_N, 1000)
    for requests in ([1000], [100] * 10, [399, 99, 7, 495]):
        np.testing.assert_array_equal(
            taken(1, REJECTING_N, requests), choice_loop(1, REJECTING_N, 1000)
        )


@given(
    n=st.integers(MIN_SAMPLE, 10**7),
    seed=st.integers(0, 2**32 - 1),
    requests=st.lists(st.integers(1, 300), min_size=1, max_size=3),
)
def test_any_blocks_equal_the_choice_loop(n, seed, requests):
    got = taken(seed, n, requests)
    np.testing.assert_array_equal(got, choice_loop(seed, n, sum(requests)))


def test_samples_stay_exact_across_blocks_with_many_redraws(monkeypatch):
    monkeypatch.setattr(estimator, "_DRAW_BLOCK", 5)  # redraws need many small blocks
    for seed in range(8):
        p, q, w = pairs_with_coincident_rows(seed, 12)
        est = assert_same_as_reference(p, q, w, RansacConfig(iterations=15, seed=seed))
        assert est.redraws > 0


def test_default_blocks_stay_exact_with_redraws():
    # the first block holds 41 draws; redraws need more
    for seed in range(8):
        p, q, w = pairs_with_coincident_rows(seed, 10)
        est = assert_same_as_reference(p, q, w, RansacConfig(iterations=41, seed=seed))
        assert est.redraws > 0


# ---------------------------------------------------------------------------
# ransac_estimate against the reference loop


@pytest.mark.parametrize("scale_aware", [True, False])
def test_ransac_equals_the_reference_loop(scale_aware):
    rng = np.random.default_rng(2024)
    for case in range(30):
        n = int(rng.choice([3, 4, 5, 8, 30, 200]))
        iterations = int(rng.integers(1, 60))
        p, q, w = pairs_with_coincident_rows(case, n)
        cfg = RansacConfig(iterations=iterations, inlier_threshold=0.5, seed=case)
        assert_same_as_reference(p, q, w, cfg, scale_aware)


def test_all_degenerate_samples_raise_after_the_same_draws():
    p = np.full((9, 2), 4.0)
    q = np.random.default_rng(3).normal(size=(9, 2))
    cfg = RansacConfig(iterations=7, seed=5)
    with pytest.raises(AllHypothesesDegenerate) as ours:
        ransac_estimate(p, q, np.ones(9), cfg)
    with pytest.raises(AllHypothesesDegenerate) as theirs:
        reference_ransac(p, q, np.ones(9), cfg)
    assert str(ours.value) == str(theirs.value) == "no valid hypothesis in 70 sample draws"


BAD_VALUES = {
    "nan-point": (0, np.nan),
    "inf-point": (1, -np.inf),
    "negative-weight": (2, -0.5),
    "nan-weight": (2, np.nan),
    "inf-weight": (2, np.inf),
}


@pytest.mark.parametrize("iterations", [5, 1000])
@pytest.mark.parametrize("kind", list(BAD_VALUES))
def test_bad_input_is_rejected_before_the_first_draw(kind, iterations, monkeypatch):
    """A non-finite point or weight, or a negative weight, anywhere in the
    input is the solver's own OutOfRange, whatever the iteration budget and
    whichever pairs the samples would hold."""
    p, q, w = pairs_with_coincident_rows(4, 40)
    which, value = BAD_VALUES[kind]
    # pair 3 is outside the winning consensus at both budgets, and only the
    # 1000-iteration stream samples it
    (p[:, 0], q[:, 1], w)[which][3] = value
    with pytest.raises(OutOfRange) as solver:
        solve_similarity(p, q, w)
    monkeypatch.setattr(estimator, "_minimal_samples", lambda *args: pytest.fail("drew"))
    with pytest.raises(OutOfRange) as ours:
        ransac_estimate(p, q, w, RansacConfig(iterations=iterations))
    assert str(ours.value) == str(solver.value)


def test_mismatched_arrays_are_named_before_the_first_draw(monkeypatch):
    p, q, w = pairs_with_coincident_rows(4, 40)
    monkeypatch.setattr(estimator, "_minimal_samples", lambda *args: pytest.fail("drew"))
    for args in ((p, q, w[:5]), (p, q[:30], w), (p[:, :1], q, w)):
        with pytest.raises(LengthMismatch):
            ransac_estimate(*args)


# ---------------------------------------------------------------------------
# the counts RANSAC reports


def assert_count_identities(est, iterations, kept):
    completed = est.draws - est.redraws
    assert 0 <= est.redraws <= est.draws <= 10 * iterations
    assert completed == iterations or est.draws == 10 * iterations
    assert 0 <= est.inlier_count <= kept
    assert not est.refit or est.inlier_count >= 2


@pytest.mark.parametrize("camera", ["panorama", "pinhole"])
def test_pipeline_counts_hold_their_identities(camera):
    scene = generate(SceneConfig(camera=camera, noise_sigma=0.1, seed=1))
    grids = (scene.aerial, scene.ground, scene.depth, scene.rays)
    est = estimate_pose(*grids, PipelineConfig(ransac=RansacConfig(iterations=200)))
    assert_count_identities(est, 200, len(est.correspondences))
    direct = estimate_pose(*grids, PipelineConfig())
    assert (direct.draws, direct.redraws, direct.refit) == (None, None, None)


def test_counts_when_the_draw_cap_is_hit():
    # one ground point apart from 99 coincident ones: only samples holding
    # it (3 in 100) are solvable, so 10 iterations exhaust the 100 draws
    p = np.zeros((100, 2))
    p[57] = (1.0, 2.0)
    q = np.random.default_rng(0).normal(size=(100, 2))
    est = ransac_estimate(p, q, np.ones(100), RansacConfig(iterations=10, seed=0))
    assert est.draws == 100 and est.draws - est.redraws < 10
    assert_count_identities(est, 10, 100)
