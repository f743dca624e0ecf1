"""RANSAC's bulk sample draws against numpy's own ``rng.choice`` loop.

``ransac_estimate`` takes its minimal samples from a replica of numpy's
``Generator.choice(n, 3, replace=False)`` stream computed in bulk from the
raw generator words.  These tests hold the replica to the per-sample calls
(many seeds and sizes, the n == 3 fallback, block boundaries), a block
that meets a Lemire rejection to numpy's calls from the state saved before
it (the first block, a later one, one after an odd request rounded up), and
hold ``ransac_estimate`` to ``reference_ransac``, the one-call-per-sample
loop it replaced, kept here as the oracle.
"""

import numpy as np
import pytest

from crossloc import estimator
from crossloc.errors import AllHypothesesDegenerate, DegenerateConfiguration
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
# the replica of numpy's choice stream


@pytest.mark.parametrize("n", [4, 9, 128, 1024, 5000])
def test_bulk_samples_equal_the_choice_loop(n):
    for seed in range(12):
        samples = estimator._MinimalSamples(seed, n)
        got = np.concatenate([samples.take(count) for count in (500, 301, 1199)])
        np.testing.assert_array_equal(got, choice_loop(seed, n, len(got)))
        assert samples.bulk


def test_three_pairs_go_through_the_loop(monkeypatch):
    def no_bulk(*args):
        raise AssertionError("n == MIN_SAMPLE has a word-free draw the replica does not model")

    monkeypatch.setattr(estimator, "_bulk_choice", no_bulk)
    for seed in range(5):
        samples = estimator._MinimalSamples(seed, MIN_SAMPLE)
        got = np.concatenate([samples.take(count) for count in (7, 1, 20)])
        np.testing.assert_array_equal(got, choice_loop(seed, MIN_SAMPLE, 28))


def test_a_lemire_rejection_falls_back_and_still_equals_the_loop():
    """numpy's calls continue from the state saved before the rejecting
    block: the fifth of ten, the first, and one after an odd request that
    a bulk block rounded up to even."""
    rng = np.random.default_rng(1)
    assert estimator._bulk_choice(rng, REJECTING_N, 400) is not None
    assert estimator._bulk_choice(rng, REJECTING_N, 100) is None  # draws 400-499
    assert estimator._bulk_choice(np.random.default_rng(2), REJECTING_N, 100) is None
    # (seed, requests, how many of them were served in bulk, samples handed out)
    for seed, requests, bulk, total in (
        (1, [100] * 10, 4, 1000),
        (2, [100, 50], 0, 150),
        (1, [399, 99, 7], 1, 506),
    ):
        samples = estimator._MinimalSamples(seed, REJECTING_N)
        got, served_in_bulk = [], 0
        for count in requests:
            got.append(samples.take(count))
            served_in_bulk += samples.bulk
        assert served_in_bulk == bulk and not samples.bulk
        np.testing.assert_array_equal(np.concatenate(got), choice_loop(seed, REJECTING_N, total))


def test_samples_stay_exact_across_blocks_with_many_redraws(monkeypatch):
    monkeypatch.setattr(estimator, "_DRAW_BLOCK", 5)  # odd: every block rounds up
    for seed in range(8):
        p, q, w = pairs_with_coincident_rows(seed, 12)
        est = assert_same_as_reference(p, q, w, RansacConfig(iterations=15, seed=seed))
        assert est.redraws > 0


def test_default_blocks_stay_exact_with_redraws():
    # the first block holds 42 draws (41 rounded up to even); redraws need more
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
