"""Tests for the virtual-point loss and the contrastive matching losses."""

import math

import numpy as np
import pytest

from crossloc.errors import NoValidTargets, OutOfRange
from crossloc.geometry import SimilarityTransform2D, rotation_matrix, solve_similarity
from crossloc.losses import (
    gt_aerial_targets,
    gt_ground_targets,
    pseudo_scale_targets,
    virtual_point_grid,
)
from crossloc.matching import AerialMeta
from oracles import info_nce_g2s, info_nce_s2g, total_loss, vce_loss

TIGHT = 1e-9


# --- virtual point grid -----------------------------------------------------


def test_virtual_grid_layout():
    g = virtual_point_grid(side=10, extent=5.0)
    assert g.shape == (100, 2)
    assert g.min() == -5.0 and g.max() == 5.0
    assert np.allclose(g.mean(axis=0), 0.0, atol=TIGHT)
    # perfect square count and uniform spacing
    xs = np.unique(g[:, 0])
    assert len(xs) == 10
    assert np.allclose(np.diff(xs), 10.0 / 9, atol=TIGHT)


def test_virtual_grid_validation():
    with pytest.raises(OutOfRange):
        virtual_point_grid(side=0)
    with pytest.raises(OutOfRange):
        virtual_point_grid(extent=0.0)


# --- vce loss ---------------------------------------------------------------


def test_vce_zero_at_equal_pose():
    vp = virtual_point_grid()
    pose = SimilarityTransform2D(1.0, 0.7, np.array([3.0, -1.0]))
    assert vce_loss(pose, pose, vp) == pytest.approx(0.0, abs=TIGHT)


def test_vce_pure_translation_offset():
    vp = virtual_point_grid()
    a = SimilarityTransform2D(1.0, 0.3, np.array([0.0, 0.0]))
    b = SimilarityTransform2D(1.0, 0.3, np.array([3.0, 4.0]))
    assert vce_loss(a, b, vp) == pytest.approx(5.0, abs=TIGHT)


def test_vce_opposite_rotation_closed_form():
    """Rotations differing by pi map each virtual point to opposite sides, so
    the loss is the mean of 2*||p||."""
    vp = virtual_point_grid(side=10, extent=5.0)
    a = SimilarityTransform2D(1.0, 0.25, np.array([1.0, 2.0]))
    b = SimilarityTransform2D(1.0, 0.25 - math.pi, np.array([1.0, 2.0]))
    expected = float(2.0 * np.linalg.norm(vp, axis=1).mean())
    assert vce_loss(a, b, vp) == pytest.approx(expected, abs=TIGHT)


def test_vce_ignores_scale():
    vp = virtual_point_grid()
    a = SimilarityTransform2D(1.0, 0.2, np.array([1.0, 1.0]))
    b = SimilarityTransform2D(250.0, 0.2, np.array([1.0, 1.0]))
    assert vce_loss(a, b, vp) == pytest.approx(0.0, abs=TIGHT)


def test_vce_translation_gradient_direction():
    """Finite differences of the loss in t match the normalized offset
    direction when rotations are equal."""
    vp = virtual_point_grid()
    truth = SimilarityTransform2D(1.0, 0.0, np.zeros(2))
    t = np.array([2.0, -1.0])
    eps = 1e-7
    grad = np.zeros(2)
    for k in range(2):
        step = np.zeros(2)
        step[k] = eps
        up = vce_loss(SimilarityTransform2D(1.0, 0.0, t + step), truth, vp)
        dn = vce_loss(SimilarityTransform2D(1.0, 0.0, t - step), truth, vp)
        grad[k] = (up - dn) / (2 * eps)
    assert np.allclose(grad, t / np.linalg.norm(t), atol=1e-6)


# --- ground-truth targets ---------------------------------------------------


def test_gt_targets_roundtrip():
    rng = np.random.default_rng(0)
    truth = SimilarityTransform2D(1.0, 1.1, np.array([5.0, -2.0]))
    p = rng.normal(size=(40, 2)) * 10
    for scale in (0.05, 1.0, 30.0):
        q_hat = gt_aerial_targets(p, truth, scale)
        back = gt_ground_targets(q_hat, truth, scale)
        assert np.allclose(back, p, atol=TIGHT)


def test_gt_aerial_targets_hand_value():
    truth = SimilarityTransform2D(1.0, math.pi / 2, np.array([1.0, 0.0]))
    q_hat = gt_aerial_targets(np.array([[2.0, 0.0]]), truth, scale=3.0)
    assert np.allclose(q_hat, [[1.0, 6.0]], atol=TIGHT)


def test_gt_targets_take_a_leading_scene_axis_bit_for_bit():
    """(S, N, 2) points with a list of S poses and scales give each scene's
    own targets to the bit, as a training step places them."""
    rng = np.random.default_rng(1)
    points = rng.normal(size=(5, 24, 2)) * 10
    angles = rng.uniform(-3, 3, 5)
    truths = [SimilarityTransform2D(1.0, th, rng.normal(size=2) * 5) for th in angles]
    scales = rng.uniform(0.5, 2.0, 5)
    for place in (gt_aerial_targets, gt_ground_targets):
        stacked = place(points, truths, scales)
        for i, (truth, scale) in enumerate(zip(truths, scales)):
            np.testing.assert_array_equal(stacked[i], place(points[i], truth, float(scale)))


# --- ground-to-aerial contrastive loss --------------------------------------


def test_g2s_uniform_scores_give_log_n():
    n_aerial = 25
    meta = AerialMeta(meters_per_cell=1.0)
    targets = np.zeros((4, 2))  # all inside coverage
    loss = info_nce_g2s(np.zeros((n_aerial, 4)), (5, 5), np.arange(4), targets, meta)
    assert loss == pytest.approx(math.log(n_aerial), abs=TIGHT)


def test_g2s_decreases_when_positive_score_rises():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=(9, 3))
    meta = AerialMeta(meters_per_cell=1.0)
    targets = np.zeros((3, 2))  # positive cell = center = flat index 4
    base = info_nce_g2s(scores, (3, 3), np.arange(3), targets, meta)
    boosted = scores.copy()
    boosted[4, :] += 2.0
    assert info_nce_g2s(boosted, (3, 3), np.arange(3), targets, meta) < base


def test_g2s_shift_invariance():
    rng = np.random.default_rng(2)
    scores = rng.normal(size=(16, 5))
    meta = AerialMeta(meters_per_cell=2.0)
    targets = rng.uniform(-3, 3, size=(5, 2))
    base = info_nce_g2s(scores, (4, 4), np.arange(5), targets, meta)
    shifted = info_nce_g2s(scores + 11.3, (4, 4), np.arange(5), targets, meta)
    assert shifted == pytest.approx(base, abs=1e-9)


def test_g2s_outside_coverage_excluded_and_all_outside_raises():
    scores = np.zeros((4, 2))
    meta = AerialMeta(meters_per_cell=1.0)  # coverage [-1, 1]^2
    mixed = np.array([[0.0, 0.0], [50.0, 0.0]])
    loss = info_nce_g2s(scores, (2, 2), np.arange(2), mixed, meta)
    assert loss == pytest.approx(math.log(4), abs=TIGHT)  # only the inside one counts
    with pytest.raises(NoValidTargets):
        info_nce_g2s(scores, (2, 2), np.arange(2), np.full((2, 2), 99.0), meta)


# --- aerial-to-ground contrastive loss --------------------------------------


def test_s2g_single_candidate_is_zero():
    loss = info_nce_s2g(
        np.array([[3.0]]), np.array([0]), np.zeros((1, 2)), np.array([0]), np.zeros((1, 2))
    )
    assert loss == pytest.approx(0.0, abs=TIGHT)


def test_s2g_all_candidates_inside_radius_is_zero():
    """When every non-positive sits inside the neighborhood, the denominator
    is the positive alone."""
    rng = np.random.default_rng(3)
    m = rng.normal(size=(2, 4))
    planar = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [0.1, 0.1]])
    loss = info_nce_s2g(
        m,
        np.array([0, 1]),
        np.zeros((2, 2)),
        np.arange(4),
        planar,
        radius=1.0,
    )
    assert loss == pytest.approx(0.0, abs=TIGHT)


def test_s2g_shrinking_radius_never_decreases_loss():
    rng = np.random.default_rng(4)
    m = rng.normal(size=(3, 12))
    planar = rng.uniform(-4, 4, size=(12, 2))
    targets = rng.uniform(-4, 4, size=(3, 2))
    rows = np.arange(3)
    losses = [
        info_nce_s2g(m, rows, targets, np.arange(12), planar, radius=r)
        for r in (4.0, 2.0, 1.0, 0.5, 0.1)
    ]
    for wider, narrower in zip(losses, losses[1:]):
        assert narrower >= wider - TIGHT


def test_s2g_positive_is_nearest_candidate():
    m = np.array([[5.0, -5.0]])
    planar = np.array([[0.0, 0.0], [10.0, 0.0]])
    near = info_nce_s2g(m, np.array([0]), np.array([[0.1, 0.0]]), np.arange(2), planar)
    far = info_nce_s2g(m, np.array([0]), np.array([[9.9, 0.0]]), np.arange(2), planar)
    # the high-scoring candidate is nearest in the first case only
    assert near < far


def test_s2g_rejects_empty_or_mismatched_rows():
    m = np.zeros((2, 3))
    planar = np.array([[0.0, 0.0], [5.0, 0.0], [9.0, 0.0]])
    with pytest.raises(NoValidTargets):
        info_nce_s2g(m, np.array([], dtype=int), np.zeros((0, 2)), np.arange(3), planar)
    with pytest.raises(OutOfRange):
        info_nce_s2g(m, np.array([0, 1]), np.zeros((1, 2)), np.arange(3), planar)


# --- pseudo-scale targets ---------------------------------------------------


def test_pseudo_scale_matches_known_scale_targets():
    """With exact correspondences under a hidden depth scale, the estimated
    scale reproduces the targets of the scale-aware path to 1e-9."""
    rng = np.random.default_rng(5)
    truth = SimilarityTransform2D(1.0, -0.6, np.array([4.0, 7.0]))
    for hidden in (0.01, 1.0, 250.0):
        metric_ground = rng.normal(size=(30, 2)) * 8
        p = metric_ground / hidden  # observed at unknown scale
        q = gt_aerial_targets(p, truth, hidden)
        w = rng.uniform(0.2, 1.0, size=30)
        q_hat, p_hat = pseudo_scale_targets(p, q, w, truth)
        assert np.allclose(q_hat, gt_aerial_targets(p, truth, hidden), atol=1e-9)
        assert np.allclose(p_hat, gt_ground_targets(q, truth, hidden), atol=1e-9)


def test_pseudo_scale_recovers_prescaling():
    rng = np.random.default_rng(6)
    truth = SimilarityTransform2D(1.0, 0.9, np.array([-2.0, 3.0]))
    base_p = rng.normal(size=(20, 2)) * 5
    q = gt_aerial_targets(base_p, truth, 1.0)
    w = np.ones(20)
    for k in (0.05, 3.0, 40.0):
        q_hat, _ = pseudo_scale_targets(base_p / k, q, w, truth)
        expected = gt_aerial_targets(base_p / k, truth, k)
        assert np.allclose(q_hat, expected, atol=1e-8)


# --- total loss -------------------------------------------------------------


def test_total_loss_combination():
    assert total_loss(vce=2.0, g2s=1.0, s2g=3.0, beta=0.5) == pytest.approx(
        2.0 + 0.5 * 2.0, abs=TIGHT
    )


def test_total_loss_beta_zero_is_vce_only():
    assert total_loss(vce=1.7, g2s=9.9, s2g=8.8, beta=0.0) == pytest.approx(1.7, abs=TIGHT)
    with pytest.raises(OutOfRange):
        total_loss(1.0, 1.0, 1.0, beta=-0.1)
