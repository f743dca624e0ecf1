"""Tests for grid feature matching and soft-assignment probabilities."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crossloc.errors import DimensionMismatch, OutOfRange, TooSmall, ZeroNormFeature
from crossloc.matching import (
    MASK_SCORE,
    AerialMeta,
    FeatureGrid,
    ScoreMatrix,
    augment_dustbin,
    col_softmax,
    drop_dustbin,
    dual_softmax,
    mask_ground_columns,
    match_probabilities,
    row_softmax,
    sample_correspondences,
    score_matrix,
    top_n_flat_indices,
)

TIGHT = 1e-9


def dual_softmax_oracle(m):
    """Direct per-entry evaluation of the mutual-softmax product, written
    without max subtraction or vectorized normalization."""
    rows, cols = m.shape
    out = np.empty_like(m, dtype=float)
    for i in range(rows):
        for j in range(cols):
            row_term = math.exp(m[i, j]) / sum(math.exp(m[i, k]) for k in range(cols))
            col_term = math.exp(m[i, j]) / sum(math.exp(m[k, j]) for k in range(rows))
            out[i, j] = row_term * col_term
    return out


def grid(rows, cols, dim, rng, kind="aerial"):
    return FeatureGrid(rng.normal(size=(rows, cols, dim)), kind=kind)


# --- score matrix -----------------------------------------------------------


def test_score_matrix_identical_unit_features_give_one_over_tau():
    f = np.zeros((1, 2, 3))
    f[..., 0] = 1.0
    a = FeatureGrid(f, "aerial")
    g = FeatureGrid(f.copy().reshape(1, 2, 3), "ground")
    m = score_matrix(a, g, tau=0.1)
    assert np.allclose(m.scores, 10.0, atol=TIGHT)


def test_score_matrix_range_and_scale_invariance():
    rng = np.random.default_rng(0)
    a = grid(4, 5, 8, rng)
    g = grid(3, 6, 8, rng, "ground")
    m = score_matrix(a, g, tau=0.1)
    assert m.scores.shape == (20, 18)
    assert (np.abs(m.scores) <= 1 / 0.1 + 1e-9).all()
    # cosine ignores feature magnitude
    a_scaled = FeatureGrid(a.data * 37.0, "aerial")
    m2 = score_matrix(a_scaled, g, tau=0.1)
    assert np.allclose(m.scores, m2.scores, atol=TIGHT)


def test_score_matrix_orthogonal_features_score_zero():
    a = FeatureGrid(np.array([[[1.0, 0.0]]]), "aerial")
    g = FeatureGrid(np.array([[[0.0, 5.0]]]), "ground")
    m = score_matrix(a, g, tau=0.5)
    assert m.scores[0, 0] == pytest.approx(0.0, abs=TIGHT)


def test_score_matrix_errors():
    rng = np.random.default_rng(1)
    a = grid(2, 2, 4, rng)
    g = grid(2, 2, 5, rng, "ground")
    with pytest.raises(DimensionMismatch):
        score_matrix(a, g, tau=0.1)
    z = FeatureGrid(np.zeros((1, 1, 4)), "ground")
    with pytest.raises(ZeroNormFeature):
        score_matrix(a, z, tau=0.1)
    with pytest.raises(OutOfRange):
        score_matrix(a, grid(2, 2, 4, rng, "ground"), tau=0.0)


# --- dustbin ----------------------------------------------------------------


def test_augment_dustbin_layout():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    ext = augment_dustbin(m, z=0.0)
    assert ext.shape == (3, 3)
    assert np.array_equal(ext[:2, :2], m)
    assert (ext[2, :] == 0.0).all() and (ext[:, 2] == 0.0).all()


def test_drop_dustbin_removes_border_only():
    rng = np.random.default_rng(2)
    ext = rng.normal(size=(5, 7))
    inner = drop_dustbin(ext)
    assert inner.shape == (4, 6)
    assert np.array_equal(inner, ext[:4, :6])
    with pytest.raises(TooSmall):
        drop_dustbin(np.ones((1, 3)))


def test_augment_then_drop_roundtrip_bit_exact():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(6, 4))
    probs = dual_softmax(augment_dustbin(m, z=0.3))
    inner = drop_dustbin(probs)
    assert np.array_equal(inner, probs[:6, :4])


# --- dual softmax -----------------------------------------------------------


def test_dual_softmax_matches_direct_oracle():
    rng = np.random.default_rng(4)
    for _ in range(50):
        shape = (int(rng.integers(1, 12)), int(rng.integers(1, 12)))
        m = rng.normal(scale=3.0, size=shape)
        assert np.allclose(dual_softmax(m), dual_softmax_oracle(m), atol=TIGHT)


def test_dual_softmax_shift_invariance():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(8, 9)) * 4
    base = dual_softmax(m)
    for c in (-1000.0, -3.7, 0.5, 250.0):
        assert np.allclose(dual_softmax(m + c), base, atol=1e-12)


def test_dual_softmax_probability_range_and_factor_sums():
    rng = np.random.default_rng(6)
    m = rng.normal(size=(10, 14)) * 5
    p = dual_softmax(m)
    assert (p >= 0).all() and (p <= 1).all()
    assert np.allclose(row_softmax(m).sum(axis=1), 1.0, atol=TIGHT)
    assert np.allclose(col_softmax(m).sum(axis=0), 1.0, atol=TIGHT)


def test_dual_softmax_extreme_scores_no_overflow():
    m = np.array([[800.0, -800.0], [-800.0, 800.0]])
    p = dual_softmax(m)
    assert np.isfinite(p).all()
    assert p[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert p[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_sharpening_with_lower_temperature():
    """Lowering tau widens the top-two probability gap in rows whose best
    score is also dominant in its column (clear mutual matches)."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        base = rng.normal(size=(6, 6))
        np.fill_diagonal(base, 3.0 + rng.uniform(0, 1, size=6))  # dominant diagonal
        gaps = []
        for tau in (0.5, 0.25):
            p = dual_softmax(base / tau)
            top2 = np.sort(p, axis=1)[:, -2:]
            gaps.append(top2[:, 1] - top2[:, 0])
        assert (gaps[1] > gaps[0]).all()


# --- masking ----------------------------------------------------------------


def test_mask_ground_columns_zeroes_probability():
    rng = np.random.default_rng(8)
    m = ScoreMatrix(rng.normal(size=(6, 8)), 0.1, (2, 3), (2, 4))
    valid = np.array([True, False, True, True, False, True, True, False])
    masked = mask_ground_columns(m, valid)
    assert (masked.scores[:, ~valid] == MASK_SCORE).all()
    assert np.array_equal(masked.scores[:, valid], m.scores[:, valid])
    probs = match_probabilities(masked, z=0.0)
    assert (probs[:, ~valid] == 0.0).all()


def test_masked_columns_never_sampled_while_unmasked_remain():
    rng = np.random.default_rng(9)
    m = ScoreMatrix(rng.normal(size=(4, 6)), 0.1, (2, 2), (2, 3))
    valid = np.array([True, False, False, True, False, True])
    probs = match_probabilities(mask_ground_columns(m, valid), z=0.0)
    n_unmasked_entries = 4 * int(valid.sum())
    corrs = sample_correspondences(probs, n_unmasked_entries)
    assert len(corrs) == n_unmasked_entries
    assert valid[corrs.ground].all()


def test_all_columns_masked_gives_zero_probability_everywhere():
    m = ScoreMatrix(np.ones((3, 4)), 0.1, (3, 1), (2, 2))
    probs = match_probabilities(mask_ground_columns(m, np.zeros(4, bool)), z=0.0)
    assert (probs == 0.0).all()


# --- sampling ---------------------------------------------------------------


def test_sample_correspondences_orders_by_probability():
    probs = np.array([[0.5, 0.1], [0.3, 0.9]])
    corrs = sample_correspondences(probs, 3)
    assert corrs.weights.tolist() == [0.9, 0.5, 0.3]
    # flat cells: aerial (1, 0) of a 2x1 grid, ground (0, 1) of a 1x2 grid
    assert corrs.aerial[0] == 1 and corrs.ground[0] == 1


def test_sample_correspondences_tie_break_row_major():
    """All-equal probabilities fall back to row-major entry order."""
    probs = np.full((2, 2), 0.25)
    corrs = sample_correspondences(probs, 3)
    # flat cells of a 1x2 aerial and a 2x1 ground grid
    assert list(zip(corrs.aerial.tolist(), corrs.ground.tolist())) == [
        (0, 0),  # entry (0, 0): aerial (0, 0), ground (0, 0)
        (0, 1),  # entry (0, 1): aerial (0, 0), ground (1, 0)
        (1, 0),  # entry (1, 0): aerial (0, 1), ground (0, 0)
    ]


def test_sample_correspondences_short_matrix_and_bad_n():
    probs = np.array([[0.1, 0.2]])
    assert len(sample_correspondences(probs, 10)) == 2
    with pytest.raises(OutOfRange):
        sample_correspondences(probs, 0)


def test_pipeline_weights_match_manual_chain():
    """The composed helper equals running the stages by hand."""
    rng = np.random.default_rng(10)
    a = grid(3, 3, 6, rng)
    g = grid(2, 4, 6, rng, "ground")
    m = score_matrix(a, g, tau=0.2)
    manual = drop_dustbin(dual_softmax(augment_dustbin(m.scores, z=0.7)))
    composed = match_probabilities(m, z=0.7)
    assert np.array_equal(manual, composed)


# --- properties -------------------------------------------------------------

# few distinct values, so exact ties (and signed zeros) are the common case
TIED_VALUES = st.sampled_from([0.0, -0.0, 0.0, 1e-300, 0.25, 0.25, 0.5, 1.0, math.nan])


@given(st.lists(TIED_VALUES | st.floats(0.0, 1.0), min_size=1, max_size=60))
def test_top_n_equals_full_lexsort(values):
    """The partial selection equals a full sort of every entry: descending
    value, ties by ascending flat index, NaN last, for every n."""
    flat = np.array(values)
    reference = np.lexsort((np.arange(flat.size), -flat))
    for n in range(1, flat.size + 3):
        np.testing.assert_array_equal(top_n_flat_indices(flat, n), reference[:n])


@given(
    seed=st.integers(0, 2**32 - 1),
    n_ground=st.integers(1, 12),
    mask_bits=st.integers(0, 2**12 - 1),
    mode=st.sampled_from(["random", "all-valid", "single-valid"]),
    z=st.floats(-2.0, 2.0),
)
def test_compacted_probabilities_equal_masked_chain(seed, n_ground, mask_bits, mode, z):
    """Scoring only the valid ground columns gives the masked full-matrix
    chain's probabilities on those columns and the same positive matches."""
    rng = np.random.default_rng(seed)
    a = grid(3, 4, 5, rng)
    g = grid(1, n_ground, 5, rng, "ground")
    if mode == "all-valid":
        valid = np.ones(n_ground, dtype=bool)
    elif mode == "single-valid":
        valid = np.arange(n_ground) == mask_bits % n_ground
    else:
        valid = (mask_bits >> np.arange(n_ground)) & 1 == 1
        valid[mask_bits % n_ground] = True
    cols = np.flatnonzero(valid)
    full = match_probabilities(mask_ground_columns(score_matrix(a, g, 0.1), valid), z)
    valid_ground = FeatureGrid(g.flat()[cols][None], "ground")  # as the estimator does
    compact = match_probabilities(score_matrix(a, valid_ground, 0.1), z)
    np.testing.assert_allclose(compact, full[:, cols], rtol=0, atol=1e-15)
    assert (full[:, ~valid] == 0.0).all()

    n = full.size
    full_m, compact_m = (sample_correspondences(p, n) for p in (full, compact))
    full_pos, compact_pos = full_m.weights > 0.0, compact_m.weights > 0.0
    np.testing.assert_array_equal(full_m.aerial[full_pos], compact_m.aerial[compact_pos])
    np.testing.assert_array_equal(full_m.ground[full_pos], cols[compact_m.ground[compact_pos]])
