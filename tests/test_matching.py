"""Tests for grid feature matching and soft-assignment probabilities."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crossloc.errors import DimensionMismatch, OutOfRange, ZeroNormFeature
from crossloc.matching import (
    AerialMeta,
    FeatureGrid,
    augment_dustbin,
    col_softmax,
    dual_softmax,
    match_probabilities,
    row_softmax,
    sample_correspondences,
    score_matrix,
    soft_assign,
    top_n_flat_indices,
)
from oracles import MASK_SCORE, mask_ground_columns

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
    m = score_matrix(a.flat(), g.flat(), tau=0.1)
    assert np.allclose(m, 10.0, atol=TIGHT)


def test_score_matrix_range_and_scale_invariance():
    rng = np.random.default_rng(0)
    a = grid(4, 5, 8, rng)
    g = grid(3, 6, 8, rng, "ground")
    m = score_matrix(a.flat(), g.flat(), tau=0.1)
    assert m.shape == (20, 18)
    assert (np.abs(m) <= 1 / 0.1 + 1e-9).all()
    # cosine ignores feature magnitude
    m2 = score_matrix(a.flat() * 37.0, g.flat(), tau=0.1)
    assert np.allclose(m, m2, atol=TIGHT)


def test_score_matrix_orthogonal_features_score_zero():
    a = FeatureGrid(np.array([[[1.0, 0.0]]]), "aerial")
    g = FeatureGrid(np.array([[[0.0, 5.0]]]), "ground")
    m = score_matrix(a.flat(), g.flat(), tau=0.5)
    assert m[0, 0] == pytest.approx(0.0, abs=TIGHT)


def test_score_matrix_errors():
    rng = np.random.default_rng(1)
    a = grid(2, 2, 4, rng).flat()
    g = grid(2, 2, 5, rng, "ground").flat()
    with pytest.raises(DimensionMismatch):
        score_matrix(a, g, tau=0.1)
    with pytest.raises(ZeroNormFeature):
        score_matrix(a, np.zeros((1, 4)), tau=0.1)
    with pytest.raises(OutOfRange):
        score_matrix(a, grid(2, 2, 4, rng, "ground").flat(), tau=0.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.longdouble])
def test_score_matrix_keeps_the_float_type_and_batch_axis(dtype):
    """Scores come back in the features' float type; a stacked (K, n, dim)
    batch equals the per-matrix calls bit for bit."""
    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 5, 4)).astype(dtype)
    g = rng.normal(size=(3, 6, 4)).astype(dtype)
    m = score_matrix(a, g, tau=0.1)
    assert m.dtype == dtype and m.shape == (3, 5, 6)
    for i in range(3):
        np.testing.assert_array_equal(m[i], score_matrix(a[i], g[i], tau=0.1))


# --- dustbin ----------------------------------------------------------------


def test_augment_dustbin_layout():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    ext = augment_dustbin(m, z=0.0)
    assert ext.shape == (3, 3)
    assert np.array_equal(ext[:2, :2], m)
    assert (ext[2, :] == 0.0).all() and (ext[:, 2] == 0.0).all()


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


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 10), st.integers(1, 10)),
    spread=st.floats(0.0, 50.0),
    shift=st.floats(-1e3, 1e3),
)
def test_dual_softmax_shift_invariance_on_random_matrices(seed, shape, spread, shift):
    """Adding one constant to every entry changes each probability only by
    the rounding of the shifted entries (relative, or at the underflow
    floor for products of two tiny factors)."""
    m = np.random.default_rng(seed).normal(scale=spread, size=shape)
    np.testing.assert_allclose(dual_softmax(m + shift), dual_softmax(m), rtol=1e-10, atol=1e-300)


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


@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 4),
    n_a=st.integers(1, 20),
    n_g=st.integers(1, 20),
    dtype=st.sampled_from([np.float64, np.longdouble]),
    scalar_z=st.booleans(),
)
def test_batched_kernel_equals_per_matrix_calls(seed, k, n_a, n_g, dtype, scalar_z):
    """On a stacked (K, A, G) batch the dustbin and softmax steps, and the
    whole match_probabilities chain, keep the float type and equal the
    per-matrix calls bit for bit."""
    rng = np.random.default_rng(seed)
    scores = rng.normal(scale=5.0, size=(k, n_a, n_g)).astype(dtype)
    z = dtype(rng.normal()) if scalar_z else rng.normal(size=k).astype(dtype)
    extended = augment_dustbin(scores, z)
    assert extended.dtype == dtype and extended.shape == (k, n_a + 1, n_g + 1)
    for i in range(k):
        one = augment_dustbin(scores[i], z if scalar_z else z[i])
        assert one.dtype == dtype
        np.testing.assert_array_equal(extended[i], one)
    for fn in (row_softmax, col_softmax, dual_softmax):
        batched = fn(extended)
        assert batched.dtype == dtype
        for i in range(k):
            one = fn(extended[i])
            assert one.dtype == dtype
            np.testing.assert_array_equal(batched[i], one)
    probs = match_probabilities(scores, z)
    assert probs.dtype == dtype and probs.shape == scores.shape
    for i in range(k):
        one = match_probabilities(scores[i], z if scalar_z else z[i])
        np.testing.assert_array_equal(probs[i], one)


@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(0, 4),
    n_a=st.integers(1, 20),
    n_g=st.integers(1, 20),
    dtype=st.sampled_from([np.float64, np.longdouble]),
)
def test_whole_soft_assignment_is_match_probabilities(seed, k, n_a, n_g, dtype):
    """The product of ``soft_assign``'s two whole factors without the dustbin
    (what training contexts freeze their selection from) equals
    ``match_probabilities`` (gate 04's dual softmax, what inference runs)
    bit for bit, for one matrix (k = 0) and for a (k, A, G) batch."""
    rng = np.random.default_rng(seed)
    shape = (k, n_a, n_g) if k else (n_a, n_g)
    scores = rng.normal(scale=5.0, size=shape).astype(dtype)
    z = dtype(rng.normal())
    ra, cb = soft_assign(scores, z)
    assert ra.dtype == cb.dtype == dtype
    assert ra.shape == cb.shape == shape[:-2] + (n_a + 1, n_g + 1)
    # exact equality (long double's storage padding makes bytes unfit)
    np.testing.assert_array_equal(ra[..., :-1, :-1] * cb[..., :-1, :-1],
                                  match_probabilities(scores, z))


# --- masking ----------------------------------------------------------------


def test_mask_ground_columns_zeroes_probability():
    rng = np.random.default_rng(8)
    m = rng.normal(size=(6, 8))
    valid = np.array([True, False, True, True, False, True, True, False])
    masked = mask_ground_columns(m, valid)
    assert (masked[:, ~valid] == MASK_SCORE).all()
    assert np.array_equal(masked[:, valid], m[:, valid])
    probs = match_probabilities(masked, z=0.0)
    assert (probs[:, ~valid] == 0.0).all()


def test_masked_columns_never_sampled_while_unmasked_remain():
    rng = np.random.default_rng(9)
    m = rng.normal(size=(4, 6))
    valid = np.array([True, False, False, True, False, True])
    probs = match_probabilities(mask_ground_columns(m, valid), z=0.0)
    n_unmasked_entries = 4 * int(valid.sum())
    corrs = sample_correspondences(probs, n_unmasked_entries)
    assert len(corrs) == n_unmasked_entries
    assert valid[corrs.ground].all()


def test_all_columns_masked_gives_zero_probability_everywhere():
    m = np.ones((3, 4))
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
    m = score_matrix(a.flat(), g.flat(), tau=0.2)
    manual = dual_softmax(augment_dustbin(m, z=0.7))[:-1, :-1]
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
    scores = score_matrix(a.flat(), g.flat(), 0.1)
    full = match_probabilities(mask_ground_columns(scores, valid), z)
    # as the estimator does
    compact = match_probabilities(score_matrix(a.flat(), g.flat()[cols], 0.1), z)
    np.testing.assert_allclose(compact, full[:, cols], rtol=0, atol=1e-15)
    assert (full[:, ~valid] == 0.0).all()

    n = full.size
    full_m, compact_m = (sample_correspondences(p, n) for p in (full, compact))
    full_pos, compact_pos = full_m.weights > 0.0, compact_m.weights > 0.0
    np.testing.assert_array_equal(full_m.aerial[full_pos], compact_m.aerial[compact_pos])
    np.testing.assert_array_equal(full_m.ground[full_pos], cols[compact_m.ground[compact_pos]])
