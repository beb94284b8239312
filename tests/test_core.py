"""Pair indexing, sample/correlation containers, empirical correlation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrgraph import (
    CorrelationMatrix,
    DegenerateInputError,
    SampleMatrix,
    empirical_correlation,
    flat_to_pair,
    num_pairs,
    pair_indices,
    pair_to_flat,
    standardize,
)
from corrgraph.core import _correlation


class TestPairIndexing:
    def test_num_pairs_values(self):
        assert num_pairs(2) == 1
        assert num_pairs(4) == 6
        assert num_pairs(26) == 325

    def test_flat_order_is_lexicographic(self):
        # p = 4: (1,2) (1,3) (1,4) (2,3) (2,4) (3,4)
        pairs = [flat_to_pair(k, 4) for k in range(6)]
        assert pairs == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        assert pair_to_flat(1, 2, 4) == 0
        assert pair_to_flat(3, 4, 4) == 5

    @given(st.integers(2, 64), st.data())
    def test_roundtrip(self, p, data):
        flat = data.draw(st.integers(0, num_pairs(p) - 1))
        i, j = flat_to_pair(flat, p)
        assert 1 <= i < j <= p
        assert pair_to_flat(i, j, p) == flat

    def test_invalid_pairs_raise(self):
        for i, j in [(2, 2), (3, 2), (0, 1), (1, 5)]:
            with pytest.raises(IndexError):
                pair_to_flat(i, j, 4)
        with pytest.raises(IndexError):
            flat_to_pair(6, 4)
        with pytest.raises(IndexError):
            flat_to_pair(-1, 4)

    def test_pair_indices_match_flat_enumeration(self):
        for p in (2, 5, 9):
            i, j = pair_indices(p)
            assert i.size == num_pairs(p)
            for flat in range(num_pairs(p)):
                assert (int(i[flat]) + 1, int(j[flat]) + 1) == flat_to_pair(flat, p)


class TestSampleMatrix:
    def test_shape_and_properties(self):
        s = SampleMatrix(np.arange(12.0).reshape(4, 3) ** 2)
        assert (s.n, s.p, s.m) == (4, 3, 3)

    def test_data_is_immutable(self):
        s = SampleMatrix(np.random.default_rng(0).normal(size=(5, 3)))
        with pytest.raises(ValueError):
            s.data[0, 0] = 1.0

    def test_takes_fresh_array(self):
        fresh = np.random.default_rng(1).normal(size=(5, 3))
        s = SampleMatrix(fresh)
        assert np.shares_memory(s.data, fresh)
        assert not fresh.flags.writeable and not s.data.flags.writeable
        # A view or a non-float64 array is not the matrix's own: it is copied.
        base = np.random.default_rng(2).normal(size=(5, 6))
        for other in (base[:, ::2], base[:, :3].astype(np.float32)):
            s = SampleMatrix(other)
            assert not np.shares_memory(s.data, other) and other.flags.writeable
            assert not s.data.flags.writeable

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            SampleMatrix(np.ones((1, 3)) * [[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError):
            SampleMatrix(np.array([[1.0], [2.0]]))

    def test_nonfinite_raises(self):
        data = np.random.default_rng(1).normal(size=(6, 3))
        data[2, 1] = np.nan
        with pytest.raises(ValueError):
            SampleMatrix(data)

    def test_constant_column_names_offender(self):
        data = np.random.default_rng(2).normal(size=(6, 3))
        data[:, 1] = 7.0
        with pytest.raises(DegenerateInputError) as info:
            SampleMatrix(data, column_names=("a", "b", "c"))
        assert "b" in str(info.value)
        assert info.value.column == 2

    @pytest.mark.parametrize("n, value", [(3, 0.1), (2000, 0.1), (500, 1e12 / 3)])
    def test_inexact_constant_column_raises(self, n, value):
        data = np.random.default_rng(4).normal(size=(n, 3))
        data[:, 2] = value
        assert data.var(axis=0)[2] > 0.0  # the mean rounds: the variance is rounding noise
        with pytest.raises(DegenerateInputError) as info:
            SampleMatrix(data, column_names=("a", "b", "c"))
        assert "c" in str(info.value)
        assert info.value.column == 3

    def test_underflowing_variance_raises(self):
        data = np.random.default_rng(5).normal(size=(5, 3))
        data[:, 0] = np.arange(5) * 1e-200
        with pytest.raises(DegenerateInputError) as info:
            SampleMatrix(data)
        assert info.value.column == 1

    def test_column_names_length_checked(self):
        with pytest.raises(ValueError):
            SampleMatrix(np.random.default_rng(3).normal(size=(4, 3)), column_names=("x",))


class TestCorrelationMatrix:
    def test_valid(self):
        c = CorrelationMatrix(np.array([[1.0, 0.3], [0.3, 1.0]]))
        assert c.p == 2 and c.m == 1
        assert c.pair_values() == pytest.approx([0.3])

    def test_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            CorrelationMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]))
        with pytest.raises(ValueError):
            CorrelationMatrix(np.array([[2.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            CorrelationMatrix(np.array([[1.0, 1.5], [1.5, 1.0]]))
        with pytest.raises(ValueError):
            CorrelationMatrix(np.ones((2, 3)))

    def test_pair_values_order(self):
        vals = np.array(
            [[1.0, 0.1, 0.2, 0.3], [0.1, 1.0, 0.4, 0.5], [0.2, 0.4, 1.0, 0.6], [0.3, 0.5, 0.6, 1.0]]
        )
        c = CorrelationMatrix(vals)
        assert c.pair_values() == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])


class TestEmpiricalCorrelation:
    def test_cached_once_per_sample(self):
        s = SampleMatrix(np.random.default_rng(9).normal(size=(30, 4)))
        first = _correlation(s)
        assert _correlation(s) is first
        assert np.array_equal(first.values, empirical_correlation(s).values)
        assert _correlation(SampleMatrix(s.data)) is not first

    def test_matches_corrcoef(self):
        rng = np.random.default_rng(10)
        data = rng.normal(size=(40, 5))
        got = empirical_correlation(SampleMatrix(data)).values
        assert np.allclose(got, np.corrcoef(data, rowvar=False), atol=1e-12)

    def test_duplicate_columns_hit_one(self):
        rng = np.random.default_rng(11)
        col = rng.normal(size=20)
        data = np.column_stack([col, 2.0 * col + 1.0, rng.normal(size=20)])
        corr = empirical_correlation(SampleMatrix(data)).values
        assert corr[0, 1] == pytest.approx(1.0)

    @settings(max_examples=50)
    @given(
        st.integers(0, 2**31),
        st.floats(0.1, 50.0),
        st.floats(-100.0, 100.0),
    )
    def test_affine_invariance(self, seed, scale, shift):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(15, 4))
        base = empirical_correlation(SampleMatrix(data)).values
        shifted = data.copy()
        shifted[:, 2] = scale * shifted[:, 2] + shift
        moved = empirical_correlation(SampleMatrix(shifted)).values
        assert np.allclose(base, moved, atol=1e-9)


def test_standardize_divisor_n():
    rng = np.random.default_rng(20)
    s = standardize(SampleMatrix(rng.normal(size=(30, 4)) * 3.0 + 1.0))
    assert np.allclose(s.data.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(s.data.var(axis=0), 1.0, atol=1e-12)


def test_standardize_holds_one_copy():
    samples = SampleMatrix(np.random.default_rng(21).normal(size=(20_000, 40)))
    tracemalloc.start()
    try:
        standardize(samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The centered copy, scaled in place, and one reduction temporary of its size.
    assert peak < 2.5 * samples.data.nbytes
