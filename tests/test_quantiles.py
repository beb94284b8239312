"""Thresholds, Cholesky with jitter, and Monte Carlo / bootstrap quantiles."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import norm

from corrgraph import (
    DegenerateInputError,
    MaxRecords,
    NotPositiveDefiniteError,
    SampleMatrix,
    StatKind,
    StatVector,
    bootstrap_draw_matrix,
    cholesky_psd,
    gauss_draw_matrix,
    make_rng,
    max_gauss_quantile,
    quantile_from_draws,
    sidak_threshold,
)
from corrgraph import quantiles
from corrgraph.core import empirical_correlation, pair_indices, standardize
from corrgraph.quantiles import _fold_records, _max_quantile, _max_records, _reduce_draws
from corrgraph.stats import _transform, statistic


def loop_bootstrap_draws(samples, kind, draws, rng):
    """Reference bootstrap: one gather, centring and p x p GEMM per resample.

    Degenerate resamples (a zero-variance column, or a zero second-order
    theta) are skipped and the next indices of the stream are used instead.
    """
    n, p = samples.n, samples.p
    i, j = pair_indices(p)
    if kind is StatKind.SECOND_ORDER:
        x_full = standardize(samples).data
        z_full_mean = (x_full[:, i] * x_full[:, j]).mean(axis=0)
    else:
        t_hat = _transform(empirical_correlation(samples).pair_values(), n, kind)
    rows = []
    while len(rows) < draws:
        x = samples.data[rng.integers(0, n, size=n)]
        xc = x - x.mean(axis=0)
        norms = np.sqrt(np.einsum("ij,ij->j", xc, xc))
        if np.any(norms <= 0.0):
            continue
        if kind is StatKind.SECOND_ORDER:
            xs = xc / xc.std(axis=0)
            z = xs[:, i] * xs[:, j]
            theta = z.var(axis=0)
            if np.any(theta <= 0.0):
                continue
            rows.append(np.sqrt(n) * (z.mean(axis=0) - z_full_mean) / np.sqrt(theta))
        else:
            corr = (xc.T @ xc) / np.outer(norms, norms)
            rows.append(_transform(np.clip(corr[i, j], -1.0, 1.0), n, kind) - t_hat)
    return np.array(rows)


class TestClosedFormThresholds:
    def test_values_against_norm_ppf(self):
        m = 325
        want = norm.ppf(0.5 * (1 - 0.05) ** (1 / m) + 0.5)
        assert sidak_threshold(0.05, m) == pytest.approx(want, rel=1e-12)

    def test_m1_reduces_to_single_test(self):
        assert sidak_threshold(0.05, 1) == pytest.approx(norm.ppf(0.975), rel=1e-12)

    @given(st.floats(0.001, 0.5), st.integers(1, 1000))
    def test_sidak_below_bonferroni(self, alpha, m):
        # Sidak is exact under independence, Bonferroni conservative.
        assert sidak_threshold(alpha, m) <= norm.isf(alpha / (2 * m)) + 1e-12

    @pytest.mark.parametrize("alpha", [0.001, 0.05, 0.2, 0.9])
    def test_matches_ndtri_form(self, alpha):
        # The old form 0.5 (1 - alpha)^(1/m) + 0.5 rounds near 1, so the
        # cancellation-free tail differs from it by up to a few 1e-9.
        for m in (1, 2, 45, 325, 4950, 79800, 499500):
            old = ndtri(0.5 * (1.0 - alpha) ** (1.0 / m) + 0.5)
            assert sidak_threshold(alpha, m) == pytest.approx(old, rel=5e-9)

    def test_tiny_alpha_finite(self):
        # 1 - alpha rounds to 1, so the old form gave inf; the tail does not.
        for m in (1, 325):
            thr = sidak_threshold(1e-300, m)
            assert 37.0 < thr < 38.0
            assert thr == pytest.approx(norm.isf(0.5e-300 / m), rel=1e-12)

    def test_underflowing_tail_is_inf(self):
        assert sidak_threshold(5e-324, 10) == np.inf
        assert sidak_threshold(1e-310, 10**20) == np.inf

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            sidak_threshold(0.0, 5)
        with pytest.raises(ValueError):
            sidak_threshold(1.0, 5)
        with pytest.raises(ValueError):
            sidak_threshold(0.05, 0)


class TestCholeskyPsd:
    def test_pd_no_jitter(self):
        sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
        factor, eps = cholesky_psd(sigma)
        assert eps == 0.0
        assert np.allclose(factor @ factor.T, sigma, atol=1e-12)

    def test_rank_deficient_uses_jitter(self):
        v = np.array([1.0, 2.0, -1.0])
        sigma = np.outer(v, v)  # rank 1 PSD
        factor, eps = cholesky_psd(sigma)
        assert eps > 0.0
        assert np.allclose(factor @ factor.T, sigma, atol=1e-6)

    def test_rejects_bad_input(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_psd(np.ones((2, 3)))
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_psd(np.array([[1.0, 0.9], [0.1, 1.0]]))
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite

    def test_asymmetry_found_in_any_row_block(self):
        # The check compares row blocks with column blocks; put the one
        # asymmetric entry far from the first block, on either side.
        for a, b in ((1999, 3), (3, 1999)):
            sigma = np.eye(2000)
            sigma[a, b] = 1e-3
            with pytest.raises(NotPositiveDefiniteError, match="symmetric"):
                cholesky_psd(sigma)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_entry_refused(self, value):
        # On the diagonal or off it, far from the first row block, on one side
        # only (so sigma is asymmetric too) or on both: it is named as non-finite.
        for cells in (((1999, 1999),), ((1999, 3),), ((3, 1999),), ((3, 1999), (1999, 3))):
            sigma = np.eye(2000)
            for a, b in cells:
                sigma[a, b] = value
            with pytest.raises(NotPositiveDefiniteError,
                               match="^matrix contains non-finite entries$"):
                cholesky_psd(sigma)

    def test_jitter_goes_on_a_copy(self):
        g = np.random.default_rng(5).normal(size=(60, 20))
        sigma = g @ g.T  # rank 20
        before = sigma.copy()
        factor, eps = cholesky_psd(sigma)
        assert eps > 0.0
        assert np.array_equal(sigma, before)
        assert np.array_equal(factor, np.linalg.cholesky(sigma + eps * np.eye(60)))

    def test_peak_memory_is_the_factor(self):
        g = np.random.default_rng(6).normal(size=(2016, 40))
        sigma = g @ g.T / 40 + np.eye(2016)
        tracemalloc.start()
        try:
            factor, eps = cholesky_psd(sigma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert eps == 0.0
        assert peak < 1.3 * factor.nbytes


class TestQuantileFromDraws:
    def test_rank_convention(self):
        # B = 10 maxima 1..10; rank = ceil(0.95 * 10) = 10 -> value 10.
        dm = np.arange(1.0, 11.0)[:, None]
        assert quantile_from_draws(dm, 0.05) == 10.0
        assert quantile_from_draws(dm, 0.10) == 9.0
        assert quantile_from_draws(dm, 0.101) == 9.0

    def test_uses_abs_and_subset(self):
        dm = np.array([[1.0, -5.0], [2.0, 0.5], [-3.0, 0.1], [0.0, 0.2]])
        # B = 4, alpha = 0.5: rank ceil(2) = 2nd smallest of the |.| maxima.
        assert quantile_from_draws(dm, 0.5, subset=[0]) == 1.0
        assert quantile_from_draws(dm, 0.5, subset=[1]) == 0.2
        assert quantile_from_draws(dm, 0.5, subset=[0, 1]) == 2.0

    @settings(max_examples=50)
    @given(st.integers(0, 2**31), st.data())
    def test_subset_monotone_exact(self, seed, data):
        rng = np.random.default_rng(seed)
        m = 6
        dm = rng.normal(size=(40, m))
        small = data.draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=m))
        big = small | data.draw(st.sets(st.integers(0, m - 1), max_size=m))
        q_small = quantile_from_draws(dm, 0.1, sorted(small))
        q_big = quantile_from_draws(dm, 0.1, sorted(big))
        assert q_small <= q_big

    def test_bad_subset(self):
        dm = np.zeros((5, 2)) + 1.0
        with pytest.raises(ValueError):
            quantile_from_draws(dm, 0.05, subset=[])
        with pytest.raises(IndexError):
            quantile_from_draws(dm, 0.05, subset=[2])
        with pytest.raises(ValueError):
            quantile_from_draws(dm, 1.5)

    def test_mask_and_float_subsets_refused(self):
        # Read as indexes, the mask [F, F, F, T] would be the pairs {0, 1} and
        # the float 1.7 pair 1; the pair the mask names gives 7.0 at alpha = 0.5.
        dm = np.arange(12.0).reshape(3, 4)
        mask = np.array([False, False, False, True])
        assert quantile_from_draws(dm, 0.5, np.flatnonzero(mask)) == 7.0
        for subset in (mask, [1.7], np.array([1.0])):
            with pytest.raises(ValueError, match="integer pair indexes"):
                quantile_from_draws(dm, 0.5, subset)
        assert quantile_from_draws(dm, 0.5, np.array([3], dtype=np.uint8)) == 7.0

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.37])
    def test_matches_sorted_order_statistic(self, alpha):
        rng = np.random.default_rng(21)
        dm = rng.normal(size=(333, 12))
        subset = [7, 2, 2, 11, 0, 7]
        maxima = np.abs(dm[:, sorted(set(subset))]).max(axis=1)
        want = np.sort(maxima)[int(np.ceil((1 - alpha) * 333)) - 1]
        assert quantile_from_draws(dm, alpha, subset) == want

    def test_chunked_scan_matches_gather(self):
        # The column-chunked running max equals the max of one gathered
        # B x |subset| copy, bit for bit, on subsets spanning many chunks.
        rng = np.random.default_rng(22)
        dm = rng.normal(size=(1000, 700))
        for size in (1, 65, 66, 300, 700):
            subset = np.sort(rng.choice(700, size=size, replace=False))
            for alpha in (0.05, 0.2):
                want = _max_quantile(np.abs(dm[:, subset]).max(axis=1), alpha)
                assert quantile_from_draws(dm, alpha, subset) == want

    def test_scan_holds_no_copy_of_the_draws(self):
        dm = np.random.default_rng(23).normal(size=(1000, 4950))
        tracemalloc.start()
        try:
            quantile_from_draws(dm, 0.05, np.arange(0, 4950, 2))
            quantile_from_draws(dm, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * dm.nbytes


def fold_by_columns(draws, order, widths):
    """MaxRecords of ``draws`` folded in column chunks of the given widths, in ``order``.

    The fold reads each chunk pairs by rows, and overwrites it.
    """
    b, m = draws.shape
    carry, parts, a = np.full(b, -np.inf), [], 0
    for width in [*widths, m]:
        if a < m:
            rows, positions, values = _fold_records(draws[:, order[a : a + width]].T.copy(), carry)
            parts.append((rows, positions + a, values))
            a += width
    return _max_records(order, b, parts)


def fold_by_rows(draws, order, rows):
    """MaxRecords of ``draws`` folded in row blocks of ``rows`` rows, columns in ``order``."""
    b = draws.shape[0]
    parts = []
    for a in range(0, b, rows):
        local, positions, values = _fold_records(draws[a : a + rows][:, order].T.copy(),
                                                 np.full(min(rows, b - a), -np.inf))
        parts.append((local + a, positions, values))
    return _max_records(order, b, parts)


class TestMaxRecords:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31), b=st.sampled_from([100, 1000]),
           m=st.integers(1, 60), levels=st.integers(1, 8), data=st.data())
    def test_prefix_quantile_matches_scan(self, seed, b, m, levels, data):
        # |T| on a few levels, so ties are common; the draws are rounded too,
        # so a running max often stays level.  Every alive set {|T| <= c} is a
        # prefix of the stable |T| order, of length searchsorted(.., "right").
        rng = np.random.default_rng(seed)
        t_abs = rng.integers(0, levels, size=m).astype(float)
        draws = np.round(rng.normal(size=(b, m)), 1)
        dm = draws.copy()
        order = np.argsort(t_abs, kind="stable")
        widths = data.draw(st.lists(st.integers(1, 17), min_size=1, max_size=8))
        rows = data.draw(st.integers(1, b))
        by_cols, by_rows = fold_by_columns(draws, order, widths), fold_by_rows(draws, order, rows)
        assert np.array_equal(by_cols.positions, by_rows.positions)
        assert np.array_equal(by_cols.values, by_rows.values)
        assert by_cols.positions.dtype == np.int32 and by_cols.values.dtype == np.float64
        sorted_t = t_abs[order]
        for cut in data.draw(st.lists(st.integers(0, levels - 1), min_size=1, max_size=4)):
            length = int(np.searchsorted(sorted_t, cut, "right"))
            if length == 0:
                continue
            assert set(order[:length].tolist()) == set(np.flatnonzero(t_abs <= cut).tolist())
            for alpha in (0.05, 0.3):
                want = quantile_from_draws(dm, alpha, np.flatnonzero(t_abs <= cut))
                assert by_cols.quantile(alpha, length) == want

    def test_records_are_the_strict_rises(self):
        draws = np.array([[1.0, -1.0, 2.0, 0.5, -3.0], [0.0, 0.0, -0.0, 0.0, 0.0]])
        rec = fold_by_columns(draws, np.arange(5), [2, 1])
        assert rec.starts.tolist() == [0, 3]
        assert rec.positions.tolist() == [0, 2, 4, 0]
        assert rec.values.tolist() == [1.0, 2.0, 3.0, 0.0]
        assert (rec.b, rec.m) == (2, 5)
        with pytest.raises(ValueError):
            rec.values[0] = 9.0
        with pytest.raises(ValueError, match="prefix length"):
            rec.quantile(0.05, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_draw_refused(self, bad):
        draws = np.random.default_rng(1).normal(size=(10, 6))
        draws[4, 3] = bad
        for fold in (lambda: fold_by_columns(draws, np.arange(6), [2]),
                     lambda: fold_by_rows(draws, np.arange(6), 3)):
            with pytest.raises(ValueError, match="draw matrix contains non-finite entries"):
                fold()


def cut_blocks(draws, rows, row_cuts, pair_cuts):
    """Fisher blocks (kind, rows, pairs, block) of the draw rows ``rows`` (indexes), cut
    before the positions ``row_cuts`` of ``rows`` and before the pairs ``pair_cuts``."""
    row_cuts, pair_cuts = sorted({0, rows.size, *row_cuts}), sorted({0, draws.shape[1], *pair_cuts})
    return [(StatKind.FISHER, rows[r0:r1], slice(q0, q1), draws[rows[r0:r1], q0:q1])
            for r0, r1 in zip(row_cuts, row_cuts[1:]) for q0, q1 in zip(pair_cuts, pair_cuts[1:])]


class TestReducer:
    """_reduce_draws on blocks of a known draw matrix, cut and ordered at random."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31), b=st.integers(1, 40), m=st.integers(1, 150),
           levels=st.integers(1, 5), held=st.integers(1, 60), data=st.data())
    def test_records_merged_from_blocks_in_any_order(self, seed, b, m, levels, held, data):
        # |T| and the draws on a few levels, so both tie often.  The blocks cut
        # rows and pairs at random and come in a random order.  Some rows are
        # first drawn as noise and dropped, as a bootstrap redraw is, and a
        # small bound on the candidates held forces merges along the way.
        rng = np.random.default_rng(seed)
        sv = StatVector(StatKind.FISHER, rng.integers(-levels, levels + 1, size=m).astype(float),
                        100)
        draws = rng.integers(-levels, levels + 1, size=(b, m)) / 2.0
        redo = np.flatnonzero(rng.random(b) < data.draw(st.sampled_from([0.0, 0.3])))
        noisy = draws.copy()
        noisy[redo] = 50.0 + rng.random((redo.size, m))

        def cuts(size):
            return data.draw(st.lists(st.integers(0, size), max_size=4))

        first = cut_blocks(noisy, np.arange(b), cuts(b), cuts(m))
        stream = data.draw(st.permutations(first))
        if redo.size:
            again = cut_blocks(draws, redo, cuts(redo.size), cuts(m))
            stream += [(StatKind.FISHER, redo, None, None)] + data.draw(st.permutations(again))
        with mock.patch.object(quantiles, "_HELD_CANDIDATES", held):
            rec = _reduce_draws(iter(stream), (StatKind.FISHER,), True, b, m,
                                stats=sv)
        order = np.argsort(np.abs(sv.values), kind="stable")
        prefix = np.maximum.accumulate(np.abs(draws[:, order]), axis=1)
        rise = np.ones((b, m), dtype=bool)
        rise[:, 1:] = prefix[:, 1:] > prefix[:, :-1]
        rows, positions = np.nonzero(rise)
        assert np.array_equal(rec.order, order)
        assert np.array_equal(rec.starts, np.searchsorted(rows, np.arange(b)))
        assert np.all(rec.positions[rec.starts] == 0)
        assert np.array_equal(rec.positions, positions)
        assert np.array_equal(rec.values, prefix[rise])

    def test_later_block_of_the_same_rank_bin_keeps_a_record(self):
        # Ranks 16..19 share a bin of the fold's floors.  Pairs 18.. come
        # first with a large draw at rank 18; the draw 5 at rank 16, which
        # comes later, is still a record: only lower bins floor its segment.
        sv = StatVector(StatKind.FISHER, np.arange(40.0), 100)
        draws = np.full((1, 40), 0.1)
        draws[0, 16], draws[0, 18] = 5.0, 9.0
        blocks = [(StatKind.FISHER, slice(None), pairs, draws[:, pairs].copy())
                  for pairs in (slice(18, 40), slice(0, 18))]
        rec = _reduce_draws(iter(blocks), (StatKind.FISHER,), True, 1, 40,
                            stats=sv)
        assert rec.positions.tolist() == [0, 16, 18]
        assert rec.values.tolist() == [0.1, 5.0, 9.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("stepdown", [True, False])
    def test_non_finite_draw_refused(self, bad, stepdown):
        draws = np.random.default_rng(1).normal(size=(10, 40))
        draws[4, 33] = bad
        sv = StatVector(StatKind.FISHER, np.arange(40.0), 100)
        blocks = cut_blocks(draws, np.arange(10), [5], [20])[::-1]
        with pytest.raises(ValueError, match="draw matrix contains non-finite entries"):
            _reduce_draws(iter(blocks), (StatKind.FISHER,), True, 10, 40, stats=sv,
                          stepdown=stepdown)


class TestMemoryGuard:
    """A draw count whose held arrays exceed physical memory (64 MB here) is
    refused before the route is asked for its first block."""

    class Reached(Exception):
        pass

    @pytest.fixture(autouse=True)
    def small_machine(self, monkeypatch):
        def first_block(*args, **kwargs):
            raise self.Reached
            yield

        monkeypatch.setattr(quantiles, "_bootstrap_blocks", first_block)
        monkeypatch.setattr(quantiles, "_perturbation_blocks", first_block)
        monkeypatch.setattr(quantiles.os, "sysconf",
                            lambda name: 4096 if name == "SC_PAGE_SIZE" else (1 << 26) // 4096)

    def test_gauss_row_maxima_of_four_kinds(self):
        # 3M row maxima take 24 MB for one kind and 96 MB for four.
        svs = tuple(StatVector(kind, np.arange(6.0), 100) for kind in StatKind)
        with pytest.raises(self.Reached):
            gauss_draw_matrix(np.eye(4), StatKind.FISHER, 3_000_000, make_rng(1),
                              stats=svs[2], stepdown=False)
        with pytest.raises(ValueError, match=r"^maxt needs about 0\.1 GB for 3000000 draws at m=6, "
                                             r"more than the 0\.1 GB of physical memory"):
            gauss_draw_matrix(np.eye(4), tuple(StatKind), 3_000_000, make_rng(1), stats=svs,
                              stepdown=False)

    def test_bootstrap_draw_matrices_of_four_kinds(self):
        # 150k resamples of n = 10 rows: 42 floats of count weights and block
        # temporaries per draw, and 6 per kind for its draw matrix row.
        samples = SampleMatrix(np.random.default_rng(2).normal(size=(10, 4)))
        with pytest.raises(self.Reached):
            bootstrap_draw_matrix(samples, StatKind.FISHER, 150_000, make_rng(0))
        with pytest.raises(ValueError, match=r"^bootrw needs about 0\.1 GB for 150000 draws"):
            bootstrap_draw_matrix(samples, tuple(StatKind), 150_000, make_rng(0))


class TestMaxGaussQuantile:
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_sigma_refused(self, value):
        with pytest.raises(NotPositiveDefiniteError, match="non-finite"):
            max_gauss_quantile(np.array([[1.0, 0.0], [0.0, value]]), 0.05, 1000, make_rng(0))

    def test_scalar_case_matches_normal_quantile(self):
        threshold, _ = max_gauss_quantile(np.eye(1), 0.05, 40000, make_rng(3))
        assert threshold == pytest.approx(norm.ppf(0.975), abs=0.03)

    def test_deterministic_in_seed(self):
        sigma = np.eye(4)
        a = max_gauss_quantile(sigma, 0.05, 1000, make_rng(1))[0]
        b = max_gauss_quantile(sigma, 0.05, 1000, make_rng(1))[0]
        c = max_gauss_quantile(sigma, 0.05, 1000, make_rng(2))[0]
        assert a == b
        assert a != c

    def test_minimum_draws_enforced(self):
        with pytest.raises(ValueError):
            max_gauss_quantile(np.eye(2), 0.05, 99, make_rng(0))

    def test_not_psd_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            max_gauss_quantile(np.array([[1.0, 2.0], [2.0, 1.0]]), 0.05, 200, make_rng(0))


class TestBootstrap:
    @pytest.fixture()
    def samples(self):
        rng = np.random.default_rng(77)
        return SampleMatrix(rng.normal(size=(60, 4)))

    @pytest.mark.parametrize("kind", list(StatKind))
    def test_shape_and_centering(self, samples, kind):
        dm = bootstrap_draw_matrix(samples, kind, 200, make_rng(4))
        assert dm.shape == (200, samples.m) and dm.dtype == np.float64
        # Centered at the full-sample estimate: means near 0 at scale
        # sd/sqrt(B) ~ 0.07.
        assert np.max(np.abs(dm.mean(axis=0))) < 0.5

    def test_deterministic_in_seed(self, samples):
        a = bootstrap_draw_matrix(samples, StatKind.EMPIRICAL, 60, make_rng(5))
        b = bootstrap_draw_matrix(samples, StatKind.EMPIRICAL, 60, make_rng(5))
        c = bootstrap_draw_matrix(samples, StatKind.EMPIRICAL, 60, make_rng(6))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_minimum_draws(self, samples):
        with pytest.raises(ValueError):
            bootstrap_draw_matrix(samples, StatKind.EMPIRICAL, 49, make_rng(0))

    def test_degenerate_resamples_raise(self, samples):
        class StuckRng:
            def integers(self, low, high, size):
                return np.zeros(size, dtype=int)  # always resample row 0

        with pytest.raises(DegenerateInputError):
            bootstrap_draw_matrix(samples, StatKind.EMPIRICAL, 50, StuckRng())

    @pytest.mark.parametrize("kind", list(StatKind))
    @pytest.mark.parametrize("n,p", [(59, 4), (60, 4), (500, 26)])
    def test_matches_per_resample_loop(self, kind, n, p):
        data = np.random.default_rng(n * p).normal(size=(n, p)) @ (np.eye(p) + 0.2)
        samples = SampleMatrix(data)
        got = bootstrap_draw_matrix(samples, kind, 100, make_rng(9))
        want = loop_bootstrap_draws(samples, kind, 100, make_rng(9))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("kind", list(StatKind))
    def test_degenerate_row_redrawn_from_stream(self, samples, kind):
        class FirstRowStuck:
            """A real stream whose first resample repeats one row."""

            def __init__(self):
                self.rng = make_rng(11)
                self.sizes = []

            def integers(self, low, high, size):
                out = self.rng.integers(low, high, size=size)
                if not self.sizes:
                    out[0] = 0
                self.sizes.append(size)
                return out

        rng = FirstRowStuck()
        got = bootstrap_draw_matrix(samples, kind, 60, rng)
        assert rng.sizes == [(60, samples.n), (1, samples.n)]
        assert np.all(np.isfinite(got))
        # The stream's 61st resample replaces row 0; rows 1..59 are unchanged.
        want = loop_bootstrap_draws(samples, kind, 61, make_rng(11))
        np.testing.assert_allclose(got[1:], want[1:60], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(got[0], want[60], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n,p", [(60, 4), (500, 26)])
    def test_tuple_matches_single_kind_calls(self, n, p):
        # No second-order theta falls to the redraw level on these samples, so
        # every kind, second-order included, equals its single-kind call.
        samples = SampleMatrix(np.random.default_rng(n + p).normal(size=(n, p)) @ (np.eye(p) + 0.2))
        plain = (StatKind.EMPIRICAL, StatKind.STUDENT, StatKind.FISHER)
        for kinds in (plain, plain[::-1] + (StatKind.SECOND_ORDER,), (StatKind.SECOND_ORDER,)):
            got = bootstrap_draw_matrix(samples, kinds, 100, make_rng(9))
            assert isinstance(got, tuple) and len(got) == len(kinds)
            for kind, dm in zip(kinds, got):
                want = bootstrap_draw_matrix(samples, kind, 100, make_rng(9))
                assert np.array_equal(dm, want), kind

    def test_degenerate_row_redrawn_for_every_kind(self, samples):
        class FirstRowStuck:
            def __init__(self):
                self.rng = make_rng(11)
                self.sizes = []

            def integers(self, low, high, size):
                out = self.rng.integers(low, high, size=size)
                if not self.sizes:
                    out[0] = 0
                self.sizes.append(size)
                return out

        rng = FirstRowStuck()
        got = bootstrap_draw_matrix(samples, tuple(StatKind), 60, rng)
        assert rng.sizes == [(60, samples.n), (1, samples.n)]
        for kind, dm in zip(StatKind, got):
            want = bootstrap_draw_matrix(samples, kind, 60, FirstRowStuck())
            assert np.array_equal(dm, want), kind


class FirstResampleStuck:
    """A real stream whose first resample repeats one row, so it is redrawn."""

    def __init__(self, seed):
        self.rng = make_rng(seed)
        self.sizes = []

    def integers(self, low, high, size):
        out = self.rng.integers(low, high, size=size)
        if not self.sizes:
            out[0] = 0
        self.sizes.append(size)
        return out


class TestBootstrapRecords:
    """Step-down bootstrap records against the scan of its B x m draws."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31), levels=st.integers(1, 6), shared=st.booleans())
    def test_records_match_scan_on_every_alive_prefix(self, seed, levels, shared):
        # |T| on a few levels, so ties are common; with ``shared`` the plain
        # kinds have one |T| order and share their chunks.  m = 171 pairs is
        # two chunks, and the first resample is redrawn.
        samples = SampleMatrix(np.random.default_rng(seed).normal(size=(40, 19))
                               @ (np.eye(19) + 0.2))
        gen, m = np.random.default_rng(seed + 1), samples.m
        common = gen.integers(-levels, levels + 1, size=m).astype(float)
        svs = tuple(StatVector(kind, common if shared and kind is not StatKind.SECOND_ORDER
                               else gen.integers(-levels, levels + 1, size=m).astype(float),
                               samples.n) for kind in StatKind)
        rng = FirstResampleStuck(seed)
        recs = bootstrap_draw_matrix(samples, tuple(StatKind), 60, rng, stats=svs)
        assert rng.sizes == [(60, samples.n), (1, samples.n)]
        mats = bootstrap_draw_matrix(samples, tuple(StatKind), 60, FirstResampleStuck(seed))
        for sv, rec, dm in zip(svs, recs, mats):
            assert isinstance(rec, MaxRecords) and (rec.b, rec.m) == (60, m)
            t_abs = np.abs(sv.values)
            assert np.array_equal(rec.order, np.argsort(t_abs, kind="stable"))
            for cut in range(levels + 1):
                length = int(np.searchsorted(t_abs[rec.order], cut, "right"))
                if length == 0:
                    continue
                for alpha in (0.05, 0.3):
                    want = quantile_from_draws(dm, alpha, np.flatnonzero(t_abs <= cut))
                    assert rec.quantile(alpha, length) == want

    def test_single_kind_matches_tuple(self):
        samples = SampleMatrix(np.random.default_rng(3).normal(size=(50, 9)))
        svs = tuple(statistic(samples, kind) for kind in StatKind)
        recs = bootstrap_draw_matrix(samples, tuple(StatKind), 80, make_rng(2), stats=svs)
        for sv, rec in zip(svs, recs):
            alone = bootstrap_draw_matrix(samples, sv.kind, 80, make_rng(2), stats=sv)
            assert np.array_equal(rec.positions, alone.positions)
            assert np.array_equal(rec.values, alone.values)

    def test_mismatched_statistics_refused(self):
        samples = SampleMatrix(np.random.default_rng(3).normal(size=(50, 5)))
        sv = statistic(samples, StatKind.FISHER)
        for stepdown in (False, True):
            with pytest.raises(ValueError, match="do not match"):
                bootstrap_draw_matrix(samples, StatKind.STUDENT, 60, make_rng(0), stats=sv,
                                      stepdown=stepdown)


def test_draw_matrix_validation():
    # A draw matrix is B x m with B, m >= 1 and finite in what is read.
    for draws, m in ((np.zeros(5) + 1.0, 5), (np.zeros((0, 5)), 5), (np.zeros((5, 0)), 0)):
        with pytest.raises(ValueError, match="B x m"):
            quantile_from_draws(draws, 0.05)
        with pytest.raises(ValueError, match="B x m"):
            MaxRecords.from_draws(draws, StatVector(StatKind.FISHER, np.arange(m * 1.0), 100))
    sv = StatVector(StatKind.FISHER, np.arange(1.0, 6.0), 100)
    for bad in (np.nan, np.inf, -np.inf):
        draws = np.ones((4, 5))
        draws[2, 3] = bad
        with pytest.raises(ValueError, match="draw matrix contains non-finite entries"):
            quantile_from_draws(draws, 0.05)
        assert quantile_from_draws(draws, 0.05, [0, 4]) == 1.0  # only the subset is read
        with pytest.raises(ValueError, match="draw matrix contains non-finite entries"):
            MaxRecords.from_draws(draws, sv)


def test_records_from_draws_copy_them():
    # The draws are left as they were; the records answer every prefix,
    # the single-step rule's over all m pairs among them.
    draws = -np.random.default_rng(3).random((50, 5))
    before = draws.copy()
    sv = StatVector(StatKind.FISHER, np.arange(5.0), 100)
    rec = MaxRecords.from_draws(draws, sv)
    assert np.array_equal(draws, before)
    assert (rec.b, rec.m) == (50, 5) and rec.order is not None
    for length in range(1, 6):
        assert rec.quantile(0.1, length) == quantile_from_draws(draws, 0.1, rec.order[:length])
    with pytest.raises(ValueError, match="do not match"):
        MaxRecords.from_draws(draws[:, :4], sv)


def test_records_from_draws_any_chunk_width():
    # Chunks of 1, 3 and 7 columns of draws on tied |T| give the records of
    # one chunk, which answer every prefix as the scan does.
    rng = np.random.default_rng(25)
    draws = np.round(rng.normal(size=(40, 23)) * 2.0, 1)
    sv = StatVector(StatKind.FISHER, rng.integers(-3, 4, size=23) * 1.5, 100)
    whole = MaxRecords.from_draws(draws, sv)
    for length in range(1, 24):
        assert whole.quantile(0.1, length) == quantile_from_draws(draws, 0.1, whole.order[:length])
    for cols in (1, 3, 7):
        with mock.patch.object(quantiles, "_SCAN_ENTRIES", 40 * cols):
            rec = MaxRecords.from_draws(draws, sv)
        for name in ("order", "starts", "positions", "values"):
            assert np.array_equal(getattr(rec, name), getattr(whole, name)), (cols, name)


def test_records_from_draws_hold_no_copy_of_the_draws():
    # Column chunks are copied one at a time: the peak stays well under the
    # draws (B=1000, m=4950 in chunks of 65 columns), and the records match
    # the scan.
    rng = np.random.default_rng(24)
    dm = rng.normal(size=(1000, 4950))
    sv = StatVector(StatKind.FISHER, rng.normal(size=4950) * 3.0, 100)
    tracemalloc.start()
    try:
        rec = MaxRecords.from_draws(dm, sv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * dm.nbytes
    for length in (1, 100, 4950):
        assert rec.quantile(0.05, length) == quantile_from_draws(dm, 0.05, rec.order[:length])
