"""Thresholds, Cholesky with jitter, and Monte Carlo / bootstrap quantiles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from corrgraph import (
    DegenerateInputError,
    DrawMatrix,
    NotPositiveDefiniteError,
    SampleMatrix,
    StatKind,
    bootstrap_draw_matrix,
    cholesky_psd,
    make_rng,
    max_gauss_quantile,
    quantile_from_draws,
    sidak_threshold,
)
from corrgraph.core import empirical_correlation, pair_indices, standardize
from corrgraph.stats import _transform


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


class TestQuantileFromDraws:
    def test_rank_convention(self):
        # B = 10 maxima 1..10; rank = ceil(0.95 * 10) = 10 -> value 10.
        draws = np.arange(1.0, 11.0)[:, None]
        dm = DrawMatrix(draws, provenance="parametric-gaussian")
        assert quantile_from_draws(dm, 0.05) == 10.0
        assert quantile_from_draws(dm, 0.10) == 9.0
        assert quantile_from_draws(dm, 0.101) == 9.0

    def test_uses_abs_and_subset(self):
        dm = DrawMatrix(np.array([[1.0, -5.0], [2.0, 0.5], [-3.0, 0.1], [0.0, 0.2]]),
                        provenance="parametric-gaussian")
        # B = 4, alpha = 0.5: rank ceil(2) = 2nd smallest of the |.| maxima.
        assert quantile_from_draws(dm, 0.5, subset=[0]) == 1.0
        assert quantile_from_draws(dm, 0.5, subset=[1]) == 0.2
        assert quantile_from_draws(dm, 0.5, subset=[0, 1]) == 2.0

    @settings(max_examples=50)
    @given(st.integers(0, 2**31), st.data())
    def test_subset_monotone_exact(self, seed, data):
        rng = np.random.default_rng(seed)
        m = 6
        dm = DrawMatrix(rng.normal(size=(40, m)), provenance="parametric-gaussian")
        small = data.draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=m))
        big = small | data.draw(st.sets(st.integers(0, m - 1), max_size=m))
        q_small = quantile_from_draws(dm, 0.1, sorted(small))
        q_big = quantile_from_draws(dm, 0.1, sorted(big))
        assert q_small <= q_big

    def test_bad_subset(self):
        dm = DrawMatrix(np.zeros((5, 2)) + 1.0, provenance="parametric-gaussian")
        with pytest.raises(ValueError):
            quantile_from_draws(dm, 0.05, subset=[])
        with pytest.raises(IndexError):
            quantile_from_draws(dm, 0.05, subset=[2])
        with pytest.raises(ValueError):
            quantile_from_draws(dm, 1.5)

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.37])
    def test_matches_sorted_order_statistic(self, alpha):
        rng = np.random.default_rng(21)
        dm = DrawMatrix(rng.normal(size=(333, 12)), provenance="parametric-gaussian")
        subset = [7, 2, 2, 11, 0, 7]
        maxima = np.abs(dm.draws[:, sorted(set(subset))]).max(axis=1)
        want = np.sort(maxima)[int(np.ceil((1 - alpha) * 333)) - 1]
        assert quantile_from_draws(dm, alpha, subset) == want


class TestMaxGaussQuantile:
    def test_scalar_case_matches_normal_quantile(self):
        est = max_gauss_quantile(np.eye(1), 0.05, 40000, seed=3)
        assert est.value == pytest.approx(norm.ppf(0.975), abs=0.03)

    def test_deterministic_in_seed(self):
        sigma = np.eye(4)
        a = max_gauss_quantile(sigma, 0.05, 1000, seed=1).value
        b = max_gauss_quantile(sigma, 0.05, 1000, seed=1).value
        c = max_gauss_quantile(sigma, 0.05, 1000, seed=2).value
        assert a == b
        assert a != c

    def test_minimum_draws_enforced(self):
        with pytest.raises(ValueError):
            max_gauss_quantile(np.eye(2), 0.05, 99)

    def test_not_psd_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            max_gauss_quantile(np.array([[1.0, 2.0], [2.0, 1.0]]), 0.05, 200)


class TestBootstrap:
    @pytest.fixture()
    def samples(self):
        rng = np.random.default_rng(77)
        return SampleMatrix(rng.normal(size=(60, 4)))

    @pytest.mark.parametrize("kind", list(StatKind))
    def test_shape_and_centering(self, samples, kind):
        dm = bootstrap_draw_matrix(samples, kind, 200, seed=4)
        assert dm.b == 200 and dm.m == samples.m
        assert dm.provenance == "nonparametric-bootstrap"
        # Centered at the full-sample estimate: means near 0 at scale
        # sd/sqrt(B) ~ 0.07.
        assert np.max(np.abs(dm.draws.mean(axis=0))) < 0.5

    def test_deterministic_in_seed(self, samples):
        a = bootstrap_draw_matrix(samples, StatKind.EMPIRICAL, 60, seed=5)
        b = bootstrap_draw_matrix(samples, StatKind.EMPIRICAL, 60, seed=5)
        c = bootstrap_draw_matrix(samples, StatKind.EMPIRICAL, 60, seed=6)
        assert np.array_equal(a.draws, b.draws)
        assert not np.array_equal(a.draws, c.draws)

    def test_minimum_draws(self, samples):
        with pytest.raises(ValueError):
            bootstrap_draw_matrix(samples, StatKind.EMPIRICAL, 49)

    def test_degenerate_resamples_raise(self, samples):
        class StuckRng:
            def integers(self, low, high, size):
                return np.zeros(size, dtype=int)  # always resample row 0

        with pytest.raises(DegenerateInputError):
            bootstrap_draw_matrix(samples, StatKind.EMPIRICAL, 50, rng=StuckRng())

    @pytest.mark.parametrize("kind", list(StatKind))
    @pytest.mark.parametrize("n,p", [(59, 4), (60, 4), (500, 26)])
    def test_matches_per_resample_loop(self, kind, n, p):
        data = np.random.default_rng(n * p).normal(size=(n, p)) @ (np.eye(p) + 0.2)
        samples = SampleMatrix(data)
        got = bootstrap_draw_matrix(samples, kind, 100, seed=9).draws
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
        got = bootstrap_draw_matrix(samples, kind, 60, rng=rng).draws
        assert rng.sizes == [(60, samples.n), (1, samples.n)]
        assert np.all(np.isfinite(got))
        # The stream's 61st resample replaces row 0; rows 1..59 are unchanged.
        want = loop_bootstrap_draws(samples, kind, 61, make_rng(11))
        np.testing.assert_allclose(got[1:], want[1:60], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(got[0], want[60], rtol=0.0, atol=1e-12)


def test_draw_matrix_takes_fresh_array():
    fresh = np.random.default_rng(1).normal(size=(50, 6))
    dm = DrawMatrix(fresh, provenance="parametric-gaussian")
    assert np.shares_memory(dm.draws, fresh)
    assert not fresh.flags.writeable and not dm.draws.flags.writeable
    # A view or a non-float64 array is not the matrix's own: it is copied.
    base = np.ones((50, 12))
    for other in (base[:, ::2], np.ones((50, 6), dtype=np.float32)):
        dm = DrawMatrix(other, provenance="parametric-gaussian")
        assert not np.shares_memory(dm.draws, other) and other.flags.writeable
        assert not dm.draws.flags.writeable


def test_draw_matrix_validation():
    with pytest.raises(ValueError):
        DrawMatrix(np.zeros(5) + 1.0, provenance="parametric-gaussian")
    with pytest.raises(ValueError):
        DrawMatrix(np.array([[np.inf]]), provenance="parametric-gaussian")
