"""Single-step and step-down procedures, BH, and the MTP2 check."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from corrgraph import (
    DrawMatrix,
    Method,
    NotPositiveDefiniteError,
    ProcedureKind,
    PValueVector,
    SampleMatrix,
    StatKind,
    StatVector,
    bh_fdr,
    bootstrap_draw_matrix,
    is_mtp2_gaussian_abs,
    make_rng,
    random_correlation_matrix,
    run_procedure,
    sidak_threshold,
)
from corrgraph import procedures, quantiles
from corrgraph.procedures import _gauss_draw_matrix


def stats_from_pvalues(pvals):
    """Statistic vector whose two-sided p-values are exactly pvals."""
    t = norm.ppf(1.0 - np.asarray(pvals) / 2.0)
    return StatVector(kind=StatKind.EMPIRICAL, values=t, n=100)


pvalue_vectors = st.lists(
    st.floats(1e-12, 1.0, exclude_min=False), min_size=1, max_size=50
)


class TestSingleStep:
    def test_bonferroni_nonstrict_tie(self):
        # p exactly alpha/m is rejected (non-strict comparison).
        sv = stats_from_pvalues([0.05 / 3, 0.5, 0.9])
        rs = run_procedure(sv, 0.05, ProcedureKind(Method.BONFERRONI))
        assert rs.rejected == {0}
        assert rs.thresholds == (pytest.approx(0.05 / 3),)
        assert rs.pair_thresholds == pytest.approx([0.05 / 3] * 3)

    def test_sidak_strict_tie(self):
        thr = sidak_threshold(0.05, 2)
        sv = StatVector(StatKind.EMPIRICAL, np.array([thr, thr + 1e-9]), 100)
        rs = run_procedure(sv, 0.05, ProcedureKind(Method.SIDAK))
        assert rs.rejected == {1}

    def test_maxt_identity_close_to_sidak(self):
        sv = stats_from_pvalues([1e-6, 0.2, 0.04, 0.8])
        dm = _gauss_draw_matrix(np.eye(4), 50000, make_rng(2))
        rs = run_procedure(sv, 0.05, ProcedureKind(Method.MAX_T), draw_matrix=dm)
        assert rs.thresholds[0] == pytest.approx(sidak_threshold(0.05, 4), abs=0.03)
        assert 0 in rs.rejected

    def test_bootrw_runs_on_samples(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(80, 4))
        data[:, 1] += 2.0 * data[:, 0]
        samples = SampleMatrix(data)
        from corrgraph import statistic

        sv = statistic(samples, StatKind.EMPIRICAL)
        dm = bootstrap_draw_matrix(samples, StatKind.EMPIRICAL, 200, seed=1)
        rs = run_procedure(sv, 0.05, ProcedureKind(Method.BOOT_RW), draw_matrix=dm)
        assert 0 in rs.rejected  # the planted (1,2) edge

    def test_required_context(self):
        sv = stats_from_pvalues([0.01, 0.5])
        with pytest.raises(ValueError):
            run_procedure(sv, 0.05, ProcedureKind(Method.BOOT_RW))
        with pytest.raises(ValueError):
            run_procedure(sv, 0.05, ProcedureKind(Method.MAX_T))
        with pytest.raises(ValueError):
            run_procedure(sv, 0.05, ProcedureKind(Method.BH))
        with pytest.raises(ValueError):
            run_procedure(sv, 1.5, ProcedureKind(Method.BONFERRONI))
        dm = DrawMatrix(np.zeros((100, 3)) + 1.0, provenance="parametric-gaussian")
        with pytest.raises(ValueError):
            run_procedure(sv, 0.05, ProcedureKind(Method.MAX_T), draw_matrix=dm)

    def test_not_pd_sigma_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            _gauss_draw_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]), 200, make_rng(0))


def concatenated_gauss_draws(factor, draws, rng, block_rows):
    """Reference: Gaussian blocks of ``block_rows`` rows drawn one by one, then concatenated."""
    width = factor.shape[1]
    return np.concatenate([rng.standard_normal((min(block_rows, draws - a), width)) @ factor.T
                           for a in range(0, draws, block_rows)])


class TestGaussDrawMatrix:
    @pytest.mark.parametrize("entries", [None, 1000])
    def test_bit_identical_to_concatenated_blocks(self, monkeypatch, entries):
        if entries is not None:
            monkeypatch.setattr(quantiles, "_BLOCK_ENTRIES", entries)  # 22 rows: 23 blocks
        sigma = random_correlation_matrix(45, make_rng(3))
        factor, _ = quantiles.cholesky_psd(sigma)
        got = _gauss_draw_matrix(sigma, 500, make_rng(5)).draws
        want = concatenated_gauss_draws(factor, 500, make_rng(5), quantiles._BLOCK_ENTRIES // 45)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_draws_held_once(self, monkeypatch):
        # With 2 MB blocks (130 rows at m = 2016) the peak is the B x m draws
        # plus one block of standard normals; concatenated blocks hold the
        # draws twice.  At the default 32 MB these draws are a single block,
        # whose normals are as large as the draws.
        m, draws = 2016, 1000
        factor = np.tril(np.random.default_rng(7).normal(size=(m, m)))
        monkeypatch.setattr(procedures, "cholesky_psd", lambda values: (factor, 0.0))
        monkeypatch.setattr(quantiles, "_BLOCK_ENTRIES", 1 << 18)
        rng = make_rng(1)
        tracemalloc.start()
        try:
            dm = _gauss_draw_matrix(factor, draws, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dm.draws.shape == (draws, m)
        assert peak < 1.3 * dm.draws.nbytes


def holm_oracle(pvals, alpha):
    """Textbook Holm: sort p-values, find first k with p_(k) > alpha/(m-k+1)."""
    p = np.asarray(pvals)
    m = p.size
    order = np.argsort(p, kind="stable")
    rejected = set()
    for rank, idx in enumerate(order):
        if p[idx] <= alpha / (m - rank):
            rejected.add(int(idx))
        else:
            break
    return rejected


class TestStepDown:
    @settings(max_examples=100)
    @given(pvalue_vectors, st.floats(0.01, 0.2))
    def test_stepdown_bonferroni_is_holm(self, pvals, alpha):
        sv = stats_from_pvalues(pvals)
        rs = run_procedure(sv, alpha, ProcedureKind(Method.BONFERRONI, True))
        assert rs.rejected == holm_oracle(rs.pvalues.values, alpha)

    @settings(max_examples=60)
    @given(pvalue_vectors, st.floats(0.01, 0.2))
    def test_stepdown_contains_single_step(self, pvals, alpha):
        sv = stats_from_pvalues(pvals)
        for method in (Method.BONFERRONI, Method.SIDAK):
            ss = run_procedure(sv, alpha, ProcedureKind(method))
            sd = run_procedure(sv, alpha, ProcedureKind(method, True))
            assert ss.rejected <= sd.rejected

    @settings(max_examples=60)
    @given(pvalue_vectors, st.floats(0.01, 0.2))
    def test_sidak_contains_bonferroni(self, pvals, alpha):
        sv = stats_from_pvalues(pvals)
        # The inclusion can flip on an exact tie with the Sidak critical
        # value (strict statistic rule vs non-strict p-value rule); skip
        # boundary cases, which have probability zero for continuous data.
        p = run_procedure(sv, alpha, ProcedureKind(Method.BONFERRONI)).pvalues.values
        for k in range(1, p.size + 1):
            boundary = 1.0 - (1.0 - alpha) ** (1.0 / k)
            assume(np.min(np.abs(p - boundary)) > 1e-9)
        for stepdown in (False, True):
            bon = run_procedure(sv, alpha, ProcedureKind(Method.BONFERRONI, stepdown))
            sid = run_procedure(sv, alpha, ProcedureKind(Method.SIDAK, stepdown))
            assert bon.rejected <= sid.rejected

    @settings(max_examples=40)
    @given(pvalue_vectors, st.floats(0.01, 0.1), st.floats(0.0, 0.3))
    def test_monotone_in_alpha(self, pvals, alpha, bump):
        sv = stats_from_pvalues(pvals)
        for method in (Method.BONFERRONI, Method.SIDAK):
            lo = run_procedure(sv, alpha, ProcedureKind(method, True))
            hi = run_procedure(sv, min(alpha + bump, 0.99), ProcedureKind(method, True))
            assert lo.rejected <= hi.rejected

    def test_stepdown_resampled_shares_one_draw_matrix(self):
        # Step-down with a shared DrawMatrix has weakly decreasing thresholds
        # and contains the single-step rejections.
        rng = np.random.default_rng(8)
        sv = StatVector(StatKind.EMPIRICAL, rng.normal(size=10) * 2.5, 100)
        dm = DrawMatrix(rng.normal(size=(500, 10)), provenance="parametric-gaussian")
        ss = run_procedure(sv, 0.05, ProcedureKind(Method.MAX_T), draw_matrix=dm)
        sd = run_procedure(sv, 0.05, ProcedureKind(Method.MAX_T, True), draw_matrix=dm)
        assert ss.rejected <= sd.rejected
        assert all(a >= b for a, b in zip(sd.thresholds, sd.thresholds[1:]))

    def test_iterations_and_pair_thresholds(self):
        sv = stats_from_pvalues([1e-8, 0.013, 0.04, 0.9])
        rs = run_procedure(sv, 0.05, ProcedureKind(Method.BONFERRONI, True))
        # 0.05/4 rejects #0; 0.05/3 rejects #1; 0.05/2 fails on 0.04.
        assert rs.rejected == {0, 1}
        assert rs.iterations == 3
        assert rs.thresholds == pytest.approx((0.05 / 4, 0.05 / 3, 0.05 / 2))
        assert rs.pair_thresholds == pytest.approx([0.05 / 4, 0.05 / 3, 0.05 / 2, 0.05 / 2])

    def test_all_rejected_terminates(self):
        sv = stats_from_pvalues([1e-10, 1e-9, 1e-8])
        rs = run_procedure(sv, 0.05, ProcedureKind(Method.SIDAK, True))
        assert rs.rejected == {0, 1, 2}

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        sv = StatVector(StatKind.EMPIRICAL, rng.normal(size=6) * 2.0, 50)
        a, b = (
            run_procedure(sv, 0.05, ProcedureKind(Method.MAX_T, True),
                          draw_matrix=_gauss_draw_matrix(np.eye(6), 500, make_rng(11)))
            for _ in range(2)
        )
        assert a.rejected == b.rejected and a.thresholds == b.thresholds


def bh_oracle(pvals, alpha):
    p = np.asarray(pvals)
    m = p.size
    order = np.argsort(p, kind="stable")
    k_hat = 0
    for rank, idx in enumerate(order, start=1):
        if p[idx] <= alpha * rank / m:
            k_hat = rank
    return {int(i) for i in order[:k_hat]}


class TestBH:
    def test_textbook_example(self):
        p = [0.001, 0.008, 0.039, 0.041, 0.042, 0.06, 0.074, 0.205, 0.212, 0.216]
        rs = bh_fdr(PValueVector(np.array(p)), 0.05)
        # k_hat = 2: p_(2) = 0.008 <= 0.05*2/10, all larger ranks fail.
        assert rs.rejected == {0, 1}
        assert rs.thresholds == (pytest.approx(0.01),)
        assert rs.procedure.method is Method.BH

    def test_no_rejections(self):
        rs = bh_fdr(PValueVector(np.array([0.5, 0.9, 0.7])), 0.05)
        assert rs.rejected == frozenset()
        assert rs.thresholds == (0.0,)

    @settings(max_examples=100)
    @given(pvalue_vectors, st.floats(0.01, 0.3))
    def test_matches_oracle(self, pvals, alpha):
        rs = bh_fdr(PValueVector(np.array(pvals)), alpha)
        assert rs.rejected == bh_oracle(pvals, alpha)

    @settings(max_examples=40)
    @given(pvalue_vectors, st.floats(0.01, 0.2))
    def test_contains_bonferroni(self, pvals, alpha):
        sv = stats_from_pvalues(pvals)
        bon = run_procedure(sv, alpha, ProcedureKind(Method.BONFERRONI))
        bh = bh_fdr(bon.pvalues, alpha)
        assert bon.rejected <= bh.rejected


class TestMtp2:
    def test_dimension_two_always_holds(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            sigma = random_correlation_matrix(2, rng)
            ok, signs = is_mtp2_gaussian_abs(sigma)
            assert ok and signs is not None

    def test_m_matrix_precision_is_mtp2(self):
        # Precision with nonpositive off-diagonal: MTP2 by definition.
        k = np.array([[2.0, -0.5, -0.3], [-0.5, 2.0, -0.4], [-0.3, -0.4, 2.0]])
        sigma = np.linalg.inv(k)
        ok, signs = is_mtp2_gaussian_abs(sigma)
        assert ok
        # Witness check: -D K D has nonpositive off-diagonal entries.
        d = np.diag(signs)
        flipped = -d @ np.linalg.inv(sigma) @ d
        off = ~np.eye(3, dtype=bool)
        assert np.all(flipped[off] >= -1e-8)

    def test_known_failure(self):
        # All-positive precision off-diagonal: the sign product around the
        # 3-cycle is +1 and flips cannot make every entry nonpositive.
        k = np.array([[2.0, 0.5, 0.5], [0.5, 2.0, 0.5], [0.5, 0.5, 2.0]])
        sigma = np.linalg.inv(k)
        ok, signs = is_mtp2_gaussian_abs(sigma)
        assert not ok and signs is None

    def test_singular_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            is_mtp2_gaussian_abs(np.ones((3, 3)))

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            is_mtp2_gaussian_abs(np.eye(21))


def test_random_correlation_matrix_properties():
    rng = np.random.default_rng(13)
    for d in (2, 3, 5):
        c = random_correlation_matrix(d, rng)
        assert np.allclose(np.diag(c), 1.0)
        assert np.allclose(c, c.T)
        assert np.all(np.abs(c) <= 1.0 + 1e-12)
        assert np.min(np.linalg.eigvalsh(c)) > -1e-10
