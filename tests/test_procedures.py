"""Single-step and step-down procedures, BH, and the MTP2 check."""

import re
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from corrgraph import (
    CorrelationMatrix,
    MaxRecords,
    Method,
    NotPositiveDefiniteError,
    ProcedureKind,
    PValueVector,
    SampleMatrix,
    SingularityError,
    StatKind,
    StatVector,
    bh_fdr,
    bootstrap_draw_matrix,
    cholesky_psd,
    correlation_model,
    empirical_correlation,
    fourth_moments,
    gauss_draw_matrix,
    is_mtp2_gaussian_abs,
    make_rng,
    omega_gaussian,
    omega_general,
    p_values,
    quantile_from_draws,
    random_correlation_matrix,
    run_procedure,
    sbm_adjacency,
    sidak_threshold,
)
import corrgraph
from corrgraph import procedures, quantiles, stats
from corrgraph.procedures import _gauss_draw_matrix


def sigma_draw_matrix(sigma, draws, rng):
    """Oracle: ``draws`` rows xi @ L^T from N(0, sigma), L from cholesky_psd."""
    factor, _ = cholesky_psd(sigma)
    return rng.standard_normal((draws, factor.shape[1])) @ factor.T


def scan_rule(sv, alpha, procedure, draws):
    """Oracle: (thresholds, mask, pair thresholds) of a resampled rule on the
    B x m ``draws``, each threshold a scan of the pairs alive at its step."""
    t_abs = np.abs(sv.values)
    alive, thresholds, pair_thr = np.ones(sv.m, dtype=bool), [], np.empty(sv.m)
    while True:
        subset = np.flatnonzero(alive)
        thresholds.append(quantile_from_draws(draws, alpha, subset))
        pair_thr[subset] = thresholds[-1]
        newly = subset[t_abs[subset] > thresholds[-1]]
        alive[newly] = False
        if newly.size == 0 or not procedure.stepdown or not alive.any():
            return tuple(thresholds), ~alive, pair_thr


def assert_matches_scan(rs, sv, draws):
    """The RejectionSet ``rs`` equals the scan of ``draws`` at every step."""
    thresholds, mask, pair_thr = scan_rule(sv, rs.alpha, rs.procedure, draws)
    assert rs.thresholds == thresholds
    assert rs.iterations == len(thresholds)
    assert np.array_equal(rs.pair_thresholds, pair_thr)
    assert np.array_equal(rs.mask, mask)


def stats_from_pvalues(pvals):
    """Statistic vector whose two-sided p-values are exactly pvals."""
    t = norm.ppf(1.0 - np.asarray(pvals) / 2.0)
    return StatVector(kind=StatKind.EMPIRICAL, values=t, n=100)


pvalue_vectors = st.lists(
    st.floats(1e-12, 1.0, exclude_min=False), min_size=1, max_size=50
)


class TestSingleStep:
    @pytest.mark.parametrize("stepdown", ["no", 1, None])
    def test_non_bool_stepdown_refused(self, stepdown):
        with pytest.raises(ValueError, match="stepdown must be true or false"):
            ProcedureKind(Method.SIDAK, stepdown)

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
        rec = MaxRecords.from_draws(sigma_draw_matrix(np.eye(4), 50000, make_rng(2)), sv)
        rs = run_procedure(sv, 0.05, ProcedureKind(Method.MAX_T), records=rec)
        assert rs.thresholds[0] == pytest.approx(sidak_threshold(0.05, 4), abs=0.03)
        assert 0 in rs.rejected

    def test_bootrw_runs_on_samples(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(80, 4))
        data[:, 1] += 2.0 * data[:, 0]
        samples = SampleMatrix(data)
        from corrgraph import statistic

        sv = statistic(samples, StatKind.EMPIRICAL)
        rec = bootstrap_draw_matrix(samples, StatKind.EMPIRICAL, 200, make_rng(1), stats=sv)
        rs = run_procedure(sv, 0.05, ProcedureKind(Method.BOOT_RW), records=rec)
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
        wide = MaxRecords.from_draws(np.ones((100, 3)), stats_from_pvalues([0.01, 0.5, 0.2]))
        with pytest.raises(ValueError, match="width"):
            run_procedure(sv, 0.05, ProcedureKind(Method.MAX_T), records=wide)
        named = re.escape("MaxRecords.from_draws(draws, stats)")
        with pytest.raises(ValueError, match=named):
            run_procedure(sv, 0.05, ProcedureKind(Method.MAX_T), records=np.ones((100, 2)))

    def test_not_pd_sigma_raises(self):
        # Valid entries, but the smallest eigenvalue is -0.8.
        corr = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            _gauss_draw_matrix(corr, StatKind.EMPIRICAL, 200, make_rng(0))


class UnitNoise:
    """Generator stand-in whose normals are the rows of an identity matrix, in order.

    Fed to the draw builder, row k of the draws is the image of the k-th unit
    noise vector, so D^T D is the covariance of the draws' law exactly.
    """

    def __init__(self):
        self.row = 0

    def standard_normal(self, size=None, out=None):
        rows, width = size if out is None else out.shape
        noise = np.eye(rows, width, self.row)
        self.row += rows
        if out is None:
            return noise
        out[...] = noise
        return out


class FaultyNoise:
    """Generator stand-in: N(0, 1) normals for ``good`` calls, then ``fault``:
    "raise" raises RuntimeError, "nan" fills the block with NaN."""

    def __init__(self, good, fault):
        self.rng, self.good, self.fault = make_rng(0), good, fault

    def standard_normal(self, size=None, out=None):
        if self.good == 0:
            if self.fault == "raise":
                raise RuntimeError("noise ran out")
            out[...] = np.nan
            return out
        self.good -= 1
        return self.rng.standard_normal(size, out=out)


def tdata(n, p, seed):
    """Heavy-tailed, correlated n x p sample."""
    return SampleMatrix(np.random.default_rng(seed).standard_t(5, size=(n, p)) @ (np.eye(p) + 0.3))


def draw_law(route, p, seed=0, n=60):
    """(corr, sample) of one draw route: a random correlation, or a t(5) sample."""
    if route == "gaussian":
        return CorrelationMatrix(random_correlation_matrix(p, make_rng(seed))), None
    sample = tdata(n, p, seed)
    return empirical_correlation(sample), sample


def psi_reference(corr, kind, normals):
    """Plain-numpy Gaussian draws psi(L H L^T), one per row of ``normals``.

    A row holds the normals of the upper triangle of the symmetric H, row by
    row; H's diagonal is sqrt(2) times its normals.  L = vec sqrt(lam) from
    ``eigh``.
    """
    p = corr.shape[0]
    lam, vec = np.linalg.eigh(corr)
    root = vec * np.sqrt(np.maximum(lam, 0.0))
    i, j = np.triu_indices(p, k=1)
    r = corr[i, j]
    rows = []
    for z in normals:
        h = np.zeros((p, p))
        h[np.triu_indices(p)] = z
        h = h + np.triu(h, 1).T
        h[np.diag_indices(p)] *= np.sqrt(2.0)
        s = root @ h @ root.T
        if kind is StatKind.SECOND_ORDER:
            rows.append(s[i, j] / np.sqrt(1.0 + r * r))
            continue
        d = s[i, j] - r * (s[i, i] + s[j, j]) / 2.0
        rows.append(d / {StatKind.EMPIRICAL: 1.0, StatKind.STUDENT: (1.0 - r * r) ** 1.5,
                         StatKind.FISHER: 1.0 - r * r}[kind])
    return np.array(rows)


def influence_reference(sample, kind):
    """Plain-numpy n x m influence matrix of ``omega_general``.

    On the columns standardized with divisor n: x_i x_j - r (x_i^2 + x_j^2)/2
    over the Delta derivative, or for second-order x_i x_j - r scaled to unit
    variance.
    """
    x = sample.data - sample.data.mean(axis=0)
    x /= x.std(axis=0)
    i, j = np.triu_indices(x.shape[1], k=1)
    prod = x[:, i] * x[:, j]
    r = prod.mean(axis=0)
    if kind is StatKind.SECOND_ORDER:
        centred = prod - r
        return centred / np.sqrt((centred**2).mean(axis=0))
    return (prod - r * (x[:, i] ** 2 + x[:, j] ** 2) / 2.0) / {
        StatKind.EMPIRICAL: 1.0, StatKind.STUDENT: (1.0 - r * r) ** 1.5,
        StatKind.FISHER: 1.0 - r * r}[kind]


def route_omega(route, corr, sample, kind):
    if route == "gaussian":
        return omega_gaussian(corr, kind).values
    return omega_general(fourth_moments(sample), kind).values


class TestGaussDrawMatrix:
    @pytest.mark.parametrize("stepdown", [True, False])
    def test_one_variable_refused(self, stepdown):
        sv = StatVector(StatKind.FISHER, np.empty(0), 100)
        for stats_arg in (None, sv):
            with pytest.raises(ValueError, match="need at least 2 variables, got p=1"):
                gauss_draw_matrix(np.eye(1), StatKind.FISHER, 100, make_rng(0), stats=stats_arg,
                                  stepdown=stepdown)

    @pytest.mark.parametrize("kind", list(StatKind))
    @pytest.mark.parametrize("route", ["gaussian", "fourth-moment"])
    @pytest.mark.parametrize("p", [5, 12, 26])
    def test_unit_noise_reproduces_omega(self, route, p, kind):
        corr, sample = draw_law(route, p, seed=p)
        width = p * (p + 1) // 2 if sample is None else sample.n
        d = _gauss_draw_matrix(corr, kind, max(width, 100), UnitNoise(), sample=sample)
        np.testing.assert_allclose(d.T @ d, route_omega(route, corr, sample, kind),
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("route", ["gaussian", "fourth-moment"])
    def test_sampled_covariance_within_one_percent(self, route):
        corr, sample = draw_law(route, 5, seed=1, n=20)
        for kind in StatKind:
            rows = np.vstack([_gauss_draw_matrix(corr, kind, 100_000, make_rng(seed),
                                                 sample=sample) for seed in range(4)])
            want = route_omega(route, corr, sample, kind)
            got = rows.T @ rows / rows.shape[0]
            assert np.max(np.abs(got - want)) < 0.01 * np.max(np.abs(want))

    @pytest.mark.parametrize("route", ["gaussian", "fourth-moment"])
    def test_independent_of_block_size(self, monkeypatch, route):
        # 150 fourth-moment draws at m = 190 hold the multipliers and chunk the pairs.
        p, draws = (12, 500) if route == "gaussian" else (20, 150)
        corr, sample = draw_law(route, p, seed=3)
        want = [_gauss_draw_matrix(corr, kind, draws, make_rng(5), sample=sample)
                for kind in StatKind]
        # 6 perturbations per block (84 blocks) and 7 pair columns per chunk.
        monkeypatch.setattr(quantiles, "_PERTURBATION_ENTRIES", 1000)
        monkeypatch.setattr(quantiles, "_PAIR_CHUNK", 7)
        for kind, expect in zip(StatKind, want):
            got = _gauss_draw_matrix(corr, kind, draws, make_rng(5), sample=sample)
            np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("p, n, draws", [(6, 3000, 500), (40, 300, 200)])
    def test_multipliers_match_plain_numpy_reference(self, p, n, draws):
        # Four kinds at p = 6 hold their n x 15 influence matrices, at p = 40
        # the B x n multipliers.  The reference draws xi in one call and
        # multiplies in another order: agreement to 1e-12.  The step-down
        # records of the same draws are those of the draw matrix.
        sample = tdata(n, p, seed=p)
        corr = empirical_correlation(sample)
        rng = make_rng(31)
        got = _gauss_draw_matrix(corr, tuple(StatKind), draws, rng, sample=sample)
        serial = make_rng(31)
        xi = serial.standard_normal((draws, n)) / np.sqrt(n)
        for kind, dm in zip(StatKind, got):
            np.testing.assert_allclose(dm, xi @ influence_reference(sample, kind),
                                       rtol=0, atol=1e-12)
        assert np.array_equal(rng.random(3), serial.random(3))
        svs = tuple(corrgraph.statistic(sample, kind) for kind in StatKind)
        recs = _gauss_draw_matrix(corr, tuple(StatKind), draws, make_rng(31), sample=sample,
                                  stats=svs)
        for sv, dm, rec in zip(svs, got, recs):
            want = MaxRecords.from_draws(dm, sv)
            for field in ("starts", "positions", "values"):
                assert np.array_equal(getattr(rec, field), getattr(want, field)), field

    def test_influence_matrix_held_in_place_of_multipliers(self):
        # 1000 draws at n = 20000, m = 15: the 160 MB of multipliers are drawn
        # in blocks of rows, and the 2.4 MB influence matrix is held.
        sample = tdata(20_000, 6, seed=8)
        corr = empirical_correlation(sample)
        tracemalloc.start()
        try:
            dm = _gauss_draw_matrix(corr, StatKind.FISHER, 1000, make_rng(1), sample=sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dm.shape == (1000, 15)
        assert peak < 0.25 * 1000 * 20_000 * 8

    @pytest.mark.parametrize("p, entries", [(5, 100), (12, 1000)])
    def test_blocks_match_plain_numpy_reference(self, monkeypatch, p, entries):
        # 4 (p = 5) or 6 (p = 12) perturbations per block, the last one short.
        # The reference multiplies in another order: agreement to 1e-12.
        monkeypatch.setattr(quantiles, "_PERTURBATION_ENTRIES", entries)
        corr = random_correlation_matrix(p, make_rng(21))
        draws, block, width = 150, entries // (p * p), p * (p + 1) // 2
        got = _gauss_draw_matrix(corr, tuple(StatKind), draws, make_rng(22))
        serial = make_rng(22)
        normals = np.vstack([serial.standard_normal((min(block, draws - a), width))
                             for a in range(0, draws, block)])
        for kind, dm in zip(StatKind, got):
            np.testing.assert_allclose(dm, psi_reference(corr, kind, normals),
                                       rtol=0, atol=1e-12)

    def test_generator_state_matches_serial_draws(self):
        # Normals are drawn one block ahead: the calls, and so the state after
        # them, are those of a serial loop over the blocks (48 rows at p = 26).
        p, draws = 26, 1000
        corr = random_correlation_matrix(p, make_rng(23))
        rng = make_rng(24)
        _gauss_draw_matrix(corr, StatKind.FISHER, draws, rng)
        serial = make_rng(24)
        block = quantiles._PERTURBATION_ENTRIES // (p * p)
        for a in range(0, draws, block):
            serial.standard_normal((min(block, draws - a), p * (p + 1) // 2))
        assert np.array_equal(rng.random(3), serial.random(3))

    def test_worker_joined_on_every_exit(self):
        # At p = 26, 48 perturbations per block: 21 blocks of 1000 draws.
        sample = tdata(100, 26, seed=25)
        corr, sv = empirical_correlation(sample), corrgraph.statistic(sample, StatKind.FISHER)
        before = threading.active_count()
        _gauss_draw_matrix(corr, StatKind.FISHER, 1000, make_rng(26), stats=sv)
        assert threading.active_count() == before
        with pytest.raises(RuntimeError, match="noise ran out"):  # raised on the worker
            _gauss_draw_matrix(corr, StatKind.FISHER, 1000, FaultyNoise(3, "raise"), stats=sv)
        assert threading.active_count() == before
        with pytest.raises(ValueError, match="non-finite"):  # raised by the step-down fold
            _gauss_draw_matrix(corr, StatKind.FISHER, 1000, FaultyNoise(3, "nan"), stats=sv)
        assert threading.active_count() == before
        blocks = quantiles._perturbation_blocks(corr.values, (StatKind.FISHER,), 1000,
                                                make_rng(27))
        next(blocks)
        assert threading.active_count() == before + 1
        blocks.close()
        assert threading.active_count() == before

    def test_concurrent_calls_match_serial_ones(self):
        # Four callers on two cores, each with its own worker, switching threads
        # every microsecond: a buffer refilled while still mapped would show.
        corr = random_correlation_matrix(26, make_rng(28))

        def draws(seed):
            return _gauss_draw_matrix(corr, StatKind.FISHER, 1000, make_rng(seed))

        want = [draws(seed) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                got = list(pool.map(draws, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for seed in range(4):
            assert np.array_equal(got[seed], want[seed]), seed

    def test_draws_held_once(self):
        # The B x m draws are filled in place; the blocks of perturbations,
        # the n x 128 influence chunks and the B x n multipliers are small.
        for route in ("gaussian", "fourth-moment"):
            corr, sample = draw_law(route, 64, seed=7, n=100)
            tracemalloc.start()
            try:
                dm = _gauss_draw_matrix(corr, StatKind.FISHER, 1000, make_rng(1), sample=sample)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert dm.shape == (1000, 2016)
            assert peak < 1.3 * dm.nbytes, route

    @pytest.mark.parametrize("route, p, kind", [
        ("gaussian", 26, StatKind.FISHER),
        ("fourth-moment", 26, StatKind.SECOND_ORDER),
        ("gaussian", 32, StatKind.STUDENT),
        ("fourth-moment", 32, StatKind.FISHER),
    ])
    def test_threshold_matches_sigma_oracle(self, route, p, kind):
        # 95% max-quantiles from 10^4 draws each.  Over 20 seeds at p = 32 the
        # sd of one quantile is about 0.012, of the difference about 0.017.
        corr, sample = draw_law(route, p, seed=p, n=300)
        new = _gauss_draw_matrix(corr, kind, 10_000, make_rng(1), sample=sample)
        old = sigma_draw_matrix(route_omega(route, corr, sample, kind), 10_000, make_rng(2))
        assert abs(quantile_from_draws(new, 0.05) - quantile_from_draws(old, 0.05)) < 0.06

    @pytest.mark.parametrize("route", ["plug-in", "oracle", "fourth-moment"])
    def test_tuple_matches_single_kind_calls(self, route):
        # Two blocks of perturbations (227 rows each at p = 12) and two pair chunks.
        sample = tdata(80, 12, seed=6)
        corr = empirical_correlation(sample)
        if route == "oracle":
            corr = correlation_model(sbm_adjacency(12, 0.6, 0.2, make_rng(2)), 0.1).gamma
        multipliers = sample if route == "fourth-moment" else None
        for kinds in (tuple(StatKind), tuple(StatKind)[::-1], [StatKind.FISHER, StatKind.STUDENT]):
            got = gauss_draw_matrix(corr, kinds, 300, make_rng(4), sample=multipliers)
            assert isinstance(got, tuple) and len(got) == len(kinds)
            for kind, dm in zip(kinds, got):
                want = gauss_draw_matrix(corr, kind, 300, make_rng(4), sample=multipliers)
                assert isinstance(want, np.ndarray) and want.dtype == np.float64
                assert np.array_equal(dm, want), kind

    def test_public_builder_is_the_traced_one(self):
        assert corrgraph.gauss_draw_matrix is _gauss_draw_matrix
        assert "gauss_draw_matrix" in corrgraph.__all__ and "gauss_draw_matrix" in procedures.__all__
        with pytest.raises(ValueError):
            gauss_draw_matrix(np.eye(3), (), 100, make_rng(0))

    def test_unit_correlation_is_singular(self):
        corr = np.ones((3, 3))
        for kind in (StatKind.STUDENT, StatKind.FISHER):
            with pytest.raises(SingularityError):
                _gauss_draw_matrix(corr, kind, 100, make_rng(0))
        dm = _gauss_draw_matrix(corr, StatKind.EMPIRICAL, 100, make_rng(0))
        assert np.all(np.isfinite(dm))

    @pytest.mark.parametrize("corr, words", [
        (np.array([[1.0, 0.5, 0.0], [0.2, 1.0, 0.0], [0.0, 0.0, 1.0]]), "not symmetric"),
        (2.0 * np.eye(3), "diagonal is not 1"),
        (np.eye(3)[:2], "must be square"),
    ])
    def test_array_that_is_no_correlation_refused(self, corr, words):
        # eigh would read one triangle of the asymmetric array, and a diagonal
        # of 2 would double the draws' sd; both were drawn from silently.
        for stats_arg in (None, StatVector(StatKind.FISHER, np.arange(3.0), 100)):
            with pytest.raises(ValueError, match=words):
                gauss_draw_matrix(corr, StatKind.FISHER, 100, make_rng(0), stats=stats_arg)

    def test_corr_of_another_sample_refused(self):
        # The fourth-moment route takes r from corr: np.eye(4) drew the pair
        # (1, 2), r about 0.8, with sd 1.49 instead of 0.38.
        x = np.random.default_rng(12).normal(size=(400, 4))
        x[:, 2] = 0.8 * x[:, 1] + 0.6 * x[:, 2]
        sample = SampleMatrix(x)
        own = empirical_correlation(sample).values
        near = own.copy()
        near[1, 2] = near[2, 1] = own[1, 2] + 1e-9
        sv = corrgraph.statistic(sample, StatKind.FISHER)
        for corr in (np.eye(4), near, own[:3, :3]):
            for stats_arg in (None, sv):
                with pytest.raises(ValueError, match="not the correlation matrix of sample"):
                    gauss_draw_matrix(corr, StatKind.FISHER, 100, make_rng(0), sample=sample,
                                      stats=stats_arg)
        for corr in (own, empirical_correlation(sample)):
            assert gauss_draw_matrix(corr, StatKind.FISHER, 100, make_rng(0),
                                     sample=sample).shape == (100, 6)


class TestMaxRecordsPath:
    """The builder's MaxRecords, through run_procedure, against a scan of its B x m draws."""

    @pytest.mark.parametrize("route", ["gaussian", "fourth-moment"])
    def test_procedures_match_draw_matrix(self, route):
        # Two perturbation blocks at p = 20 (81 rows) and two pair chunks.
        sample = tdata(150, 20, seed=9)
        corr = empirical_correlation(sample)
        multipliers = sample if route == "fourth-moment" else None
        svs = tuple(corrgraph.statistic(sample, kind) for kind in StatKind)
        mats = gauss_draw_matrix(corr, tuple(StatKind), 200, make_rng(3), sample=multipliers)
        recs = gauss_draw_matrix(corr, tuple(StatKind), 200, make_rng(3), sample=multipliers,
                                 stats=svs)
        for sv, dm, rec in zip(svs, mats, recs):
            assert isinstance(rec, corrgraph.MaxRecords) and (rec.b, rec.m) == (200, sv.m)
            for stepdown in (False, True):
                for alpha in (0.05, 0.2):
                    procedure = ProcedureKind(Method.MAX_T, stepdown)
                    assert_matches_scan(run_procedure(sv, alpha, procedure, rec), sv, dm)

    @pytest.mark.parametrize("route", ["bootstrap", "gaussian", "fourth-moment"])
    def test_first_step_down_threshold_is_the_single_step_one(self, route):
        # A step-down reads the same draws as the single-step rule, so its
        # first threshold, over all m pairs, is the single-step one exactly.
        sample = tdata(150, 20, seed=5)
        kinds = tuple(StatKind)
        svs = tuple(corrgraph.statistic(sample, kind) for kind in kinds)
        if route == "bootstrap":
            method = Method.BOOT_RW

            def build(stepdown):
                return bootstrap_draw_matrix(sample, kinds, 60, make_rng(8), stats=svs,
                                             stepdown=stepdown)
        else:
            method, multipliers = Method.MAX_T, sample if route == "fourth-moment" else None

            def build(stepdown):
                return gauss_draw_matrix(empirical_correlation(sample), kinds, 200, make_rng(8),
                                         sample=multipliers, stats=svs, stepdown=stepdown)
        for sv, maxima, records in zip(svs, build(False), build(True)):
            for alpha in (0.05, 0.2):
                single = run_procedure(sv, alpha, ProcedureKind(method), maxima)
                stepped = run_procedure(sv, alpha, ProcedureKind(method, True), records)
                assert stepped.thresholds[0] == single.thresholds[0], (sv.kind, alpha)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31), b=st.integers(1, 300), m=st.integers(1, 40),
           levels=st.integers(1, 6), alpha=st.sampled_from([0.05, 0.2, 0.5]))
    def test_records_from_draws_match_the_scan(self, seed, b, m, levels, alpha):
        # |T| on a few levels, so ties are common, and draws on a scale where
        # a step-down takes several steps; both rules, every step.
        rng = np.random.default_rng(seed)
        sv = StatVector(StatKind.FISHER, rng.integers(-levels, levels + 1, size=m) * 1.5, 100)
        draws = np.round(rng.normal(size=(b, m)) * 2.0, 1)
        rec = MaxRecords.from_draws(draws, sv)
        for stepdown in (False, True):
            for method in (Method.MAX_T, Method.BOOT_RW):
                procedure = ProcedureKind(method, stepdown)
                assert_matches_scan(run_procedure(sv, alpha, procedure, records=rec), sv, draws)

    def test_single_kind_matches_tuple(self):
        corr = CorrelationMatrix(random_correlation_matrix(9, make_rng(1)))
        sv = StatVector(StatKind.FISHER, make_rng(2).normal(size=36) * 3.0, 100)
        rec = gauss_draw_matrix(corr, StatKind.FISHER, 150, make_rng(4), stats=sv)
        (pair,) = gauss_draw_matrix(corr, (StatKind.FISHER,), 150, make_rng(4), stats=(sv,))
        assert isinstance(rec, corrgraph.MaxRecords)
        assert np.array_equal(rec.values, pair.values)
        assert np.array_equal(rec.positions, pair.positions)

    def test_mismatched_statistics_refused(self):
        corr = CorrelationMatrix(random_correlation_matrix(5, make_rng(1)))
        sv = StatVector(StatKind.FISHER, make_rng(2).normal(size=10) * 3.0, 100)
        with pytest.raises(ValueError, match="do not match"):
            gauss_draw_matrix(corr, StatKind.STUDENT, 100, make_rng(0), stats=sv)
        with pytest.raises(ValueError, match="do not match"):
            gauss_draw_matrix(np.eye(4), StatKind.FISHER, 100, make_rng(0), stats=sv)
        rec = gauss_draw_matrix(corr, StatKind.FISHER, 100, make_rng(0), stats=sv)
        other = StatVector(StatKind.FISHER, sv.values[::-1], 100)
        with pytest.raises(ValueError, match="not in the"):
            run_procedure(other, 0.05, ProcedureKind(Method.MAX_T), rec)
        # Ties in |T| may sit in any order: the sign of T does not matter.
        flipped = StatVector(StatKind.FISHER, -sv.values, 100)
        assert run_procedure(flipped, 0.05, ProcedureKind(Method.MAX_T, True), rec).thresholds == \
            run_procedure(sv, 0.05, ProcedureKind(Method.MAX_T, True), rec).thresholds


class TestRowMaxima:
    """Single-step builders keep each draw row's maximum over all pairs."""

    @pytest.mark.parametrize("route", ["gaussian", "oracle", "fourth-moment", "bootstrap"])
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**31), p=st.integers(2, 11),
           kinds=st.lists(st.sampled_from(list(StatKind)), min_size=1, max_size=4, unique=True))
    def test_row_maxima_match_scan_of_draw_matrix(self, route, seed, p, kinds):
        sample = tdata(80, p, seed)
        svs = tuple(corrgraph.statistic(sample, kind) for kind in kinds)
        if route == "bootstrap":
            def build(**kwargs):
                return bootstrap_draw_matrix(sample, tuple(kinds), 60, make_rng(seed), **kwargs)
        else:
            corr = (CorrelationMatrix(random_correlation_matrix(p, make_rng(seed)))
                    if route == "oracle" else empirical_correlation(sample))
            multipliers = sample if route == "fourth-moment" else None

            def build(**kwargs):
                return gauss_draw_matrix(corr, tuple(kinds), 100, make_rng(seed),
                                         sample=multipliers, **kwargs)
        mats, maxima = build(), build(stats=svs, stepdown=False)
        for sv, dm, rec in zip(svs, mats, maxima):
            assert isinstance(rec, corrgraph.MaxRecords) and rec.order is None
            assert (rec.b, rec.m) == (dm.shape[0], sv.m)
            for alpha in (0.05, 0.2, 0.5):
                assert rec.quantile(alpha, sv.m) == quantile_from_draws(dm, alpha)
                for method in (Method.MAX_T, Method.BOOT_RW):
                    assert_matches_scan(run_procedure(sv, alpha, ProcedureKind(method), rec),
                                        sv, dm)

    def test_row_maxima_refuse_a_shorter_prefix(self):
        corr = CorrelationMatrix(random_correlation_matrix(8, make_rng(1)))
        values = np.zeros(28)
        values[:5] = 50.0  # the first step rejects these, and a second step follows
        sv = StatVector(StatKind.FISHER, values, 100)
        records = gauss_draw_matrix(corr, StatKind.FISHER, 100, make_rng(0), stats=sv)
        maxima = gauss_draw_matrix(corr, StatKind.FISHER, 100, make_rng(0), stats=sv,
                                   stepdown=False)
        assert maxima.quantile(0.05, 28) == records.quantile(0.05, 28)
        assert records.quantile(0.05, 23) <= records.quantile(0.05, 28)
        with pytest.raises(ValueError, match="only the prefix of all 28 pairs"):
            maxima.quantile(0.05, 23)
        with pytest.raises(ValueError, match="only the prefix of all 28 pairs"):
            run_procedure(sv, 0.05, ProcedureKind(Method.MAX_T, True), maxima)
        assert run_procedure(sv, 0.05, ProcedureKind(Method.MAX_T), maxima).rejected == \
            frozenset(range(5))


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
        # Step-down with the records of shared draws has weakly decreasing
        # thresholds and contains the single-step rejections.
        rng = np.random.default_rng(8)
        sv = StatVector(StatKind.EMPIRICAL, rng.normal(size=10) * 2.5, 100)
        rec = MaxRecords.from_draws(rng.normal(size=(500, 10)), sv)
        ss = run_procedure(sv, 0.05, ProcedureKind(Method.MAX_T), records=rec)
        sd = run_procedure(sv, 0.05, ProcedureKind(Method.MAX_T, True), records=rec)
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
                          records=MaxRecords.from_draws(
                              sigma_draw_matrix(np.eye(6), 500, make_rng(11)), sv))
            for _ in range(2)
        )
        assert a.rejected == b.rejected and a.thresholds == b.thresholds

    @pytest.mark.parametrize("stepdown", [False, True])
    @pytest.mark.parametrize("method", list(Method))
    def test_mask_is_the_decision(self, method, stepdown):
        rng = np.random.default_rng(12)
        sv = StatVector(StatKind.EMPIRICAL, np.r_[8.0, -6.0, 3.3, rng.normal(size=12)], 100)
        if method is Method.BH:
            rs = bh_fdr(p_values(sv), 0.05)
        else:
            rec = MaxRecords.from_draws(rng.normal(size=(500, 15)), sv)
            rs = run_procedure(sv, 0.05, ProcedureKind(method, stepdown), records=rec)
        assert rs.mask.dtype == bool and rs.mask.shape == (15,)
        assert not rs.mask.flags.writeable
        assert rs.rejected == frozenset(np.flatnonzero(rs.mask).tolist())
        assert {0, 1} <= rs.rejected
        assert rs.m == sv.m

    def test_one_pvalue_pass_per_statistic_vector(self, monkeypatch):
        calls = []
        tail = stats._two_sided_tail
        monkeypatch.setattr(stats, "_two_sided_tail", lambda t: calls.append(t.size) or tail(t))
        sv = stats_from_pvalues([1e-8, 0.013, 0.04, 0.9, 0.2])
        results = [run_procedure(sv, 0.05, ProcedureKind(method, stepdown))
                   for method in (Method.BONFERRONI, Method.SIDAK) for stepdown in (False, True)]
        assert calls == [sv.m]
        for rs in results:
            assert np.array_equal(rs.pvalues.values, p_values(sv).values)
            assert np.array_equal(rs.pvalues.values, tail(sv.values))


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


def array_dataclasses():
    """Two equal-valued instances of every frozen dataclass with an array field."""
    sample = tdata(30, 4, seed=1)
    sv = corrgraph.statistic(sample, StatKind.FISHER)
    corr = empirical_correlation(sample)
    adjacency = sbm_adjacency(4, 0.6, 0.2, make_rng(2))
    sigma = np.eye(6) + 0.1
    yield lambda: SampleMatrix(sample.data)
    yield lambda: CorrelationMatrix(corr.values)
    yield lambda: StatVector(sv.kind, sv.values, sv.n)
    yield lambda: PValueVector(p_values(sv).values)
    yield lambda: stats.PairCovariance(sigma.copy(), kind=StatKind.FISHER, source="oracle")
    yield lambda: gauss_draw_matrix(corr, sv.kind, 100, make_rng(0), stats=sv)
    yield lambda: run_procedure(sv, 0.05, ProcedureKind(Method.SIDAK, True))
    yield lambda: corrgraph.AdjacencyMatrix(adjacency.values)
    yield lambda: correlation_model(adjacency, 0.1)


@pytest.mark.parametrize("make", list(array_dataclasses()))
def test_array_results_compare_by_identity(make):
    a, b = make(), make()
    assert a == a and not a != a
    assert a != b and not a == b
    assert len({a, b, a}) == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pvalue_vector_refuses_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        PValueVector(np.array([bad, 0.5]))


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
