"""Test statistics, p-values, and the asymptotic pair covariances.

The covariance tests compare the vectorized implementations against slow
scalar oracles written directly from the entrywise formulas.  The
fourth-moment plug-in is checked against an oracle that builds the p^4 moment
tensor and evaluates Omega = A^T M A on it; fed the exact Gaussian (Isserlis)
moments, that oracle reproduces the closed form.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from corrgraph import (
    CorrelationMatrix,
    DegenerateInputError,
    PairCovariance,
    SampleMatrix,
    SingularityError,
    StatKind,
    StatVector,
    empirical_correlation,
    flat_to_pair,
    fourth_moments,
    num_pairs,
    omega_gaussian,
    omega_general,
    p_values,
    standardize,
    statistic,
)
from corrgraph import stats as stats_module
from corrgraph.core import pair_indices
from corrgraph.stats import _two_sided_tail

ALL_KINDS = list(StatKind)


def random_pd_correlation(p, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(p + 3, p))
    w = g.T @ g
    d = np.sqrt(np.diag(w))
    c = w / np.outer(d, d)
    np.fill_diagonal(c, 1.0)
    return CorrelationMatrix(c)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

class TestStatistics:
    @pytest.fixture()
    def samples(self):
        rng = np.random.default_rng(100)
        return SampleMatrix(rng.normal(size=(37, 4)))

    def test_scalar_oracles(self, samples):
        n, p = samples.n, samples.p
        corr = np.corrcoef(samples.data, rowvar=False)
        for flat in range(num_pairs(p)):
            i, j = flat_to_pair(flat, p)
            r = corr[i - 1, j - 1]
            expected = {
                StatKind.EMPIRICAL: math.sqrt(n) * r,
                StatKind.STUDENT: math.sqrt(n - 2) * r / math.sqrt(1 - r * r),
                StatKind.FISHER: math.sqrt(n - 3) * 0.5 * math.log((1 + r) / (1 - r)),
            }
            for kind, want in expected.items():
                got = statistic(samples, kind).values[flat]
                assert got == pytest.approx(want, rel=1e-12)

    def test_second_order_oracle(self, samples):
        n = samples.n
        x = samples.data - samples.data.mean(axis=0)
        x = x / x.std(axis=0)
        got = statistic(samples, StatKind.SECOND_ORDER).values
        for flat in range(samples.m):
            i, j = flat_to_pair(flat, samples.p)
            z = x[:, i - 1] * x[:, j - 1]
            want = math.sqrt(n) * z.mean() / z.std()
            assert got[flat] == pytest.approx(want, rel=1e-12)

    def test_kind_accepts_string(self, samples):
        assert np.array_equal(
            statistic(samples, "fisher").values, statistic(samples, StatKind.FISHER).values
        )

    def test_small_n_raises(self):
        s = SampleMatrix(np.random.default_rng(0).normal(size=(3, 3)))
        for kind in ALL_KINDS:
            with pytest.raises(ValueError):
                statistic(s, kind)

    def test_unit_correlation_saturates_finite(self):
        rng = np.random.default_rng(5)
        col = rng.normal(size=25)
        s = SampleMatrix(np.column_stack([col, 3.0 * col, rng.normal(size=25)]))
        # At the clip 1 - 1e-12 Student blows up like 1/sqrt(eps), Fisher
        # like log(1/eps): both huge and finite, with underflowing p-values.
        for kind, bound in ((StatKind.STUDENT, 1e4), (StatKind.FISHER, 50.0)):
            t = statistic(s, kind).values
            assert np.all(np.isfinite(t))
            assert abs(t[0]) > bound
            assert p_values(statistic(s, kind)).values[0] == 0.0

    @settings(max_examples=30)
    @given(st.integers(0, 2**31), st.floats(0.1, 10.0), st.floats(-5.0, 5.0))
    def test_affine_invariance(self, seed, scale, shift):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(20, 3))
        moved = data * scale + shift
        for kind in ALL_KINDS:
            a = statistic(SampleMatrix(data), kind).values
            b = statistic(SampleMatrix(moved), kind).values
            assert np.allclose(a, b, atol=1e-8)


class TestPValues:
    def test_formula(self):
        t = np.array([-2.5, 0.0, 1.0, 3.3])
        sv = StatVector(kind=StatKind.EMPIRICAL, values=t, n=50)
        want = 2.0 * norm.sf(np.abs(t))
        assert np.allclose(p_values(sv).values, want, rtol=1e-12)

    def test_dense_grid_against_norm_sf(self):
        t = np.concatenate([np.linspace(0.0, 37.0, 20001), np.geomspace(1e-12, 1.0, 200)])
        want = 2.0 * norm.sf(t)
        got = p_values(StatVector(StatKind.EMPIRICAL, t, 10)).values
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        assert np.array_equal(p_values(StatVector(StatKind.EMPIRICAL, -t, 10)).values, got)

    def test_tail_at_infinity_is_zero(self):
        t = np.array([-np.inf, np.inf, 0.0, -40.0])
        assert np.array_equal(_two_sided_tail(t), [0.0, 0.0, 1.0, 0.0])

    @given(st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=20))
    def test_sign_symmetry_and_range(self, values):
        t = np.asarray(values)
        p_pos = p_values(StatVector(StatKind.EMPIRICAL, t, 10)).values
        p_neg = p_values(StatVector(StatKind.EMPIRICAL, -t, 10)).values
        assert np.array_equal(p_pos, p_neg)
        assert np.all((p_pos >= 0.0) & (p_pos <= 1.0))

    @given(st.floats(0.0, 20.0), st.floats(0.0, 20.0))
    def test_monotone_in_magnitude(self, a, b):
        lo, hi = sorted([a, b])
        p = p_values(StatVector(StatKind.EMPIRICAL, np.array([lo, hi]), 10)).values
        assert p[0] >= p[1]


# ---------------------------------------------------------------------------
# scalar covariance oracles
# ---------------------------------------------------------------------------

def oracle_omega_empirical(gamma, a, b, c, d):
    """Entry of the empirical-statistic covariance, 0-based pair (a,b),(c,d)."""
    r = lambda x, y: gamma[x, y]
    if (a, b) == (c, d):
        return (1.0 - r(a, b) ** 2) ** 2
    shared = {a, b} & {c, d}
    if len(shared) == 1:
        s = shared.pop()
        x = ({a, b} - {s}).pop()
        y = ({c, d} - {s}).pop()
        r1, r2, rxy = r(a, b), r(c, d), r(x, y)
        return -0.5 * r1 * r2 * (1 - r1**2 - r2**2 - rxy**2) + rxy * (1 - r1**2 - r2**2)
    i, j, k, l = a, b, c, d
    return (
        0.5 * r(i, j) * r(k, l) * (r(i, k) ** 2 + r(i, l) ** 2 + r(j, k) ** 2 + r(j, l) ** 2)
        + r(i, k) * r(j, l)
        + r(i, l) * r(j, k)
        - r(i, k) * r(j, k) * r(k, l)
        - r(i, j) * r(i, k) * r(i, l)
        - r(i, j) * r(j, k) * r(j, l)
        - r(i, l) * r(j, l) * r(k, l)
    )


def oracle_omega(gamma, kind):
    p = gamma.shape[0]
    pairs = list(itertools.combinations(range(p), 2))
    m = len(pairs)
    out = np.empty((m, m))
    for u, (a, b) in enumerate(pairs):
        for v, (c, d) in enumerate(pairs):
            if kind is StatKind.SECOND_ORDER:
                r = lambda x, y: gamma[x, y]
                num = r(a, c) * r(b, d) + r(a, d) * r(b, c)
                out[u, v] = num / math.sqrt((1 + r(a, b) ** 2) * (1 + r(c, d) ** 2))
                continue
            w = oracle_omega_empirical(gamma, a, b, c, d)
            if kind is StatKind.STUDENT:
                w /= ((1 - gamma[a, b] ** 2) * (1 - gamma[c, d] ** 2)) ** 1.5
            elif kind is StatKind.FISHER:
                w /= (1 - gamma[a, b] ** 2) * (1 - gamma[c, d] ** 2)
            out[u, v] = w
    return out


class TestOmegaGaussian:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("seed,p", [(0, 3), (1, 4), (2, 6)])
    def test_matches_scalar_oracle(self, kind, seed, p):
        gamma = random_pd_correlation(p, seed)
        got = omega_gaussian(gamma, kind).values
        want = oracle_omega(gamma.values, kind)
        assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("p", [3, 10])
    def test_identity_collapses_to_identity(self, kind, p):
        got = omega_gaussian(CorrelationMatrix(np.eye(p)), kind).values
        assert np.allclose(got, np.eye(num_pairs(p)), atol=1e-14)

    def test_hand_values_single_nonzero_correlation(self):
        # p = 3, rho_12 = 0.2, others 0.
        g = np.eye(3)
        g[0, 1] = g[1, 0] = 0.2
        gamma = CorrelationMatrix(g)
        emp = omega_gaussian(gamma, StatKind.EMPIRICAL).values
        assert emp[0, 0] == pytest.approx((1 - 0.04) ** 2)
        # pairs (1,3) and (2,3) share variable 3; formula gives rho_12 * 1.
        assert emp[1, 2] == pytest.approx(0.2)
        so = omega_gaussian(gamma, StatKind.SECOND_ORDER).values
        assert np.allclose(np.diag(so), 1.0, atol=1e-15)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_symmetric_unit_like_diagonal(self, kind):
        gamma = random_pd_correlation(5, 7)
        om = omega_gaussian(gamma, kind).values
        assert np.allclose(om, om.T, atol=1e-12)
        if kind is StatKind.SECOND_ORDER:
            assert np.allclose(np.diag(om), 1.0, atol=1e-14)

    def test_unit_correlation_rejected_for_rescaled_kinds(self):
        g = np.eye(3)
        g[0, 1] = g[1, 0] = 1.0
        gamma = CorrelationMatrix(g)
        for kind in (StatKind.STUDENT, StatKind.FISHER):
            with pytest.raises(SingularityError):
                omega_gaussian(gamma, kind)
        omega_gaussian(gamma, StatKind.EMPIRICAL)  # fine


# ---------------------------------------------------------------------------
# fourth-moment oracle: the p^4 tensor and Omega = A^T M A
# ---------------------------------------------------------------------------

def isserlis_tensor(gamma):
    """Exact Gaussian fourth moments rho_ijkl = rho_ij rho_kl + rho_ik rho_jl + rho_il rho_jk."""
    g = gamma.values
    return (
        np.einsum("ij,kl->ijkl", g, g)
        + np.einsum("ik,jl->ijkl", g, g)
        + np.einsum("il,jk->ijkl", g, g)
    )


def sample_tensor(samples):
    """Plug-in fourth moments: Gram matrix of the n x p^2 pair products, over n."""
    x = standardize(samples).data
    n, p = x.shape
    y = (x[:, :, None] * x[:, None, :]).reshape(n, p * p)
    return (y.T @ y / n).reshape(p, p, p, p)


def omega_from_tensor(tensor, corr, kind):
    """Omega = A^T M A on the moments M of the pair products and the squares.

    A holds the influence weights of r_ij: 1 on x_i x_j and -r_ij/2 on x_i^2
    and x_j^2.  Second-order: the centered pair-product moments, scaled by
    their variances.
    """
    p = corr.shape[0]
    i, j = pair_indices(p)
    r = corr[i, j]
    t = tensor.reshape(p * p, p * p)
    pairs, squares = i * p + j, np.arange(p) * (p + 1)
    omega = t[np.ix_(pairs, pairs)]
    if kind is StatKind.SECOND_ORDER:
        omega -= np.outer(r, r)
        var2 = np.diag(omega)
        return omega / np.sqrt(np.outer(var2, var2))
    a = np.zeros((p, r.size))
    cols = np.arange(r.size)
    a[i, cols] = a[j, cols] = -0.5 * r
    a_full = np.vstack([np.eye(r.size), a])
    m_full = t[np.ix_(np.concatenate([pairs, squares]), np.concatenate([pairs, squares]))]
    omega = a_full.T @ m_full @ a_full
    d = np.outer(1.0 - r * r, 1.0 - r * r)
    if kind is StatKind.STUDENT:
        omega /= d**1.5
    elif kind is StatKind.FISHER:
        omega /= d
    return omega


class TestFourthMomentRoute:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_gaussian_moments_reproduce_closed_form(self, kind):
        gamma = random_pd_correlation(5, 42)
        via_moments = omega_from_tensor(isserlis_tensor(gamma), gamma.values, kind)
        closed = omega_gaussian(gamma, kind).values
        assert np.allclose(via_moments, closed, atol=1e-10)

    def test_sample_moments_match_bruteforce(self):
        rng = np.random.default_rng(9)
        s = SampleMatrix(rng.normal(size=(12, 3)))
        tensor = sample_tensor(s)
        x = (s.data - s.data.mean(0)) / s.data.std(0)
        for idx in itertools.product(range(3), repeat=4):
            want = np.mean(x[:, idx[0]] * x[:, idx[1]] * x[:, idx[2]] * x[:, idx[3]])
            assert tensor[idx] == pytest.approx(want, rel=1e-10)

    def test_tensor_symmetry(self):
        t = isserlis_tensor(random_pd_correlation(4, 3))
        assert np.allclose(t, np.transpose(t, (1, 0, 2, 3)))
        assert np.allclose(t, np.transpose(t, (2, 3, 0, 1)))
        assert np.allclose(t, np.transpose(t, (0, 1, 3, 2)))

    def test_plugin_close_to_truth_large_n(self):
        gamma = random_pd_correlation(4, 11)
        rng = np.random.default_rng(12)
        factor = np.linalg.cholesky(gamma.values)
        data = SampleMatrix(rng.standard_normal((40000, 4)) @ factor.T)
        plug = omega_general(fourth_moments(data), StatKind.EMPIRICAL).values
        truth = omega_gaussian(gamma, StatKind.EMPIRICAL).values
        assert np.max(np.abs(plug - truth)) < 0.1


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n,p", [(60, 5), (200, 12), (500, 26)])
def test_omega_general_matches_tensor_oracle(kind, n, p):
    rng = np.random.default_rng(n + p)
    samples = SampleMatrix(rng.standard_t(5, size=(n, p)) @ (np.eye(p) + 0.3))
    got = omega_general(fourth_moments(samples), kind).values
    want = omega_from_tensor(sample_tensor(samples), empirical_correlation(samples).values, kind)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_second_order_plugin_zero_variance_raises():
    # Column b = a on 16 +-1 signs: the column norms are 4, so r = 1 exactly,
    # and the pair product is 1 = r on every row.
    signs = np.array([1.0, -1.0] * 8)
    data = np.column_stack([signs, signs, np.random.default_rng(8).normal(size=16)])
    with pytest.raises(SingularityError):
        omega_general(fourth_moments(SampleMatrix(data)), StatKind.SECOND_ORDER)


def test_second_order_degenerate_pair_raises():
    # Two balanced +-1 columns make Z constant: theta = 0 for that pair.
    rng = np.random.default_rng(21)
    signs = np.array([1.0] * 15 + [-1.0] * 15)
    rng.shuffle(signs)
    data = np.column_stack([signs, -signs, rng.normal(size=30)])
    with pytest.raises(DegenerateInputError):
        statistic(SampleMatrix(data), StatKind.SECOND_ORDER)


def second_order_oracle(samples):
    """The second-order statistic from the full n x m matrix of pair products."""
    x = standardize(samples).data
    i, j = pair_indices(samples.p)
    z = x[:, i] * x[:, j]
    return np.sqrt(samples.n) * z.mean(axis=0) / np.sqrt(z.var(axis=0))


@pytest.mark.parametrize("chunk", [None, 1, 7, 128])
def test_second_order_chunks_match_full_products(monkeypatch, chunk):
    rng = np.random.default_rng(30)
    samples = SampleMatrix(rng.standard_t(5, size=(300, 24)) @ (np.eye(24) + 0.2))
    if chunk is not None:  # pairs per chunk
        monkeypatch.setattr(stats_module, "_PRODUCT_ENTRIES", chunk * samples.n)
        assert samples.m > stats_module._product_pairs(samples.n)  # more than one chunk
    got = statistic(samples, StatKind.SECOND_ORDER).values
    assert np.array_equal(got, second_order_oracle(samples))


@pytest.mark.parametrize("chunk", [None, 7])
def test_second_order_names_degenerate_pair_in_later_chunk(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(stats_module, "_PRODUCT_ENTRIES", chunk * 30)
    rng = np.random.default_rng(31)
    signs = np.array([1.0] * 15 + [-1.0] * 15)
    rng.shuffle(signs)
    data = rng.normal(size=(30, 20))
    data[:, 17], data[:, 18] = signs, -signs  # pair (18, 19), flat index 187
    with pytest.raises(DegenerateInputError, match=r"pair \(18, 19\)"):
        statistic(SampleMatrix(data), StatKind.SECOND_ORDER)


def test_second_order_memory_is_chunked():
    samples = SampleMatrix(np.random.default_rng(32).normal(size=(2000, 100)))
    tracemalloc.start()
    try:
        statistic(samples, StatKind.SECOND_ORDER)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The full 2000 x 4950 product matrix alone is 79 MB.
    assert peak < 20e6


def test_second_order_chunks_are_bounded_in_entries():
    samples = SampleMatrix(np.random.default_rng(33).normal(size=(200_000, 6)))
    tracemalloc.start()
    try:
        statistic(samples, StatKind.SECOND_ORDER)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Standardizing holds two sample-sized arrays at once; chunks of all 15
    # pairs would hold four temporaries of 2.5 samples each at this n.
    assert peak < 4 * samples.data.nbytes


def test_pair_covariance_takes_fresh_array():
    fresh = np.eye(3)
    cov = PairCovariance(fresh, kind=StatKind.EMPIRICAL, source="oracle")
    assert np.shares_memory(cov.values, fresh)
    assert not fresh.flags.writeable and not cov.values.flags.writeable
    # A view or a non-float64 array is not the covariance's own: it is copied.
    base = np.eye(6)
    for other in (base[::2, ::2], np.eye(3, dtype=np.float32)):
        cov = PairCovariance(other, kind=StatKind.EMPIRICAL, source="oracle")
        assert not np.shares_memory(cov.values, other) and other.flags.writeable
        assert not cov.values.flags.writeable
