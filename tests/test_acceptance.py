"""Acceptance suite: eleven numbered end-to-end criteria.

Each test prints one PASS/FAIL line.  Several criteria are Monte Carlo
studies at full scale (thousands of replicates); the whole module is sized
to run on a single CPU in a few minutes.  Seeds are frozen so the suite is
deterministic.
"""

import math

import numpy as np
import pytest

from corrgraph import (
    CorrelationMatrix,
    ExperimentConfig,
    Method,
    ModelError,
    ProcedureKind,
    PValueVector,
    StatKind,
    bh_fdr,
    correlation_model,
    is_mtp2_gaussian_abs,
    max_gauss_quantile,
    num_pairs,
    omega_gaussian,
    pair_indices,
    random_correlation_matrix,
    run_experiment,
    run_procedure,
    sample_gaussian,
    sbm_adjacency,
    sidak_threshold,
    statistic,
)
from corrgraph.rng import make_rng


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def chain_model(p=4, rho=0.2):
    a = np.zeros((p, p), dtype=int)
    for k in range(p - 1):
        a[k, k + 1] = a[k + 1, k] = 1
    from corrgraph import AdjacencyMatrix

    return correlation_model(AdjacencyMatrix(a), rho)


# ---------------------------------------------------------------------------
# 1. Monte Carlo validation of the closed-form covariances
# ---------------------------------------------------------------------------

def test_criterion_01_covariance_monte_carlo():
    """Sample covariance of centered statistic vectors matches the formulas.

    Chain graph on p=4, rho=0.2, n=20000 per replicate, 5000 replicates.
    The second-order replicate statistic uses mean-centered products only
    (the model has true unit variances), matching its stated asymptotics.
    """
    model = chain_model()
    gamma = model.gamma.values
    n, reps, p = 20000, 5000, 4
    i, j = pair_indices(p)
    rho = gamma[i, j]
    factor = np.linalg.cholesky(gamma)
    rng = make_rng(5)

    t_emp = np.empty((reps, i.size))
    t_stu = np.empty((reps, i.size))
    t_fis = np.empty((reps, i.size))
    t_so = np.empty((reps, i.size))
    chunk = 250
    g = lambda r: r / np.sqrt(1.0 - r * r)
    for start in range(0, reps, chunk):
        r_chunk = min(chunk, reps - start)
        x = rng.standard_normal((r_chunk, n, p)) @ factor.T
        xc = x - x.mean(axis=1, keepdims=True)
        cross = np.einsum("rni,rnj->rij", xc, xc) / n
        sd = np.sqrt(np.einsum("rii->ri", cross))
        corr = cross / (sd[:, :, None] * sd[:, None, :])
        r = corr[:, i, j]
        sl = slice(start, start + r_chunk)
        t_emp[sl] = np.sqrt(n) * (r - rho)
        t_stu[sl] = np.sqrt(n - 2) * (g(r) - g(rho))
        t_fis[sl] = np.sqrt(n - 3) * (np.arctanh(r) - np.arctanh(rho))
        # Mean-centered products (no rescaling: true variances are 1).
        zbar = cross[:, i, j]
        z2 = np.einsum("rni,rnj->rij", xc**2, xc**2)[:, i, j] / n
        theta = z2 - zbar**2
        t_so[sl] = np.sqrt(n) * (zbar - rho) / np.sqrt(theta)

    worst = 0.0
    for kind, t in (
        (StatKind.EMPIRICAL, t_emp),
        (StatKind.STUDENT, t_stu),
        (StatKind.FISHER, t_fis),
        (StatKind.SECOND_ORDER, t_so),
    ):
        want = omega_gaussian(model.gamma, kind).values
        got = np.cov(t, rowvar=False)
        diff = float(np.max(np.abs(got - want)))
        worst = max(worst, diff)
    report(1, worst < 0.05, f"max |MC cov - formula| = {worst:.4f} (< 0.05), all 4 statistics")


# ---------------------------------------------------------------------------
# 2. Independence collapse
# ---------------------------------------------------------------------------

def test_criterion_02_identity_collapse():
    worst = 0.0
    for p in (3, 10, 26):
        gamma = CorrelationMatrix(np.eye(p))
        for kind in StatKind:
            om = omega_gaussian(gamma, kind).values
            worst = max(worst, float(np.max(np.abs(om - np.eye(num_pairs(p))))))
    report(2, worst < 1e-12, f"max |Omega(I_p) - I_m| = {worst:.2e} (< 1e-12), p in {{3,10,26}}")


# ---------------------------------------------------------------------------
# 3. Monte Carlo quantile vs Sidak under independence
# ---------------------------------------------------------------------------

def test_criterion_03_gauss_quantile_matches_sidak():
    worst = 0.0
    for m in (1, 10, 325):
        est = max_gauss_quantile(np.eye(m), 0.05, 200_000, seed=3)
        worst = max(worst, abs(est.value - sidak_threshold(0.05, m)))
    report(3, worst < 0.02, f"max |MC quantile - Sidak| = {worst:.4f} (< 0.02), m in {{1,10,325}}")


# ---------------------------------------------------------------------------
# 4. Step-down Bonferroni is Holm
# ---------------------------------------------------------------------------

def test_criterion_04_holm_equivalence():
    from scipy.stats import norm

    rng = make_rng(4)
    mismatches = 0
    for _ in range(10_000):
        m = int(rng.integers(1, 51))
        p = rng.random(m)
        p[rng.random(m) < 0.3] *= 0.01  # seed some strong signals
        order = np.argsort(p, kind="stable")
        holm = set()
        for rank, idx in enumerate(order):
            if p[idx] <= 0.05 / (m - rank):
                holm.add(int(idx))
            else:
                break
        from corrgraph import StatVector

        sv = StatVector(StatKind.EMPIRICAL, norm.ppf(1 - p / 2), 100)
        got = run_procedure(sv, 0.05, ProcedureKind(Method.BONFERRONI, True)).rejected
        if got != holm:
            mismatches += 1
    report(4, mismatches == 0, f"{mismatches} mismatches with Holm in 10000 random vectors")


# ---------------------------------------------------------------------------
# 5-7. Full-scale SBM studies
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def power_study():
    """n=500, rho=0.2, p_inter in {0.01, 0.4}, 2000 replicates."""
    config = ExperimentConfig(
        p=26,
        p_intra=0.6,
        p_inter=(0.01, 0.4),
        rho=(0.2,),
        n=(500,),
        stats=(StatKind.EMPIRICAL, StatKind.STUDENT),
        procedures=(
            ProcedureKind(Method.BONFERRONI),
            ProcedureKind(Method.SIDAK),
            ProcedureKind(Method.SIDAK, True),
            ProcedureKind(Method.BOOT_RW),
        ),
        alpha=0.05,
        replicates=2000,
        bootrw_draws=100,
        seed=2,
    )
    return {
        (row.p_inter, row.stat, row.method, row.stepdown): row
        for row in run_experiment(config)
    }


@pytest.fixture(scope="session")
def fwer_study():
    """Fisher statistic, n=300, p_inter=0.4, 2000 replicates."""
    config = ExperimentConfig(
        p=26,
        p_intra=0.6,
        p_inter=(0.4,),
        rho=(0.2,),
        n=(300,),
        stats=(StatKind.FISHER,),
        procedures=(
            ProcedureKind(Method.BONFERRONI),
            ProcedureKind(Method.SIDAK),
            ProcedureKind(Method.MAX_T),
        ),
        alpha=0.05,
        replicates=2000,
        maxt_draws=1000,
        seed=12,
    )
    return {(row.method, row.stepdown): row for row in run_experiment(config)}


def test_criterion_05_fwer_control(fwer_study):
    fwers = {
        method.value: fwer_study[(method, False)].fwer
        for method in (Method.BONFERRONI, Method.SIDAK, Method.MAX_T)
    }
    worst = max(fwers.values())
    detail = ", ".join(f"{k}={v:.3f}" for k, v in fwers.items())
    report(5, worst <= 0.065, f"FWER at alpha=0.05 (<= 0.065): {detail}")


def test_criterion_06_power_levels(power_study):
    targets = [
        ((0.4, StatKind.STUDENT, Method.BONFERRONI, False), 0.776),
        ((0.4, StatKind.EMPIRICAL, Method.SIDAK, True), 0.802),
        ((0.4, StatKind.EMPIRICAL, Method.BOOT_RW, False), 0.786),
    ]
    details, ok = [], True
    for key, want in targets:
        got = power_study[key].power
        ok = ok and abs(got - want) <= 0.03
        details.append(f"{key[1].value}/{key[2].value}{'+sd' if key[3] else ''}: "
                       f"{got:.3f} (target {want:.3f})")
    report(6, ok, "power within 0.03 of targets — " + "; ".join(details))


def test_criterion_07_sparsity_stability(power_study):
    sparse = power_study[(0.01, StatKind.EMPIRICAL, Method.SIDAK, False)].fwer
    dense = power_study[(0.4, StatKind.EMPIRICAL, Method.SIDAK, False)].fwer
    gap = abs(sparse - dense)
    report(7, gap < 0.05, f"|FWER(0.01) - FWER(0.4)| = {gap:.3f} (< 0.05), Sidak/empirical")


# ---------------------------------------------------------------------------
# 8. Few spurious edges on a null model at realistic scale
# ---------------------------------------------------------------------------

def test_criterion_08_null_model_rejections():
    gamma = CorrelationMatrix(np.eye(26))
    counts = []
    for seed in range(500):
        data = sample_gaussian(gamma, 122, rng=make_rng(8, seed))
        sv = statistic(data, StatKind.FISHER)
        rs = run_procedure(sv, 0.05, ProcedureKind(Method.SIDAK, True))
        counts.append(len(rs.rejected))
    mean = float(np.mean(counts))
    report(8, mean <= 0.2, f"mean rejected edges under Gamma=I: {mean:.3f} (<= 0.2), "
                           f"n=122, p=26, 500 seeds")


# ---------------------------------------------------------------------------
# 9. BH controls FDR under the full null
# ---------------------------------------------------------------------------

def test_criterion_09_bh_fdr_null():
    rng = make_rng(9)
    m, reps = 325, 10_000
    fdps = np.empty(reps)
    for r in range(reps):
        rs = bh_fdr(PValueVector(rng.random(m)), 0.05)
        fdps[r] = 1.0 if rs.rejected else 0.0
    fdr = float(fdps.mean())
    se = float(fdps.std(ddof=1) / math.sqrt(reps))
    report(9, fdr <= 0.05 + 3 * se, f"null FDR = {fdr:.4f} <= 0.05 + 3*{se:.4f}, m=325")


# ---------------------------------------------------------------------------
# 10. MTP2 is rare for random correlation matrices, universal at d=2
# ---------------------------------------------------------------------------

def test_criterion_10_mtp2_rarity():
    rng = make_rng(10)
    hits5 = sum(
        is_mtp2_gaussian_abs(random_correlation_matrix(5, rng))[0] for _ in range(10_000)
    )
    hits2 = sum(
        is_mtp2_gaussian_abs(random_correlation_matrix(2, rng))[0] for _ in range(100)
    )
    ok = hits5 <= 10 and hits2 == 100
    report(10, ok, f"MTP2 rate d=5: {hits5}/10000 (<= 0.1%), d=2: {hits2}/100 (= 100%)")


# ---------------------------------------------------------------------------
# 11. The PD verdict tracks the spectral bound exactly
# ---------------------------------------------------------------------------

def test_criterion_11_pd_boundary():
    rng = make_rng(11)
    checked, wrong = 0, 0
    while checked < 100:
        p = int(rng.integers(4, 14)) * 2
        adjacency = sbm_adjacency(p, float(rng.uniform(0.2, 0.9)),
                                  float(rng.uniform(0.05, 0.5)), rng=rng)
        lam = np.linalg.eigvalsh(adjacency.values.astype(float))[0]
        if lam >= 0.0:  # empty graph: no finite boundary
            continue
        bound = 1.0 / abs(lam)
        checked += 1
        rho_in = (1.0 - 1e-6) * bound
        rho_out = (1.0 + 1e-6) * bound

        inside_ok = True
        if rho_in < 1.0:
            try:
                correlation_model(adjacency, rho_in)
            except ModelError:
                inside_ok = False
            try:
                np.linalg.cholesky(np.eye(p) + rho_in * adjacency.values)
            except np.linalg.LinAlgError:
                inside_ok = False  # direct factorization disagrees

        outside_rejected = False
        try:
            correlation_model(adjacency, rho_out)
        except ModelError:
            outside_rejected = True
        direct_min = np.linalg.eigvalsh(np.eye(p) + rho_out * adjacency.values)[0]
        if not (inside_ok and outside_rejected and direct_min <= 1e-6):
            wrong += 1
    report(11, wrong == 0, f"PD verdict vs direct factorization: {wrong}/100 disagreements "
                           f"at rho = (1 -+ 1e-6)/|lambda_min|")
