"""SBM models, Gaussian sampling, replicate metrics and the experiment grid."""

import math
import re
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from corrgraph import (
    AdjacencyMatrix,
    ConfigError,
    ExperimentConfig,
    MaxRecords,
    Method,
    ModelError,
    ProcedureKind,
    StatKind,
    correlation_model,
    empirical_correlation,
    make_rng,
    replicate_metrics,
    run_experiment,
    sample_gaussian,
    sbm_adjacency,
)
from corrgraph import core, procedures, simulation
from corrgraph import quantiles
from corrgraph.errors import DegenerateInputError


def path_graph(p):
    a = np.zeros((p, p), dtype=int)
    for k in range(p - 1):
        a[k, k + 1] = a[k + 1, k] = 1
    return AdjacencyMatrix(a)


class TestAdjacency:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdjacencyMatrix(np.array([[0, 1], [0, 0]]))  # asymmetric
        with pytest.raises(ValueError):
            AdjacencyMatrix(np.array([[1, 0], [0, 0]]))  # diagonal
        with pytest.raises(ValueError):
            AdjacencyMatrix(np.array([[0, 2], [2, 0]]))  # non-binary

    def test_edge_mask_order(self):
        a = path_graph(4)  # edges (1,2) (2,3) (3,4) -> flats 0, 3, 5
        assert a.edge_mask().tolist() == [True, False, False, True, False, True]

    def test_sbm_odd_p_rejected(self):
        with pytest.raises(ConfigError):
            sbm_adjacency(7, 0.5, 0.1, make_rng(0))
        with pytest.raises(ConfigError):
            sbm_adjacency(8, 1.5, 0.1, make_rng(0))
        with pytest.raises(ConfigError):
            sbm_adjacency(8, 0.5, -0.1, make_rng(0))

    def test_sbm_extreme_probabilities(self):
        a = sbm_adjacency(10, 1.0, 0.0, make_rng(0)).values
        blocks = np.zeros(10, dtype=bool)
        blocks[:5] = True
        for i in range(10):
            for j in range(i + 1, 10):
                assert a[i, j] == (1 if blocks[i] == blocks[j] else 0)

    def test_sbm_deterministic_in_seed(self):
        a = sbm_adjacency(12, 0.6, 0.2, make_rng(5)).values
        b = sbm_adjacency(12, 0.6, 0.2, make_rng(5)).values
        c = sbm_adjacency(12, 0.6, 0.2, make_rng(6)).values
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestCorrelationModel:
    def test_path_graph_spectrum_and_bound(self):
        # Path on 4 nodes: lambda_min = -golden ratio, bound = 1/phi.
        model = correlation_model(path_graph(4), 0.2)
        phi = (1 + math.sqrt(5)) / 2
        assert model.min_eigenvalue == pytest.approx(-phi, rel=1e-12)
        assert model.rho_bound == pytest.approx(1 / phi, rel=1e-12)
        want = np.eye(4) + 0.2 * path_graph(4).values
        assert np.allclose(model.gamma.values, want)

    def test_rho_beyond_bound_rejected(self):
        with pytest.raises(ModelError) as info:
            correlation_model(path_graph(4), 0.63)
        assert info.value.rho_bound == pytest.approx(2 / (1 + math.sqrt(5)), rel=1e-9)
        with pytest.raises(ModelError):
            correlation_model(path_graph(4), -0.63)
        with pytest.raises(ModelError):
            correlation_model(AdjacencyMatrix(np.zeros((3, 3), dtype=int)), 1.0)

    def test_empty_graph_any_rho_below_one(self):
        model = correlation_model(AdjacencyMatrix(np.zeros((3, 3), dtype=int)), 0.99)
        assert model.rho_bound == math.inf
        assert not model.h1_mask().any()

    def test_nan_rho_refused(self):
        with pytest.raises(ConfigError, match="^rho must be finite, got nan$"):
            correlation_model(path_graph(4), math.nan)
        with pytest.raises(ModelError):
            correlation_model(path_graph(4), math.inf)

    def test_h1_mask_matches_adjacency(self):
        model = correlation_model(path_graph(5), 0.3)
        assert np.array_equal(model.h1_mask(), model.adjacency.edge_mask())


class TestSampling:
    def test_shape_and_determinism(self):
        model = correlation_model(path_graph(4), 0.3)
        a = sample_gaussian(model.gamma, 50, make_rng(1))
        b = sample_gaussian(model.gamma, 50, make_rng(1))
        c = sample_gaussian(model.gamma, 50, make_rng(2))
        assert a.data.shape == (50, 4)
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_large_sample_recovers_gamma(self):
        model = correlation_model(path_graph(4), 0.4)
        s = sample_gaussian(model.gamma, 200000, make_rng(3))
        got = empirical_correlation(s).values
        assert np.max(np.abs(got - model.gamma.values)) < 0.02


class TestReplicateMetrics:
    def test_mixed_case(self):
        h1 = np.array([True, True, False, False])
        rej = np.array([True, False, True, False])
        ind, tdp, fdp = replicate_metrics(rej, h1)
        assert (ind, tdp, fdp) == (1.0, 0.5, 0.5)

    def test_no_rejections_fdp_zero(self):
        h1 = np.array([True, False])
        ind, tdp, fdp = replicate_metrics(np.array([False, False]), h1)
        assert (ind, tdp, fdp) == (0.0, 0.0, 0.0)

    def test_full_null_tdp_nan(self):
        h1 = np.zeros(3, dtype=bool)
        ind, tdp, fdp = replicate_metrics(np.array([False, True, False]), h1)
        assert ind == 1.0 and math.isnan(tdp) and fdp == 1.0


class TestExperimentConfig:
    def test_coercion(self):
        cfg = ExperimentConfig(
            p=8,
            p_inter=[0.1],
            rho=[0.2],
            n=[100],
            stats=["student"],
            procedures=(("bonferroni", True),),
            replicates=5,
        )
        assert cfg.n == (100,)
        assert cfg.stats == (StatKind.STUDENT,)
        assert cfg.procedures[0] == ProcedureKind(Method.BONFERRONI, True)
        with pytest.raises(ConfigError):
            ExperimentConfig(n=["100"])

    def test_numpy_integers_accepted(self):
        cfg = ExperimentConfig(p=np.int64(8), n=(np.int32(60),), replicates=np.int64(2),
                               seed=np.uint32(3), threads=np.int8(2))
        assert (cfg.p, cfg.n, cfg.replicates, cfg.seed, cfg.threads) == (8, (60,), 2, 3, 2)
        assert type(cfg.p) is int and type(cfg.n[0]) is int

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(replicates=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(alpha=1.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(p_intra=2.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(p_inter=(0.1, 1.1))
        with pytest.raises(ConfigError):
            ExperimentConfig(threads=0)

    @pytest.mark.parametrize("field, message", [
        ({"p_inter": ["0.1"]}, "p_inter must be a number, got '0.1'"),
        ({"p_inter": [True]}, "p_inter must be a number, got True"),
        ({"rho": [None]}, "rho must be a number, got None"),
        ({"p_intra": True}, "p_intra must be a number, got True"),
        ({"p_intra": "0.6"}, "p_intra must be a number, got '0.6'"),
        ({"alpha": "0.05"}, "alpha must be a number, got '0.05'"),
        ({"n": [60.0]}, "n must be an integer, got 60.0"),
        ({"p_inter": []}, "p_inter needs at least one entry"),
        ({"rho": ()}, "rho needs at least one entry"),
        ({"n": []}, "n needs at least one entry"),
        ({"stats": []}, "stats needs at least one entry"),
        ({"procedures": ()}, "procedures needs at least one entry"),
    ])
    def test_fields_read_by_type(self, field, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(**field)

    @pytest.mark.parametrize("field, message", [
        ({"p_inter": 0.1}, "p_inter must be a list, got 0.1"),
        ({"rho": 0.2}, "rho must be a list, got 0.2"),
        ({"n": 100}, "n must be a list, got 100"),
        ({"stats": "fisher"}, "stats must be a list, got 'fisher'"),
        ({"procedures": "bonferroni"}, "procedures must be a list, got 'bonferroni'"),
        ({"procedures": ProcedureKind(Method.SIDAK)}, "procedures must be a list, got "),
    ])
    def test_list_fields_refuse_scalars_and_strings(self, field, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            ExperimentConfig(**field)

    def test_reals_accept_integers_and_numpy_scalars(self):
        cfg = ExperimentConfig(p_intra=1, p_inter=(0, np.float32(0.5)), rho=(np.float64(0.2),),
                               alpha=np.float64(0.05))
        assert (cfg.p_intra, cfg.p_inter, cfg.rho, cfg.alpha) == (1.0, (0.0, 0.5), (0.2,), 0.05)
        assert all(type(v) is float for v in (cfg.p_intra, *cfg.p_inter, *cfg.rho, cfg.alpha))


SMALL = dict(
    p=6,
    p_intra=0.7,
    p_inter=(0.2,),
    rho=(0.25,),
    n=(80,),
    stats=(StatKind.STUDENT, StatKind.FISHER),
    procedures=(
        ProcedureKind(Method.BONFERRONI),
        ProcedureKind(Method.SIDAK, True),
        ProcedureKind(Method.MAX_T),
        ProcedureKind(Method.ORACLE_MAX_T),
        ProcedureKind(Method.BOOT_RW),
    ),
    replicates=8,
    bootrw_draws=50,
    maxt_draws=200,
    seed=42,
)


class TestRunExperiment:
    def test_grid_shape_and_cells(self):
        rows = run_experiment(ExperimentConfig(**SMALL))
        assert len(rows) == 2 * 5  # stats x procedures
        for row in rows:
            assert row.replicates + row.failed_replicates == 8
            assert 0.0 <= row.fwer <= 1.0
            assert math.isnan(row.power) or 0.0 <= row.power <= 1.0

    def test_thread_count_invariance(self):
        one = run_experiment(ExperimentConfig(**{**SMALL, "threads": 1}))
        two = run_experiment(ExperimentConfig(**{**SMALL, "threads": 3}))
        assert one == two

    def test_seed_changes_results(self):
        base = run_experiment(ExperimentConfig(**SMALL))
        other = run_experiment(ExperimentConfig(**{**SMALL, "seed": 43}))
        assert base != other

    def test_full_null_power_is_nan(self):
        cfg = ExperimentConfig(
            p=6,
            p_intra=0.0,
            p_inter=(0.0,),
            rho=(0.2,),
            n=(60,),
            stats=(StatKind.FISHER,),
            procedures=(ProcedureKind(Method.SIDAK),),
            replicates=10,
            seed=1,
        )
        (row,) = run_experiment(cfg)
        assert math.isnan(row.power)
        assert row.fwer <= 0.4  # loose sanity bound at alpha = 0.05

    def test_adjacency_per_replicate_runs(self):
        cfg = ExperimentConfig(**{**SMALL, "adjacency_per_replicate": True, "replicates": 4})
        rows = run_experiment(cfg)
        assert len(rows) == 10

    @pytest.mark.parametrize("threads, pools", [(1, 0), (2, 1)])
    def test_one_pool_per_call_and_bounded_submissions(self, monkeypatch, threads, pools):
        # Two cells of 8 replicates, submitted 3 at a time: the rows are those
        # of one unbounded submission at threads=1.
        config = ExperimentConfig(**{**SMALL, "n": (60, 80), "threads": threads})
        expected = run_experiment(replace(config, threads=1))
        opened, submitted = [], []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

            def map(self, fn, *iterables, **kwargs):
                submitted.append(len(iterables[0]))
                return super().map(fn, *iterables, **kwargs)

        monkeypatch.setattr(simulation, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(simulation, "_IN_FLIGHT", 3)
        assert run_experiment(config) == expected
        assert len(opened) == pools
        assert submitted == [3, 3, 2, 3, 3, 2][:6 * pools]

    def test_replicates_in_flight_are_bounded(self, monkeypatch):
        # ThreadPoolExecutor.map holds a task of about ten times a replicate's
        # results for every replicate submitted; only _IN_FLIGHT are.
        replicates, kinds, procs = 30_000, 2, 4
        monkeypatch.setattr(simulation, "_replicate_work",
                            lambda *args: np.full((kinds, procs, 3), 0.5))
        config = ExperimentConfig(
            p=8, p_inter=(0.2,), rho=(0.2,), n=(60,), stats=(StatKind.FISHER, StatKind.STUDENT),
            procedures=tuple(ProcedureKind(method, stepdown)
                             for method in (Method.BONFERRONI, Method.SIDAK)
                             for stepdown in (False, True)),
            replicates=replicates, threads=2)
        tracemalloc.start()
        try:
            row = run_experiment(config)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (row.replicates, row.fwer) == (replicates, 0.5)
        assert peak < 2 * replicates * kinds * procs * 3 * 8


class TestSharedDraws:
    """Every statistic kind of a replicate reads one set of resamples per method."""

    def test_first_kind_rows_unchanged_by_more_kinds(self):
        base = {**SMALL, "n": (60, 200)}
        alone = run_experiment(ExperimentConfig(**{**base, "stats": (StatKind.FISHER,)}))
        paired = run_experiment(
            ExperimentConfig(**{**base, "stats": (StatKind.FISHER, StatKind.STUDENT)})
        )
        assert {pk.method for pk in SMALL["procedures"]} >= {
            Method.BOOT_RW, Method.MAX_T, Method.ORACLE_MAX_T
        }
        assert [row for row in paired if row.stat is StatKind.FISHER] == alone

    @pytest.mark.parametrize("stats", [
        (StatKind.FISHER,), (StatKind.FISHER, StatKind.STUDENT), tuple(StatKind),
    ])
    def test_one_builder_call_per_method_per_replicate(self, monkeypatch, stats):
        calls = []
        for name in ("bootstrap_draw_matrix", "gauss_draw_matrix"):
            def spy(data, kind, *args, _real=getattr(procedures, name), _name=name, **kwargs):
                calls.append((_name, kind))
                return _real(data, kind, *args, **kwargs)

            monkeypatch.setattr(procedures, name, spy)
        rows = run_experiment(ExperimentConfig(**{**SMALL, "stats": stats}))
        assert all(row.failed_replicates == 0 for row in rows)
        reps = SMALL["replicates"]
        # bootrw once, then maxt and oracle-maxt once each, every call for all kinds.
        assert calls == [("bootstrap_draw_matrix", stats), ("gauss_draw_matrix", stats),
                         ("gauss_draw_matrix", stats)] * reps

    def test_max_records_rows_match_draw_matrix_rows(self, monkeypatch):
        # Four kinds with maxt, its step-down and oracle-maxt: the rows read
        # from the builder's MaxRecords equal those read from the records of
        # its B x m draws, reduced by MaxRecords.from_draws in column chunks.
        # Both sides run the same record fold, so this checks that the fold
        # does not depend on the order and shape of its blocks; agreement with
        # the scan is checked at the procedure level (assert_matches_scan).
        config = ExperimentConfig(**{**SMALL, "stats": tuple(StatKind), "procedures": (
            ProcedureKind(Method.MAX_T), ProcedureKind(Method.MAX_T, True),
            ProcedureKind(Method.ORACLE_MAX_T), ProcedureKind(Method.ORACLE_MAX_T, True),
        )})
        records = run_experiment(config)
        real = procedures.gauss_draw_matrix

        def draw_matrix(*args, stats, **kwargs):
            return tuple(map(MaxRecords.from_draws, real(*args, **kwargs), stats))

        monkeypatch.setattr(procedures, "gauss_draw_matrix", draw_matrix)
        assert run_experiment(config) == records
        assert all(row.failed_replicates == 0 for row in records)

    def test_reduced_draw_rows_match_draw_matrix_rows(self, monkeypatch):
        # Four kinds with bootrw and maxt, each also stepping down, and a
        # single-step oracle-maxt: the builders get one step-down flag per
        # method, and the rows read from their MaxRecords (records or row
        # maxima) equal those read from the records of their B x m draws.
        # As above, the records side runs the same fold in other blocks, so
        # this checks block-order independence, not agreement with the scan.
        config = ExperimentConfig(**{**SMALL, "stats": tuple(StatKind), "procedures": (
            ProcedureKind(Method.BOOT_RW), ProcedureKind(Method.BOOT_RW, True),
            ProcedureKind(Method.MAX_T), ProcedureKind(Method.MAX_T, True),
            ProcedureKind(Method.ORACLE_MAX_T),
        )})
        flags = []
        for name in ("bootstrap_draw_matrix", "gauss_draw_matrix"):
            def spy(*args, _real=getattr(procedures, name), **kwargs):
                flags.append(kwargs["stepdown"])
                return _real(*args, **kwargs)

            monkeypatch.setattr(procedures, name, spy)
        reduced = run_experiment(config)
        assert flags == [True, True, False] * SMALL["replicates"]
        monkeypatch.undo()
        for name in ("bootstrap_draw_matrix", "gauss_draw_matrix"):
            def draw_matrix(*args, stats, stepdown, _real=getattr(procedures, name), **kwargs):
                return tuple(map(MaxRecords.from_draws, _real(*args, **kwargs), stats))

            monkeypatch.setattr(procedures, name, draw_matrix)
        assert run_experiment(config) == reduced
        assert all(row.failed_replicates == 0 for row in reduced)

    def test_one_correlation_per_replicate(self, monkeypatch):
        # Both statistic() calls and the bootrw and maxt builders read the
        # same SampleMatrix: its correlation is computed once.
        calls = []

        def spy(samples, _real=core.empirical_correlation):
            calls.append(samples)
            return _real(samples)

        monkeypatch.setattr(core, "empirical_correlation", spy)
        rows = run_experiment(ExperimentConfig(**SMALL))
        assert all(row.failed_replicates == 0 for row in rows)
        assert len(calls) == SMALL["replicates"]


class Reached(Exception):
    pass


def reach(*args, **kwargs):
    raise Reached


def reach_degenerate(*args, **kwargs):
    raise DegenerateInputError("column 1 has zero empirical variance", column=1)


class TestMemoryGuards:
    """Sizes that exceed physical memory (64 MB here) are refused before anything is allocated."""

    @pytest.fixture(autouse=True)
    def small_machine(self, monkeypatch):
        monkeypatch.setattr(quantiles.os, "sysconf",
                            lambda name: 4096 if name == "SC_PAGE_SIZE" else (1 << 26) // 4096)

    def test_sbm_adjacency_sized_before_pair_indices(self, monkeypatch):
        # 2.25 floats per p x p entry: 72 MB at p=2000, 18 MB at p=1000.
        monkeypatch.setattr(simulation, "pair_indices", reach)
        with pytest.raises(ValueError, match=r"^SBM adjacency needs about 0\.1 GB at p=2000, more "
                                             r"than the 0\.1 GB of physical memory; use a smaller p$"):
            sbm_adjacency(2000, 0.5, 0.1, make_rng(0))
        with pytest.raises(Reached):
            sbm_adjacency(1000, 0.5, 0.1, make_rng(0))

    def test_correlation_model_sized_before_gamma(self, monkeypatch):
        # Four p x p float arrays: 72 MB at p=1500, 32 MB at p=1000.
        monkeypatch.setattr(simulation.np.linalg, "eigvalsh", reach)
        with pytest.raises(ValueError, match=r"^correlation model needs about 0\.1 GB at p=1500"):
            correlation_model(AdjacencyMatrix(np.zeros((1500, 1500), dtype=np.int8)), 0.1)
        with pytest.raises(Reached):
            correlation_model(AdjacencyMatrix(np.zeros((1000, 1000), dtype=np.int8)), 0.1)

    @pytest.mark.parametrize("shape, fits", [
        # The results: 3 floats per replicate and cell, 24 bytes.
        ({"replicates": 3_000_000}, False),
        ({"replicates": 2_000}, True),
        # One replicate's samples: about 2.25 floats per entry, 43 MB here,
        # for each replicate in flight.
        ({"n": (300_000,)}, True),
        ({"n": (300_000,), "threads": 2}, False),
        # The second-order statistic: 2 more floats per entry and 4 n-vectors
        # per pair of a chunk of max(1, 2^16 // n) pairs, 76 MB at n=250,000
        # and 30 MB at n=100,000, where chunks of all 28 pairs took 104 MB.
        ({"n": (250_000,), "stats": (StatKind.SECOND_ORDER,)}, False),
        ({"n": (100_000,), "stats": (StatKind.SECOND_ORDER,)}, True),
    ])
    def test_run_experiment_sized_before_first_replicate(self, monkeypatch, shape, fits):
        monkeypatch.setattr(simulation, "_replicate_work", reach)
        config = ExperimentConfig(**{
            "p": 8, "p_inter": (0.2,), "rho": (0.2,), "n": (60,), "stats": (StatKind.FISHER,),
            "procedures": (ProcedureKind(Method.SIDAK),), "replicates": 2, **shape})
        if fits:
            with pytest.raises(Reached):
                run_experiment(config)
        else:
            with pytest.raises(ValueError, match=rf"^simulation needs about \d+\.\d GB for "
                                                 rf"{config.replicates} replicates at "
                                                 rf"n={config.n[0]}, p=8, more than"):
                run_experiment(config)


class TestGivenUpReplicates:
    CONFIG = dict(
        p=6,
        p_inter=(0.2,),
        rho=(0.3,),
        n=(60,),
        stats=(StatKind.FISHER, StatKind.SECOND_ORDER),
        procedures=(ProcedureKind(Method.BONFERRONI), ProcedureKind(Method.SIDAK, True)),
        replicates=6,
        seed=9,
    )

    def test_replicates_that_never_sample_are_left_out(self, monkeypatch):
        # Replicates 1 and 3 draw degenerate data on every attempt; the
        # metrics are those of the other four.
        current, failed, outs = [None], [], {}
        make_rng, sample, work = simulation.make_rng, simulation.sample_gaussian, \
            simulation._replicate_work

        def tagging_make_rng(*key):
            if key[1] == simulation._STREAM_REPLICATE:
                current[0] = key[5]
            return make_rng(*key)

        def sample_or_fail(gamma, n, rng):
            if current[0] in (1, 3):
                failed.append(current[0])
                raise DegenerateInputError("column 1 has zero empirical variance", column=1)
            return sample(gamma, n, rng)

        def recording_work(config, model_cache, pi_idx, rho_idx, n_idx, r):
            outs[r] = work(config, model_cache, pi_idx, rho_idx, n_idx, r)
            return outs[r]

        monkeypatch.setattr(simulation, "make_rng", tagging_make_rng)
        monkeypatch.setattr(simulation, "sample_gaussian", sample_or_fail)
        monkeypatch.setattr(simulation, "_replicate_work", recording_work)
        rows = run_experiment(ExperimentConfig(**self.CONFIG))
        assert failed == [1] * simulation._MAX_RETRIES + [3] * simulation._MAX_RETRIES
        assert outs[1] is None and outs[3] is None
        kept = np.array([outs[r] for r in (0, 2, 4, 5)])
        assert np.isfinite(kept).all()
        for row, (s_idx, k_idx) in zip(rows, np.ndindex(2, 2)):
            assert (row.replicates, row.failed_replicates) == (4, 2)
            cell = kept[:, s_idx, k_idx]
            means, ses = cell.mean(axis=0), cell.std(axis=0, ddof=1) / 2.0
            assert [row.fwer, row.power, row.fdp] == pytest.approx(means, rel=1e-12, abs=0)
            assert [row.fwer_se, row.power_se, row.fdp_se] == pytest.approx(ses, rel=1e-12, abs=0)

    def test_every_replicate_given_up(self, monkeypatch):
        monkeypatch.setattr(simulation, "sample_gaussian", reach_degenerate)
        for row in run_experiment(ExperimentConfig(**self.CONFIG)):
            assert (row.replicates, row.failed_replicates) == (0, 6)
            assert all(math.isnan(v) for v in (row.fwer, row.fwer_se, row.power, row.power_se,
                                               row.fdp, row.fdp_se))


def test_sampler_streams_are_pinned():
    # Recorded values of each sampler's stream at a fixed seed.  GEMM results
    # can vary in their last bits with the CPU, hence the relative tolerance.
    threshold, jitter = quantiles.max_gauss_quantile(np.eye(3), 0.05, 1000, make_rng(9))
    assert threshold == pytest.approx(2.361321402, rel=1e-9) and jitter == 0.0

    samples = core.SampleMatrix(np.random.default_rng(0).standard_normal((30, 4)))
    draws = quantiles.bootstrap_draw_matrix(samples, StatKind.FISHER, 100, make_rng(2))
    assert np.allclose(draws[0], [-0.4427921347752223, -1.7058232024194724, -1.8569453069594528,
                                  -0.22752411634077152, 0.13818047501151187, 0.5015264671639803],
                       rtol=1e-9, atol=0.0)

    # The Gaussian max-T routes: at the plug-in correlation and the fourth-moment plug-in.
    corr = empirical_correlation(samples)
    draws = quantiles.gauss_draw_matrix(corr, StatKind.FISHER, 100, make_rng(3))
    assert np.allclose(draws[0], [1.5808991773592809, -1.0315381723291486, 0.7922859360382996,
                                  1.6836989733155678, -0.649351055535039, 0.8950331828484697],
                       rtol=1e-9, atol=0.0)
    draws = quantiles.gauss_draw_matrix(corr, StatKind.FISHER, 100, make_rng(3),
                                        sample=samples)
    assert np.allclose(draws[0], [1.3444125177592163, -0.47350289984553984, 0.7287520056995871,
                                  0.3212072372459328, -1.870737661870517, 2.035609458174528],
                       rtol=1e-9, atol=0.0)

    gamma = correlation_model(sbm_adjacency(6, 0.6, 0.2, make_rng(1)), 0.2).gamma
    row = sample_gaussian(gamma, 20, make_rng(5)).data[0]
    assert np.allclose(row, [-0.7515655465895388, 0.6877728074493911, 0.3901592518698108,
                             -0.7259213134212424, -0.43885548214289033, 0.7785105593232419],
                       rtol=1e-9, atol=0.0)

    adjacency = sbm_adjacency(12, 0.5, 0.1, make_rng(4))
    i, j = np.nonzero(np.triu(adjacency.values))
    assert list(zip(i.tolist(), j.tolist())) == [(0, 1), (0, 4), (1, 9), (2, 5), (3, 4), (6, 10),
                                                 (6, 11), (7, 11), (8, 10), (9, 10)]
