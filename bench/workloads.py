"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed (``build``), runs
one timed operation (``run``), checks that operation's output (``check``)
and may make checked calls after the timed ones (``pool_pass``).
``corrgraph`` is imported lazily so the setup probe times the import too.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import time
from dataclasses import replace

import numpy as np

import checks
import inputs

ALPHA = 0.05


class CliTest:
    """One ``corrgraph test`` call per operation, made in-process through ``cli.main``."""

    datasets_per_op = 1

    def __init__(self, tag, p, n, p_intra, p_inter, flags, check_kind, graph=False):
        self.tag, self.p, self.n = tag, p, n
        self.p_intra, self.p_inter = p_intra, p_inter
        self.flags, self.check_kind, self.graph = flags, check_kind, graph

    def build(self, seed: int, workdir: str) -> dict:
        self.data, _adj, rho = inputs.sbm_gaussian_sample(
            seed, self.tag, self.p, self.n, self.p_intra, self.p_inter
        )
        csv_path = os.path.join(workdir, "samples.csv")
        inputs.write_samples_csv(csv_path, self.data)
        self.edges_path = os.path.join(workdir, "edges.csv")
        self.graph_path = os.path.join(workdir, "graph.dot") if self.graph else None
        self.argv = ["test", "--input", csv_path, *self.flags, "--alpha", str(ALPHA),
                     "--output", self.edges_path]
        if self.graph:
            self.argv += ["--graph-output", self.graph_path, "--graph-format", "dot"]
        return {"p": self.p, "n": self.n, "rho": rho, "argv": self.argv[3:]}

    def pool_pass(self):
        return {}, []

    def clear_outputs(self) -> None:
        for path in (self.edges_path, self.graph_path):
            if path and os.path.exists(path):
                os.remove(path)

    def run(self):
        import corrgraph.cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = corrgraph.cli.main(self.argv)
        return code, out.getvalue()

    def check(self, code, stdout: str) -> list[str]:
        if code != 0:
            return [f"corrgraph test exited {code}"]
        match = re.search(r"rejected=(\d+)", stdout)
        edges = checks.read_edges(self.edges_path)
        errors = checks.check_edge_table(edges, self.p, int(match.group(1)) if match else None)
        if match is None:
            errors.append("stdout has no rejected=<count> summary")
        if self.check_kind == "fisher-sidak":
            errors += checks.check_fisher_sidak(edges, self.data, ALPHA)
        else:
            errors += checks.check_maxt_vs_sidak(edges, ALPHA)
        if self.graph:
            errors += checks.check_dot(self.graph_path, edges, self.p)
        return errors


class Simulate:
    """One ``run_experiment`` call per operation on a reduced-replicate fixture shape.

    Timed calls run with threads=1.  With ``pool_threads``, calls through
    the thread pool are made after the timed ones: their rows must equal the
    timed rows, and their wall time is reported, not bounded.  Two worker
    threads on a 2-core virtual machine lose whole seconds to host CPU
    steal, which made threads=2 wall times too unsteady to bound.
    """

    def __init__(self, tag, replicates, pool_threads=None, **shape):
        self.tag, self.replicates, self.pool_threads, self.shape = tag, replicates, pool_threads, shape

    @property
    def datasets_per_op(self) -> int:
        return self.replicates * len(self.config.p_inter) * len(self.config.rho) * len(self.config.n)

    def build(self, seed: int, workdir: str) -> dict:
        from corrgraph import ExperimentConfig, Method, ModelError, ProcedureKind, run_experiment

        base = ExperimentConfig(
            **self.shape, alpha=ALPHA, replicates=self.replicates, threads=1
        )
        # Gamma = I + 0.2 A is not positive definite for every SBM draw; the
        # program refuses those with ModelError.  Take the first config seed
        # derived from the benchmark seed whose models all build.
        probe = replace(base, replicates=1, stats=base.stats[:1],
                        procedures=(ProcedureKind(Method.BONFERRONI),))
        candidates = np.random.default_rng([seed, self.tag]).integers(0, 2**31 - 1, size=64)
        for candidate in candidates.tolist():
            try:
                run_experiment(replace(probe, seed=candidate))
            except ModelError:
                continue
            self.config = replace(base, seed=candidate)
            self.first_rows = None
            return {"config_seed": candidate, "replicates": self.replicates}
        raise RuntimeError("no positive-definite SBM model among 64 candidate seeds")

    def pool_pass(self):
        """Thread-pool calls checked against the timed rows; returns (info, errors)."""
        if not self.pool_threads:
            return {}, []
        from corrgraph import run_experiment

        # The first call through the pool in a process runs about twice as
        # long as later ones, so it is made twice and the second is reported.
        walls, errors = [], []
        for _ in range(2):
            start = time.perf_counter()
            rows = run_experiment(replace(self.config, threads=self.pool_threads))
            walls.append(time.perf_counter() - start)
            errors += checks.check_rows_equal(rows, self.first_rows, f"threads={self.pool_threads}")
        return {"threads": self.pool_threads, "wall_s": walls[1], "first_wall_s": walls[0]}, errors

    def clear_outputs(self) -> None:
        pass

    def run(self):
        import corrgraph.simulation

        return 0, corrgraph.simulation.run_experiment(self.config)

    def check(self, code, rows) -> list[str]:
        errors = checks.check_fwer(rows, ALPHA)
        if self.first_rows is None:
            self.first_rows = rows
        else:
            errors += checks.check_rows_equal(rows, self.first_rows, "the run's first iteration")
        return errors


def make(name: str):
    """A fresh instance of the named workload."""
    from corrgraph import Method, ProcedureKind, StatKind

    if name == "test-sidak-p400":
        return CliTest(1, 400, 2000, 0.03, 0.005,
                       ["--stat", "fisher", "--method", "sidak", "--step-down"],
                       "fisher-sidak", graph=True)
    if name == "test-maxt4-p32":
        return CliTest(2, 32, 500, 0.3, 0.05,
                       ["--stat", "fisher", "--method", "maxt", "--step-down", "--fourth-moment"],
                       "maxt")
    if name == "sim-power":
        return Simulate(
            3, replicates=25, p=26, p_intra=0.6, p_inter=(0.01, 0.4), rho=(0.2,),
            n=(500,), stats=(StatKind.EMPIRICAL, StatKind.STUDENT), bootrw_draws=100,
            procedures=(ProcedureKind(Method.BONFERRONI), ProcedureKind(Method.SIDAK),
                        ProcedureKind(Method.SIDAK, True), ProcedureKind(Method.BOOT_RW)),
        )
    if name == "sim-fwer-maxt":
        return Simulate(
            4, replicates=40, pool_threads=2, p=26, p_intra=0.6, p_inter=(0.4,), rho=(0.2,),
            n=(300,), stats=(StatKind.FISHER,), maxt_draws=1000,
            procedures=(ProcedureKind(Method.BONFERRONI), ProcedureKind(Method.SIDAK),
                        ProcedureKind(Method.MAX_T)),
        )
    raise KeyError(name)


NAMES = ("test-sidak-p400", "test-maxt4-p32", "sim-power", "sim-fwer-maxt")
