"""corrgraph benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Runs one workload in this process for S seconds and prints, as the last line
of stdout, ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it is a run record (versions, BLAS threads, sample counts).
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads: one BLAS thread, so the thread-pool pass's
# two workers are the only compute threads on a 2-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 5
MIN_OPS = 2


def _program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "corrgraph", "__init__.py"))


def _import_corrgraph():
    sys.path.insert(0, SRC)
    import corrgraph

    if not os.path.abspath(corrgraph.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"corrgraph imported from {corrgraph.__file__}, not {SRC}")
    return corrgraph


def _setup_probe(workload: str, seed: int) -> None:
    """Child-process body timed as setup_s: import corrgraph and build the inputs."""
    import inputs
    import workloads

    _import_corrgraph()
    workdir = inputs.workdir(ROOT)
    try:
        workloads.make(workload).build(seed, workdir)
    finally:
        inputs.remove_workdir(workdir)


def _time_setup(workload: str, seed: int) -> list[float]:
    """Wall times of SETUP_PROBES fresh interpreters, each starting up, importing and building."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload,
            "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def _blas_info() -> dict:
    """BLAS library name and the thread count it reports after import."""
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def _git_sha() -> str | None:
    """HEAD commit read from the checkout's .git directory, if it has one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _measure(wl, seconds: float, store=None):
    """Run timed operations until ``seconds`` pass (at least MIN_OPS); check each output."""
    import spans

    walls, layers, failures, attempted = [], [], [], 0
    end = time.perf_counter() + seconds
    while attempted < MIN_OPS or time.perf_counter() < end:
        wl.clear_outputs()
        attempted += 1
        start = time.perf_counter()
        try:
            code, out = wl.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            failures.append(f"op {attempted}: raised {type(exc).__name__}: {exc}")
            continue
        finally:
            wall = time.perf_counter() - start
            if store is not None:
                layers.append(spans.layer_values(*store.take()))
        walls.append(wall)
        try:
            errors = wl.check(code, out)
        except Exception as exc:
            errors = [f"checker raised {type(exc).__name__}: {exc}"]
        if errors:
            failures.append(f"op {attempted}: " + "; ".join(errors[:3]))
    return walls, layers, failures, attempted


def _pool_pass(wl):
    """The workload's untimed thread-pool calls, counted as one checked operation."""
    try:
        info, errors = wl.pool_pass()
    except Exception as exc:
        return {}, [f"pool pass: raised {type(exc).__name__}: {exc}"]
    return info, ["pool pass: " + "; ".join(errors[:3])] if errors else []


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import inputs
    import spans
    import workloads

    setup_times = _time_setup(name, seed)
    corrgraph = _import_corrgraph()
    import numpy
    import scipy

    workdir = inputs.workdir(ROOT)
    try:
        wl = workloads.make(name)
        built = wl.build(seed, workdir)
        funcs = spans.originals()
        spans.assert_untraced(funcs)
        if trace:
            plain = _measure(wl, seconds / 2)
            store = spans.SpanStore()
            undo = spans.install(store, funcs)
            try:
                traced = _measure(wl, seconds / 2, store)
            finally:
                spans.uninstall(undo)
            phases = (plain, traced)
        else:
            phases = (_measure(wl, seconds),)
        # Read before the thread-pool pass, whose per-thread malloc arenas
        # add 0 to 15 MB at random.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        pool_pass, pool_errors = _pool_pass(wl) if phases[0][0] else ({}, [])
    finally:
        inputs.remove_workdir(workdir)

    attempted = sum(ph[3] for ph in phases) + (1 if pool_pass or pool_errors else 0)
    failures = [f for ph in phases for f in ph[2]] + pool_errors
    walls = phases[0][0]
    if not all(ph[0] for ph in phases):
        print("error: no operation completed; " + "; ".join(failures[:3]), file=sys.stderr)
        return 1
    if trace:
        per_op = phases[1][1]
        metrics = {
            metric: {"value": statistics.median(op[metric] for op in per_op) if per_op else 0.0,
                     "unit": unit}
            for metric, (unit, _read) in spans.LAYER_METRICS.items()
        }
        overhead = statistics.median(phases[1][0]) / statistics.median(walls) - 1.0
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        speedup = statistics.median(walls) / pool_pass["wall_s"] if pool_pass else 0.0
        metrics["simulation.pool_speedup"] = {"value": speedup, "unit": "ratio"}
        samples = {"untraced_ops": len(walls), "traced_ops": len(phases[1][0])}
    else:
        median_wall = statistics.median(walls)
        metrics = {
            "test_s": {"value": median_wall, "unit": "s"},
            "replicates_per_s": {"value": wl.datasets_per_op / median_wall, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        samples = {"test_s": len(walls), "replicates_per_s": wl.datasets_per_op * len(walls),
                   "setup_s": len(setup_times), "peak_rss_mb": 1}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "inputs": built, "pool_pass": pool_pass, "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "corrgraph": corrgraph.__version__, "blas": _blas_info(),
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "samples": samples, "setup_probe_s": setup_times, "op_walls_s": walls,
        "failed_frac": {"value": len(failures) / attempted, "unit": "ratio"},
        "attempted": attempted, "failed": len(failures), "failures": failures[:5],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test every workload once")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not _program_present():
        print(f"error: no corrgraph sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        import smoke

        return smoke.main(os.path.abspath(__file__), ROOT)
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
