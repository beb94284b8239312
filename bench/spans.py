"""In-memory span recording around corrgraph's layer boundaries.

Tracing is installed from outside the program: each traced function is
replaced, in every ``corrgraph`` module that binds it, by a wrapper that
records a span (name, thread, duration, self time, parent name).  Self time
is the span's duration minus the durations of its child spans in the same
thread, kept on a per-thread stack.  The store takes a lock, because the
simulation harness calls traced functions from worker threads.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

# (module, attribute, span name).  Span names are the per-layer metric stems.
SPANS = (
    ("corrgraph.cli", "_read_samples_csv", "cli.read_csv"),
    ("corrgraph.cli", "cmd_test", "cli.test"),
    ("corrgraph.cli", "_write_graph", "cli.write_graph"),
    ("corrgraph.core", "flat_to_pair", "core.flat_to_pair"),
    ("corrgraph.core", "empirical_correlation", "core.empirical_correlation"),
    ("corrgraph.stats", "statistic", "stats.statistic"),
    ("corrgraph.stats", "p_values", "stats.p_values"),
    ("corrgraph.stats", "fourth_moments", "stats.fourth_moments"),
    ("corrgraph.stats", "omega_general", "stats.omega_general"),
    ("corrgraph.stats", "omega_gaussian", "stats.omega_gaussian"),
    ("corrgraph.quantiles", "bootstrap_draw_matrix", "quantiles.bootstrap_draw_matrix"),
    ("corrgraph.quantiles", "cholesky_psd", "quantiles.cholesky_psd"),
    ("corrgraph.quantiles", "quantile_from_draws", "quantiles.quantile_from_draws"),
    ("corrgraph.procedures", "run_procedure", "procedures.run_procedure"),
    ("corrgraph.procedures", "_gauss_draw_matrix", "procedures.gauss_draw"),
    ("corrgraph.simulation", "sample_gaussian", "simulation.sample_gaussian"),
    ("corrgraph.simulation", "replicate_metrics", "simulation.replicate_metrics"),
    ("corrgraph.simulation", "_replicate_work", "simulation.replicate"),
    ("corrgraph.simulation", "run_experiment", "simulation.run_experiment"),
    ("corrgraph.rng", "make_rng", "rng.make_rng"),
)

_RESAMPLED = {"bootrw", "maxt", "oracle-maxt"}


def _on_return(name: str, result, counts) -> None:
    """Counters read from a traced function's return value."""
    if name == "quantiles.cholesky_psd" and result[1] > 0.0:
        counts["quantiles.cholesky_jitter_calls"] += 1
    elif name == "procedures.run_procedure":
        counts["procedures.stepdown_iterations"] += result.iterations
        if result.procedure.method.value in _RESAMPLED:
            counts["procedures.resampled_calls"] += 1
    elif name == "simulation.run_experiment":
        cells = {(row.n, row.p_inter, row.rho): row.failed_replicates for row in result}
        counts["simulation.failed_replicates"] += sum(cells.values())


class SpanStore:
    """Thread-safe list of finished spans plus named counters."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: list[tuple[str, int, float, float, str | None]] = []
        self.counts: defaultdict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn):
        store = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(store._local, "stack", None)
            if stack is None:
                stack = store._local.stack = []
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                span = (name, threading.get_ident(), duration, duration - frame[1], parent)
                with store._lock:
                    store.spans.append(span)
            with store._lock:
                _on_return(name, result, store.counts)
            return result

        traced.__bench_span__ = name
        return traced

    def take(self):
        """Return and clear the spans and counters recorded so far."""
        with self._lock:
            spans, counts = self.spans, dict(self.counts)
            self.spans, self.counts = [], defaultdict(int)
        return spans, counts


def originals() -> dict[tuple[str, str], object]:
    """The unwrapped function behind every traced attribute."""
    return {(mod, attr): getattr(importlib.import_module(mod), attr) for mod, attr, _ in SPANS}


def _bindings(fn):
    """Every (module, attribute) in a loaded corrgraph module bound to ``fn``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "corrgraph" or mod_name.startswith("corrgraph.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                yield module, attr


def install(store: SpanStore, funcs: dict) -> list:
    """Wrap each traced function wherever corrgraph binds it; return an undo list."""
    undo = []
    for mod, attr, name in SPANS:
        fn = funcs[(mod, attr)]
        wrapper = store.wrap(name, fn)
        for module, bound in list(_bindings(fn)):
            setattr(module, bound, wrapper)
            undo.append((module, bound, fn))
    return undo


def uninstall(undo: list) -> None:
    for module, attr, fn in undo:
        setattr(module, attr, fn)


def assert_untraced(funcs: dict) -> None:
    """Raise unless every traced attribute is still its original function."""
    for (mod, attr), fn in funcs.items():
        current = getattr(importlib.import_module(mod), attr)
        if current is not fn or hasattr(current, "__bench_span__"):
            raise RuntimeError(f"{mod}.{attr} is wrapped in an untraced run")
    for mod_name, module in list(sys.modules.items()):
        if module is not None and mod_name.startswith("corrgraph"):
            for attr, value in vars(module).items():
                if hasattr(value, "__bench_span__"):
                    raise RuntimeError(f"{mod_name}.{attr} is wrapped in an untraced run")


# Per-layer metrics: name -> (unit, how it is read from one operation's spans).
def _total(name):
    return lambda agg, counts: agg[name][0]


def _self(name):
    return lambda agg, counts: agg[name][1]


def _calls(name):
    return lambda agg, counts: agg[name][2]


def _count(name):
    return lambda agg, counts: counts.get(name, 0)


def _ratio(num, den):
    return lambda agg, counts: num(agg, counts) / den(agg, counts) if den(agg, counts) else 0.0


def _quantile_scans(agg, counts):
    resampled = counts.get("procedures.resampled_calls", 0)
    return agg["quantiles.quantile_from_draws@procedures.run_procedure"][2] / resampled if resampled else 0.0


LAYER_METRICS = {
    "cli.read_csv_s": ("s", _total("cli.read_csv")),
    "cli.test.self_s": ("s", _self("cli.test")),
    "cli.write_graph_s": ("s", _total("cli.write_graph")),
    "core.flat_to_pair_s": ("s", _total("core.flat_to_pair")),
    "core.flat_to_pair_calls": ("count", _calls("core.flat_to_pair")),
    "core.empirical_correlation_s": ("s", _total("core.empirical_correlation")),
    "stats.statistic_s": ("s", _total("stats.statistic")),
    "stats.statistic_calls": ("count", _calls("stats.statistic")),
    "stats.p_values_s": ("s", _total("stats.p_values")),
    "stats.fourth_moments_s": ("s", _total("stats.fourth_moments")),
    "stats.omega_general_s": ("s", _total("stats.omega_general")),
    "stats.omega_gaussian_s": ("s", _total("stats.omega_gaussian")),
    "quantiles.bootstrap_draw_matrix_s": ("s", _total("quantiles.bootstrap_draw_matrix")),
    "quantiles.bootstrap_draw_matrix_calls": ("count", _calls("quantiles.bootstrap_draw_matrix")),
    "quantiles.cholesky_psd_s": ("s", _total("quantiles.cholesky_psd")),
    "quantiles.cholesky_jitter_calls": ("count", _count("quantiles.cholesky_jitter_calls")),
    "quantiles.quantile_from_draws_s": ("s", _total("quantiles.quantile_from_draws")),
    "quantiles.quantile_from_draws_calls": ("count", _calls("quantiles.quantile_from_draws")),
    "procedures.run_procedure.self_s": ("s", _self("procedures.run_procedure")),
    "procedures.run_procedure_calls": ("count", _calls("procedures.run_procedure")),
    "procedures.stepdown_iterations": ("count", _count("procedures.stepdown_iterations")),
    "procedures.quantile_scans_per_call": ("ratio", _quantile_scans),
    "procedures.gauss_draw_s": ("s", _total("procedures.gauss_draw")),
    "simulation.sample_gaussian_s": ("s", _total("simulation.sample_gaussian")),
    "simulation.replicate_metrics_s": ("s", _total("simulation.replicate_metrics")),
    "simulation.run_experiment.self_s": ("s", _self("simulation.run_experiment")),
    "simulation.failed_replicates": ("count", _count("simulation.failed_replicates")),
    "simulation.parallelism": (
        "ratio", _ratio(_total("simulation.replicate"), _total("simulation.run_experiment"))
    ),
    "rng.make_rng_calls": ("count", _calls("rng.make_rng")),
}


def layer_values(spans, counts) -> dict[str, float]:
    """Per-layer metric values for the spans and counters of one operation.

    Time metrics are summed span time; ``self_s`` subtracts same-thread child
    spans.  Spans are also keyed ``child@parent`` so a call can be counted
    only where a given layer makes it.
    """
    agg: defaultdict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
    for name, _thread, duration, self_time, parent in spans:
        for key in (name, f"{name}@{parent}"):
            entry = agg[key]
            entry[0] += duration
            entry[1] += self_time
            entry[2] += 1
    return {metric: float(read(agg, counts)) for metric, (_unit, read) in LAYER_METRICS.items()}
