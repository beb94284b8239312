"""Command-line interface: test, simulate, model, quantile.

All interchange is CSV; the simulate command is driven by a JSON config
document (schema tag ``corrgraph-config-v1``, unknown keys rejected).
Variable indexes are 1-based in every user-facing file, 0-based internally.

Exit codes
----------
0  success
1  invalid flags or configuration
2  malformed input CSV (message carries the line number)
3  degenerate data column (message names the column) or bootstrap resamples
4  correlation model not positive definite
5  covariance matrix not symmetric / not positive semi-definite / singular

Diagnostics go to stderr, results to stdout.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from .core import SampleMatrix, empirical_correlation, flat_to_pair
from .errors import (
    ConfigError,
    DegenerateInputError,
    ModelError,
    NotPositiveDefiniteError,
    SingularityError,
)
from .procedures import (
    DEFAULT_BOOTSTRAP_DRAWS,
    DEFAULT_MAXT_DRAWS,
    Method,
    ProcedureKind,
    _gauss_draw_matrix,
    run_procedure,
)
from .quantiles import bootstrap_draw_matrix, max_gauss_quantile
from .rng import make_rng
from .simulation import ExperimentConfig, correlation_model, run_experiment, sbm_adjacency
from .stats import StatKind, fourth_moments, omega_gaussian, omega_general, p_values, statistic

CONFIG_SCHEMA = "corrgraph-config-v1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAD_CSV = 2
EXIT_DEGENERATE = 3
EXIT_NOT_PD = 4
EXIT_BAD_SIGMA = 5

_STAT_FLAGS = {
    "empirical": StatKind.EMPIRICAL,
    "student": StatKind.STUDENT,
    "fisher": StatKind.FISHER,
    "secondorder": StatKind.SECOND_ORDER,
}
_METHOD_FLAGS = {
    "bonferroni": Method.BONFERRONI,
    "sidak": Method.SIDAK,
    "bootrw": Method.BOOT_RW,
    "maxt": Method.MAX_T,
}


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_samples_csv(path: str) -> SampleMatrix:
    """Read an n x p data CSV: header row of variable names, float cells."""
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise _CliError(EXIT_BAD_CSV, f"cannot open {path}: {exc}")
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise _CliError(EXIT_BAD_CSV, f"{path}: line 1: empty file")
        names = tuple(name.strip() for name in header)
        rows = []
        blank_lines = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                blank_lines.append(lineno)
                continue
            if len(row) != len(names):
                raise _CliError(
                    EXIT_BAD_CSV,
                    f"{path}: line {lineno}: expected {len(names)} fields, got {len(row)}",
                )
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                raise _CliError(EXIT_BAD_CSV, f"{path}: line {lineno}: non-numeric cell")
    if not rows:
        raise _CliError(EXIT_BAD_CSV, f"{path}: line 2: no data rows")
    data = np.array(rows)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        lineno = int(np.argmin(finite)) + 2
        for blank in blank_lines:
            if blank <= lineno:
                lineno += 1
        raise _CliError(EXIT_BAD_CSV, f"{path}: line {lineno}: non-finite cell")
    try:
        return SampleMatrix(data, column_names=names)
    except DegenerateInputError as exc:
        raise _CliError(EXIT_DEGENERATE, f"degenerate input: {exc}")
    except ValueError as exc:
        raise _CliError(EXIT_BAD_CSV, f"{path}: {exc}")


def _read_matrix_csv(path: str, code: int) -> np.ndarray:
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as exc:
        raise _CliError(code, f"cannot open {path}: {exc}")
    except ValueError as exc:
        raise _CliError(code, f"{path}: malformed matrix CSV: {exc}")


def _write_matrix_csv(path: str, matrix: np.ndarray) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        for row in np.asarray(matrix):
            handle.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return ""
    return format(v, ".10g")


# ---------------------------------------------------------------------------
# corrgraph test
# ---------------------------------------------------------------------------

def cmd_test(args) -> int:
    samples = _read_samples_csv(args.input)
    kind = _STAT_FLAGS[args.stat]
    method = _METHOD_FLAGS[args.method]
    try:
        stats = statistic(samples, kind)
    except DegenerateInputError as exc:
        raise _CliError(EXIT_DEGENERATE, f"degenerate input: {exc}")
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc))

    draw_matrix = None
    try:
        if method is Method.BOOT_RW:
            draws = DEFAULT_BOOTSTRAP_DRAWS if args.draws is None else args.draws
            draw_matrix = bootstrap_draw_matrix(samples, kind, draws, seed=args.seed)
        elif method is Method.MAX_T:
            _check_covariance_memory(samples, args.fourth_moment)
            if args.fourth_moment:
                sigma = omega_general(fourth_moments(samples), kind)
            else:
                sigma = omega_gaussian(empirical_correlation(samples), kind)
            draws = DEFAULT_MAXT_DRAWS if args.draws is None else args.draws
            draw_matrix = _gauss_draw_matrix(sigma, draws, make_rng(args.seed))
        result = run_procedure(
            stats, args.alpha, ProcedureKind(method, stepdown=args.step_down), draw_matrix
        )
    except DegenerateInputError as exc:
        raise _CliError(EXIT_DEGENERATE, f"degenerate input: {exc}")
    except (NotPositiveDefiniteError, SingularityError) as exc:
        raise _CliError(EXIT_BAD_SIGMA, str(exc))
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc))

    names = samples.column_names or tuple(str(c + 1) for c in range(samples.p))
    pvals = p_values(stats).values
    with open(args.output, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["i", "j", "name_i", "name_j", "statistic", "p_value", "threshold", "rejected"]
        )
        for flat in range(samples.m):
            i, j = flat_to_pair(flat, samples.p)
            writer.writerow(
                [
                    i,
                    j,
                    names[i - 1],
                    names[j - 1],
                    _fmt(stats.values[flat]),
                    _fmt(pvals[flat]),
                    _fmt(result.pair_thresholds[flat]),
                    int(flat in result.rejected),
                ]
            )
    if args.graph_output:
        _write_graph(args.graph_output, args.graph_format, result, names, samples.p)
    print(
        f"m={samples.m} rejected={len(result.rejected)} "
        f"procedure={result.procedure.label} alpha={args.alpha}"
    )
    return EXIT_OK


def _check_covariance_memory(samples: SampleMatrix, fourth_moment: bool) -> None:
    """Fail fast when the max-T pair covariance cannot fit in physical memory.

    The peak is about 7 m^2 floats (the m x m gathers of ``omega_gaussian``),
    plus the p^4 moment tensor and its n x p^2 factor with the fourth-moment
    plug-in.
    """
    m, n, p = samples.m, samples.n, samples.p
    floats = 7 * m * m + (p**4 + n * p * p if fourth_moment else 0)
    try:
        available = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return
    if 8 * floats > available:
        raise _CliError(
            EXIT_USAGE,
            f"maxt needs about {8 * floats / 1e9:.1f} GB for the m={m} pair covariance, "
            f"more than the {available / 1e9:.1f} GB of physical memory; "
            "use --method sidak or bootrw",
        )


def _write_graph(path: str, fmt: str, result, names, p: int) -> None:
    edges = [flat_to_pair(flat, p) for flat in sorted(result.rejected)]
    with open(path, "w", encoding="utf-8") as handle:
        if fmt == "dot":
            handle.write("graph corrgraph {\n")
            for idx, name in enumerate(names, start=1):
                label = name.replace("\\", "\\\\").replace('"', '\\"')
                handle.write(f'  v{idx} [label="{label}"];\n')
            for i, j in edges:
                handle.write(f"  v{i} -- v{j};\n")
            handle.write("}\n")
        else:  # edgelist
            for i, j in edges:
                handle.write(f"{names[i - 1]}\t{names[j - 1]}\n")


# ---------------------------------------------------------------------------
# corrgraph simulate
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {
    "schema",
    "p",
    "p_intra",
    "p_inter",
    "rho",
    "n",
    "stats",
    "procedures",
    "alpha",
    "replicates",
    "bootrw_draws",
    "maxt_draws",
    "seed",
    "threads",
    "adjacency_per_replicate",
    "output",
}


def load_config(path: str) -> tuple[ExperimentConfig, str | None]:
    """Parse a JSON run-config document into an ExperimentConfig."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise _CliError(EXIT_USAGE, f"cannot read config {path}: {exc}")
    if not isinstance(doc, dict):
        raise _CliError(EXIT_USAGE, f"{path}: config must be a JSON object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise _CliError(EXIT_USAGE, f"{path}: unknown config keys: {sorted(unknown)}")
    if doc.get("schema") != CONFIG_SCHEMA:
        raise _CliError(
            EXIT_USAGE, f"{path}: schema: expected {CONFIG_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    output = doc.pop("output", None)
    doc.pop("schema")
    if "procedures" in doc:
        procs = []
        for entry in doc["procedures"]:
            if not isinstance(entry, dict) or "method" not in entry:
                raise _CliError(
                    EXIT_USAGE, f"{path}: procedures: entries need a 'method' key"
                )
            extra = set(entry) - {"method", "stepdown"}
            if extra:
                raise _CliError(EXIT_USAGE, f"{path}: procedures: unknown keys {sorted(extra)}")
            try:
                procs.append(
                    ProcedureKind(Method(entry["method"]), bool(entry.get("stepdown", False)))
                )
            except ValueError:
                raise _CliError(EXIT_USAGE, f"{path}: procedures.method: {entry['method']!r}")
        doc["procedures"] = tuple(procs)
    try:
        return ExperimentConfig(**doc), output
    except (ConfigError, TypeError, ValueError) as exc:
        raise _CliError(EXIT_USAGE, f"{path}: {exc}")


def cmd_simulate(args) -> int:
    config, config_output = load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.threads is not None:
        overrides["threads"] = args.threads
    if args.reps is not None:
        overrides["replicates"] = args.reps
    if overrides:
        from dataclasses import replace

        config = replace(config, **overrides)
    output = args.output or config_output
    if not output:
        raise _CliError(EXIT_USAGE, "no output path (flag --output or config key 'output')")
    try:
        rows = run_experiment(config)
    except ModelError as exc:
        raise _CliError(EXIT_NOT_PD, str(exc))
    with open(output, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "stat",
                "method",
                "stepdown",
                "n",
                "p_inter",
                "rho",
                "replicates",
                "fwer",
                "fwer_se",
                "power",
                "power_se",
                "fdp",
                "fdp_se",
            ]
        )
        for row in rows:
            writer.writerow(
                [
                    row.stat.value,
                    row.method.value,
                    int(row.stepdown),
                    row.n,
                    _fmt(row.p_inter),
                    _fmt(row.rho),
                    row.replicates,
                    _fmt(row.fwer),
                    _fmt(row.fwer_se),
                    _fmt(row.power),
                    _fmt(row.power_se),
                    _fmt(row.fdp),
                    _fmt(row.fdp_se),
                ]
            )
    print(f"wrote {len(rows)} metric rows to {output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# corrgraph model
# ---------------------------------------------------------------------------

def cmd_model(args) -> int:
    try:
        adjacency = sbm_adjacency(args.p, args.p_intra, args.p_inter, seed=args.seed)
    except ConfigError as exc:
        raise _CliError(EXIT_USAGE, str(exc))
    try:
        model = correlation_model(adjacency, args.rho)
    except ModelError as exc:
        raise _CliError(EXIT_NOT_PD, str(exc))
    _write_matrix_csv(args.output + ".adjacency.csv", adjacency.values)
    _write_matrix_csv(args.output + ".gamma.csv", model.gamma.values)
    print(f"lambda_min={_fmt(model.min_eigenvalue)} rho_bound={_fmt(model.rho_bound)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# corrgraph quantile
# ---------------------------------------------------------------------------

def cmd_quantile(args) -> int:
    sigma = _read_matrix_csv(args.sigma, EXIT_BAD_SIGMA)
    if sigma.shape[0] != sigma.shape[1] or not np.allclose(sigma, sigma.T, atol=1e-8):
        raise _CliError(EXIT_BAD_SIGMA, f"{args.sigma}: matrix is not symmetric")
    try:
        estimate = max_gauss_quantile(sigma, args.alpha, args.draws, seed=args.seed)
    except NotPositiveDefiniteError as exc:
        raise _CliError(EXIT_BAD_SIGMA, f"{args.sigma}: {exc}")
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc))
    print(
        f"threshold={_fmt(estimate.value)} alpha={_fmt(estimate.alpha)} "
        f"draws={estimate.draws} m={sigma.shape[0]} seed={estimate.seed} "
        f"jitter={_fmt(estimate.jitter)}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrgraph",
        description="Multiple testing of pairwise correlations with FWER/FDR control.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("test", help="test all pairwise correlations of a data CSV")
    t.add_argument("--input", required=True, help="CSV with header row, n rows x p columns")
    t.add_argument("--stat", required=True, choices=sorted(_STAT_FLAGS))
    t.add_argument("--method", required=True, choices=sorted(_METHOD_FLAGS))
    t.add_argument("--step-down", action="store_true")
    t.add_argument("--alpha", type=float, default=0.05)
    t.add_argument("--draws", type=int, default=None, help="bootstrap/Monte Carlo draws")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--fourth-moment", action="store_true",
                   help="maxt: plug in the fourth-moment covariance instead of the Gaussian closed form")
    t.add_argument("--output", required=True, help="edge-record CSV path")
    t.add_argument("--graph-output", default=None, help="optional graph file of rejected edges")
    t.add_argument("--graph-format", choices=["edgelist", "dot"], default="edgelist")
    t.set_defaults(func=cmd_test)

    s = sub.add_parser("simulate", help="run the Monte Carlo FWER/power study")
    s.add_argument("--config", required=True, help="JSON run configuration")
    s.add_argument("--output", default=None, help="metrics CSV path")
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--threads", type=int, default=None)
    s.add_argument("--reps", type=int, default=None)
    s.set_defaults(func=cmd_simulate)

    m = sub.add_parser("model", help="draw an SBM correlation model and export it")
    m.add_argument("--p", type=int, required=True)
    m.add_argument("--p-intra", type=float, required=True)
    m.add_argument("--p-inter", type=float, required=True)
    m.add_argument("--rho", type=float, required=True)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--output", required=True,
                   help="path stem; writes <stem>.adjacency.csv and <stem>.gamma.csv")
    m.set_defaults(func=cmd_model)

    q = sub.add_parser("quantile", help="max-statistic quantile of N(0, Sigma)")
    q.add_argument("--sigma", required=True, help="covariance matrix CSV (no header)")
    q.add_argument("--alpha", type=float, default=0.05)
    q.add_argument("--draws", type=int, default=1000)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=cmd_quantile)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the CLI contract reserves 2 for
        # malformed CSVs, so remap.
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
