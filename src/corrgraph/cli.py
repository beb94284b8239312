"""Command-line interface: test, simulate, model, quantile.

All interchange is CSV; the simulate command is driven by a JSON config
document (schema tag ``corrgraph-config-v1``, unknown keys rejected).  Every
reader skips a UTF-8 byte-order mark at the start of its file.
Variable indexes are 1-based in every user-facing file, 0-based internally.

``test`` parses the data CSV body with one ``np.loadtxt`` call; a row-by-row
scanner runs only when that parse fails or its result is suspect, to find
the first bad line (or to accept what ``float`` reads and ``loadtxt`` does
not).  The edge CSV and the graph are written from the ``pair_indices``
arrays, one formatting pass per chunk of rows.

Exit codes
----------
0  success
1  invalid flags or configuration (a NaN rho among them), or draws, replicates
   or an SBM model that would not fit in physical memory
2  malformed input CSV (message carries the line number)
3  degenerate data column (message names the column) or bootstrap resamples
4  correlation model not positive definite
5  covariance CSV unreadable or empty, or covariance matrix non-finite / not
   symmetric / not positive semi-definite / singular

Every command maps library errors in one place: ``main``'s ``_EXIT_CODES``
table.  Only the CSV and config readers and the flag checks set a code of their own.
Diagnostics go to stderr, results to stdout.
"""

from __future__ import annotations

import argparse
import csv
import enum
import io
import json
import sys
import warnings
from dataclasses import fields, replace

import numpy as np

from .core import SampleMatrix, pair_indices
from .errors import (
    ConfigError,
    DegenerateInputError,
    ModelError,
    NotPositiveDefiniteError,
    SingularityError,
)
from .procedures import Method, ProcedureKind, _decisions
from .quantiles import _check_alpha, max_gauss_quantile
from .rng import make_rng
from .simulation import (
    ExperimentConfig,
    MetricsRow,
    correlation_model,
    run_experiment,
    sbm_adjacency,
)
from .stats import StatKind, statistic

CONFIG_SCHEMA = "corrgraph-config-v1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAD_CSV = 2
EXIT_DEGENERATE = 3
EXIT_NOT_PD = 4
EXIT_BAD_SIGMA = 5

# Edge-record rows formatted and written per chunk: about 2 MB of strings,
# and no faster with more (tracemalloc and wall time at p=1000).
_CHUNK_ROWS = 1 << 12

_STAT_FLAGS = {kind.value: kind for kind in StatKind}
_METHOD_FLAGS = {
    "bonferroni": Method.BONFERRONI,
    "sidak": Method.SIDAK,
    "bootrw": Method.BOOT_RW,
    "maxt": Method.MAX_T,
}


# The exit code and message prefix of each library error type that reaches main.
_EXIT_CODES = {
    DegenerateInputError: (EXIT_DEGENERATE, "degenerate input: "),
    ModelError: (EXIT_NOT_PD, ""),
    NotPositiveDefiniteError: (EXIT_BAD_SIGMA, ""),
    SingularityError: (EXIT_BAD_SIGMA, ""),
    ConfigError: (EXIT_USAGE, ""),
    ValueError: (EXIT_USAGE, ""),
}


class _CliError(Exception):
    """An error whose exit code the CLI sets from its context (a file, a flag)."""
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_samples_csv(path: str) -> SampleMatrix:
    """Read an n x p data CSV: header row of variable names, float cells.

    The body is parsed in one ``np.loadtxt`` call.  When that call raises,
    returns no rows or the wrong width, or leaves a non-finite cell,
    :func:`_scan_samples_csv` reads the file again row by row, and its
    verdict stands: the data, or the error with its line number.
    """
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise _CliError(EXIT_BAD_CSV, f"cannot open {path}: {exc}")
    data = None
    with handle:
        header = next(csv.reader(handle), None)
        if header is not None:
            names = tuple(name.strip() for name in header)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # loadtxt warns on an empty body
                    data = np.loadtxt(handle, delimiter=",", comments=None, ndmin=2)
            except ValueError:
                pass
    if data is None or data.shape[0] == 0 or data.shape[1] != len(names) \
            or not np.isfinite(data).all():
        names, data = _scan_samples_csv(path)
    try:
        return SampleMatrix(data, column_names=names)
    except DegenerateInputError as exc:
        raise _CliError(EXIT_DEGENERATE, f"degenerate input: {exc}")
    except ValueError as exc:
        raise _CliError(EXIT_BAD_CSV, f"{path}: {exc}")


def _scan_samples_csv(path: str) -> tuple[tuple[str, ...], np.ndarray]:
    """Row-by-row reader: the names and data, or the first bad line as exit 2.

    Lines are counted as CSV records from the header on, blank ones
    included.  Cells are read with ``float``, so it also accepts what
    ``np.loadtxt`` refuses, such as ``1_0`` or a quoted number.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
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
    return names, data


def _read_matrix_csv(path: str) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on an empty file
            matrix = np.loadtxt(path, delimiter=",", ndmin=2, encoding="utf-8-sig")
    except OSError as exc:
        raise _CliError(EXIT_BAD_SIGMA, f"cannot open {path}: {exc}")
    except ValueError as exc:
        raise _CliError(EXIT_BAD_SIGMA, f"{path}: malformed matrix CSV: {exc}")
    if matrix.size == 0:
        raise _CliError(EXIT_BAD_SIGMA, f"{path}: matrix CSV is empty")
    return matrix


def _format_cells(values: np.ndarray) -> list[str]:
    """Output cells of a 1-d bool, integer or float array: ``.10g`` floats, NaN empty."""
    if values.dtype.kind in "biu":
        return [str(int(v)) for v in values.tolist()]
    cells = [format(v, ".10g") for v in values.tolist()]
    for k in np.flatnonzero(np.isnan(values)).tolist():
        cells[k] = ""
    return cells


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise _CliError(EXIT_USAGE, "--seed must be >= 0")


def _fmt(value) -> str:
    if isinstance(value, enum.Enum):
        return str(value.value)
    return _format_cells(np.atleast_1d(value))[0]


# ---------------------------------------------------------------------------
# corrgraph test
# ---------------------------------------------------------------------------

def cmd_test(args) -> int:
    if args.fourth_moment and args.method != "maxt":
        raise _CliError(EXIT_USAGE, "--fourth-moment applies only to --method maxt")
    if args.draws is not None and args.method not in ("bootrw", "maxt"):
        raise _CliError(EXIT_USAGE, "--draws applies only to --method bootrw or maxt")
    _check_seed(args.seed)
    _check_alpha(args.alpha)
    samples = _read_samples_csv(args.input)
    stats = statistic(samples, _STAT_FLAGS[args.stat])
    counts = {} if args.draws is None else {"bootrw_draws": args.draws, "maxt_draws": args.draws}
    ((_, _, result),) = _decisions(
        samples, (stats,), (ProcedureKind(_METHOD_FLAGS[args.method], args.step_down),),
        args.alpha, make_rng(args.seed), **counts, fourth_moment=args.fourth_moment,
    )
    names = samples.column_names or tuple(str(c + 1) for c in range(samples.p))
    _write_edges(args.output, names, stats.values, result.pvalues.values,
                 result.pair_thresholds, result.mask)
    if args.graph_output:
        _write_graph(args.graph_output, args.graph_format, result.mask, names)
    print(
        f"m={samples.m} rejected={np.count_nonzero(result.mask)} "
        f"procedure={result.procedure.label} alpha={args.alpha}"
    )
    return EXIT_OK


def _write_edges(path: str, names, stat_values, pvalues, thresholds, mask) -> None:
    """The edge-record CSV: one row per pair in flat order, ``_CHUNK_ROWS`` rows per write."""
    quoted = [_csv_field(name) for name in names]
    first, second = pair_indices(len(names))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write("i,j,name_i,name_j,statistic,p_value,threshold,rejected\r\n")
        for a in range(0, first.size, _CHUNK_ROWS):
            b = a + _CHUNK_ROWS
            rows = zip(first[a:b].tolist(), second[a:b].tolist(),
                       _format_cells(stat_values[a:b]), _format_cells(pvalues[a:b]),
                       _format_cells(thresholds[a:b]), mask[a:b].tolist())
            handle.write("".join(
                f"{i + 1},{j + 1},{quoted[i]},{quoted[j]},{t},{pv},{thr},{r:d}\r\n"
                for i, j, t, pv, thr, r in rows
            ))


def _csv_field(value: str) -> str:
    """``value`` as ``csv.writer`` writes it as one field among several in a row."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow(["", value])
    return buffer.getvalue()[1:-2]


def _write_graph(path: str, fmt: str, mask: np.ndarray, names) -> None:
    first, second = pair_indices(len(names))
    edges = zip((first[mask] + 1).tolist(), (second[mask] + 1).tolist())
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

_CONFIG_KEYS = {field.name for field in fields(ExperimentConfig)} | {"schema", "output"}


def load_config(path: str) -> tuple[ExperimentConfig, str | None]:
    """Parse a JSON run-config document into an ExperimentConfig."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
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
                procs.append(ProcedureKind(entry["method"], entry.get("stepdown", False)))
            except ValueError as exc:
                raise _CliError(EXIT_USAGE, f"{path}: procedures: {exc}")
        doc["procedures"] = tuple(procs)
    try:
        return ExperimentConfig(**doc), output
    except (ConfigError, TypeError, ValueError) as exc:
        raise _CliError(EXIT_USAGE, f"{path}: {exc}")


def cmd_simulate(args) -> int:
    config, config_output = load_config(args.config)
    overrides = {}
    for flag, key, least in (("seed", "seed", 0), ("threads", "threads", 1),
                             ("reps", "replicates", 1)):
        value = getattr(args, flag)
        if value is not None:
            if value < least:
                raise _CliError(EXIT_USAGE, f"--{flag} must be >= {least}")
            overrides[key] = value
    if overrides:
        config = replace(config, **overrides)
    output = args.output or config_output
    if not output:
        raise _CliError(EXIT_USAGE, "no output path (flag --output or config key 'output')")
    rows = run_experiment(config)
    columns = [field.name for field in fields(MetricsRow)]
    with open(output, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(getattr(row, name)) for name in columns])
    print(f"wrote {len(rows)} metric rows to {output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# corrgraph model
# ---------------------------------------------------------------------------

def cmd_model(args) -> int:
    _check_seed(args.seed)
    adjacency = sbm_adjacency(args.p, args.p_intra, args.p_inter, make_rng(args.seed))
    model = correlation_model(adjacency, args.rho)
    np.savetxt(args.output + ".adjacency.csv", adjacency.values, fmt="%d", delimiter=",")
    np.savetxt(args.output + ".gamma.csv", model.gamma.values, fmt="%.10g", delimiter=",")
    print(f"lambda_min={_fmt(model.min_eigenvalue)} rho_bound={_fmt(model.rho_bound)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# corrgraph quantile
# ---------------------------------------------------------------------------

def cmd_quantile(args) -> int:
    _check_seed(args.seed)
    _check_alpha(args.alpha)
    sigma = _read_matrix_csv(args.sigma)
    try:
        threshold, jitter = max_gauss_quantile(sigma, args.alpha, args.draws, make_rng(args.seed))
    except NotPositiveDefiniteError as exc:
        raise _CliError(EXIT_BAD_SIGMA, f"{args.sigma}: {exc}")
    print(
        f"threshold={_fmt(threshold)} alpha={_fmt(args.alpha)} draws={args.draws} "
        f"m={sigma.shape[0]} seed={args.seed} jitter={_fmt(jitter)}"
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
    except tuple(_EXIT_CODES) as exc:
        code, prefix = next(entry for error, entry in _EXIT_CODES.items() if isinstance(exc, error))
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
