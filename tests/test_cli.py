"""End-to-end CLI tests: subcommands, file formats, exit codes, determinism."""

import csv
import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrgraph
from corrgraph import (
    DegenerateInputError,
    ExperimentConfig,
    Method,
    MetricsRow,
    ProcedureKind,
    SampleMatrix,
    StatKind,
    cli,
    correlation_model,
    flat_to_pair,
    make_rng,
    run_procedure,
    sample_gaussian,
    sbm_adjacency,
    statistic,
)
from corrgraph import procedures, quantiles, simulation, stats
from corrgraph.cli import main
from corrgraph.errors import ConfigError, ModelError, NotPositiveDefiniteError, SingularityError


@pytest.fixture()
def data_csv(tmp_path):
    adj = sbm_adjacency(6, 0.8, 0.1, make_rng(3))
    model = correlation_model(adj, 0.35)
    samples = sample_gaussian(model.gamma, 150, make_rng(5))
    path = tmp_path / "data.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"v{k}" for k in range(1, 7)])
        for row in samples.data:
            writer.writerow([f"{x:.10f}" for x in row])
    return str(path), model


def run(argv):
    return main(argv)


def bom_copy(path, name):
    """A copy of the file at ``path``, beside it as ``name``, that starts with a UTF-8 BOM."""
    copy = os.path.join(os.path.dirname(path), name)
    with open(path, "rb") as src, open(copy, "wb") as dst:
        dst.write(b"\xef\xbb\xbf" + src.read())
    return copy


# ---------------------------------------------------------------------------
# Oracles: the row-by-row reader and the per-pair writers that the CLI used
# before the bulk parse and the vectorized writers.
# ---------------------------------------------------------------------------

def oracle_read_samples_csv(path):
    """SampleMatrix of a data CSV read with csv.reader and float(), or cli._CliError."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise cli._CliError(2, f"{path}: line 1: empty file")
        names = tuple(name.strip() for name in header)
        rows = []
        blank_lines = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                blank_lines.append(lineno)
                continue
            if len(row) != len(names):
                raise cli._CliError(
                    2, f"{path}: line {lineno}: expected {len(names)} fields, got {len(row)}"
                )
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                raise cli._CliError(2, f"{path}: line {lineno}: non-numeric cell")
    if not rows:
        raise cli._CliError(2, f"{path}: line 2: no data rows")
    data = np.array(rows)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        lineno = int(np.argmin(finite)) + 2
        for blank in blank_lines:
            if blank <= lineno:
                lineno += 1
        raise cli._CliError(2, f"{path}: line {lineno}: non-finite cell")
    try:
        return SampleMatrix(data, column_names=names)
    except DegenerateInputError as exc:
        raise cli._CliError(3, f"degenerate input: {exc}")
    except ValueError as exc:
        raise cli._CliError(2, f"{path}: {exc}")


def oracle_fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    return "" if math.isnan(v) else format(v, ".10g")


def oracle_write_edges(path, names, statistic_values, pvalues, thresholds, rejected):
    p = len(names)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["i", "j", "name_i", "name_j", "statistic", "p_value", "threshold", "rejected"]
        )
        for flat in range(p * (p - 1) // 2):
            i, j = flat_to_pair(flat, p)
            writer.writerow([i, j, names[i - 1], names[j - 1], oracle_fmt(statistic_values[flat]),
                             oracle_fmt(pvalues[flat]), oracle_fmt(thresholds[flat]),
                             int(flat in rejected)])


def oracle_write_graph(path, fmt, rejected, names):
    edges = [flat_to_pair(flat, len(names)) for flat in sorted(rejected)]
    with open(path, "w", encoding="utf-8") as handle:
        if fmt == "dot":
            handle.write("graph corrgraph {\n")
            for idx, name in enumerate(names, start=1):
                label = name.replace("\\", "\\\\").replace('"', '\\"')
                handle.write(f'  v{idx} [label="{label}"];\n')
            for i, j in edges:
                handle.write(f"  v{i} -- v{j};\n")
            handle.write("}\n")
        else:
            for i, j in edges:
                handle.write(f"{names[i - 1]}\t{names[j - 1]}\n")


def oracle_write_matrix_csv(path, matrix):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        for row in np.asarray(matrix):
            handle.write(",".join(oracle_fmt(v) for v in row) + "\n")


def read_outcome(reader, path):
    """(exit code, stderr line, names, data) of one reader on one file."""
    try:
        samples = reader(path)
    except cli._CliError as exc:
        return exc.code, f"error: {exc}", None, None
    return 0, "", samples.column_names, samples.data


def test_import_loads_no_scipy():
    # scipy is a test-only dependency: the package and CLI must start without it.
    src = os.path.dirname(os.path.dirname(os.path.abspath(corrgraph.__file__)))
    code = ("import sys, corrgraph, corrgraph.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_benchmark_span_names_resolve():
    # bench/spans.py wraps these attributes on every traced benchmark run.
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "spans.py")
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [(module, attr) for module, attr, _ in spans.SPANS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


class TestTestCommand:
    def test_edge_csv_schema(self, tmp_path, data_csv):
        path, model = data_csv
        out = tmp_path / "edges.csv"
        code = run(
            ["test", "--input", path, "--stat", "fisher", "--method", "sidak",
             "--step-down", "--alpha", "0.05", "--output", str(out)]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 15
        assert list(rows[0]) == [
            "i", "j", "name_i", "name_j", "statistic", "p_value", "threshold", "rejected"
        ]
        first = rows[0]
        assert (first["i"], first["j"], first["name_i"], first["name_j"]) == (
            "1", "2", "v1", "v2"
        )
        for row in rows:
            assert int(row["i"]) < int(row["j"])
            assert 0.0 <= float(row["p_value"]) <= 1.0
            assert row["rejected"] in ("0", "1")

    @pytest.mark.parametrize("quoted", [False, True])
    def test_byte_order_mark_ignored(self, tmp_path, data_csv, capsys, quoted):
        # A quoted cell sends the file to the row-by-row scanner.
        path, _ = data_csv
        if quoted:
            with open(path, newline="") as fh:
                lines = fh.read().split("\n")
            lines[1] = '"' + lines[1].replace(",", '","') + '"'
            path = str(tmp_path / "quoted.csv")
            with open(path, "w", newline="") as fh:
                fh.write("\n".join(lines))
        outputs = []
        for source in (path, bom_copy(path, "bom.csv")):
            edges, graph = tmp_path / "edges.csv", tmp_path / "graph.dot"
            assert run(["test", "--input", source, "--stat", "fisher", "--method", "maxt",
                        "--step-down", "--output", str(edges), "--graph-output", str(graph),
                        "--graph-format", "dot"]) == 0
            outputs.append((edges.read_bytes(), graph.read_bytes(), capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0].split(b"\r\n")[1].startswith(b"1,2,v1,v2,")

    @pytest.mark.parametrize("method", ["bonferroni", "sidak", "bootrw", "maxt"])
    def test_all_methods_run(self, tmp_path, data_csv, method):
        path, _ = data_csv
        out = tmp_path / f"{method}.csv"
        draws = ["--draws", "100"] if method in ("bootrw", "maxt") else []
        code = run(
            ["test", "--input", path, "--stat", "student", "--method", method,
             *draws, "--seed", "1", "--output", str(out)]
        )
        assert code == 0 and out.exists()

    def test_fourth_moment_flag(self, tmp_path, data_csv):
        path, _ = data_csv
        out = tmp_path / "fm.csv"
        code = run(
            ["test", "--input", path, "--stat", "empirical", "--method", "maxt",
             "--fourth-moment", "--draws", "200", "--output", str(out)]
        )
        assert code == 0

    def test_byte_deterministic(self, tmp_path, data_csv):
        path, _ = data_csv
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["test", "--input", path, "--stat", "empirical", "--method", "bootrw",
                "--seed", "7", "--output"]
        assert run(argv + [str(a)]) == 0
        assert run(argv + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_graph_exports(self, tmp_path, data_csv):
        path, _ = data_csv
        out = tmp_path / "edges.csv"
        dot = tmp_path / "graph.dot"
        lst = tmp_path / "graph.txt"
        assert run(["test", "--input", path, "--stat", "fisher", "--method", "sidak",
                    "--output", str(out), "--graph-output", str(dot),
                    "--graph-format", "dot"]) == 0
        text = dot.read_text()
        assert text.startswith("graph corrgraph {")
        assert 'v1 [label="v1"];' in text
        assert run(["test", "--input", path, "--stat", "fisher", "--method", "sidak",
                    "--output", str(out), "--graph-output", str(lst)]) == 0
        for line in lst.read_text().splitlines():
            assert len(line.split("\t")) == 2

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1.0,2.0\n3.0\n")
        code = run(["test", "--input", str(bad), "--stat", "empirical",
                    "--method", "bonferroni", "--output", str(tmp_path / "o.csv")])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_missing_csv_exit_two(self, tmp_path, capsys):
        path = tmp_path / "missing.csv"
        assert run(["test", "--input", str(path), "--stat", "fisher", "--method", "sidak",
                    "--output", str(tmp_path / "e.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot open {path}: ")

    def test_non_numeric_cell(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1.0,x\n2.0,3.0\n")
        assert run(["test", "--input", str(bad), "--stat", "empirical",
                    "--method", "bonferroni", "--output", str(tmp_path / "o.csv")]) == 2

    def test_non_finite_cell_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        # Line 3 is blank; the nan cell is on line 5 of the file.
        bad.write_text("a,b\n1.0,2.0\n\n3.0,1.0\n4.0,nan\n5.0,6.0\n")
        code = run(["test", "--input", str(bad), "--stat", "empirical",
                    "--method", "bonferroni", "--output", str(tmp_path / "o.csv")])
        assert code == 2
        assert "line 5" in capsys.readouterr().err

    def test_singular_covariance_exits_five(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 2))
        path = tmp_path / "dup.csv"
        lines = ["a,b,a2"] + [f"{u:.17g},{v:.17g},{u:.17g}" for u, v in x]
        path.write_text("\n".join(lines) + "\n")
        code = run(["test", "--input", str(path), "--stat", "fisher", "--method", "maxt",
                    "--output", str(tmp_path / "o.csv")])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("error:") and "singular" in err

    def test_dot_labels_escaped(self, tmp_path):
        rng = np.random.default_rng(6)
        path = tmp_path / "names.csv"
        lines = ['"a""x",b\\y'] + [f"{u:.17g},{v:.17g}" for u, v in rng.normal(size=(20, 2))]
        path.write_text("\n".join(lines) + "\n")
        dot = tmp_path / "graph.dot"
        assert run(["test", "--input", str(path), "--stat", "fisher", "--method", "sidak",
                    "--output", str(tmp_path / "o.csv"), "--graph-output", str(dot),
                    "--graph-format", "dot"]) == 0
        text = dot.read_text()
        assert 'v1 [label="a\\"x"];' in text
        assert 'v2 [label="b\\\\y"];' in text

    def test_oversized_maxt_fails_fast(self, tmp_path, capsys):
        # 10^12 Gaussian draws: their row maxima alone need 8 TB.
        path = tmp_path / "small.csv"
        data = np.random.default_rng(4).normal(size=(6, 4))
        np.savetxt(path, data, delimiter=",", comments="", header="a,b,c,d")
        assert main(["test", "--input", str(path), "--stat", "fisher", "--method", "maxt",
                     "--draws", str(10**12), "--output", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: maxt needs about") and " GB " in err
        assert not (tmp_path / "o.csv").exists()

    def test_oversized_bootrw_fails_fast(self, tmp_path, capsys):
        # 10^11 resamples of n = 6 rows: their count weights alone need 14 TB.
        path = tmp_path / "small.csv"
        data = np.random.default_rng(4).normal(size=(6, 4))
        np.savetxt(path, data, delimiter=",", comments="", header="a,b,c,d")
        assert main(["test", "--input", str(path), "--stat", "fisher", "--method", "bootrw",
                     "--draws", str(10**11), "--output", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bootrw needs about") and " GB " in err
        assert "B x m" not in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("flags", [
        ["--method", "maxt"], ["--method", "maxt", "--step-down"],
        ["--method", "bootrw"], ["--method", "bootrw", "--step-down"],
        ["--method", "maxt", "--fourth-moment"], ["--method", "maxt", "--step-down", "--fourth-moment"],
    ])
    def test_draw_memory_guard_sizes_what_is_held(self, tmp_path, monkeypatch, flags):
        # p=2000 with --draws 5000 would need 80 GB for B x m draws; what is
        # held is a few hundred MB at most, so with 1 GB of memory the guard
        # passes it and the route is asked for its first block.
        class Reached(Exception):
            pass

        def first_block(*args, **kwargs):
            raise Reached
            yield

        for module, name in ((quantiles, "_bootstrap_blocks"), (quantiles, "_perturbation_blocks"),
                             (quantiles, "_multiplier_blocks")):
            monkeypatch.setattr(module, name, first_block)
        monkeypatch.setattr(quantiles.os, "sysconf",
                            lambda name: 4096 if name == "SC_PAGE_SIZE" else (1 << 30) // 4096)
        path = tmp_path / "wide.csv"
        np.savetxt(path, np.random.default_rng(4).normal(size=(6, 2000)), delimiter=",",
                   comments="", header=",".join(f"v{c}" for c in range(2000)))
        with pytest.raises(Reached):
            main(["test", "--input", str(path), "--stat", "fisher", *flags, "--draws", "5000",
                  "--output", str(tmp_path / "o.csv")])

    @pytest.mark.parametrize("method", ["bootrw", "maxt"])
    def test_bad_alpha_exits_one_before_any_work(self, tmp_path, data_csv, monkeypatch, capsys,
                                                 method):
        def refuse(*args, **kwargs):
            raise AssertionError("work done before alpha was checked")

        for module, name in ((cli, "_read_samples_csv"), (cli, "statistic"),
                             (procedures, "bootstrap_draw_matrix"),
                             (procedures, "gauss_draw_matrix")):
            monkeypatch.setattr(module, name, refuse)
        path, _ = data_csv
        out = tmp_path / "o.csv"
        assert main(["test", "--input", path, "--stat", "fisher", "--method", method,
                     "--step-down", "--alpha", "1.5", "--output", str(out)]) == 1
        assert capsys.readouterr().err == "error: alpha must be in (0, 1), got 1.5\n"
        assert not out.exists()

    @pytest.mark.parametrize("fourth", [[], ["--fourth-moment"]])
    def test_maxt_at_p200(self, tmp_path, fourth):
        # m = 19,900: an m x m covariance would need about 22 GB.
        path = tmp_path / "wide.csv"
        data = np.random.default_rng(5).normal(size=(500, 200))
        np.savetxt(path, data, delimiter=",", comments="",
                   header=",".join(f"v{c}" for c in range(200)))
        out = tmp_path / "o.csv"
        assert main(["test", "--input", str(path), "--stat", "fisher", "--method", "maxt",
                     "--step-down", *fourth, "--draws", "100", "--output", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 19_901

    @pytest.mark.parametrize("fourth", [[], ["--fourth-moment"]])
    def test_maxt_holds_no_draw_matrix(self, tmp_path, fourth):
        # B = 1000 draws of m = 19,900 pairs would take 159 MB; the step-down
        # reads prefix-max records, and nothing of that size is allocated.
        import tracemalloc

        path = tmp_path / "wide.csv"
        data = np.random.default_rng(5).normal(size=(500, 200))
        np.savetxt(path, data, delimiter=",", comments="",
                   header=",".join(f"v{c}" for c in range(200)))
        out = tmp_path / "o.csv"
        tracemalloc.start()
        try:
            code = main(["test", "--input", str(path), "--stat", "fisher", "--method", "maxt",
                         "--step-down", *fourth, "--output", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and len(out.read_text().splitlines()) == 19_901
        assert peak < 0.1 * 1000 * 19_900 * 8

    def test_bootrw_step_down_holds_no_draw_matrix(self, tmp_path):
        # B = 1000 resamples of m = 19,900 pairs would take 159 MB; the
        # step-down reads prefix-max records folded chunk by chunk.
        import tracemalloc

        path = tmp_path / "wide.csv"
        data = np.random.default_rng(5).normal(size=(500, 200))
        np.savetxt(path, data, delimiter=",", comments="",
                   header=",".join(f"v{c}" for c in range(200)))
        out = tmp_path / "o.csv"
        tracemalloc.start()
        try:
            code = main(["test", "--input", str(path), "--stat", "fisher", "--method", "bootrw",
                         "--step-down", "--draws", "1000", "--output", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and len(out.read_text().splitlines()) == 19_901
        assert peak < 0.25 * 1000 * 19_900 * 8

    @pytest.mark.parametrize("fourth", [[], ["--fourth-moment"]])
    def test_non_finite_draws_exit_one(self, tmp_path, data_csv, monkeypatch, capsys, fourth):
        # A NaN Delta factor (Gaussian route) or influence value
        # (fourth-moment route) makes non-finite draws.
        def poison(real):
            def wrapped(*args, **kwargs):
                values = real(*args, **kwargs)
                values[..., 0] = np.nan
                return values
            return wrapped

        monkeypatch.setattr(quantiles, "_delta_divisor", poison(stats._delta_divisor))
        monkeypatch.setattr(quantiles, "_influence", poison(stats._influence))
        path, _ = data_csv
        out = tmp_path / "o.csv"
        for step_down in ([], ["--step-down"]):
            assert main(["test", "--input", path, "--stat", "fisher", "--method", "maxt",
                         *step_down, *fourth, "--output", str(out)]) == 1
            assert capsys.readouterr().err == "error: draw matrix contains non-finite entries\n"
            assert not out.exists()

    def test_maxt_forms_no_pair_covariance(self, tmp_path, data_csv, monkeypatch):
        # Every max-T route runs with the m x m covariance builders and the
        # Cholesky factorization made to raise, wherever corrgraph binds them.
        def refuse(*args, **kwargs):
            raise AssertionError("m x m covariance built on the max-T path")

        for fn in (stats.omega_gaussian, stats.omega_general, quantiles.cholesky_psd):
            for module in (corrgraph, cli, procedures, quantiles, simulation, stats):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, refuse)
        path, _ = data_csv
        for fourth in ([], ["--fourth-moment"]):
            assert run(["test", "--input", path, "--stat", "fisher", "--method", "maxt",
                        "--step-down", *fourth, "--output", str(tmp_path / "o.csv")]) == 0
        config = ExperimentConfig(p=6, p_intra=0.6, p_inter=(0.4,), rho=(0.2,), n=(60,),
                                  procedures=(ProcedureKind(Method.MAX_T),
                                              ProcedureKind(Method.ORACLE_MAX_T, True)),
                                  replicates=3, maxt_draws=100, seed=1)
        rows = simulation.run_experiment(config)
        assert len(rows) == 2 * len(config.stats)
        assert all(row.failed_replicates == 0 for row in rows)

    def test_degenerate_column_named(self, tmp_path, capsys):
        bad = tmp_path / "degen.csv"
        rows = ["height,const"] + [f"{v},5.0" for v in range(10)]
        bad.write_text("\n".join(rows) + "\n")
        code = run(["test", "--input", str(bad), "--stat", "empirical",
                    "--method", "bonferroni", "--output", str(tmp_path / "o.csv")])
        assert code == 3
        assert "const" in capsys.readouterr().err

    def test_inexact_constant_column_exits_three(self, tmp_path, capsys):
        bad = tmp_path / "tenths.csv"
        rows = ["height,tenth"] + [f"{v},0.1" for v in range(3)]
        bad.write_text("\n".join(rows) + "\n")
        code = run(["test", "--input", str(bad), "--stat", "empirical",
                    "--method", "bonferroni", "--output", str(tmp_path / "o.csv")])
        assert code == 3
        assert "tenth" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self):
        assert run(["test", "--nope"]) == 1

    @pytest.mark.parametrize("flags", [
        ["--method", "sidak", "--alpha", "1.5"],
        ["--method", "sidak", "--alpha", "0"],
        ["--method", "bootrw", "--draws", "10"],
        ["--method", "bootrw", "--draws", "0"],
        ["--method", "bootrw", "--draws", "-3"],
        ["--method", "maxt", "--draws", "5"],
        ["--method", "sidak", "--fourth-moment"],
        ["--method", "bootrw", "--fourth-moment"],
        ["--method", "bonferroni", "--draws", "100"],
        ["--method", "sidak", "--draws", "1000"],
    ])
    def test_bad_flag_values_exit_one(self, tmp_path, data_csv, capsys, flags):
        path, _ = data_csv
        out = tmp_path / "o.csv"
        assert run(["test", "--input", path, "--stat", "fisher", *flags,
                    "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_degenerate_resamples_exit_three(self, tmp_path, capsys):
        # Columns b and c are nonzero on one row each, so most resamples miss
        # one of those rows and have a zero-variance column.
        rows = ["a,b,c"] + [f"{v:.17g},{int(k == 0)},{int(k == 1)}"
                            for k, v in enumerate(np.random.default_rng(2).normal(size=40))]
        path = tmp_path / "spiky.csv"
        path.write_text("\n".join(rows) + "\n")
        assert run(["test", "--input", str(path), "--stat", "empirical", "--method", "bootrw",
                    "--output", str(tmp_path / "o.csv")]) == 3
        assert capsys.readouterr().err.startswith("error: degenerate input:")


NAMES = ["a", "b c", '"x,y"', '"q""r"', "é", "v1", ""]
NUMBERS = st.floats(-1e6, 1e6).flatmap(
    lambda v: st.sampled_from([repr(v), f"{v:.17g}", f"{v:.3f}", f" {v:g} "])
)
ODD_CELLS = st.sampled_from(
    ["1_0", '"4.5"', "nan", "inf", "-inf", "1e5000", "x", "", "+.5", "0x1", "\xa01"]
)


@st.composite
def csv_texts(draw):
    """Data CSV text with blank, whitespace-only, ragged and odd-cell lines."""
    width = draw(st.integers(1, 4))
    lines = [",".join(draw(st.lists(st.sampled_from(NAMES), min_size=width, max_size=width)))]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row", "row", "row", "odd", "ragged", "blank", "space"]))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", "  \t"])))
        else:
            size = width if kind != "ragged" else draw(st.integers(1, 5).filter(lambda k: k != width))
            cells = draw(st.lists(NUMBERS, min_size=size, max_size=size))
            if kind == "odd":
                cells[draw(st.integers(0, size - 1))] = draw(ODD_CELLS)
            lines.append(",".join(cells))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + (eol if draw(st.booleans()) else "")


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("reader")


class TestReaderOracle:
    @settings(max_examples=300, deadline=None)
    @given(text=csv_texts())
    def test_matches_row_scanner(self, scratch, text):
        path = scratch / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        code, err, names, data = read_outcome(cli._read_samples_csv, str(path))
        want_code, want_err, want_names, want_data = read_outcome(oracle_read_samples_csv, str(path))
        assert (code, err, names) == (want_code, want_err, want_names)
        if want_data is not None:
            assert data.tobytes() == want_data.tobytes()

    @pytest.mark.parametrize("text, code, message", [
        ("", 2, "line 1: empty file"),
        ("a,b\n", 2, "line 2: no data rows"),
        ("a,b\n\n\n", 2, "line 2: no data rows"),
        ("a,b\n1,2\n  \n3,4\n", 2, "line 3: expected 2 fields, got 1"),
        ("a\n  \n1\n2\n", 2, "line 2: non-numeric cell"),
        ("a,b\n1,2\n3,4,5\n", 2, "line 3: expected 2 fields, got 3"),
        ("a,b\r\n1,2\r\n\r\n3,inf\r\n", 2, "line 4: non-finite cell"),
        ("a,b,c\n1,2\n3,4\n", 2, "line 2: expected 3 fields, got 2"),
    ])
    def test_error_lines(self, tmp_path, text, code, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode("utf-8"))
        got = read_outcome(cli._read_samples_csv, str(path))
        assert got[:2] == (code, f"error: {path}: {message}")
        assert got[:2] == read_outcome(oracle_read_samples_csv, str(path))[:2]

    def test_scanner_accepts_what_loadtxt_refuses(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text('"x,y",b\n1_0,"4.5"\n2,3\n', encoding="utf-8")
        samples = cli._read_samples_csv(str(path))
        assert samples.column_names == ("x,y", "b")
        assert samples.data.tolist() == [[10.0, 4.5], [2.0, 3.0]]


TRICKY_NAMES = ['a"b', "c,d", "e\\f", "g h", "ñ-ü", '"', "p\nq"]


class TestWriterOracle:
    def test_edges_and_graphs_match(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_CHUNK_ROWS", 4)  # 21 pairs: six chunks
        rng = np.random.default_rng(8)
        m = 21
        values = rng.normal(size=(3, m)) * 10.0 ** rng.integers(-300, 300, size=(3, m))
        values[0, [2, 5]] = np.nan
        values[1, 7] = np.inf
        values[2, [0, 9]] = [-np.inf, -0.0]
        mask = rng.random(m) < 0.4
        rejected = frozenset(np.flatnonzero(mask).tolist())
        cli._write_edges(str(tmp_path / "e.csv"), TRICKY_NAMES, *values, mask)
        oracle_write_edges(str(tmp_path / "o.csv"), TRICKY_NAMES, *values, rejected)
        assert (tmp_path / "e.csv").read_bytes() == (tmp_path / "o.csv").read_bytes()
        for fmt in ("dot", "edgelist"):
            cli._write_graph(str(tmp_path / f"g.{fmt}"), fmt, mask, TRICKY_NAMES)
            oracle_write_graph(str(tmp_path / f"o.{fmt}"), fmt, rejected, TRICKY_NAMES)
            assert (tmp_path / f"g.{fmt}").read_bytes() == (tmp_path / f"o.{fmt}").read_bytes()

    def test_cli_outputs_match(self, tmp_path):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(120, 6))
        x[:, 1] += x[:, 0]
        x[:, 4] -= 0.8 * x[:, 2]
        names = ['a"b', "c,d", "e\\f", "g h", "ñ-ü", "x"]
        path = tmp_path / "data.csv"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(names)
            writer.writerows([[f"{v:.17g}" for v in row] for row in x])
        samples = oracle_read_samples_csv(str(path))
        assert samples.column_names == tuple(names)
        stats = statistic(samples, StatKind.FISHER)
        result = run_procedure(stats, 0.05, ProcedureKind(Method.SIDAK, stepdown=True))
        assert result.rejected
        oracle_write_edges(str(tmp_path / "o.csv"), names, stats.values, result.pvalues.values,
                           result.pair_thresholds, result.rejected)
        for fmt in ("dot", "edgelist"):
            assert run(["test", "--input", str(path), "--stat", "fisher", "--method", "sidak",
                        "--step-down", "--output", str(tmp_path / "e.csv"),
                        "--graph-output", str(tmp_path / f"g.{fmt}"),
                        "--graph-format", fmt]) == 0
            assert (tmp_path / "e.csv").read_bytes() == (tmp_path / "o.csv").read_bytes()
            oracle_write_graph(str(tmp_path / f"o.{fmt}"), fmt, result.rejected, names)
            assert (tmp_path / f"g.{fmt}").read_bytes() == (tmp_path / f"o.{fmt}").read_bytes()

    def test_no_flat_to_pair_calls(self, tmp_path, data_csv, monkeypatch):
        calls = []

        def spy(flat, p):
            calls.append(flat)
            return flat_to_pair(flat, p)

        for name, module in list(sys.modules.items()):
            if name == "corrgraph" or name.startswith("corrgraph."):
                for attr, value in list(vars(module).items()):
                    if value is flat_to_pair:
                        monkeypatch.setattr(module, attr, spy)
        path, _ = data_csv
        for fmt in ("dot", "edgelist"):
            assert run(["test", "--input", path, "--stat", "fisher", "--method", "sidak",
                        "--step-down", "--output", str(tmp_path / "e.csv"),
                        "--graph-output", str(tmp_path / "g"), "--graph-format", fmt]) == 0
        assert (tmp_path / "g").read_text()
        assert calls == []


class TestSimulateCommand:
    def make_config(self, tmp_path, **extra):
        doc = {
            "schema": "corrgraph-config-v1",
            "p": 6,
            "p_inter": [0.2],
            "rho": [0.3],
            "n": [60],
            "stats": ["fisher"],
            "procedures": [{"method": "sidak", "stepdown": True}],
            "replicates": 6,
            "seed": 9,
        }
        doc.update(extra)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_metrics_csv(self, tmp_path):
        cfg = self.make_config(tmp_path)
        out = tmp_path / "metrics.csv"
        assert run(["simulate", "--config", cfg, "--output", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        row = rows[0]
        assert list(row) == [
            "stat", "method", "stepdown", "n", "p_inter", "rho", "replicates",
            "fwer", "fwer_se", "power", "power_se", "fdp", "fdp_se", "failed_replicates",
        ]
        assert row["stat"] == "fisher" and row["stepdown"] == "1"
        assert 0.0 <= float(row["fwer"]) <= 1.0

    def test_failed_replicates_written(self, tmp_path, monkeypatch):
        row = MetricsRow(StatKind.FISHER, Method.SIDAK, True, 60, 0.2, 0.3, 4,
                         0.0, 0.0, 1.0, 0.0, 0.0, 0.0, failed_replicates=2)
        monkeypatch.setattr("corrgraph.cli.run_experiment", lambda cfg: [row])
        out = tmp_path / "metrics.csv"
        assert run(["simulate", "--config", self.make_config(tmp_path),
                    "--output", str(out)]) == 0
        with open(out, newline="") as fh:
            (written,) = list(csv.DictReader(fh))
        assert written["replicates"] == "4" and written["failed_replicates"] == "2"

    def test_nan_power_written_empty(self, tmp_path):
        cfg = self.make_config(tmp_path, p_intra=0.0, p_inter=[0.0], replicates=4)
        out = tmp_path / "metrics.csv"
        assert run(["simulate", "--config", cfg, "--output", str(out)]) == 0
        with open(out, newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["power"] == ""

    def test_flag_overrides(self, tmp_path):
        cfg = self.make_config(tmp_path)
        out = tmp_path / "m.csv"
        assert run(["simulate", "--config", cfg, "--output", str(out),
                    "--reps", "3", "--seed", "1"]) == 0
        with open(out, newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["replicates"] == "3"

    def test_byte_deterministic(self, tmp_path):
        cfg = self.make_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["simulate", "--config", cfg, "--output", str(a)]) == 0
        assert run(["simulate", "--config", cfg, "--output", str(b), "--threads", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_byte_order_mark_ignored(self, tmp_path):
        cfg = self.make_config(tmp_path)
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        assert run(["simulate", "--config", cfg, "--output", str(plain)]) == 0
        assert run(["simulate", "--config", bom_copy(cfg, "bom.json"),
                    "--output", str(marked)]) == 0
        assert plain.read_bytes() == marked.read_bytes()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path, bogus=1)
        assert run(["simulate", "--config", cfg, "--output", str(tmp_path / "x")]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_schema_tag_required(self, tmp_path):
        cfg = self.make_config(tmp_path, schema="nope-v0")
        assert run(["simulate", "--config", cfg, "--output", str(tmp_path / "x")]) == 1

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(["simulate", "--config", str(path), "--output", str(tmp_path / "x")]) == 1

    def test_output_required_somewhere(self, tmp_path):
        cfg = self.make_config(tmp_path)
        assert run(["simulate", "--config", cfg]) == 1
        cfg2 = self.make_config(tmp_path, output=str(tmp_path / "from_config.csv"))
        assert run(["simulate", "--config", cfg2]) == 0
        assert (tmp_path / "from_config.csv").exists()


    @pytest.mark.parametrize("extra, message", [
        (None, "config must be a JSON object"),
        ({"procedures": [{"stepdown": True}]}, "procedures: entries need a 'method' key"),
        ({"procedures": [{"method": "sidak", "order": 2}]}, "procedures: unknown keys ['order']"),
        ({"p_inter": 0.1}, "p_inter must be a list, got 0.1"),
        ({"rho": 0.2}, "rho must be a list, got 0.2"),
        ({"n": 100}, "n must be a list, got 100"),
        ({"stats": "fisher"}, "stats must be a list, got 'fisher'"),
        ({"procedures": "bonferroni"}, "procedures must be a list, got 'bonferroni'"),
        ({"procedures": {"method": "sidak"}}, "procedures must be a list, got {'method': 'sidak'}"),
    ])
    def test_config_shape_errors_exit_one(self, tmp_path, capsys, extra, message):
        cfg = self.make_config(tmp_path, **(extra or {}))
        if extra is None:  # the same keys, as a JSON array of one object
            path = tmp_path / "config.json"
            path.write_text(json.dumps([json.loads(path.read_text())]))
        out = tmp_path / "m.csv"
        assert run(["simulate", "--config", cfg, "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
        assert not out.exists()

    def test_one_replicate_writes_empty_standard_errors(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run(["simulate", "--config", self.make_config(tmp_path, replicates=1),
                    "--output", str(out)]) == 0
        with open(out, newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert (row["replicates"], row["failed_replicates"]) == ("1", "0")
        assert all(row[name] != "" for name in ("fwer", "power", "fdp"))
        assert [row[name] for name in ("fwer_se", "power_se", "fdp_se")] == ["", "", ""]

    @pytest.mark.parametrize("extra", [
        {"procedures": [{"method": "bh"}]},
        {"procedures": [{"method": "bootrw"}], "bootrw_draws": 10},
        {"procedures": [{"method": "maxt"}], "maxt_draws": 50},
        {"n": [3]},
        {"n": [60, 1]},
        {"replicates": 2.5},
        {"p": 26.0},
        {"seed": 1.5},
        {"seed": -1},
        {"threads": 2.5},
        {"n": [100.7]},
        {"procedures": [{"method": "bootrw"}], "bootrw_draws": 100.0},
        {"procedures": [{"method": "maxt"}], "maxt_draws": True},
        {"procedures": [{"method": "sidak", "stepdown": "false"}]},
        {"procedures": [{"method": "sidak", "stepdown": 1}]},
        {"adjacency_per_replicate": "false"},
        {"n": ["500"]},
        {"n": ["26.0"]},
        {"p_inter": ["0.1"]},
        {"p_inter": [True]},
        {"p_intra": True},
        {"alpha": "0.05"},
        {"p_intra": "0.6"},
        {"stats": []},
        {"procedures": []},
    ])
    def test_bad_config_values_exit_one(self, tmp_path, capsys, extra):
        cfg = self.make_config(tmp_path, **extra)
        out = tmp_path / "m.csv"
        assert run(["simulate", "--config", cfg, "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("extra", [
        {"procedures": [{"method": "maxt"}], "maxt_draws": 10**15},
        {"procedures": [{"method": "oracle-maxt", "stepdown": True}], "maxt_draws": 10**15},
        {"procedures": [{"method": "bootrw"}], "bootrw_draws": 10**15},
    ])
    def test_oversized_draws_exit_one(self, tmp_path, capsys, extra):
        cfg = self.make_config(tmp_path, **extra)
        out = tmp_path / "m.csv"
        assert run(["simulate", "--config", cfg, "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and " needs about " in err and "Traceback" not in err
        assert not out.exists()

    def test_threads_flag_then_config_then_one(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr("corrgraph.cli.run_experiment", lambda cfg: seen.append(cfg) or [])
        monkeypatch.setenv("CORRGRAPH_THREADS", "3")
        out = str(tmp_path / "m.csv")
        assert run(["simulate", "--config", self.make_config(tmp_path, threads=4),
                    "--output", out]) == 0
        assert run(["simulate", "--config", self.make_config(tmp_path, threads=4),
                    "--output", out, "--threads", "2"]) == 0
        assert run(["simulate", "--config", self.make_config(tmp_path), "--output", out]) == 0
        assert [cfg.threads for cfg in seen] == [4, 2, 1]

    @pytest.mark.parametrize("flag, value, least", [("--seed", "-1", 0), ("--threads", "0", 1),
                                                     ("--reps", "0", 1)])
    def test_bad_override_flag_exits_one(self, tmp_path, capsys, flag, value, least):
        out = tmp_path / "m.csv"
        assert run(["simulate", "--config", self.make_config(tmp_path), "--output", str(out),
                    flag, value]) == 1
        assert capsys.readouterr() == ("", f"error: {flag} must be >= {least}\n")
        assert not out.exists()

    def test_nan_rho_exit_one(self, tmp_path, capsys):
        # json.load reads NaN; the model refuses it before it builds Gamma.
        out = tmp_path / "m.csv"
        assert run(["simulate", "--config", self.make_config(tmp_path, rho=[math.nan]),
                    "--output", str(out)]) == 1
        assert capsys.readouterr().err == "error: rho must be finite, got nan\n"
        assert not out.exists()

    def test_infeasible_rho_exit_four(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert run(["simulate", "--config", self.make_config(tmp_path, rho=[1.5]),
                    "--output", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: rho=1.5 violates") and "|rho| <" in err
        assert not out.exists()

    def test_oversized_replicates_exit_one(self, tmp_path, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("a replicate ran before the memory check")

        monkeypatch.setattr(simulation, "_replicate_work", refuse)
        out = tmp_path / "m.csv"
        assert run(["simulate", "--config", self.make_config(tmp_path, replicates=10**15),
                    "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: simulation needs about ")
        assert f"for {10**15} replicates at n=60, p=6" in err
        assert not out.exists()

    def test_every_replicate_failed_writes_empty_metrics(self, tmp_path, monkeypatch):
        def degenerate(*args, **kwargs):
            raise DegenerateInputError("column 1 has zero empirical variance", column=1)

        monkeypatch.setattr(simulation, "sample_gaussian", degenerate)
        out = tmp_path / "m.csv"
        assert run(["simulate", "--config", self.make_config(tmp_path, replicates=3),
                    "--output", str(out)]) == 0
        with open(out, newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["replicates"] == "0" and row["failed_replicates"] == "3"
        metrics = ("fwer", "fwer_se", "power", "power_se", "fdp", "fdp_se")
        assert [row[name] for name in metrics] == [""] * len(metrics)


class TestModelCommand:
    def test_writes_matrices(self, tmp_path, capsys):
        stem = str(tmp_path / "model")
        assert run(["model", "--p", "8", "--p-intra", "0.6", "--p-inter", "0.1",
                    "--rho", "0.2", "--seed", "4", "--output", stem]) == 0
        out = capsys.readouterr().out
        assert "lambda_min=" in out and "rho_bound=" in out
        adj = np.loadtxt(stem + ".adjacency.csv", delimiter=",")
        gamma = np.loadtxt(stem + ".gamma.csv", delimiter=",")
        assert adj.shape == (8, 8) and gamma.shape == (8, 8)
        assert np.allclose(gamma, np.eye(8) + 0.2 * adj)

    def test_matrices_match_oracle(self, tmp_path):
        assert run(["model", "--p", "60", "--p-intra", "0.5", "--p-inter", "0.05",
                    "--rho", "0.1", "--seed", "3", "--output", str(tmp_path / "model")]) == 0
        adjacency = sbm_adjacency(60, 0.5, 0.05, make_rng(3))
        oracle_write_matrix_csv(str(tmp_path / "a.csv"), adjacency.values)
        oracle_write_matrix_csv(str(tmp_path / "g.csv"), correlation_model(adjacency, 0.1).gamma.values)
        assert (tmp_path / "model.adjacency.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()
        assert (tmp_path / "model.gamma.csv").read_bytes() == (tmp_path / "g.csv").read_bytes()

    def test_infeasible_rho_exit_four(self, tmp_path, capsys):
        # Complete bipartite K_{4,4}: lambda_min = -4, bound 0.25.
        assert run(["model", "--p", "8", "--p-intra", "0.0", "--p-inter", "1.0",
                    "--rho", "0.9", "--seed", "0",
                    "--output", str(tmp_path / "m")]) == 4
        assert "|rho| <" in capsys.readouterr().err

    def test_odd_p_exit_one(self, tmp_path):
        assert run(["model", "--p", "7", "--p-intra", "0.5", "--p-inter", "0.1",
                    "--rho", "0.1", "--output", str(tmp_path / "m")]) == 1

    @pytest.mark.parametrize("p", ["0", "-2"])
    def test_empty_model_exit_one(self, tmp_path, capsys, p):
        assert run(["model", "--p", p, "--p-intra", "0.5", "--p-inter", "0.1",
                    "--rho", "0.1", "--output", str(tmp_path / "m")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_nan_rho_exit_one(self, tmp_path, capsys):
        assert run(["model", "--p", "8", "--p-intra", "0.5", "--p-inter", "0.1",
                    "--rho", "nan", "--output", str(tmp_path / "m")]) == 1
        assert capsys.readouterr().err == "error: rho must be finite, got nan\n"
        assert not list(tmp_path.iterdir())

    def test_infinite_rho_exit_four(self, tmp_path, capsys):
        assert run(["model", "--p", "8", "--p-intra", "0.5", "--p-inter", "0.1",
                    "--rho", "inf", "--output", str(tmp_path / "m")]) == 4
        assert "|rho| <" in capsys.readouterr().err

    def test_oversized_p_exit_one(self, tmp_path, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("pair indexes built before the memory check")

        monkeypatch.setattr(simulation, "pair_indices", refuse)
        assert run(["model", "--p", "100000000", "--p-intra", "0.5", "--p-inter", "0.1",
                    "--rho", "0.1", "--output", str(tmp_path / "m")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: SBM adjacency needs about ") and "at p=100000000" in err
        assert not list(tmp_path.iterdir())


class TestQuantileCommand:
    def test_identity(self, tmp_path, capsys):
        sigma = tmp_path / "sigma.csv"
        np.savetxt(sigma, np.eye(3), delimiter=",")
        assert run(["quantile", "--sigma", str(sigma), "--alpha", "0.1",
                    "--draws", "2000", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "threshold=" in out and "m=3" in out

    def test_byte_order_mark_ignored(self, tmp_path, capsys):
        sigma = tmp_path / "sigma.csv"
        np.savetxt(sigma, np.eye(3) * 0.5 + 0.5, delimiter=",")
        outputs = []
        for source in (str(sigma), bom_copy(str(sigma), "bom.csv")):
            assert run(["quantile", "--sigma", source, "--draws", "500", "--seed", "2"]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]

    def test_asymmetric_exit_five(self, tmp_path):
        sigma = tmp_path / "sigma.csv"
        sigma.write_text("1.0,0.0\n0.5,1.0\n")
        assert run(["quantile", "--sigma", str(sigma)]) == 5

    def test_indefinite_exit_five(self, tmp_path):
        sigma = tmp_path / "sigma.csv"
        sigma.write_text("1.0,2.0\n2.0,1.0\n")
        assert run(["quantile", "--sigma", str(sigma), "--draws", "200"]) == 5

    @pytest.mark.parametrize("alpha", ["2", "0", "-0.5"])
    def test_bad_alpha_exit_one(self, tmp_path, capsys, alpha):
        sigma = tmp_path / "sigma.csv"
        np.savetxt(sigma, np.eye(3), delimiter=",")
        assert run(["quantile", "--sigma", str(sigma), "--alpha", alpha, "--draws", "200"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "alpha" in err

    def test_bad_alpha_exits_one_before_the_factorization(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("factorization before alpha was checked")

        monkeypatch.setattr(quantiles, "cholesky_psd", refuse)
        sigma = tmp_path / "sigma.csv"
        np.savetxt(sigma, np.eye(3), delimiter=",")
        assert run(["quantile", "--sigma", str(sigma), "--alpha", "1.5"]) == 1
        assert capsys.readouterr().err == "error: alpha must be in (0, 1), got 1.5\n"
        # Nor is a missing Sigma read first.
        assert run(["quantile", "--sigma", str(tmp_path / "missing.csv"), "--alpha", "2"]) == 1
        assert capsys.readouterr().err == "error: alpha must be in (0, 1), got 2.0\n"

    def test_oversized_draws_exit_one(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("factorization before the memory check")

        monkeypatch.setattr(quantiles, "cholesky_psd", refuse)
        sigma = tmp_path / "sigma.csv"
        np.savetxt(sigma, np.eye(3), delimiter=",")
        assert run(["quantile", "--sigma", str(sigma), "--draws", str(10**15)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: quantile needs about ") and "m=3" in err

    @pytest.mark.parametrize("text", ["1,0\n0,inf\n", "1,0\n0,-inf\n", "1,nan\n0,1\n",
                                      "1,0\nnan,1\n"])
    def test_non_finite_sigma_exit_five(self, tmp_path, capsys, text):
        sigma = tmp_path / "sigma.csv"
        sigma.write_text(text)
        assert run(["quantile", "--sigma", str(sigma)]) == 5
        assert capsys.readouterr() == ("", f"error: {sigma}: matrix contains non-finite entries\n")

    @pytest.mark.parametrize("text, message", [
        (None, "cannot open {path}: "),
        ("1,0\n0,x\n", "{path}: malformed matrix CSV: "),
    ])
    def test_unreadable_sigma_exit_five(self, tmp_path, capsys, text, message):
        sigma = tmp_path / "sigma.csv"
        if text is not None:
            sigma.write_text(text)
        assert run(["quantile", "--sigma", str(sigma)]) == 5
        assert capsys.readouterr().err.startswith("error: " + message.format(path=sigma))

    def test_empty_sigma_exit_five_with_one_line(self, tmp_path):
        # Run as a process, so that a warning from loadtxt would reach stderr.
        sigma = tmp_path / "sigma.csv"
        src = os.path.dirname(os.path.dirname(os.path.abspath(corrgraph.__file__)))
        for text in ("", "\n\n\n"):
            sigma.write_text(text)
            done = subprocess.run([sys.executable, "-m", "corrgraph.cli", "quantile", "--sigma",
                                   str(sigma)], env={**os.environ, "PYTHONPATH": src},
                                  capture_output=True, text=True)
            assert done.returncode == 5
            assert done.stderr == f"error: {sigma}: matrix CSV is empty\n"


class TestExitCodeTable:
    """Library errors reach ``main``, which maps every command's through one table."""

    @pytest.mark.parametrize("error, code, line", [
        (DegenerateInputError("column 2 has zero empirical variance", column=2), 3,
         "error: degenerate input: column 2 has zero empirical variance\n"),
        (ModelError("not positive definite"), 4, "error: not positive definite\n"),
        (NotPositiveDefiniteError("not symmetric"), 5, "error: not symmetric\n"),
        (SingularityError("unit correlation"), 5, "error: unit correlation\n"),
        (ConfigError("bad key"), 1, "error: bad key\n"),
        (ValueError("too large"), 1, "error: too large\n"),
    ])
    def test_library_error_exit_code(self, tmp_path, monkeypatch, capsys, error, code, line):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "sbm_adjacency", fail)
        assert run(["model", "--p", "8", "--p-intra", "0.5", "--p-inter", "0.1",
                    "--rho", "0.1", "--output", str(tmp_path / "m")]) == code
        assert capsys.readouterr() == ("", line)

    def test_other_errors_propagate(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("a bug")

        monkeypatch.setattr(cli, "sbm_adjacency", fail)
        with pytest.raises(RuntimeError, match="a bug"):
            run(["model", "--p", "8", "--p-intra", "0.5", "--p-inter", "0.1",
                 "--rho", "0.1", "--output", str(tmp_path / "m")])


@pytest.mark.parametrize("argv", [
    ["test", "--stat", "fisher", "--method", "sidak"],
    ["test", "--stat", "fisher", "--method", "bonferroni", "--step-down"],
    ["test", "--stat", "fisher", "--method", "bootrw"],
    ["test", "--stat", "fisher", "--method", "maxt"],
    ["model", "--p", "8", "--p-intra", "0.5", "--p-inter", "0.1", "--rho", "0.1"],
    ["quantile"],
])
def test_negative_seed_exits_one(tmp_path, data_csv, capsys, argv):
    path, _ = data_csv
    np.savetxt(tmp_path / "sigma.csv", np.eye(3), delimiter=",")
    where = {"test": ["--input", path, "--output", str(tmp_path / "o.csv")],
             "model": ["--output", str(tmp_path / "m")],
             "quantile": ["--sigma", str(tmp_path / "sigma.csv")]}[argv[0]]
    assert run([*argv, *where, "--seed", "-1"]) == 1
    assert capsys.readouterr() == ("", "error: --seed must be >= 0\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "sigma.csv"]
