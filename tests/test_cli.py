"""End-to-end CLI tests: subcommands, file formats, exit codes, determinism."""

import csv
import json

import numpy as np
import pytest

from corrgraph import correlation_model, sample_gaussian, sbm_adjacency
from corrgraph.cli import main


@pytest.fixture()
def data_csv(tmp_path):
    adj = sbm_adjacency(6, 0.8, 0.1, seed=3)
    model = correlation_model(adj, 0.35)
    samples = sample_gaussian(model, 150, seed=5)
    path = tmp_path / "data.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"v{k}" for k in range(1, 7)])
        for row in samples.data:
            writer.writerow([f"{x:.10f}" for x in row])
    return str(path), model


def run(argv):
    return main(argv)


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

    @pytest.mark.parametrize("method", ["bonferroni", "sidak", "bootrw", "maxt"])
    def test_all_methods_run(self, tmp_path, data_csv, method):
        path, _ = data_csv
        out = tmp_path / f"{method}.csv"
        code = run(
            ["test", "--input", path, "--stat", "student", "--method", method,
             "--draws", "100", "--seed", "1", "--output", str(out)]
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
        # p=2000 gives m ~ 2e6 pairs: the m x m covariance needs ~200 TB.
        path = tmp_path / "wide.csv"
        data = np.random.default_rng(4).normal(size=(6, 2000))
        np.savetxt(path, data, delimiter=",", comments="",
                   header=",".join(f"v{c}" for c in range(2000)))
        assert main(["test", "--input", str(path), "--stat", "fisher", "--method", "maxt",
                     "--output", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: maxt needs about") and " GB " in err
        assert not (tmp_path / "o.csv").exists()

    def test_degenerate_column_named(self, tmp_path, capsys):
        bad = tmp_path / "degen.csv"
        rows = ["height,const"] + [f"{v},5.0" for v in range(10)]
        bad.write_text("\n".join(rows) + "\n")
        code = run(["test", "--input", str(bad), "--stat", "empirical",
                    "--method", "bonferroni", "--output", str(tmp_path / "o.csv")])
        assert code == 3
        assert "const" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self):
        assert run(["test", "--nope"]) == 1

    @pytest.mark.parametrize("flags", [
        ["--method", "sidak", "--alpha", "1.5"],
        ["--method", "sidak", "--alpha", "0"],
        ["--method", "bootrw", "--draws", "10"],
        ["--method", "bootrw", "--draws", "0"],
        ["--method", "bootrw", "--draws", "-3"],
        ["--method", "maxt", "--draws", "5"],
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
            "fwer", "fwer_se", "power", "power_se", "fdp", "fdp_se",
        ]
        assert row["stat"] == "fisher" and row["stepdown"] == "1"
        assert 0.0 <= float(row["fwer"]) <= 1.0

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


    @pytest.mark.parametrize("extra", [
        {"procedures": [{"method": "bh"}]},
        {"procedures": [{"method": "bootrw"}], "bootrw_draws": 10},
        {"procedures": [{"method": "maxt"}], "maxt_draws": 50},
    ])
    def test_bad_config_values_exit_one(self, tmp_path, capsys, extra):
        cfg = self.make_config(tmp_path, **extra)
        out = tmp_path / "m.csv"
        assert run(["simulate", "--config", cfg, "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
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


class TestQuantileCommand:
    def test_identity(self, tmp_path, capsys):
        sigma = tmp_path / "sigma.csv"
        np.savetxt(sigma, np.eye(3), delimiter=",")
        assert run(["quantile", "--sigma", str(sigma), "--alpha", "0.1",
                    "--draws", "2000", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "threshold=" in out and "m=3" in out

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
