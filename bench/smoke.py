"""Self-test of the benchmark: ``python3 bench/run.py --smoke``.

Runs every workload once, untraced and traced, in fresh interpreters and
asserts that each declared metric prints with its unit and that the outputs
pass their checks.  Then feeds deliberately corrupted outputs to the checkers
and asserts they are counted as failures, and checks that tracing installs
and removes its wrappers everywhere.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace

import checks
import inputs
import spans
import workloads


def _run(runner: str, root: str, name: str, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, runner, "--workload", name, "--seed", "7", "--seconds", "1",
            "--trace", str(trace)]
    out = subprocess.run(argv, cwd=root, check=True, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def _expect(condition: bool, message: str, problems: list) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        problems.append(message)


def _corruption_checks(root: str, problems: list) -> None:
    workdir = inputs.workdir(root)
    try:
        wl = workloads.CliTest(9, 30, 300, 0.3, 0.05,
                               ["--stat", "fisher", "--method", "sidak", "--step-down"],
                               "fisher-sidak", graph=True)
        wl.build(7, workdir)
        code, out = wl.run()
        _expect(wl.check(code, out) == [], "small sidak output passes its checks", problems)
        with open(wl.edges_path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        edges = checks.read_edges(wl.edges_path)
        top = int(abs(edges["statistic"]).argmax()) + 1  # header is line 0
        cells = lines[top].split(",")
        cells[-1] = "0" if cells[-1] == "1" else "1"
        lines[top] = ",".join(cells)
        with open(wl.edges_path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        _expect(wl.check(code, out) != [], "flipped rejected flag is counted as failed", problems)

        sim = workloads.make("sim-fwer-maxt")
        sim.replicates = 4
        sim.build(7, workdir)
        _code, rows = sim.run()
        _expect(sim.check(0, rows) == [], "small sim rows pass their checks", problems)
        _expect(sim.pool_pass()[1] == [], "threads=2 rows equal threads=1 rows", problems)
        bad = [replace(rows[0], fwer=1.0, fwer_se=0.0)] + rows[1:]
        _expect(sim.check(0, bad) != [], "corrupted FWER row is counted as failed", problems)
    finally:
        inputs.remove_workdir(workdir)


def _tracing_checks(problems: list) -> None:
    import corrgraph.cli
    import corrgraph.simulation

    funcs = spans.originals()
    undo = spans.install(spans.SpanStore(), funcs)
    try:
        wrapped = all(hasattr(m.statistic, "__bench_span__") for m in (corrgraph.cli, corrgraph.simulation))
        _expect(wrapped, "statistic is wrapped in both cli and simulation", problems)
        try:
            spans.assert_untraced(funcs)
            detected = False
        except RuntimeError:
            detected = True
        _expect(detected, "untraced assertion notices installed wrappers", problems)
    finally:
        spans.uninstall(undo)
    try:
        spans.assert_untraced(funcs)
        restored = True
    except RuntimeError:
        restored = False
    _expect(restored, "uninstall restores every original function", problems)


def main(runner: str, root: str) -> int:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems: list[str] = []
    for name in workloads.NAMES:
        for trace in (0, 1):
            record, result = _run(runner, root, name, trace)
            label = f"{name} trace={trace}"
            _expect(result["correct"] and result["failed"] == 0, f"{label}: outputs correct", problems)
            metrics = result["metrics"]
            for entry in expected[trace]:
                got = metrics.get(entry["name"])
                _expect(got is not None and got["unit"] == entry["unit"]
                        and isinstance(got["value"], (int, float)),
                        f"{label}: {entry['name']} printed in {entry['unit']}", problems)
            _expect(set(metrics) == {e["name"] for e in expected[trace]},
                    f"{label}: no undeclared metrics", problems)
            _expect(record["failed_frac"]["unit"] == "ratio" and record["failed_frac"]["value"] == 0,
                    f"{label}: failed_frac printed in ratio and 0", problems)
    sys.path.insert(0, os.path.join(root, "src"))
    _corruption_checks(root, problems)
    _tracing_checks(problems)
    print(f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0
