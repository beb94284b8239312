"""Output checks built on invariants the benchmark computes itself.

Each check returns a list of failure messages; an empty list means the
output passed.  Nothing here compares against a stored digest of earlier
output, so a change that keeps results correct but reorders randomness
still passes.
"""

from __future__ import annotations

import csv
import math
import re
from statistics import NormalDist

import numpy as np

# The edge CSV keeps 10 significant digits, so two printed values that are
# ordered one way may read as equal; comparisons of printed values allow
# this relative slack.
PRINT_RTOL = 1e-9

# Max-T thresholds are Monte Carlo quantiles from B draws.  At B = 1000,
# alpha = 0.05 and a few hundred pairs, the quantile's standard error is
# about 0.035 in statistic units, and the fourth-moment plug-in diagonal
# can exceed 1, which raises the quantile by a few hundredths.  0.25 is
# fixed here, before any run, as the slack above the Sidak threshold.
MAXT_SIDAK_TOL = 0.25

_N = NormalDist()
_DOT_EDGE = re.compile(r"^\s*v(\d+) -- v(\d+);$")
_DOT_NODE = re.compile(r'^\s*v(\d+) \[label="[^"]*"\];$')


def sidak_threshold(alpha: float, size: int) -> float:
    """|T| threshold of the Sidak rule on ``size`` tests, tail computed without cancellation."""
    tail = -math.expm1(math.log1p(-alpha) / size) / 2.0
    return -_N.inv_cdf(tail)


def holm_sidak(abs_t: np.ndarray, alpha: float) -> set[int]:
    """Flat indexes rejected by the sequential Holm-Sidak step-down."""
    order = np.argsort(-abs_t, kind="stable")
    m = abs_t.size
    k = 0
    while k < m and abs_t[order[k]] > sidak_threshold(alpha, m - k):
        k += 1
    return set(order[:k].tolist())


def read_edges(path: str) -> dict[str, np.ndarray]:
    """Columns of an edge-record CSV as arrays."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = list(reader)
    cols = {name: [row[k] for row in rows] for k, name in enumerate(header)}
    return {
        "i": np.array(cols["i"], dtype=int),
        "j": np.array(cols["j"], dtype=int),
        "statistic": np.array(cols["statistic"], dtype=float),
        "threshold": np.array(cols["threshold"], dtype=float),
        "rejected": np.array(cols["rejected"], dtype=int),
    }


def check_edge_table(edges: dict, p: int, reported_rejections: int | None) -> list[str]:
    """Invariants every step-down edge table satisfies, whatever the method."""
    errors = []
    iu, ju = np.triu_indices(p, k=1)
    if edges["i"].size != iu.size:
        return [f"edge table has {edges['i'].size} rows, expected m={iu.size}"]
    if not (np.array_equal(edges["i"], iu + 1) and np.array_equal(edges["j"], ju + 1)):
        errors.append("pair columns are not in lexicographic (i, j) order")
    rej = edges["rejected"]
    if not np.all((rej == 0) | (rej == 1)):
        errors.append("rejected column holds values other than 0/1")
    abs_t = np.abs(edges["statistic"])
    thr = edges["threshold"]
    slack = PRINT_RTOL * np.maximum(abs_t, thr)
    bad = np.flatnonzero(((rej == 1) & (abs_t < thr - slack)) | ((rej == 0) & (abs_t > thr + slack)))
    if bad.size:
        errors.append(f"{bad.size} rows where rejected disagrees with |T| > threshold (first flat {bad[0]})")
    # Step-down: ordered by |T|, the threshold in force never rises.
    order = np.argsort(-abs_t, kind="stable")
    t_sorted = thr[order]
    rises = np.flatnonzero(t_sorted[1:] > t_sorted[:-1] * (1.0 + PRINT_RTOL))
    if rises.size:
        errors.append(f"thresholds increase between step-down iterations ({rises.size} places)")
    if reported_rejections is not None and reported_rejections != int(rej.sum()):
        errors.append(f"stdout reports {reported_rejections} rejections, table has {int(rej.sum())}")
    return errors


def check_fisher_sidak(edges: dict, data: np.ndarray, alpha: float) -> list[str]:
    """Fisher statistics and the Holm-Sidak rejected set against numpy references."""
    errors = []
    n, p = data.shape
    iu, ju = np.triu_indices(p, k=1)
    r = np.corrcoef(data, rowvar=False)[iu, ju]
    t_ref = math.sqrt(n - 3) * np.arctanh(r)
    # atol covers round-off in r (~1e-16) scaled by sqrt(n) for |T| near 0.
    off = ~np.isclose(edges["statistic"], t_ref, rtol=1e-9, atol=1e-12)
    if off.any():
        errors.append(f"{int(off.sum())} Fisher statistics differ from the numpy reference")
    expected = holm_sidak(np.abs(t_ref), alpha)
    got = set(np.flatnonzero(edges["rejected"] == 1).tolist())
    if got != expected:
        errors.append(
            f"rejected set differs from Holm-Sidak: {len(got - expected)} extra, {len(expected - got)} missing"
        )
    return errors


def check_dot(path: str, edges: dict, p: int) -> list[str]:
    """The DOT graph declares p nodes and exactly the rejected pairs as edges."""
    nodes, dot_edges = 0, set()
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != "graph corrgraph {" or lines[-1] != "}":
        return ["DOT output is not a 'graph corrgraph { ... }' block"]
    for line in lines[1:-1]:
        if _DOT_NODE.match(line):
            nodes += 1
        elif (match := _DOT_EDGE.match(line)):
            dot_edges.add((int(match.group(1)), int(match.group(2))))
        else:
            return [f"unexpected DOT line {line!r}"]
    errors = []
    if nodes != p:
        errors.append(f"DOT declares {nodes} nodes, expected {p}")
    rej = edges["rejected"] == 1
    expected = set(zip(edges["i"][rej].tolist(), edges["j"][rej].tolist()))
    if dot_edges != expected:
        errors.append(f"DOT edges differ from rejected pairs ({len(dot_edges ^ expected)} differ)")
    return errors


def check_maxt_vs_sidak(edges: dict, alpha: float) -> list[str]:
    """Each step-down max-T threshold is at most Sidak's for its subset size, plus MC slack.

    Iterations are recovered from the table: the k-th largest distinct
    threshold belongs to the k-th iteration, whose survivor set is every
    pair whose threshold is no larger.
    """
    thr = edges["threshold"]
    errors = []
    for value in np.unique(thr):
        size = int(np.count_nonzero(thr <= value))
        bound = sidak_threshold(alpha, size) + MAXT_SIDAK_TOL
        if value > bound:
            errors.append(f"max-T threshold {value:.6g} over {size} pairs exceeds Sidak + slack {bound:.6g}")
    return errors


def _row_key(row) -> tuple:
    return tuple("nan" if isinstance(v, float) and math.isnan(v) else v for v in vars(row).values())


def check_rows_equal(rows, reference, label: str) -> list[str]:
    """Metric rows equal field by field, NaN matching NaN."""
    if [_row_key(r) for r in rows] != [_row_key(r) for r in reference]:
        return [f"metric rows differ from {label}"]
    return []


def check_fwer(rows, alpha: float) -> list[str]:
    """Every cell's FWER estimate is within three standard errors above alpha."""
    errors = []
    for row in rows:
        se = 0.0 if math.isnan(row.fwer_se) else row.fwer_se
        if not row.fwer <= alpha + 3.0 * se:
            errors.append(
                f"FWER {row.fwer:.4g} > alpha + 3 se ({alpha} + 3*{se:.3g}) "
                f"for {row.stat.value}/{row.method.value} p_inter={row.p_inter}"
            )
    return errors
