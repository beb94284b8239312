"""Seeded workload inputs, built in plain numpy.

The CLI workloads draw their data here rather than through
``corrgraph.simulation``, so a change to the program's sampler cannot change
the inputs the benchmark feeds to ``corrgraph test``.
"""

from __future__ import annotations

import os
import shutil

import numpy as np


def sbm_adjacency(rng: np.random.Generator, p: int, p_intra: float, p_inter: float) -> np.ndarray:
    """Two-community SBM adjacency (communities of size p/2), symmetric 0/1."""
    i, j = np.triu_indices(p, k=1)
    same = (i < p // 2) == (j < p // 2)
    edges = rng.random(i.size) < np.where(same, p_intra, p_inter)
    a = np.zeros((p, p))
    a[i[edges], j[edges]] = 1.0
    a[j[edges], i[edges]] = 1.0
    return a


def sbm_gaussian_sample(seed: int, tag: int, p: int, n: int, p_intra: float, p_inter: float):
    """n x p Gaussian sample with correlation I + rho A, rho = min(0.3, 0.8/|lambda_min(A)|).

    Returns (data, adjacency, rho).  ``tag`` separates the streams of
    workloads that share a seed.
    """
    rng = np.random.default_rng([seed, tag])
    a = sbm_adjacency(rng, p, p_intra, p_inter)
    lam_min = abs(float(np.linalg.eigvalsh(a)[0]))
    rho = 0.3 if lam_min == 0.0 else min(0.3, 0.8 / lam_min)
    factor = np.linalg.cholesky(np.eye(p) + rho * a)
    data = rng.standard_normal((n, p)) @ factor.T
    return data, a, rho


def write_samples_csv(path: str, data: np.ndarray) -> list[str]:
    """Write ``data`` with a header row x1..xp; cells in %.17g round-trip exactly."""
    names = [f"x{k + 1}" for k in range(data.shape[1])]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(names) + "\n")
        np.savetxt(handle, data, fmt="%.17g", delimiter=",")
    return names


def workdir(root: str) -> str:
    """Fresh per-process scratch directory under the checkout's ignored ``.bench_work``."""
    base = os.path.join(root, ".bench_work")
    os.makedirs(base, exist_ok=True)
    path = os.path.join(base, f"run-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def remove_workdir(path: str) -> None:
    """Delete a directory made by :func:`workdir`, and ``.bench_work`` once empty."""
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(path))
    except OSError:
        pass  # another run's directory is still there
