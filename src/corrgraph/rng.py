"""Deterministic, splittable random number streams.

All randomness in the package flows through :func:`make_rng`.  Every sampler
takes one required ``rng`` Generator; a seed becomes a Generator only where it
enters the program, at the CLI's ``--seed`` and in ``run_experiment``'s named
substreams of ``ExperimentConfig.seed``.  Streams are built on numpy's
counter-based Philox generator keyed through
``SeedSequence(master, spawn_key=stream)``, so the stream identified by a
tuple such as ``(cell_index, replicate)`` is a pure function of the master
seed and the tuple, independent of execution order and of worker threads.
Values computed from it by BLAS GEMMs (max-T and bootstrap draws) can differ
in their last bits with the BLAS thread count and with the block sizes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng"]


def make_rng(master_seed: int, *stream: int) -> np.random.Generator:
    """Return the generator for a named substream of ``master_seed``.

    ``make_rng(s)`` is the root stream; ``make_rng(s, a, b, ...)`` is the
    substream addressed by the integer path ``(a, b, ...)``.  Distinct paths
    yield statistically independent Philox streams.
    """
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(stream))
    return np.random.Generator(np.random.Philox(seq))
