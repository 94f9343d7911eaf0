"""Benchmark workloads: inputs made from a seed, and the settings each runs.

Each workload stresses a different stage of the pipeline; BENCHMARK.json
says why each exists and bench/README.md names the layers each should move.
Inputs are written as files before any timing starts, and the program only
ever sees those files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import sbm


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def run_seed(seed: int, index: int = 0) -> int:
    """``RunConfig.seed`` number ``index`` for a workload seed, independent of
    the input draws."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(99, index)).generate_state(1)[0])


def make_ablate300(seed: int, out: Path) -> dict[str, Path]:
    # the acceptance fixture itself, drawn by the program's own generator so
    # the RNG stream behind SyntheticSpec(seed=42) is the one tests pin
    from comdet import SyntheticSpec, generate_synthetic, write_bundle
    return write_bundle(generate_synthetic(SyntheticSpec(seed=seed)), out)


CORA_SIZES = (818, 426, 418, 351, 298, 217, 180)  # Cora's class sizes, n = 2708


def make_cora2708(seed: int, out: Path) -> dict[str, Path]:
    rng = _rng(seed, 0)
    sizes = np.asarray(CORA_SIZES)
    n, k, t = int(sizes.sum()), sizes.size, 1433
    # tree edges add degree 2, random ones 1.2 inside and 0.8 across blocks:
    # mean degree about 4 with about 80% of edges inside a block, as in Cora
    edges = sbm.block_edges(sizes, p_in=1.2 / (sizes - 1), p_out=0.8 / (n - n / k), rng=rng)
    labels = sbm.noisy_labels(np.arange(k), sizes, 0.10, rng)
    # bag-of-words columns: each block owns t/k signature columns that are
    # 5% dense in its rows; other cells are 0.68% dense, 1.3% overall
    block = np.repeat(np.arange(k), sizes)
    owner = np.arange(t) * k // t
    p = np.where(block[:, None] == owner[None, :], 0.05, 0.0068)
    attrs = rng.random((n, t)) < p
    return sbm.write_files(out, edges, labels, attrs)


def make_sbm10k(seed: int, out: Path) -> dict[str, Path]:
    rng = _rng(seed, 0)
    k, size, t = 80, 125, 32
    n = k * size
    sizes = np.full(k, size)
    # blocks 2i and 2i+1 share label i and have no edges between them, so
    # every label is disconnected even before the 5% label noise
    paired = frozenset((a, a + 1) for a in range(0, k, 2))
    # degree: tree 2 + random 6 inside + random 2 across = about 10
    edges = sbm.block_edges(sizes, p_in=6.0 / (size - 1), p_out=2.0 / (n - 2 * size),
                            rng=rng, no_edges=paired)
    labels = sbm.noisy_labels(np.arange(k) // 2, sizes, 0.05, rng)
    # each block has a random 32-bit signature; each node flips a quarter of it
    signature = rng.random((k, t)) < 0.5
    attrs = signature[np.repeat(np.arange(k), size)] ^ (rng.random((n, t)) < 0.25)
    return sbm.write_files(out, edges, labels, attrs)


@dataclass(frozen=True)
class Workload:
    """Inputs and settings of one workload; ``modes`` run in one iteration.

    End-to-end runs cycle their iterations over ``run_seeds`` values of
    ``RunConfig.seed`` (iteration ``i`` uses ``run_seed(seed, i % run_seeds)``),
    so one run samples several GCN initialisations of the same input. Traced
    runs keep index 0, so their per-layer counts repeat exactly.
    """

    make: Callable[[int, Path], dict[str, Path]]
    modes: tuple[str, ...]
    leiden_global_runs: int
    refine_runs: int
    epochs: int
    leiden_max_passes: int = 20  # LeidenConfig's default
    run_seeds: int = 1
    setup_loads: int = 1  # load_dataset calls per iteration; setup_s is their median


WORKLOADS = {
    # the acceptance-07 sweep: three modes over the n=300 fixture, with the
    # default 30/10/300 run counts cut to fit several iterations in one run
    "ablate300": Workload(make_ablate300, ("full", "lm-only", "lr-only"),
                          leiden_global_runs=8, refine_runs=3, epochs=80, setup_loads=10),
    "cora2708": Workload(make_cora2708, ("full",),
                         leiden_global_runs=1, refine_runs=1, epochs=16,
                         leiden_max_passes=4),
    # the CF tree's cost on this graph depends on the GCN initialisation
    # (0.4 s when it keeps one leaf, up to 1.7 s with 70 leaves), so
    # iterations cycle over three RunConfig seeds rather than pin one
    "sbm10k": Workload(make_sbm10k, ("full",),
                       leiden_global_runs=1, refine_runs=1, epochs=3, run_seeds=3,
                       setup_loads=2),
}
