"""Shared fixtures and oracle helpers.

BLAS threading is pinned to one thread before numpy loads so that repeated
runs produce bit-identical floating point results.

Relative ``PYTHONPATH`` entries (``PYTHONPATH=src`` from a source checkout)
are rewritten as absolute paths, resolved against the directory pytest
started in, before any test runs. Tests that launch ``python -m comdet`` in a
subprocess with another working directory (``cwd=tmp_path``) inherit the
environment; with the relative entry left as it is, the child would look for
``src`` under its own working directory and fail with ``No module named
comdet``. Made absolute, every subprocess imports the same ``comdet`` as the
test process. Entry order is kept and empty entries are left alone.
"""

from __future__ import annotations

import itertools
import os
import tracemalloc
from dataclasses import dataclass

for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from comdet.birch import _radius
from comdet.gcn import SELU_ALPHA, SELU_LAMBDA
from comdet.graph import Graph, Partition, canonical_labels

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # property tests run a fixed example list: no random seed, no example
    # database, no timing limit. Each test sets its own max_examples.
    settings.register_profile("tier1", derandomize=True, deadline=None, database=None)


def pytest_configure(config: pytest.Config) -> None:
    pythonpath = os.environ.get("PYTHONPATH")
    if pythonpath:
        start = config.invocation_params.dir
        os.environ["PYTHONPATH"] = os.pathsep.join(
            os.path.abspath(os.path.join(start, entry)) if entry else entry
            for entry in pythonpath.split(os.pathsep))


@pytest.fixture
def triangle() -> Graph:
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def two_triangles_bridge() -> Graph:
    """Two triangles joined by a single bridge edge (nodes 0-2 and 3-5)."""
    return Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])


@pytest.fixture
def two_cliques_bridge() -> Graph:
    """Two 4-cliques joined by one bridge edge (nodes 0-3 and 4-7)."""
    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    edges += [(a + 4, b + 4) for a, b in [(a, b) for a in range(4) for b in range(a + 1, 4)]]
    edges.append((3, 4))
    return Graph(8, edges)


def traced_peak(fn):
    """``(fn(), peak)``: the result of ``fn`` and the tracemalloc peak, in
    bytes, of what it allocated while it ran."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def assert_same_bits(a: np.ndarray, b: np.ndarray) -> None:
    """``a`` and ``b`` hold the same bytes, with equal dtype and shape.

    ``np.array_equal`` is not enough for a bit-for-bit claim: it treats
    −0.0 as equal to 0.0, and NaN as unequal to itself.
    """
    assert a.dtype == b.dtype, (a.dtype, b.dtype)
    assert a.shape == b.shape, (a.shape, b.shape)
    assert a.tobytes() == b.tobytes(), "values differ in their bits"


def reference_selu_grad(z: np.ndarray) -> np.ndarray:
    """SELU′ of the pre-activation, λ·(1 if z > 0 else α·exp(z)), over the
    whole array with a masked copy: the oracle for the encoder's kernel,
    which reads SELU′ from the activation instead."""
    positive = z > 0
    g = np.exp(z, out=np.empty_like(z))
    g *= SELU_ALPHA
    np.copyto(g, 1.0, where=positive)
    g *= SELU_LAMBDA
    return g


def random_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    """Erdos-Renyi style graph, edges drawn independently."""
    mask = rng.random((n, n)) < p
    iu = np.triu_indices(n, k=1)
    keep = mask[iu]
    edges = np.stack([iu[0][keep], iu[1][keep]], axis=1)
    return Graph(n, edges)


def random_connected_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    """Random graph made connected by threading a random spanning path first."""
    perm = rng.permutation(n)
    edges = {(min(int(a), int(b)), max(int(a), int(b)))
             for a, b in zip(perm[:-1], perm[1:])}
    mask = rng.random((n, n)) < p
    iu = np.triu_indices(n, k=1)
    keep = mask[iu]
    edges.update((int(a), int(b)) for a, b in zip(iu[0][keep], iu[1][keep]))
    return Graph(n, sorted(edges))


def partition_from_labels(labels) -> Partition:
    """Partition of arbitrary hashable labels, numbered densely in
    first-occurrence order."""
    seen: dict = {}
    return Partition([seen.setdefault(lab, len(seen)) for lab in labels])


def communities(p: Partition) -> list[np.ndarray]:
    """Member index arrays per community id, each sorted ascending."""
    return [np.flatnonzero(p.assignment == c) for c in range(p.k)]


def random_partition(rng: np.random.Generator, n: int, k: int) -> Partition:
    """Uniform random assignment with every community guaranteed occupied."""
    a = rng.integers(0, k, size=n)
    a[rng.permutation(n)[:k]] = np.arange(k)
    return partition_from_labels(a.tolist())


def block_model(rng: np.random.Generator, blocks: Partition, p_in: float,
                p_out: float) -> Graph:
    """Planted-partition graph: node pairs in one block are joined with
    probability ``p_in``, pairs across blocks with ``p_out``."""
    iu = np.triu_indices(blocks.n, k=1)
    a = blocks.assignment
    p = np.where(a[iu[0]] == a[iu[1]], p_in, p_out)
    keep = rng.random(p.size) < p
    return Graph(blocks.n, np.stack([iu[0][keep], iu[1][keep]], axis=1))


def modularity_double_sum(g: Graph, cs: Partition) -> float:
    """O(n^2) oracle: the textbook double sum over all ordered node pairs."""
    if g.m == 0:
        return 0.0
    a = np.zeros((g.n, g.n))
    a[g.edge_u, g.edge_v] = 1.0
    a[g.edge_v, g.edge_u] = 1.0
    k = g.degrees.astype(np.float64)
    two_m = 2.0 * g.m
    same = cs.assignment[:, None] == cs.assignment[None, :]
    return float(np.sum((a - np.outer(k, k) / two_m) * same) / two_m)


def all_partitions(n: int):
    """Every set partition of range(n) as an assignment list (Bell-number many)."""
    if n == 0:
        yield []
        return
    for smaller in all_partitions(n - 1):
        k = max(smaller) + 1 if smaller else 0
        for c in range(k + 1):
            yield smaller + [c]


def pair_set(p: Partition) -> set[tuple[int, int]]:
    """Unordered co-assigned node pairs, the pairwise-metric oracle."""
    out = set()
    for members in communities(p):
        out.update(itertools.combinations(sorted(int(x) for x in members), 2))
    return out


def merge_step(g: Graph, current: Partition, candidates=None) -> Partition:
    """Merge the one pair of communities whose merged partition scores highest.

    Considers every candidate pair (including pairs without connecting edges;
    their gain is negative but still comparable), holding all other
    communities fixed. Ties go to the lexicographically smallest (i, j).
    """
    if candidates is None:
        cand = list(range(current.k))
    else:
        cand = sorted(set(int(c) for c in candidates))
        if any(c < 0 or c >= current.k for c in cand):
            raise ValueError("candidate community id out of range")
    if len(cand) < 2:
        raise ValueError("need at least two communities to merge")
    if current.n != g.n:
        raise ValueError("partition size does not match graph")

    a = current.assignment
    deg = np.bincount(a, weights=g.degrees, minlength=current.k).astype(np.int64)
    pair_e: dict[tuple[int, int], int] = {}
    for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist()):
        cu, cv = int(a[u]), int(a[v])
        if cu != cv:
            key = (cu, cv) if cu < cv else (cv, cu)
            pair_e[key] = pair_e.get(key, 0) + 1

    m = g.m
    best_gain = None
    best_pair = None
    for x in range(len(cand)):
        for y in range(x + 1, len(cand)):
            i, j = cand[x], cand[y]
            gain = 2 * m * pair_e.get((i, j), 0) - int(deg[i]) * int(deg[j])
            if best_gain is None or gain > best_gain:
                best_gain, best_pair = gain, (i, j)
    i, j = best_pair
    merged = a.copy()
    merged[merged == j] = i
    return Partition(canonical_labels(merged))


@dataclass
class ClusteringFeature:
    """Sufficient statistics of a cluster: count, linear sum, squared sum."""

    n: int
    ls: np.ndarray
    ss: float

    @classmethod
    def from_point(cls, x: np.ndarray) -> "ClusteringFeature":
        return cls(1, np.array(x, dtype=np.float64), float(x @ x))

    def __add__(self, other: "ClusteringFeature") -> "ClusteringFeature":
        return ClusteringFeature(self.n + other.n, self.ls + other.ls,
                                 self.ss + other.ss)

    @property
    def centroid(self) -> np.ndarray:
        return self.ls / self.n

    @property
    def radius(self) -> float:
        return _radius(self.n, self.ls, self.ss)
