"""Undirected graph container, node partitions, and component utilities."""

from __future__ import annotations

import numbers

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph


def _check_integer(name: str, value, low: int) -> None:
    """Reject a bool, a non-integer (a whole float too) or a value below ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


class Graph:
    """Immutable simple undirected graph over nodes ``0..n-1``.

    Self-loops and duplicate edges in the input are dropped; the counts are
    kept in ``dropped_self_loops`` and ``dropped_duplicates`` so loaders can
    report them. Adjacency is stored CSR-style (``indptr``/``indices``) with
    neighbor lists sorted ascending, plus canonical edge arrays
    ``edge_u < edge_v`` for vectorized edge scans.
    """

    def __init__(self, n: int, edges=()) -> None:
        if n < 0:
            raise ValueError(f"node count must be >= 0, got {n}")
        self.n = int(n)

        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                         dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be pairs of node indices")
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            bad = arr[(arr < 0).any(axis=1) | (arr >= n).any(axis=1)]
            raise ValueError(f"edge endpoints out of range [0, {n}): {bad[:5].tolist()}")

        loops = arr[:, 0] == arr[:, 1]
        self.dropped_self_loops = int(loops.sum())
        arr = arr[~loops]

        # sorted distinct codes lo * n + hi are the canonical (u, v) order
        codes = np.unique(np.minimum(arr[:, 0], arr[:, 1]) * np.int64(n)
                          + np.maximum(arr[:, 0], arr[:, 1]))
        self.dropped_duplicates = int(arr.shape[0] - codes.size)
        lo, hi = np.divmod(codes, n)

        self.edge_u = lo
        self.edge_v = hi
        self.m = int(lo.size)

        heads = np.concatenate([lo, hi])
        tails = np.concatenate([hi, lo])
        perm = np.lexsort((tails, heads))
        self.indices = tails[perm]
        counts = np.bincount(heads, minlength=n)
        self.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self.degrees = counts.astype(np.int64)
        assert int(self.degrees.sum()) == 2 * self.m

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class Partition:
    """Dense community assignment over nodes ``0..n-1``.

    Community ids must occupy ``0..k-1`` with no gaps. Instances are value
    objects: equality compares assignment arrays, ``equivalent_to`` compares
    co-membership structure regardless of labeling.
    """

    def __init__(self, assignment) -> None:
        a = np.asarray(assignment, dtype=np.int64).copy()
        if a.ndim != 1:
            raise ValueError("assignment must be a 1-d sequence")
        if a.size:
            if a.min() < 0:
                raise ValueError("community ids must be non-negative")
            k = int(a.max()) + 1
            occupied = np.bincount(a, minlength=k)
            if (occupied == 0).any():
                missing = np.flatnonzero(occupied == 0)
                raise ValueError(f"community ids not dense, missing {missing[:5].tolist()}")
        else:
            k = 0
        a.flags.writeable = False
        self.assignment = a
        self.k = k

    @property
    def n(self) -> int:
        return int(self.assignment.size)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.k)

    def equivalent_to(self, other: "Partition") -> bool:
        """True when both partitions induce the same co-membership relation."""
        if self.n != other.n or self.k != other.k:
            return False
        return np.array_equal(canonical_labels(self.assignment),
                              canonical_labels(other.assignment))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return np.array_equal(self.assignment, other.assignment)

    def __hash__(self) -> int:
        return hash(self.assignment.tobytes())

    def __repr__(self) -> str:
        return f"Partition(n={self.n}, k={self.k})"


def canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel an integer label array to dense 0..k-1 in first-occurrence order."""
    labels = np.asarray(labels, dtype=np.int64)
    uniq, inverse = np.unique(labels, return_inverse=True)
    # np.unique sorts; remap so ids follow first occurrence instead
    first = np.full(uniq.size, labels.size, dtype=np.int64)
    np.minimum.at(first, inverse, np.arange(labels.size, dtype=np.int64))
    rank = np.empty(uniq.size, dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(uniq.size)
    return rank[inverse]


def induced_subgraph(g: Graph, nodes) -> Graph:
    """Subgraph on ``nodes``; node ``i`` of the result is ``nodes[i]``."""
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.size and (nodes.min() < 0 or nodes.max() >= g.n):
        raise ValueError("subset node out of range")
    if np.unique(nodes).size != nodes.size:
        raise ValueError("subset nodes must be distinct")
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[nodes] = np.arange(nodes.size)
    u, v = pos[g.edge_u], pos[g.edge_v]
    keep = (u >= 0) & (v >= 0)
    return Graph(int(nodes.size), np.stack([u[keep], v[keep]], axis=1))


def merge_partitions(outer: Partition, inners) -> Partition:
    """Compose an outer partition with one inner partition per outer community.

    ``inners[c]`` must partition the members of outer community ``c`` taken in
    ascending node order; the result places two nodes together exactly when
    they share both the outer community and the inner community.
    """
    inners = list(inners)
    if len(inners) != outer.k:
        raise ValueError(f"expected {outer.k} inner partitions, got {len(inners)}")
    out = np.full(outer.n, -1, dtype=np.int64)
    offset = 0
    for c in range(outer.k):
        members = np.flatnonzero(outer.assignment == c)
        inner = inners[c]
        if inner.n != members.size:
            raise ValueError(
                f"inner partition {c} covers {inner.n} nodes, community has {members.size}")
        out[members] = offset + inner.assignment
        offset += inner.k
    return Partition(out)


def _community_components(g: Graph, cs: Partition) -> tuple[np.ndarray, np.ndarray]:
    """Connected components of every community of ``cs``, in one csgraph pass.

    Returns each node's component id and each component's community. Ids are
    ranked by (community, lowest member).
    """
    if cs.n != g.n:
        raise ValueError("partition size does not match graph")
    a = cs.assignment
    same = a[g.edge_u] == a[g.edge_v]
    adj = sp.coo_matrix((np.ones(int(same.sum())), (g.edge_u[same], g.edge_v[same])),
                        shape=(g.n, g.n))
    _, raw = csgraph.connected_components(adj, directed=False)
    # a label's first index is its lowest member; keys sort by (community, lowest member)
    lowest = np.unique(raw, return_index=True)[1]
    keys, comp = np.unique(a * g.n + lowest[raw], return_inverse=True)
    return comp, keys // g.n


def split_into_components(g: Graph, cs: Partition) -> Partition:
    """Split every community of ``cs`` into its connected components.

    Component ids are ranked by (community, lowest member).
    """
    return Partition(_community_components(g, cs)[0])


def component_counts(g: Graph, cs: Partition) -> np.ndarray:
    """Number of connected components inside each community of ``cs``."""
    return np.bincount(_community_components(g, cs)[1], minlength=cs.k)
