"""Single-pass CF-tree clustering of embedding rows.

Builds the classic insertion-phase tree: points descend to the leaf whose
centroid is nearest, are absorbed into an existing subcluster when the merged
radius stays under the threshold, and otherwise open a new subcluster. Nodes
that outgrow the branching factor split around their farthest pair of
centroids. The leaf subclusters, read off in depth-first order, are the final
communities — no global reclustering pass, so the number of communities falls
out of the data rather than being chosen up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Partition, _check_integer

__all__ = ["BirchConfig", "birch_cluster"]


@dataclass(frozen=True)
class BirchConfig:
    threshold_radius: float = 0.5
    branching_factor: int = 50

    def __post_init__(self) -> None:
        if isinstance(self.threshold_radius, bool):
            raise ValueError(f"threshold_radius must be a number, got {self.threshold_radius}")
        if not self.threshold_radius > 0:
            raise ValueError(f"threshold_radius must be > 0, got {self.threshold_radius}")
        _check_integer("branching_factor", self.branching_factor, 2)


class _Node:
    """A tree node; row i of ``n``, ``ls``, ``ss`` and ``cent`` is child i's CF.

    A leaf's children are subclusters (lists of input rows); an internal
    node's children are nodes.
    """

    def __init__(self, leaf: bool, n: np.ndarray, ls: np.ndarray, ss: np.ndarray,
                 children: list) -> None:
        self.leaf = leaf
        self.n, self.ls, self.ss = n, ls, ss
        self.cent = ls / n[:, None]
        self.children = children

    def absorb(self, i: int, point: np.ndarray, pp: float) -> None:
        self.n[i] += 1
        self.ls[i] += point
        self.ss[i] += pp
        self.cent[i] = self.ls[i] / self.n[i]

    def put(self, i: int, j: int, n: np.ndarray, ls: np.ndarray, ss: np.ndarray,
            children: list) -> None:
        """Replace children ``i:j`` with the given rows."""
        self.n = np.concatenate([self.n[:i], n, self.n[j:]])
        self.ls = np.concatenate([self.ls[:i], ls, self.ls[j:]])
        self.ss = np.concatenate([self.ss[:i], ss, self.ss[j:]])
        self.cent = np.concatenate([self.cent[:i], ls / n[:, None], self.cent[j:]])
        self.children[i:j] = children


def _radius(n, ls: np.ndarray, ss: float) -> float:
    """Radius of the cluster with count ``n``, linear sum ``ls`` and squared sum ``ss``."""
    c = ls / n
    var = ss / n - float(c @ c)
    return math.sqrt(max(var, 0.0))


def _sqdist(rows: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Squared distance of each row to ``point``, one dot product per row.

    Batched ``matmul`` of 1×d by d×1 keeps the bits of ``diff @ diff``; a row
    sum would add in another order and could break near-ties differently.
    """
    diff = rows - point
    return np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0]


def _split(node: _Node) -> tuple:
    """Divide an overfull node around its two most distant children.

    Returns the two halves as the rows (n, ls, ss, children) that replace
    ``node`` in its parent. Each half's CF sums its children one by one, in
    order (``np.add.accumulate``; a reduction may sum pairwise instead).
    """
    i, j = np.triu_indices(len(node.children), 1)
    diff = node.cent[i] - node.cent[j]
    far = int(np.argmax((diff * diff).sum(axis=1)))
    a, b = i[far], j[far]
    to_a = _sqdist(node.cent, node.cent[a]) <= _sqdist(node.cent, node.cent[b])
    to_a[a], to_a[b] = True, False
    halves = []
    for idx in (np.flatnonzero(to_a), np.flatnonzero(~to_a)):
        halves.append(_Node(node.leaf, node.n[idx], node.ls[idx], node.ss[idx],
                            [node.children[k] for k in idx]))
    return (np.array([h.n.sum() for h in halves]),
            np.array([np.add.accumulate(h.ls)[-1] for h in halves]),
            np.array([np.add.accumulate(h.ss)[-1] for h in halves]),
            halves)


def _insert(node: _Node, point: np.ndarray, pp: float, row: int,
            cfg: BirchConfig) -> tuple | None:
    """Insert one point; returns the two halves' rows if this node had to split."""
    k = len(node.children)
    if node.leaf:
        if k:
            i = int(np.argmin(_sqdist(node.cent, point)))
            if _radius(node.n[i] + 1, node.ls[i] + point,
                       node.ss[i] + pp) <= cfg.threshold_radius:
                node.absorb(i, point, pp)
                node.children[i].append(row)
                return None
        node.put(k, k, np.ones(1, dtype=np.int64), point[None], np.array([pp]), [[row]])
    else:
        i = int(np.argmin(_sqdist(node.cent, point)))
        spill = _insert(node.children[i], point, pp, row, cfg)
        if spill is None:
            node.absorb(i, point, pp)
            return None
        node.put(i, i + 1, *spill)
    return _split(node) if len(node.children) > cfg.branching_factor else None


def _leaf_rows(node: _Node) -> list[list[int]]:
    if node.leaf:
        return node.children
    return [rows for child in node.children for rows in _leaf_rows(child)]


def birch_cluster(x_e: np.ndarray, cfg: BirchConfig | None = None) -> Partition:
    """Cluster embedding rows; returns one community per leaf subcluster."""
    if cfg is None:
        cfg = BirchConfig()
    x = np.asarray(x_e, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"need a 2-d array with at least one row, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("embedding rows must be finite")

    root = _Node(True, np.zeros(0, dtype=np.int64), np.zeros((0, x.shape[1])),
                 np.zeros(0), [])
    for row in range(x.shape[0]):
        spill = _insert(root, x[row], float(x[row] @ x[row]), row, cfg)
        if spill is not None:
            root = _Node(False, *spill)

    assignment = np.empty(x.shape[0], dtype=np.int64)
    for cid, rows in enumerate(_leaf_rows(root)):
        assignment[rows] = cid
    return Partition(assignment)
