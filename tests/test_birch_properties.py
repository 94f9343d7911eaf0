"""The CF tree against a reference tree that keeps lists of points.

The reference stores each subcluster as the list of its rows and each node's
children as a list. It recomputes every centroid and radius from the points
it holds, so nothing in it is maintained incrementally: no clustering
feature is added to, split or carried up the tree. It takes the same
decisions as ``birch_cluster``: the nearest child by squared distance to its
centroid (first one on a tie), absorption while the radius stays within the
threshold, a split of a node that holds more than the branching factor
around its two most distant children (the first such pair), each child
going to the nearer of the two (to the first on a tie), and the leaf
subclusters read off depth first.

Rows are drawn from a grid of dyadic values (multiples of 1/4, 1/8 or 1/1024),
often repeated, so every sum of rows is exact in any order and equal
distances are exact ties: the two trees see the same centroids bit for bit,
and a changed tie-break shows. Thresholds are not grid values, so no radius
sits on one.

Skipped when hypothesis is not installed; runs under the ``tier1`` profile
of conftest.py.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from comdet.birch import BirchConfig, birch_cluster


class _RefNode:
    def __init__(self, leaf: bool, children: list) -> None:
        self.leaf = leaf
        self.children = children  # lists of rows in a leaf, nodes otherwise


def _rows(child) -> list[int]:
    return child if isinstance(child, list) else [r for c in child.children for r in _rows(c)]


class _ReferenceTree:
    def __init__(self, x: np.ndarray, cfg: BirchConfig) -> None:
        self.x, self.cfg = x, cfg
        self.root = _RefNode(True, [])
        for row in range(len(x)):
            halves = self._insert(self.root, row)
            if halves is not None:
                self.root = _RefNode(False, halves)

    def _centroid(self, child) -> np.ndarray:
        rows = _rows(child)
        return self.x[rows].sum(axis=0) / len(rows)

    def _radius(self, rows: list[int]) -> float:
        points = self.x[rows]
        dev = points - points.mean(axis=0)
        return math.sqrt(float((dev * dev).sum()) / len(rows))

    def _nearest(self, children: list, point: np.ndarray) -> int:
        dist = []
        for child in children:
            diff = self._centroid(child) - point
            dist.append(float(diff @ diff))
        return dist.index(min(dist))

    def _insert(self, node: _RefNode, row: int) -> list | None:
        point = self.x[row]
        if node.leaf:
            if node.children:
                sub = node.children[self._nearest(node.children, point)]
                if self._radius(sub + [row]) <= self.cfg.threshold_radius:
                    sub.append(row)
                    return None
            node.children.append([row])
        else:
            i = self._nearest(node.children, point)
            halves = self._insert(node.children[i], row)
            if halves is None:
                return None
            node.children[i:i + 1] = halves
        if len(node.children) > self.cfg.branching_factor:
            return self._split(node)
        return None

    def _split(self, node: _RefNode) -> list[_RefNode]:
        cents = [self._centroid(c) for c in node.children]
        far, a, b = -1.0, 0, 0
        for i in range(len(cents)):
            for j in range(i + 1, len(cents)):
                diff = cents[i] - cents[j]
                dist = float((diff * diff).sum())
                if dist > far:
                    far, a, b = dist, i, j
        to_a = []
        for k, cent in enumerate(cents):
            da, db = cent - cents[a], cent - cents[b]
            to_a.append(k == a or (k != b and float(da @ da) <= float(db @ db)))
        return [_RefNode(node.leaf, [c for c, t in zip(node.children, to_a) if t]),
                _RefNode(node.leaf, [c for c, t in zip(node.children, to_a) if not t])]

    def assignment(self) -> list[int]:
        out = [0] * len(self.x)

        def leaves(node):
            if node.leaf:
                yield from node.children
            else:
                for child in node.children:
                    yield from leaves(child)

        for cid, rows in enumerate(leaves(self.root)):
            for r in rows:
                out[r] = cid
        return out


@st.composite
def _rows_and_config(draw):
    """Rows from a pool of random grid points, drawn with repeats, and a
    threshold and branching factor that make many subclusters and splits."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.sampled_from([1, 1, 2, 3]))
    scale, top = draw(st.sampled_from([(4.0, 6), (8.0, 8), (1024.0, 1024)]))
    pool = rng.integers(-top, top + 1, size=(draw(st.integers(2, 24)), d)) / scale
    x = pool[rng.integers(0, len(pool), size=draw(st.integers(1, 150)))]
    cfg = BirchConfig(threshold_radius=draw(st.sampled_from(
                          [0.02 * math.pi, 0.05 * math.pi, 0.1 * math.pi, 0.25 * math.e])),
                      branching_factor=draw(st.integers(2, 4)))
    return x, cfg


@settings(settings.get_profile("tier1"), max_examples=200)
@given(_rows_and_config())
def test_cf_tree_matches_the_reference_tree(case):
    x, cfg = case
    assert birch_cluster(x, cfg).assignment.tolist() == _ReferenceTree(x, cfg).assignment()
