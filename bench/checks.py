"""Correctness checks on one run's outputs, against scipy ``csgraph`` oracles.

The graph is read from the input files with numpy, not through comdet's
loader, and every property is recomputed here rather than with the comdet
functions being timed. Each check returns a list of failure messages.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components


class OracleGraph:
    """Edge endpoints as node indices, in the order the label file fixes."""

    def __init__(self, paths: dict[str, Path]) -> None:
        ids = np.loadtxt(paths["labels"], dtype=str, usecols=0, ndmin=1)
        index = {s: i for i, s in enumerate(ids.tolist())}
        pairs = np.loadtxt(paths["edges"], dtype=str, ndmin=2)
        u = np.array([index[s] for s in pairs[:, 0]], dtype=np.int64)
        v = np.array([index[s] for s in pairs[:, 1]], dtype=np.int64)
        keep = u != v
        u, v = np.minimum(u, v)[keep], np.maximum(u, v)[keep]
        codes = np.unique(u * len(ids) + v)
        self.n = len(ids)
        self.u, self.v = np.divmod(codes, self.n)
        self.degree = np.bincount(np.concatenate([self.u, self.v]), minlength=self.n)

    def components_inside(self, a: np.ndarray) -> int:
        """Components of the graph keeping only edges inside a community of ``a``."""
        same = a[self.u] == a[self.v]
        adj = sp.coo_matrix((np.ones(int(same.sum())), (self.u[same], self.v[same])),
                            shape=(self.n, self.n))
        return connected_components(adj, directed=False)[0]

    def modularity(self, a: np.ndarray) -> float:
        m = float(self.u.size)
        same = a[self.u] == a[self.v]
        vol = np.bincount(a, weights=self.degree, minlength=int(a.max()) + 1)
        return float(same.sum() / m - np.sum((vol / (2.0 * m)) ** 2))


def _dense_cover(name: str, a: np.ndarray, n: int) -> list[str]:
    if a.shape != (n,):
        return [f"{name}: {a.shape[0]} entries for {n} nodes"]
    if a.min() < 0 or np.any(np.bincount(a) == 0):
        return [f"{name}: community ids are not dense 0..k-1"]
    return []


def _connected(name: str, g: OracleGraph, a: np.ndarray) -> list[str]:
    k, parts = int(a.max()) + 1, g.components_inside(a)
    return [] if parts == k else [f"{name}: {k} communities in {parts} components"]


def check_run(g: OracleGraph, labels: np.ndarray, result, epochs: int) -> list[str]:
    """Failures of one ``RunResult``: cover, target, refinement and loss trace."""
    out = _dense_cover("partition", np.asarray(result.partition.assignment), g.n)
    target = np.asarray(result.modularity_target.assignment)
    out += _dense_cover("target", target, g.n) or _connected("target", g, target)
    refined = np.asarray(result.refined_labels.assignment)
    bad = _dense_cover("refined", refined, g.n)
    if not bad:
        k = int(refined.max()) + 1
        spans = np.unique(refined * (int(labels.max()) + 1) + labels).size
        if spans != k:
            bad.append(f"refined: {spans - k} communities cross a label boundary")
        bad += _connected("refined", g, refined)
        q_r, q_l = g.modularity(refined), g.modularity(labels)
        if q_r < q_l - 1e-12:
            bad.append(f"refined: Q {q_r!r} below the labels' Q {q_l!r}")
    trace = np.asarray(result.loss_trace, dtype=np.float64)
    if trace.shape != (epochs,) or not np.all(np.isfinite(trace)):
        bad.append(f"loss trace: {trace.size} values for {epochs} epochs, "
                   f"finite: {bool(np.all(np.isfinite(trace)))}")
    return out + bad


def label_codes(path: Path) -> np.ndarray:
    """Labels as dense integer codes, in label-file order."""
    raw = np.loadtxt(path, dtype=str, usecols=1, ndmin=1)
    return np.unique(raw, return_inverse=True)[1].astype(np.int64)
