"""Partition quality metrics: modularity, NMI, conductance, pairwise F1, connectivity."""

from __future__ import annotations

import warnings

import numpy as np

from .graph import Graph, Partition, component_counts


def _contingency(c: Partition, d: Partition) -> tuple[np.ndarray, ...]:
    """Nonzero contingency cells (row-major) and the row and column sums.

    Returns ``(rows, cols, counts, row_sums, col_sums)``; ``counts[i]`` nodes
    sit in community ``rows[i]`` of ``c`` and ``cols[i]`` of ``d``. Memory is
    O(n), whatever ``c.k * d.k`` is.
    """
    if c.n != d.n:
        raise ValueError(f"partition sizes differ: {c.n} vs {d.n}")
    codes, counts = np.unique(c.assignment * d.k + d.assignment, return_counts=True)
    rows, cols = np.divmod(codes, d.k)
    return rows, cols, counts, c.sizes(), d.sizes()


def modularity(g: Graph, cs: Partition) -> float:
    """Newman modularity of ``cs`` on ``g`` (resolution 1, per-community form).

    An edgeless graph has no structure to score; returns 0.0 with a warning.
    """
    if cs.n != g.n:
        raise ValueError("partition size does not match graph")
    if g.m == 0:
        warnings.warn("modularity of an edgeless graph is defined as 0", stacklevel=2)
        return 0.0
    a = cs.assignment
    m = float(g.m)
    same = a[g.edge_u] == a[g.edge_v]
    intra = np.bincount(a[g.edge_u][same], minlength=cs.k).astype(np.float64)
    deg = np.bincount(a, weights=g.degrees, minlength=cs.k)
    return float(np.sum(intra / m - (deg / (2.0 * m)) ** 2))


def nmi(c: Partition, d: Partition) -> float:
    """Normalized mutual information (natural log) between two partitions.

    Zero-count cells contribute nothing. When both partitions carry no
    information (zero total entropy), returns 1.0 for identical partitions
    and 0.0 otherwise.
    """
    rows, cols, counts, ri, cj = _contingency(c, d)
    n = float(c.n)
    counts = counts.astype(np.float64)
    ri = ri.astype(np.float64)
    cj = cj.astype(np.float64)

    # community sizes are >= 1, so every log is finite
    denom = float(np.sum(ri * np.log(ri / n))) + float(np.sum(cj * np.log(cj / n)))
    if denom == 0.0:
        return 1.0 if c.equivalent_to(d) else 0.0

    numer = -2.0 * float(np.sum(counts * np.log(counts * n / (ri[rows] * cj[cols]))))
    return numer / denom


def conductance(g: Graph, cs: Partition) -> tuple[np.ndarray, float]:
    """Per-community conductance values and their mean.

    Conductance of a community is the cut size divided by the smaller of the
    two side volumes; a zero-volume side makes the value 0 with a warning.
    """
    if cs.n != g.n:
        raise ValueError("partition size does not match graph")
    a = cs.assignment
    cross = a[g.edge_u] != a[g.edge_v]
    cut = (np.bincount(a[g.edge_u][cross], minlength=cs.k)
           + np.bincount(a[g.edge_v][cross], minlength=cs.k)).astype(np.float64)
    vol = np.bincount(a, weights=g.degrees, minlength=cs.k)
    other = 2.0 * g.m - vol
    small = np.minimum(vol, other)
    phis = np.zeros(cs.k, dtype=np.float64)
    ok = small > 0
    phis[ok] = cut[ok] / small[ok]
    if (~ok).any():
        warnings.warn(f"{int((~ok).sum())} communities have a zero-volume side; "
                      "their conductance is defined as 0", stacklevel=2)
    return phis, float(phis.mean()) if cs.k else 0.0


def f1_score(c: Partition, d: Partition) -> float:
    """Pairwise F1 of predicted partition ``c`` against reference ``d``.

    Precision and recall are computed over unordered co-assigned node pairs;
    returns 0 when precision + recall is 0.
    """
    _, _, counts, row_sums, col_sums = _contingency(c, d)

    def pairs(x: np.ndarray) -> float:
        x = x.astype(np.float64)
        return float(np.sum(x * (x - 1.0) / 2.0))

    tp = pairs(counts)
    pred = pairs(row_sums)
    ref = pairs(col_sums)
    precision = tp / pred if pred > 0 else 0.0
    recall = tp / ref if ref > 0 else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def connectivity_score(g: Graph, cs: Partition) -> float:
    """Mean number of connected components per community (1.0 = all connected)."""
    if cs.n != g.n:
        raise ValueError("partition size does not match graph")
    if cs.k == 0:
        raise ValueError("partition has no communities")
    return float(component_counts(g, cs).sum() / cs.k)
