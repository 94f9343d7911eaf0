"""Metric tests: frozen hand-derived values plus randomized oracle comparisons."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from comdet.graph import Graph, Partition
from comdet.metrics import (
    _contingency,
    conductance,
    connectivity_score,
    f1_score,
    modularity,
    nmi,
)

from conftest import (
    communities,
    modularity_double_sum,
    pair_set,
    partition_from_labels,
    random_graph,
    random_partition,
    traced_peak,
)


# --- modularity ---

def test_modularity_triangle_two_one_split(triangle):
    # m=3; {0,1}: 1/3 - (4/6)^2 = -1/9; {2}: 0 - (2/6)^2 = -1/9
    q = modularity(triangle, Partition([0, 0, 1]))
    assert q == pytest.approx(-2.0 / 9.0, abs=1e-15)


def test_modularity_single_community_is_zero(triangle):
    # e_c/m = 1 and (deg_c/2m)^2 = 1 cancel exactly
    assert modularity(triangle, Partition([0, 0, 0])) == pytest.approx(0.0, abs=1e-15)


def test_modularity_all_singletons_closed_form():
    rng = np.random.default_rng(2)
    g = random_graph(rng, 20, 0.25)
    q = modularity(g, Partition(np.arange(20)))
    expected = -float(np.sum(g.degrees.astype(float) ** 2)) / (4.0 * g.m * g.m)
    assert q == pytest.approx(expected, abs=1e-14)


def test_modularity_matches_double_sum_oracle():
    rng = np.random.default_rng(17)
    for trial in range(50):
        n = int(rng.integers(2, 31))
        g = random_graph(rng, n, float(rng.uniform(0.05, 0.4)))
        if g.m == 0:
            continue
        cs = random_partition(rng, n, int(rng.integers(1, n + 1)))
        assert modularity(g, cs) == pytest.approx(
            modularity_double_sum(g, cs), abs=1e-12)


def test_modularity_matches_networkx():
    """networkx's modularity as an independent oracle (tests only)."""
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(31)
    for trial in range(40):
        n = int(rng.integers(2, 80))
        g = random_graph(rng, n, float(rng.uniform(0.02, 0.4)))
        if g.m == 0:
            continue
        cs = random_partition(rng, n, int(rng.integers(1, n + 1)))
        ng = nx.Graph()
        ng.add_nodes_from(range(n))
        ng.add_edges_from(zip(g.edge_u.tolist(), g.edge_v.tolist()))
        expected = nx.community.modularity(ng, [set(c.tolist()) for c in communities(cs)])
        assert modularity(g, cs) == pytest.approx(expected, abs=1e-12)


def test_modularity_range_bound():
    rng = np.random.default_rng(29)
    for trial in range(30):
        g = random_graph(rng, 15, 0.3)
        if g.m == 0:
            continue
        cs = random_partition(rng, 15, int(rng.integers(1, 16)))
        assert -0.5 <= modularity(g, cs) <= 1.0


def test_modularity_edgeless_warns_and_returns_zero():
    g = Graph(4)
    with pytest.warns(UserWarning):
        assert modularity(g, Partition([0, 1, 2, 3])) == 0.0


def test_modularity_size_mismatch():
    with pytest.raises(ValueError):
        modularity(Graph(3, [(0, 1)]), Partition([0, 0]))


# --- NMI ---

def test_nmi_identical_partitions():
    rng = np.random.default_rng(4)
    for trial in range(20):
        n = int(rng.integers(2, 40))
        p = random_partition(rng, n, int(rng.integers(1, n + 1)))
        assert abs(nmi(p, p) - 1.0) <= 1e-12


def test_nmi_independent_halves_is_zero():
    # {0,1}{2,3} vs {0,2}{1,3}: every cell of the confusion matrix is 1
    c = Partition([0, 0, 1, 1])
    d = Partition([0, 1, 0, 1])
    assert nmi(c, d) == pytest.approx(0.0, abs=1e-15)


def test_nmi_trivial_vs_singletons_is_zero():
    c = Partition([0, 0, 0, 0])
    d = Partition([0, 1, 2, 3])
    assert nmi(c, d) == pytest.approx(0.0, abs=1e-15)


def test_nmi_both_trivial_convention():
    c = Partition([0, 0, 0])
    d = Partition([0, 0, 0])
    assert nmi(c, d) == 1.0
    # single node: both are simultaneously trivial and singleton
    assert nmi(Partition([0]), Partition([0])) == 1.0


def test_nmi_symmetry_and_range():
    rng = np.random.default_rng(31)
    for trial in range(40):
        n = int(rng.integers(2, 35))
        c = random_partition(rng, n, int(rng.integers(1, n + 1)))
        d = random_partition(rng, n, int(rng.integers(1, n + 1)))
        a = nmi(c, d)
        b = nmi(d, c)
        assert a == pytest.approx(b, abs=1e-12)
        assert -1e-12 <= a <= 1.0 + 1e-12


def test_nmi_relabel_invariance():
    rng = np.random.default_rng(37)
    for trial in range(20):
        n = int(rng.integers(2, 30))
        c = random_partition(rng, n, int(rng.integers(1, n + 1)))
        d = random_partition(rng, n, int(rng.integers(1, n + 1)))
        perm = rng.permutation(c.k)
        c2 = partition_from_labels(perm[c.assignment].tolist())
        assert nmi(c, d) == pytest.approx(nmi(c2, d), abs=1e-12)


def test_nmi_hand_computed_value():
    # {0,1,2}{3} vs {0,1}{2,3}: counts [[2,1],[0,1]]
    c = Partition([0, 0, 0, 1])
    d = Partition([0, 0, 1, 1])
    n = 4.0
    num = -2.0 * (2 * math.log(2 * n / (3 * 2)) + 1 * math.log(1 * n / (3 * 2))
                  + 1 * math.log(1 * n / (1 * 2)))
    den = (3 * math.log(3 / n) + 1 * math.log(1 / n)
           + 2 * math.log(2 / n) + 2 * math.log(2 / n))
    assert nmi(c, d) == pytest.approx(num / den, abs=1e-14)


def test_confusion_matrix_sums():
    c = Partition([0, 0, 1, 2])
    d = Partition([0, 1, 1, 0])
    rows, cols, counts, row_sums, col_sums = _contingency(c, d)
    # the dense table is [[1, 1], [0, 1], [1, 0]]; its nonzero cells, row-major
    assert list(zip(rows.tolist(), cols.tolist(), counts.tolist())) == [
        (0, 0, 1), (0, 1, 1), (1, 1, 1), (2, 0, 1)]
    assert row_sums.tolist() == [2, 1, 1]
    assert col_sums.tolist() == [2, 2]
    assert int(counts.sum()) == c.n


def _dense_nmi_f1(c: Partition, d: Partition) -> tuple[float, float]:
    """NMI and pairwise F1 from the full dense k_c x k_d contingency table."""
    table = np.zeros((c.k, d.k), dtype=np.int64)
    np.add.at(table, (c.assignment, d.assignment), 1)
    n = float(c.n)
    counts = table.astype(np.float64)
    ri = table.sum(axis=1).astype(np.float64)
    cj = table.sum(axis=0).astype(np.float64)

    denom = 0.0
    for s in (ri, cj):
        nz = s > 0
        denom += float(np.sum(s[nz] * np.log(s[nz] / n)))
    if denom == 0.0:
        score = 1.0 if c.equivalent_to(d) else 0.0
    else:
        nz = counts > 0
        outer = ri[:, None] * cj[None, :]
        numer = -2.0 * float(np.sum(counts[nz] * np.log(counts[nz] * n / outer[nz])))
        score = numer / denom

    def pairs(x: np.ndarray) -> float:
        return float(np.sum(x * (x - 1.0) / 2.0))

    tp, pred, ref = pairs(counts.ravel()), pairs(ri), pairs(cj)
    precision = tp / pred if pred > 0 else 0.0
    recall = tp / ref if ref > 0 else 0.0
    f1 = (2.0 * precision * recall / (precision + recall)
          if precision + recall != 0.0 else 0.0)
    return score, f1


def test_nmi_and_f1_equal_dense_contingency_exactly():
    rng = np.random.default_rng(61)
    for trial in range(600):
        n = int(rng.integers(1, 400))
        # cycle k through 1, n, n - 1 and a random count, in both roles
        ks = [1, n, max(n - 1, 1), int(rng.integers(1, n + 1))]
        c = random_partition(rng, n, ks[trial % 4])
        d = random_partition(rng, n, ks[(trial // 4) % 4])
        assert (nmi(c, d), f1_score(c, d)) == _dense_nmi_f1(c, d)


def test_nmi_and_f1_memory_is_linear_in_n():
    # the dense table for two singleton partitions at n = 2000 is 32 MB
    c = Partition(np.arange(2000))
    d = Partition(np.arange(2000))
    _, peak = traced_peak(lambda: (nmi(c, d), f1_score(c, d)))
    assert peak < 5_000_000


def test_nmi_size_mismatch():
    with pytest.raises(ValueError):
        nmi(Partition([0, 1]), Partition([0, 1, 2]))


# --- conductance ---

def test_conductance_two_triangles_bridge(two_triangles_bridge):
    phis, mean = conductance(two_triangles_bridge, Partition([0, 0, 0, 1, 1, 1]))
    # each triangle: cut 1, volume 7, complement volume 7
    assert phis.tolist() == pytest.approx([1.0 / 7.0, 1.0 / 7.0])
    assert mean == pytest.approx(1.0 / 7.0)


def test_conductance_trivial_partition_warns(triangle):
    with pytest.warns(UserWarning):
        phis, mean = conductance(triangle, Partition([0, 0, 0]))
    assert phis.tolist() == [0.0]
    assert mean == 0.0


def test_conductance_range():
    rng = np.random.default_rng(41)
    for trial in range(30):
        n = int(rng.integers(3, 25))
        g = random_graph(rng, n, 0.3)
        if g.m == 0:
            continue
        cs = random_partition(rng, n, int(rng.integers(2, n + 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # isolated-node communities are fine here
            phis, mean = conductance(g, cs)
        assert np.all(phis >= 0.0) and np.all(phis <= 1.0)
        assert 0.0 <= mean <= 1.0


def test_conductance_brute_oracle():
    rng = np.random.default_rng(43)
    for trial in range(20):
        n = int(rng.integers(3, 20))
        g = random_graph(rng, n, 0.35)
        if g.m == 0:
            continue
        cs = random_partition(rng, n, int(rng.integers(2, 5)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            phis, _ = conductance(g, cs)
        edges = list(zip(g.edge_u.tolist(), g.edge_v.tolist()))
        for c in range(cs.k):
            inside = cs.assignment == c
            cut = sum(1 for u, v in edges if inside[u] != inside[v])
            vol = int(g.degrees[inside].sum())
            small = min(vol, 2 * g.m - vol)
            expected = cut / small if small > 0 else 0.0
            assert phis[c] == pytest.approx(expected, abs=1e-12)


# --- pairwise F1 ---

def test_f1_worked_example():
    # c={0,1,2}{3}, d={0,1}{2,3}: precision 1/3, recall 1/2, F1 0.4
    c = Partition([0, 0, 0, 1])
    d = Partition([0, 0, 1, 1])
    assert f1_score(c, d) == pytest.approx(0.4, abs=1e-15)


def test_f1_identical_is_one():
    rng = np.random.default_rng(47)
    for trial in range(20):
        n = int(rng.integers(2, 40))
        p = random_partition(rng, n, int(rng.integers(1, n)))
        if all(s < 2 for s in p.sizes()):
            continue  # no co-assigned pairs at all
        assert f1_score(p, p) == 1.0


def test_f1_no_shared_pairs_is_zero():
    c = Partition([0, 0, 1, 1])
    d = Partition([0, 1, 0, 1])
    assert f1_score(c, d) == 0.0


def test_f1_all_singletons_against_anything_is_zero():
    c = Partition([0, 1, 2, 3])
    d = Partition([0, 0, 1, 1])
    assert f1_score(c, d) == 0.0


def test_f1_matches_pair_set_oracle():
    rng = np.random.default_rng(53)
    for trial in range(30):
        n = int(rng.integers(2, 30))
        c = random_partition(rng, n, int(rng.integers(1, n + 1)))
        d = random_partition(rng, n, int(rng.integers(1, n + 1)))
        pc, pd = pair_set(c), pair_set(d)
        tp = len(pc & pd)
        precision = tp / len(pc) if pc else 0.0
        recall = tp / len(pd) if pd else 0.0
        expected = (2 * precision * recall / (precision + recall)
                    if precision + recall else 0.0)
        assert f1_score(c, d) == pytest.approx(expected, abs=1e-12)


# --- connectivity score ---

def test_connectivity_score_mixed_case():
    # community 0: two disjoint triangles (2 components); community 1: one node
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    g = Graph(7, edges)
    cs = Partition([0, 0, 0, 0, 0, 0, 1])
    assert connectivity_score(g, cs) == pytest.approx(1.5)


def test_connectivity_score_all_connected_is_one(two_triangles_bridge):
    cs = Partition([0, 0, 0, 1, 1, 1])
    assert connectivity_score(two_triangles_bridge, cs) == 1.0


def test_connectivity_score_lower_bound():
    rng = np.random.default_rng(59)
    for trial in range(20):
        n = int(rng.integers(2, 25))
        g = random_graph(rng, n, 0.15)
        cs = random_partition(rng, n, int(rng.integers(1, n + 1)))
        assert connectivity_score(g, cs) >= 1.0
