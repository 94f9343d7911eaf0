"""Graph container, partition, and component tests against brute-force oracles."""

from __future__ import annotations

import numpy as np
import pytest

from comdet.graph import (
    Graph,
    Partition,
    canonical_labels,
    component_counts,
    induced_subgraph,
    merge_partitions,
    split_into_components,
)

from conftest import (communities, pair_set, partition_from_labels, random_graph,
                      random_partition)


def _reachability(g: Graph) -> np.ndarray:
    """Boolean reachability matrix by repeated squaring, the component oracle."""
    a = np.eye(g.n, dtype=bool)
    a[g.edge_u, g.edge_v] = True
    a[g.edge_v, g.edge_u] = True
    for _ in range(g.n):
        nxt = a | (a @ a)
        if np.array_equal(nxt, a):
            break
        a = nxt
    return a


def test_construction_drops_self_loops_and_duplicates():
    g = Graph(4, [(0, 1), (1, 0), (2, 2), (1, 2), (1, 2), (3, 0)])
    assert g.m == 3
    assert g.dropped_self_loops == 1
    assert g.dropped_duplicates == 2
    assert g.degrees.tolist() == [2, 2, 1, 1]
    assert int(g.degrees.sum()) == 2 * g.m


def test_construction_rejects_out_of_range():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(-1, 0)])


def test_neighbors_sorted_and_symmetric():
    rng = np.random.default_rng(7)
    g = random_graph(rng, 25, 0.2)
    for v in range(g.n):
        nb = g.indices[g.indptr[v]:g.indptr[v + 1]]
        assert np.all(np.diff(nb) > 0)
        for u in nb:
            assert v in g.indices[g.indptr[u]:g.indptr[u + 1]]


def test_empty_graph():
    g = Graph(5)
    assert g.m == 0
    assert g.degrees.tolist() == [0] * 5
    assert component_counts(g, Partition(np.zeros(5, dtype=np.int64))).tolist() == [5]


def test_partition_validates_dense_ids():
    Partition([0, 1, 2, 0])
    with pytest.raises(ValueError):
        Partition([0, 2, 2])  # id 1 missing
    with pytest.raises(ValueError):
        Partition([-1, 0])


def test_partition_from_labels_first_occurrence_order():
    p = partition_from_labels(["b", "a", "b", "c"])
    assert p.assignment.tolist() == [0, 1, 0, 2]
    assert p.k == 3


def test_partition_equivalence_ignores_label_names():
    p = Partition([0, 0, 1, 2])
    q = Partition([2, 2, 0, 1])
    assert p.equivalent_to(q)
    assert p != q
    assert p == Partition([0, 0, 1, 2])


def test_canonical_labels():
    assert canonical_labels(np.array([5, 3, 5, 9])).tolist() == [0, 1, 0, 2]


def test_partition_communities_sorted_members():
    rng = np.random.default_rng(3)
    p = random_partition(rng, 30, 4)
    comms = communities(p)
    assert sorted(int(x) for arr in comms for x in arr) == list(range(30))
    for c, members in enumerate(comms):
        assert np.all(p.assignment[members] == c)
        assert np.all(np.diff(members) > 0)


def test_connected_components_matches_reachability_oracle():
    rng = np.random.default_rng(11)
    for trial in range(50):
        n = int(rng.integers(1, 30))
        g = random_graph(rng, n, float(rng.uniform(0.02, 0.25)))
        comp = split_into_components(g, Partition(np.zeros(n, dtype=np.int64)))
        reach = _reachability(g)
        same = comp.assignment[:, None] == comp.assignment[None, :]
        assert np.array_equal(same, reach)
        assert np.array_equal(comp.assignment, canonical_labels(comp.assignment))

        # per community: reachability over intra-community edges only
        cs = random_partition(rng, n, int(rng.integers(1, n + 1)))
        a = cs.assignment
        intra = a[g.edge_u] == a[g.edge_v]
        reach = _reachability(Graph(n, np.stack([g.edge_u[intra], g.edge_v[intra]], axis=1)))
        split = split_into_components(g, cs).assignment
        assert np.array_equal(split[:, None] == split[None, :], reach)
        lowest = [int(np.flatnonzero(split == s)[0]) for s in range(split.max() + 1)]
        ranks = [(int(a[i]), i) for i in lowest]
        assert ranks == sorted(ranks)
        is_lowest = ~np.tril(reach, -1).any(axis=1)
        assert np.array_equal(component_counts(g, cs),
                              np.bincount(a[is_lowest], minlength=cs.k))


def test_connected_components_rejects_bad_subset():
    g = Graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        induced_subgraph(g, [0, 0])
    with pytest.raises(ValueError):
        induced_subgraph(g, [5])


def test_induced_subgraph_matches_pair_scan_oracle():
    rng = np.random.default_rng(23)
    for trial in range(30):
        n = int(rng.integers(2, 25))
        g = random_graph(rng, n, 0.3)
        size = int(rng.integers(1, n + 1))
        nodes = rng.permutation(n)[:size]
        sub = induced_subgraph(g, nodes)
        assert sub.n == size
        idx = {int(old): new for new, old in enumerate(nodes)}  # node i is nodes[i]
        # oracle: brute scan of all node pairs inside the subset
        adj = np.zeros((n, n), dtype=bool)
        adj[g.edge_u, g.edge_v] = True
        adj[g.edge_v, g.edge_u] = True
        expected = {(min(idx[int(a)], idx[int(b)]), max(idx[int(a)], idx[int(b)]))
                    for a in nodes for b in nodes if int(a) < int(b) and adj[a, b]}
        got = set(zip(sub.edge_u.tolist(), sub.edge_v.tolist()))
        assert got == expected


def test_merge_partitions_co_membership():
    outer = Partition([0, 0, 1, 1, 0])
    # outer community 0 holds nodes [0, 1, 4], community 1 holds [2, 3]
    inner0 = Partition([0, 1, 0])
    inner1 = Partition([0, 0])
    merged = merge_partitions(outer, [inner0, inner1])
    assert pair_set(merged) == {(0, 4), (2, 3)}
    assert merged.k == 3


def test_merge_partitions_random_oracle():
    rng = np.random.default_rng(5)
    for trial in range(25):
        n = int(rng.integers(2, 40))
        outer = random_partition(rng, n, int(rng.integers(1, min(n, 5) + 1)))
        inners = []
        for c in range(outer.k):
            size = int((outer.assignment == c).sum())
            inners.append(random_partition(rng, size, int(rng.integers(1, size + 1))))
        merged = merge_partitions(outer, inners)
        # oracle: same merged community iff same outer community and same inner id
        for i in range(n):
            for j in range(n):
                same_outer = outer.assignment[i] == outer.assignment[j]
                if same_outer:
                    c = int(outer.assignment[i])
                    members = np.flatnonzero(outer.assignment == c)
                    pi = inners[c].assignment[int(np.searchsorted(members, i))]
                    pj = inners[c].assignment[int(np.searchsorted(members, j))]
                    expect = pi == pj
                else:
                    expect = False
                assert (merged.assignment[i] == merged.assignment[j]) == expect


def test_merge_partitions_validates_sizes():
    outer = Partition([0, 0, 1])
    with pytest.raises(ValueError):
        merge_partitions(outer, [Partition([0]), Partition([0])])
    with pytest.raises(ValueError):
        merge_partitions(outer, [Partition([0, 1])])


def test_split_into_components():
    g = Graph(6, [(0, 1), (2, 3), (4, 5)])
    cs = Partition([0, 0, 0, 0, 1, 1])
    out = split_into_components(g, cs)
    assert pair_set(out) == {(0, 1), (2, 3), (4, 5)}
    assert component_counts(g, out).tolist() == [1] * out.k
