"""Label refinement tests: refinement relation, connectivity, greedy merge path."""

from __future__ import annotations

import math

import numpy as np
import pytest

from comdet.graph import (
    Graph,
    Partition,
    canonical_labels,
    component_counts,
    induced_subgraph,
    split_into_components,
)
from comdet.leiden import best_of_runs
from comdet.metrics import modularity
from comdet.refine import RefineConfig, refine_labels

from conftest import merge_step, pair_set, random_graph


def _two_blocks_graph(rng, sizes, p_in, p_between=0.0):
    """Dense blocks with optional sparse coupling, for label fixtures."""
    n = sum(sizes)
    starts = np.cumsum([0] + sizes)
    block = np.zeros(n, dtype=int)
    for b, (s, e) in enumerate(zip(starts[:-1], starts[1:])):
        block[s:e] = b
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            p = p_in if block[i] == block[j] else p_between
            if rng.random() < p:
                edges.append((i, j))
    return Graph(n, edges), block


def test_connected_labels_pass_through_unchanged():
    # every label induces a connected sub-network, so merging folds each
    # label back into a single community
    rng = np.random.default_rng(1)
    g, block = _two_blocks_graph(rng, [12, 14], p_in=0.7, p_between=0.05)
    labels = Partition(block)
    refined = refine_labels(g, labels, seed=0)
    assert refined.equivalent_to(labels)


def test_two_disjoint_triangles_stay_separate():
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    labels = Partition([0, 0, 0, 0, 0, 0])
    refined = refine_labels(g, labels, seed=0)
    assert refined.k == 2
    assert pair_set(refined) == {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}


def test_single_node_label_passes_through():
    g = Graph(4, [(0, 1), (1, 2)])
    labels = Partition([0, 0, 0, 1])
    refined = refine_labels(g, labels, seed=0)
    assert refined.assignment[3] not in refined.assignment[:3]


def test_refinement_relation_and_connectivity():
    rng = np.random.default_rng(7)
    for trial in range(10):
        n = int(rng.integers(10, 60))
        g = random_graph(rng, n, 0.15)
        k = int(rng.integers(1, 5))
        labels = Partition(canonical_labels(rng.integers(0, k, size=n)))
        refined = refine_labels(g, labels, seed=trial)
        # refinement: each refined community sits inside exactly one label
        for c in range(refined.k):
            members = np.flatnonzero(refined.assignment == c)
            assert np.unique(labels.assignment[members]).size == 1
        assert component_counts(g, refined).tolist() == [1] * refined.k


def test_modularity_never_drops():
    rng = np.random.default_rng(13)
    for trial in range(8):
        n = int(rng.integers(12, 50))
        g = random_graph(rng, n, 0.12)
        if g.m == 0:
            continue
        labels = Partition(canonical_labels(rng.integers(0, 3, size=n)))
        refined = refine_labels(g, labels, seed=trial)
        assert modularity(g, refined) >= modularity(g, labels) - 1e-12


def test_outcome_is_one_community_per_label_component():
    # joining every edge-linked pair of connected sub-communities gives back
    # the component split of each label, ids included
    rng = np.random.default_rng(19)
    for trial in range(12):
        n = int(rng.integers(12, 60))
        g = random_graph(rng, n, 0.08)
        labels = Partition(canonical_labels(rng.integers(0, 3, size=n)))
        refined = refine_labels(g, labels, seed=trial)
        assert refined == split_into_components(g, labels)


def test_deterministic_given_seed():
    rng = np.random.default_rng(23)
    g = random_graph(rng, 40, 0.1)
    labels = Partition(canonical_labels(rng.integers(0, 3, size=40)))
    a = refine_labels(g, labels, seed=9)
    b = refine_labels(g, labels, seed=9)
    assert a == b


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        refine_labels(Graph(3, [(0, 1)]), Partition([0, 0]))


def test_incremental_merge_matches_naive_full_recompute():
    """Joining edge-linked sub-communities must end where a naive greedy merge
    ends, one that recomputes global modularity from scratch after every
    candidate merge of two edge-sharing sub-communities."""
    rng = np.random.default_rng(31)
    for trial in range(5):
        n = int(rng.integers(20, 80))
        g = random_graph(rng, n, 0.07)
        if g.m == 0:
            continue
        labels = Partition(np.zeros(n, dtype=np.int64))  # single label: whole graph
        cfg = RefineConfig()
        refined = refine_labels(g, labels, cfg, seed=trial)

        # naive reference with the same step-1 result
        seed = np.random.SeedSequence(entropy=trial, spawn_key=(0,))
        part = best_of_runs(g, cfg.leiden_runs, lambda p: modularity(g, p),
                            seed=seed)
        comp_count = int(component_counts(g, labels)[0])
        target = max(math.ceil(comp_count / 2.0), 1)
        assign = part.assignment.copy()
        while len(np.unique(assign)) > target:
            ids = np.unique(assign)
            best_q, best_pair = None, None
            for x in range(ids.size):
                for y in range(x + 1, ids.size):
                    i, j = int(ids[x]), int(ids[y])
                    in_i = assign == i
                    in_j = assign == j
                    shares = np.any(in_i[g.edge_u] & in_j[g.edge_v]
                                    | in_j[g.edge_u] & in_i[g.edge_v])
                    if not shares:
                        continue
                    trial_assign = assign.copy()
                    trial_assign[trial_assign == j] = i
                    q = modularity(g, Partition(canonical_labels(trial_assign)))
                    if best_q is None or q > best_q + 1e-12:
                        best_q, best_pair = q, (i, j)
            if best_pair is None:
                break
            i, j = best_pair
            assign[assign == j] = i
        assert refined.equivalent_to(Partition(canonical_labels(assign)))


def test_merge_step_prefers_edge_sharing_pair():
    # 3 sub-communities; only communities 0 and 1 share edges
    g = Graph(6, [(0, 1), (2, 3), (1, 2), (4, 5)])
    current = Partition([0, 0, 1, 1, 2, 2])
    merged = merge_step(g, current)
    assert merged.k == 2
    assert pair_set(merged) >= {(0, 1), (0, 2)}


def test_merge_step_tie_break_lexicographic():
    # symmetric square of singleton pairs: all adjacent pairs tie, (0, 1) wins
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    current = Partition([0, 1, 2, 3])
    merged = merge_step(g, current)
    assert merged.assignment[0] == merged.assignment[1]


def test_merge_step_candidate_restriction():
    g = Graph(6, [(0, 1), (2, 3), (1, 2), (4, 5)])
    current = Partition([0, 0, 1, 1, 2, 2])
    merged = merge_step(g, current, candidates=[1, 2])
    assert merged.assignment[2] == merged.assignment[4]


def test_merge_step_reduces_count_by_one():
    rng = np.random.default_rng(41)
    g = random_graph(rng, 20, 0.2)
    current = Partition(canonical_labels(rng.integers(0, 5, size=20)))
    merged = merge_step(g, current)
    assert merged.k == current.k - 1


def test_merge_step_validates():
    g = Graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        merge_step(g, Partition([0, 0, 0]))
    with pytest.raises(ValueError):
        merge_step(g, Partition([0, 1, 2]), candidates=[0, 7])
