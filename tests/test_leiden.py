"""Leiden optimizer tests: guarantees, determinism, and brute-force comparisons."""

from __future__ import annotations

import hashlib
import importlib
import itertools
import math

import numpy as np
import pytest

from comdet.graph import Graph, Partition, canonical_labels, component_counts
from comdet.leiden import (LeidenConfig, _aggregate, _draw, _LevelGraph, _local_move,
                           _movers, _refine, best_of_runs, leiden)
from comdet.metrics import modularity
from comdet.refine import RefineConfig, refine_labels

from conftest import (all_partitions, block_model, partition_from_labels,
                      random_connected_graph, random_graph, random_partition)

leiden_module = importlib.import_module("comdet.leiden")  # comdet.leiden is also the function


def brute_force_best_q(g: Graph) -> float:
    return max(modularity(g, partition_from_labels(a))
               for a in all_partitions(g.n))


def single_move_improvements(g: Graph, p: Partition) -> int:
    """Count strictly improving single-node moves (to neighbor communities or
    a fresh singleton), the exhaustive fixpoint oracle."""
    a = p.assignment
    m = float(g.m)
    deg = g.degrees.astype(np.float64)
    sigma = np.bincount(a, weights=deg, minlength=p.k)
    count = 0
    for v in range(g.n):
        cv = int(a[v])
        w: dict[int, int] = {}
        for u in g.indices[g.indptr[v]:g.indptr[v + 1]]:
            cu = int(a[u])
            w[cu] = w.get(cu, 0) + 1
        base = (w.get(cv, 0) / m
                - (sigma[cv] - deg[v]) * deg[v] / (2.0 * m * m))
        for c, wc in w.items():
            if c == cv:
                continue
            gain = wc / m - sigma[c] * deg[v] / (2.0 * m * m)
            if gain > base + 1e-12:
                count += 1
        if 0.0 > base + 1e-12:
            count += 1
    return count


def test_recovers_two_cliques_joined_by_bridge(two_cliques_bridge):
    p = leiden(two_cliques_bridge, seed=0)
    assert p.k == 2
    assert p.equivalent_to(Partition([0, 0, 0, 0, 1, 1, 1, 1]))


def test_edgeless_graph_gives_singletons():
    p = leiden(Graph(7), seed=3)
    assert p.k == 7


def test_single_node():
    p = leiden(Graph(1), seed=0)
    assert p.assignment.tolist() == [0]


def test_deterministic_given_seed():
    g = random_graph(np.random.default_rng(8), 80, 0.06)
    for seed in (0, 1, 99):
        p1 = leiden(g, seed=seed)
        p2 = leiden(g, seed=seed)
        assert p1 == p2


def test_communities_always_connected():
    rng = np.random.default_rng(100)
    for trial in range(40):
        n = int(rng.integers(4, 150))
        g = random_graph(rng, n, float(rng.uniform(0.02, 0.15)))
        p = leiden(g, seed=trial)
        assert component_counts(g, p).tolist() == [1] * p.k


def test_local_move_fixpoint_exhaustive():
    rng = np.random.default_rng(200)
    for trial in range(25):
        n = int(rng.integers(5, 120))
        g = random_graph(rng, n, float(rng.uniform(0.03, 0.2)))
        if g.m == 0:
            continue
        p = leiden(g, seed=trial)
        assert single_move_improvements(g, p) == 0


def test_never_beats_brute_force_and_usually_matches():
    rng = np.random.default_rng(300)
    hits = 0
    trials = 25
    for trial in range(trials):
        n = int(rng.integers(3, 9))
        g = random_connected_graph(rng, n, float(rng.uniform(0.2, 0.6)))
        best = brute_force_best_q(g)
        got = max(modularity(g, leiden(g, seed=s)) for s in range(5))
        assert got <= best + 1e-9
        if got >= best - 1e-9:
            hits += 1
    assert hits >= int(0.9 * trials)


def test_modularity_never_decreases_vs_singletons():
    rng = np.random.default_rng(400)
    for trial in range(20):
        n = int(rng.integers(4, 60))
        g = random_graph(rng, n, 0.1)
        if g.m == 0:
            continue
        p = leiden(g, seed=trial)
        q_single = modularity(g, Partition(np.arange(n)))
        assert modularity(g, p) >= q_single - 1e-12


def test_best_of_runs_scores_and_tie_break():
    g = random_graph(np.random.default_rng(12), 50, 0.08)
    # constant score: ties resolved to the first run
    first = leiden(g, seed=np.random.SeedSequence(entropy=0, spawn_key=(0,)))
    chosen = best_of_runs(g, 4, lambda p: 1.0, seed=0)
    assert chosen == first
    # modularity score: winner's Q is the max over the individual runs
    seeds = [np.random.SeedSequence(entropy=0, spawn_key=(i,)) for i in range(4)]
    qs = [modularity(g, leiden(g, seed=s)) for s in seeds]
    best = best_of_runs(g, 4, lambda p: modularity(g, p), seed=0)
    assert modularity(g, best) == pytest.approx(max(qs), abs=1e-15)


def test_best_of_runs_validates_arguments():
    g = Graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        best_of_runs(g, 0, lambda p: 0.0)


def test_best_of_runs_rejects_parallel_below_one():
    g = Graph(3, [(0, 1)])
    for parallel in (0, -3):
        with pytest.raises(ValueError, match=f"parallel must be >= 1, got {parallel}"):
            best_of_runs(g, 2, lambda p: 0.0, parallel=parallel)
    with pytest.raises(ValueError, match="runs must be >= 1, got 0"):
        best_of_runs(g, 0, lambda p: 0.0)


class _SerialPool:
    """ProcessPoolExecutor stand-in that records ``max_workers`` and the
    start method, and maps in this process, so no worker is ever started."""

    sizes: list[int] = []
    methods: list[str] = []

    def __init__(self, max_workers: int, mp_context) -> None:
        self.sizes.append(max_workers)
        self.methods.append(mp_context.get_start_method())

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass

    def map(self, fn, items):
        return map(fn, items)


def test_best_of_runs_pool_has_at_most_one_worker_per_run(monkeypatch):
    """The pool has at most one worker per run and per CPU; one CPU, or a
    CPU count the platform cannot tell (``None``), means no pool."""
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(_SerialPool, "methods", [])
    monkeypatch.setattr(leiden_module, "ProcessPoolExecutor", _SerialPool)
    cpus = [64]
    monkeypatch.setattr(leiden_module.os, "cpu_count", lambda: cpus[0])
    g = random_graph(np.random.default_rng(33), 40, 0.1)
    score = lambda p: modularity(g, p)  # noqa: E731
    serial = best_of_runs(g, 3, score, seed=5)
    for cpus[0], parallel, workers in ((64, 2, 2), (64, 3, 3), (64, 8, 3), (2, 8, 2)):
        assert best_of_runs(g, 3, score, seed=5,
                            parallel=parallel) == serial
        assert _SerialPool.sizes[-1] == workers
    for cpus[0] in (1, None):
        assert best_of_runs(g, 3, score, seed=5, parallel=8) == serial
    cpus[0] = 64
    best_of_runs(g, 1, score, parallel=4)  # one run, one worker: no pool
    assert _SerialPool.sizes == [2, 3, 3, 2]
    assert _SerialPool.methods == ["spawn"] * 4


def test_parallel_runs_match_sequential():
    g = random_graph(np.random.default_rng(33), 60, 0.07)
    seq = best_of_runs(g, 4, lambda p: modularity(g, p), seed=5)
    par = best_of_runs(g, 4, lambda p: modularity(g, p), seed=5,
                       parallel=2)
    assert seq == par


def test_seeded_outputs_are_pinned():
    """Literal outputs, so a refactor that changes seeded results fails here."""
    g = random_graph(np.random.default_rng(2024), 60, 0.08)
    assert leiden(g, seed=0).assignment.tolist() == [
        0, 1, 2, 3, 3, 3, 0, 0, 4, 3, 1, 1, 2, 5, 4, 1, 3, 4, 4, 0, 4, 2, 2, 3, 1, 3, 1, 1, 2, 0,
        5, 3, 3, 3, 4, 0, 4, 0, 1, 0, 4, 5, 0, 1, 1, 0, 1, 1, 1, 0, 3, 0, 5, 2, 5, 5, 3, 2, 5, 1]
    assert leiden(g, seed=7).assignment.tolist() == [
        0, 1, 2, 3, 3, 3, 0, 4, 5, 0, 6, 1, 2, 6, 5, 1, 0, 5, 3, 4, 5, 2, 2, 7, 1, 0, 4, 1, 2, 0,
        6, 7, 7, 3, 5, 0, 5, 4, 6, 0, 5, 3, 0, 1, 6, 0, 1, 1, 6, 0, 7, 0, 7, 2, 7, 6, 3, 5, 7, 2]
    labels = Partition(np.arange(60) % 3)
    refined = refine_labels(g, labels, RefineConfig(leiden_runs=3), seed=3)
    assert refined.assignment.tolist() == [
        0, 5, 9, 0, 5, 9, 0, 5, 10, 0, 5, 11, 0, 6, 11, 0, 6, 11, 1, 5, 11, 0, 5, 9, 1, 6, 9, 0,
        5, 12, 2, 6, 9, 0, 7, 9, 0, 5, 13, 0, 8, 11, 0, 5, 9, 0, 5, 9, 0, 5, 9, 0, 6, 9, 3, 6, 9,
        4, 6, 9]


def _sha256(p: Partition) -> str:
    return hashlib.sha256(p.assignment.astype(np.int64).tobytes()).hexdigest()


def test_seeded_outputs_are_pinned_on_a_block_model():
    """A 1500-node block model runs Leiden through several aggregate levels
    with thousands of multi-candidate refinement draws; digests of the
    assignments pin those paths, which the 60-node pin rarely reaches."""
    rng = np.random.default_rng(1500)
    blocks = random_partition(rng, 1500, 30)
    g = block_model(rng, blocks, 0.12, 0.0015)
    assert (g.n, g.m) == (1500, 6196)
    assert _sha256(leiden(g, seed=0)) == (
        "de423d8ac90da5f99742d95e9b7bb1f47755b71fd137b09d1e8142fed02e7a23")
    labels = Partition(blocks.assignment // 2)
    refined = refine_labels(g, labels, RefineConfig(leiden_runs=2), seed=0)
    assert _sha256(refined) == (
        "73a447b315d3bc87ea8ba82baba637f4d8aac06ef12a86fe1ce8d734e04bfd72")


def _level_arrays(n: int, edges: list[tuple[int, int, int]]):
    """``_LevelGraph`` arguments for weighted (u, v, w) edges between
    distinct nodes."""
    both = sorted([(u, v, w) for u, v, w in edges] + [(v, u, w) for u, v, w in edges])
    src, dst, w = (np.asarray(col, dtype=np.int64) for col in zip(*both))
    strength = np.bincount(src, weights=w, minlength=n).astype(np.int64)
    return src, dst, w, strength, int(strength.sum())


def _level_graph(n: int, edges: list[tuple[int, int, int]]) -> _LevelGraph:
    """Level graph from weighted (u, v, w) edges between distinct nodes."""
    return _LevelGraph(*_level_arrays(n, edges))


@pytest.mark.parametrize("comm", [[0, 1, 1, 2, 2], [0, 2, 2, 1, 1], [2, 1, 1, 0, 0]])
def test_local_move_breaks_equal_gains_to_the_lowest_id(comm):
    """Node 0 hangs by one unit edge from each of two equal heavy pairs: both
    moves gain the same, and it joins the pair with the lower community id.
    Once there, the tie with its own community keeps it in place."""
    lg = _level_graph(5, [(1, 2, 5), (3, 4, 5), (0, 1, 1), (0, 3, 1)])
    low = min(comm[1], comm[3])
    for seed in range(6):
        got = list(comm)
        _local_move(lg, got, np.random.default_rng(seed))
        assert got == [low] + comm[1:]


class _FirstCandidate:
    """Generator stand-in: a fixed visiting order and draws that always land
    on the first candidate, whichever way the draw is made."""

    def __init__(self, order: list[int]) -> None:
        self.order = order

    def permutation(self, n: int) -> np.ndarray:
        return np.asarray(self.order)

    def choice(self, k: int, p=None) -> int:
        return 0

    def random(self) -> float:
        return 0.0


def test_refine_orders_candidates_ascending():
    """Node 1 joins node 4's group first, so node 5 meets its neighbours'
    groups in the order 4, 2, 3; the draw sees them as 2, 3, 4."""
    lg = _level_graph(6, [(1, 5, 2), (2, 5, 1), (3, 5, 1), (1, 4, 1)])
    ref = _refine(lg, [0] * 6, _FirstCandidate([1, 5, 2, 3, 4, 0]))
    assert ref == [0, 4, 2, 2, 4, 2]


def test_draw_matches_generator_choice():
    """``_draw`` gives the same index and generator state as
    ``Generator.choice`` with the same weights, over random exp(gain / theta)
    weights, with ties, as ``_refine`` builds them. Random uniforms land far
    from every boundary, so the two roundings of the boundaries agree."""
    meta = np.random.default_rng(77)
    for trial in range(5000):
        k = int(meta.integers(2, 41))
        two_m = int(meta.integers(2, 10**6))
        if trial % 3 == 0:
            ints = meta.choice(meta.integers(0, two_m**2, 3), k)  # tied gains
        else:
            ints = meta.integers(0, two_m**2, k)
        theta = float(meta.choice([0.01, meta.uniform(1e-4, 1.0)]))
        gains = [float(x) * (2.0 / float(two_m) ** 2) for x in ints]
        logits = np.asarray(gains) / theta
        p = np.exp(logits - logits.max())
        seed = int(meta.integers(2**32))
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _draw(gains, theta, a) == int(b.choice(k, p=p / p.sum()))
        assert a.random() == b.random()


def test_aggregate_matches_dense_contraction():
    """Two levels of contraction against dense P^T A P on random graphs."""
    rng = np.random.default_rng(500)
    for trial in range(30):
        n = int(rng.integers(2, 70))
        g = random_graph(rng, n, float(rng.uniform(0.02, 0.3)))
        adj = np.zeros((n, n), dtype=np.int64)
        adj[g.edge_u, g.edge_v] = 1
        adj += adj.T
        lg = _LevelGraph.from_graph(g)
        member = np.eye(n, dtype=np.int64)  # original node -> current level node
        for level in range(2):
            comm = rng.integers(0, max(1, lg.n // 3), lg.n)
            ref = canonical_labels(comm * lg.n + rng.integers(0, 2, lg.n))
            new_lg, new_comm = _aggregate(lg, ref, comm.tolist())
            member = member @ np.eye(int(ref.max()) + 1, dtype=np.int64)[ref]
            contracted = member.T @ adj @ member
            np.fill_diagonal(contracted, 0)
            src, dst = np.nonzero(contracted)
            assert new_lg.n == member.shape[1]
            assert new_lg.src.tolist() == src.tolist()
            assert new_lg.dst.tolist() == dst.tolist()
            assert new_lg.w.tolist() == contracted[src, dst].tolist()
            assert list(new_lg.strength) == (member.T @ g.degrees).tolist()
            assert sum(new_lg.strength) == new_lg.two_m == 2 * g.m
            for v in range(new_lg.n):
                row = np.flatnonzero(contracted[v])
                assert new_lg.nbrs[v] == row.tolist()
                assert new_lg.ws[v] == contracted[v, row].tolist()
            assert [new_comm[r] for r in ref.tolist()] == comm.tolist()
            lg = new_lg


def test_best_of_runs_honours_numpy_and_seed_sequence_seeds():
    g = random_graph(np.random.default_rng(40), 60, 0.08)

    def pick(seed):
        return best_of_runs(g, 3, lambda p: modularity(g, p), seed=seed)

    five = pick(5)
    assert five != pick(0)
    assert pick(np.int64(5)) == five
    seq = np.random.SeedSequence(5)
    assert pick(seq) == five  # spawn keys (i,) under entropy 5
    assert seq.n_children_spawned == 0  # run seeds are spawned from a copy
    assert pick(seq) == five
    seq.spawn(2)  # children the caller spawned do not shift the run seeds
    assert pick(seq) == five
    assert pick(None) == pick(0)


def test_local_move_and_refine_leave_level_graphs_as_they_found_them():
    """Both loops zero every ``scratch`` entry they touch, at level 0 and at
    an aggregated level, and a whole pass leaves level 0 unchanged, so one
    level-0 graph can serve every pass of a ``leiden`` call."""
    rng = np.random.default_rng(600)
    shrunk = 0
    for trial in range(30):
        n = int(rng.integers(2, 90))
        g = random_graph(rng, n, float(rng.uniform(0.03, 0.3)))
        lg = _LevelGraph.from_graph(g)
        comm = list(range(n))
        for level in range(2):
            shrunk += level and lg.n < n
            _local_move(lg, comm, rng)
            assert lg.scratch == [0] * lg.n
            comm = canonical_labels(np.asarray(comm)).tolist()
            ref = canonical_labels(np.asarray(_refine(lg, comm, rng)))
            assert lg.scratch == [0] * lg.n
            lg, comm = _aggregate(lg, ref, comm)
        level0 = _LevelGraph.from_graph(g)
        leiden_module._one_pass(level0, np.arange(n), rng)
        fresh = _LevelGraph.from_graph(g)
        for name in ("strength", "nbrs", "ws", "scratch"):
            assert getattr(level0, name) == getattr(fresh, name)
    assert shrunk == 30  # every trial reaches a smaller aggregated level


def test_leiden_builds_level_zero_once_per_call(monkeypatch):
    """Every pass reuses the level-0 graph built at the start of the call."""
    builds, passes = [], []
    build, split = _LevelGraph.from_graph, leiden_module.split_into_components
    monkeypatch.setattr(_LevelGraph, "from_graph",
                        staticmethod(lambda g: builds.append(g) or build(g)))
    monkeypatch.setattr(leiden_module, "split_into_components",
                        lambda g, p: passes.append(p) or split(g, p))
    g = random_graph(np.random.default_rng(2024), 60, 0.08)
    leiden(g, seed=0)
    assert builds == [g]
    assert len(passes) >= 2


@pytest.mark.parametrize("kwargs, value", [
    ({"max_passes": 0}, "0"),
    ({"max_passes": -3}, "-3"),
])
def test_leiden_config_rejects_invalid_values(kwargs, value):
    with pytest.raises(ValueError, match=f"{next(iter(kwargs))} must be .* got {value}"):
        LeidenConfig(**kwargs)


def node_gains(lg: _LevelGraph, comm: list[int], sigma_tot: list[int],
               v: int) -> tuple[int, int, list[int]]:
    """Node ``v``'s gain for staying, scaled by ``two_m**2`` as in the
    local-move attempt, the weight of its community without it, and the
    scaled gain of joining each other neighbouring community."""
    cv, kv = comm[v], lg.strength[v]
    per: dict[int, int] = {}
    for u, w in zip(lg.nbrs[v], lg.ws[v]):
        per[comm[u]] = per.get(comm[u], 0) + w
    rest = sigma_tot[cv] - kv
    stay = per.get(cv, 0) * lg.two_m - rest * kv
    return stay, rest, [w * lg.two_m - sigma_tot[c] * kv for c, w in per.items() if c != cv]


def movers_oracle(lg: _LevelGraph, comm: list[int], sigma_tot: list[int]) -> list[bool]:
    """The local-move attempt's rule, one node at a time, in Python integers:
    a node moves when another neighbouring community gains strictly more than
    staying, or when staying gains < 0 and its community holds other weight."""
    out = []
    for v in range(lg.n):
        stay, rest, gains = node_gains(lg, comm, sigma_tot, v)
        out.append(any(g > stay for g in gains) or (stay < 0 and rest > 0))
    return out


def _sigma_tot(lg: _LevelGraph, comm: list[int]) -> list[int]:
    sigma = [0] * lg.n
    for v, c in enumerate(comm):
        sigma[c] += lg.strength[v]
    return sigma


def test_movers_match_the_attempt_rule():
    """``_movers`` flags exactly the nodes the oracle says would move, at
    level 0, at levels made by ``_aggregate`` (weights and strengths above
    1) and with weight inside nodes, under singletons and under community
    ids with gaps. The examples include ties with staying and nodes that
    move only because staying loses, and the test checks that they do."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        n = draw(st.integers(1, 14))
        node = st.integers(0, n - 1)
        lg = _LevelGraph.from_graph(Graph(n, draw(st.lists(st.tuples(node, node),
                                                           max_size=3 * n))))
        level = draw(st.sampled_from(["level 0", "aggregated", "inner weight"]))
        if level == "aggregated":
            groups = draw(st.lists(st.integers(0, draw(st.integers(0, n - 1))),
                                   min_size=n, max_size=n))
            lg, _ = _aggregate(lg, canonical_labels(np.asarray(groups)), [0] * n)
        elif level == "inner weight":  # as aggregated nodes carry their inside edges
            inner = 2 * np.asarray(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)))
            lg = _LevelGraph(lg.src, lg.dst, lg.w, lg.k + inner, lg.two_m + int(inner.sum()))
        ids = st.integers(0, draw(st.integers(0, lg.n - 1)))  # few ids make big communities
        comm = draw(st.one_of(st.just(list(range(lg.n))),
                              st.lists(ids, min_size=lg.n, max_size=lg.n)))
        return lg, comm

    seen = {"weighted level": 0, "tie with staying": 0, "only staying loses": 0}

    @hypothesis.settings(hypothesis.settings.get_profile("tier1"), max_examples=300)
    @hypothesis.given(cases())
    def check(case):
        lg, comm = case
        sigma = _sigma_tot(lg, comm)
        assert _movers(lg, comm, sigma).tolist() == movers_oracle(lg, comm, sigma)
        seen["weighted level"] += max(lg.ws, default=[]) > [1]
        for v in range(lg.n):
            stay, rest, gains = node_gains(lg, comm, sigma, v)
            seen["tie with staying"] += stay in gains
            seen["only staying loses"] += stay < 0 < rest and max(gains, default=stay) <= stay

    check()
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("comm, movers", [
    ([0, 1, 1, 2, 2], [True, False, False, False, False]),  # two equal gains beat staying
    ([1, 1, 1, 3, 3], [False] * 5),  # joining 3 gains exactly what staying in 1 does
    ([0, 1, 2, 3, 4], [True] * 5),  # every singleton has a neighbour worth joining
    ([4, 4, 4, 4, 4], [False] * 5),  # one community: staying gains >= 0 for all
])
def test_movers_on_hand_checked_partitions(comm, movers):
    """Node 0 hangs by one unit edge from each of two heavy pairs, as in
    ``test_local_move_breaks_equal_gains_to_the_lowest_id``."""
    lg = _level_graph(5, [(1, 2, 5), (3, 4, 5), (0, 1, 1), (0, 3, 1)])
    sigma = _sigma_tot(lg, comm)
    assert movers_oracle(lg, comm, sigma) == movers
    assert _movers(lg, comm, sigma).tolist() == movers


def test_movers_flag_a_node_that_loses_by_staying():
    """At an aggregated level a node can carry weight with no edge at all.
    Sharing a community, it gains < 0 by staying and would leave for a fresh
    singleton; alone in its community it stays put."""
    none = np.zeros(0, dtype=np.int64)
    lg = _LevelGraph(none, none, none, np.asarray([2, 2, 3]), 7)
    for comm, movers in (([0, 0, 2], [True, True, False]),
                         ([1, 0, 2], [False] * 3),
                         ([1, 1, 1], [True] * 3)):
        sigma = _sigma_tot(lg, comm)
        assert movers_oracle(lg, comm, sigma) == movers
        assert _movers(lg, comm, sigma).tolist() == movers


class _ListCounting(np.ndarray):
    """An array view that counts the Python lists made from it."""

    lists = 0

    def tolist(self):
        type(self).lists += 1
        return super().tolist()


def test_level_graph_refuses_gains_that_could_overflow_int64():
    """With ``two_m >= 2**31`` the scaled gains could overflow int64, so the
    level graph refuses, naming the edge count (by weight), before it makes
    any Python list of its arrays."""
    rng = np.random.default_rng(31)
    for trial in range(5):
        g = random_graph(rng, 40, 0.15)
        edges = [(int(u), int(v), int(rng.integers(2**26, 2**27)))
                 for u, v in zip(g.edge_u, g.edge_v)]
        *arrays, two_m = _level_arrays(g.n, edges)
        assert two_m >= 2**31
        arrays = [a.view(_ListCounting) for a in arrays]
        _ListCounting.lists = 0
        with pytest.raises(ValueError, match=f"fewer than 2\\*\\*30 edges, got {two_m // 2}:"):
            _LevelGraph(*arrays, two_m)
        assert _ListCounting.lists == 0
        _LevelGraph(*arrays, 2**31 - 1)  # the largest two_m taken makes its lists
        assert _ListCounting.lists > 0


def test_local_move_ends_at_a_fixpoint_on_aggregated_levels():
    """After ``_local_move`` no node of a weighted aggregated level would
    move, by the oracle; the numpy checks that skip attempts never stop it
    early."""
    rng = np.random.default_rng(32)
    for trial in range(20):
        n = int(rng.integers(5, 80))
        lg = _LevelGraph.from_graph(random_graph(rng, n, float(rng.uniform(0.05, 0.3))))
        ref = canonical_labels(rng.integers(0, max(1, n // 2), n))
        lg, comm = _aggregate(lg, ref, [0] * n)
        comm = canonical_labels(rng.integers(0, lg.n, lg.n)).tolist()
        _local_move(lg, comm, rng)
        assert not any(movers_oracle(lg, comm, _sigma_tot(lg, comm)))


class _VisitPrefix:
    """Generator stand-in for ``_refine``: it visits the first ``stop`` nodes
    of ``order`` and draws the uniforms of a fresh generator seeded ``seed``,
    so a run with a longer prefix repeats every step of a shorter one."""

    def __init__(self, order: np.ndarray, stop: int, seed: int) -> None:
        self.order, self.stop = order, stop
        self.rng = np.random.default_rng(seed)

    def permutation(self, n: int) -> np.ndarray:
        return self.order[:self.stop]

    def random(self) -> float:
        return self.rng.random()


def test_refine_after_local_move_merges_every_singleton_with_a_community_neighbour():
    """At a local-move fixpoint a node v of a community C with other members
    has W(v, C∖v)·2m ≥ σ(C∖v)·k_v, or it would leave for a fresh singleton.
    While v is still alone in ``_refine``, the groups it touches split its
    neighbours in C, so their scaled gains sum to at least that and one is
    ≥ 0. So ``_refine``'s "no candidate" guard and ``_one_pass``'s "nothing
    merged" break are never taken after ``_local_move``. Replayed one visit
    at a time, on random graphs and on the aggregated levels above them:
    every node visited alone that has a neighbour in its community leaves
    its group, and some merge happens whenever a community has 2 or more
    nodes."""
    rng = np.random.default_rng(77)
    seen = {"level 0": 0, "aggregated": 0}
    for trial in range(100):
        n = int(rng.integers(5, 70))
        lg = _LevelGraph.from_graph(random_graph(rng, n, float(rng.uniform(0.03, 0.3))))
        comm = list(range(n))
        for level in seen:
            _local_move(lg, comm, rng)
            comm = canonical_labels(np.asarray(comm)).tolist()
            order, seed = rng.permutation(lg.n), int(rng.integers(2**32))
            ref = list(range(lg.n))
            for p, v in enumerate(order.tolist()):
                after = _refine(lg, comm, _VisitPrefix(order, p + 1, seed))
                # the replay repeats the shorter run: this visit moves v at most
                assert [i for i in range(lg.n) if after[i] != ref[i]] in ([], [v])
                if ref.count(ref[v]) == 1 and any(comm[u] == comm[v] for u in lg.nbrs[v]):
                    assert after[v] != ref[v], (trial, level, v)
                    seen[level] += 1
                ref = after
            if max(np.bincount(comm)) > 1:
                assert len(set(ref)) < lg.n
            lg, comm = _aggregate(lg, canonical_labels(np.asarray(ref)), comm)
    assert min(seen.values()) > 0, seen


class _FixedUniform:
    """Generator stand-in whose ``random()`` returns one fixed value and
    counts its calls."""

    def __init__(self, u: float) -> None:
        self.u = u
        self.calls = 0

    def random(self) -> float:
        self.calls += 1
        return self.u


def test_draw_places_a_uniform_on_a_boundary_to_its_right():
    """A uniform on a boundary ``cum[i] / total`` of the draw's cumulative
    weights, or one ulp to either side, lands where ``searchsorted(side=
    "right")`` puts it: on a boundary it goes right. Each draw reads
    ``random()`` exactly once."""
    meta = np.random.default_rng(88)
    checked = 0
    for trial in range(300):
        k = int(meta.integers(2, 30))
        two_m = int(meta.integers(2, 10**5))
        ints = meta.integers(0, two_m**2, k)
        if trial % 2:
            ints = meta.choice(ints[:3], k)  # tied gains, equal boundary steps
        gains = [float(x) * (2.0 / float(two_m) ** 2) for x in ints]
        theta = float(meta.choice([0.01, meta.uniform(1e-4, 1.0)]))
        logits = [g / theta for g in gains]
        cum = list(itertools.accumulate(math.exp(x - max(logits)) for x in logits))
        bounds = np.array([c / cum[-1] for c in cum])
        for b in bounds[:-1]:
            for u in {np.nextafter(b, 0.0), b, np.nextafter(b, 1.0)} - {1.0}:
                rng = _FixedUniform(float(u))
                assert _draw(gains, theta, rng) == int(bounds.searchsorted(u, side="right"))
                assert rng.calls == 1
                checked += 1
    assert checked > 3000
    # two equal weights: the boundary 0.5 itself belongs to the second
    assert _draw([0.0, 0.0], 1.0, _FixedUniform(0.5)) == 1
    assert _draw([0.0, 0.0], 1.0, _FixedUniform(np.nextafter(0.5, 0.0))) == 0
