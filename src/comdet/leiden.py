"""Leiden community detection: queue-based local moving, refinement, aggregation.

Communities returned by :func:`leiden` are always internally connected, and at
convergence no single-node move can increase modularity. Both guarantees come
from the outer loop: each pass reruns the full multilevel procedure from the
flattened partition of the previous pass, any disconnected community is split
into its components after every pass, and the loop stops only when an entire
pass changes nothing. Move gains are compared in exact integer arithmetic
(gain scaled by 4*m^2 is an integer on integer-weighted graphs), so runs are
bit-deterministic for a given seed.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .graph import Graph, Partition, _check_integer, canonical_labels, split_into_components

THETA = 0.01  # refinement draws a merge with probability ∝ exp(gain / THETA)


@dataclass
class LeidenConfig:
    """Knobs for :func:`leiden`. Quality is fixed to modularity at resolution 1."""

    max_passes: int = 20

    def __post_init__(self) -> None:
        _check_integer("max_passes", self.max_passes, 1)


class _LevelGraph:
    """Weighted aggregate graph for one level of the hierarchy.

    ``src``, ``dst`` and ``w`` are integer arrays holding both directions of
    every edge between distinct nodes, sorted by (src, dst). ``strength[v]``
    is the weighted degree of ``v`` including twice the weight of edges
    contracted inside it, so ``sum(strength) == two_m`` at every level.
    ``strength`` and the per-node ascending ``nbrs``/``ws`` rows are Python
    lists for the scalar loops of local moving and refinement, which share
    ``scratch``: one zeroed entry per node or community id, where a loop
    sums a node's edge weight per neighbouring community and zeroes it
    again before moving on.
    """

    def __init__(self, src: np.ndarray, dst: np.ndarray, w: np.ndarray,
                 strength: np.ndarray, two_m: int) -> None:
        self.n = int(strength.size)
        self.src, self.dst, self.w = src, dst, w
        self.strength = strength.tolist()
        self.two_m = two_m
        bounds = np.searchsorted(src, np.arange(self.n + 1)).tolist()
        dst_l, w_l = dst.tolist(), w.tolist()
        self.nbrs = [dst_l[i:j] for i, j in zip(bounds, bounds[1:])]
        self.ws = [w_l[i:j] for i, j in zip(bounds, bounds[1:])]
        self.scratch = [0] * self.n

    @classmethod
    def from_graph(cls, g: Graph) -> "_LevelGraph":
        src = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees)
        return cls(src, g.indices, np.ones_like(g.indices), g.degrees, 2 * g.m)


def _local_move(lg: _LevelGraph, comm: list[int], rng: np.random.Generator) -> None:
    """Move nodes to strictly better communities until none exists.

    Each attempt sums the node's edge weight per neighbouring community into
    the level's zeroed ``scratch`` list, noting each community it touches,
    and zeroes those entries again while it scores them in one unordered
    pass. The best other community is the one of highest gain, lowest id
    among equal gains; the node moves there only if that beats staying
    (ties stay), and to a fresh singleton when every option loses
    modularity. An attempt that keeps the node where it is writes nothing.

    After the FIFO queue drains, full sweeps re-check every node: a move
    changes sigma_tot of two communities, which can flip the best choice of
    nodes that are not adjacent to the mover, so queue exhaustion alone does
    not certify the fixpoint.
    """
    n = lg.n
    two_m = lg.two_m
    strength = lg.strength
    nbrs, ws = lg.nbrs, lg.ws
    scratch = lg.scratch
    touched: list[int] = []

    k = max(comm) + 1
    sigma_tot = [0] * n
    for v in range(n):
        sigma_tot[comm[v]] += strength[v]
    free = list(range(n - 1, k - 1, -1))  # pop() hands out unused labels ascending

    queue = deque(rng.permutation(n).tolist())
    in_queue = [True] * n

    def attempt(v: int) -> bool:
        cv = comm[v]
        kv = strength[v]
        for u, wt in zip(nbrs[v], ws[v]):
            cu = comm[u]
            if not scratch[cu]:
                touched.append(cu)
            scratch[cu] += wt
        sigma_cv = sigma_tot[cv] - kv
        best_c = cv
        best_gain = scratch[cv] * two_m - sigma_cv * kv
        # cv scores kv*kv below staying when the loop meets it, so it never wins
        for c in touched:
            gain = scratch[c] * two_m - sigma_tot[c] * kv
            scratch[c] = 0
            if gain >= best_gain and (gain > best_gain or (c < best_c and best_c != cv)):
                best_gain, best_c = gain, c
        touched.clear()
        if best_gain < 0 and sigma_cv > 0:
            best_c = free.pop()  # a fresh singleton (gain 0) beats every option
        elif best_c == cv:
            return False
        comm[v] = best_c
        sigma_tot[cv] = sigma_cv
        sigma_tot[best_c] += kv
        if sigma_cv == 0:
            free.append(cv)
        for u in nbrs[v]:
            if comm[u] != best_c and not in_queue[u]:
                queue.append(u)
                in_queue[u] = True
        return True

    while True:
        while queue:
            v = queue.popleft()
            in_queue[v] = False
            attempt(v)
        improved = False
        for v in range(n):
            if attempt(v):
                improved = True
        if not improved:  # a sweep that moved nothing enqueued nothing
            return


def _draw(gains: list[float], theta: float, rng: np.random.Generator) -> int:
    """Index drawn with probability proportional to exp(gain / theta).

    Runs the steps of ``rng.choice(len(gains), p=p / p.sum())`` without its
    argument checks: normalise, cumulative sum rescaled to end at 1, then
    one ``rng.random()`` placed with ``searchsorted``. Index and generator
    state match ``choice`` bit for bit.
    """
    logits = np.asarray(gains) / theta
    p = np.exp(logits - logits.max())
    p /= p.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _refine(lg: _LevelGraph, comm: list[int], rng: np.random.Generator) -> list[int]:
    """Sub-partition each community by merging singleton nodes into neighbors.

    Only nodes still alone are candidates, merges stay inside the node's
    community, require a connecting edge, and must not decrease modularity.
    Edge weight per neighbouring group is summed in the level's ``scratch``
    list, and the touched groups are scored in ascending id order. Among
    admissible targets one is drawn with probability proportional to
    exp(gain/THETA) (:func:`_draw`), which keeps better merges likely while
    letting the aggregation explore slightly different groupings per seed.
    """
    n = lg.n
    two_m = lg.two_m
    strength = lg.strength
    nbrs, ws = lg.nbrs, lg.ws
    scratch = lg.scratch
    scale = 2.0 / float(two_m) ** 2 if two_m else 0.0

    ref = list(range(n))
    ref_sigma = list(strength)
    ref_size = [1] * n

    for v in rng.permutation(n).tolist():
        rv = ref[v]
        if ref_size[rv] != 1:
            continue
        cv = comm[v]
        touched: list[int] = []
        for u, wt in zip(nbrs[v], ws[v]):
            if comm[u] == cv:
                s = ref[u]
                if s != rv:
                    if not scratch[s]:
                        touched.append(s)
                    scratch[s] += wt
        if not touched:
            continue
        if len(touched) > 1:
            touched.sort()  # the draw depends on candidate order
        kv = strength[v]
        cands: list[int] = []
        gains: list[float] = []
        for s in touched:
            gain = scratch[s] * two_m - ref_sigma[s] * kv
            scratch[s] = 0
            if gain >= 0:
                cands.append(s)
                gains.append(float(gain) * scale)
        if not cands:
            continue
        target = cands[0] if len(cands) == 1 else cands[_draw(gains, THETA, rng)]
        ref[v] = target
        ref_sigma[target] += kv
        ref_sigma[rv] -= kv
        ref_size[target] += 1
        ref_size[rv] -= 1
    return ref


def _aggregate(lg: _LevelGraph, ref: np.ndarray,
               comm: list[int]) -> tuple[_LevelGraph, list[int]]:
    """Contract each refined group to one node; multiplicities become weights.

    Edges inside a group are dropped (their weight already counts in the
    group's strength); the rest are merged by one ``np.unique`` over
    ``a * r + b`` keys, which leaves them sorted by (src, dst). Weights and
    strengths are summed in float64 by ``bincount``, exact while
    ``two_m < 2**53``.
    """
    r = int(ref.max()) + 1
    a, b = ref[lg.src], ref[lg.dst]
    keep = a != b
    keys, inv = np.unique(a[keep] * r + b[keep], return_inverse=True)
    w = np.bincount(inv, weights=lg.w[keep]).astype(np.int64)
    strength = np.bincount(ref, weights=lg.strength).astype(np.int64)
    new_comm = np.empty(r, dtype=np.int64)
    new_comm[ref] = comm
    return _LevelGraph(keys // r, keys % r, w, strength, lg.two_m), new_comm.tolist()


def _one_pass(lg: _LevelGraph, start: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One multilevel pass over level-0 graph ``lg`` from canonical ``start``.

    Returns dense labels in no canonical order. ``lg`` comes back unchanged
    (its ``scratch`` is zeroed after each use), so one serves every pass.
    """
    comm = start.tolist()
    leaf = np.arange(lg.n, dtype=np.int64)
    while lg.n:
        _local_move(lg, comm, rng)
        dense = canonical_labels(np.asarray(comm, dtype=np.int64))
        comm = dense.tolist()
        if int(dense.max()) + 1 == lg.n:
            break
        ref = canonical_labels(np.asarray(_refine(lg, comm, rng), dtype=np.int64))
        if int(ref.max()) + 1 == lg.n:
            break  # nothing merged; aggregation would be the identity
        lg, comm = _aggregate(lg, ref, comm)
        leaf = ref[leaf]
    return np.asarray(comm, dtype=np.int64)[leaf]


def leiden(g: Graph, config: LeidenConfig | None = None,
           seed: int | np.random.SeedSequence | None = 0) -> Partition:
    """Detect communities by modularity optimization.

    Deterministic for a given ``seed`` (anything ``np.random.default_rng``
    takes). Edgeless graphs come back as singletons.
    """
    cfg = config if config is not None else LeidenConfig()
    rng = np.random.default_rng(seed)
    lg = _LevelGraph.from_graph(g)
    comm = np.arange(g.n, dtype=np.int64)
    for _ in range(cfg.max_passes):
        split = split_into_components(g, Partition(_one_pass(lg, comm, rng)))
        nxt = canonical_labels(split.assignment)
        if np.array_equal(nxt, comm):
            break
        comm = nxt
    return Partition(comm)


def best_of_runs(g: Graph, runs: int, score, config: LeidenConfig | None = None,
                 seed: int | np.random.SeedSequence | None = 0,
                 parallel: int = 1) -> Partition:
    """Best scoring partition over ``runs`` seeded Leiden runs.

    ``score`` maps a partition to a real number; ties go to the lowest run
    index. Run seeds are spawned deterministically from ``seed`` (an
    integer, a numpy integer or a ``SeedSequence``, whose spawn key they
    extend; ``None`` counts as 0), so repeated calls reproduce the same
    winner. The seeds come from a copy, so a caller's ``SeedSequence`` is
    not advanced. When ``min(parallel, runs, os.cpu_count())`` is above 1
    the runs go to a process pool of that many ``spawn`` workers, whatever
    the platform's default start method; results match the serial ones.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if parallel < 1:
        raise ValueError(f"parallel must be >= 1, got {parallel}")
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(0 if seed is None else int(seed))
    seeds = np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key).spawn(runs)
    one_run = partial(leiden, g, config)
    workers = min(parallel, runs, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            parts = list(pool.map(one_run, seeds))
    else:
        parts = [one_run(s) for s in seeds]
    scores = np.asarray([float(score(p)) for p in parts])
    return parts[int(np.argmax(scores))]
