"""Refine labeled communities into connected, modularity-improving sub-communities.

Each label's induced sub-network is partitioned by the best of several Leiden
runs, then sub-communities are merged back greedily, one pair per step, always
taking the pair whose merge raises global modularity the most. Merging stops
at the component-count threshold and never joins two sub-communities that
share no edge, so every refined community stays internally connected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .graph import (
    Graph,
    Partition,
    canonical_labels,
    component_counts,
    induced_subgraph,
    merge_partitions,
)
from .leiden import LeidenConfig, best_of_runs
from .metrics import modularity


class ThresholdRule(str, Enum):
    """Per-label merge floor: half the component count, or the full count."""

    HALF_COMPONENTS = "half-components"
    ALL_COMPONENTS = "all-components"


@dataclass
class RefineConfig:
    leiden_runs: int = 10
    threshold_rule: ThresholdRule = ThresholdRule.HALF_COMPONENTS
    leiden: LeidenConfig | None = None  # settings of the per-label runs

    def __post_init__(self) -> None:
        if self.leiden_runs < 1:
            raise ValueError(f"leiden_runs must be >= 1, got {self.leiden_runs}")


def refine_labels(g: Graph, labels: Partition, config: RefineConfig | None = None,
                  seed: int = 0) -> Partition:
    """Split every labeled community into connected sub-communities.

    Returns a refinement of ``labels``: no refined community crosses a label
    boundary, every refined community is connected, and global modularity
    never drops below that of ``labels``. The Leiden runs inside label ``c``
    are seeded from ``SeedSequence(entropy=seed, spawn_key=(c,))``.
    """
    cfg = config if config is not None else RefineConfig()
    if labels.n != g.n:
        raise ValueError("labels do not cover the graph")
    counts = component_counts(g, labels)
    inners = []
    for c in range(labels.k):
        members = np.flatnonzero(labels.assignment == c)
        sub = induced_subgraph(g, members)
        if sub.m == 0:
            part = Partition(np.arange(sub.n))
        else:
            part = best_of_runs(sub, cfg.leiden_runs, lambda p: modularity(sub, p),
                                config=cfg.leiden,
                                seed=np.random.SeedSequence(entropy=seed, spawn_key=(c,)))
        inners.append(_merge_down(g, members, sub, part, int(counts[c]), cfg.threshold_rule))
    return merge_partitions(labels, inners)


def _merge_down(g: Graph, members: np.ndarray, sub: Graph, part: Partition,
                comp_count: int, rule: ThresholdRule) -> Partition:
    """Greedy pair merging of one label's sub-communities.

    Gains are compared as integers (delta-Q times 2*m^2 equals
    2*m*e_ij - deg_i*deg_j on the full graph), ties go to the
    lexicographically smallest pair, and pairs without a connecting edge are
    never merged.
    """
    k = part.k
    if rule is ThresholdRule.HALF_COMPONENTS:
        threshold = comp_count / 2.0
    else:
        threshold = float(comp_count)
    target = max(math.ceil(threshold), 1)

    assign = part.assignment.copy()
    deg = [int(g.degrees[members[assign == i]].sum()) for i in range(k)]
    pair_e: dict[tuple[int, int], int] = {}
    for a, b in zip(sub.edge_u.tolist(), sub.edge_v.tolist()):
        ca, cb = int(assign[a]), int(assign[b])
        if ca != cb:
            key = (ca, cb) if ca < cb else (cb, ca)
            pair_e[key] = pair_e.get(key, 0) + 1

    m = g.m
    count = k
    while count > target and pair_e:  # stop once only disconnected pairs remain
        i, j = max(pair_e, key=lambda p: (2 * m * pair_e[p] - deg[p[0]] * deg[p[1]],
                                          -p[0], -p[1]))
        assign[assign == j] = i
        deg[i] += deg[j]
        folded: dict[tuple[int, int], int] = {}
        for (a, b), e in pair_e.items():
            a2 = i if a == j else a
            b2 = i if b == j else b
            if a2 == b2:
                continue  # the merged pair's own edges became internal
            key = (a2, b2) if a2 < b2 else (b2, a2)
            folded[key] = folded.get(key, 0) + e
        pair_e = folded
        count -= 1
    return Partition(canonical_labels(assign))
