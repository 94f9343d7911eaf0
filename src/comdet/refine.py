"""Refine labeled communities into connected, modularity-improving sub-communities.

Each label's induced sub-network is partitioned by the best of several Leiden
runs, then sub-communities linked by edges, directly or through others, are
joined back into one. Leiden's sub-communities are connected, so the result is
one community per connected component of the label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import (
    Graph,
    Partition,
    _check_integer,
    canonical_labels,
    induced_subgraph,
    merge_partitions,
    split_into_components,
)
from .leiden import LeidenConfig, best_of_runs
from .metrics import modularity


@dataclass
class RefineConfig:
    leiden_runs: int = 10
    leiden: LeidenConfig | None = None  # settings of the per-label runs

    def __post_init__(self) -> None:
        _check_integer("leiden_runs", self.leiden_runs, 1)


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
        inners.append(_join_adjacent(sub, part))
    return merge_partitions(labels, inners)


def _join_adjacent(sub: Graph, part: Partition) -> Partition:
    """Join the sub-communities of ``part`` that edges of ``sub`` link, directly
    or through others: the components of the graph over sub-communities."""
    a = part.assignment
    between = Graph(part.k, np.stack([a[sub.edge_u], a[sub.edge_v]], axis=1))
    joined = split_into_components(between, Partition(np.zeros(part.k, dtype=np.int64)))
    return Partition(canonical_labels(joined.assignment[a]))
