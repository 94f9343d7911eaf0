"""Property tests of the refinement invariants on generated labelled graphs.

Skipped when hypothesis is not installed; runs under the ``tier1`` profile
of conftest.py (derandomized, no example database) with a small example
budget, so the suite stays fast and reproducible.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from comdet.graph import (
    Graph,
    Partition,
    canonical_labels,
    component_counts,
    split_into_components,
)
from comdet.metrics import modularity
from comdet.refine import RefineConfig, refine_labels


@st.composite
def labelled_graphs(draw) -> tuple[Graph, Partition]:
    n = draw(st.integers(1, 30))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return Graph(n, edges), Partition(canonical_labels(np.asarray(labels)))


@settings(settings.get_profile("tier1"), max_examples=40)
@given(labelled_graphs(), st.integers(0, 2**32 - 1))
def test_refinement_invariants_hold(graph_and_labels, seed):
    g, labels = graph_and_labels
    refined = refine_labels(g, labels, RefineConfig(leiden_runs=2), seed=seed)
    assert refined == split_into_components(g, labels)
    assert refined.n == g.n
    # refines the labels: each refined community lies inside a single label
    pairs = np.unique(refined.assignment * labels.k + labels.assignment)
    assert pairs.size == refined.k
    assert (component_counts(g, refined) == 1).all()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an edgeless graph scores 0 with a warning
        assert modularity(g, refined) >= modularity(g, labels) - 1e-12
