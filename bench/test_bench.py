"""Tests of the benchmark's own code: the block-model generator and the tracer.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import comdet  # noqa: E402
import sbm  # noqa: E402
import tracing  # noqa: E402
from checks import OracleGraph, label_codes  # noqa: E402
from workloads import WORKLOADS, make_sbm10k  # noqa: E402


@pytest.fixture(scope="module")
def sbm10k(tmp_path_factory):
    return make_sbm10k(3, tmp_path_factory.mktemp("sbm10k"))


@pytest.mark.parametrize("name", ["sbm10k", "cora2708"])
def test_same_seed_writes_identical_files(name, tmp_path):
    a = WORKLOADS[name].make(5, tmp_path / "a")
    b = WORKLOADS[name].make(5, tmp_path / "b")
    c = WORKLOADS[name].make(6, tmp_path / "c")
    for key in ("edges", "attrs", "labels"):
        assert a[key].read_bytes() == b[key].read_bytes()
    assert a["edges"].read_bytes() != c["edges"].read_bytes()


def test_every_sbm10k_label_is_disconnected(sbm10k):
    g = OracleGraph(sbm10k)
    labels = label_codes(sbm10k["labels"])
    same = labels[g.u] == labels[g.v]
    adj = sp.coo_matrix((np.ones(int(same.sum())), (g.u[same], g.v[same])), shape=(g.n, g.n))
    comp = connected_components(adj, directed=False)[1]
    per_label = np.bincount(np.unique(labels * g.n + comp) // g.n)
    assert per_label.size == 40 and per_label.min() >= 2


def test_sbm10k_loads_with_expected_shape(sbm10k):
    bundle = comdet.load_dataset(sbm10k["edges"], sbm10k["attrs"], sbm10k["labels"])
    assert bundle.n == 10000 and bundle.t == 32
    assert 9.0 < 2 * bundle.graph.m / bundle.n < 11.0
    assert 0.45 < bundle.attributes.mean() < 0.55
    assert bundle.graph.dropped_duplicates == 0 and bundle.graph.dropped_self_loops == 0


def test_paired_blocks_share_no_edge():
    rng = np.random.default_rng(0)
    edges = sbm.block_edges([50] * 4, 0.2, 0.05, rng, no_edges={(0, 1), (2, 3)})
    block = edges // 50
    assert np.all(edges[:, 0] < edges[:, 1])
    assert not np.any((block[:, 0] == 0) & (block[:, 1] == 1))
    assert not np.any((block[:, 0] == 2) & (block[:, 1] == 3))
    assert np.any((block[:, 0] == 0) & (block[:, 1] == 2))


def test_sbm10k_peak_memory_far_below_one_dense_matrix(tmp_path):
    dense_bytes = 10000 * 10000 * 8
    tracemalloc.start()
    try:
        make_sbm10k(7, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 20


def test_tracer_restores_functions_and_records_layers():
    pipeline = sys.modules["comdet.pipeline"]
    before = (pipeline.best_of_runs, sys.modules["comdet.refine"].best_of_runs,
              sys.modules["comdet.leiden"].split_into_components,
              comdet.GcnModel.forward, sys.modules["comdet.loss"].pairwise_loss)
    bundle = comdet.generate_synthetic(comdet.SyntheticSpec(n=60, k=3, t=6, seed=1))
    cfg = comdet.RunConfig(leiden_global_runs=2, refine=comdet.RefineConfig(leiden_runs=1),
                           epochs=3, hidden_dims=(8, 8, 4))
    plain = comdet.run(bundle, cfg).metrics
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = comdet.run(bundle, cfg).metrics
    finally:
        tracer.uninstall()
    after = (pipeline.best_of_runs, sys.modules["comdet.refine"].best_of_runs,
             sys.modules["comdet.leiden"].split_into_components,
             comdet.GcnModel.forward, sys.modules["comdet.loss"].pairwise_loss)
    assert all(a is b for a, b in zip(before, after))
    assert traced == plain
    layers = tracing.layer_metrics(tracer, {"n": 60, "nnz": 2 * bundle.graph.m,
                                            "dims": (6, 8, 8, 4)})
    assert layers["gcn.epochs"] == 3 and layers["loss.calls"] == 6
    assert layers["leiden.calls"] == 2 + 3  # two global runs, one per label
    assert layers["leiden.passes"] >= layers["leiden.calls"]
    assert layers["leiden.target_s"] > 0 and layers["refine.leiden_s"] > 0
    assert layers["birch.points"] == 60


def test_checks_flag_each_broken_property(tmp_path):
    from types import SimpleNamespace

    from checks import check_run

    bundle = comdet.generate_synthetic(comdet.SyntheticSpec(n=60, k=3, t=6, seed=2))
    paths = comdet.write_bundle(bundle, tmp_path)
    g = OracleGraph(paths)
    labels = label_codes(paths["labels"])
    good = comdet.split_into_components(bundle.graph, bundle.labels)
    ok = SimpleNamespace(partition=good, modularity_target=good, refined_labels=good,
                         loss_trace=[1.0, 0.5])
    assert check_run(g, labels, ok, epochs=2) == []

    # the last node joins node 0's community, which it has no edge into
    split = good.assignment.copy()
    far = int(np.flatnonzero(bundle.graph.degrees > 0)[-1])
    split[far] = split[0]
    bad_target = comdet.Partition(comdet.graph.canonical_labels(split))
    crossing = comdet.Partition(np.zeros(60, dtype=np.int64))
    cases = {
        "target": dict(modularity_target=bad_target),
        "cross a label": dict(refined_labels=crossing),
        "loss trace": dict(loss_trace=[1.0, float("nan")]),
        "partition": dict(partition=comdet.Partition(np.zeros(59, dtype=np.int64))),
    }
    for needle, change in cases.items():
        broken = SimpleNamespace(**{**vars(ok), **change})
        failures = check_run(g, labels, broken, epochs=2)
        assert any(needle in f for f in failures), (needle, failures)
