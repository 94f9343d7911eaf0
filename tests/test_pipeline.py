"""Pipeline orchestration tests: modes, determinism, and reporting."""

from __future__ import annotations

import hashlib
import json
import sys
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator

import comdet
from comdet import pipeline
from comdet.birch import BirchConfig
from comdet.data_io import (
    DataError,
    DatasetBundle,
    SyntheticSpec,
    adjacency_as_features,
    generate_synthetic,
    load_dataset,
    write_bundle,
    write_results,
)
from comdet.gcn import GcnModel, training_bytes
from comdet.graph import Graph, Partition
from comdet.metrics import modularity, nmi
from comdet.pipeline import (
    MU_DEFAULTS,
    RunConfig,
    RunMode,
    RunResult,
    metric_report,
    resolve_mu,
    run,
)

from conftest import kernel_sensitive


def _small_cfg(**kw) -> RunConfig:
    base = dict(leiden_global_runs=5, epochs=120, hidden_dims=(24, 12, 8), seed=0)
    base.update(kw)
    return RunConfig(**base)


def test_resolve_mu_table_and_override():
    assert resolve_mu("cora") == 0.5
    assert resolve_mu("citeseer") == 0.2
    assert resolve_mu("Coauthor_CS") == 10.0
    assert resolve_mu("amazon photo") == 0.2
    assert resolve_mu("brand-new-network") == 0.5
    assert resolve_mu("cora", 3.5) == 3.5
    assert set(MU_DEFAULTS) == {"cora", "citeseer", "amazon-photo", "amazon-pc",
                                "coauthor-cs", "coauthor-phy"}


def test_block_diagonal_perfect_recovery():
    # clique blocks with deterministic signatures collapse to one embedding
    # point per block; a tight radius stops heavy entries from swallowing
    # the first points of the next block (CF radius dilution)
    bundle = generate_synthetic(
        SyntheticSpec(n=60, k=3, p_in=1.0, p_out=0.0, t=12, s=1.0, seed=2))
    res = run(bundle, _small_cfg(birch=BirchConfig(threshold_radius=0.25)))
    assert res.partition.equivalent_to(bundle.planted)
    assert nmi(res.partition, bundle.planted) == pytest.approx(1.0, abs=1e-9)


def test_modified_split_mode_connects_every_community():
    bundle = generate_synthetic(
        SyntheticSpec(n=90, k=3, p_in=0.3, p_out=0.03, t=9, s=0.7, seed=4))
    res = run(bundle, _small_cfg(mode=RunMode.MODIFIED_SPLIT))
    assert res.metrics["O_c"] == 1.0


def test_unrefined_labels_mode_uses_raw_labels():
    bundle = generate_synthetic(
        SyntheticSpec(n=60, k=3, p_in=0.5, p_out=0.02, t=6, s=0.8,
                      disconnect_fraction=0.7, seed=6))
    res = run(bundle, _small_cfg(mode=RunMode.UNREFINED_LABELS, epochs=40))
    assert res.refined_labels == bundle.labels
    full = run(bundle, _small_cfg(epochs=40))
    assert full.refined_labels != bundle.labels  # united labels get split


def test_lm_only_equals_full_with_mu_zero():
    bundle = generate_synthetic(
        SyntheticSpec(n=50, k=2, p_in=0.4, p_out=0.05, t=6, s=0.6, seed=8))
    a = run(bundle, _small_cfg(mode=RunMode.LM_ONLY, mu=0.7, epochs=60))
    b = run(bundle, _small_cfg(mu=0.0, epochs=60))
    assert a.partition == b.partition
    assert a.loss_trace == b.loss_trace


def test_lr_only_training_independent_of_leiden_target():
    bundle = generate_synthetic(
        SyntheticSpec(n=50, k=2, p_in=0.4, p_out=0.05, t=6, s=0.6, seed=10))
    a = run(bundle, _small_cfg(mode=RunMode.LR_ONLY, leiden_global_runs=2, epochs=60))
    b = run(bundle, _small_cfg(mode=RunMode.LR_ONLY, leiden_global_runs=6, epochs=60))
    assert a.loss_trace == b.loss_trace
    assert a.partition == b.partition


def test_saturated_bundle_makes_all_modes_coincide():
    # when the labels are connected and Leiden recovers them exactly, both
    # pairwise targets are equal, the mode objectives are positive multiples
    # of one another, and training lands on the same partition
    bundle = generate_synthetic(
        SyntheticSpec(n=60, k=3, p_in=0.6, p_out=0.02, t=12, s=0.9, seed=12))
    results = {mode: run(bundle, _small_cfg(mode=mode, epochs=80))
               for mode in (RunMode.FULL, RunMode.LM_ONLY, RunMode.LR_ONLY)}
    assert results[RunMode.FULL].modularity_target == results[RunMode.FULL].refined_labels
    parts = [r.partition for r in results.values()]
    assert parts[0] == parts[1] == parts[2]


def test_label_supervision_lifts_nmi_when_topology_is_weak():
    # near-random topology with strong attributes: the refined-label term is
    # the only source of label information, so dropping it must cost NMI
    bundle = generate_synthetic(
        SyntheticSpec(n=180, k=6, p_in=0.14, p_out=0.05, t=24, s=0.9, seed=42))
    cfg = dict(leiden_global_runs=15, epochs=250, hidden_dims=(64, 32, 16), seed=0)
    full = run(bundle, RunConfig(**cfg))
    lm_only = run(bundle, RunConfig(mode=RunMode.LM_ONLY, **cfg))
    assert full.metrics["NMI"] > lm_only.metrics["NMI"] + 0.03


def test_run_is_deterministic():
    bundle = generate_synthetic(
        SyntheticSpec(n=70, k=3, p_in=0.35, p_out=0.03, t=9, s=0.7,
                      disconnect_fraction=0.5, seed=14))
    a = run(bundle, _small_cfg(seed=9))
    b = run(bundle, _small_cfg(seed=9))
    assert a.partition == b.partition
    assert a.loss_trace == b.loss_trace
    strip = lambda m: {k: v for k, v in m.items() if k != "loss_trace"}
    assert strip(a.metrics) == strip(b.metrics)


def test_result_record_shape():
    bundle = generate_synthetic(
        SyntheticSpec(n=40, k=2, p_in=0.5, p_out=0.05, t=4, s=0.6, seed=16))
    cfg = _small_cfg(epochs=25)
    res = run(bundle, cfg)
    assert isinstance(res, RunResult)
    assert set(res.timings) == {"leiden", "refine", "train", "cluster", "metrics"}
    assert all(t >= 0 for t in res.timings.values())
    assert len(res.loss_trace) == 25
    assert res.loss_trace is res.metrics["loss_trace"]
    with pytest.raises(AttributeError):
        res.loss_trace = []
    assert set(res.metrics) == {"Q", "NMI", "Con", "F1", "O_c", "communities",
                                "loss_trace"}
    snap = cfg.snapshot(bundle.name)
    json.dumps(snap)  # must be serializable as-is
    assert snap["mu"] == 0.5 and snap["mode"] == "full"
    assert set(snap["refine"]) == {"leiden_runs", "leiden"}


def test_metric_report_examples():
    g = Graph(4, [(0, 1), (2, 3)])
    labels = Partition([0, 0, 1, 1])
    rep = metric_report(g, labels, labels)
    assert rep["NMI"] == pytest.approx(1.0, abs=1e-12)
    assert rep["F1"] == 1.0
    singles = Partition([0, 1, 2, 3])
    rep = metric_report(g, labels, singles)
    degsq = int((g.degrees ** 2).sum())
    assert rep["Q"] == pytest.approx(-degsq / (4 * g.m ** 2), abs=1e-12)
    assert rep["communities"] == 4


def test_trivial_label_fallback_scores_by_modularity():
    bundle = generate_synthetic(
        SyntheticSpec(n=40, k=2, p_in=0.6, p_out=0.05, t=4, s=0.5, seed=18))
    flat = DatasetBundle(bundle.graph, bundle.attributes,
                         Partition(np.zeros(40, dtype=np.int64)),
                         bundle.node_ids, name="flat")
    res = run(flat, _small_cfg(epochs=20))
    # the target must now be a genuine modularity optimum, not label-driven
    assert modularity(flat.graph, res.modularity_target) > 0.2



def test_sparse_attributes_run_like_their_dense_array():
    # attribute-free bundles carry CSR adjacency rows; fed the same rows as a
    # dense array, the run takes the same factored first layer, bit for bit
    bundle = generate_synthetic(
        SyntheticSpec(n=240, k=3, p_in=0.05, p_out=0.005, t=6, seed=5))
    x = adjacency_as_features(bundle.graph)
    runs = [run(DatasetBundle(bundle.graph, feats, bundle.labels, bundle.node_ids,
                              name="adjacency"), _small_cfg(epochs=30))
            for feats in (x, x.toarray())]
    assert isinstance(runs[0].model.propagate(x).args[0], LinearOperator)
    assert runs[0].metrics == runs[1].metrics
    assert runs[0].partition == runs[1].partition

def test_stage_failures_name_the_stage(monkeypatch):
    bundle = generate_synthetic(
        SyntheticSpec(n=30, k=2, p_in=0.5, p_out=0.05, t=4, s=0.5, seed=20))

    def boom(*a, **kw):
        raise ValueError("synthetic failure")

    monkeypatch.setattr("comdet.pipeline.birch_cluster", boom)
    with pytest.raises(RuntimeError, match="stage 'cluster'"):
        run(bundle, _small_cfg(epochs=5))


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(leiden_global_runs=0)
    with pytest.raises(ValueError):
        RunConfig(epochs=-1)
    with pytest.raises(ValueError):
        RunConfig(mode="no-such-mode")
    for bad in (0, -3):
        with pytest.raises(ValueError, match=f"parallel_runs must be >= 1, got {bad}"):
            RunConfig(parallel_runs=bad)
    assert RunConfig(mode="lr-only").mode is RunMode.LR_ONLY
    for bad in (float("nan"), float("inf"), -1.0, 0.0):
        with pytest.raises(ValueError, match=f"learning_rate must be finite and > 0, got {bad}"):
            RunConfig(learning_rate=bad)
    for bad in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match=f"mu must be finite and >= 0, got {bad}"):
            RunConfig(mu=bad)
    assert RunConfig(mu=0.0).mu == 0.0
    for bad in ((1, 2), (16, 0, 8), (16, 8, 6, 4), (8.5, 4, 2), (16, True, 8), (16.0, 8, 6)):
        with pytest.raises(ValueError, match="hidden_dims must be three positive sizes"):
            RunConfig(hidden_dims=bad)
    for name in ("epochs", "leiden_global_runs", "parallel_runs", "seed"):
        for bad in (True, 2.5, 3.0, "3"):
            with pytest.raises(ValueError, match=f"{name} must be an integer, got {bad!r}"):
                RunConfig(**{name: bad})
        assert getattr(RunConfig(**{name: np.int64(3)}), name) == 3
    assert RunConfig(hidden_dims=tuple(np.arange(3, 6))).hidden_dims == (3, 4, 5)
    for name in ("learning_rate", "mu"):
        for bad in (True, False):
            with pytest.raises(ValueError, match=f"{name} must be a number, got {bad}"):
                RunConfig(**{name: bad})
    # the nested stage configs check their integer settings the same way
    for cls, name in ((comdet.LeidenConfig, "max_passes"), (comdet.RefineConfig, "leiden_runs")):
        for bad in (True, 2.5, 3.0, "3"):
            with pytest.raises(ValueError, match=f"{name} must be an integer, got {bad!r}"):
                cls(**{name: bad})
        with pytest.raises(ValueError, match=f"{name} must be >= 1, got 0"):
            cls(**{name: 0})
        assert getattr(cls(**{name: np.int64(3)}), name) == 3


def test_public_surface_is_pinned():
    # a new export should be a deliberate change to this list
    assert sorted(comdet.__all__) == [
        "BirchConfig", "DataError", "DatasetBundle", "GcnModel", "Graph",
        "LeidenConfig", "MU_DEFAULTS", "PairwiseTarget", "Partition", "RefineConfig",
        "RunConfig", "RunMode", "RunResult", "SyntheticSpec", "TrainingDiverged",
        "__version__", "adjacency_as_features", "best_of_runs", "birch_cluster",
        "conductance", "connectivity_score", "f1_score", "generate_synthetic",
        "induced_subgraph", "leiden", "load_checkpoint", "load_cora_content", "load_dataset",
        "load_partition", "merge_partitions", "metric_report", "modularity", "nmi",
        "normalized_adjacency", "pairwise_loss", "refine_labels", "resolve_mu", "run",
        "save_checkpoint", "split_into_components", "train",
        "write_bundle", "write_results",
    ]
    # the package re-exports each module's __all__, in import order, and
    # declares no public name of its own but its version
    modules = [sys.modules[f"comdet.{name}"] for name in (
        "graph", "metrics", "leiden", "refine", "gcn", "loss", "birch", "data_io", "pipeline")]
    assert comdet.__all__ == [name for m in modules for name in m.__all__] + ["__version__"]
    for m in modules:
        for name in m.__all__:
            assert getattr(comdet, name) is getattr(m, name), f"{m.__name__}.{name}"
    # the function, not the submodule of the same name
    assert comdet.leiden is sys.modules["comdet.leiden"].leiden


def _pinned_cfg(mode: RunMode) -> RunConfig:
    # a tight CF radius keeps a dozen output communities, so every mode's
    # metrics differ from every other's
    return RunConfig(mode=mode, leiden_global_runs=3, epochs=12,
                     hidden_dims=(16, 8, 6), seed=4,
                     birch=BirchConfig(threshold_radius=0.15))


def _metrics_digest(tmp_path, bundle, cfg: RunConfig) -> str:
    res = run(bundle, cfg)
    paths = write_results(tmp_path / cfg.mode.value, res.partition, res.metrics,
                          cfg.snapshot(bundle.name), node_ids=bundle.node_ids)
    return hashlib.sha256(paths["metrics"].read_bytes()).hexdigest()


def _triplet_bundle(tmp_path) -> DatasetBundle:
    """A block-model graph with bag-of-words triplet attributes, about 3%
    nonzero. Every node first gets an explicit zero in the last column; one
    ``(id, index)`` is then repeated with a new value and another with zero."""
    src = generate_synthetic(SyntheticSpec(n=80, k=4, p_in=0.2, p_out=0.02, seed=11))
    paths = write_bundle(src, tmp_path / "src")
    rng = np.random.default_rng(13)
    t = 300
    rows, cols = np.nonzero(rng.random((src.n, t)) < 0.03)
    values = rng.integers(1, 4, size=rows.size).tolist()
    lines = [f"{i} {t - 1} 0" for i in range(src.n)]
    lines += [f"{i} {j} {v}" for i, j, v in zip(rows, cols, values)]
    lines += [f"{rows[0]} {cols[0]} 7.5", f"{rows[1]} {cols[1]} 0.0"]
    attrs = tmp_path / "attrs.txt"
    attrs.write_text("\n".join(lines) + "\n")
    return load_dataset(paths["edges"], attrs, paths["labels"], name="triplets")


# literal sha256 of metrics.json per mode, keyed outside the test ids so
# that a re-pin keeps each test's name
_MODE_DIGESTS = {
    RunMode.FULL: "3cfc9278915cdade4603f730937af12934059d315d9da8889781de1bd40bfd59",
    RunMode.LM_ONLY: "c2e5f31838f120cb46d44890185c4b2810eaf49bb1a5d8f50d0afb79607d8106",
    RunMode.LR_ONLY: "336283eec36ed76471c0ff54ced3935a3ced154732b3ae87401e103306f9bf74",
    RunMode.UNREFINED_LABELS:
        "c8084e31fda5f0046ff6bd79ad2f618e18817350dbce1dbbf28aad637af2eb8a",
    RunMode.MODIFIED_SPLIT:
        "501a09dcad3a78a0c4061caec932af1aa42ddcd905ecf52bd7b78ff7d1453f8d",
}


@pytest.mark.parametrize("mode", list(_MODE_DIGESTS), ids=lambda m: m.value)
def test_run_metrics_are_pinned_per_mode(tmp_path, mode):
    """Literal sha256 of metrics.json (loss trace included) for every mode,
    so a change to how the encoder's input is built that moves a bit fails."""
    bundle = generate_synthetic(
        SyntheticSpec(n=90, k=3, p_in=0.15, p_out=0.04, t=9, s=0.5,
                      disconnect_fraction=0.5, seed=8))
    with kernel_sensitive():
        assert _metrics_digest(tmp_path, bundle, _pinned_cfg(mode)) == _MODE_DIGESTS[mode]


def test_triplet_bundle_metrics_are_pinned(tmp_path):
    bundle = _triplet_bundle(tmp_path)
    with kernel_sensitive():
        assert _metrics_digest(tmp_path, bundle, _pinned_cfg(RunMode.FULL)) == (
            "c423c578bc6c5a5c1d65b2e961ac2788a2384849eed0025d3b58d830a5c546a2")


def test_triplet_attributes_are_canonical_csr_and_run_like_their_dense_array(tmp_path):
    bundle = _triplet_bundle(tmp_path)
    x = bundle.attributes
    assert sp.isspmatrix_csr(x) and x.shape == (80, 300)
    assert x.has_canonical_format and np.all(x.data != 0)
    dense = DatasetBundle(bundle.graph, x.toarray(), bundle.labels, bundle.node_ids,
                          name=bundle.name)
    runs = [run(b, _pinned_cfg(RunMode.FULL)) for b in (bundle, dense)]
    assert runs[0].metrics == runs[1].metrics
    assert runs[0].partition == runs[1].partition


def test_run_refuses_an_encoder_larger_than_memory_before_any_stage(monkeypatch):
    def no_stage(*args, **kwargs):
        raise AssertionError("a pipeline stage ran")

    bundle = generate_synthetic(SyntheticSpec(n=40, k=2, p_in=0.5, p_out=0.05, t=4, seed=16))
    cfg = _small_cfg(hidden_dims=(8, 6, 4))
    need = training_bytes(40, 4, (8, 6, 4))
    # weights, gradients and two Adam moments, and the forward cache
    assert need == 8 * (4 * (4 * 8 + 8 * 6 + 6 * 4) + 40 * (8 + 6 + 4 + 3))
    monkeypatch.setattr(pipeline, "best_of_runs", no_stage)
    monkeypatch.setattr(pipeline, "_physical_memory", lambda: need - 1)
    with pytest.raises(DataError) as info:
        run(bundle, cfg)
    assert str(info.value) == (
        f"the encoder for T=4 attribute columns and hidden_dims=(8, 6, 4) needs {need} "
        f"bytes to train, more than the {need - 1} bytes of physical memory")
    monkeypatch.setattr(pipeline, "_physical_memory", lambda: need)
    with pytest.raises(RuntimeError, match="stage 'leiden' failed: a pipeline stage ran"):
        run(bundle, cfg)


def test_run_propagates_the_attributes_once(monkeypatch):
    calls = []
    propagate = GcnModel.propagate

    def counted(self, x):
        calls.append(x)
        return propagate(self, x)

    monkeypatch.setattr(GcnModel, "propagate", counted)
    bundle = generate_synthetic(SyntheticSpec(n=40, k=2, p_in=0.5, p_out=0.05, t=4, seed=16))
    run(bundle, _small_cfg(epochs=5))
    assert len(calls) == 1 and calls[0] is bundle.attributes


def test_cluster_stage_frees_the_forward_cache_before_birch(monkeypatch):
    """The final forward's cache (one n×d array per layer and head entry) is
    gone by the time the CF tree runs, so it adds nothing to that stage's
    memory."""

    class Cache(dict):  # a plain dict takes no weak reference
        pass

    caches = []
    forward = GcnModel.forward

    def tracked(self, ax0):
        xe, cache = forward(self, ax0)
        cache = Cache(cache)
        caches.append(weakref.ref(cache))
        return xe, cache

    alive = []
    birch_cluster = pipeline.birch_cluster

    def clustered(xe, config):
        alive.append(caches[-1]() is not None)
        return birch_cluster(xe, config)

    monkeypatch.setattr(GcnModel, "forward", tracked)
    monkeypatch.setattr(pipeline, "birch_cluster", clustered)
    bundle = generate_synthetic(SyntheticSpec(n=40, k=2, p_in=0.5, p_out=0.05, t=4, seed=16))
    run(bundle, _small_cfg(epochs=3))
    assert len(caches) == 4  # three epochs, then the embedding that is clustered
    assert alive == [False]
