"""Encoder tests: activation math, forward chain, gradients, training, I/O."""

from __future__ import annotations

import importlib
import math
import struct

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, aslinearoperator

from comdet.data_io import SyntheticSpec, generate_synthetic
from comdet.gcn import (
    EPS,
    SELU_ALPHA,
    SELU_LAMBDA,
    AdamState,
    GcnModel,
    TrainingDiverged,
    _selu_grad_of_output,
    load_checkpoint,
    normalized_adjacency,
    save_checkpoint,
    selu,
    train,
    training_bytes,
)
from comdet.graph import Graph, Partition, split_into_components
from comdet.loss import PairwiseTarget, pairwise_loss
from comdet.pipeline import RunConfig

from conftest import (assert_same_bits, random_connected_graph, random_graph, random_partition,
                      reference_selu_grad, traced_peak)

gcn_module = importlib.import_module("comdet.gcn")


def test_selu_hand_values():
    assert selu(np.array(0.0)) == 0.0
    assert selu(np.array(1.0)) == pytest.approx(SELU_LAMBDA, rel=1e-15)
    assert selu(np.array(-2.0)) == pytest.approx(
        SELU_LAMBDA * SELU_ALPHA * math.expm1(-2.0), rel=1e-15)
    assert _selu_grad_of_output(selu(np.array(3.0)), 1) == pytest.approx(
        SELU_LAMBDA, rel=1e-15)
    assert _selu_grad_of_output(selu(np.array(-1.0)), 1) == pytest.approx(
        SELU_LAMBDA * SELU_ALPHA * math.exp(-1.0), rel=1e-15)


def test_selu_grad_matches_finite_differences():
    # the derivative jumps at 0, so probe strictly on either side of the kink
    z = np.linspace(-3, 3, 30)
    h = 1e-6
    fd = (selu(z + h) - selu(z - h)) / (2 * h)
    assert np.allclose(_selu_grad_of_output(selu(z), 1), fd, atol=1e-8)


def test_normalized_adjacency_path():
    g = Graph(3, [(0, 1), (1, 2)])
    a = normalized_adjacency(g).toarray()
    v = 1.0 / math.sqrt(2.0)
    expected = np.array([[0, v, 0], [v, 0, v], [0, v, 0]])
    assert np.allclose(a, expected, atol=1e-15)


def test_normalized_adjacency_isolated_node_zero_row():
    g = Graph(4, [(0, 1), (1, 2)])
    a = normalized_adjacency(g).toarray()
    assert np.all(a[3] == 0.0)
    assert np.all(a[:, 3] == 0.0)
    assert np.all(np.isfinite(a))


def _coo_normalized_adjacency(g: Graph) -> sp.csr_matrix:
    """The earlier construction: CSR rebuilt from both edge directions, then
    two products with the diagonal D^{-1/2}."""
    rows = np.concatenate([g.edge_u, g.edge_v])
    cols = np.concatenate([g.edge_v, g.edge_u])
    a = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(g.n, g.n))
    with np.errstate(divide="ignore"):
        dinv = 1.0 / np.sqrt(g.degrees.astype(np.float64))
    dinv[g.degrees == 0] = 0.0
    d = sp.diags(dinv)
    return (d @ a @ d).tocsr()


def test_normalized_adjacency_is_bit_equal_to_the_coo_construction():
    rng = np.random.default_rng(83)
    graphs = [Graph(0), Graph(3), Graph(4, [(0, 1), (1, 2)])]
    for _ in range(40):
        n = int(rng.integers(1, 60))
        graphs.append(Graph(n, rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))))
    graphs.append(generate_synthetic(SyntheticSpec(seed=42)).graph)
    for g in graphs:
        got, ref = normalized_adjacency(g), _coo_normalized_adjacency(g)
        assert got.shape == ref.shape
        for name in ("data", "indices", "indptr"):
            assert_same_bits(getattr(got, name), getattr(ref, name))


def _scalar_embed(t: float) -> float:
    """One-column embedding head applied to a single last-layer value."""
    den = t + EPS * (1.0 if t >= 0 else -1.0)
    xb = t / den
    xh = math.tanh(xb)
    r = abs(xh)
    u = xh * xh / (r + EPS)
    s = abs(u)
    return u / s if s > EPS else 0.0


def test_forward_scalar_chain():
    # 2-node path with one attribute column and 1-wide layers: every stage is
    # a scalar recurrence we can replay with plain Python floats
    g = Graph(2, [(0, 1)])
    model = GcnModel(g, in_dim=1, hidden_dims=(1, 1, 1), seed=0)
    w0, w1, w2 = 0.7, -1.3, 0.45
    model.weights = [np.array([[w0]]), np.array([[w1]]), np.array([[w2]])]
    x = np.array([[2.0], [-0.5]])
    xe, cache = model.forward(model.propagate(x))

    def sel(v: float) -> float:
        return SELU_LAMBDA * v if v >= 0 else SELU_LAMBDA * SELU_ALPHA * math.expm1(v)

    # the normalized adjacency of an edge swaps the two rows at each layer
    a, b = 2.0, -0.5
    h0a, h0b = sel(b * w0), sel(a * w0)
    h1a, h1b = sel(h0b * w1), sel(h0a * w1)
    h2a, h2b = sel(h1b * w2), sel(h1a * w2)
    assert cache["h3"][0, 0] == pytest.approx(h2a, rel=1e-14)
    assert cache["h3"][1, 0] == pytest.approx(h2b, rel=1e-14)
    assert xe[0, 0] == pytest.approx(_scalar_embed(h2a), abs=1e-12)
    assert xe[1, 0] == pytest.approx(_scalar_embed(h2b), abs=1e-12)


def test_backward_consumes_its_cache():
    rng = np.random.default_rng(37)
    g = random_connected_graph(rng, 10, 0.3)
    model = GcnModel(g, in_dim=3, hidden_dims=(4, 3, 2), seed=2)
    xe, cache = model.forward(model.propagate(rng.normal(size=(10, 3))))
    # until backward runs, the cache holds the activations and the head's
    # per-row entries, and no pre-activation, Â·h, xh or u
    assert sorted(cache) == ["ax0", "den", "h", "h3", "nonzero", "r", "s"]
    assert [h.shape for h in cache["h"]] == [(10, 4), (10, 3)]
    assert cache["h3"].shape == (10, 2)
    assert [cache[k].shape for k in ("den", "r", "s", "nonzero")] == [(10, 1)] * 4
    model.backward(cache, np.ones_like(xe))
    assert cache == {}
    with pytest.raises(ValueError, match="already consumed"):
        model.backward(cache, np.ones_like(xe))


def test_uniform_rows_embed_to_equal_components():
    # with all-ones weight matrices every row stays constant across columns,
    # so each embedding row must be (1/sqrt(d), ..., 1/sqrt(d))
    g = Graph(2, [(0, 1)])
    model = GcnModel(g, in_dim=2, hidden_dims=(2, 2, 2), seed=0)
    model.weights = [np.ones((2, 2)) for _ in range(3)]
    xe, _ = model.forward(model.propagate(np.array([[1.0, 2.0], [3.0, 4.0]])))
    assert np.allclose(xe, 1.0 / math.sqrt(2.0), atol=1e-12)


def test_zero_weights_give_zero_embedding_and_zero_grads():
    g = Graph(3, [(0, 1), (1, 2)])
    model = GcnModel(g, in_dim=2, hidden_dims=(3, 3, 2), seed=0)
    model.weights = [np.zeros_like(w) for w in model.weights]
    xe, cache = model.forward(
        model.propagate(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])))
    assert np.all(xe == 0.0)
    grads = model.backward(cache, np.ones_like(xe))
    assert all(np.all(gr == 0.0) for gr in grads)


def test_embedding_geometry_invariants():
    rng = np.random.default_rng(31)
    for trial in range(15):
        n = int(rng.integers(2, 25))
        g = random_graph(rng, n, 0.3)
        model = GcnModel(g, in_dim=4, hidden_dims=(6, 5, 4),
                         seed=int(rng.integers(1 << 31)))
        xe, _ = model.forward(model.propagate(rng.normal(size=(n, 4))))
        assert np.all(xe >= 0.0)
        norms = np.linalg.norm(xe, axis=1)
        degenerate = norms == 0.0
        assert np.all(np.abs(norms[~degenerate] - 1.0) <= 1e-9)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(47)
    mu = 0.7
    h = 1e-5
    worst = 0.0
    for trial in range(6):
        n = int(rng.integers(4, 14))
        t = int(rng.integers(2, 6))
        g = random_connected_graph(rng, n, 0.3)
        model = GcnModel(g, in_dim=t, hidden_dims=(5, 4, 3),
                         seed=int(rng.integers(1 << 31)))
        x = rng.normal(size=(n, t))
        tm = PairwiseTarget(random_partition(rng, n, int(rng.integers(1, n + 1))))
        tr = PairwiseTarget(random_partition(rng, n, int(rng.integers(1, n + 1))))

        def loss_at(weights: list[np.ndarray]) -> float:
            saved, model.weights = model.weights, weights
            xe, _ = model.forward(model.propagate(x))
            model.weights = saved
            return pairwise_loss([(tm, 1.0), (tr, mu)], xe)[0]

        xe, cache = model.forward(model.propagate(x))
        _, d_xe = pairwise_loss([(tm, 1.0), (tr, mu)], xe)
        grads = model.backward(cache, d_xe)
        for li, w in enumerate(model.weights):
            for idx in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1),
                        (w.shape[0] // 2, w.shape[1] // 2)]:
                wp = [v.copy() for v in model.weights]
                wm = [v.copy() for v in model.weights]
                wp[li][idx] += h
                wm[li][idx] -= h
                fd = (loss_at(wp) - loss_at(wm)) / (2 * h)
                rel = abs(grads[li][idx] - fd) / max(abs(fd), 1e-6)
                worst = max(worst, rel)
    assert worst <= 1e-4



def _factored(ax0: LinearOperator) -> bool:
    """True for the product Â·X of two operators, False for one wrapped array."""
    return isinstance(ax0.args[0], LinearOperator)


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def test_factored_first_layer_matches_dense_reference():
    rng = np.random.default_rng(67)
    mu = 0.7
    # a smaller step than the dense test's: at 1e-5 one entry's central
    # difference is off by 2e-4 from curvature alone
    h = 1e-6
    worst_fd = 0.0
    for trial in range(24):
        n = int(rng.integers(12, 40))
        t = int(rng.integers(150, 300))
        g = random_connected_graph(rng, n, 0.1)
        x = (rng.random((n, t)) < 0.02).astype(np.float64)
        model = GcnModel(g, in_dim=t, hidden_dims=(6, 5, 4),
                         seed=int(rng.integers(1 << 31)))
        tm = PairwiseTarget(random_partition(rng, n, int(rng.integers(1, n + 1))))
        tr = PairwiseTarget(random_partition(rng, n, int(rng.integers(1, n + 1))))
        ax0 = model.propagate(x)
        assert _factored(ax0)
        assert _factored(model.propagate(sp.csr_matrix(x)))

        # dense reference: the materialized product (Â·X)·W
        xe_ref, cache_ref = model.forward(aslinearoperator(model.a_norm @ x))
        xe, cache = model.forward(ax0)
        assert _rel(xe, xe_ref) <= 1e-12
        _, d_xe = pairwise_loss([(tm, 1.0), (tr, mu)], xe_ref)
        grads_ref = model.backward(cache_ref, d_xe)
        grads = model.backward(cache, d_xe)
        assert all(_rel(a, b) <= 1e-12 for a, b in zip(grads, grads_ref))

        def loss_at(weights: list[np.ndarray]) -> float:
            saved, model.weights = model.weights, weights
            out, _ = model.forward(ax0)
            model.weights = saved
            return pairwise_loss([(tm, 1.0), (tr, mu)], out)[0]

        # central differences on the factored form, including a first-layer
        # weight whose attribute column is nonzero somewhere
        col = int(np.flatnonzero(x.any(axis=0))[0])
        for li, w in enumerate(model.weights):
            picks = [(0, 0), (w.shape[0] - 1, w.shape[1] - 1)]
            if li == 0:
                picks.append((col, w.shape[1] // 2))
            for idx in picks:
                wp = [v.copy() for v in model.weights]
                wm = [v.copy() for v in model.weights]
                wp[li][idx] += h
                wm[li][idx] -= h
                fd = (loss_at(wp) - loss_at(wm)) / (2 * h)
                worst_fd = max(worst_fd, abs(grads[li][idx] - fd) / max(abs(fd), 1e-6))
    assert worst_fd <= 1e-4


def _dense_reference(model: GcnModel, x: np.ndarray, d_xe_of):
    """Embedding and weight gradients in the earlier contraction order, all
    dense: each layer computes (Â·h)·W and keeps its pre-activation z, and
    backward takes (Â·h)ᵀ·dZ and Â·(dZ·Wᵀ). ``d_xe_of`` maps the embedding to
    the loss gradient; the output head is the encoder's own."""
    a = model.a_norm.toarray()
    ahs, zs, h = [], [], x
    for w in model.weights:
        ahs.append(a @ h)
        zs.append(ahs[-1] @ w)
        h = selu(zs[-1])
    rowsum = h.sum(axis=1, keepdims=True)
    den = rowsum + EPS * np.where(rowsum >= 0, 1.0, -1.0)
    xh = np.tanh(h / den)
    r = np.linalg.norm(xh, axis=1, keepdims=True)
    u = xh ** 2 / (r + EPS)
    s = np.linalg.norm(u, axis=1, keepdims=True)
    nonzero = s > EPS
    xe = np.where(nonzero, u / np.where(nonzero, s, 1.0), 0.0)
    d_xe = d_xe_of(xe)
    d_h = gcn_module._head_backward(dict(h3=h, den=den, r=r, s=s, nonzero=nonzero), d_xe)
    grads = [None] * 3
    for layer in (2, 1, 0):
        dz = reference_selu_grad(zs[layer]) * d_h
        grads[layer] = ahs[layer].T @ dz
        d_h = a @ (dz @ model.weights[layer].T)
    return xe, d_xe, grads


def test_gradients_match_the_dense_earlier_order():
    rng = np.random.default_rng(89)
    mu = 0.7
    for trial in range(16):
        factored = trial % 2 == 0
        n = int(rng.integers(8, 40))
        t = int(rng.integers(150, 300)) if factored else int(rng.integers(2, 8))
        g = (random_connected_graph if trial % 4 < 2 else random_graph)(rng, n, 0.15)
        x = ((rng.random((n, t)) < 0.02).astype(np.float64) if factored
             else rng.normal(size=(n, t)))
        model = GcnModel(g, in_dim=t, hidden_dims=(6, 5, 4),
                         seed=int(rng.integers(1 << 31)))
        tm = PairwiseTarget(random_partition(rng, n, int(rng.integers(1, n + 1))))
        tr = PairwiseTarget(random_partition(rng, n, int(rng.integers(1, n + 1))))
        loss_grad = lambda xe: pairwise_loss([(tm, 1.0), (tr, mu)], xe)[1]
        xe_ref, d_xe, grads_ref = _dense_reference(model, x, loss_grad)

        ax0 = model.propagate(x)
        assert _factored(ax0) == factored
        xe, cache = model.forward(ax0)
        np.testing.assert_allclose(xe, xe_ref, rtol=1e-10, atol=1e-14)
        for got, want in zip(model.backward(cache, d_xe), grads_ref):
            np.testing.assert_allclose(got, want, rtol=1e-10,
                                       atol=1e-10 * np.abs(want).max())


def test_propagate_keeps_dense_attributes_dense():
    bundle = generate_synthetic(SyntheticSpec(seed=42))
    model = GcnModel(bundle.graph, bundle.t, RunConfig().hidden_dims, seed=0)
    ax0 = model.propagate(bundle.attributes)
    assert not _factored(ax0)
    assert np.array_equal(ax0 @ model.weights[0],
                          (model.a_norm @ bundle.attributes.toarray()) @ model.weights[0])

    rng = np.random.default_rng(71)
    g = random_connected_graph(rng, 50, 0.1)
    x = (rng.random((50, 200)) < 0.5).astype(np.float64)
    model = GcnModel(g, 200, RunConfig().hidden_dims, seed=0)
    assert not _factored(model.propagate(x))
    assert not _factored(model.propagate(sp.csr_matrix(x)))

def test_train_reduces_loss():
    rng = np.random.default_rng(53)
    g = random_connected_graph(rng, 20, 0.25)
    x = rng.normal(size=(20, 6))
    target = PairwiseTarget(random_partition(rng, 20, 4))

    def provider(xe):
        value, grad = pairwise_loss([(target, 1.0), (target, 0.0)], xe)
        return value, grad

    model = GcnModel(g, in_dim=6, hidden_dims=(8, 6, 4), seed=5)
    _, trace = train(model, model.propagate(x), provider, epochs=60, learning_rate=0.01)
    assert len(trace) == 60
    assert trace[-1] < trace[0]
    assert min(trace) < 0.9 * trace[0]


def _train_fixture():
    bundle = generate_synthetic(SyntheticSpec(n=4000, k=8, p_in=0.01, p_out=0.0005,
                                              t=32, seed=5))
    model = GcnModel(bundle.graph, bundle.t, RunConfig().hidden_dims, seed=0)
    return bundle, model, model.propagate(bundle.attributes)


def test_train_peak_memory_stays_near_training_bytes():
    # one forward cache and a few n×d buffers: the peak of a short run at
    # the default hidden_dims stays within 1.4 × training_bytes (about 1.27
    # here; 2.2 while each epoch's cache outlived the next forward)
    bundle, model, ax0 = _train_fixture()
    target = PairwiseTarget(bundle.labels)
    (_, trace), peak = traced_peak(
        lambda: train(model, ax0, lambda xe: pairwise_loss([(target, 1.0)], xe), 3, 1e-3))
    assert len(trace) == 3
    assert peak < 1.4 * training_bytes(bundle.n, bundle.t, model.hidden_dims)


def test_two_term_training_holds_four_embedding_sized_arrays_beside_the_cache():
    # the loss sets the peak: the cache, the embedding, X X^T X and the first
    # term's gradient (0.91 of the bound here). Holding xh and u in the
    # cache, or a third n×d3 array in the loss, passes it (1.14 before both
    # went).
    bundle, model, ax0 = _train_fixture()
    terms = [(PairwiseTarget(bundle.labels), 1.0),
             (PairwiseTarget(split_into_components(bundle.graph, bundle.labels)), 0.5)]
    (_, trace), peak = traced_peak(
        lambda: train(model, ax0, lambda xe: pairwise_loss(terms, xe), 3, 1e-3))
    assert len(trace) == 3
    d1, d2, d3 = model.hidden_dims
    weights = bundle.t * d1 + d1 * d2 + d2 * d3
    assert peak < 8 * (4 * weights + bundle.n * (d1 + d2 + 5 * d3 + 4))


def test_train_zero_epochs_and_zero_lr_keep_weights():
    g = Graph(3, [(0, 1), (1, 2)])
    model = GcnModel(g, in_dim=2, hidden_dims=(3, 3, 2), seed=11)
    before = [w.copy() for w in model.weights]
    x = np.arange(6, dtype=np.float64).reshape(3, 2)
    target = PairwiseTarget(Partition([0, 0, 1]))

    def provider(xe):
        value, grad = pairwise_loss([(target, 1.0), (target, 1.0)], xe)
        return value, grad

    _, trace = train(model, model.propagate(x), provider, epochs=0, learning_rate=1e-3)
    assert trace == []
    assert all(np.array_equal(a, b) for a, b in zip(model.weights, before))

    _, trace = train(model, model.propagate(x), provider, epochs=5, learning_rate=0.0)
    assert len(trace) == 5
    assert all(v == trace[0] for v in trace)
    assert all(np.array_equal(a, b) for a, b in zip(model.weights, before))


def test_training_diverged_carries_diagnostics():
    g = Graph(2, [(0, 1)])
    model = GcnModel(g, in_dim=1, hidden_dims=(2, 2, 2), seed=3)

    def exploding(xe):
        return float("inf"), np.zeros_like(xe)

    with pytest.raises(TrainingDiverged) as info:
        train(model, model.propagate(np.ones((2, 1))), exploding, epochs=10,
              learning_rate=1e-3)
    err = info.value
    assert err.epoch == 0
    assert math.isinf(err.loss)
    assert len(err.weight_norms) == 3
    assert "epoch 0" in str(err)


def test_training_overflow_raises_diverged_naming_the_epoch():
    """An attribute near the float64 limit overflows the head's den ** 2:
    the epoch stops with TrainingDiverged carrying numpy's message, not a
    RuntimeWarning and a degenerate embedding."""
    g = Graph(3, [(0, 1), (1, 2)])
    model = GcnModel(g, in_dim=2, hidden_dims=(3, 3, 2), seed=11)
    x = np.ones((3, 2))
    x[0, 0] = 1e300
    target = PairwiseTarget(Partition([0, 0, 1]))
    with pytest.raises(TrainingDiverged) as info:
        train(model, model.propagate(x), lambda xe: pairwise_loss([(target, 1.0)], xe),
              epochs=5, learning_rate=1e-3)
    err = info.value
    assert err.epoch == 0
    assert math.isnan(err.loss)
    assert isinstance(err.__cause__, FloatingPointError)
    assert "overflow" in str(err) and "at epoch 0" in str(err)


def test_init_is_deterministic_given_seed():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    m1 = GcnModel(g, in_dim=3, hidden_dims=(4, 3, 2), seed=9)
    m2 = GcnModel(g, in_dim=3, hidden_dims=(4, 3, 2), seed=9)
    m3 = GcnModel(g, in_dim=3, hidden_dims=(4, 3, 2), seed=10)
    assert all(np.array_equal(a, b) for a, b in zip(m1.weights, m2.weights))
    assert any(not np.array_equal(a, b) for a, b in zip(m1.weights, m3.weights))


def test_train_is_deterministic():
    rng = np.random.default_rng(59)
    g = random_connected_graph(rng, 12, 0.3)
    x = rng.normal(size=(12, 4))
    target = PairwiseTarget(random_partition(rng, 12, 3))

    def provider(xe):
        return pairwise_loss([(target, 1.0), (target, 0.5)], xe)

    runs = []
    for _ in range(2):
        model = GcnModel(g, in_dim=4, hidden_dims=(5, 4, 3), seed=21)
        model, trace = train(model, model.propagate(x), provider, epochs=25,
                             learning_rate=1e-3)
        runs.append((trace, [w.copy() for w in model.weights]))
    assert runs[0][0] == runs[1][0]
    assert all(np.array_equal(a, b) for a, b in zip(runs[0][1], runs[1][1]))


def test_adam_single_step_hand_case():
    w = [np.array([[1.0]])]
    adam = AdamState(w, lr=0.001)
    adam.step(w, [np.array([[0.5]])])
    m_hat = (0.1 * 0.5) / (1 - 0.9)
    v_hat = (0.001 * 0.25) / (1 - 0.999)
    expected = 1.0 - 0.001 * m_hat / (math.sqrt(v_hat) + 1e-8)
    assert w[0][0, 0] == pytest.approx(expected, rel=1e-12)


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(61)
    g = random_connected_graph(rng, 9, 0.35)
    model = GcnModel(g, in_dim=3, hidden_dims=(4, 3, 2), seed=17)
    model.weights[1][0, 0] = 0.123456  # ensure we persist mutated weights
    x = rng.normal(size=(9, 3))
    before, _ = model.forward(model.propagate(x))

    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path, g)
    assert loaded.seed == 17
    assert loaded.in_dim == 3
    assert loaded.hidden_dims == (4, 3, 2)
    assert all(np.array_equal(a, b) for a, b in zip(loaded.weights, model.weights))
    after, _ = loaded.forward(loaded.propagate(x))
    assert np.array_equal(before, after)


def test_checkpoint_rejects_corruption(tmp_path):
    g = Graph(2, [(0, 1)])
    model = GcnModel(g, in_dim=1, hidden_dims=(2, 2, 2), seed=1)
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    raw = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.bin"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(bad_magic, g)

    truncated = tmp_path / "short.bin"
    truncated.write_bytes(raw[:-4])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(truncated, g)

    padded = tmp_path / "padded.bin"
    padded.write_bytes(raw + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        load_checkpoint(padded, g)

    short_header = tmp_path / "short_header.bin"
    short_header.write_bytes(raw[:10])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(short_header, g)


def test_checkpoint_checks_payload_size_before_building_a_model(tmp_path, monkeypatch):
    """A header that claims huge layers over an empty payload is rejected
    before any model, and so any weight of the claimed size, is made."""
    g = Graph(2, [(0, 1)])
    path = tmp_path / "model.bin"
    save_checkpoint(GcnModel(g, in_dim=1, hidden_dims=(2, 2, 2), seed=1), path)
    raw = path.read_bytes()
    big = 2**31
    path.write_bytes(raw[:8] + struct.pack("<qIIII", 1, big, big, big, big))

    def no_model(*args, **kwargs):
        raise AssertionError("GcnModel built from an unchecked header")

    monkeypatch.setattr(gcn_module, "GcnModel", no_model)
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(path, g)


def test_propagate_validates_attribute_shape():
    g = Graph(3, [(0, 1), (1, 2)])
    model = GcnModel(g, in_dim=2, hidden_dims=(2, 2, 2), seed=0)
    with pytest.raises(ValueError):
        model.propagate(np.zeros((3, 5)))
    with pytest.raises(ValueError):
        model.propagate(np.zeros((2, 2)))


def test_forward_rejects_raw_attributes():
    g = Graph(3, [(0, 1), (1, 2)])
    model = GcnModel(g, in_dim=2, hidden_dims=(2, 2, 2), seed=0)
    for raw in (np.ones((3, 2)), sp.csr_matrix(np.ones((3, 2)))):
        with pytest.raises(TypeError, match="propagate"):
            model.forward(raw)


def test_constructor_validation():
    g = Graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        GcnModel(g, in_dim=0, hidden_dims=(2, 2, 2))
    with pytest.raises(ValueError):
        GcnModel(g, in_dim=2, hidden_dims=(2, 2))  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        GcnModel(g, in_dim=2, hidden_dims=(2, 0, 2))
