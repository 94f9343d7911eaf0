"""Bit-for-bit property tests of the encoder's blocked elementwise passes.

``selu`` and ``AdamState.step`` run over blocks of about
``gcn._BLOCK_CELLS`` cells with no masked copy. Each must give the bytes of
its whole-array, masked reference form below, on 0-d, 1-d, 2-d and
non-contiguous inputs, with ``out=z``, on arrays one block long give or take
a cell, and on the cells where the forms could part: ±0.0, ±subnormals, ±inf,
z > 710 (``expm1`` overflows) and −1e-17 (``exp`` rounds to 1). The block
size is patched small so that arrays span many blocks.

The backward pass reads SELU′ from the activation h = selu(z), times the
upstream gradient, in h's own cells; that kernel is the encoder's only
SELU′. It must give the bytes of ``np.where(h > 0, λ, h + λα)`` (times the
gradient), and lie within 4 ulp of λα of the masked SELU′ of z
(``reference_selu_grad`` in conftest.py), on the same layouts and also on z
below −40, where ``selu(z) + λα`` cancels to a few ulp.

The whole encoder keeps those bits too. With the block size patched small,
the embedding, the loss gradient, the head's gradient (recomputed a row
block at a time) and the three weight gradients (each layer's upstream
gradient P·Wᵀ formed a row block at a time) must give the bytes of a
whole-array form of the same steps, for dense and factored first layers,
one or two loss terms, and n that leaves the row products one partial block
or a last block of a single row. The loss's gathered S·M must give the
bytes of the sparse product, ±0.0 cells included. These checks also test
the BLAS of the machine they run on: a row must get the same bits in any
block of rows.

Skipped when hypothesis is not installed; runs under the ``tier1`` profile
of conftest.py.
"""

from __future__ import annotations

import importlib
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from scipy.sparse.linalg import LinearOperator

from comdet.gcn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    EPS,
    SELU_ALPHA,
    SELU_LAMBDA,
    AdamState,
    GcnModel,
    _selu_grad_of_output,
    selu,
)
from comdet.graph import Partition, canonical_labels
from comdet.loss import PairwiseTarget, pairwise_loss

from conftest import (assert_same_bits, kernel_sensitive, random_graph, random_partition,
                      reference_selu_grad)

gcn = importlib.import_module("comdet.gcn")

SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
           np.inf, -np.inf, 710.5, 1e300, -1e-17, 1e-17, -745.0, -800.0, 1.0, -1.0)


def reference_selu(z: np.ndarray) -> np.ndarray:
    """λ·(z if z > 0 else α·expm1(z)) over the whole array, with a masked copy."""
    h = np.expm1(z, out=np.empty_like(z))
    h *= SELU_ALPHA
    np.copyto(h, z, where=z > 0)
    h *= SELU_LAMBDA
    return h


def reference_adam_step(adam: AdamState, weights, grads) -> None:
    """``AdamState.step`` over whole arrays, in the same operation order."""
    adam.t += 1
    for w, grad, m, v in zip(weights, grads, adam.m, adam.v, strict=True):
        tmp = (1.0 - ADAM_BETA1) * grad
        m *= ADAM_BETA1
        m += tmp
        np.square(grad, out=tmp)
        tmp *= 1.0 - ADAM_BETA2
        v *= ADAM_BETA2
        v += tmp
        np.divide(v, 1.0 - ADAM_BETA2 ** adam.t, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        step = np.divide(m, 1.0 - ADAM_BETA1 ** adam.t, out=grad)
        step *= adam.lr
        step /= tmp
        w -= step


_CELLS = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False))
_BLOCK = st.sampled_from([1, 2, 3, 8, 31])
# views of a 2-d base array: whole, strided, transposed, a column
_VIEWS = {
    "whole": lambda a: a,
    "rows": lambda a: a[::2],
    "cols": lambda a: a[:, ::2],
    "transposed": lambda a: a.T,
    "column": lambda a: a[:, 0],
}


@st.composite
def _inputs(draw, cells=_CELLS):
    """``(base, view, block_cells)``: z is ``view(base)``, of one of the
    layouts above or a 0-d or 1-d array, often one block long ±1 cell, with
    cells drawn from ``cells``."""
    block_cells = draw(_BLOCK)
    kind = draw(st.sampled_from(["0-d", "1-d", *_VIEWS]))
    if kind == "0-d":
        return np.array(draw(cells)), lambda a: a, block_cells
    near_block = st.integers(max(0, block_cells - 1), block_cells + 1)
    if kind == "1-d":
        shape = (draw(st.one_of(near_block, st.integers(0, 70))),)
        view = lambda a: a
    else:
        cols = draw(st.integers(1, 6))
        rows = draw(st.one_of(near_block, st.integers(0, 30)))
        shape, view = (rows, cols), _VIEWS[kind]
    return draw(hnp.arrays(np.float64, shape, elements=cells)), view, block_cells


@settings(settings.get_profile("tier1"), max_examples=300)
@given(_inputs())
def test_selu_matches_the_masked_reference(case):
    base, view, block_cells = case
    z = view(base)
    with mock.patch.object(gcn, "_BLOCK_CELLS", block_cells), np.errstate(over="ignore"):
        expected = reference_selu(z)
        assert_same_bits(selu(z), expected)
        # out=z writes z's own cells and nothing else of its base
        overwritten = base.copy()
        zv = view(overwritten)
        assert selu(zv, out=zv) is zv
        want = base.copy()
        view(want)[...] = expected
        assert_same_bits(overwritten, want)


def reference_selu_grad_of_output(h: np.ndarray) -> np.ndarray:
    """SELU′ read from the activation h = selu(z): λ where h > 0, else h + λα."""
    return np.where(h > 0, SELU_LAMBDA, h + SELU_LAMBDA * SELU_ALPHA)


# below about −37, expm1(z) rounds to −1 and selu(z) + λα to 0
_ACT_CELLS = st.one_of(_CELLS, st.floats(-800.0, -40.0), st.floats(-1e-300, 1e-300))


@settings(settings.get_profile("tier1"), max_examples=300)
@given(_inputs(_ACT_CELLS), st.integers(0, 2 ** 32 - 1))
def test_selu_grad_read_from_the_activation(case, seed):
    base, view, block_cells = case
    z = view(base)
    factor = np.asarray(np.random.default_rng(seed).standard_normal(z.shape))
    with mock.patch.object(gcn, "_BLOCK_CELLS", block_cells), np.errstate(over="ignore"):
        h = selu(z)
        expected = reference_selu_grad_of_output(h)
        got = h.copy()
        assert _selu_grad_of_output(got, np.ones_like(h)) is got
        assert_same_bits(got, expected)
        assert np.all(np.abs(expected - reference_selu_grad(z))
                      <= 4 * np.spacing(SELU_LAMBDA * SELU_ALPHA))
        # times the upstream gradient, in the activation's own cells and no
        # others of its base
        overwritten = selu(base)
        hv = view(overwritten)
        assert _selu_grad_of_output(hv, factor) is hv
        want = selu(base)
        view(want)[...] = expected * factor
        assert_same_bits(overwritten, want)


@pytest.mark.parametrize("block_cells", [1, 4, len(SPECIAL), 2 ** 15])
def test_special_values_keep_their_bits(block_cells):
    z = np.array(SPECIAL)
    grid = np.stack([z, -z, z[::-1]], axis=1)  # 3 columns, so blocks cut rows
    with mock.patch.object(gcn, "_BLOCK_CELLS", block_cells), np.errstate(over="ignore"):
        for cells in (z, grid, grid[::2], grid.T):
            assert_same_bits(selu(cells), reference_selu(cells))
            h = reference_selu(cells)
            overwritten = h.copy()
            _selu_grad_of_output(overwritten, np.ones_like(h))
            assert_same_bits(overwritten, reference_selu_grad_of_output(h))
            overwritten = cells.copy()
            selu(overwritten, out=overwritten)
            assert_same_bits(overwritten, reference_selu(cells))
        for value in SPECIAL:
            assert_same_bits(selu(np.array(value)), reference_selu(np.array(value)))


_MOMENT_CELLS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 1.0, -1.0]),
                          st.floats(-1e100, 1e100))


@st.composite
def _adam_runs(draw):
    """Weight shapes, ``steps`` gradient lists and a learning rate."""
    block_cells = draw(_BLOCK)
    near_block = st.integers(max(1, block_cells - 1), block_cells + 1)
    shapes = draw(st.lists(
        st.one_of(st.tuples(near_block), st.tuples(near_block, st.integers(1, 4)),
                  st.tuples(st.integers(1, 12), st.integers(1, 5))),
        min_size=1, max_size=3))
    arrays = lambda: [draw(hnp.arrays(np.float64, s, elements=_MOMENT_CELLS)) for s in shapes]
    weights = arrays()
    grads = [arrays() for _ in range(draw(st.integers(1, 4)))]
    return weights, grads, draw(st.sampled_from([1e-3, 0.1, 1.0])), block_cells


@settings(settings.get_profile("tier1"), max_examples=150)
@given(_adam_runs())
def test_adam_matches_the_reference_step_over_several_steps(run):
    weights, grads, lr, block_cells = run
    got_w, want_w = [w.copy() for w in weights], [w.copy() for w in weights]
    got, want = AdamState(got_w, lr), AdamState(want_w, lr)
    with mock.patch.object(gcn, "_BLOCK_CELLS", block_cells), np.errstate(all="ignore"):
        for step_grads in grads:
            got.step(got_w, [g.copy() for g in step_grads])
            reference_adam_step(want, want_w, [g.copy() for g in step_grads])
            assert got.t == want.t
            for pair in zip(got_w + got.m + got.v, want_w + want.m + want.v):
                assert_same_bits(*pair)


def reference_head_backward(h3, den, r, s, nonzero, d_xe):
    """The output head's gradient over whole arrays, from xh and u rebuilt
    with forward's operations."""
    xh = np.tanh(h3 / den)
    u = xh ** 2
    u /= r + EPS
    safe_s = np.where(nonzero, s, 1.0)
    tmp = d_xe * u
    dot = tmp.sum(axis=1, keepdims=True)
    du = d_xe / safe_s
    np.multiply(u, dot, out=tmp)
    tmp /= safe_s ** 3
    du -= tmp
    np.copyto(du, 0.0, where=~nonzero)
    rp = r + EPS
    inv_r = np.where(r > 0, 1.0 / np.where(r > 0, r, 1.0), 0.0)
    np.square(xh, out=tmp)
    tmp *= du
    row = tmp.sum(axis=1, keepdims=True)
    np.multiply(xh, 2.0, out=tmp)
    du *= tmp
    du /= rp
    np.multiply(xh, row, out=tmp)
    tmp *= inv_r
    tmp /= rp ** 2
    du -= tmp
    np.square(xh, out=tmp)
    np.subtract(1.0, tmp, out=tmp)
    du *= tmp
    np.multiply(du, h3, out=tmp)
    row = tmp.sum(axis=1, keepdims=True)
    du /= den
    du -= row / den ** 2
    return du


def reference_pairwise_loss(terms, x):
    """``pairwise_loss`` over whole arrays, with S M as the sparse product;
    each term is added to the sum of the terms after it."""
    g = x.T @ x
    g_norm_sq, xg = float(np.sum(g * g)), x @ g
    value, grad = None, None
    for target, weight in reversed(terms):
        n = target.n
        m = target.onehot.T @ x
        term_value = weight * ((target.gram_norm_sq - 2.0 * float(np.sum(m * m)) + g_norm_sq)
                               / (n * n))
        term = (xg - target.onehot @ m) * (4.0 / (n * n)) * weight
        value = term_value if value is None else term_value + value
        grad = term if grad is None else term + grad
    return value, grad


def reference_forward_backward(model, ax0, terms):
    """Embedding, loss gradient and weight gradients over whole arrays: the
    upstream gradient P·Wᵀ of each layer is one product, and dZ is
    ``np.where(h > 0, λ, h + λα)`` times it."""
    hs = [reference_selu(ax0 @ model.weights[0])]
    for w in model.weights[1:]:
        hs.append(reference_selu(model.a_norm @ (hs[-1] @ w)))
    h3 = hs[-1]
    rowsum = h3.sum(axis=1, keepdims=True)
    den = rowsum + EPS * np.where(rowsum >= 0, 1.0, -1.0)
    xh = np.tanh(h3 / den)
    r = np.linalg.norm(xh, axis=1, keepdims=True)
    u = xh ** 2
    u /= r + EPS
    s = np.linalg.norm(u, axis=1, keepdims=True)
    nonzero = s > EPS
    xe = u / np.where(nonzero, s, 1.0)
    np.copyto(xe, 0.0, where=~nonzero)
    value, d_xe = reference_pairwise_loss(terms, xe)
    d_h = reference_head_backward(h3, den, r, s, nonzero, d_xe)
    grads = [None] * 3
    for layer in (2, 1):
        p = model.a_norm @ (reference_selu_grad_of_output(hs[layer]) * d_h)
        grads[layer] = hs[layer - 1].T @ p
        d_h = p @ model.weights[layer].T
    grads[0] = ax0.rmatmat(reference_selu_grad_of_output(hs[0]) * d_h)
    return xe, (value, d_xe), (h3, den, r, s, nonzero), grads


@st.composite
def _encoder_cases(draw):
    """A random graph, a dense or factored first layer, small widths, a
    block size and an n that leaves the row products one partial block, a
    last block of a single row, or anything else; with loss terms."""
    dims = tuple(draw(st.integers(1, 6)) for _ in range(3))
    block_cells = draw(st.sampled_from([1, 5, 8, 17, 40]))
    # rows per product of h1's upstream gradient P·W1ᵀ, which is n×d1
    step = max(2, block_cells // dims[0])
    n = draw(st.one_of(st.integers(2, step),
                       st.integers(1, 4).map(lambda j: j * step + 1),
                       st.integers(2, 45)))
    return (dims, block_cells, n, draw(st.booleans()), draw(st.booleans()),
            draw(st.integers(0, 2 ** 32 - 1)))


@settings(settings.get_profile("tier1"), max_examples=120)
@given(_encoder_cases())
def test_blocked_encoder_matches_the_whole_array_form(case):
    dims, block_cells, n, factored, two_terms, seed = case
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, 0.2)
    t = int(rng.integers(150, 250)) if factored else int(rng.integers(1, 6))
    x = ((rng.random((n, t)) < 0.02) * rng.choice([-1.0, 0.0, 2.0], size=(n, t))
         if factored else rng.normal(size=(n, t)))
    model = GcnModel(g, in_dim=t, hidden_dims=dims, seed=int(rng.integers(1 << 31)))
    terms = [(PairwiseTarget(random_partition(rng, n, int(rng.integers(1, n + 1)))), w)
             for w in ((1.0, 0.7) if two_terms else (1.0,))]
    ax0 = model.propagate(x)
    assert isinstance(ax0.args[0], LinearOperator) == factored
    with kernel_sensitive(), mock.patch.object(gcn, "_BLOCK_CELLS", block_cells):
        xe_ref, (value_ref, d_xe_ref), head, grads_ref = reference_forward_backward(
            model, ax0, terms)
        xe, cache = model.forward(ax0)
        assert_same_bits(xe, xe_ref)
        value, d_xe = pairwise_loss(terms, xe)
        assert value == value_ref
        assert_same_bits(d_xe, d_xe_ref)
        # the head's gradient, recomputed a row block at a time; d_xe stays
        d_xe_before = d_xe.copy()
        assert_same_bits(
            gcn._head_backward(dict(zip(("h3", "den", "r", "s", "nonzero"), head)), d_xe),
            reference_head_backward(*head, d_xe))
        assert_same_bits(d_xe, d_xe_before)
        for got, want in zip(model.backward(cache, d_xe), grads_ref, strict=True):
            assert_same_bits(got, want)
        assert_same_bits(d_xe, d_xe_before)


_EMBEDDING_CELLS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324]),
                             st.floats(-4.0, 4.0))


@settings(settings.get_profile("tier1"), max_examples=150)
@given(st.integers(1, 40), st.integers(1, 5), st.sampled_from([1, 3, 8, 64]),
       st.integers(1, 3), st.data())
def test_gathered_loss_gradient_matches_the_sparse_product(n, d, block_cells, t, data):
    x = data.draw(hnp.arrays(np.float64, (n, d), elements=_EMBEDDING_CELLS))
    assignments = [data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, n - 1)))
                   for _ in range(t)]
    terms = [(PairwiseTarget(Partition(canonical_labels(a))), w)
             for a, w in zip(assignments, (1.0, 0.3, 2.5))]
    with mock.patch.object(gcn, "_BLOCK_CELLS", block_cells):
        value, grad = pairwise_loss(terms, x)
    value_ref, grad_ref = reference_pairwise_loss(terms, x)
    assert value == value_ref
    assert_same_bits(grad, grad_ref)
