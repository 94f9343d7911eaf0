"""Bit-for-bit property tests of the encoder's blocked elementwise passes.

``selu``, ``selu_grad`` and ``AdamState.step`` run over blocks of about
``gcn._BLOCK_CELLS`` cells with no masked copy. Each must give the bytes of
its whole-array, masked reference form below, on 0-d, 1-d, 2-d and
non-contiguous inputs, with ``out=z``, on arrays one block long give or take
a cell, and on the cells where the forms could part: ±0.0, ±subnormals, ±inf,
z > 710 (``expm1`` overflows) and −1e-17 (``exp`` rounds to 1). The block
size is patched small so that arrays span many blocks.

The backward pass reads SELU′ from the activation h = selu(z), times the
upstream gradient, in h's own cells. That kernel must give the bytes of
``np.where(h > 0, λ, h + λα)`` (times the gradient), and lie within 4 ulp
of λα of ``selu_grad(z)``, on the same layouts and also on z below −40,
where ``selu(z) + λα`` cancels to a few ulp.

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

from comdet.gcn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    SELU_ALPHA,
    SELU_LAMBDA,
    AdamState,
    _selu_grad_of_output,
    selu,
    selu_grad,
)

from conftest import assert_same_bits

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


def reference_selu_grad(z: np.ndarray) -> np.ndarray:
    """λ·(1 if z > 0 else α·exp(z)) over the whole array, with a masked copy."""
    positive = z > 0
    g = np.exp(z, out=np.empty_like(z))
    g *= SELU_ALPHA
    np.copyto(g, 1.0, where=positive)
    g *= SELU_LAMBDA
    return g


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
        assert_same_bits(selu(z), reference_selu(z))


@settings(settings.get_profile("tier1"), max_examples=300)
@given(_inputs())
def test_selu_grad_matches_the_masked_reference(case):
    base, view, block_cells = case
    z = view(base)
    with mock.patch.object(gcn, "_BLOCK_CELLS", block_cells), np.errstate(over="ignore"):
        expected = reference_selu_grad(z)
        assert_same_bits(selu_grad(z), expected)
        # out=z writes z's own cells and nothing else of its base
        overwritten = base.copy()
        zv = view(overwritten)
        assert selu_grad(zv, out=zv) is zv
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
    with mock.patch.object(gcn, "_BLOCK_CELLS", block_cells):
        h = selu(z)
        expected = reference_selu_grad_of_output(h)
        got = h.copy()
        assert _selu_grad_of_output(got, np.ones_like(h)) is got
        assert_same_bits(got, expected)
        assert np.all(np.abs(expected - selu_grad(z))
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
            assert_same_bits(selu_grad(cells), reference_selu_grad(cells))
            overwritten = cells.copy()
            selu_grad(overwritten, out=overwritten)
            assert_same_bits(overwritten, reference_selu_grad(cells))
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
    got, want = AdamState.for_weights(got_w, lr=lr), AdamState.for_weights(want_w, lr=lr)
    with mock.patch.object(gcn, "_BLOCK_CELLS", block_cells), np.errstate(all="ignore"):
        for step_grads in grads:
            got.step(got_w, [g.copy() for g in step_grads])
            reference_adam_step(want, want_w, [g.copy() for g in step_grads])
            assert got.t == want.t
            for pair in zip(got_w + got.m + got.v, want_w + want.m + want.v):
                assert_same_bits(*pair)
