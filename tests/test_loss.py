"""Pairwise loss tests: closed forms and the dense-matrix oracle."""

from __future__ import annotations

import numpy as np
import pytest

from comdet.graph import Partition
from comdet.loss import PairwiseTarget, pairwise_loss

from conftest import random_partition


def _dense_oracle(target: PairwiseTarget, x: np.ndarray):
    """Literal n x n computation of the loss and gradient."""
    s = target.onehot.toarray()
    h = s @ s.T
    n = x.shape[0]
    diff = h - x @ x.T
    value = float(np.sum(diff ** 2)) / (n * n)
    grad = (4.0 / (n * n)) * ((x @ x.T - h) @ x)
    return value, grad


def _single_term(target: PairwiseTarget, x: np.ndarray):
    """One unweighted term in the factored form, each product computed afresh."""
    n = target.n
    m = target.onehot.T @ x
    g = x.T @ x
    value = (target.gram_norm_sq - 2.0 * float(np.sum(m * m))
             + float(np.sum(g * g))) / (n * n)
    return value, (4.0 / (n * n)) * (x @ g - target.onehot @ m)


def test_perfect_embedding_zero_loss_zero_grad():
    p = Partition([0, 0, 1, 2, 1])
    target = PairwiseTarget(p)
    x = target.onehot.toarray().astype(np.float64)
    value, grad = pairwise_loss([(target, 1.0)], x)
    assert value == 0.0
    assert np.all(grad == 0.0)


def test_zero_embedding_closed_form():
    p = Partition([0, 0, 0, 1, 1, 2])
    target = PairwiseTarget(p)
    x = np.zeros((6, 4))
    value, grad = pairwise_loss([(target, 1.0)], x)
    # ||H||_F^2 / n^2 with community sizes 3, 2, 1
    assert value == pytest.approx((9 + 4 + 1) / 36.0, abs=1e-15)
    assert np.all(grad == 0.0)


def test_factored_matches_dense_oracle():
    rng = np.random.default_rng(71)
    for trial in range(30):
        n = int(rng.integers(2, 40))
        d = int(rng.integers(1, 6))
        target = PairwiseTarget(random_partition(rng, n, int(rng.integers(1, n + 1))))
        x = rng.normal(size=(n, d))
        value, grad = pairwise_loss([(target, 1.0)], x)
        ov, og = _dense_oracle(target, x)
        assert value == pytest.approx(ov, rel=1e-12, abs=1e-12)
        assert np.allclose(grad, og, atol=1e-12)


def test_loss_non_negative():
    rng = np.random.default_rng(73)
    for trial in range(30):
        n = int(rng.integers(2, 30))
        target = PairwiseTarget(random_partition(rng, n, int(rng.integers(1, n + 1))))
        x = rng.normal(size=(n, 3))
        value, _ = pairwise_loss([(target, 1.0)], x)
        assert value >= 0.0


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(79)
    n, d = 7, 3
    target = PairwiseTarget(random_partition(rng, n, 3))
    x = rng.normal(size=(n, d))
    _, grad = pairwise_loss([(target, 1.0)], x)
    h = 1e-6
    for i in range(n):
        for j in range(d):
            xp = x.copy(); xp[i, j] += h
            xm = x.copy(); xm[i, j] -= h
            fd = (pairwise_loss([(target, 1.0)], xp)[0]
                  - pairwise_loss([(target, 1.0)], xm)[0]) / (2 * h)
            assert grad[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_weighted_terms_combine_linearly():
    rng = np.random.default_rng(83)
    n = 12
    tm = PairwiseTarget(random_partition(rng, n, 4))
    tr = PairwiseTarget(random_partition(rng, n, 3))
    x = rng.normal(size=(n, 3))
    lm, gm = _single_term(tm, x)
    lr, gr = _single_term(tr, x)
    value, grad = pairwise_loss([(tm, 1.0)], x)
    assert value == lm and np.array_equal(grad, gm)
    for mu in (0.0, 0.2, 10.0):
        value, grad = pairwise_loss([(tm, 1.0), (tr, mu)], x)
        assert value == lm + mu * lr
        assert np.array_equal(grad, gm + mu * gr)
    with pytest.raises(ValueError, match=f"embedding must have {n + 1} rows"):
        pairwise_loss([(tm, 1.0), (PairwiseTarget(random_partition(rng, n + 1, 3)), 0.5)], x)


def test_shape_validation():
    target = PairwiseTarget(Partition([0, 0, 1]))
    with pytest.raises(ValueError):
        pairwise_loss([(target, 1.0)], np.zeros((4, 2)))
    with pytest.raises(ValueError):
        PairwiseTarget(Partition([]))
