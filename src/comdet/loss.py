"""Pairwise co-membership similarity loss, computed without the n x n target.

The target Gram matrix H = S S^T (S the one-hot community indicator) is never
materialized: its Frobenius products against the embedding factor through
S^T X, so cost stays O(n d (d + k)) in time and O(n (d + 1)) in memory.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .graph import Partition


class PairwiseTarget:
    """One-hot community indicator of a partition, kept sparse."""

    def __init__(self, partition: Partition) -> None:
        n, k = partition.n, partition.k
        if n == 0:
            raise ValueError("cannot build a target from an empty partition")
        self.n = n
        self.onehot = sp.csr_matrix(
            (np.ones(n), partition.assignment, np.arange(n + 1, dtype=np.int64)),
            shape=(n, k))
        sizes = partition.sizes().astype(np.float64)
        self.gram_norm_sq = float(np.sum(sizes ** 2))  # ||S S^T||_F^2


def pairwise_loss(terms: list[tuple[PairwiseTarget, float]], x_e: np.ndarray, *,
                  shared: tuple[float, np.ndarray] | None = None) -> tuple[float, np.ndarray]:
    """Sum of ``weight * term`` over ``(target, weight)`` pairs, with its gradient.

    A term is ``(1/n^2) * ||H - X X^T||_F^2``, gradient ``(4/n^2) * (X X^T - H) X``,
    in factored form. ``||X^T X||^2`` and ``X X^T X`` are computed once and go as
    ``shared`` to the call that adds the other terms, so each term is one call
    (bench/tracing.py counts them). One term of weight 1.0 comes back exactly.
    Each term's gradient is built in place, so a call of ``t`` terms holds
    ``t + 1`` n x d arrays: ``X X^T X`` and one gradient per term.
    """
    (target, weight), *rest = terms
    x = np.asarray(x_e, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != target.n:
        raise ValueError(f"embedding must have {target.n} rows, got {x.shape}")
    if shared is None:
        g = x.T @ x                  # d x d
        shared = float(np.sum(g * g)), x @ g
    g_norm_sq, xg = shared
    n = target.n
    m = target.onehot.T @ x          # k x d community row sums
    value = weight * ((target.gram_norm_sq - 2.0 * float(np.sum(m * m)) + g_norm_sq) / (n * n))
    # weight * ((4 / n²) * (xg - S m)), built in the S m buffer in that order
    grad = target.onehot @ m
    np.subtract(xg, grad, out=grad)
    grad *= 4.0 / (n * n)
    grad *= weight
    if rest:
        rest_value, rest_grad = pairwise_loss(rest, x, shared=shared)
        value += rest_value
        grad += rest_grad
    return value, grad
