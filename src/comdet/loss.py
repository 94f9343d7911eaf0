"""Pairwise co-membership similarity loss, computed without the n x n target.

The target Gram matrix H = S S^T (S the one-hot community indicator) is never
materialized: its Frobenius products against the embedding factor through
S^T X, so cost stays O(n d (d + k)) in time and O(n (d + 1)) in memory. S M
(M = S^T X, k x d) is read as the gather ``M[assignment]``, a row block at a
time. It has the bits of the sparse product, which adds each row to +0.0:
M is itself such a sum, so it holds no −0.0 that the addition would turn
into +0.0. A call of ``t`` terms holds ``t`` n x d arrays besides X:
X X^T X, which the last term's gradient overwrites, and one gradient for
each other term.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .gcn import _blocks
from .graph import Partition


class PairwiseTarget:
    """One-hot community indicator of a partition, kept sparse."""

    def __init__(self, partition: Partition) -> None:
        n, k = partition.n, partition.k
        if n == 0:
            raise ValueError("cannot build a target from an empty partition")
        self.n = n
        self.assignment = partition.assignment
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
    ``shared`` is consumed: the last term, which no other term follows, builds
    its gradient in the ``X X^T X`` buffer. So a two-term call holds two n x d
    arrays besides X.
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
    # weight * ((4 / n²) * (xg - S m)), in that order
    grad = np.empty_like(xg) if rest else xg
    for rows, sm in _blocks(grad):
        # the indices are in range; "clip" only skips the buffered check
        np.take(m, target.assignment[rows], axis=0, out=sm, mode="clip")
        np.subtract(xg[rows], sm, out=grad[rows])
    grad *= 4.0 / (n * n)
    grad *= weight
    if rest:
        rest_value, rest_grad = pairwise_loss(rest, x, shared=shared)
        value += rest_value
        grad += rest_grad
    return value, grad
