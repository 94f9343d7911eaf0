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


def pairwise_loss(target: PairwiseTarget, x_e: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared gap between embedding similarities and co-membership.

    Returns ``(1/n^2) * ||H - X X^T||_F^2`` and its gradient
    ``(4/n^2) * (X X^T - H) X``, both in factored form.
    """
    x = np.asarray(x_e, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != target.n:
        raise ValueError(f"embedding must have {target.n} rows, got {x.shape}")
    n = target.n
    m = target.onehot.T @ x          # k x d community row sums
    g = x.T @ x                      # d x d
    value = (target.gram_norm_sq
             - 2.0 * float(np.sum(m * m))
             + float(np.sum(g * g))) / (n * n)
    grad = (4.0 / (n * n)) * (x @ g - target.onehot @ m)
    return value, grad


def total_loss(target_main: PairwiseTarget, target_refined: PairwiseTarget,
               x_e: np.ndarray, mu: float = 0.5) -> tuple[float, np.ndarray]:
    """Combined loss: main pairwise term plus ``mu`` times the refined term."""
    lm, gm = pairwise_loss(target_main, x_e)
    lr, gr = pairwise_loss(target_refined, x_e)
    return lm + mu * lr, gm + mu * gr
