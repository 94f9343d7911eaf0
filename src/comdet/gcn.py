"""Three-layer graph-convolutional encoder with hand-written gradients.

The forward pass propagates attributes through the symmetrically normalized
adjacency (no self-loops are added; isolated nodes receive zero rows), applies
SELU at each layer, then maps the last activation to a non-negative embedding
whose rows have exactly unit L2 norm (or are exactly zero for degenerate
rows). Backward passes mirror the forward chain step by step, and training is
full-batch Adam. Everything is deterministic for a given seed.

The first layer's input Â·X never changes, so ``GcnModel.propagate`` builds it
once per attribute matrix, and ``train`` and ``forward`` take its result.
Sparse attributes (bag-of-words rows are about 1% nonzero) stay in factored
form: the first layer applies Â·(X·W) and Xᵀ·(Â·dZ) instead of materializing
the dense n×T product Â·X, which can move the loss in its last bits.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, aslinearoperator

from .graph import Graph

SELU_ALPHA = 1.6732632423543772
SELU_LAMBDA = 1.0507009873554805
EPS = 1e-12
# Adam moment decay rates and denominator guard (Kingma & Ba defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# a sparse multiply-add costs about as much as 12 dense ones (scipy CSR
# against one-thread BLAS), so the factored first layer, at
# (nnz(X) + nnz(Â))·h multiply-adds, wins below roughly 8% density
_SPARSE_COST = 12

_MAGIC = b"CDGC"
_VERSION = 1


def selu(z: np.ndarray) -> np.ndarray:
    return SELU_LAMBDA * np.where(z > 0, z, SELU_ALPHA * np.expm1(z))


def selu_grad(z: np.ndarray) -> np.ndarray:
    return SELU_LAMBDA * np.where(z > 0, 1.0, SELU_ALPHA * np.exp(z))


def normalized_adjacency(g: Graph) -> sp.csr_matrix:
    """D^{-1/2} A D^{-1/2} on the graph's own CSR; isolated nodes get zero rows."""
    dinv = 1.0 / np.sqrt(np.maximum(g.degrees, 1))
    rows = np.repeat(np.arange(g.n), g.degrees)
    return sp.csr_matrix((dinv[rows] * dinv[g.indices], g.indices, g.indptr),
                         shape=(g.n, g.n))


class GcnModel:
    """Encoder state: normalized adjacency plus three weight matrices."""

    def __init__(self, g: Graph, in_dim: int,
                 hidden_dims: tuple[int, int, int] = (256, 128, 64),
                 seed: int = 0) -> None:
        if in_dim < 1:
            raise ValueError("in_dim must be >= 1")
        if len(hidden_dims) != 3 or any(d < 1 for d in hidden_dims):
            raise ValueError("hidden_dims must be three positive sizes")
        self.a_norm = normalized_adjacency(g)
        self.in_dim = int(in_dim)
        self.hidden_dims = tuple(int(d) for d in hidden_dims)
        self.seed = int(seed)
        # Glorot-uniform weights drawn from the seed
        rng = np.random.default_rng(seed)
        dims = (self.in_dim, *self.hidden_dims)
        self.weights: list[np.ndarray] = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))

    def propagate(self, x) -> LinearOperator:
        """The first layer's constant input Â·X for dense or sparse attributes ``x``.

        When the factored product Â·(X·W) costs less than the dense (Â·X)·W
        (at most about one nonzero in ``_SPARSE_COST`` cells of ``x``), the
        result applies Â and X as two sparse factors; otherwise it wraps the
        dense product ``a_norm @ x``, computed here once.
        """
        x = sp.csr_matrix(x, dtype=np.float64)
        n = self.a_norm.shape[0]
        if x.shape != (n, self.in_dim):
            raise ValueError(
                f"expected attributes of shape {(n, self.in_dim)}, got {x.shape}")
        if _SPARSE_COST * (x.count_nonzero() + self.a_norm.nnz) < n * self.in_dim:
            return aslinearoperator(self.a_norm) @ aslinearoperator(x)
        return aslinearoperator(self.a_norm @ x.toarray())

    def forward(self, ax0: LinearOperator) -> tuple[np.ndarray, dict]:
        """Embed from ``ax0 = propagate(x)``; returns (embedding, cache for backward)."""
        if not isinstance(ax0, LinearOperator):
            raise TypeError("forward takes the output of GcnModel.propagate(x), "
                            f"not {type(ax0).__name__}")
        cache: dict = {"ax": [], "z": []}
        h = None
        for layer, w in enumerate(self.weights):
            ah = self.a_norm @ h if layer else ax0
            z = ah @ w
            h = selu(z)
            cache["ax"].append(ah)
            cache["z"].append(z)

        # row-normalize by the (sign-safely shifted) row sum, squash, then
        # square and scale to exactly unit-norm rows
        rowsum = h.sum(axis=1, keepdims=True)
        den = rowsum + EPS * np.where(rowsum >= 0, 1.0, -1.0)
        xb = h / den
        xh = np.tanh(xb)
        r = np.linalg.norm(xh, axis=1, keepdims=True)
        u = xh ** 2 / (r + EPS)
        s = np.linalg.norm(u, axis=1, keepdims=True)
        nonzero = s > EPS
        xe = np.where(nonzero, u / np.where(nonzero, s, 1.0), 0.0)
        cache.update(h3=h, den=den, xh=xh, r=r, u=u, s=s, nonzero=nonzero)
        return xe, cache

    def backward(self, cache: dict, d_xe: np.ndarray) -> list[np.ndarray]:
        """Gradients of the loss w.r.t. the three weight matrices."""
        xh, r, u, s = cache["xh"], cache["r"], cache["u"], cache["s"]
        nonzero = cache["nonzero"]

        # unit-norm scaling: xe = u / s on non-degenerate rows
        safe_s = np.where(nonzero, s, 1.0)
        dot = (d_xe * u).sum(axis=1, keepdims=True)
        du = np.where(nonzero, d_xe / safe_s - u * dot / safe_s ** 3, 0.0)

        # u = xh^2 / (r + eps) with r = ||xh||
        rp = r + EPS
        inv_r = np.where(r > 0, 1.0 / np.where(r > 0, r, 1.0), 0.0)
        row = (du * xh ** 2).sum(axis=1, keepdims=True)
        d_xh = 2.0 * xh * du / rp - xh * row * inv_r / rp ** 2

        # xh = tanh(xb)
        d_xb = d_xh * (1.0 - xh ** 2)

        # xb = h3 / den with den = rowsum(h3) + shift
        h3, den = cache["h3"], cache["den"]
        row = (d_xb * h3).sum(axis=1, keepdims=True)
        d_h = d_xb / den - row / den ** 2

        grads: list[np.ndarray] = [None] * len(self.weights)
        for layer in range(len(self.weights) - 1, -1, -1):
            dz = d_h * selu_grad(cache["z"][layer])
            grads[layer] = cache["ax"][layer].T @ dz
            if layer:
                d_h = self.a_norm @ (dz @ self.weights[layer].T)
        return grads


@dataclass
class AdamState:
    """Full-batch Adam with bias correction."""

    lr: float = 0.001
    t: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_weights(cls, weights: list[np.ndarray], lr: float = 0.001) -> "AdamState":
        return cls(lr=lr,
                   m=[np.zeros_like(w) for w in weights],
                   v=[np.zeros_like(w) for w in weights])

    def step(self, weights: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.t += 1
        for i, (w, grad) in enumerate(zip(weights, grads)):
            self.m[i] = ADAM_BETA1 * self.m[i] + (1.0 - ADAM_BETA1) * grad
            self.v[i] = ADAM_BETA2 * self.v[i] + (1.0 - ADAM_BETA2) * grad ** 2
            m_hat = self.m[i] / (1.0 - ADAM_BETA1 ** self.t)
            v_hat = self.v[i] / (1.0 - ADAM_BETA2 ** self.t)
            w -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def training_bytes(n: int, in_dim: int, hidden_dims: tuple[int, int, int]) -> int:
    """Float64 bytes that training holds: the weights, their gradients and
    both Adam moments, plus the cache of one forward pass over ``n`` nodes."""
    d1, d2, d3 = hidden_dims
    weights = in_dim * d1 + d1 * d2 + d2 * d3
    # z of every layer, Â·h into layers 2 and 3, h3, xh and u, and the
    # per-row den, r and s
    cache = n * (2 * d1 + 2 * d2 + 4 * d3 + 3)
    return 8 * (4 * weights + cache)


class TrainingDiverged(RuntimeError):
    """Raised when the loss stops being finite; carries a diagnostic snapshot."""

    def __init__(self, epoch: int, loss: float, weight_norms: list[float]) -> None:
        self.epoch = epoch
        self.loss = loss
        self.weight_norms = weight_norms
        super().__init__(
            f"non-finite loss {loss!r} at epoch {epoch}; "
            f"weight norms {['%.3e' % x for x in weight_norms]}")


def train(model: GcnModel, ax0: LinearOperator, loss_provider, epochs: int = 300,
          learning_rate: float = 0.001) -> tuple[GcnModel, list[float]]:
    """Optimize the model full-batch from ``ax0 = model.propagate(x)``;
    returns the model and per-epoch losses.

    ``loss_provider`` maps an embedding to ``(loss, d_loss/d_embedding)``.
    Zero epochs (or a zero learning rate) leave the weights untouched.
    """
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    adam = AdamState.for_weights(model.weights, lr=learning_rate)
    trace: list[float] = []
    for epoch in range(epochs):
        xe, cache = model.forward(ax0)
        loss, d_xe = loss_provider(xe)
        if not np.isfinite(loss):
            raise TrainingDiverged(epoch, float(loss),
                                   [float(np.linalg.norm(w)) for w in model.weights])
        grads = model.backward(cache, d_xe)
        adam.step(model.weights, grads)
        trace.append(float(loss))
    return model, trace


def save_checkpoint(model: GcnModel, path) -> None:
    """Write the versioned binary checkpoint (layout in docs/FORMATS.md)."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IqIIII", _VERSION, model.seed, model.in_dim,
                             *model.hidden_dims))
        for w in model.weights:
            fh.write(np.ascontiguousarray(w, dtype=np.float64).tobytes())


def load_checkpoint(path, g: Graph) -> GcnModel:
    """Rebuild a model from a checkpoint; the graph supplies the adjacency."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"not a model checkpoint (bad magic {magic!r})")
        header = fh.read(28)
        if len(header) != 28:
            raise ValueError("checkpoint truncated")
        version, seed, in_dim, d1, d2, d3 = struct.unpack("<IqIIII", header)
        if version != _VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        dims = (in_dim, d1, d2, d3)
        shapes = list(zip(dims[:-1], dims[1:]))
        # sizes are checked before the model, so a bad header allocates nothing
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        need = 8 * sum(fan_in * fan_out for fan_in, fan_out in shapes)
        if left != need:
            raise ValueError("checkpoint truncated" if left < need
                             else "trailing bytes after checkpoint payload")
        model = GcnModel(g, in_dim, (d1, d2, d3), seed=seed)
        for i, (fan_in, fan_out) in enumerate(shapes):
            raw = fh.read(8 * fan_in * fan_out)
            model.weights[i] = np.frombuffer(raw, dtype="<f8").reshape(fan_in, fan_out).copy()
    return model
