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

An epoch holds one forward cache and a few n×d buffers beside it. ``forward``
fills the cache for one ``backward``, which consumes it: each entry is dropped
once its gradient step has read it. SELU, its derivative, the output head
and Adam's update work in place, in the same operation order, so every value
keeps its bits. ``training_bytes`` is the budget for the cache and the
weight-sized state.
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
    """λ·(z if z > 0 else α·expm1(z)), built in one new buffer."""
    h = np.expm1(z, out=np.empty_like(z))
    h *= SELU_ALPHA
    np.copyto(h, z, where=z > 0)
    h *= SELU_LAMBDA
    return h


def selu_grad(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """λ·(1 if z > 0 else α·exp(z)), built in ``out`` (a new buffer by
    default; ``out=z`` overwrites z)."""
    positive = z > 0
    g = np.exp(z, out=np.empty_like(z) if out is None else out)
    g *= SELU_ALPHA
    np.copyto(g, 1.0, where=positive)
    g *= SELU_LAMBDA
    return g


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
        """Embed from ``ax0 = propagate(x)``; returns (embedding, cache).

        The cache serves one ``backward``, which consumes it. Until then it
        holds each layer's input Â·h (``"ax"``) and pre-activation (``"z"``),
        the last activation ``"h3"`` and the output head's intermediates.
        """
        if not isinstance(ax0, LinearOperator):
            raise TypeError("forward takes the output of GcnModel.propagate(x), "
                            f"not {type(ax0).__name__}")
        cache: dict = {"ax": [], "z": []}
        h = None
        for layer, w in enumerate(self.weights):
            ah = self.a_norm @ h if layer else ax0
            del h  # backward reads Â·h, not h
            z = ah @ w
            h = selu(z)
            cache["ax"].append(ah)
            cache["z"].append(z)

        # row-normalize by the (sign-safely shifted) row sum, squash, then
        # square and scale to exactly unit-norm rows
        rowsum = h.sum(axis=1, keepdims=True)
        den = rowsum + EPS * np.where(rowsum >= 0, 1.0, -1.0)
        xh = h / den
        np.tanh(xh, out=xh)
        r = np.linalg.norm(xh, axis=1, keepdims=True)
        u = xh ** 2
        u /= r + EPS
        s = np.linalg.norm(u, axis=1, keepdims=True)
        nonzero = s > EPS
        xe = u / np.where(nonzero, s, 1.0)
        np.copyto(xe, 0.0, where=~nonzero)
        cache.update(h3=h, den=den, xh=xh, r=r, u=u, s=s, nonzero=nonzero)
        return xe, cache

    def backward(self, cache: dict, d_xe: np.ndarray) -> list[np.ndarray]:
        """Gradients of the loss w.r.t. the three weight matrices.

        Consumes ``cache``: every entry is popped once used, and each layer's
        ``z`` is overwritten with its gradient. A second ``backward`` on the
        same cache raises ``ValueError``.
        """
        if "h3" not in cache or len(cache["z"]) != len(self.weights):
            raise ValueError("this forward cache was already consumed by backward; "
                             "run forward again for a fresh one")
        d_h = _head_backward(cache, d_xe)
        grads: list[np.ndarray] = [None] * len(self.weights)
        for layer in range(len(self.weights) - 1, -1, -1):
            dz = cache["z"].pop()
            selu_grad(dz, out=dz)  # nothing reads z again
            dz *= d_h
            del d_h
            grads[layer] = cache["ax"].pop().T @ dz
            if layer:
                d_h = self.a_norm @ (dz @ self.weights[layer].T)
        return grads


def _head_backward(cache: dict, d_xe: np.ndarray) -> np.ndarray:
    """The output head's gradient w.r.t. ``h3``, popping the head's cache
    entries; the n×d work runs in place in two buffers."""
    u, s, nonzero = cache.pop("u"), cache.pop("s"), cache.pop("nonzero")

    # unit-norm scaling: xe = u / s on non-degenerate rows
    safe_s = np.where(nonzero, s, 1.0)
    tmp = d_xe * u
    dot = tmp.sum(axis=1, keepdims=True)
    du = d_xe / safe_s
    np.multiply(u, dot, out=tmp)
    tmp /= safe_s ** 3
    du -= tmp
    np.copyto(du, 0.0, where=~nonzero)
    del u

    # u = xh^2 / (r + eps) with r = ||xh||; du becomes d_xh
    xh, r = cache.pop("xh"), cache.pop("r")
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

    # xh = tanh(xb); du becomes d_xb
    np.square(xh, out=tmp)
    np.subtract(1.0, tmp, out=tmp)
    du *= tmp
    del xh

    # xb = h3 / den with den = rowsum(h3) + shift; du becomes d_h3
    h3, den = cache.pop("h3"), cache.pop("den")
    np.multiply(du, h3, out=tmp)
    row = tmp.sum(axis=1, keepdims=True)
    du /= den
    du -= row / den ** 2
    return du


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
        """Update ``weights`` in place. Consumes ``grads``: once the moments
        have read a gradient, its array holds the step, so each weight needs
        one temporary besides."""
        self.t += 1
        for w, grad, m, v in zip(weights, grads, self.m, self.v, strict=True):
            tmp = (1.0 - ADAM_BETA1) * grad
            m *= ADAM_BETA1
            m += tmp
            np.square(grad, out=tmp)
            tmp *= 1.0 - ADAM_BETA2
            v *= ADAM_BETA2
            v += tmp
            # w -= lr · m_hat / (sqrt(v_hat) + eps)
            np.divide(v, 1.0 - ADAM_BETA2 ** self.t, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += ADAM_EPS
            step = np.divide(m, 1.0 - ADAM_BETA1 ** self.t, out=grad)
            step *= self.lr
            step /= tmp
            w -= step


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
    Zero epochs (or a zero learning rate) leave the weights untouched. Each
    epoch's backward consumes its forward cache, and the epoch drops its
    embedding and gradients before the next forward, so only one cache is
    alive at a time.
    """
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    adam = AdamState.for_weights(model.weights, lr=learning_rate)
    trace: list[float] = []
    for epoch in range(epochs):
        xe, cache = model.forward(ax0)
        loss, d_xe = loss_provider(xe)
        del xe  # backward needs only the cache and d_xe
        if not np.isfinite(loss):
            raise TrainingDiverged(epoch, float(loss),
                                   [float(np.linalg.norm(w)) for w in model.weights])
        adam.step(model.weights, model.backward(cache, d_xe))
        # nothing n×d outlives its epoch: backward emptied the cache
        del cache, d_xe
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
