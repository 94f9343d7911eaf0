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

An epoch holds one forward cache and a few n×d buffers beside it. Besides
the first layer's input, the cache holds each layer's activation h and the
output head's per-row factors, nothing else. A hidden layer computes
Â·(h·W), and backward needs neither Â·h nor the pre-activation z: Â is
symmetric, so one product P = Â·dZ per layer gives both the weight gradient
hᵀ·P = (Â·h)ᵀ·dZ and the upstream gradient P·Wᵀ, and SELU′(z) is read from
h = selu(z), as λ where h > 0 and h + λα elsewhere. ``forward`` fills the
cache for one ``backward``, which consumes it: each entry is dropped once
its gradient step has read it, and each activation is overwritten with its
layer's dZ. SELU runs in place in each fresh product, and the head builds
the embedding in one buffer. Backward forms P·Wᵀ one row block at a time,
straight into the activation's rows, and recomputes the head's xh and u a
row block at a time, so neither an n×d_in upstream gradient nor the head's
intermediates are ever whole. SELU, SELU′ (times the upstream gradient) and
Adam's update each run as one chain of elementwise operations over blocks
of about ``_BLOCK_CELLS`` cells, so a block's intermediates stay in L2
cache, and none uses a masked copy. Every blocked form keeps the bits of
its whole-array form (``selu`` and ``_selu_grad_of_output``, the one SELU′
kernel, give the argument; Adam keeps its operation order); the row-blocked
products assume, as ``_row_products`` says, that the BLAS gives a row the
same bits in any block. ``training_bytes`` is the budget for the cache and
the weight-sized state.
"""

from __future__ import annotations

import os
import struct

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, aslinearoperator

from .graph import Graph

__all__ = ["GcnModel", "TrainingDiverged", "load_checkpoint", "normalized_adjacency",
           "save_checkpoint", "train"]

SELU_ALPHA = 1.6732632423543772
SELU_LAMBDA = 1.0507009873554805
# SELU′ of z ≤ 0 is λα·exp(z) = selu(z) + λα
_LAMBDA_ALPHA = SELU_LAMBDA * SELU_ALPHA
EPS = 1e-12
# Adam moment decay rates and denominator guard (Kingma & Ba defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# a sparse multiply-add costs about as much as 12 dense ones (scipy CSR
# against one-thread BLAS), so the factored first layer, at
# (nnz(X) + nnz(Â))·h multiply-adds, wins below roughly 8% density
_SPARSE_COST = 12

# cells per block of an elementwise chain (SELU, its derivative, Adam), so
# that a block's temporaries stay in L2 cache between the chain's operations
_BLOCK_CELLS = 2 ** 15

_MAGIC = b"CDGC"
_VERSION = 1


def _blocks(a: np.ndarray, scratch: int = 1):
    """``(rows, tmp, ...)`` for each block of about ``_BLOCK_CELLS`` cells of
    ``a`` (at least 1-d): a slice of its first axis, which is a view whatever
    the strides, and ``scratch`` arrays of the block's shape."""
    step = max(1, _BLOCK_CELLS // max(1, a[:1].size))
    tmps = [np.empty((min(step, len(a)), *a.shape[1:]), dtype=a.dtype)
            for _ in range(scratch)]
    for start in range(0, len(a), step):
        yield slice(start, start + step), *(tmp[:len(a) - start] for tmp in tmps)


def _row_products(p: np.ndarray, w_t: np.ndarray):
    """``(rows, block)`` for each row block of the product ``p @ w_t``, about
    ``_BLOCK_CELLS`` cells a block, so the whole product never exists.

    Every product the BLAS computes has the same number of rows, at least
    two: a short last block is cut from a full-height product that repeats
    rows of the block before. A row gets the bits it has in the whole-array
    product as long as the BLAS gives a row the same bits in any block of
    that height; numpy hands a single row to gemv, which may sum in another
    order than gemm, hence the floor of two.
    """
    n = len(p)
    step = max(1, min(n, max(2, _BLOCK_CELLS // w_t.shape[1])))
    out = np.empty((step, w_t.shape[1]))
    for start in range(0, n, step):
        lo = min(start, n - step)
        np.matmul(p[lo:lo + step], w_t, out=out)
        yield slice(start, start + step), out[start - lo:]


def selu(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """λ·(z if z > 0 else α·expm1(z)), built in ``out`` (a new buffer by
    default; ``out=z`` overwrites z).

    Computed block by block, with no mask, as
    copysign(λ·(α·expm1(min(z, 0)) + max(z, 0)), z), which has the same
    bits: for z > 0, α·expm1(0) = 0 and 0 + z = z; for z < 0, adding
    max(z, 0) = +0 leaves the nonzero α·expm1(z) as it is; for z = ±0,
    ``copysign`` restores z's sign, which the sum of two zeros can lose.
    """
    out = np.empty_like(z) if out is None else out
    zs, hs = np.atleast_1d(z, out)
    for rows, pos, neg in _blocks(zs, 2):
        zb = zs[rows]  # read until the last step, which may overwrite it
        np.maximum(zb, 0.0, out=pos)
        np.minimum(zb, 0.0, out=neg)
        np.expm1(neg, out=neg)
        neg *= SELU_ALPHA
        neg += pos
        neg *= SELU_LAMBDA
        np.copysign(neg, zb, out=hs[rows])
    return out


def _selu_grad_of_output(h: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """SELU′(z) times ``factor`` (of h's shape), read from the activation
    h = selu(z) and built in h, which it returns.

    SELU′(z) is λ where h > 0 and λα·exp(z) = h + λα elsewhere. Computed
    block by block, with no ``exp`` and no masked copy, as
    min(h, 0) + λα + [h > 0]·(λ − λα): λ − λα is exact (Sterbenz) and
    λα + (λ − λα) rounds to exactly λ, and for h ≤ 0 the added term is
    −0.0, so each cell has the bits of λ or of h + λα.
    """
    hs, fs = np.atleast_1d(h, factor)
    for rows, tmp in _blocks(hs):
        hb = hs[rows]
        np.greater(hb, 0.0, out=tmp)  # before hb is written
        tmp *= SELU_LAMBDA - _LAMBDA_ALPHA
        np.minimum(hb, 0.0, out=hb)
        hb += _LAMBDA_ALPHA
        hb += tmp
        hb *= fs[rows]
    return h


def normalized_adjacency(g: Graph) -> sp.csr_matrix:
    """D^{-1/2} A D^{-1/2} on the graph's own CSR; isolated nodes get zero rows."""
    dinv = 1.0 / np.sqrt(np.maximum(g.degrees, 1))
    rows = np.repeat(np.arange(g.n), g.degrees)
    return sp.csr_matrix((dinv[rows] * dinv[g.indices], g.indices, g.indptr),
                         shape=(g.n, g.n))


class GcnModel:
    """Encoder state: normalized adjacency plus three weight matrices."""

    def __init__(self, g: Graph, in_dim: int, hidden_dims: tuple[int, int, int],
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

        Layer 0 applies ``ax0`` to its weights; each later layer computes
        Â·(h·W), and SELU runs in place in each fresh product. The head
        builds the embedding in one n×d3 buffer (tanh, then the squared
        rows, then their unit-norm scaling). The cache serves one
        ``backward``, which consumes it. Until then it holds ``ax0``, the
        activations into layers 2 and 3 (``"h"``), the last activation
        ``"h3"`` and the head's per-row ``den``, ``r``, ``s`` and
        ``nonzero``, from which backward recomputes the rest of the head.
        """
        if not isinstance(ax0, LinearOperator):
            raise TypeError("forward takes the output of GcnModel.propagate(x), "
                            f"not {type(ax0).__name__}")
        cache: dict = {"ax0": ax0, "h": []}
        h = ax0 @ self.weights[0]
        selu(h, out=h)
        for w in self.weights[1:]:
            cache["h"].append(h)
            h = self.a_norm @ (h @ w)
            selu(h, out=h)

        # row-normalize by the (sign-safely shifted) row sum, squash, then
        # square and scale to exactly unit-norm rows: xh, u and xe in turn
        # fill one buffer
        rowsum = h.sum(axis=1, keepdims=True)
        den = rowsum + EPS * np.where(rowsum >= 0, 1.0, -1.0)
        xe = h / den
        np.tanh(xe, out=xe)
        r = np.linalg.norm(xe, axis=1, keepdims=True)
        np.square(xe, out=xe)
        xe /= r + EPS
        s = np.linalg.norm(xe, axis=1, keepdims=True)
        nonzero = s > EPS
        xe /= np.where(nonzero, s, 1.0)
        np.copyto(xe, 0.0, where=~nonzero)
        cache.update(h3=h, den=den, r=r, s=s, nonzero=nonzero)
        return xe, cache

    def backward(self, cache: dict, d_xe: np.ndarray) -> list[np.ndarray]:
        """Gradients of the loss w.r.t. the three weight matrices.

        Per layer, from the top: dZ = SELU′ (read from the layer's
        activation, which it overwrites) times the upstream gradient, then
        P = Â·dZ once and the weight gradient h_prevᵀ·P. The upstream
        gradient of the layer below, P·Wᵀ, is formed one row block at a time
        (``_row_products``) and turned into that layer's dZ in the
        activation's rows, so no n×d_in array of it exists. Layer 0's
        gradient is ``ax0``'s transpose applied to dZ. ``d_xe`` is left as
        it is. Consumes ``cache``, which it leaves empty: every entry is
        dropped once used. A second ``backward`` on the same cache raises
        ``ValueError``.
        """
        if "h3" not in cache or len(cache["h"]) != len(self.weights) - 1:
            raise ValueError("this forward cache was already consumed by backward; "
                             "run forward again for a fresh one")
        dz = _selu_grad_of_output(cache["h3"], _head_backward(cache, d_xe))
        del cache["h3"]  # its buffer is dz now
        hs = cache.pop("h")
        grads: list[np.ndarray] = [None] * len(self.weights)
        for layer in range(len(self.weights) - 1, 0, -1):
            p = self.a_norm @ dz
            del dz
            h = hs.pop()
            grads[layer] = h.T @ p
            for rows, d_h in _row_products(p, self.weights[layer].T):
                _selu_grad_of_output(h[rows], d_h)  # h's rows become dZ's
            dz = h
            del p, h
        # Â·X is a LinearOperator: its rmatmat skips the two copies that its
        # transpose makes to conjugate dz and the result
        grads[0] = cache.pop("ax0").rmatmat(dz)
        return grads


def _head_backward(cache: dict, d_xe: np.ndarray) -> np.ndarray:
    """The output head's gradient w.r.t. ``h3``, in a new array; ``d_xe`` is
    left as it is.

    Pops the head's per-row entries but ``h3``, which backward reads next.
    The n×d work runs one row block at a time: each block recomputes xh and
    u from h3 with forward's operations, so they have forward's bits, then
    takes the whole-array form's steps on its rows, in three block-sized
    scratch arrays.
    """
    h3 = cache["h3"]
    den, r, s, nonzero = (cache.pop(k) for k in ("den", "r", "s", "nonzero"))
    # the per-row factors, as n×1 arrays
    safe_s = np.where(nonzero, s, 1.0)
    safe_s3 = safe_s ** 3
    degenerate = ~nonzero
    rp = r + EPS
    rp2 = rp ** 2
    inv_r = np.where(r > 0, 1.0 / np.where(r > 0, r, 1.0), 0.0)
    den2 = den ** 2
    d_h3 = np.empty_like(h3)
    for rows, xh, u, tmp in _blocks(h3, 3):
        np.divide(h3[rows], den[rows], out=xh)
        np.tanh(xh, out=xh)
        np.square(xh, out=u)
        u /= rp[rows]
        d_xb, du = d_xe[rows], d_h3[rows]

        # unit-norm scaling: xe = u / s on non-degenerate rows
        np.multiply(d_xb, u, out=tmp)
        dot = tmp.sum(axis=1, keepdims=True)
        np.divide(d_xb, safe_s[rows], out=du)
        np.multiply(u, dot, out=tmp)
        tmp /= safe_s3[rows]
        du -= tmp
        np.copyto(du, 0.0, where=degenerate[rows])

        # u = xh^2 / (r + eps) with r = ||xh||; du becomes d_xh
        np.square(xh, out=tmp)
        tmp *= du
        row = tmp.sum(axis=1, keepdims=True)
        np.multiply(xh, 2.0, out=tmp)
        du *= tmp
        du /= rp[rows]
        np.multiply(xh, row, out=tmp)
        tmp *= inv_r[rows]
        tmp /= rp2[rows]
        du -= tmp

        # xh = tanh(xb); du becomes d_xb
        np.square(xh, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        du *= tmp

        # xb = h3 / den with den = rowsum(h3) + shift; du becomes d_h3
        np.multiply(du, h3[rows], out=tmp)
        row = tmp.sum(axis=1, keepdims=True)
        du /= den[rows]
        du -= row / den2[rows]
    return d_h3


class AdamState:
    """Full-batch Adam with bias correction, from zero moments at step 0."""

    def __init__(self, weights: list[np.ndarray], lr: float) -> None:
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(w) for w in weights]
        self.v = [np.zeros_like(w) for w in weights]

    def step(self, weights: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """Update ``weights`` in place. Consumes ``grads``: once the moments
        have read a gradient, its array holds the step. The operations run in
        one fixed order on each block of about ``_BLOCK_CELLS`` cells of a
        weight, its gradient and both moments, with one block-sized
        temporary."""
        self.t += 1
        m_scale = 1.0 - ADAM_BETA1 ** self.t
        v_scale = 1.0 - ADAM_BETA2 ** self.t
        for w, grad, m, v in zip(weights, grads, self.m, self.v, strict=True):
            for rows, tmp in _blocks(w):
                wb, g, mb, vb = w[rows], grad[rows], m[rows], v[rows]
                np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
                mb *= ADAM_BETA1
                mb += tmp
                np.square(g, out=tmp)
                tmp *= 1.0 - ADAM_BETA2
                vb *= ADAM_BETA2
                vb += tmp
                # w -= lr · m_hat / (sqrt(v_hat) + eps)
                np.divide(vb, v_scale, out=tmp)
                np.sqrt(tmp, out=tmp)
                tmp += ADAM_EPS
                step = np.divide(mb, m_scale, out=g)
                step *= self.lr
                step /= tmp
                wb -= step


def training_bytes(n: int, in_dim: int, hidden_dims: tuple[int, int, int]) -> int:
    """Float64 bytes that training holds: the weights, their gradients and
    both Adam moments, plus the cache of one forward pass over ``n`` nodes,
    n·(d1 + d2 + d3 + 3) cells. The n×d3 buffers of an epoch (the
    embedding, the loss's and the head's gradients) come on top: a short
    run peaks at about 1.3 × this with one loss term, 1.4 × with two."""
    d1, d2, d3 = hidden_dims
    weights = in_dim * d1 + d1 * d2 + d2 * d3
    # the activations h1, h2 and h3, and the head's per-row den, r and s
    cache = n * (d1 + d2 + d3 + 3)
    return 8 * (4 * weights + cache)


class TrainingDiverged(RuntimeError):
    """Raised when the loss stops being finite, or an epoch's arithmetic
    overflows, divides by zero or turns invalid (``reason`` then holds
    numpy's message and ``loss`` is nan); carries a diagnostic snapshot."""

    def __init__(self, epoch: int, loss: float, weight_norms: list[float],
                 reason: str | None = None) -> None:
        self.epoch = epoch
        self.loss = loss
        self.weight_norms = weight_norms
        super().__init__(
            f"{reason or f'non-finite loss {loss!r}'} at epoch {epoch}; "
            f"weight norms {['%.3e' % x for x in weight_norms]}")


def train(model: GcnModel, ax0: LinearOperator, loss_provider, epochs: int,
          learning_rate: float) -> tuple[GcnModel, list[float]]:
    """Optimize the model full-batch from ``ax0 = model.propagate(x)``;
    returns the model and per-epoch losses.

    ``loss_provider`` maps an embedding to ``(loss, d_loss/d_embedding)``.
    Zero epochs (or a zero learning rate) leave the weights untouched. Each
    epoch's backward consumes its forward cache, and the epoch drops its
    embedding and gradients before the next forward, so only one cache is
    alive at a time. An epoch runs with numpy's overflow, divide and invalid
    flags raising, so an attribute near the float64 limit stops training
    with :class:`TrainingDiverged` instead of a warning and a degenerate
    embedding.
    """
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    adam = AdamState(model.weights, learning_rate)
    trace: list[float] = []
    for epoch in range(epochs):
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                xe, cache = model.forward(ax0)
                loss, d_xe = loss_provider(xe)
                del xe  # backward needs only the cache and d_xe
                if not np.isfinite(loss):
                    raise TrainingDiverged(epoch, float(loss), _weight_norms(model))
                adam.step(model.weights, model.backward(cache, d_xe))
        except FloatingPointError as exc:
            raise TrainingDiverged(epoch, np.nan, _weight_norms(model), str(exc)) from exc
        # nothing n×d outlives its epoch: backward emptied the cache
        del cache, d_xe
        trace.append(float(loss))
    return model, trace


def _weight_norms(model: GcnModel) -> list[float]:
    return [float(np.linalg.norm(w)) for w in model.weights]


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
