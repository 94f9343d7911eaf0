"""Stochastic block model sampler in O(m) memory, for benchmark inputs.

For every pair of blocks the number of edges is drawn from a binomial, then
that many distinct node pairs are sampled inside the pair. No n x n array is
ever built, so a 10k-node graph costs memory in proportion to its edges.
Output files use the formats ``comdet.load_dataset`` reads: ``labels.tsv``
(which fixes node order), ``edges.tsv`` and a dense ``attrs.csv``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def _distinct_pairs(rng: np.random.Generator, na: int, nb: int, count: int,
                    same: bool) -> tuple[np.ndarray, np.ndarray]:
    """``count`` distinct pairs from an ``na`` x ``nb`` grid, uniformly.

    With ``same`` the grid is one block against itself and only unordered
    pairs ``i < j`` are drawn. Duplicates are redrawn, so memory is O(count).
    """
    codes = np.empty(0, dtype=np.int64)
    while codes.size < count:
        need = count - codes.size
        i = rng.integers(0, na, size=need)
        j = rng.integers(0, nb, size=need)
        if same:
            keep = i != j
            i, j = np.minimum(i, j)[keep], np.maximum(i, j)[keep]
        codes = np.union1d(codes, i * nb + j)
    return np.divmod(codes, nb)


def block_edges(sizes, p_in, p_out: float, rng: np.random.Generator,
                no_edges=frozenset()) -> np.ndarray:
    """Edge array ``(m, 2)`` with ``u < v``, sorted, of a block model.

    ``sizes`` gives the block sizes in node order and ``p_in`` the edge
    probability inside each block (one value, or one per block). Block pairs
    listed in ``no_edges`` (as ``(a, b)`` with ``a < b``) get no edges between
    them. Each block is also spanned by a random recursive tree (every node
    links to a uniformly chosen earlier node of its block), so every block is
    connected whatever ``p_in`` is.
    """
    sizes = [int(s) for s in sizes]
    p_in = np.broadcast_to(np.asarray(p_in, dtype=np.float64), (len(sizes),))
    starts = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    parts = []
    for a, na in enumerate(sizes):
        child = np.arange(1, na)
        parent = (rng.random(na - 1) * child).astype(np.int64)
        parts.append(np.stack([parent, child], axis=1) + starts[a])
        for b in range(a, len(sizes)):
            if (a, b) in no_edges:
                continue
            nb = sizes[b]
            same = a == b
            slots = na * (na - 1) // 2 if same else na * nb
            count = int(rng.binomial(slots, p_in[a] if same else p_out))
            if count == 0:
                continue
            i, j = _distinct_pairs(rng, na, nb, count, same)
            parts.append(np.stack([i + starts[a], j + starts[b]], axis=1))
    edges = np.concatenate(parts)
    # a tree edge may repeat a sampled pair; keep each pair once
    n = starts[-1]
    codes = np.unique(edges[:, 0] * n + edges[:, 1])
    return np.stack(np.divmod(codes, n), axis=1)


def noisy_labels(block_label: np.ndarray, sizes, noise: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Per-node labels from block labels, a ``noise`` share moved elsewhere.

    A moved node gets a label drawn uniformly from the other labels, so it
    usually has no edge into its new label and splits it further.
    """
    labels = np.repeat(np.asarray(block_label, dtype=np.int64), sizes)
    k = int(labels.max()) + 1
    moved = np.flatnonzero(rng.random(labels.size) < noise)
    shift = rng.integers(1, k, size=moved.size)
    labels[moved] = (labels[moved] + shift) % k
    return labels


def binary_csv_rows(x: np.ndarray) -> bytes:
    """Dense CSV body ``id,v1,...`` for a 0/1 matrix, ids ``0..n-1``.

    Cells are written ``0.0``/``1.0``, as ``comdet`` writes dense attributes.
    """
    n, t = x.shape
    cells = np.frombuffer(b",0.0,1.0", dtype="S4")[x.astype(np.int64)]
    body = cells.view(np.uint8).reshape(n, 4 * t)
    rows = [str(i).encode() + body[i].tobytes() + b"\n" for i in range(n)]
    return b"".join(rows)


def write_files(out_dir, edges: np.ndarray, labels: np.ndarray,
                attrs: np.ndarray) -> dict[str, Path]:
    """Write ``labels.tsv``, ``edges.tsv`` and ``attrs.csv`` into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"edges": out / "edges.tsv", "attrs": out / "attrs.csv",
             "labels": out / "labels.tsv"}
    paths["labels"].write_text("".join(f"{i}\t{c}\n" for i, c in enumerate(labels.tolist())))
    paths["edges"].write_text("".join(f"{u}\t{v}\n" for u, v in edges.tolist()))
    paths["attrs"].write_bytes(binary_csv_rows(attrs))
    return paths
