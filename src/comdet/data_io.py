"""Dataset loading, validation, synthetic generation, and result files.

All on-disk formats are plain text (see docs/FORMATS.md): whitespace edge
lists over arbitrary string ids, dense CSV or sparse-triplet attributes,
"id label" ground-truth files, and JSON for metric/config records. The label
file defines the node universe and its order; the other files must agree
with it exactly, and any mismatch is a hard error naming the offenders.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .graph import Graph, Partition, canonical_labels

__all__ = [
    "DataError",
    "DatasetBundle",
    "SyntheticSpec",
    "adjacency_as_features",
    "generate_synthetic",
    "load_dataset",
    "load_partition",
    "write_bundle",
    "write_results",
]

_MAX_LISTED = 5  # offenders shown in error messages before truncating
_BLOCK_CELLS = 2 ** 16  # dense CSV cells parsed per np.loadtxt call
ADJACENCY_NOTE = "no attribute file; using adjacency rows as features"


class DataError(Exception):
    """Malformed or inconsistent input data (CLI exit code 2)."""


@dataclass
class DatasetBundle:
    """A network, its node attributes, and its human-labeled communities.

    ``attributes`` may be dense or sparse; the bundle keeps a canonical
    float64 CSR copy (sorted indices, duplicates summed, no stored zeros).
    """

    graph: Graph
    attributes: sp.csr_matrix
    labels: Partition
    node_ids: list[str]
    name: str = "unnamed"
    notes: list[str] = field(default_factory=list)
    planted: Partition | None = None  # synthetic blocks before any uniting

    def __post_init__(self) -> None:
        n = self.graph.n
        if self.attributes.ndim != 2 or self.attributes.shape[0] != n:
            raise DataError(
                f"attribute matrix has shape {self.attributes.shape}, expected ({n}, T)")
        if self.labels.n != n:
            raise DataError(f"labels cover {self.labels.n} nodes, graph has {n}")
        if len(self.node_ids) != n:
            raise DataError(f"{len(self.node_ids)} node ids for {n} nodes")
        # copied first: both canonicalizing calls work in place
        self.attributes = sp.csr_matrix(self.attributes, dtype=np.float64, copy=True)
        self.attributes.sum_duplicates()
        self.attributes.eliminate_zeros()
        if not np.all(np.isfinite(self.attributes.data)):
            raise DataError("attribute matrix contains non-finite values")

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def t(self) -> int:
        return int(self.attributes.shape[1])


def _read_lines(path) -> list[tuple[int, str]]:
    """``(line number, stripped text)`` of every data line: blank lines and
    ``#`` comments are skipped."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from exc
    return [(lineno, stripped) for lineno, line in enumerate(text.splitlines(), 1)
            if (stripped := line.strip()) and not stripped.startswith("#")]


def _fields(path, lines, kind: str, shape: str):
    """Whitespace-split ``lines`` of ``path``, each holding the fields of ``shape``."""
    width = len(shape.split())
    for lineno, text in lines:
        row = text.split()
        if len(row) != width:
            raise DataError(f"{path}:{lineno}: {kind} lines must be {shape!r}, got {row!r}")
        yield lineno, row


def _widths_are(lines, width: int) -> bool:
    """Whether every line holds ``width`` whitespace-separated fields."""
    return set(map(len, map(str.split, (text for _, text in lines)))) <= {width}


def _listed(items) -> str:
    items = list(items)
    shown = ", ".join(repr(s) for s in items[:_MAX_LISTED])
    extra = len(items) - _MAX_LISTED
    return shown + (f" (+{extra} more)" if extra > 0 else "")


def _check_known(path, kind: str, unknown: list[str]) -> None:
    if unknown:
        raise DataError(
            f"{path}: {kind} missing from the label file: {_listed(dict.fromkeys(unknown))}")


def _check_covered(path, index: dict[str, int], seen: np.ndarray) -> None:
    if not seen.all():
        ids = list(index)
        raise DataError(f"{path}: nodes without any attribute row: "
                        f"{_listed(ids[i] for i in np.flatnonzero(~seen))}")


def _load_labels(path) -> tuple[list[str], dict[str, int], np.ndarray]:
    """Node universe and dense label codes, both in file order."""
    lines = _read_lines(path)
    fields = " ".join(text for _, text in lines).split()
    nodes, labels = fields[0::2], fields[1::2]
    index = dict(zip(nodes, range(len(nodes))))
    if len(index) < len(nodes) or not _widths_are(lines, 2):
        # the line loop names the first line of another width or repeated id
        seen: set[str] = set()
        for lineno, (node, _) in _fields(path, lines, "label", "id label"):
            if node in seen:
                raise DataError(f"{path}:{lineno}: duplicate node id {node!r}")
            seen.add(node)
    if not index:
        raise DataError(f"{path}: no labeled nodes")
    code = {label: c for c, label in enumerate(dict.fromkeys(labels))}
    return nodes, index, np.fromiter(map(code.__getitem__, labels), np.int64, len(labels))


def _edge_ends(path, index: dict[str, int]) -> np.ndarray:
    """Node indices of both ends of every edge line, in file order."""
    lines = _read_lines(path)
    if not _widths_are(lines, 2):
        for _ in _fields(path, lines, "edge", "u v"):
            pass  # raises at the first line of another width
    ends = chain.from_iterable(text.split() for _, text in lines)
    try:
        return np.fromiter(map(index.__getitem__, ends), np.int64, 2 * len(lines))
    except KeyError:
        _check_known(path, "edge endpoints", [node for _, text in lines
                                              for node in text.split() if node not in index])
        raise


def _load_edges(path, index: dict[str, int], n: int) -> tuple[Graph, list[str]]:
    # the lines are freed before the graph is built
    g = Graph(n, _edge_ends(path, index).reshape(-1, 2))
    notes = []
    if g.dropped_self_loops:
        notes.append(f"dropped {g.dropped_self_loops} self-loop(s)")
    if g.dropped_duplicates:
        notes.append(f"dropped {g.dropped_duplicates} duplicate edge(s)")
    return g, notes


def _csv_row(path, lineno: int, text: str, width: int | None) -> np.ndarray:
    """One dense CSV row's values, each read as ``float()`` reads it."""
    head, comma, rest = text.partition(",")
    if not comma:
        raise DataError(f"{path}:{lineno}: attribute row for id {head.strip()!r} has no values")
    try:
        values = np.array(rest.split(","), dtype=np.float64)
    except ValueError as exc:
        raise DataError(f"{path}:{lineno}: bad attribute value ({exc})") from exc
    if width is not None and values.size != width:
        raise DataError(f"{path}:{lineno}: row has {values.size} values, expected {width}")
    return values


def _csv_block(path, block, width: int | None) -> np.ndarray:
    """Values of consecutive dense CSV rows, parsed in bulk when ``np.loadtxt``
    reads them as ``_csv_row`` would."""
    rests = [text.partition(",")[2] for _, text in block]
    # loadtxt would skip the empty rest of a row "id," and strips \x1c-\x1f
    # as spaces, which float() does not; splitlines() ends a line at \x1c-\x1e
    if all(rests) and not any("\x1f" in rest for rest in rests):
        try:
            values = np.loadtxt(rests, dtype=np.float64, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if width in (None, values.shape[1]):
                return values
    # refused: row by row, float() also reads 1_0 and non-ASCII digits, and a
    # bad row is named
    rows = []
    for lineno, text in block:
        rows.append(_csv_row(path, lineno, text, width))
        width = rows[-1].size
    return np.array(rows)


def _raise_csv_id_error(path, lines, ids: list[str], index: dict[str, int], n: int) -> None:
    """Raise the error of a dense CSV whose ids are not the label ids once
    each, as the row loop meets it: the first bad row, else the unknown ids,
    else the nodes without a row."""
    seen = np.zeros(n, dtype=bool)
    unknown: list[str] = []
    width = None
    for (lineno, text), node in zip(lines, ids):
        i = index.get(node)
        if i is None:
            unknown.append(node)
            continue
        width = _csv_row(path, lineno, text, width).size
        if seen[i]:
            raise DataError(f"{path}:{lineno}: duplicate attribute row for id {node!r}")
        seen[i] = True
    _check_known(path, "attribute ids", unknown)
    _check_covered(path, index, seen)


def _load_dense_csv(path, lines, index: dict[str, int], n: int) -> sp.csr_matrix:
    """Dense CSV rows as CSR, parsed in blocks of about ``_BLOCK_CELLS``
    cells, each kept only as its nonzeros: no n×T array is built."""
    ids = [text.partition(",")[0].strip() for _, text in lines]
    try:
        order = np.fromiter(map(index.__getitem__, ids), np.int64, len(ids))
    except KeyError:
        order = None
    if order is None or order.size != n or np.unique(order).size != n:
        _raise_csv_id_error(path, lines, ids, index, n)
    step = max(1, _BLOCK_CELLS // max(1, lines[0][1].count(",")))
    width = None
    counts, indices, data = [], [], []
    for lo in range(0, n, step):
        values = _csv_block(path, lines[lo:lo + step], width)
        width = values.shape[1]
        nz = np.flatnonzero(values)  # row-major: rows in order, columns sorted in each
        rows, cols = np.divmod(nz, width)
        counts.append(np.bincount(rows, minlength=values.shape[0]))
        indices.append(cols)
        data.append(values.ravel()[nz])
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    x = sp.csr_matrix((np.concatenate(data), np.concatenate(indices), indptr), shape=(n, width))
    # file row r holds node order[r]
    return x[np.argsort(order)]


def _load_triplets(path, lines, index: dict[str, int], n: int) -> sp.csr_matrix:
    seen = np.zeros(n, dtype=bool)
    rows, cols, vals = [], [], []
    unknown: list[str] = []
    for lineno, row in _fields(path, lines, "sparse attribute", "id index value"):
        i = index.get(row[0])
        if i is None:
            unknown.append(row[0])
            continue
        try:
            j, v = int(row[1]), float(row[2])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad triplet {row!r} ({exc})") from exc
        if j < 0:
            raise DataError(f"{path}:{lineno}: negative attribute index in {row!r}")
        seen[i] = True
        rows.append(i)
        cols.append(j)
        vals.append(v)
    _check_known(path, "attribute ids", unknown)
    if not rows:
        raise DataError(f"{path}: no attribute entries found")
    rows, cols, vals = map(np.array, (rows, cols, vals))
    order = np.lexsort((cols, rows))  # stable: a repeated pair keeps file order
    rows, cols, vals = rows[order], cols[order], vals[order]
    # the last value written for an (id, index) wins; zeros are not stored
    keep = np.append((rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1]), True) & (vals != 0)
    x = sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n, cols.max() + 1))
    _check_covered(path, index, seen)
    return x


def _load_attributes(path, index: dict[str, int], n: int) -> sp.csr_matrix:
    """Dense CSV rows or sparse triplets, as CSR."""
    lines = _read_lines(path)
    # dense CSV rows carry commas; sparse triplet rows are whitespace-only
    if any("," in text for _, text in lines):
        x = _load_dense_csv(path, lines, index, n)
    else:
        x = _load_triplets(path, lines, index, n)
    if not np.all(np.isfinite(x.data)):
        raise DataError(f"{path}: attribute matrix contains non-finite values")
    return x


def load_dataset(edge_path, attr_path, label_path, name: str | None = None) -> DatasetBundle:
    """Load a bundle; the label file defines the node universe and order."""
    node_ids, index, codes = _load_labels(label_path)
    g, notes = _load_edges(edge_path, index, len(node_ids))
    if attr_path is None:
        x = adjacency_as_features(g)
        notes.append(ADJACENCY_NOTE)
    else:
        x = _load_attributes(attr_path, index, len(node_ids))
    return DatasetBundle(g, x, Partition(codes), node_ids,
                         name=name or Path(label_path).stem, notes=notes)


def load_partition(path, node_ids: list[str]) -> Partition:
    """Read an 'id community' file covering exactly the given universe."""
    index = {s: i for i, s in enumerate(node_ids)}
    codes = np.full(len(node_ids), -1, dtype=np.int64)
    label_codes: dict[str, int] = {}
    unknown: list[str] = []
    for lineno, (node, label) in _fields(path, _read_lines(path), "assignment", "id community"):
        if node not in index:
            unknown.append(node)
            continue
        if codes[index[node]] != -1:
            raise DataError(f"{path}:{lineno}: duplicate assignment for id {node!r}")
        codes[index[node]] = label_codes.setdefault(label, len(label_codes))
    _check_known(path, "assignment ids", unknown)
    if (codes == -1).any():
        missing = [node_ids[i] for i in np.flatnonzero(codes == -1)]
        raise DataError(f"{path}: nodes without an assignment: {_listed(missing)}")
    return Partition(codes)


def adjacency_as_features(g: Graph) -> sp.csr_matrix:
    """Sparse 0/1 adjacency rows (CSR, n×n) for attribute-free runs."""
    return sp.csr_matrix((np.ones(g.indices.size), g.indices, g.indptr), shape=(g.n, g.n))


@dataclass(frozen=True)
class SyntheticSpec:
    """Planted-partition generator settings."""

    n: int = 300
    k: int = 6
    p_in: float = 0.3
    p_out: float = 0.01
    t: int = 24
    s: float = 0.8
    disconnect_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1 or self.k < 1 or self.k > self.n:
            raise DataError(f"need 1 <= k <= n, got n={self.n}, k={self.k}")
        if not (0.0 <= self.p_out < self.p_in <= 1.0):
            raise DataError(
                f"need 0 <= p_out < p_in <= 1, got p_in={self.p_in}, p_out={self.p_out}")
        if not 0.0 <= self.s <= 1.0:
            raise DataError(f"signal strength must be in [0, 1], got {self.s}")
        if not 0.0 <= self.disconnect_fraction <= 1.0:
            raise DataError(
                f"disconnect_fraction must be in [0, 1], got {self.disconnect_fraction}")
        if self.t < self.k:
            raise DataError(
                f"need at least one signature column per community: t={self.t} < k={self.k}")


def _block_sizes(n: int, k: int) -> list[int]:
    base, extra = divmod(n, k)
    return [base + (1 if i < extra else 0) for i in range(k)]


def generate_synthetic(spec: SyntheticSpec) -> DatasetBundle:
    """Planted-partition bundle with per-block attribute signatures.

    Each block gets an internal spanning path so it is connected by
    construction. When ``disconnect_fraction`` > 0, the first
    ``min(round(f*k), k//2)`` pairs of blocks are united under a single label
    with all edges between the paired blocks suppressed — the united labels
    are then disconnected with exactly two components each. The pre-uniting
    block structure is kept in ``bundle.planted``.

    Edge ``(i, j)``, ``i < j``, compares entry ``j`` of uniform row ``i``
    with a ``k × k`` table of block-pair probabilities. Rows are drawn one
    at a time: O(n + m) memory, O(n²) time.
    """
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    n, k = spec.n, spec.k
    block = np.repeat(np.arange(k), _block_sizes(n, k))
    prob = np.where(np.eye(k, dtype=bool), spec.p_in, spec.p_out)

    npairs = min(int(round(spec.disconnect_fraction * k)), k // 2)
    label_of_block = np.arange(k)
    for a in range(0, 2 * npairs, 2):
        label_of_block[a + 1] = a
        # suppress edges between united blocks so the label is disconnected
        prob[a, a + 1] = prob[a + 1, a] = 0.0
    # squeeze label ids dense after uniting
    labels = Partition(canonical_labels(label_of_block[block]))

    # every row draws n values, so the attribute draw below sees the same stream
    cols = [np.flatnonzero(rng.random(n)[i + 1:] < prob[block[i], block[i + 1:]]) + i + 1
            for i in range(n)]
    # spanning path per block keeps every block internally connected
    path = np.flatnonzero(block[1:] == block[:-1])
    g = Graph(n, np.column_stack([
        np.concatenate([np.repeat(np.arange(n), [c.size for c in cols]), path]),
        np.concatenate(cols + [path + 1])]))

    col_block = np.repeat(np.arange(k), _block_sizes(spec.t, k))
    owns = block[:, None] == col_block[None, :]
    p_attr = np.where(owns, 0.5 + spec.s / 2.0, 0.5 - spec.s / 2.0)
    x = (rng.random((n, spec.t)) < p_attr).astype(np.float64)

    notes = [f"planted partition p_in={spec.p_in} p_out={spec.p_out}"]
    if npairs:
        notes.append(f"united {npairs} block pair(s) into disconnected labels")
    return DatasetBundle(g, x, labels, [str(i) for i in range(n)],
                         name=f"synthetic-n{n}-k{k}-seed{spec.seed}",
                         notes=notes, planted=Partition(block))


def _json_text(record: dict) -> str:
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def _make_dir(out_dir) -> Path:
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _write_partition(path: Path, ids: list[str], partition: Partition) -> None:
    """One ``id<TAB>community`` line per node."""
    _write_text(path, "".join(f"{node}\t{c}\n"
                              for node, c in zip(ids, partition.assignment.tolist())))


def write_results(out_dir, partition: Partition, metrics: dict, config: dict,
                  node_ids: list[str] | None = None,
                  timings: dict | None = None) -> dict[str, Path]:
    """Emit assignment.tsv, metrics.json, config.json (and timings.json)."""
    out = _make_dir(out_dir)
    ids = node_ids if node_ids is not None else [str(i) for i in range(partition.n)]
    if len(ids) != partition.n:
        raise DataError(f"{len(ids)} node ids for a partition over {partition.n} nodes")

    paths = {
        "assignment": out / "assignment.tsv",
        "metrics": out / "metrics.json",
        "config": out / "config.json",
    }
    _write_partition(paths["assignment"], ids, partition)
    _write_text(paths["metrics"], _json_text(metrics))
    _write_text(paths["config"], _json_text(config))
    if timings is not None:
        paths["timings"] = out / "timings.json"
        _write_text(paths["timings"], _json_text(timings))
    return paths


def _format_value(v: float) -> str:
    return repr(float(v))


def write_bundle(bundle: DatasetBundle, out_dir) -> dict[str, Path]:
    """Write a bundle as edges.tsv / attrs.csv / labels.tsv (+ planted.tsv)."""
    out = _make_dir(out_dir)
    g, ids = bundle.graph, bundle.node_ids
    paths = {
        "edges": out / "edges.tsv",
        "attrs": out / "attrs.csv",
        "labels": out / "labels.tsv",
    }
    _write_text(paths["edges"], "".join(
        f"{ids[u]}\t{ids[v]}\n" for u, v in zip(g.edge_u, g.edge_v)))
    x = bundle.attributes
    # np.bincount spreads each CSR row into a dense row of width T
    _write_text(paths["attrs"], "".join(
        ids[i] + "," + ",".join(_format_value(v) for v in np.bincount(
            x.indices[lo:hi], x.data[lo:hi], bundle.t)) + "\n"
        for i, (lo, hi) in enumerate(zip(x.indptr[:-1], x.indptr[1:]))))
    _write_partition(paths["labels"], ids, bundle.labels)
    if bundle.planted is not None:
        paths["planted"] = out / "planted.tsv"
        _write_partition(paths["planted"], ids, bundle.planted)
    return paths


def load_cora_content(content_path, cites_path) -> tuple[Path, Path, Path]:
    """Convert the public two-file citation layout into this tool's formats.

    ``content_path`` lines are "id w_1 ... w_T class"; ``cites_path`` lines
    are "cited citing". Writes edges.tsv / attrs.csv / labels.tsv next to the
    content file and returns their paths.
    """
    content = Path(content_path)
    cites = Path(cites_path)
    out = content.parent
    known: set[str] = set()
    attr_lines: list[str] = []
    label_lines: list[str] = []
    for lineno, text in _read_lines(content):
        row = text.split()
        if len(row) < 3:
            raise DataError(f"{content}:{lineno}: content lines need id, features, class")
        node, *feats, label = row
        try:
            values = ",".join(_format_value(float(f)) for f in feats)
        except ValueError as exc:
            raise DataError(f"{content}:{lineno}: bad feature value ({exc})") from exc
        known.add(node)
        attr_lines.append(f"{node},{values}\n")
        label_lines.append(f"{node}\t{label}\n")
    cite_rows = _fields(cites, _read_lines(cites), "cite", "cited citing")
    edge_lines = [f"{u}\t{v}\n" for _, (u, v) in cite_rows if u in known and v in known]
    paths = (out / "edges.tsv", out / "attrs.csv", out / "labels.tsv")
    _write_text(paths[0], "".join(edge_lines))
    _write_text(paths[1], "".join(attr_lines))
    _write_text(paths[2], "".join(label_lines))
    return paths
