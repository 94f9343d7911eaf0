"""Dataset loading, validation, synthetic generation, and result files.

All on-disk formats are plain text (see docs/FORMATS.md): whitespace edge
lists over arbitrary string ids, dense CSV or sparse-triplet attributes,
"id label" ground-truth files, and JSON for metric/config records. The label
file defines the node universe and its order; the other files must agree
with it exactly, and any mismatch is a hard error naming the offenders.
"""

from __future__ import annotations

import json
import re
from array import array
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import NoReturn

import numpy as np
import scipy.sparse as sp

from .graph import Graph, Partition, _check_integer, canonical_labels

__all__ = [
    "DataError",
    "DatasetBundle",
    "SyntheticSpec",
    "adjacency_as_features",
    "generate_synthetic",
    "load_cora_content",
    "load_dataset",
    "load_partition",
    "write_bundle",
    "write_results",
]

_MAX_LISTED = 5  # offenders shown in error messages before truncating
_BLOCK_CELLS = 2 ** 16  # fields or dense CSV cells tokenized per block
# a file holding one of these is normalized line by line (_data_text): the line
# breaks of str.splitlines other than \n, \x1f (str.strip drops it, float()
# refuses it), and a blank or comment line
_IRREGULAR = "\r\v\f\x1c\x1d\x1e\x1f\x85\u2028\u2029"
_SKIPPED = re.compile(r"\n[^\S\n]*(?:[\n#]|\Z)")
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


def _read_text(path) -> str:
    try:
        return Path(path).read_bytes().decode("utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from exc


def _data_lines(text: str):
    """``(line number, stripped text)`` of every data line of ``text``: lines
    break where ``str.splitlines`` breaks them, and blank lines and ``#``
    comments are skipped."""
    for lineno, line in enumerate(text.splitlines(), 1):
        if (stripped := line.strip()) and not stripped.startswith("#"):
            yield lineno, stripped


def _data_text(text: str) -> str:
    """The data lines of ``text`` (see ``_data_lines``), each ending in
    ``\\n``. Line numbers are not kept.

    A text with none of the lines ``_data_lines`` skips, no line break but
    ``\\n`` and no ``\\x1f`` comes back as read, which saves a copy of every
    line: ``str.split`` and ``float()`` skip the whitespace around a field
    as ``str.strip`` would."""
    head = text[:text.find("\n") + 1]  # the first line, "" if there is no newline
    if (any(c in text for c in _IRREGULAR) or _SKIPPED.match("\n" + head)
            or _SKIPPED.search(text, 0, len(text) - text.endswith("\n"))):
        return "".join(f"{stripped}\n" for _, stripped in _data_lines(text))
    return text if text.endswith("\n") else text + "\n"


def _numbered_rows(path, text: str, kind: str, shape: str):
    """``(line number, fields)`` of every data line of ``text``, read from
    ``path``, each holding the whitespace-separated fields of ``shape``;
    raises at the first that does not."""
    width = len(shape.split())
    for lineno, stripped in _data_lines(text):
        row = stripped.split()
        if len(row) != width:
            raise DataError(f"{path}:{lineno}: {kind} lines must be {shape!r}, got {row!r}")
        yield lineno, row


def _faulter(scan, path, *args):
    """The ``fault()`` of a bulk reader: ``scan(path, *args)`` reads the file
    line by line and raises its ``DataError``. A scan that finds nothing
    means the bulk and line readers disagree, a bug in this module."""
    def fault() -> NoReturn:
        scan(path, *args)
        raise AssertionError(f"{path}: the bulk parse refused what the line scan accepts")
    return fault


def _blocks(text: str, width: int):
    """``text`` (from ``_data_text``) in slices of whole lines, each about
    ``_BLOCK_CELLS`` cells when a line holds ``width`` of them."""
    step = max(1, _BLOCK_CELLS // max(1, width)) * (text.find("\n") + 1)
    lo = 0
    while lo < len(text):
        hi = text.find("\n", lo + step - 1) + 1 or len(text)
        yield text[lo:hi]
        lo = hi


def _columns(text: str, width: int, fault):
    """The ``width`` whitespace-separated columns of ``text``'s lines (from
    ``_data_text``), yielded a block at a time, so only one block's fields
    are alive at a time. ``fault()`` (from ``_faulter``) raises when a line
    holds another number of fields."""
    marker = "\0"
    while marker in text:  # each newline becomes a field no line holds
        marker += "\0"
    for block in _blocks(text, width):
        fields = block.replace("\n", f" {marker} ").split()
        lines = block.count("\n")
        # every line holds width fields iff the markers fall every width + 1
        if len(fields) != (width + 1) * lines or fields[width::width + 1].count(marker) != lines:
            fault()
        yield [fields[c::width + 1] for c in range(width)]


def _positions(index: dict[str, int], ids: list[str], fault) -> np.ndarray:
    """Node indices of ``ids``; ``fault()`` (from ``_faulter``) raises at an
    unknown id."""
    try:
        return np.fromiter(map(index.__getitem__, ids), np.int64, len(ids))
    except KeyError:
        pass
    fault()


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


def _check_finite(path, values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise DataError(f"{path}: attribute matrix contains non-finite values")


def _codes(labels: list[str]) -> np.ndarray:
    """Dense codes of ``labels``, numbered in order of first occurrence."""
    code = {label: c for c, label in enumerate(dict.fromkeys(labels))}
    return np.fromiter(map(code.__getitem__, labels), np.int64, len(labels))


def _label_fault(path) -> None:
    """Raise at the first label line of another width or repeated id."""
    seen: set[str] = set()
    for lineno, (node, _) in _numbered_rows(path, _read_text(path), "label", "id label"):
        if node in seen:
            raise DataError(f"{path}:{lineno}: duplicate node id {node!r}")
        seen.add(node)


def _load_labels(path) -> tuple[list[str], dict[str, int], np.ndarray]:
    """Node universe and dense label codes, both in file order."""
    fault = _faulter(_label_fault, path)
    nodes: list[str] = []
    labels: list[str] = []
    for node_col, label_col in _columns(_data_text(_read_text(path)), 2, fault):
        nodes += node_col
        labels += label_col
    index = dict(zip(nodes, range(len(nodes))))
    if len(index) < len(nodes):
        fault()
    if not index:
        raise DataError(f"{path}: no labeled nodes")
    return nodes, index, _codes(labels)


def _edge_fault(path, index: dict[str, int]) -> None:
    """Raise at the first edge line of another width, else name the unknown ends."""
    rows = _numbered_rows(path, _read_text(path), "edge", "u v")
    _check_known(path, "edge endpoints", [node for _, row in rows for node in row
                                          if node not in index])


def _load_edges(path, index: dict[str, int], n: int) -> tuple[Graph, list[str]]:
    fault = _faulter(_edge_fault, path, index)
    ends = [np.column_stack([_positions(index, us, fault), _positions(index, vs, fault)])
            for us, vs in _columns(_data_text(_read_text(path)), 2, fault)]
    g = Graph(n, np.concatenate(ends) if ends else np.empty((0, 2), np.int64))
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


def _csv_fault(path, index: dict[str, int], n: int) -> None:
    """Raise the error of a dense CSV the bulk parse refused, as the row loop
    meets it: the first bad row, else the unknown ids, else the nodes
    without a row."""
    seen = np.zeros(n, dtype=bool)
    unknown: list[str] = []
    width = None
    for lineno, text in _data_lines(_read_text(path)):
        node = text.partition(",")[0].strip()
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


def _segments(b: np.ndarray, start: np.ndarray, stop: np.ndarray) -> list[str]:
    """The text of each ``b[start:stop]``, where every ``b[stop]`` is a comma
    or newline (so no segment splits a UTF-8 character)."""
    size = stop - start + 1  # with the separator after it
    end = np.cumsum(size)
    picked = b[np.arange(size.sum()) + np.repeat(start - end + size, size)]
    picked[end - 1] = ord("\n")
    return picked.tobytes().decode("utf-8").split("\n")[:-1]


def _csv_cells(block: str, width: int):
    """Ids, per-row nonzero counts, columns and values of the dense CSV rows
    in ``block`` (whole ``\\n``-ended lines), or None when a row does not hold
    ``width`` values or a value does not parse.

    Cells spelled exactly ``0`` or ``0.0`` are dropped by a test of the UTF-8
    bytes around each separator; the rest are read as ``float()`` reads them.
    """
    b = np.frombuffer(block.encode("utf-8"), np.uint8)
    newline, comma = b == ord("\n"), b == ord(",")
    sep = np.flatnonzero(newline | comma)
    rows = np.count_nonzero(newline)
    # every row holds width values iff its newline is its (width + 1)-th separator
    if not width or sep.size != rows * (width + 1) or not np.all(newline[sep[width::width + 1]]):
        return None
    # zero[p]: the cell before separator p is ",0" or ",0.0"
    digit0 = b == ord("0")
    comma0 = comma[:-1] & digit0[1:]
    zero = np.zeros(b.size, dtype=bool)
    zero[2:] = comma0[:-1]
    zero[4:] |= comma0[:-3] & (b[2:-2] == ord(".")) & digit0[3:-1]
    dropped = zero[sep].reshape(rows, width + 1)
    dropped[:, 0] = True  # the id
    kept = np.flatnonzero(~dropped)
    try:
        values = np.array(_segments(b, sep[kept - 1] + 1, sep[kept]), dtype=np.float64)
    except ValueError:
        return None
    nz = np.flatnonzero(values)  # a value may still read as zero, such as -0.0
    r, c = np.divmod(kept[nz], width + 1)
    ids = _segments(b, np.append(0, sep[width::width + 1][:-1] + 1), sep[::width + 1])
    return [s.strip() for s in ids], np.bincount(r, minlength=rows), c - 1, values[nz]


def _load_dense_csv(path, text: str, index: dict[str, int], n: int) -> sp.csr_matrix:
    """Dense CSV rows as CSR, parsed in blocks of about ``_BLOCK_CELLS``
    cells, each kept only as its nonzeros: no n×T array is built."""
    width = text.count(",", 0, text.find("\n"))  # the first row's values
    fault = _faulter(_csv_fault, path, index, n)
    ids, counts, indices, data = zip(*(_csv_cells(block, width) or fault()
                                       for block in _blocks(text, width)))
    order = _positions(index, list(chain.from_iterable(ids)), fault)
    if order.size != n or np.unique(order).size != n:
        fault()
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    x = sp.csr_matrix((np.concatenate(data), np.concatenate(indices), indptr), shape=(n, width))
    _check_finite(path, x.data)
    # file row r holds node order[r]
    return x[np.argsort(order)]


def _load_triplets(path, text: str, index: dict[str, int], n: int) -> sp.csr_matrix:
    """Sparse 'id index value' lines as CSR, checked and gathered a line at
    a time: the first bad line raises, else the unknown ids are named."""
    rows, cols, vals = array("q"), array("q"), array("d")
    unknown: list[str] = []
    for lineno, row in _numbered_rows(path, text, "sparse attribute", "id index value"):
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
        rows.append(i)
        cols.append(j)
        vals.append(v)
    _check_known(path, "attribute ids", unknown)
    if not rows:
        raise DataError(f"{path}: no attribute entries found")
    rows, cols, vals = map(np.asarray, (rows, cols, vals))  # views of the buffers
    _check_covered(path, index, np.bincount(rows, minlength=n) > 0)
    _check_finite(path, vals)  # an overwritten value too
    order = np.lexsort((cols, rows))  # stable: a repeated pair keeps file order
    rows, cols, vals = rows[order], cols[order], vals[order]
    # the last value written for an (id, index) wins; zeros are not stored
    keep = np.append((rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1]), True) & (vals != 0)
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n, cols.max() + 1))


def _load_attributes(path, index: dict[str, int], n: int) -> sp.csr_matrix:
    """Dense CSV rows or sparse triplets, as CSR."""
    text = _read_text(path)
    # dense CSV rows carry commas; sparse triplet rows are whitespace-only
    if "," in (data := _data_text(text)):
        return _load_dense_csv(path, data, index, n)
    return _load_triplets(path, text, index, n)


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
    """Read an 'id community' file covering exactly the given universe, a
    line at a time: the first bad or repeated line raises, else the unknown
    ids are named. Communities are numbered in order of first appearance."""
    index = {s: i for i, s in enumerate(node_ids)}
    codes = [-1] * len(node_ids)
    code: dict[str, int] = {}
    unknown: list[str] = []
    for lineno, (node, label) in _numbered_rows(path, _read_text(path),
                                                "assignment", "id community"):
        i = index.get(node)
        if i is None:
            unknown.append(node)
            continue
        if codes[i] != -1:
            raise DataError(f"{path}:{lineno}: duplicate assignment for id {node!r}")
        codes[i] = code.setdefault(label, len(code))
    _check_known(path, "assignment ids", unknown)
    missing = [node_ids[i] for i, c in enumerate(codes) if c == -1]
    if missing:
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
        try:  # SeedSequence takes no negative entropy
            _check_integer("seed", self.seed, 0)
        except ValueError as exc:
            raise DataError(str(exc)) from None


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
    for lineno, text in _data_lines(_read_text(content)):
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
    cite_rows = _numbered_rows(cites, _read_text(cites), "cite", "cited citing")
    edge_lines = [f"{u}\t{v}\n" for _, (u, v) in cite_rows if u in known and v in known]
    paths = (out / "edges.tsv", out / "attrs.csv", out / "labels.tsv")
    _write_text(paths[0], "".join(edge_lines))
    _write_text(paths[1], "".join(attr_lines))
    _write_text(paths[2], "".join(label_lines))
    return paths
