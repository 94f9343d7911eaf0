"""Differential property tests of the label, edge, dense CSV, triplet and
assignment readers.

Generated bundles carry whitespace around lines, rows out of label order
and odd but valid value spellings; most files also carry comments and blank
lines, and the rest are clean, so the readers take the text as read. Each is written, loaded, and
compared array by array with ``reference_load``, a small pure-Python reader
that reads one line at a time. Corrupted copies must fail with the message
the reference gives: a fault in one line names that line's ``file:line``,
and of two faults the one the line-by-line reader meets first is reported.
Triplet files, repeated cells included, must load as the reference reads
them (the last value wins, and a non-finite value is refused even when a
later line overwrites it), and as the dense CSV file of the same matrix
loads. Assignment files must load, or be refused, as ``reference_partition``
reads them.

Skipped when hypothesis is not installed; runs under the ``tier1`` profile
of conftest.py with a small example budget.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from comdet import data_io
from comdet.data_io import DataError, load_dataset, load_partition

from conftest import assert_same_bits


class Rejected(Exception):
    """The message the reference reader rejects a bundle with."""


def _data_lines(path) -> list[tuple[int, str]]:
    text = Path(path).read_text(encoding="utf-8")
    return [(k, s) for k, line in enumerate(text.splitlines(), 1)
            if (s := line.strip()) and not s.startswith("#")]


def _listed(items) -> str:
    items = list(dict.fromkeys(items))
    extra = f" (+{len(items) - 5} more)" if len(items) > 5 else ""
    return ", ".join(map(repr, items[:5])) + extra


def _split(path, k: int, text: str, kind: str, shape: str) -> list[str]:
    row = text.split()
    if len(row) != len(shape.split()):
        raise Rejected(f"{path}:{k}: {kind} lines must be {shape!r}, got {row!r}")
    return row


def reference_load(edge_path, attr_path, label_path):
    """Node ids, label codes, kept edges (u < v, sorted), dropped self-loop
    and duplicate counts, and dense attribute rows in label order."""
    ids: list[str] = []
    label_code: dict[str, int] = {}
    codes = []
    for k, text in _data_lines(label_path):
        node, label = _split(label_path, k, text, "label", "id label")
        if node in ids:
            raise Rejected(f"{label_path}:{k}: duplicate node id {node!r}")
        ids.append(node)
        codes.append(label_code.setdefault(label, len(label_code)))
    if not ids:
        raise Rejected(f"{label_path}: no labeled nodes")

    pairs, unknown = [], []
    for k, text in _data_lines(edge_path):
        row = _split(edge_path, k, text, "edge", "u v")
        unknown += [node for node in row if node not in ids]
        if all(node in ids for node in row):
            pairs.append(tuple(sorted(ids.index(node) for node in row)))
    if unknown:
        raise Rejected(
            f"{edge_path}: edge endpoints missing from the label file: {_listed(unknown)}")
    loops = sum(u == v for u, v in pairs)
    edges = sorted({(u, v) for u, v in pairs if u != v})

    attr_lines = _data_lines(attr_path)
    if any("," in text for _, text in attr_lines):
        rows = _reference_csv(attr_path, attr_lines, ids)
    else:
        rows = _reference_triplets(attr_path, attr_lines, ids)
    duplicates = len(pairs) - loops - len(edges)
    return ids, codes, edges, loops, duplicates, rows


def _reference_csv(attr_path, attr_lines, ids) -> list[list[float]]:
    rows: dict[str, list[float]] = {}
    unknown, width = [], None
    for k, text in attr_lines:
        head, comma, rest = text.partition(",")
        node = head.strip()
        if node not in ids:
            unknown.append(node)
            continue
        if not comma:
            raise Rejected(f"{attr_path}:{k}: attribute row for id {node!r} has no values")
        values = []
        for cell in rest.split(","):
            try:
                values.append(float(cell))
            except ValueError as exc:
                raise Rejected(f"{attr_path}:{k}: bad attribute value ({exc})") from None
        width = len(values) if width is None else width
        if len(values) != width:
            raise Rejected(f"{attr_path}:{k}: row has {len(values)} values, expected {width}")
        if node in rows:
            raise Rejected(f"{attr_path}:{k}: duplicate attribute row for id {node!r}")
        rows[node] = values
    if unknown:
        raise Rejected(
            f"{attr_path}: attribute ids missing from the label file: {_listed(unknown)}")
    missing = [node for node in ids if node not in rows]
    if missing:
        raise Rejected(f"{attr_path}: nodes without any attribute row: {_listed(missing)}")
    if not all(math.isfinite(v) for row in rows.values() for v in row):
        raise Rejected(f"{attr_path}: attribute matrix contains non-finite values")
    return [rows[node] for node in ids]


def _reference_triplets(attr_path, attr_lines, ids) -> list[list[float]]:
    cells: dict[tuple[str, int], float] = {}
    unknown, values = [], []
    for k, text in attr_lines:
        row = _split(attr_path, k, text, "sparse attribute", "id index value")
        if row[0] not in ids:
            unknown.append(row[0])
            continue
        try:
            j, v = int(row[1]), float(row[2])
        except ValueError as exc:
            raise Rejected(f"{attr_path}:{k}: bad triplet {row!r} ({exc})") from None
        if j < 0:
            raise Rejected(f"{attr_path}:{k}: negative attribute index in {row!r}")
        cells[row[0], j] = v  # a later line overwrites an earlier one
        values.append(v)
    if unknown:
        raise Rejected(
            f"{attr_path}: attribute ids missing from the label file: {_listed(unknown)}")
    if not cells:
        raise Rejected(f"{attr_path}: no attribute entries found")
    missing = [node for node in ids if not any(key[0] == node for key in cells)]
    if missing:
        raise Rejected(f"{attr_path}: nodes without any attribute row: {_listed(missing)}")
    # every value given, overwritten or not
    if not all(math.isfinite(v) for v in values):
        raise Rejected(f"{attr_path}: attribute matrix contains non-finite values")
    t = 1 + max(j for _, j in cells)
    return [[cells.get((node, j), 0.0) for j in range(t)] for node in ids]


def reference_partition(path, ids: list[str]) -> list[int]:
    """Community codes, in first-occurrence order, of an assignment file
    over the universe ``ids``."""
    codes: dict[str, int] = {}
    label_code: dict[str, int] = {}
    unknown = []
    for k, text in _data_lines(path):
        node, label = _split(path, k, text, "assignment", "id community")
        if node not in ids:
            unknown.append(node)
            continue
        if node in codes:
            raise Rejected(f"{path}:{k}: duplicate assignment for id {node!r}")
        codes[node] = label_code.setdefault(label, len(label_code))
    if unknown:
        raise Rejected(f"{path}: assignment ids missing from the label file: {_listed(unknown)}")
    missing = [node for node in ids if node not in codes]
    if missing:
        raise Rejected(f"{path}: nodes without an assignment: {_listed(missing)}")
    return [codes[node] for node in ids]


_IDS = ["a", "b7", "node_3", "α", "x.y", "-3", "Q", "p#1"]
# spellings float() reads besides plain decimals: underscores, padding, a
# non-ASCII digit
_ODD = ["1_0", " +1.5 ", ".5", "1.", "-0.0", "1E3", "٣", " 2", "0", "1.0"]
_CELLS = st.one_of(st.sampled_from(_ODD), st.floats(allow_nan=False, allow_infinity=False).map(repr))
# spellings float() refuses
_BAD = ["x", "1.2.3", "1__0", "nan(1)", "0x10", "", " ", "1 2", "\x1f1"]
_NOISE = ["", "   ", "# a comment, with a comma", "  # indented comment"]
# whitespace around a line; str.strip drops \x1f, but float() refuses it
_PAD = ["", " ", "\t", "\xa0", "\x1f"]


@st.composite
def _noisy(draw, lines: list[str]) -> list[str]:
    """``lines`` in order, some with whitespace around them, and unless the
    file is drawn clean, with comments and blank lines between."""
    noise = st.lists(st.sampled_from(_NOISE), max_size=draw(st.sampled_from([0, 2, 2])))
    pad = st.sampled_from(draw(st.sampled_from([_PAD, _PAD[:-1]])))  # with \x1f or not
    out = []
    for line in lines:
        out += draw(noise)
        out.append(draw(pad) + line + draw(pad))
    return out + draw(noise)


@st.composite
def bundles(draw) -> dict[str, list[str]]:
    """The lines of a valid bundle: ``l`` labels, ``e`` edges, ``x`` dense CSV."""
    ids = draw(st.permutations(_IDS))[:draw(st.integers(1, len(_IDS)))]
    n = len(ids)
    labels = draw(st.lists(st.sampled_from(["red", "blue", "7"]), min_size=n, max_size=n))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    t = draw(st.integers(1, 4))
    cells = draw(st.lists(st.lists(_CELLS, min_size=t, max_size=t), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    gap = st.sampled_from([" ", "\t", "  "])
    return {
        "l": draw(_noisy([f"{ids[i]}{draw(gap)}{labels[i]}" for i in range(n)])),
        "e": draw(_noisy([f"{ids[u]}{draw(gap)}{ids[v]}" for u, v in edges])),
        "x": draw(_noisy([ids[i] + draw(st.sampled_from(["", " "])) + ","
                          + ",".join(cells[i]) for i in order])),
    }


def _data_index(lines: list[str]) -> list[int]:
    return [k for k, line in enumerate(lines)
            if line.strip() and not line.strip().startswith("#")]


@st.composite
def _fault(draw, files: dict[str, list[str]]) -> tuple[str, int | None]:
    """Corrupt one line of ``files`` in place; returns the file and the line
    number an error about it names (None for a whole-file error)."""
    kind = draw(st.sampled_from(["bad value", "x1f value", "width", "no values",
                                 "unknown id", "duplicate id", "non-finite", "label width",
                                 "label duplicate", "edge width", "edge unknown"]))
    key = {"label": "l", "edge": "e"}.get(kind.split()[0], "x")
    lines = files[key]
    data = _data_index(lines)
    if key == "e" and not data:  # no edge line yet: add a self-loop
        node = files["l"][_data_index(files["l"])[0]].split()[0]
        lines.append(f"{node} {node}")
        data = [len(lines) - 1]
    if kind in ("duplicate id", "label duplicate", "width") and len(data) < 2:
        kind = "no values" if key == "x" else "label width"
    if kind in ("duplicate id", "label duplicate"):
        first, second = sorted(draw(st.lists(st.sampled_from(data), min_size=2, max_size=2,
                                             unique=True)))
        source, target = draw(st.sampled_from([(first, second), (second, first)]))
        node = lines[source].split(",")[0].split()[0]
        if key == "x":
            lines[target] = node + "," + lines[target].split(",", 1)[1]
        else:
            lines[target] = node + " " + lines[target].split()[1]
        return key, second + 1
    k = draw(st.sampled_from(data[1:] if kind == "width" else data))
    parts = lines[k].split(",")
    if kind == "bad value":
        parts[draw(st.integers(1, len(parts) - 1))] = draw(st.sampled_from(_BAD))
    elif kind == "x1f value":  # whitespace to str.split, not to float()
        parts[draw(st.integers(1, len(parts) - 1))] = "\x1f1"
    elif kind == "width":
        if len(parts) > 2 and draw(st.booleans()):
            parts.pop()
        else:
            parts.append("0")
    elif kind == "no values":
        parts = [parts[0], ""]
    elif kind == "unknown id":
        parts[0] = "ghost"
    elif kind == "non-finite":
        parts[draw(st.integers(1, len(parts) - 1))] = draw(st.sampled_from(["inf", "-nan"]))
    elif kind in ("label width", "edge width"):
        parts = [parts[0] + draw(st.sampled_from([" extra", "\tx y"]))]
    elif kind == "edge unknown":
        parts = ["ghost " + parts[0].split()[-1]]
    lines[k] = ",".join(parts)
    whole_file = kind in ("unknown id", "non-finite", "edge unknown")
    return key, None if whole_file else k + 1


def _write(tmp, files) -> dict[str, Path]:
    paths = {}
    for key, lines in files.items():
        paths[key] = Path(tmp) / {"l": "labels.tsv", "e": "edges.tsv", "x": "attrs.csv"}[key]
        paths[key].write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return paths


def _outcome(paths, block_cells: int):
    """Either the loaded bundle or the DataError message; and the reference's."""
    try:
        expected = reference_load(paths["e"], paths["x"], paths["l"])
    except Rejected as exc:
        expected = str(exc)
    # small blocks put block edges between rows, so a fault may sit in any block
    with mock.patch.object(data_io, "_BLOCK_CELLS", block_cells):
        try:
            return load_dataset(paths["e"], paths["x"], paths["l"]), expected
        except DataError as exc:
            return str(exc), expected


_BLOCK = st.sampled_from([1, 2, 2 ** 16])


@settings(settings.get_profile("tier1"), max_examples=50)
@given(bundles(), _BLOCK)
def test_valid_bundles_load_as_the_reference_reads_them(files, block_cells):
    with tempfile.TemporaryDirectory() as tmp:
        bundle, expected = _outcome(_write(tmp, files), block_cells)
    assert not isinstance(bundle, str), bundle
    ids, codes, edges, loops, duplicates, rows = expected
    assert bundle.node_ids == ids
    assert np.array_equal(bundle.labels.assignment, codes)
    g = bundle.graph
    assert np.array_equal(g.edge_u, [u for u, _ in edges])
    assert np.array_equal(g.edge_v, [v for _, v in edges])
    assert (g.dropped_self_loops, g.dropped_duplicates) == (loops, duplicates)
    x = bundle.attributes
    assert x.has_canonical_format and np.all(x.data != 0)
    assert np.array_equal(x.toarray(), np.array(rows))


@settings(settings.get_profile("tier1"), max_examples=60)
@given(st.data(), _BLOCK)
def test_one_faulty_line_is_named_as_the_reference_names_it(data, block_cells):
    files = data.draw(bundles())
    key, lineno = data.draw(_fault(files))
    with tempfile.TemporaryDirectory() as tmp:
        paths = _write(tmp, files)
        message, expected = _outcome(paths, block_cells)
    assert message == expected
    assert message.startswith(f"{paths[key]}:{lineno}: " if lineno else f"{paths[key]}: ")


@settings(settings.get_profile("tier1"), max_examples=40)
@given(st.data(), _BLOCK)
def test_of_two_faults_the_first_met_line_by_line_is_reported(data, block_cells):
    files = data.draw(bundles())
    data.draw(_fault(files))
    data.draw(_fault(files))
    with tempfile.TemporaryDirectory() as tmp:
        message, expected = _outcome(_write(tmp, files), block_cells)
    assert message == expected


def _arrays(outcome):
    """A load's message, or its ids and its label, graph and CSR arrays."""
    if isinstance(outcome, str):
        return outcome
    g, x = outcome.graph, outcome.attributes
    return (outcome.node_ids, x.shape, *(a.tobytes() for a in (
        outcome.labels.assignment, g.edge_u, g.edge_v, x.indptr, x.indices, x.data)))


@settings(settings.get_profile("tier1"), max_examples=40)
@given(st.data(), _BLOCK)
def test_text_read_as_is_loads_as_its_normalized_lines(data, block_cells):
    # a file with no comment, blank line, \x1f or line break other than \n
    # is parsed as read; normalizing every file first must change nothing
    files = data.draw(bundles())
    if data.draw(st.booleans()):
        data.draw(_fault(files))
    with tempfile.TemporaryDirectory() as tmp:
        paths = _write(tmp, files)
        as_read, _ = _outcome(paths, block_cells)
        with mock.patch.object(data_io, "_IRREGULAR", "\n"):  # every file normalized
            normalized, _ = _outcome(paths, block_cells)
    assert _arrays(as_read) == _arrays(normalized)


# value spellings with no whitespace inside, so a triplet line splits in three
_TRIPLET_CELLS = st.one_of(st.sampled_from([c.strip() for c in _ODD]),
                           st.floats(allow_nan=False, allow_infinity=False).map(repr))


@st.composite
def _matrices(draw) -> tuple[list[str], list[list[str]]]:
    """Node ids in label order and an n × t matrix of value spellings."""
    ids = draw(st.permutations(_IDS))[:draw(st.integers(1, len(_IDS)))]
    t = draw(st.integers(1, 5))
    cells = st.one_of(st.just("0"), _TRIPLET_CELLS)
    return ids, draw(st.lists(st.lists(cells, min_size=t, max_size=t),
                              min_size=len(ids), max_size=len(ids)))


def _with_earlier_values(draw, lines: list[str]) -> list[str]:
    """Triplet ``lines`` in order, each preceded somewhere earlier by up to two
    other values for its ``(id, index)`` cell, which the line must overwrite."""
    keyed = [(2 * k, line) for k, line in enumerate(lines)]
    for k, line in enumerate(lines):
        node, j, _ = line.split()
        for value in draw(st.lists(_TRIPLET_CELLS, max_size=2)):
            keyed.append((2 * draw(st.integers(0, k)) - 1, f"{node} {j} {value}"))
    return [line for _, line in sorted(keyed, key=lambda kv: kv[0])]


def _load_attrs(tmp, ids: list[str], attr_lines: list[str], block_cells: int = 2 ** 16):
    files = {"l": [f"{node} 0" for node in ids], "e": [], "x": attr_lines}
    with mock.patch.object(data_io, "_BLOCK_CELLS", block_cells):
        paths = _write(tmp, files)
        return load_dataset(paths["e"], paths["x"], paths["l"]).attributes


@settings(settings.get_profile("tier1"), max_examples=60)
@given(st.data(), _BLOCK)
def test_repeated_triplets_keep_the_last_value(data, block_cells):
    ids = data.draw(st.permutations(_IDS))[:data.draw(st.integers(1, len(_IDS)))]
    n = len(ids)
    # few columns, so many lines land on one (id, index) cell
    triplet = st.tuples(st.integers(0, n - 1), st.integers(0, 3),
                        st.one_of(st.just("0"), _TRIPLET_CELLS))
    rows = data.draw(st.lists(triplet, min_size=1, max_size=4 * n))
    present = {i for i, _, _ in rows}
    rows += [(i, 0, "0") for i in range(n) if i not in present]  # every node appears
    order = data.draw(st.permutations(range(len(rows))))
    rows = [rows[k] for k in order]
    if data.draw(st.booleans()):  # a non-finite value that a later line overwrites
        k = data.draw(st.integers(0, len(rows) - 1))
        i, j, _ = rows[k]
        rows.insert(k, (i, j, data.draw(st.sampled_from(["nan", "inf", "-inf"]))))
    files = {"l": [f"{node} 0" for node in ids], "e": [],
             "x": data.draw(_noisy([f"{ids[i]} {j} {v}" for i, j, v in rows]))}
    with tempfile.TemporaryDirectory() as tmp:
        bundle, expected = _outcome(_write(tmp, files), block_cells)
    if isinstance(expected, str):
        assert bundle == expected
        return
    x = bundle.attributes
    assert x.has_canonical_format and np.all(x.data != 0)
    assert np.array_equal(x.toarray(), np.array(expected[-1]))


@settings(settings.get_profile("tier1"), max_examples=60)
@given(_matrices(), st.data(), _BLOCK)
def test_csv_and_triplet_files_of_one_matrix_load_equal(matrix, data, block_cells):
    ids, cells = matrix
    n, t = len(ids), len(cells[0])
    csv_rows = data.draw(st.permutations(range(n)))
    csv = [ids[i] + "," + ",".join(cells[i]) for i in csv_rows]
    # the nonzero cells, and an explicit zero in the last column where that
    # cell is zero, so every node appears and the file spans all t columns
    kept = [(i, j) for i in range(n) for j in range(t)
            if float(cells[i][j]) != 0 or j == t - 1]
    kept = [kept[k] for k in data.draw(st.permutations(range(len(kept))))]
    triplets = _with_earlier_values(data.draw, [f"{ids[i]} {j} {cells[i][j]}" for i, j in kept])
    with tempfile.TemporaryDirectory() as tmp:
        from_csv = _load_attrs(tmp, ids, data.draw(_noisy(csv)), block_cells)
    with tempfile.TemporaryDirectory() as tmp:
        from_triplets = _load_attrs(tmp, ids, data.draw(_noisy(triplets)))
    assert from_csv.shape == from_triplets.shape == (n, t)
    for name in ("data", "indices", "indptr"):
        assert_same_bits(getattr(from_csv, name), getattr(from_triplets, name))


@st.composite
def _assignments(draw) -> tuple[list[str], list[str]]:
    """A universe of ids and the lines of an assignment file over it: each id
    once in any order, then maybe a missing id, a repeated or unknown id, or
    a line of another width."""
    ids = draw(st.permutations(_IDS))[:draw(st.integers(1, len(_IDS)))]
    order = draw(st.permutations(ids))
    labels = st.sampled_from(["c0", "c1", "7", "p#1"])
    gap = st.sampled_from([" ", "\t", "  "])
    lines = [f"{node}{draw(gap)}{draw(labels)}" for node in order]
    for fault in draw(st.lists(st.sampled_from(["missing", "repeated", "unknown", "width"]),
                               max_size=2)):
        k = draw(st.integers(0, len(lines) - 1))
        node = lines[k].split()[0]
        if fault == "missing":
            del lines[k]
        elif fault == "repeated":
            lines.insert(draw(st.integers(k + 1, len(lines))), f"{node} {draw(labels)}")
        elif fault == "unknown":
            lines.insert(k, f"ghost {draw(labels)}")
        else:
            lines[k] = draw(st.sampled_from([node, f"{node} c0 extra"]))
        if not lines:
            break
    return ids, draw(_noisy(lines))


@settings(settings.get_profile("tier1"), max_examples=60)
@given(_assignments(), _BLOCK)
def test_assignment_files_load_as_the_reference_reads_them(assignment, block_cells):
    ids, lines = assignment
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "assignment.tsv"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        try:
            expected = reference_partition(path, ids)
        except Rejected as exc:
            expected = str(exc)
        with mock.patch.object(data_io, "_BLOCK_CELLS", block_cells):
            try:
                loaded = load_partition(path, ids).assignment.tolist()
            except DataError as exc:
                loaded = str(exc)
    assert loaded == expected


def reference_cora(content_path, cites_path) -> tuple[str, str, str]:
    """The edges, attrs and labels text that ``load_cora_content`` writes,
    read one line at a time: a content line is "id w_1 ... w_T class", and a
    cite line "cited citing" is kept when both papers are in the content."""
    known: set[str] = set()
    attrs, labels = [], []
    for k, text in _data_lines(content_path):
        row = text.split()
        if len(row) < 3:
            raise Rejected(f"{content_path}:{k}: content lines need id, features, class")
        values = []
        for f in row[1:-1]:
            try:
                values.append(repr(float(f)))
            except ValueError as exc:
                raise Rejected(f"{content_path}:{k}: bad feature value ({exc})") from exc
        known.add(row[0])
        attrs.append(f"{row[0]},{','.join(values)}\n")
        labels.append(f"{row[0]}\t{row[-1]}\n")
    edges = []
    for k, text in _data_lines(cites_path):
        u, v = _split(cites_path, k, text, "cite", "cited citing")
        if u in known and v in known:
            edges.append(f"{u}\t{v}\n")
    return "".join(edges), "".join(attrs), "".join(labels)


@st.composite
def _cora_pairs(draw) -> tuple[list[str], list[str]]:
    """Content and cites lines: papers (an id now and then repeated) with
    odd feature spellings, and cites that repeat, cite themselves or name
    papers the content lacks; now and then one faulty line."""
    ids = draw(st.lists(st.sampled_from(_IDS), min_size=1, max_size=8))
    t = draw(st.integers(1, 4))
    feature = st.sampled_from([c for c in _ODD if c.strip() == c] + ["0", "1", "2.5e-3"])
    gap = st.sampled_from([" ", "\t", "  "])
    content = [draw(gap).join([node, *draw(st.lists(feature, min_size=t, max_size=t)),
                               draw(st.sampled_from(["ml", "db", "7"]))])
               for node in ids]
    paper = st.sampled_from(ids + ["ghost"])
    cites = [f"{u}{draw(gap)}{v}" for u, v in draw(st.lists(st.tuples(paper, paper),
                                                             max_size=12))]
    cites += [f"{u} {u}" for u in draw(st.lists(paper, max_size=2))]
    cites = draw(st.permutations(cites))
    fault = draw(st.sampled_from([None, None, "bad feature", "short", "cite width"]))
    if fault == "cite width":
        cites.insert(draw(st.integers(0, len(cites))),
                     draw(st.sampled_from(["a", "a b c", "ghost\tb\tc"])))
    elif fault == "bad feature":
        k = draw(st.integers(0, len(content) - 1))
        row = content[k].split()
        row[draw(st.integers(1, len(row) - 2))] = draw(
            st.sampled_from([b for b in _BAD if b.strip() and " " not in b]))
        content[k] = " ".join(row)
    elif fault == "short":
        k = draw(st.integers(0, len(content) - 1))
        content[k] = " ".join(content[k].split()[::len(content[k].split()) - 1])
    return draw(_noisy(content)), draw(_noisy(cites))


@settings(settings.get_profile("tier1"), max_examples=80)
@given(_cora_pairs())
def test_cora_converter_writes_what_the_line_reader_reads(pair):
    content_lines, cite_lines = pair
    with tempfile.TemporaryDirectory() as tmp:
        content, cites = Path(tmp) / "x.content", Path(tmp) / "x.cites"
        content.write_text("".join(line + "\n" for line in content_lines), encoding="utf-8")
        cites.write_text("".join(line + "\n" for line in cite_lines), encoding="utf-8")
        try:
            expected = reference_cora(content, cites)
        except Rejected as exc:
            expected = str(exc)
        try:
            got = tuple(p.read_text(encoding="utf-8")
                        for p in data_io.load_cora_content(content, cites))
        except DataError as exc:
            got = str(exc)
    assert got == expected
