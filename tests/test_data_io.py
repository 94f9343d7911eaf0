"""Dataset loading, synthetic generation, and result-file tests."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
import scipy.sparse as sp

from comdet import data_io
from comdet.data_io import (
    DataError,
    DatasetBundle,
    SyntheticSpec,
    adjacency_as_features,
    generate_synthetic,
    load_cora_content,
    load_dataset,
    load_partition,
    write_bundle,
    write_results,
)
from comdet.graph import Graph, Partition, component_counts

from conftest import traced_peak


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def _triangle_files(tmp_path):
    e = _write(tmp_path, "edges.tsv", "a b\nb c\nc a\n")
    x = _write(tmp_path, "attrs.csv", "a,1,0\nb,0,1\nc,1,1\n")
    l = _write(tmp_path, "labels.tsv", "a red\nb red\nc blue\n")
    return e, x, l


def test_load_triangle(tmp_path):
    e, x, l = _triangle_files(tmp_path)
    bundle = load_dataset(e, x, l)
    assert bundle.n == 3
    assert bundle.graph.m == 3
    assert bundle.t == 2
    assert bundle.node_ids == ["a", "b", "c"]
    assert np.array_equal(bundle.attributes.toarray(), [[1, 0], [0, 1], [1, 1]])
    assert bundle.labels == Partition([0, 0, 1])


def test_duplicate_and_reversed_edges_count_once(tmp_path):
    e = _write(tmp_path, "e", "a b\nb a\na b\n")
    x = _write(tmp_path, "x", "a,1\nb,2\n")
    l = _write(tmp_path, "l", "a u\nb u\n")
    bundle = load_dataset(e, x, l)
    assert bundle.graph.m == 1
    assert any("duplicate" in note for note in bundle.notes)


def test_self_loops_dropped_with_note(tmp_path):
    e = _write(tmp_path, "e", "a a\na b\n")
    x = _write(tmp_path, "x", "a,1\nb,2\n")
    l = _write(tmp_path, "l", "a u\nb u\n")
    bundle = load_dataset(e, x, l)
    assert bundle.graph.m == 1
    assert any("self-loop" in note for note in bundle.notes)


def test_unknown_edge_endpoint_is_hard_error(tmp_path):
    e = _write(tmp_path, "e", "a b\nb zzz\n")
    x = _write(tmp_path, "x", "a,1\nb,2\n")
    l = _write(tmp_path, "l", "a u\nb u\n")
    with pytest.raises(DataError, match="zzz"):
        load_dataset(e, x, l)


def test_node_without_attributes_is_hard_error(tmp_path):
    e = _write(tmp_path, "e", "a b\n")
    x = _write(tmp_path, "x", "a,1\n")
    l = _write(tmp_path, "l", "a u\nb v\n")
    with pytest.raises(DataError, match="without any attribute"):
        load_dataset(e, x, l)


def test_unknown_attribute_id_is_hard_error(tmp_path):
    e = _write(tmp_path, "e", "a b\n")
    x = _write(tmp_path, "x", "a,1\nb,2\nghost,3\n")
    l = _write(tmp_path, "l", "a u\nb v\n")
    with pytest.raises(DataError, match="ghost"):
        load_dataset(e, x, l)


def test_non_finite_attribute_rejected(tmp_path):
    e = _write(tmp_path, "e", "a b\n")
    x = _write(tmp_path, "x", "a,nan\nb,2\n")
    l = _write(tmp_path, "l", "a u\nb v\n")
    with pytest.raises(DataError, match="non-finite"):
        load_dataset(e, x, l)


def test_ragged_dense_rows_rejected(tmp_path):
    e = _write(tmp_path, "e", "a b\n")
    x = _write(tmp_path, "x", "a,1,2\nb,3\n")
    l = _write(tmp_path, "l", "a u\nb v\n")
    with pytest.raises(DataError, match="expected 2"):
        load_dataset(e, x, l)


def test_duplicate_label_id_rejected(tmp_path):
    e = _write(tmp_path, "e", "a b\n")
    x = _write(tmp_path, "x", "a,1\nb,2\n")
    l = _write(tmp_path, "l", "a u\nb v\na w\n")
    with pytest.raises(DataError, match="duplicate node id"):
        load_dataset(e, x, l)


def test_sparse_triplet_attributes(tmp_path):
    e = _write(tmp_path, "e", "a b\n")
    x = _write(tmp_path, "x", "a 0 1.5\na 3 2\nb 1 4\n")
    l = _write(tmp_path, "l", "a u\nb v\n")
    bundle = load_dataset(e, x, l)
    assert bundle.t == 4
    assert np.array_equal(bundle.attributes.toarray(),
                          [[1.5, 0, 0, 2.0], [0, 4.0, 0, 0]])


def _attr_error(tmp_path, attrs, labels="a u\nb v\n"):
    e = _write(tmp_path, "e", "a b\n")
    x = _write(tmp_path, "x", attrs)
    l = _write(tmp_path, "l", labels)
    with pytest.raises(DataError) as info:
        load_dataset(e, x, l)
    return str(info.value)


@pytest.mark.parametrize("attrs, needle", [
    ("a,1,2\nb,3,oops\n",
     ":2: bad attribute value (could not convert string to float: 'oops')"),
    ("a,1,2\nb,3\n", ":2: row has 1 values, expected 2"),
    ("a,1\nb,2\na,3\n", "duplicate attribute row for id 'a'"),
    ("a,1\nb,2\nghost,3\nspook,4\n",
     "attribute ids missing from the label file: 'ghost', 'spook'"),
    ("a 0 1\nghost 0 2\nb 0 3\n", "attribute ids missing from the label file: 'ghost'"),
    ("a 0 1\nb x 2\n", "bad triplet ['b', 'x', '2'] (invalid literal for int()"),
    ("a 0 1\nb 0 y\n", "bad triplet ['b', '0', 'y'] (could not convert string to float"),
    ("a 0 1\nb -1 2\n", "negative attribute index in ['b', '-1', '2']"),
    ("a 0 1\nb 0\n", "sparse attribute lines must be 'id index value', got ['b', '0']"),
    # refused although a later line overwrites the nan
    ("a 0 nan\nb 0 1\na 0 1\n", ": attribute matrix contains non-finite values"),
    ("", "no attribute entries found"),
    ("# nothing here\n\n", "no attribute entries found"),
])
def test_attribute_errors_name_the_offence(tmp_path, attrs, needle):
    assert needle in _attr_error(tmp_path, attrs)


@pytest.mark.parametrize("attrs, needle", [
    ("a,1,2\nb,3\n", ":2: row has 1 values, expected 2"),
    ("b,1\na,3,4\n", ":2: row has 2 values, expected 1"),
    ("a,1_0\nb,x\n", ":2: bad attribute value (could not convert string to float: 'x')"),
])
def test_every_dense_csv_block_is_checked_against_the_first_row(tmp_path, monkeypatch,
                                                                 attrs, needle):
    monkeypatch.setattr(data_io, "_BLOCK_CELLS", 1)  # one row per block
    assert needle in _attr_error(tmp_path, attrs)


@pytest.mark.parametrize("edges, labels, needle", [
    ("a b\n", "a u\nb\n", "label lines must be 'id label', got ['b']"),
    ("a b\nb a c\n", "a u\nb v\n", "edge lines must be 'u v', got ['b', 'a', 'c']"),
    ("a b\nzzz a\nb yyy\nzzz b\n", "a u\nb v\n",
     "edge endpoints missing from the label file: 'zzz', 'yyy'"),
])
def test_label_and_edge_errors_name_the_offence(tmp_path, edges, labels, needle):
    e = _write(tmp_path, "e", edges)
    x = _write(tmp_path, "x", "a,1\nb,2\n")
    l = _write(tmp_path, "l", labels)
    with pytest.raises(DataError) as info:
        load_dataset(e, x, l)
    assert needle in str(info.value)


@pytest.mark.parametrize("attrs", ["a,1\n", "a 0 1\n"])
def test_missing_attribute_rows_are_named_by_id(tmp_path, attrs):
    msg = _attr_error(tmp_path, attrs, labels="a u\nb v\nc v\n")
    assert "nodes without any attribute row: 'b', 'c'" in msg


def test_comment_with_comma_keeps_triplet_shape(tmp_path):
    e = _write(tmp_path, "e", "a b\n")
    x = _write(tmp_path, "x", "# c, d\na 0 1\nb 0 2\n")
    l = _write(tmp_path, "l", "a u\nb v\n")
    assert np.array_equal(load_dataset(e, x, l).attributes.toarray(), [[1], [2]])


@pytest.mark.parametrize("name, text, lineno", [
    ("l", "a u\n\n# note\nb\n", 4),
    ("l", "a u\nb v\na w\n", 3),
    ("e", "a b\n# note\na b c\n", 3),
    ("x", "a 0 1\nb 0 1 2\n", 2),
    ("x", "# c, d\na 0 1\nb 0 x\n", 3),
    ("x", "# c, d\na 0 1\nb -1 1\n", 3),
    ("x", "a,1\n\nb,2\na,3\n", 4),
    ("x", "a,1\nb, 2 ,x \n", 2),
    ("x", "a\nb,0,1\n", 1),
])
def test_per_line_errors_name_file_and_line(tmp_path, name, text, lineno):
    files = {"e": "a b\n", "x": "a,1\nb,2\n", "l": "a u\nb v\n", name: text}
    paths = {k: _write(tmp_path, k, v) for k, v in files.items()}
    with pytest.raises(DataError) as info:
        load_dataset(paths["e"], paths["x"], paths["l"])
    assert str(info.value).startswith(f"{paths[name]}:{lineno}: ")


@pytest.mark.parametrize("name, text, lineno", [
    ("l", "a u\nb\nc v w\n", 2),
    ("l", "a\n\0 u v\nc w\n", 1),  # a field spelled as the newline marker
    ("e", "a b\nb c a\nc\n", 2),
    # read as 2 values a row, these would be rows a: 1,2  b: 3,4  c: 5,6
    ("x", "a,1,2\nb,3\n4,c,5,6\n", 2),
    ("x", "a 0 1\nb 0\nc 0 1 2\n", 2),
])
def test_a_short_and_a_long_line_in_one_block_are_named(tmp_path, name, text, lineno):
    # the block holds as many fields as its lines need, but not line by line
    files = {"e": "a b\n", "x": "a,1\nb,2\nc,3\n", "l": "a u\nb v\nc w\n", name: text}
    paths = {k: _write(tmp_path, k, v) for k, v in files.items()}
    with pytest.raises(DataError) as info:
        load_dataset(paths["e"], paths["x"], paths["l"])
    assert str(info.value).startswith(f"{paths[name]}:{lineno}: ")


@pytest.mark.parametrize("br", ["\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                                "\u2028", "\u2029"])
@pytest.mark.parametrize("attrs", [["a,1,0", "b,0,2.5", "c,0,0"], ["a 0 1", "b 1 2.5", "c 0 0"]])
def test_every_line_break_of_splitlines_ends_a_line(tmp_path, br, attrs):
    # the first two lines of each file are parted by br, the rest by \n
    files = {"e": ["a b", "b c", "c a"], "x": attrs, "l": ["a u", "b v", "c u"]}

    def load(sep):
        paths = {}
        for key, lines in files.items():
            paths[key] = tmp_path / f"{key}{len(sep)}{ord(sep[0])}"
            text = lines[0] + sep + "\n".join(lines[1:]) + "\n"
            paths[key].write_bytes(text.encode("utf-8"))
        return load_dataset(paths["e"], paths["x"], paths["l"])

    plain, odd = load("\n"), load(br)
    assert odd.node_ids == plain.node_ids == ["a", "b", "c"]
    assert np.array_equal(odd.graph.edge_u, plain.graph.edge_u)
    assert np.array_equal(odd.graph.edge_v, plain.graph.edge_v)
    assert np.array_equal(odd.attributes.toarray(), plain.attributes.toarray())
    assert np.array_equal(plain.attributes.toarray(), [[1, 0], [0, 2.5], [0, 0]])


@pytest.mark.parametrize("pad", [" ", "\t", "\xa0", "\u3000", "\x1f"])
def test_whitespace_around_a_line_is_dropped(tmp_path, pad):
    # str.strip drops \x1f around a line, but float() refuses it in a cell
    bundle = load_dataset(_write(tmp_path, "e", f"{pad}a b{pad}\n"),
                          _write(tmp_path, "x", f"{pad}a,1,2{pad}\nb,0,0{pad}\n"),
                          _write(tmp_path, "l", f"a u{pad}\n{pad}b v\n"))
    assert bundle.node_ids == ["a", "b"]
    assert np.array_equal(bundle.attributes.toarray(), [[1, 2], [0, 0]])


def test_a_bulk_refusal_the_line_scan_accepts_is_a_bug_not_a_none(tmp_path, monkeypatch):
    files = [_write(tmp_path, "e", "a b\n"), _write(tmp_path, "x", "a,1\nb,2\n"),
             _write(tmp_path, "l", "a u\nb v\n")]
    monkeypatch.setattr(data_io, "_csv_cells", lambda block, width: None)
    with pytest.raises(AssertionError, match="bulk parse refused what the line scan accepts"):
        load_dataset(*files)


def test_partition_and_converter_errors_name_file_and_line(tmp_path):
    def error(fn, *args):
        with pytest.raises(DataError) as info:
            fn(*args)
        return str(info.value)

    p = _write(tmp_path, "p", "a 0\n\na 1\n")
    assert error(load_partition, p, ["a"]).startswith(f"{p}:3: duplicate assignment for id 'a'")
    p = _write(tmp_path, "p", "a 0\nb\n")
    assert error(load_partition, p, ["a", "b"]).startswith(f"{p}:2: assignment lines")
    content = _write(tmp_path, "x.content", "p1 1 0 ml\np2 0 db\np3 1 zz ml\n")
    cites = _write(tmp_path, "x.cites", "p1 p2\n")
    assert error(load_cora_content, content, cites).startswith(f"{content}:3: bad feature value")
    content = _write(tmp_path, "x.content", "p1 1 0 ml\np2 db\n")
    assert error(load_cora_content, content, cites).startswith(f"{content}:2: content lines need")
    content = _write(tmp_path, "x.content", "p1 1 0 ml\np2 0 1 db\n")
    cites = _write(tmp_path, "x.cites", "p1 p2\np2\n")
    assert error(load_cora_content, content, cites).startswith(
        f"{cites}:2: cite lines must be 'cited citing'")


def test_repeated_triplets_keep_the_last_value(tmp_path):
    e = _write(tmp_path, "e", "a b\n")
    x = _write(tmp_path, "x", "a 0 1\nb 1 2\na 0 5\nb 1 0\n")
    l = _write(tmp_path, "l", "a u\nb v\n")
    assert np.array_equal(load_dataset(e, x, l).attributes.toarray(), [[5, 0], [0, 0]])


def test_comment_and_blank_lines_ignored(tmp_path):
    e = _write(tmp_path, "e", "# comment\n\na b\n")
    x = _write(tmp_path, "x", "a,1\nb,2\n")
    l = _write(tmp_path, "l", "# header\na u\nb v\n")
    assert load_dataset(e, x, l).graph.m == 1


def test_missing_attr_path_uses_adjacency_rows(tmp_path):
    e = _write(tmp_path, "e", "a b\nb c\n")
    l = _write(tmp_path, "l", "a u\nb v\nc u\n")
    bundle = load_dataset(e, None, l)
    assert bundle.t == 3
    assert np.array_equal(bundle.attributes.toarray(), [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert any("adjacency" in note for note in bundle.notes)


def test_adjacency_as_features_examples():
    tri = adjacency_as_features(Graph(3, [(0, 1), (1, 2), (0, 2)])).toarray()
    assert np.array_equal(tri, 1 - np.eye(3))
    star = adjacency_as_features(Graph(4, [(0, 1), (0, 2), (0, 3)])).toarray()
    assert star[0].sum() == 3
    assert np.array_equal(star, star.T)

    rng = np.random.default_rng(7)
    g = Graph(10, [(i, j) for i in range(10) for j in range(i + 1, 10)
                   if rng.random() < 0.3])
    x = adjacency_as_features(g).toarray()
    for i in range(10):
        assert np.array_equal(np.flatnonzero(x[i]), g.indices[g.indptr[i]:g.indptr[i + 1]])


def test_attribute_free_load_stays_sparse(tmp_path):
    # a dense 10000x10000 float64 adjacency would take 800 MB
    rng = np.random.default_rng(13)
    n = 10_000
    u = rng.integers(0, n, size=30_000)
    v = rng.integers(0, n, size=30_000)
    e = _write(tmp_path, "e", "".join(f"n{a} n{b}\n" for a, b in zip(u, v)))
    l = _write(tmp_path, "l", "".join(f"n{i} {i % 7}\n" for i in range(n)))
    bundle, peak = traced_peak(lambda: load_dataset(e, None, l))
    assert peak < 50e6
    assert sp.issparse(bundle.attributes)
    assert bundle.attributes.shape == (n, n)


def test_triplet_load_holds_no_dense_array(tmp_path):
    # 1% of a 2000 x 2000 matrix as triplets; the dense array is 32 MB. The
    # file is tokenized a block of about 2^16 fields at a time, at about 60
    # bytes per field, so the load peaks near 6 MB here: under a quarter of
    # one dense array, not a tenth
    rng = np.random.default_rng(17)
    n, t = 2000, 2000
    rows, cols = np.nonzero(rng.random((n, t)) < 0.01)
    e = _write(tmp_path, "e", "n0 n1\n")
    x = _write(tmp_path, "x", "".join(f"n{i} {j} 1\n" for i, j in zip(rows, cols)))
    l = _write(tmp_path, "l", "".join(f"n{i} {i % 7}\n" for i in range(n)))
    bundle, peak = traced_peak(lambda: load_dataset(e, x, l))
    assert peak < n * t * 8 / 4
    assert bundle.attributes.nnz == rows.size


def test_dense_csv_load_holds_no_dense_array(tmp_path):
    # 1% ones among 2000 x 2000 one-character cells: the text is 8 MB and one
    # dense float64 array 32 MB, so the load may parse in blocks but never
    # hold all n x T cells at once
    rng = np.random.default_rng(31)
    n, t = 2000, 2000
    ones = rng.random((n, t)) < 0.01
    cells = np.frombuffer(b",0,1", dtype="S2")[ones.astype(np.int64)].view(np.uint8)
    body = cells.reshape(n, 2 * t)
    e = _write(tmp_path, "e", "n0 n1\n")
    x = tmp_path / "x"
    x.write_bytes(b"".join(b"n%d%s\n" % (i, body[i].tobytes()) for i in range(n)))
    l = _write(tmp_path, "l", "".join(f"n{i} {i % 7}\n" for i in range(n)))
    bundle, peak = traced_peak(lambda: load_dataset(e, x, l))
    assert peak < n * t * 8
    rows, cols = np.nonzero(ones)
    assert np.array_equal(bundle.attributes.indptr, np.searchsorted(rows, np.arange(n + 1)))
    assert np.array_equal(bundle.attributes.indices, cols)
    assert np.array_equal(bundle.attributes.data, np.ones(rows.size))


def _assert_canonical_csr(x):
    assert sp.isspmatrix_csr(x) and x.dtype == np.float64
    assert x.has_canonical_format and np.all(x.data != 0)


def test_csv_and_triplet_attributes_load_to_one_canonical_csr(tmp_path):
    # about 1% nonzero; the last column is all zero, so only the explicit
    # zero triplet below gives the triplet file its width. One CSV cell reads
    # -0.0 and one row is all zero: neither stores a value
    rng = np.random.default_rng(29)
    n, t = 200, 500
    dense = np.where(rng.random((n, t)) < 0.01, rng.integers(1, 4, (n, t)), 0.0)
    dense[np.arange(n), rng.integers(0, t - 1, n)] = 2.5  # no node without a value
    dense[:, t - 1] = 0.0
    dense[3, t - 1] = -0.0
    dense[7] = 0.0
    rows, cols = np.nonzero(dense)
    e = _write(tmp_path, "e", "v0 v1\n")
    l = _write(tmp_path, "l", "".join(f"v{i} {i % 3}\n" for i in range(n)))
    csv = _write(tmp_path, "x.csv", "".join(
        f"v{i}," + ",".join(map(repr, dense[i].tolist())) + "\n" for i in range(n)))
    triplets = [f"v{i} {j} {float(dense[i, j])!r}" for i, j in zip(rows, cols)]
    triplets = [f"v{rows[0]} {cols[0]} 9.0",  # repeated below; the last value wins
                *rng.permutation(triplets), f"v{n // 2} {t - 1} 0", "v7 0 0"]
    tri = _write(tmp_path, "x.txt", "\n".join(triplets) + "\n")
    a, b = (load_dataset(e, x, l).attributes for x in (csv, tri))
    for x in (a, b):
        _assert_canonical_csr(x)
        assert x.shape == (n, t)
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)
    assert np.array_equal(a.toarray(), dense)
    assert a.indptr[7] == a.indptr[8]
    _assert_canonical_csr(load_dataset(e, None, l).attributes)
    _assert_canonical_csr(generate_synthetic(SyntheticSpec(n=30, k=3, seed=1)).attributes)


def test_bundle_canonicalizes_a_copy_of_the_callers_matrix(tmp_path):
    g = Graph(3, [(0, 1), (1, 2)])
    labels, ids = Partition([0, 0, 1]), ["a", "b", "c"]
    # row 0 has unsorted indices and a duplicate, row 1 an explicit zero
    data = np.array([2.0, 1.0, 3.0, 0.0, 4.0])
    indices = np.array([2, 0, 2, 1, 0], dtype=np.int32)
    indptr = np.array([0, 3, 4, 5], dtype=np.int32)
    given = sp.csr_matrix((data, indices, indptr), shape=(3, 3))
    assert not given.has_canonical_format
    saved = [arr.copy() for arr in (given.data, given.indices, given.indptr)]
    x = DatasetBundle(g, given, labels, ids).attributes
    _assert_canonical_csr(x)
    assert np.array_equal(x.toarray(), [[1, 0, 5], [0, 0, 0], [4, 0, 0]])
    assert all(np.array_equal(a, b) for a, b in
               zip((given.data, given.indices, given.indptr), saved))
    dense = np.array([[1, 0, 5], [0, 0, 0], [4, 0, 0]], dtype=np.int64)
    y = DatasetBundle(g, dense, labels, ids).attributes
    _assert_canonical_csr(y)
    assert np.array_equal(y.indptr, x.indptr) and np.array_equal(y.indices, x.indices)
    assert np.array_equal(y.data, x.data)
    # the all-zero row is written as zeros of the full width
    paths = write_bundle(DatasetBundle(g, given, labels, ids), tmp_path)
    assert paths["attrs"].read_text() == "a,1.0,0.0,5.0\nb,0.0,0.0,0.0\nc,4.0,0.0,0.0\n"


def test_sparse_attributes_validate_and_write_dense_rows(tmp_path):
    e = _write(tmp_path, "e", "a b\nb c\n")
    l = _write(tmp_path, "l", "a u\nb v\nc u\n")
    bundle = load_dataset(e, None, l)
    paths = write_bundle(bundle, tmp_path / "out")
    again = load_dataset(paths["edges"], paths["attrs"], paths["labels"])
    assert np.array_equal(again.attributes.toarray(), bundle.attributes.toarray())

    bad = sp.csr_matrix(np.array([[0.0, np.nan], [1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(DataError, match="non-finite"):
        DatasetBundle(bundle.graph, bad, bundle.labels, bundle.node_ids)


def test_synthetic_cliques_labels_equal_components():
    spec = SyntheticSpec(n=20, k=2, p_in=1.0, p_out=0.0, t=4, s=0.5, seed=3)
    bundle = generate_synthetic(spec)
    # each label is connected and the graph has one component per label
    assert component_counts(bundle.graph, bundle.labels).tolist() == [1, 1]
    whole = Partition(np.zeros(bundle.n, dtype=np.int64))
    assert component_counts(bundle.graph, whole).tolist() == [2]
    assert bundle.planted == bundle.labels


def test_synthetic_disconnected_label_example():
    spec = SyntheticSpec(n=40, k=4, p_in=0.9, p_out=0.05, t=8, s=0.8,
                         disconnect_fraction=0.5, seed=11)
    bundle = generate_synthetic(spec)
    assert bundle.labels.k == 2
    assert bundle.planted.k == 4
    assert component_counts(bundle.graph, bundle.labels).tolist() == [2, 2]
    # planted blocks refine the united labels
    for c in range(bundle.planted.k):
        members = np.flatnonzero(bundle.planted.assignment == c)
        assert len(set(bundle.labels.assignment[members])) == 1


def test_synthetic_zero_signal_is_label_independent():
    spec = SyntheticSpec(n=2000, k=4, p_in=0.01, p_out=0.005, t=4, s=0.0, seed=5)
    bundle = generate_synthetic(spec)
    worst = 0.0
    for b in range(4):
        members = np.flatnonzero(bundle.planted.assignment == b)
        means = bundle.attributes[members].toarray().mean(axis=0)
        worst = max(worst, float(np.abs(means - 0.5).max()))
    assert worst < 0.1  # ~4.5 sigma for 500 Bernoulli(0.5) draws

    strong = generate_synthetic(
        SyntheticSpec(n=2000, k=4, p_in=0.01, p_out=0.005, t=4, s=0.8, seed=5))
    means0 = strong.attributes[strong.planted.assignment == 0].toarray().mean(axis=0)
    assert means0[0] > 0.8 and means0[1:].max() < 0.2


def test_synthetic_determinism():
    spec = SyntheticSpec(n=60, k=3, p_in=0.4, p_out=0.02, t=6, s=0.7, seed=9)
    b1, b2 = generate_synthetic(spec), generate_synthetic(spec)
    assert np.array_equal(b1.graph.edge_u, b2.graph.edge_u)
    assert np.array_equal(b1.graph.edge_v, b2.graph.edge_v)
    assert np.array_equal(b1.attributes.toarray(), b2.attributes.toarray())
    assert b1.labels == b2.labels
    b3 = generate_synthetic(SyntheticSpec(n=60, k=3, p_in=0.4, p_out=0.02,
                                          t=6, s=0.7, seed=10))
    assert not np.array_equal(b1.attributes.toarray(), b3.attributes.toarray())


def test_synthetic_blocks_internally_connected():
    spec = SyntheticSpec(n=50, k=5, p_in=0.11, p_out=0.01, t=5, s=0.5, seed=13)
    bundle = generate_synthetic(spec)
    assert component_counts(bundle.graph, bundle.planted).tolist() == [1] * 5


_LABELS_N300_K6 = "83f081b9702a77c30343196a0070ac9222a0140a8d9d1284c8685272a103b9d3"


@pytest.mark.parametrize("spec, digests", [
    (SyntheticSpec(), {
        "attrs": "0324b742dbf65257bc0754c92ade63f302a832a74f98c3ae7a19b5db69c313f3",
        "edges": "9506bb074e5c73a8ee4d3a8d228686122c5c8bd912e415f79652da2ef58069db",
        "labels": _LABELS_N300_K6, "planted": _LABELS_N300_K6}),
    (SyntheticSpec(seed=42), {
        "attrs": "05a57f34e8680738a98f538185f68141e5bdf737abee704e63a58c789e356ae5",
        "edges": "3df29878bfd31e9c05a507fdbee1ace2ae7ca043375e19e0202eead35c2bef8a",
        "labels": _LABELS_N300_K6, "planted": _LABELS_N300_K6}),
    (SyntheticSpec(n=301, k=7, disconnect_fraction=0.5), {
        "attrs": "dad69849ad3ad66459e43f705021551e0222d4d27dad0dd8cf664aa75a1606bd",
        "edges": "daddbbb2c36597918e89faa5183f6fb64bacc53b7620e74239040b51103a371d",
        "labels": "bf6212f68da366376f536bc33f937396be92b8e61bf98adbf91193723f885b98",
        "planted": "ae3adb5f0ca1d60a3720ec71486baab111a74d2bb48ce4b873843c668dfe9505"}),
    (SyntheticSpec(p_in=1.0, p_out=0.0), {
        "attrs": "0324b742dbf65257bc0754c92ade63f302a832a74f98c3ae7a19b5db69c313f3",
        "edges": "c07953c93fda954baa4a302b41ac3a104e12453741f80d8b2f2e8bc281d5c3ce",
        "labels": _LABELS_N300_K6, "planted": _LABELS_N300_K6}),
])
def test_synthetic_bundle_files_are_pinned(tmp_path, spec, digests):
    """Literal sha256 of every written file, so a generator rewrite that
    changes the random stream or the edge set fails here."""
    paths = write_bundle(generate_synthetic(spec), tmp_path)
    assert {key: hashlib.sha256(p.read_bytes()).hexdigest()
            for key, p in paths.items()} == digests


@pytest.mark.parametrize("spec", [
    SyntheticSpec(n=1, k=1, t=2, seed=4),
    SyntheticSpec(n=7, k=7, p_in=1.0, p_out=0.5, t=7, disconnect_fraction=1.0, seed=5),
    SyntheticSpec(n=50, k=3, p_in=1.0, p_out=0.0, disconnect_fraction=0.3, seed=6),
    SyntheticSpec(n=91, k=7, p_in=0.3, p_out=0.05, disconnect_fraction=0.5, seed=7),
])
def test_synthetic_matches_the_dense_reference_draw(spec):
    """The whole n × n draw, with n × n probability and upper-triangle masks,
    gives the same graph and attributes as the row-at-a-time generator."""
    n, k = spec.n, spec.k
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    block = np.repeat(np.arange(k), [n // k + (i < n % k) for i in range(k)])
    prob = np.where(block[:, None] == block[None, :], spec.p_in, spec.p_out)
    for a in range(0, 2 * min(int(round(spec.disconnect_fraction * k)), k // 2), 2):
        pair = (block[:, None] == a) & (block[None, :] == a + 1)
        prob[pair | pair.T] = 0.0
    adj = np.triu(rng.random((n, n)) < prob, k=1)
    path = [(v, v + 1) for v in range(n - 1) if block[v] == block[v + 1]]
    reference = Graph(n, [*zip(*np.nonzero(adj)), *path])
    cols = np.repeat(np.arange(k), [spec.t // k + (i < spec.t % k) for i in range(k)])
    p_attr = np.where(block[:, None] == cols[None, :], 0.5 + spec.s / 2, 0.5 - spec.s / 2)

    bundle = generate_synthetic(spec)
    assert np.array_equal(bundle.graph.edge_u, reference.edge_u)
    assert np.array_equal(bundle.graph.edge_v, reference.edge_v)
    assert bundle.graph.dropped_duplicates == reference.dropped_duplicates
    assert np.array_equal(bundle.attributes.toarray(), rng.random((n, spec.t)) < p_attr)


def test_synthetic_memory_is_linear_in_n():
    spec = SyntheticSpec(n=3000, k=10, p_in=0.02, p_out=0.001, disconnect_fraction=0.4)
    bundle, peak = traced_peak(lambda: generate_synthetic(spec))
    # a tenth of one n × n float64 array: the edge draw may hold no n² cells
    assert peak < 0.1 * spec.n ** 2 * 8
    assert component_counts(bundle.graph, bundle.labels).tolist() == [2] * 4 + [1] * 2


def test_spec_validation():
    with pytest.raises(DataError):
        SyntheticSpec(p_in=0.2, p_out=0.2)
    with pytest.raises(DataError):
        SyntheticSpec(p_in=1.2)
    with pytest.raises(DataError):
        SyntheticSpec(k=5, t=4)
    with pytest.raises(DataError):
        SyntheticSpec(s=1.5)
    with pytest.raises(DataError):
        SyntheticSpec(n=4, k=5, t=8)
    with pytest.raises(DataError):
        SyntheticSpec(disconnect_fraction=-0.1)


def test_bundle_write_load_roundtrip(tmp_path):
    spec = SyntheticSpec(n=30, k=3, p_in=0.5, p_out=0.05, t=6, s=0.6,
                         disconnect_fraction=0.4, seed=21)
    bundle = generate_synthetic(spec)
    paths = write_bundle(bundle, tmp_path)
    again = load_dataset(paths["edges"], paths["attrs"], paths["labels"])
    assert again.graph.m == bundle.graph.m
    assert np.array_equal(again.graph.edge_u, bundle.graph.edge_u)
    assert np.array_equal(again.graph.edge_v, bundle.graph.edge_v)
    assert np.array_equal(again.attributes.toarray(), bundle.attributes.toarray())
    assert again.labels == bundle.labels
    planted = load_partition(paths["planted"], again.node_ids)
    assert planted == bundle.planted


def test_write_results_roundtrip_and_byte_stability(tmp_path):
    p = Partition([0, 1, 0, 2])
    metrics = {"Q": 0.5, "NMI": 0.25, "Con": 0.1, "F1": 0.75, "O_c": 1.0,
               "communities": 3, "loss_trace": [1.0, 0.5]}
    config = {"seed": 7, "mu": 0.5}
    ids = ["w", "x", "y", "z"]
    paths = write_results(tmp_path / "r1", p, metrics, config, node_ids=ids,
                          timings={"total": 1.23})
    assert load_partition(paths["assignment"], ids) == p
    loaded = json.loads(paths["metrics"].read_text())
    assert loaded == metrics
    assert paths["metrics"].read_text().endswith("\n")
    assert json.loads(paths["config"].read_text()) == config
    assert json.loads(paths["timings"].read_text()) == {"total": 1.23}

    again = write_results(tmp_path / "r2", p, metrics, config, node_ids=ids)
    assert again["metrics"].read_bytes() == paths["metrics"].read_bytes()
    assert again["assignment"].read_bytes() == paths["assignment"].read_bytes()


def test_write_results_bad_directory(tmp_path):
    blocker = _write(tmp_path, "not_a_dir", "x")
    with pytest.raises(DataError, match="not_a_dir"):
        write_results(blocker / "sub", Partition([0]), {}, {})


def test_load_partition_errors(tmp_path):
    ids = ["a", "b", "c"]
    with pytest.raises(DataError, match="without an assignment"):
        load_partition(_write(tmp_path, "p1", "a 0\nb 1\n"), ids)
    with pytest.raises(DataError, match="ghost"):
        load_partition(_write(tmp_path, "p2", "a 0\nb 1\nc 0\nghost 1\n"), ids)
    with pytest.raises(DataError, match="duplicate"):
        load_partition(_write(tmp_path, "p3", "a 0\na 1\nb 0\nc 0\n"), ids)
    with pytest.raises(DataError) as info:
        load_partition(_write(tmp_path, "p4", "a 0\nb\nc 0\n"), ids)
    assert "assignment lines must be 'id community', got ['b']" in str(info.value)
    with pytest.raises(DataError) as info:
        load_partition(_write(tmp_path, "p5", "a 0\nb 1\nc 0\nghost 1\n"), ids)
    assert "assignment ids missing from the label file: 'ghost'" in str(info.value)


def test_bundle_consistency_enforced():
    g = Graph(3, [(0, 1)])
    with pytest.raises(DataError):
        DatasetBundle(g, np.zeros((2, 2)), Partition([0, 0, 1]), ["a", "b", "c"])
    with pytest.raises(DataError):
        DatasetBundle(g, np.zeros((3, 2)), Partition([0, 0]), ["a", "b", "c"])
    with pytest.raises(DataError):
        DatasetBundle(g, np.zeros((3, 2)), Partition([0, 0, 1]), ["a", "b"])
    with pytest.raises(DataError):
        DatasetBundle(g, np.full((3, 2), np.inf), Partition([0, 0, 1]),
                      ["a", "b", "c"])


def test_cora_style_converter(tmp_path):
    content = _write(tmp_path, "x.content",
                     "p1 1 0 1 ml\np2 0 1 0 db\np3 1 1 0 ml\n")
    cites = _write(tmp_path, "x.cites", "p1 p2\np2 p3\np9 p1\n")
    e, x, l = load_cora_content(content, cites)
    bundle = load_dataset(e, x, l)
    assert bundle.n == 3
    assert bundle.graph.m == 2  # the p9 line references an unknown paper
    assert bundle.t == 3
    assert bundle.labels == Partition([0, 1, 0])
    assert np.array_equal(bundle.attributes.toarray(), [[1, 0, 1], [0, 1, 0], [1, 1, 0]])
