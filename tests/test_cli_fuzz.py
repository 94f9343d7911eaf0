"""Whole-CLI fuzz test: ``detect`` on damaged copies of a valid bundle.

A small ``gen`` bundle is written once. Each example damages one of its
three files: it truncates the file, cuts, repeats or swaps lines, swaps the
fields of a line, changes bytes, or breaks the UTF-8. ``detect`` then runs
in-process with tiny settings. Every outcome must be exit 0, or exit 2 with
a message that names one of the bundle's files, and no traceback. (The
label file defines the node universe, so a cut label line shows up as an
unknown id in the edge or attribute file.)

Skipped when hypothesis is not installed; runs under the ``tier1`` profile
of conftest.py.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from comdet.cli import main

_FILES = {"--edges": "edges.tsv", "--attrs": "attrs.csv", "--labels": "labels.tsv"}
_TINY = ["--epochs", "2", "--hidden-dims", "4,3,2", "--leiden-runs", "1",
         "--refine-runs", "1", "--seed", "0"]


@pytest.fixture(scope="module")
def bundle_bytes() -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["gen", "--n", "24", "--k", "3", "--t", "4", "--p-in", "0.5",
                         "--p-out", "0.05", "--seed", "3", "--out", tmp]) == 0
        return {flag: (Path(tmp) / name).read_bytes() for flag, name in _FILES.items()}


@st.composite
def _damage(draw, data: bytes) -> bytes:
    """``data`` with one kind of damage."""
    kind = draw(st.sampled_from(["truncate", "cut line", "repeat line", "swap lines",
                                 "swap fields", "change bytes", "break utf-8"]))
    lines = data.split(b"\n")
    line = st.integers(0, len(lines) - 1)
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data)))]
    if kind == "cut line":
        del lines[draw(line)]
    elif kind == "repeat line":
        k = draw(line)
        lines[k:k] = [lines[k]] * draw(st.integers(1, 3))
    elif kind == "swap lines":
        a, b = draw(line), draw(line)
        lines[a], lines[b] = lines[b], lines[a]
    elif kind == "swap fields":
        k = draw(line)
        sep = b"," if b"," in lines[k] else b"\t"
        fields = lines[k].split(sep)
        if len(fields) > 1:
            a, b = draw(st.permutations(range(len(fields))))[:2]
            fields[a], fields[b] = fields[b], fields[a]
        lines[k] = sep.join(fields)
    elif kind == "change bytes":
        out = bytearray(data)
        for _ in range(draw(st.integers(1, 4))):
            if out:
                out[draw(st.integers(0, len(out) - 1))] = draw(
                    st.sampled_from(b"\t\n\r ,#.-0129eEax\x00\x1f\x7f"))
        return bytes(out)
    else:  # a stray continuation byte, or a multi-byte character cut short
        at = draw(st.integers(0, len(data)))
        bad = draw(st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xe2\x82"]))
        return data[:at] + bad + data[at:]
    return b"\n".join(lines)


@settings(settings.get_profile("tier1"), max_examples=200)
@given(st.sampled_from(sorted(_FILES)), st.data())
def test_detect_on_a_damaged_bundle_exits_0_or_2_naming_a_file(bundle_bytes, flag, data):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for key, name in _FILES.items():
            paths[key] = Path(tmp) / name
            paths[key].write_bytes(data.draw(_damage(bundle_bytes[key])) if key == flag
                                   else bundle_bytes[key])
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["detect", *(a for key in _FILES for a in (key, str(paths[key]))),
                         *_TINY, "--out", str(Path(tmp) / "out")])
    message = err.getvalue()
    assert "Traceback" not in message
    assert code in (0, 2), message
    if code == 2:  # a damaged label file may surface in another file's ids
        assert message.startswith("error: "), message
        assert any(str(p) in message for p in paths.values()), message
