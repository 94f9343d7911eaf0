"""Whole-CLI fuzz tests: the CLI on damaged copies of valid input files.

A small ``gen`` bundle, an assignment file that ``leiden`` writes for it and
a ``--config`` JSON of tiny settings are written once. Each example damages
one file: it truncates the file, cuts, repeats or swaps lines, swaps the
fields of a line, changes bytes, or breaks the UTF-8. ``detect`` then runs
in-process on the bundle with tiny settings, ``metrics --assignment`` on the
assignment file, or ``detect --config`` on the config file. Every outcome
must be exit 0, or exit 2 with a message that names the damaged input, and
no traceback. (The label file defines the node universe, so a cut label line
shows up as an unknown id in the edge or attribute file. A settings value
that the config file holds is named by its key, as the flag's value would
be; see ``_names_the_config``.)

Skipped when hypothesis is not installed; runs under the ``tier1`` profile
of conftest.py.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from comdet import cli
from comdet.cli import main

_FILES = {"--edges": "edges.tsv", "--attrs": "attrs.csv", "--labels": "labels.tsv"}
_TINY = ["--epochs", "2", "--hidden-dims", "4,3,2", "--leiden-runs", "1",
         "--refine-runs", "1", "--seed", "0"]


@pytest.fixture(scope="module")
def bundle_bytes() -> dict[str, bytes]:
    """The bundle's files, the assignment file and the config file, by flag."""
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["gen", "--n", "24", "--k", "3", "--t", "4", "--p-in", "0.5",
                         "--p-out", "0.05", "--seed", "3", "--out", tmp]) == 0
            assert main(["leiden", *_bundle_args(Path(tmp)), "--runs", "1",
                         "--out", str(Path(tmp) / "leiden")]) == 0
        files = {flag: (Path(tmp) / name).read_bytes() for flag, name in _FILES.items()}
        files["--assignment"] = (Path(tmp) / "leiden" / "assignment.tsv").read_bytes()
    # one setting a line, so that the line damage cuts, repeats or swaps settings
    files["--config"] = json.dumps({"epochs": 2, "hidden_dims": [4, 3, 2], "leiden_runs": 1,
                                    "refine_runs": 1, "seed": 0}, indent=1).encode()
    return files


def _bundle_args(folder: Path) -> list[str]:
    return [a for flag, name in _FILES.items() for a in (flag, str(folder / name))]


def _run(argv: list[str]) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr, which holds no traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    message = err.getvalue()
    assert "Traceback" not in message
    assert code in (0, 2), message
    assert code == 0 or message.startswith("error: "), message
    return code, message


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
        for key, name in _FILES.items():
            (Path(tmp) / name).write_bytes(data.draw(_damage(bundle_bytes[key])) if key == flag
                                           else bundle_bytes[key])
        code, message = _run(["detect", *_bundle_args(Path(tmp)), *_TINY,
                              "--out", str(Path(tmp) / "out")])
    if code == 2:  # a damaged label file may surface in another file's ids
        assert any(str(Path(tmp) / name) in message for name in _FILES.values()), message


def _names_the_config(message: str, path: Path) -> bool:
    """The file, the ``--config`` flag, or a setting: a settings key, or the
    config field it sets (a range check names the field; ``refine_runs``
    sets ``RefineConfig.leiden_runs``)."""
    return (str(path) in message or message.startswith("error: --config: ")
            or any(message.startswith(f"error: {name}") for key, (_, field, _, _)
                   in cli._SETTINGS.items() for name in (key, field)))


@settings(settings.get_profile("tier1"), max_examples=200)
@given(st.sampled_from(["--assignment", "--config"]), st.data())
def test_a_damaged_assignment_or_config_exits_0_or_2_naming_it(bundle_bytes, flag, data):
    with tempfile.TemporaryDirectory() as tmp:
        for key, name in _FILES.items():
            (Path(tmp) / name).write_bytes(bundle_bytes[key])
        path = Path(tmp) / flag.lstrip("-")
        path.write_bytes(data.draw(_damage(bundle_bytes[flag])))
        if flag == "--assignment":
            code, message = _run(["metrics", *_bundle_args(Path(tmp)), flag, str(path)])
        else:
            code, message = _run(["detect", *_bundle_args(Path(tmp)), flag, str(path),
                                  "--out", str(Path(tmp) / "out")])
    if code == 2:
        assert (str(path) in message if flag == "--assignment"
                else _names_the_config(message, path)), message
