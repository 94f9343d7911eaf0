"""Property tests of run-settings parsing: flags against a ``--config`` file.

``cli._run_config`` reads any subset of the ``cli._SETTINGS`` keys from
flags, from a JSON file, or both. Valid, wrong-type and out-of-range values
given as flags must give the same outcome (an equal ``RunConfig``, or a
``DataError`` with the same text) as the same values in a file, whether the
file spells each value as the flag's text or as its native JSON number or
list. With both, every flag beats the file's value for its key, including a
file value that alone would be refused.

Native JSON spellings are drawn only where they are the flag's value. A
whole float (``7.0``, ``"7.0"``, ``"1e3"``) is an integer in either route,
and an unknown mode is a data error in either. Flags are given as
``--key=value`` or as two words, ``--key value``, including values that
start with ``-`` such as ``-1e-3`` and ``-inf``.

Skipped when hypothesis is not installed; runs under the ``tier1`` profile
of conftest.py.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from comdet import cli
from comdet.data_io import DataError
from comdet.pipeline import RunMode

_BUNDLE = ["detect", "--edges", "e", "--labels", "l"]
_WRONG = ["", "abc", "2.5", "1e3", "7.0", "true", "none", "[1]", "0x10", "8,6"]


def _spelling(text: str, native=None) -> tuple[str, object]:
    """A value as flag text and as the JSON value a file holds for it."""
    return text, text if native is None else native


_INTS = st.one_of(st.integers(-3, 12).map(lambda i: _spelling(str(i), i)),
                  st.integers(-3, 12).map(lambda i: _spelling(repr(float(i)), float(i))),
                  st.sampled_from([_spelling("1e1", 10.0), _spelling("-1e0", -1.0)]),
                  st.sampled_from(_WRONG).map(_spelling))
_FLOATS = st.one_of(
    st.floats(allow_nan=True).map(lambda f: _spelling(repr(f), f)),
    st.sampled_from(["1e-3", " 0.5 ", "-0.0", "nan", "-inf", "1_000", *_WRONG]).map(_spelling))
_DIMS = st.one_of(
    st.lists(st.integers(-1, 9), min_size=1, max_size=4).map(
        lambda d: _spelling(",".join(map(str, d)), d)),
    st.lists(st.integers(-1, 9).map(float), min_size=1, max_size=4).map(
        lambda d: _spelling(",".join(map(repr, d)), d)),
    st.sampled_from(["8,6,4", "8, 6 ,4", "a,b,c", "8.5,6,4", "8,,4", *_WRONG]).map(_spelling))
_KINDS = {"mu": _FLOATS, "lr": _FLOATS, "birch_threshold": _FLOATS, "hidden_dims": _DIMS,
          "mode": st.sampled_from([*(m.value for m in RunMode), "bogus", "FULL", "",
                                   "-full"]).map(_spelling)}


def _values():
    """Some of the settings, each with a spelling, in ``_SETTINGS`` order:
    of two faulty settings the one met first is reported, and flags are
    met in that order, a file's keys in the file's order."""
    keys = st.lists(st.sampled_from(sorted(cli._SETTINGS)), unique=True)
    return keys.flatmap(lambda ks: st.fixed_dictionaries(
        {k: _KINDS.get(k, _INTS) for k in ks})).map(
        lambda d: {k: d[k] for k in cli._SETTINGS if k in d})


def _outcome(flags: dict, config: dict | None = None, two_words: bool = False):
    """The ``RunConfig`` the settings give, or the ``DataError`` text; flags
    are ``--key value`` if ``two_words``, else ``--key=value``."""
    argv = list(_BUNDLE)
    for key, text in flags.items():
        flag = "--" + key.replace("_", "-")
        argv += [flag, text] if two_words else [f"{flag}={text}"]
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = Path(tmp, "config.json")
            path.write_text(json.dumps(config), encoding="utf-8")
            argv += ["--config", str(path)]
        try:
            return cli._run_config(cli.build_parser().parse_args(argv))
        except DataError as exc:
            return str(exc)


@settings(settings.get_profile("tier1"), max_examples=150)
@given(_values())
def test_flags_and_a_config_file_give_the_same_outcome(values):
    texts = {k: text for k, (text, _) in values.items()}
    from_flags = _outcome(texts)
    as_two_words = _outcome(texts, two_words=True)
    as_text = _outcome({}, texts)
    as_json = _outcome({}, {k: native for k, (_, native) in values.items()})
    assert from_flags == as_two_words == as_text == as_json


@settings(settings.get_profile("tier1"), max_examples=150)
@given(_values(), _values(), st.booleans())
def test_a_flag_beats_the_config_file(in_file, as_flags, two_words):
    merged = {k: native for k, (_, native) in in_file.items()}
    merged.update((k, native) for k, (_, native) in as_flags.items())
    got = _outcome({k: text for k, (text, _) in as_flags.items()},
                   {k: native for k, (_, native) in in_file.items()}, two_words)
    want = _outcome({}, merged)
    assert got == want
