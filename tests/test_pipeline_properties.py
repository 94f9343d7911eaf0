"""Metamorphic pairs of whole runs over generated bundles.

Each pair changes the input files in a way the pipeline must not see: the
run on the changed files writes the same ``metrics.json`` bytes, and the
same ``assignment.tsv`` once each node id is mapped back. The changes:

- edge lines shuffled, with every other line's endpoints swapped;
- label values renamed one-to-one;
- node ids prefixed in all three files;
- attribute rows reversed.

A fifth pair runs the in-memory bundle against the same bundle after
``write_bundle`` and ``load_dataset``. The label file's line order is not
among the changes: it sets the node order, which seeds Leiden's queue and
the CF tree's insert order, and numbers the labels by first occurrence.
Reversing it changed both files on each of six 40-node bundles tried.

Bundles are small, some with disconnected labels so that refinement has
work to do, and runs use tiny settings. Skipped when hypothesis is not
installed; runs under the ``tier1`` profile of conftest.py.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from comdet.data_io import (SyntheticSpec, generate_synthetic, load_dataset, write_bundle,
                            write_results)
from comdet.pipeline import RunConfig, run
from comdet.refine import RefineConfig

FILES = ("edges", "attrs", "labels")
PREFIX = "v"


def _shuffled_edges(files: dict, rng: np.random.Generator) -> dict:
    lines = [files["edges"][i] for i in rng.permutation(len(files["edges"]))]
    swapped = ["\t".join(line.split("\t")[::-1]) for line in lines[1::2]]
    lines[1::2] = swapped
    return {**files, "edges": lines}


def _renamed_labels(files: dict, rng: np.random.Generator) -> dict:
    rows = [line.split("\t") for line in files["labels"]]
    values = sorted({label for _, label in rows})
    name = dict(zip(values, (f"L{i}" for i in rng.permutation(len(values)))))
    return {**files, "labels": [f"{node}\t{name[label]}" for node, label in rows]}


def _prefixed_ids(files: dict, rng: np.random.Generator) -> dict:
    return {"edges": ["\t".join(PREFIX + node for node in line.split("\t"))
                      for line in files["edges"]],
            "attrs": [PREFIX + line for line in files["attrs"]],
            "labels": [PREFIX + line for line in files["labels"]]}


def _reversed_attributes(files: dict, rng: np.random.Generator) -> dict:
    return {**files, "attrs": files["attrs"][::-1]}


CHANGES = (_shuffled_edges, _renamed_labels, _prefixed_ids, _reversed_attributes)


def _written_run(bundle, cfg: RunConfig, out: Path) -> tuple[bytes, dict[str, str]]:
    """``metrics.json`` bytes and the ``assignment.tsv`` map of node id to
    community, with the id prefix dropped."""
    result = run(bundle, cfg)
    paths = write_results(out, result.partition, result.metrics, cfg.snapshot(bundle.name),
                          node_ids=bundle.node_ids)
    assignment = dict(line.split("\t") for line in
                      paths["assignment"].read_text(encoding="utf-8").splitlines())
    return (paths["metrics"].read_bytes(),
            {node.removeprefix(PREFIX): c for node, c in assignment.items()})


def _loaded(paths, name: str):
    return load_dataset(paths["edges"], paths["attrs"], paths["labels"], name=name)


@st.composite
def _cases(draw):
    """A small bundle spec (disconnected labels in most) and a run seed."""
    k = draw(st.integers(2, 4))
    spec = SyntheticSpec(
        n=draw(st.integers(4 * k, 60)), k=k,
        p_in=draw(st.sampled_from([0.3, 0.5, 0.8])),
        p_out=draw(st.sampled_from([0.0, 0.02, 0.08])),
        t=draw(st.integers(k, 8)), s=draw(st.sampled_from([0.4, 0.8])),
        disconnect_fraction=draw(st.sampled_from([0.5, 1.0, 0.0])),
        seed=draw(st.integers(0, 2 ** 16)))
    return spec, draw(st.integers(0, 2 ** 16))


@settings(settings.get_profile("tier1"), max_examples=6)
@given(_cases())
def test_whole_runs_ignore_what_the_files_do_not_mean(case):
    spec, seed = case
    cfg = RunConfig(leiden_global_runs=2, refine=RefineConfig(leiden_runs=1), epochs=5,
                    hidden_dims=(8, 8, 4), seed=seed)
    bundle = generate_synthetic(spec)
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = write_bundle(bundle, tmp / "base")
        base = _written_run(_loaded(paths, bundle.name), cfg, tmp / "base-out")
        assert _written_run(bundle, cfg, tmp / "memory-out") == base
        files = {key: paths[key].read_text(encoding="utf-8").splitlines() for key in FILES}
        for change in CHANGES:
            changed = change(files, rng)
            out = tmp / change.__name__
            out.mkdir()
            changed_paths = {key: out / paths[key].name for key in FILES}
            for key in FILES:
                changed_paths[key].write_text("".join(f"{line}\n" for line in changed[key]),
                                              encoding="utf-8")
            got = _written_run(_loaded(changed_paths, bundle.name), cfg, out / "run")
            assert got == base, change.__name__
