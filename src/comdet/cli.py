"""Command-line front end.

Subcommands: ``detect`` (full pipeline), ``ablate`` (pipeline with one term
switched off or a post-process applied), ``leiden`` (modularity optimizer
alone), ``refine`` (label refinement alone), ``metrics`` (score an existing
assignment), and ``gen`` (synthetic bundle generator). Exit codes: 0 success,
1 usage error, 2 data error, 3 runtime failure. Score columns are printed
x100 to one decimal; the connectivity score is printed raw since it is a
count with floor 1, not a percentage. ``--json`` switches to raw values.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import re
import sys
import warnings
from dataclasses import fields
from enum import Enum
from pathlib import Path

from .birch import BirchConfig
from .data_io import (
    ADJACENCY_NOTE,
    DataError,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    load_partition,
    write_bundle,
    write_results,
)
from .gcn import save_checkpoint
from .leiden import best_of_runs
from .metrics import connectivity_score, modularity
from .pipeline import RunConfig, RunMode, metric_report, resolve_mu, run
from .refine import RefineConfig, refine_labels

__all__ = ["entry", "main"]

_ENV_OUT = "COMDET_OUT_DIR"

class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; the contract says 1.

    A word that starts with one ``-`` and names no option is a value, so
    ``--lr -1e-3`` reaches the setting's parser as it does from ``--config``.
    The rule is argparse's private ``_negative_number_matcher`` (checked on
    CPython 3.11.7), set once ``-h`` is registered under the default rule.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-[^-]")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _default_out() -> str:
    return os.environ.get(_ENV_OUT, "comdet-out")


def _require_file(path, flag: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise DataError(f"{flag}: file not found: {p}")
    return p


def _int(value) -> int:
    """A whole number from flag text or JSON: an integer, or a number with no
    fractional part (``7.0``, ``"7.0"`` or ``"1e3"``) from either; bools,
    fractions and non-finite numbers are errors."""
    try:
        number = value
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError:
                number = float(value)
        if isinstance(number, bool) or (isinstance(number, float)
                                        and not number.is_integer()):
            raise ValueError
        return int(number)
    except (TypeError, ValueError):
        raise ValueError(f"expected an integer, got {value!r}") from None


def _float(value) -> float:
    """A real number from flag text or JSON; bools are errors."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _mode(value) -> RunMode:
    try:
        return RunMode(value)
    except ValueError:
        raise ValueError(f"expected one of {', '.join(m.value for m in RunMode)}, "
                         f"got {value!r}") from None


def _dims(value) -> tuple[int, ...]:
    return tuple(map(_int, value if isinstance(value, list) else str(value).split(",")))


def _parsed(key: str, parse, value):
    try:
        return parse(value)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{key}: {exc}") from exc


# run settings by --config key (= flag dest, with flag --key-name): the
# dataclass that holds the field, the field, its parser and its help text
_SETTINGS = {
    "mu": (RunConfig, "mu", lambda v: None if v is None else _float(v),
           "weight of the refined-label loss term"),
    "epochs": (RunConfig, "epochs", _int, "training epochs"),
    "lr": (RunConfig, "learning_rate", _float, "Adam learning rate"),
    "hidden_dims": (RunConfig, "hidden_dims", _dims, "encoder layer sizes"),
    "leiden_runs": (RunConfig, "leiden_global_runs", _int, "global Leiden repeats"),
    "refine_runs": (RefineConfig, "leiden_runs", _int, "per-label Leiden repeats"),
    "birch_threshold": (BirchConfig, "threshold_radius", _float, "CF absorb radius"),
    "branching_factor": (BirchConfig, "branching_factor", _int, "CF-tree fanout"),
    "seed": (RunConfig, "seed", _int, "master seed"),
    "mode": (RunConfig, "mode", _mode, "pipeline variant"),
    "parallel_runs": (RunConfig, "parallel_runs", _int,
                      "processes for independent Leiden repeats"),
}


def _run_config(args) -> RunConfig:
    """The run's config from the settings given: flags beat the config file,
    which beats the dataclass defaults. Flag and file values go through the
    same parser; a setting of the wrong type or range is a data error."""
    given = {}
    if getattr(args, "config", None) is not None:
        p = _require_file(args.config, "--config")
        try:
            given = json.loads(p.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"--config: cannot parse {p}: {exc}") from exc
        if not isinstance(given, dict):
            raise DataError(f"--config: {p} must hold a JSON object")
        unknown = sorted(set(given) - set(_SETTINGS))
        if unknown:
            raise DataError(f"--config: unknown keys {unknown}; "
                            f"known keys: {sorted(_SETTINGS)}")
    given.update((key, getattr(args, key)) for key in _SETTINGS
                 if getattr(args, key, None) is not None)
    values: dict = {RunConfig: {}, RefineConfig: {}, BirchConfig: {}}
    for key, value in given.items():
        cls, name, parse, _ = _SETTINGS[key]
        values[cls][name] = _parsed(key, parse, value)
    try:
        return RunConfig(refine=RefineConfig(**values[RefineConfig]),
                         birch=BirchConfig(**values[BirchConfig]), **values[RunConfig])
    except (TypeError, ValueError) as exc:
        raise DataError(str(exc)) from exc


def _metric_table(metrics: dict) -> str:
    lines = [f"{'metric':<12}{'value':>8}"]
    for key in ("Q", "NMI", "Con", "F1"):
        lines.append(f"{key:<12}{metrics[key] * 100:>8.1f}")
    lines.append(f"{'O_c':<12}{metrics['O_c']:>8.3f}")
    lines.append(f"{'communities':<12}{metrics['communities']:>8d}")
    return "\n".join(lines)


def _raw_metrics(metrics: dict) -> dict:
    return {k: metrics[k] for k in ("Q", "NMI", "Con", "F1", "O_c", "communities")}


def _load_bundle(args):
    edges = _require_file(args.edges, "--edges")
    labels = _require_file(args.labels, "--labels")
    attrs = _require_file(args.attrs, "--attrs") if args.attrs is not None else None
    bundle = load_dataset(edges, attrs, labels, name=getattr(args, "name", None))
    for note in bundle.notes:
        # only detect and ablate read the attributes
        if note != ADJACENCY_NOTE or args.cmd in ("detect", "ablate"):
            print(f"note: {note}", file=sys.stderr)
    return bundle


def _cmd_detect(args) -> int:
    cfg = _run_config(args)
    if args.cmd == "ablate" and cfg.mode is RunMode.FULL:
        raise DataError("--mode: ablate needs an ablation mode "
                        "(lm-only, lr-only, unrefined-labels, modified-split)")
    bundle = _load_bundle(args)
    result = run(bundle, cfg)
    out = Path(args.out)
    write_results(out, result.partition, result.metrics,
                  cfg.snapshot(bundle.name), node_ids=bundle.node_ids,
                  timings=result.timings)
    if args.save_model is not None:
        try:
            save_checkpoint(result.model, args.save_model)
        except OSError as exc:
            raise DataError(f"--save-model: cannot write {args.save_model}: {exc}") from exc
    if args.json:
        record = _raw_metrics(result.metrics)
        record["out_dir"] = str(out)
        print(json.dumps(record, sort_keys=True, indent=2))
    else:
        print(f"network {bundle.name}  mode {cfg.mode.value}  "
              f"mu {resolve_mu(bundle.name, cfg.mu)}")
        print(_metric_table(result.metrics))
        print(f"results written to {out}")
    return 0


def _cmd_leiden(args) -> int:
    cfg = _run_config(args)
    bundle = _load_bundle(args)
    g = bundle.graph
    part = best_of_runs(g, cfg.leiden_global_runs, lambda p: modularity(g, p),
                        seed=cfg.seed, parallel=cfg.parallel_runs)
    record = {"Q": modularity(g, part), "communities": part.k}
    if args.out is not None:
        write_results(Path(args.out), part, record,
                      {"runs": cfg.leiden_global_runs, "seed": cfg.seed},
                      node_ids=bundle.node_ids)
    if args.json:
        print(json.dumps(record, sort_keys=True, indent=2))
    else:
        print(f"{'Q':<12}{record['Q'] * 100:>8.1f}")
        print(f"{'communities':<12}{record['communities']:>8d}")
    return 0


def _cmd_refine(args) -> int:
    cfg = _run_config(args)
    bundle = _load_bundle(args)
    g, labels = bundle.graph, bundle.labels
    refined = refine_labels(g, labels, cfg.refine, seed=cfg.seed)
    record = {
        "labels": labels.k,
        "refined": refined.k,
        "Q_labels": modularity(g, labels),
        "Q_refined": modularity(g, refined),
        "O_c_labels": connectivity_score(g, labels),
        "O_c_refined": connectivity_score(g, refined),
    }
    if args.out is not None:
        write_results(Path(args.out), refined, record,
                      {"runs": cfg.refine.leiden_runs, "seed": cfg.seed},
                      node_ids=bundle.node_ids)
    if args.json:
        print(json.dumps(record, sort_keys=True, indent=2))
    else:
        print(f"{'metric':<14}{'labels':>10}{'refined':>10}")
        print(f"{'communities':<14}{record['labels']:>10d}{record['refined']:>10d}")
        print(f"{'Q':<14}{record['Q_labels'] * 100:>10.1f}"
              f"{record['Q_refined'] * 100:>10.1f}")
        print(f"{'O_c':<14}{record['O_c_labels']:>10.3f}"
              f"{record['O_c_refined']:>10.3f}")
    return 0


def _cmd_metrics(args) -> int:
    bundle = _load_bundle(args)
    cs = load_partition(_require_file(args.assignment, "--assignment"),
                        bundle.node_ids)
    record = metric_report(bundle.graph, bundle.labels, cs)
    if args.json:
        print(json.dumps(_raw_metrics(record), sort_keys=True, indent=2))
    else:
        print(_metric_table(record))
    return 0


def _cmd_gen(args) -> int:
    spec = SyntheticSpec(**{
        f.name: _parsed(f.name, _int if isinstance(f.default, int) else _float,
                        getattr(args, f.name))
        for f in fields(SyntheticSpec) if getattr(args, f.name) is not None})
    bundle = generate_synthetic(spec)
    paths = write_bundle(bundle, Path(args.out))
    if args.json:
        record = {"n": bundle.n, "m": bundle.graph.m, "t": bundle.t,
                  "labels": bundle.labels.k, "planted": bundle.planted.k,
                  "files": {k: str(p) for k, p in sorted(paths.items())}}
        print(json.dumps(record, sort_keys=True, indent=2))
    else:
        print(f"generated {bundle.name}: n={bundle.n} m={bundle.graph.m} "
              f"T={bundle.t} labels={bundle.labels.k} planted={bundle.planted.k}")
        for key in sorted(paths):
            print(f"  {key}: {paths[key]}")
    return 0


def _add_bundle_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--edges", required=True, help="edge list file ('u v' per line)")
    p.add_argument("--labels", required=True,
                   help="label file ('id label' per line); defines the node universe")
    p.add_argument("--attrs", help="attribute file (dense CSV or sparse triplets); "
                                   "omit to use adjacency rows")
    p.add_argument("--name", help="network name (controls the default mu)")


def _add_flag(p: _Parser, flag: str, default, text: str = "", **kwargs) -> None:
    """A setting flag with no argparse type, choices or default, so that
    ``_SETTINGS`` alone parses its value: its help shows the dataclass
    default, and an enum default gives its choices."""
    if isinstance(default, Enum) and kwargs.get("metavar") is None:
        kwargs["metavar"] = "{" + ",".join(e.value for e in type(default)) + "}"
    if default is not None:
        shown = (",".join(map(str, default)) if isinstance(default, tuple)
                 else getattr(default, "value", default))
        text = f"{text} (default {shown})".lstrip()
    p.add_argument(flag, help=text, **kwargs)


def _add_settings(p: _Parser, keys, runs: str | None = None,
                  mode_required: bool = False) -> None:
    """One flag per setting key; the key named by ``runs`` is given as --runs."""
    for key in keys:
        cls, name, _, text = _SETTINGS[key]
        flag = "--runs" if key == runs else "--" + key.replace("_", "-")
        metavar = "RUNS" if key == runs else "D1,D2,D3" if key == "hidden_dims" else None
        _add_flag(p, flag, getattr(cls, name), text, dest=key, metavar=metavar,
                  required=mode_required and key == "mode")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="comdet",
                     description="Attributed-network community detection")
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    for cmd, text, mode_required in (
            ("detect", "run the full detection pipeline", False),
            ("ablate", "run the pipeline with one term disabled", True)):
        p = sub.add_parser(cmd, help=text)
        _add_bundle_flags(p)
        _add_settings(p, _SETTINGS, mode_required=mode_required)
        p.add_argument("--config", help="JSON file with any of the above settings")
        p.add_argument("--out", default=_default_out(),
                       help=f"output directory (default ${_ENV_OUT} or comdet-out)")
        p.add_argument("--save-model", dest="save_model",
                       help="also write the trained encoder checkpoint here")
        p.add_argument("--json", action="store_true", help="machine-readable stdout")
        p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("leiden", help="modularity optimization alone")
    _add_bundle_flags(p)
    _add_settings(p, ["leiden_runs", "seed", "parallel_runs"], runs="leiden_runs")
    p.add_argument("--out", help="write assignment.tsv and metrics.json here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_leiden)

    p = sub.add_parser("refine", help="split labels into connected sub-communities")
    _add_bundle_flags(p)
    _add_settings(p, ["refine_runs", "seed"], runs="refine_runs")
    p.add_argument("--out", help="write the refined assignment here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("metrics", help="score an assignment against the labels")
    _add_bundle_flags(p)
    p.add_argument("--assignment", required=True,
                   help="assignment file ('id community' per line)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("gen", help="generate a synthetic attributed network")
    for f in fields(SyntheticSpec):
        _add_flag(p, "--" + f.name.replace("_", "-"), f.default)
    p.add_argument("--out", default=_default_out())
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gen)

    return parser


def _openblas(symbol: str):
    """``symbol`` of the OpenBLAS that numpy's wheel bundles, as a ctypes
    function, or None where numpy links another build or BLAS. The library is
    reached through numpy's core extension, which links it."""
    try:
        from numpy._core import _multiarray_umath
        return getattr(ctypes.CDLL(_multiarray_umath.__file__), symbol)
    except (ImportError, OSError, AttributeError):
        return None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    # a product split over more threads rounds differently, so the output
    # bytes would depend on OPENBLAS_NUM_THREADS; with another BLAS build the
    # command runs unpinned
    set_threads = _openblas("scipy_openblas_set_num_threads64_")
    if set_threads is not None:
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)
    with warnings.catch_warnings():  # a warning is one line, with no source line
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except DataError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except Exception as exc:  # runtime failures map to exit code 3
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 3


def entry() -> None:
    raise SystemExit(main())
