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
import json
import os
import sys
from pathlib import Path

from .birch import BirchConfig
from .data_io import (
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
from .refine import RefineConfig, ThresholdRule, refine_labels

__all__ = ["entry", "main"]

_ENV_OUT = "COMDET_OUT_DIR"

class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; the contract says 1."""

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


def _parse_dims(text) -> tuple[int, ...]:
    parts = text if isinstance(text, (list, tuple)) else str(text).split(",")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise DataError(f"bad hidden dims {text!r}: {exc}") from exc


# run settings by --config key (= flag dest): the RunConfig section that
# holds the field (None for RunConfig itself), the field, and its parser
_SETTINGS = {
    "mu": (None, "mu", lambda v: None if v is None else float(v)),
    "epochs": (None, "epochs", int),
    "lr": (None, "learning_rate", float),
    "hidden_dims": (None, "hidden_dims", _parse_dims),
    "leiden_runs": (None, "leiden_global_runs", int),
    "refine_runs": ("refine", "leiden_runs", int),
    "threshold_rule": ("refine", "threshold_rule", ThresholdRule),
    "birch_threshold": ("birch", "threshold_radius", float),
    "branching_factor": ("birch", "branching_factor", int),
    "seed": (None, "seed", int),
    "mode": (None, "mode", RunMode),
    "parallel_runs": (None, "parallel_runs", int),
}


def _run_config(args) -> RunConfig:
    """The run's config from the settings given: flags beat the config file,
    which beats the dataclass defaults. A setting of the wrong type or range
    is a data error."""
    given = {}
    if getattr(args, "config", None) is not None:
        p = _require_file(args.config, "--config")
        try:
            given = json.loads(p.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise DataError(f"--config: cannot parse {p}: {exc}") from exc
        if not isinstance(given, dict):
            raise DataError(f"--config: {p} must hold a JSON object")
        unknown = sorted(set(given) - set(_SETTINGS))
        if unknown:
            raise DataError(f"--config: unknown keys {unknown}; "
                            f"known keys: {sorted(_SETTINGS)}")
    given.update((key, getattr(args, key)) for key in _SETTINGS
                 if getattr(args, key, None) is not None)
    fields: dict = {None: {}, "refine": {}, "birch": {}}
    try:
        for key, value in given.items():
            section, name, parse = _SETTINGS[key]
            fields[section][name] = parse(value)
        return RunConfig(refine=RefineConfig(**fields["refine"]),
                         birch=BirchConfig(**fields["birch"]), **fields[None])
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
    return load_dataset(edges, attrs, labels,
                        name=getattr(args, "name", None))


def _cmd_detect(args) -> int:
    bundle = _load_bundle(args)
    cfg = _run_config(args)
    if args.cmd == "ablate" and cfg.mode is RunMode.FULL:
        raise DataError("--mode: ablate needs an ablation mode "
                        "(lm-only, lr-only, unrefined-labels, modified-split)")
    result = run(bundle, cfg)
    out = Path(args.out)
    write_results(out, result.partition, result.metrics,
                  cfg.snapshot(bundle.name), node_ids=bundle.node_ids,
                  timings=result.timings)
    if args.save_model is not None:
        save_checkpoint(result.model, args.save_model)
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
                      {"runs": cfg.refine.leiden_runs, "seed": cfg.seed,
                       "threshold_rule": cfg.refine.threshold_rule.value},
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
    spec = SyntheticSpec(n=args.n, k=args.k, p_in=args.p_in, p_out=args.p_out,
                         t=args.t, s=args.s,
                         disconnect_fraction=args.disconnect_fraction,
                         seed=args.seed)
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


def _add_run_flags(p: argparse.ArgumentParser, mode_required: bool) -> None:
    p.add_argument("--mu", type=float, help="weight of the refined-label loss term")
    p.add_argument("--epochs", type=int,
                   help=f"training epochs (default {RunConfig.epochs})")
    p.add_argument("--lr", type=float,
                   help=f"Adam learning rate (default {RunConfig.learning_rate})")
    p.add_argument("--hidden-dims", dest="hidden_dims", metavar="D1,D2,D3",
                   help="encoder layer sizes (default "
                        f"{','.join(map(str, RunConfig.hidden_dims))})")
    p.add_argument("--leiden-runs", dest="leiden_runs", type=int,
                   help=f"global Leiden repeats (default {RunConfig.leiden_global_runs})")
    p.add_argument("--refine-runs", dest="refine_runs", type=int,
                   help=f"per-label Leiden repeats (default {RefineConfig.leiden_runs})")
    p.add_argument("--threshold-rule", dest="threshold_rule",
                   choices=[r.value for r in ThresholdRule],
                   help="refinement merge-down threshold "
                        f"(default {RefineConfig.threshold_rule.value})")
    p.add_argument("--birch-threshold", dest="birch_threshold", type=float,
                   help=f"CF absorb radius (default {BirchConfig.threshold_radius})")
    p.add_argument("--branching-factor", dest="branching_factor", type=int,
                   help=f"CF-tree fanout (default {BirchConfig.branching_factor})")
    p.add_argument("--seed", type=int, help=f"master seed (default {RunConfig.seed})")
    p.add_argument("--mode", required=mode_required,
                   choices=[m.value for m in RunMode],
                   help=f"pipeline variant (default {RunConfig.mode.value})")
    p.add_argument("--parallel-runs", dest="parallel_runs", type=int,
                   help="processes for independent Leiden repeats "
                        f"(default {RunConfig.parallel_runs})")
    p.add_argument("--config", help="JSON file with any of the above settings")
    p.add_argument("--out", default=_default_out(),
                   help=f"output directory (default ${_ENV_OUT} or comdet-out)")
    p.add_argument("--save-model", dest="save_model",
                   help="also write the trained encoder checkpoint here")
    p.add_argument("--json", action="store_true", help="machine-readable stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="comdet",
                     description="Attributed-network community detection")
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    p = sub.add_parser("detect", help="run the full detection pipeline")
    _add_bundle_flags(p)
    _add_run_flags(p, mode_required=False)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("ablate", help="run the pipeline with one term disabled")
    _add_bundle_flags(p)
    _add_run_flags(p, mode_required=True)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("leiden", help="modularity optimization alone")
    _add_bundle_flags(p)
    p.add_argument("--runs", dest="leiden_runs", metavar="RUNS", type=int,
                   help=f"seeded repeats (default {RunConfig.leiden_global_runs})")
    p.add_argument("--seed", type=int, help=f"master seed (default {RunConfig.seed})")
    p.add_argument("--parallel-runs", dest="parallel_runs", type=int,
                   help="processes for independent repeats "
                        f"(default {RunConfig.parallel_runs})")
    p.add_argument("--out", help="write assignment.tsv and metrics.json here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_leiden)

    p = sub.add_parser("refine", help="split labels into connected sub-communities")
    _add_bundle_flags(p)
    p.add_argument("--runs", dest="refine_runs", metavar="RUNS", type=int,
                   help=f"per-label repeats (default {RefineConfig.leiden_runs})")
    p.add_argument("--threshold-rule", dest="threshold_rule",
                   choices=[r.value for r in ThresholdRule],
                   help="merge-down threshold "
                        f"(default {RefineConfig.threshold_rule.value})")
    p.add_argument("--seed", type=int, help=f"master seed (default {RunConfig.seed})")
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
    p.add_argument("--n", type=int, default=300)
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--p-in", dest="p_in", type=float, default=0.3)
    p.add_argument("--p-out", dest="p_out", type=float, default=0.01)
    p.add_argument("--t", type=int, default=24)
    p.add_argument("--s", type=float, default=0.8)
    p.add_argument("--disconnect-fraction", dest="disconnect_fraction",
                   type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=_default_out())
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
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
