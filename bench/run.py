"""comdet benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The runner makes the workload's
input files from ``--seed``, then runs iterations one after another, each in
a fresh interpreter (bench/child.py) with BLAS pinned to one thread, until
the next one would end after ``--seconds``. Correctness is checked on every
iteration. Iterations cycle over the workload's ``run_seeds`` values of
``RunConfig.seed``. With ``--trace 1`` untraced and traced iterations
alternate, all on the first ``RunConfig.seed``, and the traced ones give the
per-layer metrics.

It prints the machine record, a table of every metric with its unit, and as
the last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of BENCHMARK.json, or with ``--trace 1``
the per-layer ones). The full record goes to
``.bench_work/<workload>-seed<N>-trace<T>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import tail_percentile

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
STARTED = time.monotonic()
TIME_LIMIT_S = 170.0  # the whole run, inputs and every iteration included
TIMINGS = ("setup_s", "run_s", "run_cpu_s")
# quality of the full result: recorded and printed, not gated (bench/README.md)
QUALITY = {"nmi": ("ratio", "higher"), "modularity_q": ("ratio", "higher"),
           "o_c": ("count", "lower")}
STAGES = ("leiden", "refine", "train", "cluster", "metrics")
# per-layer counts that must repeat exactly for one seed
COUNTS = ("leiden.calls", "leiden.passes", "refine.leiden_calls", "refine.communities_out",
          "graph.connected_components_calls", "gcn.epochs", "loss.calls",
          "birch.points", "birch.leaves", "trace.spans")


class BenchError(Exception):
    pass


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    return ref


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def digest(out: Path, modes) -> str:
    h = hashlib.sha256()
    for mode in modes:
        h.update((out / mode / "metrics.json").read_bytes())
    return h.hexdigest()


def run_iteration(args, out: Path, modes, env, traced: bool, index: int,
                  expect_pkg: str) -> dict:
    """One child interpreter on ``RunConfig.seed`` number ``index``; returns
    its record with ``error`` set on failure."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", args.workload,
           "--inputs", str(args.inputs), "--out", str(out), "--seed", str(args.seed),
           "--run-seed-index", str(index)]
    if traced:
        cmd.append("--trace")
    timeout = max(1.0, TIME_LIMIT_S - (time.monotonic() - STARTED))
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return {"traced": traced, "index": index, "wall_s": time.monotonic() - t0,
                "error": f"iteration timed out after {timeout:.0f} s"}
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return {"traced": traced, "index": index, "wall_s": wall,
                "error": f"child exited {proc.returncode}: {tail}"}
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec.update(traced=traced, index=index, wall_s=wall, digest=digest(out, modes))
    if rec["comdet"] != expect_pkg:
        rec["failures"].append(f"child imported comdet from {rec['comdet']}, not {expect_pkg}")
    return rec


def summarize(values: list[float]) -> dict:
    pct, tail = tail_percentile(values)
    return {"median": statistics.median(values), "tail_pct": pct, "tail": tail,
            "n": len(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise BenchError(f"{spec_path} not found; run from the root of a checkout")
    spec = json.loads(spec_path.read_text())
    if not (ROOT / "src" / "comdet" / "__init__.py").is_file():
        raise BenchError(f"no comdet sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import comdet
    import numpy
    import scipy
    from workloads import WORKLOADS, run_seed
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    pkg = Path(comdet.__file__).resolve().parent
    load_start = os.getloadavg()

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    args.inputs = work / "inputs"
    wl.make(args.seed, args.inputs)

    # an absolute path: a relative PYTHONPATH would not resolve if a child
    # changed directory, which is how a relative `src` breaks subprocess runs
    env = dict(os.environ, PYTHONPATH=str(pkg.parent), **BLAS_ENV)
    its: list[dict] = []
    deadline = time.monotonic() + args.seconds
    min_iters = 4 if args.trace else 3
    n_seeds = 1 if args.trace else wl.run_seeds
    while True:
        traced = bool(args.trace) and len(its) % 2 == 1
        index = len(its) % n_seeds
        out = work / f"iter{len(its)}"
        rec = run_iteration(args, out, wl.modes, env, traced, index, str(pkg))
        if traced and (out / "spans.jsonl").is_file():
            shutil.move(str(out / "spans.jsonl"), work / "spans.jsonl")
        shutil.rmtree(out, ignore_errors=True)
        its.append(rec)
        step = max(r["wall_s"] for r in its)
        now = time.monotonic()
        if now - STARTED + 1.5 * step > TIME_LIMIT_S:
            break
        if len(its) >= min_iters and now + statistics.median(r["wall_s"] for r in its) > deadline:
            break

    # an iteration fails when it raised, failed a check, or wrote other bytes
    # than the first iteration on the same RunConfig.seed
    digests: list[str | None] = [None] * n_seeds
    for r in its:
        if "error" in r:
            continue
        ok_digest = digests[r["index"]] = digests[r["index"]] or r["digest"]
        if r["digest"] != ok_digest:
            r["failures"].append(f"metrics.json digest {r['digest'][:12]} differs "
                                 f"from {ok_digest[:12]}")
    good = [r for r in its if "error" not in r and not r["failures"]]
    failed = len(its) - len(good)
    plain = [r for r in good if not r["traced"]]
    traced_its = [r for r in good if r["traced"]]
    problems = [r.get("error") or "; ".join(r["failures"]) for r in its
                if r not in good]

    stats: dict[str, dict] = {}
    if plain:
        for key in (*TIMINGS, "peak_rss_mb"):
            stats[key] = summarize([r[key] for r in plain])
    # quality is deterministic per RunConfig.seed: report the first one's
    first = [r for r in plain if r["index"] == 0]
    if first:
        for key in QUALITY:
            stats[key] = summarize([r[key] for r in first])
    layers: dict[str, float] = {}
    if args.trace and plain and traced_its:
        for key in STAGES:
            layers[f"pipeline.{key}_s"] = statistics.median(r["stages"][key] for r in plain)
        layers["pipeline.accounted_ratio"] = statistics.median(
            sum(r["stages"].values()) / r["run_s"] for r in plain)
        for key in traced_its[0]["layers"]:
            layers[key] = statistics.median(r["layers"][key] for r in traced_its)
        layers["trace.overhead_ratio"] = (
            statistics.median(r["run_s"] for r in traced_its) / stats["run_s"]["median"] - 1.0)
        for key in COUNTS:
            seen = {r["layers"][key] for r in traced_its}
            if len(seen) > 1:
                problems.append(f"count {key} differs across traced iterations: {sorted(seen)}")

    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m for m in spec[section]}
    values = layers if args.trace else {k: v["median"] for k, v in stats.items()}
    missing = sorted(set(declared) - set(values))
    if missing and good:
        problems.append(f"metrics not measured: {missing}")
    correct = failed == 0 and not problems
    metrics = {k: {"value": values[k], "unit": m["unit"]}
               for k, m in declared.items() if k in values}

    why = {w["name"]: w["why"] for w in spec["workloads"]}
    record = {
        "workload": args.workload, "seed": args.seed,
        "why": why.get(args.workload, "not in BENCHMARK.json, so not gated"),
        "seconds": args.seconds, "trace": args.trace,
        "machine": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                    "loadavg_start": load_start, "loadavg_end": os.getloadavg()},
        "software": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "comdet": comdet.__version__,
                     "blas_env": {k: env[k] for k in BLAS_ENV}, "git_commit": git_commit()},
        "settings": {"modes": wl.modes, "leiden_global_runs": wl.leiden_global_runs,
                     "refine_runs": wl.refine_runs, "epochs": wl.epochs,
                     "leiden_max_passes": wl.leiden_max_passes,
                     "run_seeds": [run_seed(args.seed, i) for i in range(n_seeds)]},
        # one digest per RunConfig.seed, in run_seeds order
        "metrics_json_sha256": digests,
        "attempted": len(its), "failed": failed, "fail_ratio": failed / len(its),
        "problems": problems, "stats": stats, "layers": layers,
        "declared": {name: {"unit": m["unit"], "better": m["better"]}
                     for name, m in declared.items()},
        "iterations": [{k: v for k, v in r.items() if k != "layers"} for r in its],
    }
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    shutil.rmtree(args.inputs, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: {record['why']}")
    print(f"machine: {record['machine']}")
    print(f"software: {record['software']}")
    print(f"settings: {record['settings']}")
    print(f"metrics.json sha256 {' '.join(map(str, digests))}; "
          f"attempted {len(its)}, failed {failed}, "
          f"fail_ratio {record['fail_ratio']:.3f}")
    for msg in problems:
        print(f"PROBLEM: {msg}")
    rows = [(name, m["unit"], m["better"]) for name, m in declared.items() if name in values]
    if not args.trace:
        rows += [(k, *QUALITY[k]) for k in QUALITY if k in values]
        values["fail_ratio"] = record["fail_ratio"]
        rows.append(("fail_ratio", "ratio", "lower"))
    for name, unit, better in rows:
        line = f"  {name:<36} {values[name]:>14.6g} {unit:<8} {better:<7}"
        if name in TIMINGS and name in stats:
            s = stats[name]
            line += f" median of n={s['n']}, p{s['tail_pct']} {s['tail']:.6g}"
        print(line + ("" if name in declared else " (not gated)"))
    print(json.dumps({"correct": correct, "attempted": len(its), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
