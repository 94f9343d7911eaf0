"""One benchmark iteration, run in a fresh interpreter by bench/run.py.

Drives comdet through its public API in the order ``comdet detect`` uses:
``load_dataset`` (``setup_loads`` times, to time it), then ``run`` once
per mode of the workload, then ``write_results`` per mode. Prints one JSON
line with the timings, the peak RSS, the quality of the ``full`` result, the
correctness failures and, when traced, the per-layer metrics.

    python3 bench/child.py --workload NAME --inputs DIR --out DIR --seed N
        [--run-seed-index I] [--trace]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import comdet  # noqa: E402  (BLAS threads are pinned before numpy loads)
from comdet import LeidenConfig, RefineConfig, RunConfig  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, run_seed  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--run-seed-index", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    paths = {k: args.inputs / f for k, f in
             (("edges", "edges.tsv"), ("attrs", "attrs.csv"), ("labels", "labels.tsv"))}

    # calls go through the comdet namespace, where the tracer patches them
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        # small inputs load in milliseconds, so they load several times and
        # the median counts; a fixed count keeps traced span counts exact.
        # The last bundle is the one that runs
        setups: list[float] = []
        for _ in range(wl.setup_loads):
            t0 = time.perf_counter()
            bundle = comdet.load_dataset(paths["edges"], paths["attrs"], paths["labels"],
                                         name=args.workload)
            setups.append(time.perf_counter() - t0)
        leiden = LeidenConfig(max_passes=wl.leiden_max_passes)
        results, run_s, run_cpu_s = [], 0.0, 0.0
        for mode in wl.modes:
            cfg = RunConfig(seed=run_seed(args.seed, args.run_seed_index), mode=mode,
                            parallel_runs=1, leiden_global_runs=wl.leiden_global_runs,
                            leiden=leiden, epochs=wl.epochs,
                            refine=RefineConfig(leiden_runs=wl.refine_runs, leiden=leiden))
            w0, c0 = time.perf_counter(), time.process_time()
            result = comdet.run(bundle, cfg)
            run_s += time.perf_counter() - w0
            run_cpu_s += time.process_time() - c0
            comdet.write_results(args.out / mode, result.partition, result.metrics,
                                 cfg.snapshot(bundle.name), node_ids=bundle.node_ids,
                                 timings=result.timings)
            results.append(result)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer:
            tracer.uninstall()

    graph = checks.OracleGraph(paths)
    labels = checks.label_codes(paths["labels"])
    failures = [f"{mode}: {msg}" for mode, r in zip(wl.modes, results)
                for msg in checks.check_run(graph, labels, r, wl.epochs)]
    full = results[wl.modes.index("full")].metrics
    record = {
        "setup_s": statistics.median(setups),
        "setup_loads": len(setups),
        "run_s": run_s,
        "run_cpu_s": run_cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "nmi": full["NMI"],
        "modularity_q": full["Q"],
        "o_c": full["O_c"],
        "stages": {k: sum(r.timings.get(k, 0.0) for r in results)
                   for k in ("leiden", "refine", "train", "cluster", "metrics")},
        "failures": failures,
        "comdet": str(Path(comdet.__file__).resolve().parent),
    }
    if tracer:
        tracer.write(args.out / "spans.jsonl")
        shape = {"n": bundle.n, "nnz": 2 * bundle.graph.m,
                 "dims": (bundle.t, *results[0].model.hidden_dims)}
        record["layers"] = tracing.layer_metrics(tracer, shape)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
