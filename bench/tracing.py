"""Spans and counters around comdet's public functions, from outside the program.

``Tracer.install`` replaces every public function of the traced modules in
every ``comdet`` namespace that holds it (``comdet.pipeline.best_of_runs``
and ``comdet.refine.best_of_runs`` are the same function imported twice), and
the listed methods on their classes. Each call then records a span: name,
parent span, start and end. Spans stay in memory until ``write`` is called;
``uninstall`` puts the original functions back. ``layer_metrics`` turns the
spans of one iteration into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("data_io", "leiden", "refine", "graph", "gcn", "loss", "birch", "metrics", "pipeline")
METHODS = {"gcn": {"GcnModel": ("forward", "backward"), "AdamState": ("step",)}}
# counters read off a call's arguments and result, keyed by span name
COUNTERS = {
    "data_io.load_dataset": lambda args, out: {
        "data_io.input_mb": sum(Path(p).stat().st_size for p in args[:3] if p) / 1e6},
    "refine.refine_labels": lambda args, out: {"refine.communities_out": out.k},
    "birch.birch_cluster": lambda args, out: {"birch.points": len(args[0]),
                                              "birch.leaves": out.k},
}


class Tracer:
    def __init__(self) -> None:
        # (span id, parent id or -1, root id, name, start, end); a root span is
        # one top-level call, so every span of one run() shares its root id
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[tuple[int, int]] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent, root = stack[-1] if stack else (-1, sid)
            spans.append(None)  # reserve the id; children append after it
            stack.append((sid, root))
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[sid] = (sid, parent, root, name, t0, clock())
                stack.pop()
            if counter is not None:
                for key, value in counter(args, out).items():
                    counts[key] += value
            return out
        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every public function of every traced module, where it is used."""
        originals: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"comdet.{layer}"]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    originals[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
            for cls, methods in METHODS.get(layer, {}).items():
                owner = getattr(mod, cls)
                for m in methods:
                    self._patch(owner, m, self._wrap(f"{layer}.{cls}.{m}", owner.__dict__[m]))
        for name, mod in list(sys.modules.items()):
            if name == "comdet" or name.startswith("comdet."):
                for attr, value in list(vars(mod).items()):
                    if id(value) in originals and inspect.isfunction(value):
                        self._patch(mod, attr, originals[id(value)])

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def write(self, path: Path) -> None:
        """Spans as JSON lines: id, parent, root, name, start and end seconds."""
        with open(path, "w") as fh:
            for sid, parent, root, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "root": root,
                                     "name": name, "start": t0, "end": t1}) + "\n")


def tail_percentile(values: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples above it, and its value.

    With fewer than 20 samples that is the median (percentile 50).
    """
    n = len(values)
    pct = max(50, int(100 * (1 - 10 / n))) if n else 50
    if n < 2:
        return pct, float(values[0]) if values else float("nan")
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _nominal_flop(n: int, nnz: int, dims: tuple[int, ...]) -> tuple[float, float, float]:
    """Matrix-product flop of one forward, one backward and one loss term.

    Counted from shapes and the adjacency's nonzeros; elementwise work is left
    out. These are computed, not measured.
    """
    fwd = bwd = 0.0
    for layer, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
        fwd += 2.0 * nnz * d_in + 2.0 * n * d_in * d_out
        bwd += 2.0 * n * d_in * d_out
        if layer:
            bwd += 2.0 * n * d_out * d_in + 2.0 * nnz * d_in
    d = dims[-1]
    loss = 4.0 * n * d + 4.0 * n * d * d
    return fwd, bwd, loss


def layer_metrics(tracer: Tracer, shape: dict) -> dict[str, float]:
    """Per-layer metrics of one traced iteration.

    ``shape`` holds ``n``, ``nnz`` (adjacency nonzeros) and ``dims`` (input
    width then the three hidden widths) for the computed flop counts.
    """
    spans = tracer.spans
    name_of = {s[0]: s[3] for s in spans}
    child_s: dict[int, float] = defaultdict(float)
    for sid, parent, _, _, t0, t1 in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0

    def pick(name, parent=None):
        return [s for s in spans if s[3] == name
                and (parent is None or name_of.get(s[1]) == parent)]

    def total(name, parent=None):
        return sum(s[5] - s[4] for s in pick(name, parent))

    def self_time(name):
        return sum(s[5] - s[4] - child_s[s[0]] for s in pick(name))

    def layer_time(layer):
        # outermost calls into a layer, so nested calls are not counted twice
        prefix = layer + "."
        return sum(s[5] - s[4] for s in spans if s[3].startswith(prefix)
                   and not name_of.get(s[1], "").startswith(prefix))

    under_refine: set[int] = set()
    for sid, parent, *_ in spans:  # parents precede children in id order
        if name_of[sid] == "refine.refine_labels" or parent in under_refine:
            under_refine.add(sid)
    loads = [s[5] - s[4] for s in pick("data_io.load_dataset")]
    leiden_calls = pick("leiden.leiden")
    leiden_durations = [s[5] - s[4] for s in leiden_calls]

    # one epoch runs from its forward call to the Adam step that ends it
    epochs = []
    for train in pick("gcn.train"):
        fwd = [s for s in spans if s[1] == train[0] and s[3] == "gcn.GcnModel.forward"]
        steps = [s for s in spans if s[1] == train[0] and s[3] == "gcn.AdamState.step"]
        epochs += [b[5] - a[4] for a, b in zip(fwd, steps)]
    fwd_f, bwd_f, loss_f = _nominal_flop(shape["n"], shape["nnz"], shape["dims"])
    in_train = lambda name: len(pick(name, "gcn.train"))
    loss_calls = len(pick("loss.pairwise_loss"))
    flop = (in_train("gcn.GcnModel.forward") * fwd_f + in_train("gcn.GcnModel.backward") * bwd_f
            + loss_calls * loss_f)
    gflop_per_epoch = flop / max(len(epochs), 1) / 1e9
    epoch_p50 = statistics.median(epochs) if epochs else float("nan")

    return {
        "data_io.load_s": statistics.median(loads) if loads else 0.0,
        "data_io.input_mb": tracer.counts["data_io.input_mb"] / max(len(loads), 1),
        "data_io.write_s": total("data_io.write_results"),
        "leiden.target_s": total("leiden.best_of_runs", "pipeline.run"),
        "leiden.calls": len(leiden_calls),
        "leiden.call_p50_s": statistics.median(leiden_durations),
        "leiden.passes": len(pick("graph.split_into_components", "leiden.leiden")),
        "leiden.split_s": total("graph.split_into_components", "leiden.leiden"),
        "leiden.self_s": self_time("leiden.leiden"),
        "refine.s": total("refine.refine_labels"),
        "refine.leiden_calls": sum(1 for s in leiden_calls if s[0] in under_refine),
        "refine.leiden_s": total("leiden.best_of_runs", "refine.refine_labels"),
        "refine.induced_subgraph_s": total("graph.induced_subgraph", "refine.refine_labels"),
        "refine.components_s": total("graph.connected_components", "refine.refine_labels"),
        "refine.self_s": self_time("refine.refine_labels"),
        "refine.communities_out": tracer.counts["refine.communities_out"],
        "graph.connected_components_calls": len(pick("graph.connected_components")),
        "graph.connected_components_s": total("graph.connected_components"),
        "gcn.epochs": len(epochs),
        "gcn.forward_s": total("gcn.GcnModel.forward"),
        "gcn.backward_s": total("gcn.GcnModel.backward"),
        "gcn.adam_s": total("gcn.AdamState.step"),
        "gcn.epoch_p50_s": epoch_p50,
        "gcn.epoch_tail_s": tail_percentile(epochs)[1],
        "gcn.nominal_gflop_per_epoch": gflop_per_epoch,
        "gcn.gflops": gflop_per_epoch / epoch_p50,
        "loss.calls": loss_calls,
        "loss.s": layer_time("loss"),
        "birch.s": total("birch.birch_cluster"),
        "birch.points": tracer.counts["birch.points"],
        "birch.leaves": tracer.counts["birch.leaves"],
        "metrics.s": layer_time("metrics"),
        "metrics.connectivity_s": total("metrics.connectivity_score"),
        "trace.spans": len(spans),
    }
