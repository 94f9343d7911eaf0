"""End-to-end orchestration: targets, refinement, training, clustering.

A run derives a modularity target (best-of-N Leiden selected by agreement
with the human labels), refines the labels into connected sub-communities,
trains the encoder against the combined pairwise objective, clusters the
final embedding with the CF tree, and scores the result. Ablation modes
switch off either objective term, swap the refined labels for the raw ones,
or split disconnected output communities as a post-process.
"""

from __future__ import annotations

import math
import numbers
import os
import time
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from .birch import BirchConfig, birch_cluster
from .data_io import DataError, DatasetBundle
from .gcn import GcnModel, train, training_bytes
from .graph import Graph, Partition, split_into_components
from .leiden import LeidenConfig, best_of_runs
from .loss import PairwiseTarget, pairwise_loss
from .metrics import conductance, connectivity_score, f1_score, modularity, nmi
from .refine import RefineConfig, refine_labels

__all__ = [
    "MU_DEFAULTS",
    "RunConfig",
    "RunMode",
    "RunResult",
    "metric_report",
    "resolve_mu",
    "run",
]

# balance between the modularity-target and refined-label objective terms,
# tuned per benchmark network; unknown networks fall back to 0.5
MU_DEFAULTS = {
    "cora": 0.5,
    "citeseer": 0.2,
    "amazon-photo": 0.2,
    "amazon-pc": 0.5,
    "coauthor-cs": 10.0,
    "coauthor-phy": 0.5,
}


class RunMode(str, Enum):
    FULL = "full"
    LM_ONLY = "lm-only"
    LR_ONLY = "lr-only"
    UNREFINED_LABELS = "unrefined-labels"
    MODIFIED_SPLIT = "modified-split"


def resolve_mu(name: str, explicit: float | None = None) -> float:
    """Explicit value if given, else the per-network default (else 0.5)."""
    if explicit is not None:
        return float(explicit)
    key = name.strip().lower().replace("_", "-").replace(" ", "-")
    return MU_DEFAULTS.get(key, 0.5)


@dataclass
class RunConfig:
    """Settings of one pipeline run; every stage seed is derived from ``seed``."""

    mu: float | None = None
    leiden_global_runs: int = 30
    leiden: LeidenConfig = field(default_factory=LeidenConfig)
    refine: RefineConfig = field(default_factory=RefineConfig)
    epochs: int = 300
    learning_rate: float = 0.001
    hidden_dims: tuple[int, int, int] = (256, 128, 64)
    birch: BirchConfig = field(default_factory=BirchConfig)
    seed: int = 0
    mode: RunMode = RunMode.FULL
    parallel_runs: int = 1

    def __post_init__(self) -> None:
        self.mode = RunMode(self.mode)
        whole = lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)
        for name, low in (("leiden_global_runs", 1), ("epochs", 0), ("parallel_runs", 1),
                          ("seed", 0)):
            value = getattr(self, name)
            if not whole(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.mu is not None and not (math.isfinite(self.mu) and self.mu >= 0):
            raise ValueError(f"mu must be finite and >= 0, got {self.mu}")
        if (len(self.hidden_dims) != 3 or not all(map(whole, self.hidden_dims))
                or min(self.hidden_dims) < 1):
            raise ValueError(
                f"hidden_dims must be three positive sizes, got {self.hidden_dims}")

    def snapshot(self, bundle_name: str) -> dict:
        """JSON-ready record of every setting, with the network and resolved mu."""
        return {**asdict(self), "network": bundle_name,
                "mu": resolve_mu(bundle_name, self.mu)}


@dataclass
class RunResult:
    partition: Partition
    metrics: dict
    timings: dict
    modularity_target: Partition
    refined_labels: Partition
    model: GcnModel

    @property
    def loss_trace(self) -> list[float]:
        return self.metrics["loss_trace"]


def _derived_seed(master: int, stage: int) -> int:
    return int(np.random.SeedSequence(entropy=master,
                                      spawn_key=(stage,)).generate_state(1)[0])


def _physical_memory() -> int:
    """Bytes of physical memory, or 0 where the platform cannot tell."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return 0


def metric_report(g: Graph, labels: Partition, cs: Partition) -> dict:
    """Quality record for a candidate structure against the human labels."""
    _, con = conductance(g, cs)
    return {
        "Q": modularity(g, cs),
        "NMI": nmi(cs, labels),
        "Con": con,
        "F1": f1_score(cs, labels),
        "O_c": connectivity_score(g, cs),
        "communities": cs.k,
    }


def run(bundle: DatasetBundle, cfg: RunConfig | None = None) -> RunResult:
    """Execute the full detection pipeline (or an ablation of it)."""
    if cfg is None:
        cfg = RunConfig()
    g, labels = bundle.graph, bundle.labels
    # refused before the first stage, so a model that cannot fit costs no
    # Leiden or refinement time
    need, have = training_bytes(bundle.n, bundle.t, cfg.hidden_dims), _physical_memory()
    if 0 < have < need:
        raise DataError(f"the encoder for T={bundle.t} attribute columns and "
                        f"hidden_dims={cfg.hidden_dims} needs {need} bytes to train, "
                        f"more than the {have} bytes of physical memory")
    mu = resolve_mu(bundle.name, cfg.mu)
    timings: dict[str, float] = {}

    def staged(name: str, fn):
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:
            raise RuntimeError(f"pipeline stage {name!r} failed: {exc}") from exc
        timings[name] = time.perf_counter() - t0
        return out

    # stage 1: global modularity target, selected by label agreement when the
    # labels are informative, by modularity itself otherwise
    if labels.k > 1:
        score = lambda p: nmi(p, labels)
    else:
        score = lambda p: modularity(g, p)
    cs_l = staged("leiden", lambda: best_of_runs(
        g, cfg.leiden_global_runs, score, config=cfg.leiden,
        seed=_derived_seed(cfg.seed, 0), parallel=cfg.parallel_runs))

    # stage 2: connected sub-communities from the human labels
    if cfg.mode is RunMode.UNREFINED_LABELS:
        cs_r = labels
        timings["refine"] = 0.0
    else:
        cs_r = staged("refine", lambda: refine_labels(
            g, labels, cfg.refine, seed=_derived_seed(cfg.seed, 1)))

    # stage 3: train the encoder against the composite pairwise objective
    one_term = {RunMode.LM_ONLY: [(cs_l, 1.0)], RunMode.LR_ONLY: [(cs_r, 1.0)]}
    terms = [(PairwiseTarget(p), w) for p, w in one_term.get(cfg.mode, [(cs_l, 1.0), (cs_r, mu)])]
    model = GcnModel(g, in_dim=bundle.t, hidden_dims=cfg.hidden_dims,
                     seed=_derived_seed(cfg.seed, 2))

    def fit():  # Â·X is built once, for training and for clustering
        ax0 = model.propagate(bundle.attributes)
        return ax0, train(model, ax0, lambda xe: pairwise_loss(terms, xe),
                          cfg.epochs, cfg.learning_rate)[1]

    ax0, trace = staged("train", fit)

    # stage 4: cluster the final embedding
    def cluster():
        xe, _ = model.forward(ax0)
        cs = birch_cluster(xe, cfg.birch)
        if cfg.mode is RunMode.MODIFIED_SPLIT:
            cs = split_into_components(g, cs)
        return cs

    cs = staged("cluster", cluster)

    metrics = staged("metrics", lambda: metric_report(g, labels, cs))
    metrics["loss_trace"] = [float(v) for v in trace]
    return RunResult(cs, metrics, timings, cs_l, cs_r, model)
