"""Acceptance gate: one test per release criterion.

Every test prints exactly one ``acceptance NN [...] PASS/FAIL`` line with the
measured quantities (straight to the terminal, bypassing capture) and then
asserts. Criterion 8 needs the Cora source files and skips cleanly when they
are absent. All randomness is seeded; ambient BLAS threading is pinned to one
thread by ``conftest`` before numpy loads.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from comdet.birch import BirchConfig, birch_cluster
from comdet.data_io import (
    SyntheticSpec,
    generate_synthetic,
    load_cora_content,
    load_dataset,
)
from comdet.gcn import GcnModel
from comdet.graph import Graph, Partition, component_counts, split_into_components
from comdet.leiden import best_of_runs, leiden
from comdet.loss import PairwiseTarget, total_loss
from comdet.metrics import connectivity_score, modularity, nmi
from comdet.pipeline import RunConfig, RunMode, run
from comdet.refine import refine_labels

from conftest import (
    ClusteringFeature,
    all_partitions,
    communities,
    merge_step,
    modularity_double_sum,
    partition_from_labels,
    random_connected_graph,
    random_graph,
    random_partition,
)


def _verdict(capsys, num: int, title: str, problems: list[str], detail: str) -> None:
    """Print the one-line verdict for a criterion, then fail if needed."""
    status = "PASS" if not problems else "FAIL"
    line = f"acceptance {num:02d} [{title}] {status}: {detail}"
    if problems:
        line += " | " + "; ".join(problems)
    with capsys.disabled():
        print(line, flush=True)
    assert not problems, line


def _over_budget(elapsed: float, budget: float) -> list[str]:
    if elapsed >= budget:
        return [f"runtime {elapsed:.1f}s exceeds the {budget:.0f}s budget"]
    return []


# --------------------------------------------------------------------------
# 1. Modularity oracles
# --------------------------------------------------------------------------

def test_criterion_01_modularity_forms_agree(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_pair = 0.0
    worst_allone = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 31))
        g = random_graph(rng, n, float(rng.uniform(0.15, 0.85)))
        while g.m == 0:
            g = random_graph(rng, n, 0.7)
        cs = random_partition(rng, n, int(rng.integers(1, n + 1)))
        worst_pair = max(worst_pair,
                         abs(modularity(g, cs) - modularity_double_sum(g, cs)))
        all_one = Partition(np.zeros(n, dtype=np.int64))
        worst_allone = max(worst_allone, abs(modularity(g, all_one)))
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    tri_dev = abs(modularity(triangle, Partition([0, 0, 1])) - (-2.0 / 9.0))
    elapsed = time.perf_counter() - t0

    problems = []
    if worst_pair > 1e-12:
        problems.append(f"per-community vs double-sum deviates by {worst_pair:.3e}")
    if tri_dev > 1e-12:
        problems.append(f"triangle {{0,1}}|{{2}} off -2/9 by {tri_dev:.3e}")
    if worst_allone > 1e-12:
        problems.append(f"all-in-one modularity off 0 by {worst_allone:.3e}")
    problems += _over_budget(elapsed, 5.0)
    _verdict(capsys, 1, "modularity-oracles", problems,
             f"50 graphs, max form gap {worst_pair:.2e}, triangle gap {tri_dev:.2e}, "
             f"all-in-one gap {worst_allone:.2e}, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# 2. End-to-end gradients vs central finite differences
# --------------------------------------------------------------------------

def test_criterion_02_end_to_end_gradients(capsys):
    t0 = time.perf_counter()
    h = 1e-5
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(4, 16))
        t = int(rng.integers(1, 7))
        g = random_graph(rng, n, 0.4)
        x = rng.normal(size=(n, t))
        target_m = PairwiseTarget(random_partition(rng, n, int(rng.integers(1, 4))))
        target_r = PairwiseTarget(random_partition(rng, n, int(rng.integers(1, 4))))
        model = GcnModel(g, t, (5, 4, 3), seed=seed)

        xe, cache = model.forward(model.propagate(x))
        _, d_xe = total_loss(target_m, target_r, xe, 0.5)
        grads = model.backward(cache, d_xe)

        def value() -> float:
            out, _ = model.forward(model.propagate(x))
            return total_loss(target_m, target_r, out, 0.5)[0]

        for li, w in enumerate(model.weights):
            for idx in np.ndindex(w.shape):
                keep = w[idx]
                w[idx] = keep + h
                up = value()
                w[idx] = keep - h
                down = value()
                w[idx] = keep
                fd = (up - down) / (2.0 * h)
                rel = abs(grads[li][idx] - fd) / max(abs(fd), 1e-6)
                worst = max(worst, rel)
    elapsed = time.perf_counter() - t0

    problems = []
    if worst > 1e-4:
        problems.append(f"max relative gradient error {worst:.3e} exceeds 1e-4")
    problems += _over_budget(elapsed, 120.0)
    _verdict(capsys, 2, "gradient-suite", problems,
             f"20 instances, every weight probed, max rel err {worst:.2e} "
             f"(h={h:g}), {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 3. Leiden connectivity invariant + local-move fixpoint
# --------------------------------------------------------------------------

def _single_move_improvements(g: Graph, p: Partition) -> int:
    """Count strictly improving single-node relocations (to a neighboring
    community or a fresh singleton) — the exhaustive fixpoint oracle."""
    a = p.assignment
    m = float(g.m)
    deg = g.degrees.astype(np.float64)
    sigma = np.bincount(a, weights=deg, minlength=p.k)
    count = 0
    for v in range(g.n):
        cv = int(a[v])
        w: dict[int, int] = {}
        for u in g.indices[g.indptr[v]:g.indptr[v + 1]]:
            cu = int(a[u])
            w[cu] = w.get(cu, 0) + 1
        base = (w.get(cv, 0) / m
                - (sigma[cv] - deg[v]) * deg[v] / (2.0 * m * m))
        for c, wc in w.items():
            if c == cv:
                continue
            gain = wc / m - sigma[c] * deg[v] / (2.0 * m * m)
            if gain > base + 1e-12:
                count += 1
        if 0.0 > base + 1e-12:
            count += 1
    return count

def test_criterion_03_leiden_connected_and_move_stable(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    disconnected = 0
    improvable = 0
    fixpoint_checked = 0
    for trial in range(200):
        n = int(rng.integers(2, 301))
        p = (1.5 / n, 3.0 / n, 0.03, 0.12)[trial % 4]
        if n > 150:
            p = min(p, 0.05)
        g = random_graph(rng, n, min(p, 1.0))
        part = leiden(g, seed=trial)
        if (component_counts(g, part) != 1).any():
            disconnected += 1
        if n <= 200 and g.m > 0:
            fixpoint_checked += 1
            improvable += _single_move_improvements(g, part)
    elapsed = time.perf_counter() - t0

    problems = []
    if disconnected:
        problems.append(f"{disconnected} runs produced a disconnected community")
    if improvable:
        problems.append(f"{improvable} strictly improving single-node moves remain")
    problems += _over_budget(elapsed, 180.0)
    _verdict(capsys, 3, "leiden-connectivity", problems,
             f"200 graphs (n<=300), 0 disconnected communities, fixpoint checked "
             f"exhaustively on {fixpoint_checked} graphs with n<=200, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 4. Leiden near-optimality against exhaustive enumeration
# --------------------------------------------------------------------------

def _exhaustive_best_q(g: Graph) -> float:
    a = np.zeros((g.n, g.n))
    a[g.edge_u, g.edge_v] = 1.0
    a[g.edge_v, g.edge_u] = 1.0
    deg = a.sum(axis=1)
    two_m = deg.sum()
    null = np.outer(deg, deg) / two_m
    best = -np.inf
    for labels in all_partitions(g.n):
        lab = np.asarray(labels)
        same = lab[:, None] == lab[None, :]
        best = max(best, float(((a - null) * same).sum() / two_m))
    return best

def test_criterion_04_leiden_near_optimal_small_graphs(capsys):
    hits = 0
    above = 0
    worst_gap = 0.0
    rng = np.random.default_rng(404)
    for trial in range(50):
        n = int(rng.integers(3, 9))
        g = random_connected_graph(rng, n, 0.5)
        target = _exhaustive_best_q(g)
        got = best_of_runs(g, 5, lambda p: modularity(g, p),
                           seed=trial)
        q = modularity(g, got)
        if q > target + 1e-9:
            above += 1
        if q >= target - 1e-9:
            hits += 1
        else:
            worst_gap = max(worst_gap, target - q)

    edges = ([(i, j) for i in range(4) for j in range(i + 1, 4)]
             + [(i, j) for i in range(4, 8) for j in range(i + 1, 8)]
             + [(3, 4)])
    bridge = Graph(8, edges)
    bridged = best_of_runs(bridge, 5, lambda p: modularity(bridge, p),
                           seed=0)
    bridge_ok = bridged.equivalent_to(Partition([0, 0, 0, 0, 1, 1, 1, 1]))

    problems = []
    if hits < 45:
        problems.append(f"only {hits}/50 instances reach the exhaustive optimum "
                        f"(worst shortfall {worst_gap:.3e}); need >= 45")
    if above:
        problems.append(f"{above} instances scored above the exhaustive optimum")
    if not bridge_ok:
        problems.append("two-clique bridge graph not split at the bridge")
    _verdict(capsys, 4, "leiden-near-optimality", problems,
             f"best-of-5 matched the exhaustive optimum on {hits}/50 connected "
             f"graphs (n<=8), never above it, bridge graph recovered")


# --------------------------------------------------------------------------
# 5. Refinement invariants + merge-gain bookkeeping
# --------------------------------------------------------------------------

def test_criterion_05_refinement_invariants(capsys):
    problems = []

    refined_total = 0
    for s in range(4):
        spec = SyntheticSpec(n=120, k=6, p_in=0.5, p_out=0.02, t=12, s=0.8,
                             disconnect_fraction=0.25, seed=900 + s)
        bundle = generate_synthetic(spec)
        g, labels = bundle.graph, bundle.labels
        label_comps = component_counts(g, labels)
        if not np.isclose(np.mean(label_comps > 1), 0.5):
            problems.append(f"seed {spec.seed}: fixture does not have half its "
                            f"labels disconnected (components {label_comps.tolist()})")
            continue
        refined = refine_labels(g, labels, seed=7 + s)
        refined_total += refined.k
        for members in communities(refined):
            if np.unique(labels.assignment[members]).size != 1:
                problems.append(f"seed {spec.seed}: a refined community straddles "
                                f"two original labels")
                break
        if refined.k <= labels.k:
            problems.append(f"seed {spec.seed}: refinement is not strict "
                            f"({labels.k} -> {refined.k} communities)")
        if (component_counts(g, refined) != 1).any():
            problems.append(f"seed {spec.seed}: a refined community is disconnected")
        dq = modularity(g, refined) - modularity(g, labels)
        if dq < -1e-12:
            problems.append(f"seed {spec.seed}: refinement lowered Q by {-dq:.3e}")

    # Merge-gain bookkeeping: the integer gain 2m*e_ij - d_i*d_j, scaled by
    # 1/(2m^2), must equal the fully recomputed Q difference for every pair,
    # and the step must take the argmax pair (lexicographic ties).
    rng = np.random.default_rng(505)
    worst_dev = 0.0
    steps = 0
    for _ in range(8):
        n = int(rng.integers(20, 101))
        g = random_graph(rng, n, 0.1)
        while g.m == 0:
            g = random_graph(rng, n, 0.2)
        part = random_partition(rng, n, int(rng.integers(5, 10)))
        for _ in range(4):
            if part.k < 2:
                break
            a = part.assignment
            deg = np.bincount(a, weights=g.degrees, minlength=part.k)
            pair_edges = np.zeros((part.k, part.k))
            np.add.at(pair_edges, (a[g.edge_u], a[g.edge_v]), 1.0)
            pair_edges = pair_edges + pair_edges.T
            m = g.m
            q_before = modularity(g, part)
            best = None
            for i in range(part.k):
                for j in range(i + 1, part.k):
                    predicted = (2 * m * pair_edges[i, j]
                                 - deg[i] * deg[j]) / (2.0 * m * m)
                    merged_labels = a.copy()
                    merged_labels[merged_labels == j] = i
                    actual = modularity(g, partition_from_labels(merged_labels)) - q_before
                    worst_dev = max(worst_dev, abs(predicted - actual))
                    if best is None or predicted > best[0] + 0.0:
                        best = (predicted, i, j)
            _, bi, bj = best
            expected = a.copy()
            expected[expected == bj] = bi
            stepped = merge_step(g, part)
            if not stepped.equivalent_to(partition_from_labels(expected)):
                problems.append("merge step did not take the highest-gain pair")
            steps += 1
            part = stepped
    if worst_dev > 1e-12:
        problems.append(f"incremental merge gain deviates from full recomputation "
                        f"by {worst_dev:.3e}")

    _verdict(capsys, 5, "refinement-invariants", problems,
             f"4 bundles with half the labels disconnected refined strictly into "
             f"{refined_total} connected communities without losing Q; merge gain "
             f"matched full recomputation within {worst_dev:.2e} over {steps} steps")


# --------------------------------------------------------------------------
# 6. Pipeline recovery on the pinned synthetic bundle
# --------------------------------------------------------------------------

def test_criterion_06_pipeline_recovers_planted_partition(capsys):
    t0 = time.perf_counter()
    bundle = generate_synthetic(SyntheticSpec(seed=42))
    result = run(bundle, RunConfig(seed=7))
    achieved = nmi(result.partition, bundle.planted)
    shuffled = Partition(
        np.random.default_rng(123).permutation(result.partition.assignment))
    baseline = nmi(shuffled, bundle.planted)
    score = connectivity_score(bundle.graph, result.partition)
    elapsed = time.perf_counter() - t0

    problems = []
    if achieved < baseline + 0.5:
        problems.append(f"NMI {achieved:.4f} is not 0.5 above the shuffled "
                        f"baseline {baseline:.4f}")
    if score > 1.5:
        problems.append(f"mean components per community {score:.3f} exceeds 1.5")
    problems += _over_budget(elapsed, 300.0)
    _verdict(capsys, 6, "pipeline-recovery", problems,
             f"NMI vs planted {achieved:.4f} (shuffled baseline {baseline:.4f}), "
             f"components/community {score:.3f}, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 7. Ablation ordering over repeated seeds
# --------------------------------------------------------------------------

def test_criterion_07_ablation_ordering(capsys):
    bundle = generate_synthetic(SyntheticSpec(seed=42))
    d_nmi = []
    d_q = []
    for seed in range(5):
        full = run(bundle, RunConfig(seed=seed))
        lm_only = run(bundle, RunConfig(seed=seed, mode=RunMode.LM_ONLY))
        lr_only = run(bundle, RunConfig(seed=seed, mode=RunMode.LR_ONLY))
        d_nmi.append(full.metrics["NMI"] - lm_only.metrics["NMI"])
        d_q.append(full.metrics["Q"] - lr_only.metrics["Q"])
    d_nmi = np.asarray(d_nmi)
    d_q = np.asarray(d_q)
    nmi_mean, nmi_sd = float(d_nmi.mean()), float(d_nmi.std(ddof=1))
    q_mean, q_sd = float(d_q.mean()), float(d_q.std(ddof=1))

    problems = []
    if not (nmi_mean > 0 and nmi_mean > nmi_sd):
        problems.append(
            f"full-vs-topology-only NMI gap mean {nmi_mean:.4f} does not exceed "
            f"both 0 and its run-to-run sd {nmi_sd:.4f} "
            f"(per-seed diffs {np.round(d_nmi, 4).tolist()})")
    if not (q_mean > 0 and q_mean > q_sd):
        problems.append(
            f"full-vs-label-only Q gap mean {q_mean:.4f} does not exceed "
            f"both 0 and its run-to-run sd {q_sd:.4f} "
            f"(per-seed diffs {np.round(d_q, 4).tolist()})")
    _verdict(capsys, 7, "ablation-ordering", problems,
             f"5 seeds; NMI gap mean {nmi_mean:.4f} sd {nmi_sd:.4f}; "
             f"Q gap mean {q_mean:.4f} sd {q_sd:.4f}")


# --------------------------------------------------------------------------
# 8. Real-data desk check (conditional on the Cora files being present)
# --------------------------------------------------------------------------

def _find_cora() -> Path | None:
    roots = []
    env = os.environ.get("COMDET_CORA_DIR")
    if env:
        roots.append(Path(env))
    here = Path(__file__).resolve().parent.parent
    roots += [here / "data" / "cora", Path("data/cora").resolve()]
    for root in roots:
        if (root / "cora.content").is_file() and (root / "cora.cites").is_file():
            return root
    return None

def test_criterion_08_cora_desk_check(capsys, tmp_path):
    source = _find_cora()
    if source is None:
        with capsys.disabled():
            print("acceptance 08 [cora-desk-check] SKIP: cora.content/cora.cites "
                  "not found (set COMDET_CORA_DIR or place them in data/cora)",
                  flush=True)
        pytest.skip("Cora source files not present")

    t0 = time.perf_counter()
    work = tmp_path / "cora"
    work.mkdir()
    for name in ("cora.content", "cora.cites"):
        shutil.copy(source / name, work / name)
    edges, attrs, labels_path = load_cora_content(work / "cora.content",
                                                  work / "cora.cites")
    bundle = load_dataset(edges, attrs, labels_path, name="cora")
    g, labels = bundle.graph, bundle.labels

    q_labels = modularity(g, labels)
    q_split = modularity(g, split_into_components(g, labels))
    result = run(bundle, RunConfig(seed=0))
    q_full = result.metrics["Q"]
    nmi_full = result.metrics["NMI"]
    elapsed = time.perf_counter() - t0

    problems = []
    if abs(q_labels - 0.640) > 0.005:
        problems.append(f"label modularity {q_labels:.4f} outside 0.640+-0.005")
    if abs(q_split - 0.674) > 0.005:
        problems.append(f"split-isolated modularity {q_split:.4f} outside 0.674+-0.005")
    if q_full < 0.78:
        problems.append(f"full-run modularity {q_full:.4f} below 0.78")
    if nmi_full < 0.55:
        problems.append(f"full-run NMI {nmi_full:.4f} below 0.55")
    problems += _over_budget(elapsed, 1800.0)
    _verdict(capsys, 8, "cora-desk-check", problems,
             f"label Q {q_labels:.4f}, split Q {q_split:.4f}, full Q {q_full:.4f}, "
             f"NMI {nmi_full:.4f}, {elapsed:.0f}s")


# --------------------------------------------------------------------------
# 9. CF-tree clustering: blob recovery, CF identities, threshold sweep
# --------------------------------------------------------------------------

def _blob_case(rng, centers, per_blob, noise):
    centers = np.asarray(centers, dtype=np.float64)
    rows = np.repeat(centers, per_blob, axis=0)
    rows = rows + rng.normal(scale=noise, size=rows.shape)
    planted = np.repeat(np.arange(len(centers)), per_blob)
    order = rng.permutation(len(rows))
    return rows[order], partition_from_labels(planted[order])

def test_criterion_09_cf_tree_clustering(capsys):
    problems = []
    rng = np.random.default_rng(909)

    two, planted_two = _blob_case(rng, [[1.0] * 4, [8.0] * 4], 40, 0.05)
    got_two = birch_cluster(two)
    if not got_two.equivalent_to(planted_two):
        problems.append(f"2 separated blobs came back as {got_two.k} communities")

    centers5 = [[1, 1, 1], [7, 1, 1], [1, 7, 1], [1, 1, 7], [7, 7, 7]]
    five, planted_five = _blob_case(rng, centers5, 30, 0.05)
    got_five = birch_cluster(five)
    if not got_five.equivalent_to(planted_five):
        problems.append(f"5 separated blobs came back as {got_five.k} communities")

    worst_add = 0.0
    worst_radius = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 6))
        pts = rng.uniform(0.0, 4.0, size=(n, d))
        def fold(rows):
            cf = ClusteringFeature.from_point(rows[0])
            for row in rows[1:]:
                cf = cf + ClusteringFeature.from_point(row)
            return cf
        whole = fold(pts)
        cut = n // 2 or 1
        joined = fold(pts[:cut]) + fold(pts[cut:]) if cut < n else whole
        worst_add = max(worst_add,
                        abs(joined.n - whole.n),
                        float(np.max(np.abs(joined.ls - whole.ls))),
                        abs(joined.ss - whole.ss))
        centroid = pts.mean(axis=0)
        direct = float(np.sqrt(np.mean(np.sum((pts - centroid) ** 2, axis=1))))
        worst_radius = max(worst_radius, abs(whole.radius - direct))
    if worst_add > 1e-9:
        problems.append(f"CF additivity off by {worst_add:.3e}")
    if worst_radius > 1e-9:
        problems.append(f"CF radius vs direct recomputation off by {worst_radius:.3e}")

    sweep_rng = np.random.default_rng(911)
    fixed = np.vstack([
        sweep_rng.normal(loc=[1.0, 1.0], scale=0.15, size=(30, 2)),
        sweep_rng.normal(loc=[4.0, 1.0], scale=0.15, size=(30, 2)),
        sweep_rng.uniform([0.0, 0.0], [5.0, 2.0], size=(10, 2)),
    ])
    fixed = np.abs(fixed)
    thresholds = [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4]
    ks = [birch_cluster(fixed, BirchConfig(threshold_radius=t)).k
          for t in thresholds]
    if any(a < b for a, b in zip(ks, ks[1:])):
        problems.append(f"community count not monotone under a growing "
                        f"absorb threshold: {ks}")

    _verdict(capsys, 9, "cf-tree-clustering", problems,
             f"2-blob and 5-blob recovery exact, CF identities within "
             f"{max(worst_add, worst_radius):.2e}, threshold sweep {ks}")


# --------------------------------------------------------------------------
# 10. Byte-identical repeated detection
# --------------------------------------------------------------------------

def test_criterion_10_detect_is_byte_deterministic(capsys, tmp_path):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "OMP_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"

    problems: list[str] = []

    def invoke(*args: str) -> bool:
        proc = subprocess.run([sys.executable, "-m", "comdet", *args],
                              capture_output=True, text=True, env=env,
                              cwd=tmp_path)
        if proc.returncode != 0:
            stderr = proc.stderr.strip().splitlines() or ["(no stderr)"]
            problems.append(f"comdet {args[0]} exited {proc.returncode}: "
                            f"{stderr[-1]}")
        return proc.returncode == 0

    data = tmp_path / "bundle"
    outs = [tmp_path / "run-a", tmp_path / "run-b"]
    if invoke("gen", "--out", str(data), "--n", "150", "--k", "5",
              "--p-in", "0.25", "--p-out", "0.02", "--seed", "11"):
        for out in outs:
            if not invoke("detect", "--edges", str(data / "edges.tsv"),
                          "--labels", str(data / "labels.tsv"),
                          "--attrs", str(data / "attrs.csv"),
                          "--seed", "3", "--epochs", "150", "--out", str(out)):
                break
    if problems:
        _verdict(capsys, 10, "detect-determinism", problems,
                 "no metrics.json pair to compare")
    blobs = [(out / "metrics.json").read_bytes() for out in outs]

    if blobs[0] != blobs[1]:
        problems.append("metrics.json differs between identical invocations")
    q = json.loads(blobs[0])["Q"]
    _verdict(capsys, 10, "detect-determinism", problems,
             f"two identical runs wrote byte-identical metrics.json "
             f"({len(blobs[0])} bytes, Q={q:.4f})")
