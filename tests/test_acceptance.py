"""End-to-end acceptance suite.

Each test prints one [PASS]/[FAIL] line with the measured numbers, so
running `pytest tests/test_acceptance.py -s` reads as a checklist.  The
two training contrasts retrain from scratch and take a few minutes
each; everything is seeded, so reruns reproduce the numbers exactly.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix

import pgnn
from pgnn.graph import Graph, connected_caveman, constant_features, grid_graph, split_pairs
from pgnn.metric import (
    UNREACHABLE,
    AnchorFamily,
    all_pairs,
    all_pairs_within,
    bourgain_embed,
    sample_anchor_family,
    truncate,
)
from pgnn.model import (
    GCNConfig,
    PGNNConfig,
    gcn_forward,
    init_gcn_params,
    init_pgnn_params,
    make_distance_input,
    pgnn_forward,
)
from pgnn.tensor import Tape
from pgnn.train import TrainConfig, _anchor_seed, epoch_loss, roc_auc, run_experiment

from helpers import (
    brute_force_auc,
    floyd_warshall,
    max_rel_err,
    numeric_grad,
    random_connected_graph,
)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.mark.slow
def test_01_communities_classification_contrast():
    g = connected_caveman(20, 20, 0.01, seed=0)
    split = split_pairs(g, "pairwise_node_classification", 0.1, 0.1, seed=0)
    tc = TrainConfig(epochs=100, lr=0.01, seed=0, repeats=10, setting="inductive")
    t0 = time.time()
    anchored = run_experiment(
        g, split, PGNNConfig(layers=2, message_dim=32, variant="exact"), tc,
        dataset="communities")
    pooled = run_experiment(
        g, split, GCNConfig(layers=2, message_dim=32), tc, dataset="communities")
    elapsed = time.time() - t0
    gap = anchored.mean_auc - pooled.mean_auc
    ok = (anchored.mean_auc >= 0.90 and pooled.mean_auc <= 0.80
          and gap >= 0.15 and elapsed < 600)
    _report("communities classification contrast", ok,
            f"anchored {anchored.mean_auc:.4f} (need >= 0.90), "
            f"mean-pool {pooled.mean_auc:.4f} (need <= 0.80), "
            f"gap {gap:.4f} (need >= 0.15), {elapsed:.0f}s (need < 600)")


@pytest.mark.slow
def test_02_grid_link_prediction_contrast():
    g = constant_features(grid_graph(20, 20))
    split = split_pairs(g, "link_prediction", 0.1, 0.1, seed=0)
    tc = TrainConfig(epochs=150, lr=0.003, seed=0, repeats=10, setting="inductive")
    t0 = time.time()
    anchored = run_experiment(
        g, split,
        PGNNConfig(layers=2, message_dim=16, anchor_c=2.0, variant="exact"),
        tc, dataset="grid")
    pooled = run_experiment(
        g, split, GCNConfig(layers=2, message_dim=32), tc, dataset="grid")
    elapsed = time.time() - t0
    gap = anchored.mean_auc - pooled.mean_auc
    ok = anchored.mean_auc >= 0.75 and gap >= 0.15 and elapsed < 600
    _report("grid link prediction contrast", ok,
            f"anchored {anchored.mean_auc:.4f} (need >= 0.75), "
            f"mean-pool {pooled.mean_auc:.4f}, gap {gap:.4f} (need >= 0.15), "
            f"{elapsed:.0f}s (need < 600)")


def test_03_embedding_never_expands_distances():
    # Exact comparison on purpose: each coordinate is a minimum over set
    # distances divided by k, so the l1 row distance can never exceed the
    # hop count, float rounding included.
    rng = np.random.default_rng(0)
    checked = 0
    violations = 0
    worst_gap = -math.inf
    cases = []
    for trial in range(50):
        n = int(rng.integers(2, 65))
        g = random_connected_graph(n, rng, extra_edges=int(rng.integers(0, n)))
        cases.append((g, sample_anchor_family(n, 1.0, seed=trial)))
    cases.append((grid_graph(20, 20), sample_anchor_family(400, 1.0, seed=0)))
    for g, fam in cases:
        dm = all_pairs(g)
        emb = bourgain_embed(dm, fam)
        for u in range(g.n):
            l1 = np.abs(emb - emb[u]).sum(axis=1)
            worst_gap = max(worst_gap, float((l1 - dm.d[u]).max()))
            violations += int(np.count_nonzero(l1 > dm.d[u]))
            checked += g.n
    ok = violations == 0
    _report("low-distortion embedding non-expansion", ok,
            f"{violations} violations over {checked} row pairs "
            f"({len(cases)} graphs), worst l1 - hops gap {worst_gap:.3g}")


def test_04_distance_oracle_equivalence():
    rng = np.random.default_rng(1)
    graphs = 0
    mismatches = 0
    truncation_mismatches = 0
    disconnected = 0
    while graphs < 100:
        n = int(rng.integers(2, 65))
        # Erdos-Renyi-ish density around the connectivity threshold keeps a
        # healthy mix of connected and fragmented graphs in the pool.
        p = float(rng.uniform(0.2, 2.0)) * math.log(max(n, 2)) / n
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        g = Graph.from_edges(n, pairs)
        graphs += 1
        dm = all_pairs(g)
        ref = floyd_warshall(g)
        expected = np.where(np.isinf(ref), UNREACHABLE, ref).astype(np.int64)
        if not np.array_equal(dm.d, expected):
            mismatches += 1
        if not np.array_equal(all_pairs_within(g, 2).d, truncate(dm, 2).d):
            truncation_mismatches += 1
        if not dm.is_fully_connected():
            disconnected += 1
    ok = mismatches == 0 and truncation_mismatches == 0
    _report("distance oracle equivalence", ok,
            f"{mismatches} BFS vs min-plus mismatches and "
            f"{truncation_mismatches} 2-hop truncation mismatches over "
            f"{graphs} graphs ({disconnected} disconnected)")


def _op_cases(rng):
    """(name, inputs, build) triples; build returns the op output Value."""
    m, n, k = 4, 3, 5

    def case(name, arrays, build):
        return name, [a.copy() for a in arrays], build

    a = rng.standard_normal((m, n))
    b = rng.standard_normal((n, k))
    c = rng.standard_normal((m, n))
    s = rng.standard_normal((m, 1))
    idx = rng.integers(0, m, size=6)
    logits = rng.standard_normal((m, 1))
    targets = rng.integers(0, 2, size=m)
    # keep relu inputs away from the kink, where central differences
    # straddle the non-smooth point and measure nothing useful
    r = rng.standard_normal((m, n))
    r = np.where(np.abs(r) < 0.05, 0.05 + np.abs(r), r)
    dense = rng.standard_normal((5, m)) * (rng.random((5, m)) < 0.5)
    op = csr_matrix(dense)
    return [
        case("matmul", [a, b], lambda t, v: t.matmul(v[0], v[1])),
        case("add", [a, c], lambda t, v: t.add(v[0], v[1])),
        case("hadamard", [a, c], lambda t, v: t.hadamard(v[0], v[1])),
        case("scale_rows", [a], lambda t, v: t.scale_rows(v[0], s)),
        case("concat_cols", [a, c], lambda t, v: t.concat_cols(v[0], v[1])),
        case("gather_rows", [a], lambda t, v: t.gather_rows(v[0], idx)),
        case("spmm", [a], lambda t, v: t.spmm(op, v[0])),
        case("reshape", [a], lambda t, v: t.reshape(v[0], n, m)),
        case("relu", [r], lambda t, v: t.relu(v[0])),
        case("bce_with_logits", [logits],
             lambda t, v: t.bce_with_logits(v[0], targets)),
    ]


def test_05_gradients_match_finite_differences():
    # every public op on the tape has a case: no op goes without a check
    tape_ops = {name for name, attr in vars(Tape).items()
                if callable(attr) and not name.startswith("_")} - {"leaf", "backward"}
    assert {name for name, _, _ in _op_cases(np.random.default_rng(0))} == tape_ops
    worst = 0.0
    op_instances = 0
    for instance in range(20):
        rng = np.random.default_rng(100 + instance)
        probe_rng = np.random.default_rng(200 + instance)
        for name, arrays, build in _op_cases(rng):
            shape_tape = Tape()
            out_shape = build(shape_tape,
                              [shape_tape.leaf(x) for x in arrays]).shape
            # fixed probe: the scalarized objective must not change between
            # the +h and -h evaluations
            probe = (None if out_shape == (1, 1)
                     else probe_rng.standard_normal(out_shape))

            def value_at(trial_arrays, build=build, probe=probe):
                tape = Tape()
                leaves = [tape.leaf(x) for x in trial_arrays]
                out = build(tape, leaves)
                if probe is None:
                    return tape, leaves, out
                weighted = tape.hadamard(out, tape.leaf(probe))
                mean = tape.leaf(np.full((1, out.shape[0]), 1.0 / out.shape[0]))
                ones = tape.leaf(np.ones((out.shape[1], 1)))
                return tape, leaves, tape.matmul(tape.matmul(mean, weighted), ones)

            tape, leaves, scalar = value_at(arrays)
            table = tape.backward(scalar)
            for arg_i, arr in enumerate(arrays):
                def f(x, arg_i=arg_i):
                    trial = [v.copy() for v in arrays]
                    trial[arg_i] = x
                    _, _, val = value_at(trial)
                    return float(val.data[0, 0])

                err = max_rel_err(table[leaves[arg_i].id], numeric_grad(f, arr))
                worst = max(worst, err)
                assert err < 1e-4, f"{name} input {arg_i}: rel err {err:.2e}"
            op_instances += 1

    model_instances = 0
    for instance in range(20):
        rng = np.random.default_rng(300 + instance)
        base = random_connected_graph(10, rng, extra_edges=4)
        g = Graph(n=base.n, adjacency=base.adjacency,
                  features=rng.standard_normal((base.n, 3)))
        cfg = PGNNConfig(layers=2, message_dim=4,
                         closest_node_agg=bool(instance % 2))
        dm = make_distance_input(g, cfg)
        fam = sample_anchor_family(g.n, 1.0, seed=instance)
        flat = init_pgnn_params(3, cfg, rng)
        pos = [(0, 3), (2, 9), (4, 4)]
        neg = [(1, 7), (5, 8)]

        def loss_at(arrays):
            tape = Tape()
            leaves = [tape.leaf(x) for x in arrays]
            emb = pgnn_forward(tape, g, dm, fam, arrays, cfg)
            return tape, leaves, epoch_loss(tape, emb.z, pos, neg)

        tape, leaves, loss = loss_at(flat)
        table = tape.backward(loss)
        for pos_i, arr in enumerate(flat):
            def f(x, pos_i=pos_i):
                trial = list(flat)
                trial[pos_i] = x
                _, _, value = loss_at(trial)
                return float(value.data[0, 0])

            err = max_rel_err(table[leaves[pos_i].id], numeric_grad(f, arr))
            worst = max(worst, err)
            assert err < 1e-4, f"model instance {instance} param {pos_i}: {err:.2e}"
        model_instances += 1

    ok = op_instances == 20 * 10 and model_instances == 20
    _report("gradient finite-difference agreement", ok,
            f"{op_instances} op instances + {model_instances} full 2-layer "
            f"losses, worst rel err {worst:.2e} (need < 1e-4)")


def test_06_auc_matches_brute_force():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        if rng.random() < 0.5:
            # coarse quantization forces plenty of tied scores
            scores = rng.integers(0, 5, size=n).astype(np.float64)
        else:
            scores = rng.standard_normal(n)
        worst = max(worst, abs(roc_auc(scores, labels)
                               - brute_force_auc(scores, labels)))
    ok = worst <= 1e-12
    _report("rank AUC vs brute-force pair counting", ok,
            f"worst abs difference {worst:.3g} over 1000 vectors (need <= 1e-12)")


def test_07_path_symmetry_dichotomy():
    g = constant_features(Graph.from_edges(5, [(i, i + 1) for i in range(4)]))
    weights = init_gcn_params(1, GCNConfig(layers=2, message_dim=8),
                              np.random.default_rng(0))
    pooled = gcn_forward(Tape(), g, weights, layers=2).data
    ends_identical = bool(np.array_equal(pooled[0], pooled[4]))

    fam = AnchorFamily(sets=((0,),), provenance=((1, 1),), c=1.0, seed=0)
    cfg = PGNNConfig(layers=2, message_dim=8)
    dm = make_distance_input(g, cfg)
    params = init_pgnn_params(1, cfg, np.random.default_rng(0))
    z = pgnn_forward(Tape(), g, dm, fam, params, cfg).z.data
    anchored_gap = float(np.abs(z[0] - z[4]).max())

    ok = ends_identical and anchored_gap > 1e-6
    _report("path-end symmetry dichotomy", ok,
            f"mean-pool end rows identical: {ends_identical}, "
            f"single-anchor end gap {anchored_gap:.3g} (need > 1e-6)")


def test_08_anchor_set_size_statistics():
    # Seeds come from the same derivation the training loop uses, one per
    # epoch of a seed-0 run, so this checks the stream that matters.
    n = 400
    sizes: dict[int, list[int]] = {}
    for epoch in range(1000):
        fam = sample_anchor_family(n, 1.0, seed=_anchor_seed(0, epoch, 0))
        for (i, _), members in zip(fam.provenance, fam.sets):
            sizes.setdefault(i, []).append(len(members))
    worst = 0.0
    for i, vals in sorted(sizes.items()):
        arr = np.array(vals, dtype=np.float64)
        se = arr.std(ddof=1) / math.sqrt(len(arr))
        worst = max(worst, abs(arr.mean() - n * 2.0 ** -i) / se)
    ok = worst < 3.0
    _report("anchor-set size statistics", ok,
            f"worst deviation {worst:.2f} standard errors over 1000 seeds, "
            f"{len(sizes)} size scales (need < 3)")


def _run_cli(args, cwd):
    # The child runs in its own cwd, where a relative PYTHONPATH entry (such
    # as the documented `PYTHONPATH=src`) no longer resolves.  Put the
    # directory holding the pgnn this process imported first, so the child
    # runs the same code whether pgnn is installed or on PYTHONPATH.
    env = dict(os.environ)
    pkg_root = str(Path(pgnn.__file__).resolve().parent.parent)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = pkg_root + (os.pathsep + inherited if inherited else "")
    proc = subprocess.run([sys.executable, "-m", "pgnn.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_09_cli_reruns_are_byte_identical(tmp_path):
    cfg = {
        "dataset": {"kind": "grid", "rows": 6, "cols": 6},
        "task": "link_prediction",
        "setting": "inductive",
        "split": {"val_frac": 0.1, "test_frac": 0.1, "seed": 0},
        "model": {"kind": "pgnn", "layers": 2, "message_dim": 8},
        "train": {"epochs": 3, "repeats": 2, "lr": 0.01, "seed": 0},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    stable = []
    for name, args in [
        ("train", ["train", "--config", str(cfg_path), "--out", "m.json"]),
        ("distortion", ["distortion", "grid", "6", "6", "--repeats", "2",
                        "--seed", "1", "--out", "d.json"]),
        ("symmetry-demo", ["symmetry-demo", "--out", "s.json"]),
    ]:
        runs = []
        for attempt in range(2):
            run_dir = tmp_path / f"{name}-{attempt}"
            run_dir.mkdir()
            _run_cli(args, cwd=run_dir)
            out_name = args[args.index("--out") + 1]
            runs.append((run_dir / out_name).read_bytes())
        stable.append(runs[0] == runs[1])
    ok = all(stable)
    _report("byte-identical reruns", ok,
            "train/distortion/symmetry-demo metrics JSON pairs equal: "
            f"{stable}")
