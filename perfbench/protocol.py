"""One protocol run of a workload, in its own process.

run.py starts this script once per operation, with BLAS pinned to one
thread:

    python3 perfbench/protocol.py --workload grid-link --seed 0 --trace 0 --out-dir .bench_out

A protocol run is: set-up (generator, split_pairs, distance oracle on the
forward graph), run_experiment for the position-aware model and then for the
mean-pool baseline, and one ``pgnn distortion`` CLI call per norm.  Set-up
is then repeated, outside the protocol's time, to give more set-up samples.

The last stdout line is one JSON object with the timings, test AUCs, peak
RSS, checked operations and failure reasons and, with ``--trace 1``, the
per-layer metrics; the spans of a traced run go to a file in --out-dir.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from layers import Probe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (DISTORTION_NORMS, REPEATS, TEST_FRAC,  # noqa: E402
                       VAL_FRAC, WORKLOADS, Workload)

SETUP_SAMPLES = 3
clock = time.perf_counter


def _setup(wl: Workload, seed: int, pgnn_cfg):
    from pgnn import graph, model

    t0 = clock()
    g = wl.generate(graph, seed)
    split = graph.split_pairs(g, wl.task, VAL_FRAC, TEST_FRAC, seed=seed)
    fg = (graph.Graph.from_edges(g.n, split.train_pos)
          if wl.task == "link_prediction" else g)
    model.make_distance_input(fg, pgnn_cfg)
    return g, split, clock() - t0


def _train(label: str, g, split, model_cfg, lr: float, epochs: int,
           seed: int, failures: list[str]):
    """One run_experiment call; returns (seconds, mean test AUC or None, failed)."""
    from pgnn import train

    tc = train.TrainConfig(epochs=epochs, lr=lr, seed=seed, repeats=REPEATS,
                           setting="inductive")
    t0 = clock()
    try:
        metrics = train.run_experiment(g, split, model_cfg, tc, dataset=label)
    except Exception as exc:  # noqa: BLE001 - a raise fails every repeat
        failures.append(f"{label}: run_experiment raised {exc!r}")
        return clock() - t0, None, REPEATS
    seconds = clock() - t0
    failed = 0
    for r in metrics.per_repeat:
        losses = [rec.loss for rec in r.epoch_log] + [r.train_loss]
        if not all(math.isfinite(x) for x in losses):
            failures.append(f"{label} repeat {r.repeat}: non-finite loss")
            failed += 1
        elif not (0.0 <= r.test_auc <= 1.0 and 0.0 <= r.val_auc <= 1.0):
            failures.append(f"{label} repeat {r.repeat}: AUC outside [0, 1]")
            failed += 1
    return seconds, (metrics.mean_auc if failed == 0 else None), failed


def _distortion(wl: Workload, seed: int, n: int, out_dir: Path,
                failures: list[str]) -> int:
    """One `pgnn distortion` call per norm; returns the number that failed."""
    from pgnn import cli
    from pgnn.metric import anchor_family_size

    failed = 0
    for norm in DISTORTION_NORMS:
        out = out_dir / f"distortion-{wl.name}-p{norm}.json"
        out.unlink(missing_ok=True)
        rc = cli.main(wl.distortion_argv(seed, norm, str(out)))
        if rc != 0:
            failures.append(f"distortion p={norm}: exit code {rc}")
            failed += 1
            continue
        payload = json.loads(out.read_text(encoding="utf-8"))
        expansion = float(payload["expansion"]["max"])
        if payload["n"] != n or payload["k"] != anchor_family_size(n, 1.0):
            failures.append(f"distortion p={norm}: n={payload['n']} k={payload['k']}")
            failed += 1
        elif not expansion <= 1.0:
            failures.append(f"distortion p={norm}: expansion max {expansion} > 1")
            failed += 1
    return failed


def run_protocol(wl: Workload, seed: int, trace: bool, out_dir: Path) -> dict:
    import numpy
    import scipy
    import pgnn
    from pgnn.model import GCNConfig, PGNNConfig

    src = Path(pgnn.__file__).resolve().parent
    if src != ROOT / "src" / "pgnn":
        raise RuntimeError(f"imported pgnn from {src}, not from this checkout")
    pgnn_cfg = PGNNConfig(**wl.pgnn)
    gcn_cfg = GCNConfig(layers=2, message_dim=32)
    failures: list[str] = []
    tracer = Tracer()
    probe = Probe(tracer)
    with tracer:
        if trace:
            probe.install()
        t0 = clock()
        g, split, setup_s = _setup(wl, seed, pgnn_cfg)
        pgnn_s, pgnn_auc, pgnn_failed = _train(
            "pgnn", g, split, pgnn_cfg, wl.lr, wl.pgnn_epochs, seed, failures)
        gcn_s, gcn_auc, gcn_failed = _train(
            "gcn", g, split, gcn_cfg, wl.lr, wl.gcn_epochs, seed, failures)
        dist_failed = _distortion(wl, seed, g.n, out_dir, failures)
        protocol_s = clock() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_s] + [_setup(wl, seed, pgnn_cfg)[2]
                          for _ in range(SETUP_SAMPLES - 1)]
    result = {
        "setup_s": setups,
        "protocol_s": protocol_s,
        "pgnn_epoch_ms": 1000.0 * pgnn_s / (REPEATS * wl.pgnn_epochs),
        "gcn_epoch_ms": 1000.0 * gcn_s / (REPEATS * wl.gcn_epochs),
        "pgnn_test_auc": pgnn_auc,
        "gcn_test_auc": gcn_auc,
        "peak_rss_mb": peak_rss_mb,
        "attempted": wl.operations(),
        "failed": pgnn_failed + gcn_failed + dist_failed,
        "failures": failures,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if trace:
        result["layers"] = {**probe.metrics(), "train.pgnn_test_auc": pgnn_auc,
                            "train.gcn_test_auc": gcn_auc}
        tracer.write(out_dir / f"spans-{wl.name}-seed{seed}.jsonl")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_protocol(WORKLOADS[args.workload], args.seed, bool(args.trace),
                          out_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
