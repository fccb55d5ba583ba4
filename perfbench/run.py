"""pgnn benchmark: closed loop, one client, one protocol run at a time.

    python3 perfbench/run.py --workload grid-link --seed 0 --seconds 40 --trace 0

Runs from the root of a source checkout (``src/pgnn`` next to this
directory) and needs nothing installed beyond numpy and scipy.  Each
operation is one protocol run (see protocol.py) in a fresh child process with
OPENBLAS/OMP/MKL pinned to one thread; the next starts when the previous
has ended, and no new one starts once it would end after ``--seconds``.
The first operation always runs.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians
over the operations.  ``--trace 1`` alternates untraced and traced
operations and reports the per-layer metrics of the traced ones, plus
``trace.overhead_s``: median traced minus median untraced ``protocol_s``.

Correctness: an operation is one training repeat or one CLI call (see
protocol.py for what fails one).  Test AUCs and, when traced, the work counts
must also repeat exactly across the operations of a run.  Every metric is
printed as ``name value unit``, followed by the test AUCs and
``failed_frac`` (failed over attempted operations), which are printed but
are not metrics: AUCs vary by seed far more than by code and failed_frac is
0 on every passing run.  The last stdout line is the JSON result.
When a check fails the run prints what failed and no JSON result, and exits
with code 1; it exits with code 2 when it cannot start.
The environment fingerprint, the per-operation values and the result are
also written to ``.bench_out/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

from layers import EXACT, PER_LAYER
from workloads import WORKLOADS

BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
# a run must end within 180 s even when an operation hangs
RUN_LIMIT_S = 170
END_TO_END = ("setup_s", "protocol_s", "pgnn_epoch_ms", "gcn_epoch_ms",
              "peak_rss_mb")
# checked for exact repetition across the operations of a run
QUALITY = ("pgnn_test_auc", "gcn_test_auc")


def _units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def fingerprint() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_env": BLAS_PINS,
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def run_op(workload: str, seed: int, trace: bool,
           timeout: float) -> tuple[dict | None, str]:
    """One protocol run in a fresh child; (result or None, error text)."""
    env = dict(os.environ, **BLAS_PINS)
    cmd = [sys.executable, str(HERE / "protocol.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)),
           "--out-dir", str(OUT_DIR)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"operation timed out after {timeout:.0f}s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(lines[-1]), ""


def summarize(ops: list[dict], trace: bool) -> tuple[dict, list[str]]:
    """Metrics of a run from its operations, and the repetition failures."""
    problems = []
    for name in QUALITY:
        if len({op[name] for op in ops}) > 1:
            problems.append(f"{name} differs between operations of one seed")
    if not trace:
        # each operation times several set-ups; pool them
        metrics = {"setup_s": statistics.median([s for op in ops for s in op["setup_s"]])}
        metrics.update({name: statistics.median([op[name] for op in ops])
                        for name in END_TO_END if name != "setup_s"})
        return metrics, problems
    traced = [op for op in ops if "layers" in op]
    for name in EXACT:
        if len({op["layers"][name] for op in traced}) > 1:
            problems.append(f"{name} differs between traced operations of one seed")
    metrics = {name: statistics.median([op["layers"][name] for op in traced])
               for name in PER_LAYER if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (
        statistics.median([op["protocol_s"] for op in traced])
        - statistics.median([op["protocol_s"] for op in ops if "layers" not in op]))
    return metrics, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="pgnn benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pgnn" / "__init__.py").is_file():
        print(f"error: no pgnn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    trace = bool(args.trace)
    OUT_DIR.mkdir(exist_ok=True)
    env = fingerprint()

    # closed loop; a traced run alternates untraced and traced operations
    ops, errors = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        result, error = run_op(wl.name, args.seed, trace and len(ops) % 2 == 1,
                               max(1.0, start + RUN_LIMIT_S - t0))
        if result is None:
            errors.append(error)
            break
        ops.append(result)
        now = time.perf_counter()
        done = not trace or len(ops) % 2 == 0
        if done and now + (now - t0) * (2 if trace else 1) > start + args.seconds:
            break

    attempted = wl.operations() * (len(ops) + len(errors))
    failed = sum(op["failed"] for op in ops) + (wl.operations() if errors else 0)
    problems = errors + [f for op in ops for f in op["failures"]]
    metrics = {}
    if not problems:
        metrics, problems = summarize(ops, trace)

    units = _units()
    print(f"# perfbench {wl.name} seed={args.seed} trace={int(trace)} "
          f"operations={len(ops)} env={json.dumps(env)}")
    if ops:
        print(f"# versions {json.dumps(ops[0]['versions'])}")
    for problem in problems:
        print(f"# FAILED: {problem}")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    if ops and not trace:
        for name in QUALITY:
            print(f"{name} {ops[0][name]} auc")
    print(f"failed_frac {failed / attempted} frac ({failed}/{attempted})")
    payload = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = {"workload": wl.name, "seed": args.seed, "trace": trace,
              "env": env, "operations": ops, "problems": problems, **payload}
    (OUT_DIR / f"result-{wl.name}-seed{args.seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if problems:
        return 1
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
