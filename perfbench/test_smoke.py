"""Smoke test of the benchmark at minimal length.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that BENCHMARK.json names the workloads and metrics the harness
produces, that every workload reports every metric with its unit (one epoch
per model), that traced work counts repeat exactly, that the tracer puts
every wrapped name back, and that the benchmark refuses to run without the
library sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from layers import PER_LAYER
from protocol import ROOT, run_protocol
from run import END_TO_END, summarize
from tracer import Tracer, leftover_wrappers
from workloads import WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def _pgnn_namespaces():
    from pgnn import cli, graph, metric, model, tensor, train

    return (cli, graph, metric, model, tensor, train, tensor.Tape)


def test_benchmark_json_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [m["name"] for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert {(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        (name, unit, better) for name, (unit, better, _) in PER_LAYER.items()}
    assert "setup_s" in END_TO_END
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bound["setup_s"] == max(bound.values()) <= 0.25


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_reported_at_minimal_length(name, tmp_path):
    wl = dataclasses.replace(WORKLOADS[name], pgnn_epochs=1, gcn_epochs=1)
    before = {(ns, attr): value for ns in _pgnn_namespaces()
              for attr, value in vars(ns).items() if callable(value)}
    ops = [run_protocol(wl, 0, False, tmp_path),
           run_protocol(wl, 0, True, tmp_path),
           run_protocol(wl, 0, True, tmp_path)]

    assert leftover_wrappers(_pgnn_namespaces()) == []
    for (ns, attr), value in before.items():
        assert vars(ns)[attr] is value, f"{ns.__name__}.{attr} not restored"
    for op in ops:
        assert op["failed"] == 0, op["failures"]
        assert op["attempted"] == wl.operations()

    untraced, problems = summarize(ops[:1], trace=False)
    assert problems == []
    assert set(untraced) == set(END_TO_END)
    traced, problems = summarize(ops, trace=True)
    assert problems == []  # AUCs and work counts repeat exactly
    assert set(traced) == set(PER_LAYER)
    for metrics in (untraced, traced):
        assert all(name in UNITS for name in metrics)
    assert traced["model.pgnn_tape_nodes"] > 0 and traced["model.gcn_tape_nodes"] > 0
    assert 0.0 < traced["model.useful_msg_frac"] <= 1.0
    # no time metric may read the same on every run: none is structurally 0
    assert all(value > 0 for name, value in traced.items()
               if UNITS[name] == "ms")


def test_tracer_restores_after_an_exception():
    from pgnn import train

    original = train.roc_auc
    with pytest.raises(ValueError):
        with Tracer() as tracer:
            tracer.wrap(train, "roc_auc", "train.roc_auc")
            train.roc_auc([0.5], [1])  # one class only: raises
    assert train.roc_auc is original
    name, start, end, parent = tracer.spans[0]
    assert (name, parent) == ("train.roc_auc", -1) and end >= start


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-link", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
