import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pgnn
from pgnn import cli
from pgnn.cli import load_checkpoint, main, save_checkpoint
from pgnn.graph import grid_graph, load_edge_list, load_node_labels
from pgnn.train import run_experiment


def write_config(path, **overrides):
    cfg = {
        "dataset": {"kind": "grid", "rows": 6, "cols": 6},
        "task": "link_prediction",
        "setting": "inductive",
        "split": {"val_frac": 0.1, "test_frac": 0.1, "seed": 0},
        "model": {"kind": "pgnn", "layers": 2, "message_dim": 8},
        "train": {"epochs": 2, "repeats": 2, "lr": 0.01, "seed": 0},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return str(path)


def test_generate_grid_edge_list(tmp_path):
    out = tmp_path / "grid.edges"
    assert main(["generate", "grid", "20", "20", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 1 + 760
    assert load_edge_list(str(out)).adjacency == grid_graph(20, 20).adjacency
    first = out.read_bytes()
    assert main(["generate", "grid", "20", "20", "--out", str(out)]) == 0
    assert out.read_bytes() == first


def test_generate_communities_writes_labels(tmp_path):
    out = tmp_path / "comm.edges"
    code = main(["generate", "communities", "4", "5", "0.01",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    g = load_edge_list(str(out))
    assert g.n == 20
    assert g.is_connected()
    labels = load_node_labels(str(tmp_path / "comm.labels"), 20)
    assert list(labels) == list(np.repeat(np.arange(4), 5))


def test_train_writes_metrics_and_checkpoint(tmp_path, capsys, monkeypatch):
    runs = []
    monkeypatch.setattr(cli, "run_experiment",
                        lambda *args, **kw: runs.append(run_experiment(*args, **kw)) or runs[-1])
    cfg = write_config(tmp_path / "cfg.json")
    metrics_path = tmp_path / "metrics.json"
    code = main(["train", "--config", cfg, "--out", str(metrics_path)])
    assert code == 0
    assert "wall_time_s=" in capsys.readouterr().err

    payload = json.loads(metrics_path.read_text())
    assert payload["wall_time_s"] is None
    assert payload["task"] == "link_prediction"
    assert payload["model"] == "pgnn-e-2l"
    assert payload["repeats"] == 2
    assert len(payload["per_repeat"]) == 2
    assert 0.0 <= payload["mean_auc"] <= 1.0
    assert payload["config"]["dataset"] == {"kind": "grid", "rows": 6, "cols": 6}

    record, arrays = load_checkpoint(str(tmp_path / "metrics.ckpt"))
    assert list(record) == ["version", "config", "sha256", "anchor_seed", "best_epoch",
                            "repeat", "matrices"]
    assert record["version"] == 4
    assert record["config"] == payload["config"]
    assert record["sha256"] == {}
    assert [m["name"] for m in record["matrices"]] == [
        "layer0.w_msg", "layer1.w_msg", "layer1.w"]
    assert [a.shape for a in arrays] == [(2, 8), (16, 8), (8, 1)]
    # the matrices are the best repeat's snapshot, bit for bit
    best = max(runs[0].per_repeat, key=lambda r: (r.val_auc, -r.repeat))
    assert (record["anchor_seed"], record["best_epoch"], record["repeat"]) == (
        best.anchor_seed, best.best_epoch, best.repeat)
    assert [a.tobytes() for a in arrays] == [a.tobytes() for a in best.snapshot]


def test_train_seed_and_repeats_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "m.json"
    code = main(["train", "--config", cfg, "--seed", "5", "--repeats", "1",
                 "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["config"]["train"]["seed"] == 5
    assert payload["config"]["train"]["repeats"] == 1
    assert len(payload["per_repeat"]) == 1


def test_train_run_is_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    # the child imports the same pgnn as this process, installed or not
    env = dict(os.environ)
    pkg_root = str(Path(pgnn.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    blobs = []
    for tag in ("a", "b"):
        mpath = tmp_path / f"{tag}.json"
        cpath = tmp_path / f"{tag}.ckpt"
        proc = subprocess.run(
            [sys.executable, "-m", "pgnn.cli", "train", "--config", cfg,
             "--out", str(mpath), "--checkpoint", str(cpath)],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "wall_time_s=" in proc.stderr
        blobs.append((mpath.read_bytes(), cpath.read_bytes()))
    assert blobs[0] == blobs[1]


def test_eval_reproduces_selected_test_auc(tmp_path, capsys):
    pgnn = {"kind": "pgnn", "layers": 2, "message_dim": 8}
    gcn = {"kind": "gcn", "layers": 2, "message_dim": 8}
    trained = {"epochs": 2, "repeats": 2, "lr": 0.01, "seed": 0}
    untrained = {**trained, "epochs": 0}
    for model, train in ((pgnn, trained), (gcn, trained), (pgnn, untrained),
                         (gcn, untrained),
                         ({**pgnn, "resample_anchors": False}, {**trained, "epochs": 4})):
        cfg = write_config(tmp_path / "cfg.json", model=model, train=train)
        mpath = tmp_path / "m.json"
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--config", cfg, "--out", str(mpath)]) == 0
        epath = tmp_path / "e.json"
        code = main(["eval", "--checkpoint", str(ckpt), "--out", str(epath)])
        assert code == 0
        metrics = json.loads(mpath.read_text())
        evaluated = json.loads(epath.read_text())
        best = max(metrics["per_repeat"],
                   key=lambda r: (r["val_auc"], -r["repeat"]))
        assert evaluated["test_auc"] == best["test_auc"]
        assert evaluated["val_auc"] == best["val_auc"]
        assert evaluated["config"] == metrics["config"]
    capsys.readouterr()


# (argv, the existing file the run would overwrite, the two flags naming it)
_COLLISIONS = [
    ("train default checkpoint", ["train", "--config", "g.json", "--out", "m.ckpt"],
     "m.ckpt", ("--out", "--checkpoint")),
    ("train checkpoint", ["train", "--config", "g.json", "--out", "m.json",
                          "--checkpoint", "m.json"], "m.json", ("--out", "--checkpoint")),
    ("train config", ["train", "--config", "g.json", "--out", "g.json"],
     "g.json", ("--config", "--out")),
    ("train config by symlink", ["train", "--config", "g.json", "--out", "link.json"],
     "g.json", ("--config", "--out")),
    ("train dataset file", ["train", "--config", "el.json", "--out", "el.edges"],
     "el.edges", ("dataset.path", "--out")),
    ("train checkpoint dataset file", ["train", "--config", "el.json", "--out", "m.json",
                                       "--checkpoint", "el.labels"],
     "el.labels", ("dataset.labels_path", "--checkpoint")),
    ("eval checkpoint", ["eval", "--checkpoint", "m.ckpt", "--out", "m.ckpt"],
     "m.ckpt", ("--checkpoint", "--out")),
    ("eval dataset file", ["eval", "--checkpoint", "m.ckpt", "--out", "el.labels"],
     "el.labels", ("dataset.labels_path", "--out")),
    ("generate labels", ["generate", "communities", "3", "3", "0.0", "--out", "d.labels"],
     "d.labels", ("--out", "its labels file")),
    ("distortion edge list", ["distortion", "edge-list", "el.edges", "--out", "el.edges"],
     "el.edges", ("dataset.path", "--out")),
]


def test_train_keeps_an_input_named_like_its_output_plus_tmp(tmp_path, capsys, monkeypatch):
    """The output goes through a fresh temp file, so a config named run.json.tmp
    survives byte for byte, and the outputs get open()'s permissions."""
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path / "run.json.tmp", model={"kind": "gcn", "message_dim": 4},
                 train={"epochs": 1, "repeats": 1})
    before = (tmp_path / "run.json.tmp").read_bytes()
    assert main(["train", "--config", "run.json.tmp", "--out", "run.json"]) == 0
    capsys.readouterr()
    assert (tmp_path / "run.json.tmp").read_bytes() == before
    (tmp_path / "plain").write_text("")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "plain", "run.ckpt", "run.json", "run.json.tmp"]
    assert {(tmp_path / name).stat().st_mode for name in ("plain", "run.ckpt", "run.json")
            } == {(tmp_path / "plain").stat().st_mode}


def test_write_json_removes_its_temp_file_when_the_write_fails(tmp_path, monkeypatch):
    def fail(*args):
        raise OSError("no space left")

    monkeypatch.setattr(cli.os, "replace", fail)
    with pytest.raises(OSError, match="no space left"):
        cli._write_json(str(tmp_path / "out.json"), {"a": 1})
    assert list(tmp_path.iterdir()) == []


def _write_files(tmp_path):
    """The inputs and earlier outputs the collision and missing-directory
    cases name; m.ckpt is a checkpoint of the el.json run."""
    write_config(tmp_path / "g.json")
    (tmp_path / "link.json").symlink_to(tmp_path / "g.json")
    (tmp_path / "el.edges").write_text("0 1\n1 2\n2 3\n")
    (tmp_path / "el.labels").write_text("0 0\n1 0\n2 1\n3 1\n")
    el = write_config(tmp_path / "el.json", dataset={"kind": "edge_list", "path": "el.edges",
                                                      "labels_path": "el.labels"})
    save_checkpoint(str(tmp_path / "m.ckpt"),
                    {"config": json.loads(Path(el).read_text()), "sha256": {}}, [])
    for name in ("m.json", "d.labels"):
        (tmp_path / name).write_bytes(b"existing bytes\n")
    return {path.name: path.read_bytes() for path in tmp_path.iterdir()}


@pytest.mark.parametrize("argv, kept, flags", [c[1:] for c in _COLLISIONS],
                         ids=[c[0] for c in _COLLISIONS])
def test_output_naming_another_file_exits_1_and_keeps_it(tmp_path, capsys, monkeypatch,
                                                         argv, kept, flags):
    monkeypatch.chdir(tmp_path)
    files = _write_files(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "name the same file" in err
    assert all(flag in err for flag in flags)
    assert (tmp_path / kept).read_bytes() == files[kept]
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == files


# (argv, the output flag, its path); nodir does not exist and g.json is a file
_MISSING_DIRS = [
    ("train out", ["train", "--config", "g.json", "--out", "nodir/m.json"],
     "--out", "nodir/m.json"),
    ("train out under a file", ["train", "--config", "g.json", "--out", "g.json/m.json"],
     "--out", "g.json/m.json"),
    ("train checkpoint", ["train", "--config", "g.json", "--checkpoint", "nodir/m.ckpt"],
     "--checkpoint", "nodir/m.ckpt"),
    ("eval", ["eval", "--checkpoint", "m.ckpt", "--out", "nodir/e.json"],
     "--out", "nodir/e.json"),
    ("generate grid", ["generate", "grid", "3", "3", "--out", "nodir/g.edges"],
     "--out", "nodir/g.edges"),
    ("generate communities",
     ["generate", "communities", "3", "3", "0.0", "--out", "nodir/c.edges"],
     "--out", "nodir/c.edges"),
    ("distortion", ["distortion", "edge-list", "el.edges", "--out", "nodir/d.json"],
     "--out", "nodir/d.json"),
    ("symmetry-demo", ["symmetry-demo", "--out", "nodir/s.json"], "--out", "nodir/s.json"),
    # an output that is an existing directory
    ("train out is a directory", ["train", "--config", "g.json", "--out", "adir"],
     "--out", "adir"),
    ("train checkpoint is a directory",
     ["train", "--config", "g.json", "--checkpoint", "adir"], "--checkpoint", "adir"),
    ("eval out is a directory", ["eval", "--checkpoint", "m.ckpt", "--out", "adir"],
     "--out", "adir"),
    ("generate out is a directory", ["generate", "grid", "3", "3", "--out", "adir"],
     "--out", "adir"),
    ("generate labels is a directory",
     ["generate", "communities", "3", "3", "0.0", "--out", "adir.edges"],
     "its labels file", "adir.labels"),
    ("distortion out is a directory",
     ["distortion", "edge-list", "el.edges", "--out", "adir"], "--out", "adir"),
    ("symmetry-demo out is a directory", ["symmetry-demo", "--out", "adir"], "--out", "adir"),
]


@pytest.mark.parametrize("argv, flag, path", [c[1:] for c in _MISSING_DIRS],
                         ids=[c[0] for c in _MISSING_DIRS])
def test_output_in_a_missing_directory_exits_1_before_any_work(tmp_path, capsys, monkeypatch,
                                                               argv, flag, path):
    """An output in a missing directory, or one that is a directory, exits 1
    before any work."""
    def no_work(*args):
        raise AssertionError("work done before the outputs were checked")

    monkeypatch.chdir(tmp_path)
    files = _write_files(tmp_path)
    for name in ("adir", "adir.labels"):
        (tmp_path / name).mkdir()
    for builder in ("grid_graph", "connected_caveman", "load_edge_list", "symmetry_report"):
        monkeypatch.setattr(cli, builder, no_work)
    assert main(argv) == 1
    reason = (" is a directory" if os.path.isdir(path)
              else f": {os.path.dirname(path)} is not an existing directory")
    assert capsys.readouterr().err == f"error: {flag} {path}{reason}\n"
    # nothing written, nothing left behind, and the directories still empty
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == files
    assert sorted(p.name for p in tmp_path.rglob("*") if p.is_dir()) == ["adir", "adir.labels"]


def test_unknown_config_keys_fail_fast(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", extra={"x": 1})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "m.json")]) == 1
    assert "unknown config key: extra" in capsys.readouterr().err

    cfg = write_config(tmp_path / "cfg.json",
                       model={"kind": "pgnn", "width": 8})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "m.json")]) == 1
    assert "model.width" in capsys.readouterr().err

    cfg = write_config(tmp_path / "cfg.json", task="regression")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "m.json")]) == 1
    assert "task" in capsys.readouterr().err

    # values the model configs reject are validation errors too
    for model, field in (({"kind": "pgnn", "layers": 0}, "layers"),
                         ({"kind": "pgnn", "message_dim": 0}, "message_dim"),
                         ({"kind": "pgnn", "variant": "slow"}, "variant"),
                         ({"kind": "gcn", "layers": 9}, "layers")):
        cfg = write_config(tmp_path / "cfg.json", model=model)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "m.json")]) == 1
        assert field in capsys.readouterr().err

    cfg = write_config(tmp_path / "cfg.json",
                       dataset={"kind": "grid", "rows": 0, "cols": 6})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "m.json")]) == 1
    assert "dataset.rows" in capsys.readouterr().err


_DROP = object()

# (id, config overrides or a whole non-object root, exact stderr message);
# _DROP removes a root key
_BAD_CONFIGS = [
    ("root-not-object", [], "config root must be a JSON object"),
    ("missing-task", {"task": _DROP}, "missing config key: task"),
    ("missing-dataset", {"dataset": _DROP}, "missing config key: dataset"),
    ("missing-model", {"model": _DROP}, "missing config key: model"),
    ("missing-dataset-kind", {"dataset": {"rows": 6, "cols": 6}},
     "missing config key: dataset.kind"),
    ("missing-grid-rows", {"dataset": {"kind": "grid", "cols": 6}},
     "missing config key: dataset.rows"),
    ("missing-n-comm", {"dataset": {"kind": "communities", "comm_size": 6}},
     "missing config key: dataset.n_comm"),
    ("missing-path", {"dataset": {"kind": "edge_list"}}, "missing config key: dataset.path"),
    ("missing-model-kind", {"model": {"layers": 2}}, "missing config key: model.kind"),
    ("unknown-root", {"extra": 1}, "unknown config key: extra"),
    ("unknown-grid", {"dataset": {"kind": "grid", "rows": 6, "cols": 6, "seed": 0}},
     "unknown config key: dataset.seed"),
    ("unknown-communities",
     {"dataset": {"kind": "communities", "n_comm": 3, "comm_size": 4, "rows": 1}},
     "unknown config key: dataset.rows"),
    ("unknown-edge-list", {"dataset": {"kind": "edge_list", "path": "x.edges", "seed": 0}},
     "unknown config key: dataset.seed"),
    ("unknown-split", {"split": {"val": 0.1}}, "unknown config key: split.val"),
    ("unknown-pgnn", {"model": {"kind": "pgnn", "width": 8}}, "unknown config key: model.width"),
    ("unknown-gcn", {"model": {"kind": "gcn", "variant": "fast"}},
     "unknown config key: model.variant"),
    ("unknown-train", {"train": {"epoch": 3}}, "unknown config key: train.epoch"),
    ("bool-as-int", {"model": {"kind": "pgnn", "layers": True}},
     "config key model.layers must be an integer"),
    ("float-as-int", {"model": {"kind": "gcn", "message_dim": 4.0}},
     "config key model.message_dim must be an integer"),
    ("float-as-int-train", {"train": {"epochs": 4.0}}, "config key train.epochs must be an integer"),
    ("string-as-number", {"train": {"lr": "0.1"}}, "config key train.lr must be a number"),
    ("string-as-fraction", {"split": {"val_frac": "0.1"}},
     "config key split.val_frac must be a number"),
    ("bool-as-number",
     {"dataset": {"kind": "communities", "n_comm": 3, "comm_size": 4, "rewire_prob": True}},
     "config key dataset.rewire_prob must be a number"),
    ("int-as-bool", {"model": {"kind": "pgnn", "closest_node_agg": 1}},
     "config key model.closest_node_agg must be a boolean"),
    ("int-as-string", {"task": 3}, "config key task must be a string"),
    ("null-required-string", {"dataset": {"kind": "edge_list", "path": None}},
     "config key dataset.path must be a string"),
    ("dataset-kind", {"dataset": {"kind": "ring"}},
     "config key dataset.kind has unsupported value 'ring'"),
    ("model-kind", {"model": {"kind": "gat"}}, "config key model.kind has unsupported value 'gat'"),
    ("task", {"task": "regression"}, "config key task has unsupported value 'regression'"),
    ("setting", {"setting": "semi"}, "config key setting has unsupported value 'semi'"),
    ("split-sum", {"split": {"val_frac": 0.5, "test_frac": 0.5}},
     "bad split fractions val=0.5 test=0.5"),
    ("split-negative", {"split": {"val_frac": -0.1}}, "bad split fractions val=-0.1 test=0.1"),
    ("split-seed", {"split": {"seed": -1}}, "split.seed must be >= 0, got -1"),
    ("split-val-zero", {"split": {"val_frac": 0}},
     "split.val_frac must be > 0, got 0.0: an empty split has no AUC"),
    ("split-test-zero", {"split": {"test_frac": 0.0}},
     "split.test_frac must be > 0, got 0.0: an empty split has no AUC"),
    ("split-no-pairs", {"dataset": {"kind": "grid", "rows": 1, "cols": 1}},
     "dataset grid-1x1 cannot be split: no positive pairs to split"),
    ("split-too-few-pairs", {"dataset": {"kind": "grid", "rows": 1, "cols": 3}},
     "dataset grid-1x3 cannot be split: too few positive pairs (2) to populate all splits"),
    ("split-too-few-negatives",
     {"dataset": {"kind": "grid", "rows": 2, "cols": 2}, "split": {"val_frac": 0.3}},
     "dataset grid-2x2 cannot be split: cannot sample 4 negatives from a complement of 2"),
    ("train-seed", {"train": {"seed": -2}}, "seed must be >= 0, got -2"),
    ("lr", {"train": {"lr": 0}}, "lr must be finite and > 0, got 0.0"),
    ("anchor-c", {"model": {"kind": "pgnn", "anchor_c": -1}},
     "anchor_c must be finite and > 0, got -1.0"),
    # json.load accepts NaN and Infinity; each check must reject them
    ("lr-nan", {"train": {"lr": float("nan")}}, "lr must be finite and > 0, got nan"),
    ("lr-inf", {"train": {"lr": float("inf")}}, "lr must be finite and > 0, got inf"),
    ("eps-negative", {"train": {"eps": -1.0}}, "eps must be finite and > 0, got -1.0"),
    ("beta1-one", {"train": {"beta1": 1.0}}, "beta1 must be in [0, 1), got 1.0"),
    ("beta2-nan", {"train": {"beta2": float("nan")}}, "beta2 must be in [0, 1), got nan"),
    ("anchor-c-nan", {"model": {"kind": "pgnn", "anchor_c": float("nan")}},
     "anchor_c must be finite and > 0, got nan"),
    ("split-nan", {"split": {"val_frac": float("nan")}}, "bad split fractions val=nan test=0.1"),
    ("split-inf", {"split": {"test_frac": float("-inf")}},
     "bad split fractions val=0.1 test=-inf"),
    ("rewire-prob",
     {"dataset": {"kind": "communities", "n_comm": 3, "comm_size": 4, "rewire_prob": 2}},
     "dataset.rewire_prob must be in [0, 1], got 2.0"),
    ("dataset-seed",
     {"dataset": {"kind": "communities", "n_comm": 3, "comm_size": 4, "seed": -1}},
     "dataset.seed must be >= 0, got -1"),
    ("edge-list-pairs-no-labels",
     {"task": "pairwise_node_classification", "dataset": {"kind": "edge_list", "path": "x.edges"}},
     "pairwise_node_classification needs node labels, and dataset edge_list has none"),
    ("grid-pairs", {"task": "pairwise_node_classification"},
     "pairwise_node_classification needs node labels, and dataset grid has none"),
    ("dataset-not-object", {"dataset": []}, "config key dataset must be an object"),
    ("split-not-object", {"split": 3}, "config key split must be an object"),
    ("model-not-object", {"model": "pgnn"}, "config key model must be an object"),
    ("train-null", {"train": None}, "config key train must be an object"),
]


@pytest.mark.parametrize("overrides, message", [c[1:] for c in _BAD_CONFIGS],
                         ids=[c[0] for c in _BAD_CONFIGS])
def test_malformed_config_exits_1_with_its_error(tmp_path, capsys, overrides, message):
    path = tmp_path / "cfg.json"
    if isinstance(overrides, dict):
        write_config(path, **{k: v for k, v in overrides.items() if v is not _DROP})
        raw = json.loads(path.read_text())
        path.write_text(json.dumps({k: v for k, v in raw.items()
                                    if overrides.get(k) is not _DROP}))
    else:
        path.write_text(json.dumps(overrides))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "m.json")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "m.json").exists()


# (id, {file name: content}, dataset keys naming those files, exact stderr
# message); {tmp} is tmp_path. A file the dataset names but the dict lacks is
# never written.
_BAD_DATASET_FILES = [
    ("missing", {}, {"path": "g.edges"},
     "cannot read dataset.path: [Errno 2] No such file or directory: '{tmp}/g.edges'"),
    ("empty", {"g.edges": "# no edges\n"}, {"path": "g.edges"},
     "dataset g cannot be loaded: {tmp}/g.edges: edge list is empty"),
    ("format", {"g.edges": "0 1\n1 2 3\n"}, {"path": "g.edges"},
     "dataset g cannot be loaded: {tmp}/g.edges:2: expected two fields, got 3"),
    ("labels", {"g.edges": "0 1\n1 2\n", "g.labels": "0 0\n1 1\n"},
     {"path": "g.edges", "labels_path": "g.labels"},
     "dataset g cannot be loaded: {tmp}/g.labels: no label for node 2"),
    ("features", {"g.edges": "0 1\n1 2\n", "g.csv": "1.0\n2.0\n"},
     {"path": "g.edges", "features_path": "g.csv"},
     "dataset g cannot be loaded: {tmp}/g.csv: 2 feature rows for 3 nodes"),
]


@pytest.mark.parametrize("files, dataset, message", [c[1:] for c in _BAD_DATASET_FILES],
                         ids=[c[0] for c in _BAD_DATASET_FILES])
def test_bad_dataset_file_exits_1_with_its_error(tmp_path, capsys, files, dataset, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    cfg = write_config(tmp_path / "cfg.json", dataset={
        "kind": "edge_list", **{key: str(tmp_path / name) for key, name in dataset.items()}})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "m.json")]) == 1
    assert capsys.readouterr().err == f"error: {message.format(tmp=tmp_path)}\n"
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("text, message", [
    (None, "[Errno 2] No such file or directory: '{tmp}/g.edges'"),
    ("# no edges\n", "{tmp}/g.edges: edge list is empty"),
    ("0 1\n1 x\n", "{tmp}/g.edges:2: non-integer node id in '1 x'"),
], ids=["missing", "empty", "malformed"])
def test_distortion_bad_edge_list_exits_1_with_its_error(tmp_path, capsys, text, message):
    if text is not None:
        (tmp_path / "g.edges").write_text(text)
    assert main(["distortion", "edge-list", str(tmp_path / "g.edges")]) == 1
    assert capsys.readouterr().err == (
        f"error: dataset g cannot be loaded: {message.format(tmp=tmp_path)}\n")


def _random_config(rng, tmp_path) -> dict:
    """A small config drawn from ``rng``: any dataset kind, task, setting and model.

    Edge lists are written to ``tmp_path`` as well-formed files; their graphs
    may be disconnected or have isolated nodes."""
    def pick(*options):
        return options[int(rng.integers(len(options)))]

    kind = pick("grid", "communities", "edge_list")
    if kind == "grid":
        dataset = {"kind": kind, "rows": pick(1, 2, 3, 4), "cols": pick(1, 2, 3, 4)}
    elif kind == "communities":
        dataset = {"kind": kind, "n_comm": pick(2, 3), "comm_size": pick(2, 3, 4),
                   "rewire_prob": pick(0.0, 0.01, 0.5), "seed": pick(0, 1, 2)}
    else:
        n = pick(2, 3, 5, 7)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        keep = rng.random(len(pairs)) < 0.4
        keep[int(rng.integers(len(pairs)))] = True
        (tmp_path / "g.edges").write_text(
            "".join(f"{u} {v}\n" for (u, v), k in zip(pairs, keep) if k))
        dataset = {"kind": kind, "path": str(tmp_path / "g.edges")}
        # the graph has 1 + the largest id seen nodes, which the files must cover
        n = 1 + max(v for (u, v), k in zip(pairs, keep) if k)
        if pick(True, False):
            (tmp_path / "g.labels").write_text(
                "".join(f"{i} {pick(0, 1, 2)}\n" for i in range(n)))
            dataset["labels_path"] = str(tmp_path / "g.labels")
        if pick(True, False):
            np.savetxt(tmp_path / "g.csv", rng.normal(size=(n, 2)), delimiter=",")
            dataset["features_path"] = str(tmp_path / "g.csv")
    if pick("pgnn", "gcn") == "pgnn":
        model = {"kind": "pgnn", "layers": pick(1, 2), "message_dim": pick(2, 4),
                 "anchor_c": pick(0.5, 1.0, 2.0), "variant": pick("exact", "fast"),
                 "closest_node_agg": pick(True, False),
                 "resample_anchors": pick(True, False)}
    else:
        model = {"kind": "gcn", "layers": pick(1, 2), "message_dim": pick(2, 4)}
    return {"dataset": dataset,
            "task": pick("link_prediction", "pairwise_node_classification"),
            "setting": pick("inductive", "transductive"),
            "split": {"val_frac": pick(0.0, 0.1, 0.2, 0.3),
                      "test_frac": pick(0.0, 0.1, 0.2, 0.3),
                      "seed": pick(0, 1, 2)},
            "model": model,
            "train": {"epochs": pick(0, 1, 2), "repeats": pick(1, 2), "seed": pick(0, 1, 2)}}


def test_accepted_configs_run_or_exit_1(tmp_path, capsys):
    """Seeded random configs: each is rejected with exit 1, or trains, and then
    its checkpoint evaluates to the selected repeat's AUCs."""
    rng = np.random.default_rng(0)
    cfg, mpath, ckpt, epath = (tmp_path / name for name in
                               ("cfg.json", "m.json", "m.ckpt", "e.json"))
    ran = 0
    for _ in range(400):
        cfg.write_text(json.dumps(_random_config(rng, tmp_path)))
        code = main(["train", "--config", str(cfg), "--out", str(mpath)])
        err = capsys.readouterr().err
        assert code in (0, 1), (cfg.read_text(), err)
        if code == 1:
            continue
        ran += 1
        assert main(["eval", "--checkpoint", str(ckpt), "--out", str(epath)]) == 0, (
            cfg.read_text(), capsys.readouterr().err)
        best = max(json.loads(mpath.read_text())["per_repeat"],
                   key=lambda r: (r["val_auc"], -r["repeat"]))
        evaluated = json.loads(epath.read_text())
        assert (evaluated["val_auc"], evaluated["test_auc"]) == (best["val_auc"],
                                                                 best["test_auc"])
    assert ran >= 80


def _edit_checkpoint(ckpt, edit) -> None:
    """Apply ``edit`` to the checkpoint's JSON object in place."""
    record = json.loads(ckpt.read_text())
    edit(record)
    ckpt.write_text(json.dumps(record))


def _assert_eval_exits_1(tmp_path, capsys, ckpt, message):
    epath = tmp_path / "eval.json"
    assert main(["eval", "--checkpoint", str(ckpt), "--out", str(epath)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not epath.exists()


def test_eval_rejects_a_model_other_than_the_checkpoints(tmp_path, capsys):
    """A stored model section other than the one the matrices were trained
    as exits 1, naming both shape lists."""
    pgnn = {"kind": "pgnn", "layers": 2, "message_dim": 8}
    gcn = {"kind": "gcn", "layers": 2, "message_dim": 8}
    ckpt = tmp_path / "m.ckpt"
    for trained, stored, seed, shapes in (
            (gcn, pgnn, 0, "[(1, 8), (8, 8)] do not fit the model's [(2, 8), (16, 8), (8, 1)]"),
            (pgnn, gcn, None, "[(2, 8), (16, 8), (8, 1)] do not fit the model's "
                              "[(1, 8), (8, 8)]")):
        cfg = write_config(tmp_path / "cfg.json", model=trained)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "m.json")]) == 0
        capsys.readouterr()
        _edit_checkpoint(ckpt, lambda r: r.update(anchor_seed=seed) or r["config"].update(
            model=stored))
        _assert_eval_exits_1(tmp_path, capsys, ckpt,
                             f"cannot read checkpoint: {ckpt}: matrix shapes {shapes}")


def test_eval_rejects_a_setting_other_than_the_checkpoints(tmp_path, capsys):
    """The transductive forward graph gives each node a one-hot id feature, so
    matrices trained in one setting do not fit the other."""
    gcn = {"kind": "gcn", "layers": 2, "message_dim": 8}
    ckpt = tmp_path / "m.ckpt"
    for trained, stored, shapes in (
            ("transductive", "inductive",
             "[(16, 8), (8, 8)] do not fit the model's [(1, 8), (8, 8)]"),
            ("inductive", "transductive",
             "[(1, 8), (8, 8)] do not fit the model's [(16, 8), (8, 8)]")):
        cfg = write_config(tmp_path / "cfg.json", setting=trained, model=gcn,
                           dataset={"kind": "grid", "rows": 4, "cols": 4})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "m.json")]) == 0
        capsys.readouterr()
        _edit_checkpoint(ckpt, lambda r: r["config"].update(setting=stored))
        _assert_eval_exits_1(tmp_path, capsys, ckpt,
                             f"cannot read checkpoint: {ckpt}: matrix shapes {shapes}")


def test_eval_rejects_a_changed_dataset_file(tmp_path, capsys, monkeypatch):
    """A dataset file whose bytes changed since training, or that is gone,
    exits 1 before any graph is built."""
    def no_build(*args):
        raise AssertionError("graph built before the dataset files were checked")

    edges = tmp_path / "g.edges"
    assert main(["generate", "grid", "4", "5", "--out", str(edges)]) == 0
    before = edges.read_bytes()
    cfg = write_config(tmp_path / "cfg.json", dataset={"kind": "edge_list", "path": str(edges)})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "m.json")]) == 0
    assert main(["generate", "grid", "5", "4", "--out", str(edges)]) == 0
    capsys.readouterr()
    after = edges.read_bytes()
    for builder in ("grid_graph", "connected_caveman", "load_edge_list"):
        monkeypatch.setattr(cli, builder, no_build)
    ckpt = tmp_path / "m.ckpt"
    _assert_eval_exits_1(tmp_path, capsys, ckpt, (
        f"dataset sha256 {{'path': '{hashlib.sha256(after).hexdigest()}'}} does not match "
        f"checkpoint sha256 {{'path': '{hashlib.sha256(before).hexdigest()}'}}: "
        "a dataset file changed since training"))
    edges.unlink()
    _assert_eval_exits_1(tmp_path, capsys, ckpt, (
        f"cannot read dataset.path: [Errno 2] No such file or directory: '{edges}'"))


def test_eval_rejects_an_unreadable_checkpoint(tmp_path, capsys):
    """A missing checkpoint, one that is not JSON (the binary format of
    version 3), one of another version, one with a malformed stored config,
    matrices or anchor seed, or one whose matrices do not fit the model exits 1."""
    missing = tmp_path / "nope.ckpt"
    _assert_eval_exits_1(tmp_path, capsys, missing, f"checkpoint file not found: {missing}")
    binary = tmp_path / "v3.ckpt"
    header = b'{"matrices":[{"cols":1,"name":"layer0.w","rows":1}]}'
    binary.write_bytes(b"PGNNCKPT" + (3).to_bytes(4, "little") + len(header).to_bytes(4, "little")
                       + header + np.ones(1).tobytes())
    assert main(["eval", "--checkpoint", str(binary)]) == 1
    assert capsys.readouterr().err.startswith(f"error: checkpoint file {binary} is not valid "
                                              "JSON: ")

    # a PGNN without an integer anchor_seed >= 0 would redraw no family
    cfg = write_config(tmp_path / "cfg.json", model={"kind": "gcn"})
    pgnn = write_config(tmp_path / "pgnn.json")
    seed = "malformed anchor_seed"
    for config, edits in (
            (cfg, [*((lambda r, v=v: r.update(version=v), "not a version 4 checkpoint")
                     for v in (1, 2, 3)),
                   (lambda r: r.pop("version"), "not a version 4 checkpoint"),
                   (lambda r: r.pop("matrices"), "malformed matrices"),
                   (lambda r: r["matrices"][0].update(rows="6"), "malformed matrices"),
                   (lambda r: r.pop("config"), "config root must be a JSON object"),
                   (lambda r: r["config"].update(task="regression"),
                    "config key task has unsupported value 'regression'"),
                   (lambda r: r.pop("anchor_seed"), seed),
                   (lambda r: r.update(anchor_seed=0), seed)]),
            (pgnn, [(lambda r: r.update(anchor_seed=value), seed)
                    for value in (None, -1, 1.0, "0", True)])):
        assert main(["train", "--config", config, "--out", str(tmp_path / "m.json")]) == 0
        capsys.readouterr()
        ckpt = tmp_path / "m.ckpt"
        trained = ckpt.read_text()
        for edit, message in edits:
            ckpt.write_text(trained)
            _edit_checkpoint(ckpt, edit)
            _assert_eval_exits_1(tmp_path, capsys, ckpt, f"cannot read checkpoint: {ckpt}: "
                                                         f"{message}")

    # well-formed matrices that do not fit the stored model
    deep = write_config(tmp_path / "deep.json",
                        model={"kind": "pgnn", "layers": 3, "message_dim": 8})
    ckpt = tmp_path / "fit.ckpt"
    for config, edit, shapes in (
            (cfg, lambda named: named[:-1], "[(1, 32)] do not fit the model's [(1, 32), (32, 32)]"),
            (deep, lambda named: named[:-1], "[(2, 8), (16, 8), (16, 8)] do not fit the model's "
                                             "[(2, 8), (16, 8), (16, 8), (8, 1)]"),
            (cfg, lambda named: [(named[0][0], named[0][1].T)] + named[1:],
             "[(32, 1), (32, 32)] do not fit the model's [(1, 32), (32, 32)]")):
        assert main(["train", "--config", config, "--out", str(tmp_path / "fit.json")]) == 0
        capsys.readouterr()
        record, arrays = load_checkpoint(str(ckpt))
        save_checkpoint(str(ckpt), record, edit([(spec["name"], a) for spec, a
                                                 in zip(record["matrices"], arrays)]))
        _assert_eval_exits_1(tmp_path, capsys, ckpt,
                             f"cannot read checkpoint: {ckpt}: matrix shapes {shapes}")


@pytest.mark.parametrize("kind", ["grid", "communities", "edge_list"])
def test_resolved_config_round_trips(tmp_path, capsys, kind):
    """The config stored in the checkpoint, as echoed into the metrics, is
    itself a config giving the same run."""
    if kind == "grid":
        dataset = {"kind": "grid", "rows": 4, "cols": 5}
    elif kind == "communities":
        dataset = {"kind": "communities", "n_comm": 3, "comm_size": 4}
    else:
        edges = tmp_path / "g.edges"
        assert main(["generate", "grid", "4", "5", "--out", str(edges)]) == 0
        dataset = {"kind": "edge_list", "path": str(edges)}
    first = write_config(tmp_path / "first.json", dataset=dataset,
                         model={"kind": "pgnn", "message_dim": 4},
                         train={"epochs": 2, "repeats": 1})
    assert main(["train", "--config", first, "--out", str(tmp_path / "a.json")]) == 0
    stored = load_checkpoint(str(tmp_path / "a.ckpt"))[0]["config"]
    assert stored == json.loads((tmp_path / "a.json").read_text())["config"]
    echoed = tmp_path / "echoed.json"
    echoed.write_text(json.dumps(stored))
    assert main(["train", "--config", str(echoed), "--out", str(tmp_path / "b.json")]) == 0
    for ext in ("json", "ckpt"):
        assert (tmp_path / f"a.{ext}").read_bytes() == (tmp_path / f"b.{ext}").read_bytes()
    assert main(["eval", "--checkpoint", str(tmp_path / "b.ckpt"),
                 "--out", str(tmp_path / "e.json")]) == 0
    capsys.readouterr()


def test_config_file_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["train", "--config", missing]) == 1
    assert capsys.readouterr().err == f"error: config file not found: {missing}\n"
    bad = tmp_path / "bad.json"
    for content in (b"{not json", b'{"task": "\xff"}', b"[" * 100_000):
        bad.write_bytes(content)
        assert main(["train", "--config", str(bad)]) == 1
        assert capsys.readouterr().err.startswith(f"error: config file {bad} is not valid JSON: ")
    assert main(["train", "--config", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read config file {tmp_path}: ")


def test_bad_arguments_exit_with_config_error(monkeypatch, capsys):
    assert main(["train"]) == 1
    assert main(["no-such-command"]) == 1
    # eval takes no --seed or --repeats: they would change no computed value;
    # nor a --config, since the checkpoint stores its run's
    assert main(["eval", "--checkpoint", "m.ckpt", "--seed", "1"]) == 1
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert main(["eval", "--config", "c.json", "--checkpoint", "m.ckpt"]) == 1
    assert "unrecognized arguments: --config c.json" in capsys.readouterr().err
    assert main(["generate", "grid", "two", "2", "--out", "x"]) == 1
    capsys.readouterr()

    def no_build(*args):
        raise AssertionError("graph built before the dataset was checked")

    monkeypatch.setattr(cli, "grid_graph", no_build)
    monkeypatch.setattr(cli, "connected_caveman", no_build)
    for argv, field in ((["generate", "grid", "0", "5", "--out", "x"], "dataset.rows"),
                        (["distortion", "grid", "1", "1"], "dataset.rows x dataset.cols"),
                        (["distortion", "communities", "1", "5", "0.1"], "dataset.n_comm"),
                        (["generate", "communities", "2", "3", "0.1", "--seed", "-1",
                          "--out", "x"], "dataset.seed must be >= 0, got -1")):
        assert main(argv) == 1
        assert field in capsys.readouterr().err


def test_distortion_report_on_grid(tmp_path, capsys):
    out = tmp_path / "d.json"
    code = main(["distortion", "grid", "6", "6", "--repeats", "2",
                 "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["n"] == 36
    assert payload["p"] == 1
    assert payload["k"] == 36
    assert payload["repeats"] == 2
    assert len(payload["per_repeat"]) == 2
    # embedded l1 distances never stretch the graph metric
    assert payload["expansion"]["max"] <= 1.0 + 1e-12
    assert payload["distortion"]["mean"] >= 1.0


@pytest.mark.filterwarnings("error")
def test_distortion_with_a_collapsed_embedding_reports_inf(tmp_path, capsys):
    """On a star, seed 1 of c = 0.5 maps two leaves to one point; the stats
    over a finite and an infinite repeat are "inf", with no numpy warning."""
    star = tmp_path / "star.edges"
    star.write_text("0 1\n0 2\n0 3\n0 4\n0 5\n")
    assert main(["distortion", "edge-list", str(star), "--anchor-c", "0.5",
                 "--repeats", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["per_repeat"] == [
        {"expansion": 0.6666666666666666, "contraction": 6.0, "distortion": 4.0},
        {"expansion": 0.8333333333333333, "contraction": "inf", "distortion": "inf"}]
    assert payload["expansion"] == {"mean": 0.75, "max": 0.8333333333333333}
    assert payload["contraction"] == payload["distortion"] == {"mean": "inf", "max": "inf"}


def test_distortion_rejects_disconnected_input(tmp_path, capsys):
    edges = tmp_path / "two_parts.edges"
    edges.write_text("0 1\n2 3\n")
    code = main(["distortion", "edge-list", str(edges)])
    assert code == 2
    err = capsys.readouterr().err
    assert "two_parts: graph has 2 components with sizes [2, 2]" in err
    one = tmp_path / "one.edges"
    one.write_text("0 0\n")
    assert main(["distortion", "edge-list", str(one)]) == 1
    assert capsys.readouterr().err == ("error: distortion needs at least 2 nodes, "
                                       "got n = 1 in one\n")


def test_distortion_rejects_bad_flags_before_building(monkeypatch, capsys):
    def no_build(*args):
        raise AssertionError("graph built before the flags were checked")

    monkeypatch.setattr(cli, "grid_graph", no_build)
    for flag, value in (("--repeats", "0"), ("--anchor-c", "0"), ("--seed", "-2")):
        assert main(["distortion", "grid", "4", "4", flag, value]) == 1
        assert flag in capsys.readouterr().err


def test_symmetry_demo_reports_contrast(tmp_path, capsys):
    out = tmp_path / "sym.json"
    assert main(["symmetry-demo", "--out", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out)
    stored = json.loads(out.read_text())
    assert printed == stored
    assert stored["positional_contrast"] is True
    assert stored["gcn_gap"] == 0.0
    assert stored["pgnn_gap"] > 1e-6


def test_checkpoint_roundtrip_and_validation(tmp_path):
    path = str(tmp_path / "m.ckpt")
    edge = np.array([[-0.0, 5e-324, 1 / 3], [-1e-300, 1e308, 2.0]])
    mats = [("a", np.arange(6.0).reshape(2, 3)), ("b", np.ones((1, 1))), ("edge", edge)]
    save_checkpoint(path, {"task": "link_prediction"}, mats)
    record, arrays = load_checkpoint(path)
    assert record["version"] == 4 and record["task"] == "link_prediction"
    assert [m["name"] for m in record["matrices"]] == ["a", "b", "edge"]
    assert all(a.dtype == np.float64 for a in arrays)
    assert [a.tobytes() for a in arrays] == [a.tobytes() for _, a in mats]

    bogus = tmp_path / "bogus.ckpt"
    bogus.write_bytes(b"PGNNCKPT" + (3).to_bytes(4, "little") + b"\x00" * 12)
    with pytest.raises(ValueError, match="is not valid JSON"):
        load_checkpoint(str(bogus))
    good = json.loads(Path(path).read_text())
    for version in (1, 2, 3):
        bogus.write_text(json.dumps({**good, "version": version}))
        with pytest.raises(ValueError, match="not a version 4 checkpoint"):
            load_checkpoint(str(bogus))
    bogus.write_text("[]")
    with pytest.raises(ValueError, match="not a version 4 checkpoint"):
        load_checkpoint(str(bogus))
    # np.array would take a numeric string or a boolean; json.load takes NaN
    # and Infinity
    for rows in ([[1.0, 2.0], [3.0]], [], "1", [1.0], [["1.0"]], [[True]],
                 [[None]], [[float("nan")]], [[float("inf")]], [[-float("inf")]],
                 [[10 ** 400]]):
        bogus.write_text(json.dumps({"version": 4, "matrices": [{"name": "a", "rows": rows}]}))
        with pytest.raises(ValueError, match="malformed matrices"):
            load_checkpoint(str(bogus))
    bogus.write_text(json.dumps({"version": 4}))
    with pytest.raises(ValueError, match="malformed matrices"):
        load_checkpoint(str(bogus))
