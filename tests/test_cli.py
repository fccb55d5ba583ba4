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


def test_train_writes_metrics_and_checkpoint(tmp_path, capsys):
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

    header, arrays = load_checkpoint(str(tmp_path / "metrics.ckpt"))
    assert sorted(header) == ["anchor_seed", "best_epoch", "dataset", "matrices", "model",
                              "repeat", "setting", "sha256", "split", "task"]
    assert header["task"] == "link_prediction"
    assert header["model"]["kind"] == "pgnn"
    assert header["sha256"] == {}
    assert [m["name"] for m in header["matrices"]] == [
        "layer0.w_msg", "layer1.w_msg", "layer1.w"]
    assert [a.shape for a in arrays] == [(2, 8), (16, 8), (8, 1)]


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
        code = main(["eval", "--config", cfg, "--checkpoint", str(ckpt),
                     "--out", str(epath)])
        assert code == 0
        metrics = json.loads(mpath.read_text())
        evaluated = json.loads(epath.read_text())
        best = max(metrics["per_repeat"],
                   key=lambda r: (r["val_auc"], -r["repeat"]))
        assert evaluated["test_auc"] == best["test_auc"]
        assert evaluated["val_auc"] == best["val_auc"]
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
    ("eval checkpoint", ["eval", "--config", "g.json", "--checkpoint", "m.ckpt",
                         "--out", "m.ckpt"], "m.ckpt", ("--checkpoint", "--out")),
    ("eval config", ["eval", "--config", "g.json", "--checkpoint", "m.ckpt",
                     "--out", "g.json"], "g.json", ("--config", "--out")),
    ("eval dataset file", ["eval", "--config", "el.json", "--checkpoint", "m.ckpt",
                           "--out", "el.labels"], "el.labels", ("dataset.labels_path", "--out")),
    ("generate labels", ["generate", "communities", "3", "3", "0.0", "--out", "d.labels"],
     "d.labels", ("--out", "its labels file")),
]


@pytest.mark.parametrize("argv, kept, flags", [c[1:] for c in _COLLISIONS],
                         ids=[c[0] for c in _COLLISIONS])
def test_output_naming_another_file_exits_1_and_keeps_it(tmp_path, capsys, monkeypatch,
                                                         argv, kept, flags):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path / "g.json")
    (tmp_path / "link.json").symlink_to(tmp_path / "g.json")
    (tmp_path / "el.edges").write_text("0 1\n1 2\n2 3\n")
    (tmp_path / "el.labels").write_text("0 0\n1 0\n2 1\n3 1\n")
    write_config(tmp_path / "el.json", dataset={"kind": "edge_list", "path": "el.edges",
                                                 "labels_path": "el.labels"})
    for name in ("m.ckpt", "m.json", "d.labels"):
        (tmp_path / name).write_bytes(b"existing bytes\n")
    files = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "name the same file" in err
    assert all(flag in err for flag in flags)
    assert (tmp_path / kept).read_bytes() == files[kept]
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == files


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


def test_accepted_configs_run_or_exit_1(tmp_path, capsys, monkeypatch):
    """Seeded random configs: each is rejected with exit 1, or trains, and then
    its checkpoint evaluates to the selected repeat's test AUC, and is rejected
    under another split seed before any graph is built."""
    def no_build(*args):
        raise AssertionError("graph built before the checkpoint was checked")

    rng = np.random.default_rng(0)
    cfg, other, mpath, ckpt, epath = (tmp_path / name for name in
                                      ("cfg.json", "other.json", "m.json", "m.ckpt", "e.json"))
    ran = 0
    for _ in range(400):
        cfg.write_text(json.dumps(_random_config(rng, tmp_path)))
        code = main(["train", "--config", str(cfg), "--out", str(mpath)])
        err = capsys.readouterr().err
        assert code in (0, 1), (cfg.read_text(), err)
        if code == 1:
            continue
        ran += 1
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--out", str(epath)]) == 0, (cfg.read_text(), capsys.readouterr().err)
        best = max(json.loads(mpath.read_text())["per_repeat"],
                   key=lambda r: (r["val_auc"], -r["repeat"]))
        assert json.loads(epath.read_text())["test_auc"] == best["test_auc"]
        raw = json.loads(cfg.read_text())
        raw["split"]["seed"] += 1
        other.write_text(json.dumps(raw))
        with monkeypatch.context() as patch:
            for builder in ("grid_graph", "connected_caveman", "load_edge_list"):
                patch.setattr(cli, builder, no_build)
            assert main(["eval", "--config", str(other), "--checkpoint", str(ckpt),
                         "--out", str(epath)]) == 1
        assert capsys.readouterr().err.startswith("error: config split ")
    assert ran >= 80


def test_eval_rejects_a_model_other_than_the_checkpoints(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json",
                       model={"kind": "gcn", "layers": 2, "message_dim": 8})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "m.json")]) == 0
    capsys.readouterr()
    other = write_config(tmp_path / "other.json",
                         model={"kind": "pgnn", "layers": 3, "message_dim": 4})
    epath = tmp_path / "e.json"
    assert main(["eval", "--config", other, "--checkpoint", str(tmp_path / "m.ckpt"),
                 "--out", str(epath)]) == 1
    assert capsys.readouterr().err == (
        "error: config model {'kind': 'pgnn', 'layers': 3, 'anchor_c': 1.0, "
        "'variant': 'exact', 'message_dim': 4, 'closest_node_agg': True, "
        "'resample_anchors': True} does not match checkpoint model "
        "{'kind': 'gcn', 'layers': 2, 'message_dim': 8}\n")
    assert not epath.exists()


def test_eval_rejects_a_setting_other_than_the_checkpoints(tmp_path, capsys, monkeypatch):
    """So is any other task, dataset, split or dataset file content, before any
    graph is built. The checkpoint's sections print in sorted key order."""
    def no_build(*args):
        raise AssertionError("graph built before the checkpoint was checked")

    # every row trains with g.edges holding a 4x5 grid and evaluates with it
    # rewritten in place as a 5x4 grid; only the edge-list rows read it
    edges, moved = tmp_path / "g.edges", tmp_path / "other" / "g.edges"
    moved.parent.mkdir()
    assert main(["generate", "grid", "4", "5", "--out", str(moved)]) == 0
    assert main(["generate", "grid", "5", "4", "--out", str(edges)]) == 0
    before, after = moved.read_bytes(), edges.read_bytes()
    el = {"kind": "edge_list", "path": str(edges)}
    gcn = {"kind": "gcn", "layers": 2, "message_dim": 8}
    cave = {"kind": "communities", "n_comm": 3, "comm_size": 4}
    small = {"setting": "transductive", "model": gcn,
             "dataset": {"kind": "grid", "rows": 5, "cols": 5}}
    # (train config overrides, eval config overrides, the difference reported)
    for trained, evaluated, key, ours, theirs in (
            ({"setting": "transductive"}, {"setting": "inductive"},
             "setting", "inductive", "transductive"),
            ({"setting": "transductive", "model": gcn,
              "dataset": {"kind": "grid", "rows": 4, "cols": 4}},
             {"dataset": {"kind": "grid", "rows": 5, "cols": 4}},
             "dataset", {"kind": "grid", "rows": 5, "cols": 4},
             {"cols": 4, "kind": "grid", "rows": 4}),
            ({"task": "pairwise_node_classification", "dataset": cave},
             {"task": "link_prediction"}, "task", "link_prediction",
             "pairwise_node_classification"),
            ({"dataset": cave}, {"dataset": {**cave, "comm_size": 5}}, "dataset",
             {"kind": "communities", "n_comm": 3, "comm_size": 5, "rewire_prob": 0.01,
              "seed": 0},
             {"comm_size": 4, "kind": "communities", "n_comm": 3, "rewire_prob": 0.01,
              "seed": 0}),
            ({"dataset": cave}, {"dataset": {**cave, "rewire_prob": 0.5}}, "dataset",
             {"kind": "communities", "n_comm": 3, "comm_size": 4, "rewire_prob": 0.5,
              "seed": 0},
             {"comm_size": 4, "kind": "communities", "n_comm": 3, "rewire_prob": 0.01,
              "seed": 0}),
            (small, {"split": {"test_frac": 0.3}}, "split",
             {"val_frac": 0.1, "test_frac": 0.3, "seed": 0},
             {"seed": 0, "test_frac": 0.1, "val_frac": 0.1}),
            (small, {"split": {"seed": 7}}, "split",
             {"val_frac": 0.1, "test_frac": 0.1, "seed": 7},
             {"seed": 0, "test_frac": 0.1, "val_frac": 0.1}),
            ({"dataset": el}, {"dataset": {**el, "path": str(moved)}}, "dataset",
             {"kind": "edge_list", "path": str(moved), "labels_path": None,
              "features_path": None},
             {"features_path": None, "kind": "edge_list", "labels_path": None,
              "path": str(edges)}),
            ({"dataset": el}, {}, "sha256", {"path": hashlib.sha256(after).hexdigest()},
             {"path": hashlib.sha256(before).hexdigest()})):
        edges.write_bytes(before)
        cfg = write_config(tmp_path / "cfg.json", **trained)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "m.json")]) == 0
        capsys.readouterr()
        edges.write_bytes(after)
        other = write_config(tmp_path / "other.json", **{**trained, **evaluated})
        epath = tmp_path / "e.json"
        with monkeypatch.context() as patch:
            for builder in ("grid_graph", "connected_caveman", "load_edge_list"):
                patch.setattr(cli, builder, no_build)
            assert main(["eval", "--config", other, "--checkpoint", str(tmp_path / "m.ckpt"),
                         "--out", str(epath)]) == 1
        assert capsys.readouterr().err == (f"error: config {key} {ours!r} does not match "
                                           f"checkpoint {key} {theirs!r}\n")
        assert not epath.exists()


def test_eval_rejects_an_unreadable_checkpoint(tmp_path, capsys):
    """A missing checkpoint, one of another format version, one with a
    malformed header, or one whose matrices do not fit the model exits 1."""
    cfg = write_config(tmp_path / "cfg.json", model={"kind": "gcn"})
    missing = tmp_path / "nope.ckpt"
    assert main(["eval", "--config", cfg, "--checkpoint", str(missing)]) == 1
    assert capsys.readouterr().err == ("error: cannot read checkpoint: [Errno 2] No such "
                                       f"file or directory: '{missing}'\n")
    old = tmp_path / "old.ckpt"
    save_checkpoint(str(old), {}, [])
    blob = bytearray(old.read_bytes())
    for version in (1, 2):
        blob[8:12] = version.to_bytes(4, "little")
        old.write_bytes(bytes(blob))
        assert main(["eval", "--config", cfg, "--checkpoint", str(old)]) == 1
        assert capsys.readouterr().err == (f"error: cannot read checkpoint: {old}: "
                                           f"unsupported checkpoint version {version}\n")

    # a PGNN without an integer anchor_seed would redraw its family at random;
    # a declared shape the file cannot hold must fail before any allocation
    malformed = "malformed checkpoint header"
    pgnn = write_config(tmp_path / "pgnn.json")
    for config, edits in ((cfg, [(lambda h: h.pop("matrices"), malformed),
                                 (lambda h: h["matrices"][0].update(rows="6"), malformed),
                                 (lambda h: h.pop("anchor_seed"), malformed),
                                 (lambda h: h["matrices"][0].update(rows=2 ** 40),
                                  "truncated checkpoint")]),
                          (pgnn, [(lambda h: h.update(anchor_seed=None), malformed)])):
        _assert_edited_header_exits_1(tmp_path, capsys, config, edits)

    # header and payload agree, but the matrices do not fit the config's model
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
        header, arrays = load_checkpoint(str(ckpt))
        save_checkpoint(str(ckpt), header, edit([(spec["name"], a) for spec, a
                                                 in zip(header["matrices"], arrays)]))
        capsys.readouterr()
        assert main(["eval", "--config", config, "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "eval.json")]) == 1
        assert capsys.readouterr().err == (f"error: cannot read checkpoint: {ckpt}: "
                                           f"matrix shapes {shapes}\n")
        assert not (tmp_path / "eval.json").exists()


def _assert_edited_header_exits_1(tmp_path, capsys, cfg, edits):
    """Train ``cfg``, then eval its checkpoint with each (edit, message) applied to
    the header in turn."""
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "m.json")]) == 0
    capsys.readouterr()
    blob = ckpt.read_bytes()
    hlen = int.from_bytes(blob[12:16], "little")
    for edit, message in edits:
        header = json.loads(blob[16:16 + hlen])
        edit(header)
        raw = json.dumps(header).encode("utf-8")
        ckpt.write_bytes(blob[:12] + len(raw).to_bytes(4, "little") + raw
                         + blob[16 + hlen:])
        epath = tmp_path / "eval.json"
        assert main(["eval", "--config", cfg, "--checkpoint", str(ckpt),
                     "--out", str(epath)]) == 1
        assert capsys.readouterr().err == (f"error: cannot read checkpoint: {ckpt}: "
                                           f"{message}\n")
        assert not epath.exists()


@pytest.mark.parametrize("kind", ["grid", "communities", "edge_list"])
def test_resolved_config_round_trips(tmp_path, capsys, kind):
    """The config echoed into the metrics is itself a config giving the same run."""
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
    echoed = tmp_path / "echoed.json"
    echoed.write_text(json.dumps(json.loads((tmp_path / "a.json").read_text())["config"]))
    assert main(["train", "--config", str(echoed), "--out", str(tmp_path / "b.json")]) == 0
    for ext in ("json", "ckpt"):
        assert (tmp_path / f"a.{ext}").read_bytes() == (tmp_path / f"b.{ext}").read_bytes()
    assert main(["eval", "--config", str(echoed), "--checkpoint", str(tmp_path / "b.ckpt"),
                 "--out", str(tmp_path / "e.json")]) == 0
    capsys.readouterr()


def test_config_file_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["train", "--config", missing]) == 1
    assert "not found" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["train", "--config", str(bad)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_bad_arguments_exit_with_config_error(monkeypatch, capsys):
    assert main(["train"]) == 1
    assert main(["no-such-command"]) == 1
    # eval takes no --seed or --repeats: they would change no computed value
    assert main(["eval", "--config", "c.json", "--checkpoint", "m.ckpt", "--seed", "1"]) == 1
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
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
    mats = [("a", np.arange(6.0).reshape(2, 3)), ("b", np.ones((1, 1)))]
    save_checkpoint(path, {"task": "link_prediction"}, mats)
    header, arrays = load_checkpoint(path)
    assert header["task"] == "link_prediction"
    assert [m["name"] for m in header["matrices"]] == ["a", "b"]
    assert np.array_equal(arrays[0], mats[0][1])
    assert arrays[0].dtype == np.float64

    bogus = tmp_path / "bogus.ckpt"
    bogus.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_checkpoint(str(bogus))

    blob = (tmp_path / "m.ckpt").read_bytes()
    truncated = tmp_path / "short.ckpt"
    # inside the version and header-length words, inside the header, in a matrix
    for size in (10, 14, 20, len(blob) - 4):
        truncated.write_bytes(blob[:size])
        with pytest.raises(ValueError) as err:
            load_checkpoint(str(truncated))
        assert str(err.value) == f"{truncated}: truncated checkpoint"
