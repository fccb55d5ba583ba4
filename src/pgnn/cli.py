"""Command-line entry points: generate, train, eval, distortion, symmetry-demo.

Exit codes: 0 success, 1 configuration/validation error, 2 runtime error.
All JSON outputs use lowercase snake_case keys and are byte-identical across
repeated invocations with the same config and seed; volatile wall time goes
to stderr only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import struct
import sys
import time
from dataclasses import MISSING, fields
from typing import get_type_hints

import numpy as np

from .graph import (TASKS, Graph, check_caveman, check_grid, check_split,
                    component_sizes, connected_caveman, constant_features,
                    grid_graph, load_edge_list, load_feature_csv,
                    load_node_labels, split_pairs, write_edge_list,
                    write_node_labels)
from .metric import (AnchorFamily, DisconnectedGraphError, all_pairs,
                     bourgain_embed, measure_distortion, sample_anchor_family)
from .model import (GCNConfig, PGNNConfig, gcn_forward, init_gcn_params,
                    init_pgnn_params, pgnn_forward)
from .tensor import Tape
from .train import (SETTINGS, TrainConfig, _forward_graph, evaluate, model_label,
                    run_experiment)

CHECKPOINT_MAGIC = b"PGNNCKPT"
CHECKPOINT_VERSION = 3


class ConfigError(ValueError):
    """Configuration rejected before any computation."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


# ----------------------------------------------------------------------
# config handling


# kind -> (accepted JSON types, noun for the error); a bool is only a boolean.
# A spec maps key -> (kind, default); MISSING marks a required key, as it
# marks a dataclass field without a default.
_TYPES = {bool: (bool, "a boolean"), int: (int, "an integer"),
          float: ((int, float), "a number"), str: (str, "a string"), dict: (dict, "an object")}

_ROOT = {"dataset": (dict, MISSING), "task": (str, MISSING), "setting": (str, "inductive"),
         "split": (dict, {}), "model": (dict, MISSING), "train": (dict, {})}
_SPLIT = {"val_frac": (float, 0.1), "test_frac": (float, 0.1), "seed": (int, 0)}
_DATASETS = {
    "grid": {"rows": (int, MISSING), "cols": (int, MISSING)},
    "communities": {"n_comm": (int, MISSING), "comm_size": (int, MISSING),
                    "rewire_prob": (float, 0.01), "seed": (int, 0)},
    "edge_list": {"path": (str, MISSING), "labels_path": (str, None),
                  "features_path": (str, None)},
}
_MODELS = {"pgnn": PGNNConfig, "gcn": GCNConfig}


def _fields(cls, skip: str = "") -> dict:
    """The spec of a config dataclass: each field's type and default."""
    hints = get_type_hints(cls)
    return {f.name: (hints[f.name], f.default) for f in fields(cls) if f.name != skip}


def _get(section: dict, key: str, path: str, kind, default=MISSING):
    if key not in section:
        if default is MISSING:
            raise ConfigError(f"missing config key: {path}{key}")
        return default
    value = section[key]
    if value is None and default is None:
        return None
    types, noun = _TYPES[kind]
    if not isinstance(value, types) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"config key {path}{key} must be {noun}")
    return float(value) if kind is float else value


def _section(section: dict, path: str, spec: dict) -> dict:
    """``section`` read by ``spec``, in spec order."""
    for key in section:
        if key not in spec:
            raise ConfigError(f"unknown config key: {path}{key}")
    return {key: _get(section, key, path, kind, default)
            for key, (kind, default) in spec.items()}


def _kind_section(section: dict, path: str, specs: dict):
    """Its ``kind`` and ``section`` read by that kind's spec in ``specs``."""
    kind = _get(section, "kind", path, str)
    if kind not in specs:
        raise ConfigError(f"config key {path}kind has unsupported value {kind!r}")
    return kind, _section(section, path, {"kind": (str, MISSING), **specs[kind]})


def _parse_dataset(section: dict):
    """The dataset's build, name, resolved section and whether it has labels."""
    kind, ds = _kind_section(section, "dataset.", _DATASETS)
    if kind == "grid":
        _check_dataset(check_grid, ds["rows"], ds["cols"])
        build = lambda: grid_graph(ds["rows"], ds["cols"])
        name, labelled = f"grid-{ds['rows']}x{ds['cols']}", False
    elif kind == "communities":
        _check_dataset(check_caveman, ds["n_comm"], ds["comm_size"], ds["rewire_prob"],
                       ds["seed"])
        build = lambda: connected_caveman(ds["n_comm"], ds["comm_size"],
                                          ds["rewire_prob"], ds["seed"])
        name, labelled = f"communities-{ds['n_comm']}x{ds['comm_size']}", True
    else:
        labelled = bool(ds["labels_path"])

        def build():  # a file that cannot be loaded is a config error
            try:
                g = load_edge_list(ds["path"])
                features_path = ds["features_path"]
                labels = load_node_labels(ds["labels_path"], g.n) if labelled else None
                feats = load_feature_csv(features_path, g.n) if features_path else None
                return Graph(n=g.n, adjacency=g.adjacency, features=feats, labels=labels)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"dataset {name} cannot be loaded: {exc}") from None

        name = os.path.splitext(os.path.basename(ds["path"]))[0]
    return build, name, ds, labelled


def _check_dataset(check, *args) -> None:
    try:
        check(*args)
    except ValueError as exc:
        raise ConfigError(f"dataset.{exc}") from None


def _parse_run_config(path: str, seed: int | None = None, repeats: int | None = None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    resolved = _section(raw, "", _ROOT)
    build, name, resolved["dataset"], labelled = _parse_dataset(resolved["dataset"])
    for key, allowed in (("task", TASKS), ("setting", SETTINGS)):
        if resolved[key] not in allowed:
            raise ConfigError(f"config key {key} has unsupported value {resolved[key]!r}")
    if resolved["task"] == "pairwise_node_classification" and not labelled:
        raise ConfigError(f"pairwise_node_classification needs node labels, and dataset "
                          f"{resolved['dataset']['kind']} has none")
    split = resolved["split"] = _section(resolved["split"], "split.", _SPLIT)
    kind, resolved["model"] = _kind_section(
        resolved["model"], "model.", {kind: _fields(cls) for kind, cls in _MODELS.items()})
    train = resolved["train"] = _section(resolved["train"], "train.",
                                         _fields(TrainConfig, skip="setting"))
    if seed is not None:
        train["seed"] = seed
    if repeats is not None:
        train["repeats"] = repeats
    try:
        model_cfg = _MODELS[kind](**{k: v for k, v in resolved["model"].items() if k != "kind"})
        train_cfg = TrainConfig(**train, setting=resolved["setting"])
        check_split(*split.values())
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    for key in ("val_frac", "test_frac"):
        if split[key] == 0:
            raise ConfigError(f"split.{key} must be > 0, got {split[key]}: "
                              "an empty split has no AUC")
    return build, name, model_cfg, train_cfg, resolved, _run_identity(resolved)


def _run_identity(resolved: dict) -> dict:
    """What ties a checkpoint to its run: the resolved config but its ``train``
    section, and ``sha256``, the digest of each dataset file by its key."""
    identity = {key: value for key, value in resolved.items() if key != "train"}
    identity["sha256"] = {}
    for key, path in resolved["dataset"].items():
        if key.endswith("path") and path is not None:
            try:
                with open(path, "rb") as fh:
                    identity["sha256"][key] = hashlib.sha256(fh.read()).hexdigest()
            except OSError as exc:
                raise ConfigError(f"cannot read dataset.{key}: {exc}") from None
    return identity


def _check_outputs(ds: dict, outputs: dict, inputs: dict) -> None:
    """Before any work, reject an output that would replace an input or an earlier output."""
    files = {f"dataset.{key}": path for key, path in ds.items() if key.endswith("path")}
    named = {os.path.realpath(p): flag for flag, p in {**files, **inputs}.items() if p is not None}
    for flag, path in outputs.items():
        other = named.setdefault(os.path.realpath(path), flag)
        if other != flag:
            raise ConfigError(f"{flag} and {other} name the same file: {path}")


# ----------------------------------------------------------------------
# output helpers


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    return obj


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(_sanitize(payload), indent=2) + "\n"
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# checkpoints


def save_checkpoint(path: str, header: dict, matrices: list[np.ndarray]) -> None:
    """Binary dump: magic, version, JSON header with shapes, row-major float64."""
    header = dict(header)
    header["matrices"] = [{"name": name, "rows": int(a.shape[0]),
                           "cols": int(a.shape[1])}
                          for name, a in matrices]
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        for _, a in matrices:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())
    os.replace(tmp, path)


def load_checkpoint(path: str) -> tuple[dict, list[np.ndarray]]:
    with open(path, "rb") as fh:
        def read(size: int) -> bytes:
            raw = fh.read(size)
            if len(raw) != size:
                raise ValueError(f"{path}: truncated checkpoint")
            return raw

        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        version, hlen = struct.unpack("<II", read(8))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        header = json.loads(read(hlen).decode("utf-8"))
        specs = header.get("matrices") if isinstance(header, dict) else None
        if not isinstance(specs, list) or not all(
                isinstance(spec, dict) and all(type(spec.get(key)) is int and spec[key] >= 0
                                               for key in ("rows", "cols"))
                for spec in specs):
            raise ValueError(f"{path}: malformed checkpoint header")
        # checked before any read, so a huge declared shape allocates nothing
        if sum(spec["rows"] * spec["cols"] * 8 for spec in specs) > (
                os.fstat(fh.fileno()).st_size - fh.tell()):
            raise ValueError(f"{path}: truncated checkpoint")
        matrices = [np.frombuffer(read(spec["rows"] * spec["cols"] * 8), dtype="<f8")
                    .reshape(spec["rows"], spec["cols"]).copy()
                    for spec in specs]
    return header, matrices


# ----------------------------------------------------------------------
# commands


def _dataset_section(args) -> dict:
    """The config ``dataset`` section named by a command's positional arguments."""
    if args.dataset == "grid":
        return {"kind": "grid", "rows": args.rows, "cols": args.cols}
    if args.dataset == "communities":
        return {"kind": "communities", "n_comm": args.n_comm,
                "comm_size": args.comm_size, "rewire_prob": args.rewire_prob,
                "seed": args.seed}
    return {"kind": "edge_list", "path": args.path}


def _cmd_generate(args) -> int:
    build, _, ds, _ = _parse_dataset(_dataset_section(args))
    if ds["kind"] == "grid":
        write_edge_list(args.out, build(), f"grid {ds['rows']}x{ds['cols']}")
    else:
        labels_path = os.path.splitext(args.out)[0] + ".labels"
        _check_outputs(ds, {"--out": args.out, "its labels file": labels_path}, {})
        g = build()
        header = "communities " + " ".join(
            f"{key}={value}" for key, value in ds.items() if key != "kind")
        write_edge_list(args.out, g, header)
        write_node_labels(labels_path, g, header)
    return 0


def _named_matrices(model_resolved: dict, arrays) -> list:
    """(name, array) pairs; a PGNN list holds each layer's w_msg, then the last layer's w."""
    names = [f"layer{i}.w" for i in range(len(arrays))]
    if model_resolved["kind"] == "pgnn":  # L + 1 arrays, so w is layer L - 1's
        names = [f"layer{i}.w_msg" for i in range(len(arrays) - 1)] + [names[-2]]
    return list(zip(names, arrays))


def _build_split(build, name, resolved):
    """The dataset's graph and its pair split; a split that this graph cannot
    populate is a config error."""
    g = build()
    try:
        return g, split_pairs(g, resolved["task"], *resolved["split"].values())
    except ValueError as exc:
        raise ConfigError(f"dataset {name} cannot be split: {exc}") from None


def _cmd_train(args) -> int:
    build, name, model_cfg, train_cfg, resolved, identity = _parse_run_config(
        args.config, args.seed, args.repeats)
    ckpt_path = args.checkpoint or os.path.splitext(args.out)[0] + ".ckpt"
    _check_outputs(resolved["dataset"], {"--out": args.out, "--checkpoint": ckpt_path},
                   {"--config": args.config})
    g, split = _build_split(build, name, resolved)
    t0 = time.perf_counter()
    metrics = run_experiment(g, split, model_cfg, train_cfg, dataset=name)
    elapsed = time.perf_counter() - t0
    payload = metrics.to_dict()
    payload["wall_time_s"] = None
    payload["config"] = resolved
    _write_json(args.out, payload)
    best = max(metrics.per_repeat, key=lambda r: (r.val_auc, -r.repeat))
    save_checkpoint(ckpt_path, {**identity, "anchor_seed": best.anchor_seed,
                                "best_epoch": best.best_epoch, "repeat": best.repeat},
                    _named_matrices(resolved["model"], best.snapshot))
    print(f"wall_time_s={elapsed:.3f}", file=sys.stderr)
    return 0


def _cmd_eval(args) -> int:
    build, name, model_cfg, train_cfg, resolved, identity = _parse_run_config(args.config)
    _check_outputs(resolved["dataset"], {"--out": args.out},
                   {"--config": args.config, "--checkpoint": args.checkpoint})
    try:
        header, arrays = load_checkpoint(args.checkpoint)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read checkpoint: {exc}") from None
    for key, ours in identity.items():
        if header.get(key) != ours:
            raise ConfigError(f"config {key} {ours!r} does not match "
                              f"checkpoint {key} {header.get(key)!r}")
    # a PGNN redraws its family from the seed; the GCN has none to draw
    wants = int if isinstance(model_cfg, PGNNConfig) else type(None)
    if type(header.get("anchor_seed", "")) is not wants:
        raise ConfigError(f"cannot read checkpoint: {args.checkpoint}: "
                          "malformed checkpoint header")
    g, split = _build_split(build, name, resolved)
    init = init_pgnn_params if isinstance(model_cfg, PGNNConfig) else init_gcn_params
    width = _forward_graph(g, split, train_cfg.setting).features.shape[1]
    fits = [p.shape for p in init(width, model_cfg, np.random.default_rng(0))]
    shapes = [a.shape for a in arrays]
    if shapes != fits:
        raise ConfigError(f"cannot read checkpoint: {args.checkpoint}: matrix shapes "
                          f"{shapes} do not fit the model's {fits}")
    val_auc, test_auc = evaluate(g, split, model_cfg, train_cfg.setting, arrays,
                                 header["anchor_seed"])
    payload = {
        "task": resolved["task"],
        "dataset": name,
        "model": model_label(model_cfg),
        "setting": train_cfg.setting,
        "val_auc": val_auc,
        "test_auc": test_auc,
        "config": resolved,
    }
    _write_json(args.out, payload)
    return 0


def _cmd_distortion(args) -> int:
    if args.repeats < 1:
        raise ConfigError(f"--repeats must be >= 1, got {args.repeats}")
    if not 0 < args.anchor_c < math.inf:
        raise ConfigError(f"--anchor-c must be finite and > 0, got {args.anchor_c}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    build, name, ds, _ = _parse_dataset(_dataset_section(args))
    if ds["kind"] == "grid" and ds["rows"] * ds["cols"] < 2:
        raise ConfigError("distortion needs at least 2 nodes, got dataset.rows x "
                          f"dataset.cols = {ds['rows']}x{ds['cols']}")
    g = build()
    if g.n < 2:
        raise ConfigError(f"distortion needs at least 2 nodes, got n = {g.n} in {name}")
    sizes = component_sizes(g.adjacency)
    if len(sizes) > 1:
        raise DisconnectedGraphError(
            f"{name}: graph has {len(sizes)} components with sizes {sizes}")
    p = math.inf if args.p == "inf" else int(args.p)
    dm = all_pairs(g)
    per = []
    for t in range(args.repeats):
        fam = sample_anchor_family(g.n, args.anchor_c, args.seed + t)
        emb = bourgain_embed(dm, fam)
        expansion, contraction, distortion = measure_distortion(dm, emb, p)
        per.append({"expansion": expansion, "contraction": contraction,
                    "distortion": distortion})
    payload = {
        "n": g.n,
        "c": args.anchor_c,
        "p": "inf" if p == math.inf else p,
        "k": fam.k,
        "repeats": args.repeats,
        "per_repeat": per,
        "expansion": _stats([r["expansion"] for r in per]),
        "contraction": _stats([r["contraction"] for r in per]),
        "distortion": _stats([r["distortion"] for r in per]),
    }
    if args.out:
        _write_json(args.out, payload)
    else:
        print(json.dumps(_sanitize(payload), indent=2))
    return 0


def _stats(values: list[float]) -> dict:
    if any(math.isinf(v) for v in values):
        return {"mean": math.inf, "max": math.inf}
    return {"mean": float(np.mean(values)), "max": float(np.max(values))}


def symmetry_report() -> dict:
    """Positional dichotomy on the 5-node path with constant features."""
    g = constant_features(Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))
    gcn_w = init_gcn_params(1, GCNConfig(layers=2, message_dim=8),
                            np.random.default_rng(0))
    h = gcn_forward(Tape(), g, gcn_w, 2).data
    gcn_gap = float(np.linalg.norm(h[0] - h[4]))
    cfg = PGNNConfig(layers=2, anchor_c=1.0, variant="exact", message_dim=8,
                     closest_node_agg=True, resample_anchors=False)
    params = init_pgnn_params(1, cfg, np.random.default_rng(0))
    fam = AnchorFamily(sets=((0,),), provenance=((1, 1),), c=1.0, seed=0)
    emb = pgnn_forward(Tape(), g, all_pairs(g), fam, params, cfg)
    z = emb.z.data
    pgnn_gap = float(np.linalg.norm(z[0] - z[4]))
    return {
        "gcn_gap": gcn_gap,
        "pgnn_gap": pgnn_gap,
        "positional_contrast": bool(gcn_gap == 0.0 and pgnn_gap > 1e-6),
    }


def _cmd_symmetry_demo(args) -> int:
    payload = symmetry_report()
    if args.out:
        _write_json(args.out, payload)
    print(json.dumps(_sanitize(payload), indent=2))
    return 0 if payload["positional_contrast"] else 2


# ----------------------------------------------------------------------
# argument parsing


def _add_dataset_subparsers(sub):
    grid = sub.add_parser("grid", help="2-d lattice")
    grid.add_argument("rows", type=int)
    grid.add_argument("cols", type=int)
    comm = sub.add_parser("communities", help="ring of rewired cliques")
    comm.add_argument("n_comm", type=int)
    comm.add_argument("comm_size", type=int)
    comm.add_argument("rewire_prob", type=float)
    return grid, comm


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pgnn",
                     description="Position-aware GNN experiments on synthetic graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    gen_parent = sub.add_parser("generate", help="write synthetic datasets to disk")
    gen_sub = gen_parent.add_subparsers(dest="dataset", required=True)
    g_grid, g_comm = _add_dataset_subparsers(gen_sub)
    g_comm.add_argument("--seed", type=int, default=0)
    for sp in (g_grid, g_comm):
        sp.add_argument("--out", required=True, help="edge-list output path")
        sp.set_defaults(func=_cmd_generate)

    tr = sub.add_parser("train", help="run a training experiment from a JSON config")
    tr.add_argument("--config", required=True)
    tr.add_argument("--seed", type=int, default=None, help="override train.seed")
    tr.add_argument("--repeats", type=int, default=None, help="override train.repeats")
    tr.add_argument("--out", default="metrics.json", help="metrics JSON path")
    tr.add_argument("--checkpoint", default=None,
                    help="checkpoint path (default: metrics path with .ckpt)")
    tr.set_defaults(func=_cmd_train)

    ev = sub.add_parser("eval", help="validation and test AUC of a checkpoint on its "
                        "config's split (the config's train section is echoed only)")
    ev.add_argument("--config", required=True)
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--out", default="eval.json")
    ev.set_defaults(func=_cmd_eval)

    dist = sub.add_parser("distortion",
                          help="anchor-distance embedding distortion statistics")
    dist_sub = dist.add_subparsers(dest="dataset", required=True)
    d_grid, d_comm = _add_dataset_subparsers(dist_sub)
    d_edge = dist_sub.add_parser("edge-list", help="load from an edge-list file")
    d_edge.add_argument("path")
    for sp in (d_grid, d_comm, d_edge):
        sp.add_argument("--anchor-c", type=float, default=1.0, dest="anchor_c")
        sp.add_argument("--p", choices=["1", "2", "inf"], default="1")
        sp.add_argument("--repeats", type=int, default=5)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None)
        sp.set_defaults(func=_cmd_distortion)

    sym = sub.add_parser("symmetry-demo",
                         help="positional dichotomy on a 5-node path")
    sym.add_argument("--out", default=None)
    sym.set_defaults(func=_cmd_symmetry_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
