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

CHECKPOINT_VERSION = 4


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


def _read_json(path: str, what: str):
    """The JSON value in ``path``; a file that cannot be read or parsed is a
    config error naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, too deep
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc}") from None


def _parse_run(raw, seed: int | None = None, repeats: int | None = None):
    """A run config read from JSON: the dataset's build and name, the model and
    train configs, and the resolved config."""
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
    return build, name, model_cfg, train_cfg, resolved


def _digests(ds: dict) -> dict:
    """The SHA-256 hex digest of each file the dataset section names, by its key."""
    digests = {}
    for key, path in ds.items():
        if key.endswith("path") and path is not None:
            try:
                with open(path, "rb") as fh:
                    digests[key] = hashlib.sha256(fh.read()).hexdigest()
            except OSError as exc:
                raise ConfigError(f"cannot read dataset.{key}: {exc}") from None
    return digests


def _check_outputs(ds: dict, outputs: dict, inputs: dict) -> None:
    """Before any work, reject an output that would replace an input or an
    earlier output, or whose directory does not exist; a None output is unset."""
    files = {f"dataset.{key}": path for key, path in ds.items() if key.endswith("path")}
    named = {os.path.realpath(p): flag for flag, p in {**files, **inputs}.items() if p is not None}
    for flag, path in outputs.items():
        if path is None:
            continue
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise ConfigError(f"{flag} {path}: {parent} is not an existing directory")
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


def save_checkpoint(path: str, record: dict, matrices: list) -> None:
    """One JSON object: the version, ``record``'s keys, then ``matrices``, each
    (name, array) as its list of rows; repr round-trips every float64."""
    _write_json(path, {"version": CHECKPOINT_VERSION, **record, "matrices": [
        {"name": name, "rows": a.tolist()} for name, a in matrices]})


def load_checkpoint(path: str) -> tuple[dict, list[np.ndarray]]:
    """A checkpoint's record and its matrices as float64 arrays."""
    record = _read_json(path, "checkpoint")
    if not isinstance(record, dict) or record.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(f"cannot read checkpoint: {path}: "
                          f"not a version {CHECKPOINT_VERSION} checkpoint")
    specs = record.get("matrices")
    if not isinstance(specs, list) or not all(
            isinstance(spec, dict) and _is_matrix(spec.get("rows")) for spec in specs):
        raise ConfigError(f"cannot read checkpoint: {path}: malformed matrices")
    return record, [np.array(spec["rows"], dtype=np.float64) for spec in specs]


def _is_matrix(rows) -> bool:
    """Whether ``rows`` is a non-empty list of equally long lists of finite
    JSON numbers; np.array alone would take numeric strings and booleans."""
    return (isinstance(rows, list) and len(rows) > 0
            and all(isinstance(row, list) and len(row) == len(rows[0]) for row in rows)
            and all(type(x) in (int, float) and abs(x) <= sys.float_info.max
                    for row in rows for x in row))


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
    grid = ds["kind"] == "grid"
    labels_path = None if grid else os.path.splitext(args.out)[0] + ".labels"
    _check_outputs(ds, {"--out": args.out, "its labels file": labels_path}, {})
    g = build()
    header = f"grid {ds['rows']}x{ds['cols']}" if grid else "communities " + " ".join(
        f"{key}={value}" for key, value in ds.items() if key != "kind")
    write_edge_list(args.out, g, header)
    if labels_path:
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
    build, name, model_cfg, train_cfg, resolved = _parse_run(
        _read_json(args.config, "config"), args.seed, args.repeats)
    ckpt_path = args.checkpoint or os.path.splitext(args.out)[0] + ".ckpt"
    _check_outputs(resolved["dataset"], {"--out": args.out, "--checkpoint": ckpt_path},
                   {"--config": args.config})
    digests = _digests(resolved["dataset"])
    g, split = _build_split(build, name, resolved)
    t0 = time.perf_counter()
    metrics = run_experiment(g, split, model_cfg, train_cfg, dataset=name)
    elapsed = time.perf_counter() - t0
    payload = metrics.to_dict()
    payload["wall_time_s"] = None
    payload["config"] = resolved
    _write_json(args.out, payload)
    best = max(metrics.per_repeat, key=lambda r: (r.val_auc, -r.repeat))
    save_checkpoint(ckpt_path, {"config": resolved, "sha256": digests,
                                "anchor_seed": best.anchor_seed,
                                "best_epoch": best.best_epoch, "repeat": best.repeat},
                    _named_matrices(resolved["model"], best.snapshot))
    print(f"wall_time_s={elapsed:.3f}", file=sys.stderr)
    return 0


def _cmd_eval(args) -> int:
    record, arrays = load_checkpoint(args.checkpoint)
    try:
        build, name, model_cfg, train_cfg, resolved = _parse_run(record.get("config"))
    except ConfigError as exc:
        raise ConfigError(f"cannot read checkpoint: {args.checkpoint}: {exc}") from None
    _check_outputs(resolved["dataset"], {"--out": args.out}, {"--checkpoint": args.checkpoint})
    digests = _digests(resolved["dataset"])
    if record.get("sha256") != digests:
        raise ConfigError(f"dataset sha256 {digests!r} does not match checkpoint sha256 "
                          f"{record.get('sha256')!r}: a dataset file changed since training")
    # a PGNN redraws its family from the seed; the GCN has none to draw
    seed = record.get("anchor_seed", "")
    if not (type(seed) is int and seed >= 0 if isinstance(model_cfg, PGNNConfig)
            else seed is None):
        raise ConfigError(f"cannot read checkpoint: {args.checkpoint}: malformed anchor_seed")
    g, split = _build_split(build, name, resolved)
    init = init_pgnn_params if isinstance(model_cfg, PGNNConfig) else init_gcn_params
    width = _forward_graph(g, split, train_cfg.setting).features.shape[1]
    fits = [p.shape for p in init(width, model_cfg, np.random.default_rng(0))]
    shapes = [a.shape for a in arrays]
    if shapes != fits:
        raise ConfigError(f"cannot read checkpoint: {args.checkpoint}: matrix shapes "
                          f"{shapes} do not fit the model's {fits}")
    val_auc, test_auc = evaluate(g, split, model_cfg, train_cfg.setting, arrays, seed)
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
    _check_outputs(ds, {"--out": args.out}, {})
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
    _check_outputs({}, {"--out": args.out}, {})
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

    ev = sub.add_parser("eval", help="validation and test AUC of a checkpoint on the "
                        "split of the run it stores")
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
