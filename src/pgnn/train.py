"""Link and pairwise-classification experiments with full-batch Adam.

A run repeats training ``repeats`` times from seeds seed+0 .. seed+r-1,
tracks validation AUC every epoch, snapshots the parameters (and, for the
position-aware model, the anchor family) at the best validation epoch with
earliest-epoch tie breaking, and reports the test AUC of that snapshot.
The position-aware model draws one anchor family per epoch (only epoch 0's
without ``resample_anchors``), seeded by (run seed, epoch, 0), and that
epoch's validation forward reuses it, so every run is replayable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .graph import EdgeSplit, Graph, augment_one_hot, constant_features
from .metric import AnchorFamily, sample_anchor_family
from .model import (Embeddings, GCNConfig, PGNNConfig, gcn_forward,
                    init_gcn_params, init_pgnn_params, make_distance_input,
                    pgnn_forward)
from .tensor import Tape, Value, adam_step

SETTINGS = ("transductive", "inductive")


@dataclass(frozen=True)
class TrainConfig:
    """Optimization protocol; epochs == 0 evaluates the initialization."""

    epochs: int = 200
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    repeats: int = 10
    setting: str = "inductive"

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        # each check is written so that NaN fails it
        for name in ("lr", "eps"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.setting not in SETTINGS:
            raise ValueError(f"setting must be one of {SETTINGS}, got {self.setting!r}")


@dataclass(frozen=True)
class EpochRecord:
    loss: float
    val_auc: float


@dataclass(frozen=True)
class RepeatResult:
    repeat: int
    test_auc: float
    val_auc: float
    best_epoch: int
    train_loss: float
    epoch_log: tuple[EpochRecord, ...]
    # best-validation snapshot, kept out of the serialized metrics
    snapshot: tuple[np.ndarray, ...] = ()
    anchor_seed: int | None = None


@dataclass(frozen=True)
class Metrics:
    """Aggregated results; mean/std are over the per-repeat test AUCs."""

    task: str
    dataset: str
    model: str
    setting: str
    repeats: int
    per_repeat: tuple[RepeatResult, ...]
    mean_auc: float
    std_auc: float

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "dataset": self.dataset,
            "model": self.model,
            "setting": self.setting,
            "repeats": self.repeats,
            "per_repeat": [
                {"repeat": r.repeat, "test_auc": r.test_auc, "val_auc": r.val_auc,
                 "best_epoch": r.best_epoch, "train_loss": r.train_loss}
                for r in self.per_repeat
            ],
            "mean_auc": self.mean_auc,
            "std_auc": self.std_auc,
        }


def pair_score(emb, u: int, v: int) -> float:
    """Symmetric inner-product logit between two embedding rows."""
    z = emb.z.data if isinstance(emb, Embeddings) else np.asarray(emb)
    if not (0 <= u < z.shape[0] and 0 <= v < z.shape[0]):
        raise ValueError(f"pair ({u}, {v}) out of range for {z.shape[0]} rows")
    return float(z[u] @ z[v])


def _pair_index(pos, neg) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Endpoints u and v of the pairs pos + neg, and their 1/0 labels."""
    ends = np.fromiter(chain.from_iterable(chain(pos, neg)), np.int64,
                       2 * (len(pos) + len(neg)))
    labels = np.concatenate([np.ones(len(pos), dtype=np.int64),
                             np.zeros(len(neg), dtype=np.int64)])
    return ends[0::2], ends[1::2], labels


def epoch_loss(tape: Tape, z: Value, pos_pairs, neg_pairs) -> Value:
    """Mean BCE over inner-product logits: positives target 1, negatives 0."""
    us, vs, labels = _pair_index(pos_pairs, neg_pairs)
    if not labels.size:
        raise ValueError("epoch_loss needs at least one pair")
    zu = tape.gather_rows(z, us)
    zv = tape.gather_rows(z, vs)
    prod = tape.hadamard(zu, zv)
    logits = tape.matmul(prod, tape.leaf(np.ones((z.shape[1], 1))))
    return tape.bce_with_logits(logits, labels)


def roc_auc(scores, labels) -> float:
    """Exact ROC AUC by rank statistics; tied scores count one half.

    Raises ValueError when only one class is present (the area is undefined)
    and on NaN or Inf scores, which an overflowed forward gives.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.ndim != 1 or y.shape != s.shape:
        raise ValueError(f"scores {s.shape} and labels {y.shape} must be equal-length vectors")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite (no NaN/Inf)")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("labels must be 0 or 1")
    p = int((y == 1).sum())
    q = s.size - p
    if p == 0 or q == 0:
        raise ValueError("roc_auc is undefined when only one class is present")
    # 1-based rank of each score, averaged over its block of ties
    sorted_s = np.sort(s)
    ranks = 0.5 * (np.searchsorted(sorted_s, s, side="left")
                   + np.searchsorted(sorted_s, s, side="right") + 1)
    pos_rank_sum = ranks[y == 1].sum()
    return float((pos_rank_sum - p * (p + 1) / 2.0) / (p * q))


# ----------------------------------------------------------------------
# experiment harness


def _forward_graph(g: Graph, split: EdgeSplit, setting: str) -> Graph:
    """Graph the model actually sees: train-only edges for link prediction,
    one-hot ids when transductive, constant scalar otherwise (unless the
    graph brings its own features)."""
    if split.task == "link_prediction":
        base = Graph.from_edges(g.n, split.train_pos,
                                features=g.features, labels=g.labels)
    else:
        base = g
    if setting == "transductive":
        return augment_one_hot(base)
    if base.features is not None:
        return base
    return constant_features(base)


def _anchor_seed(run_seed: int, epoch: int, forward_idx: int) -> int:
    ss = np.random.SeedSequence((run_seed, epoch, forward_idx))
    return int(ss.generate_state(1)[0])


def model_label(model_cfg) -> str:
    if isinstance(model_cfg, PGNNConfig):
        return f"pgnn-{model_cfg.variant[0]}-{model_cfg.layers}l"
    return f"gcn-{model_cfg.layers}l"


def _prepare(g: Graph, split: EdgeSplit, model_cfg, setting: str):
    """The forward graph and, for the position-aware model, its distance input."""
    if not isinstance(model_cfg, (PGNNConfig, GCNConfig)):
        raise TypeError(f"unsupported model config {type(model_cfg).__name__}")
    fg = _forward_graph(g, split, setting)
    dm = make_distance_input(fg, model_cfg) if isinstance(model_cfg, PGNNConfig) else None
    return fg, dm


def _family(fg: Graph, model_cfg, seed: int | None) -> AnchorFamily | None:
    """The anchor family drawn from ``seed``; None for the GCN, which has none."""
    if isinstance(model_cfg, PGNNConfig):
        return sample_anchor_family(fg.n, model_cfg.anchor_c, seed)
    return None


def _embed(tape: Tape, fg: Graph, dm, fam, params, model_cfg) -> Value:
    """The embeddings pairs are scored on: the PGNN's Z or the GCN's last h."""
    if isinstance(model_cfg, PGNNConfig):
        return pgnn_forward(tape, fg, dm, fam, params, model_cfg).z
    return gcn_forward(tape, fg, params, model_cfg.layers)


def _auc(z: np.ndarray, pos, neg) -> float:
    """ROC AUC of the inner-product scores of pos (label 1) against neg (0)."""
    us, vs, labels = _pair_index(pos, neg)
    return roc_auc((z[us] * z[vs]).sum(axis=1), labels)


def evaluate(g: Graph, split: EdgeSplit, model_cfg, setting: str, params,
             anchor_seed: int | None) -> tuple[float, float]:
    """Validation and test AUC of ``params`` with the family drawn from ``anchor_seed``."""
    fg, dm = _prepare(g, split, model_cfg, setting)
    z = _embed(Tape(), fg, dm, _family(fg, model_cfg, anchor_seed), params, model_cfg).data
    return _auc(z, split.val_pos, split.val_neg), _auc(z, split.test_pos, split.test_neg)


def _run_single(fg: Graph, dm, split: EdgeSplit, model_cfg, tc: TrainConfig,
                run_seed: int, repeat_idx: int) -> RepeatResult:
    init = init_pgnn_params if isinstance(model_cfg, PGNNConfig) else init_gcn_params
    plist = init(fg.features.shape[1], model_cfg, np.random.default_rng(run_seed))
    fam = _family(fg, model_cfg, _anchor_seed(run_seed, 0, 0))
    # the GCN draws no family, so it has none to redraw
    resample = getattr(model_cfg, "resample_anchors", False)
    state = None
    best_auc, best_epoch = -math.inf, 0
    best_arrays, best_fam, best_z = plist, fam, None
    log: list[EpochRecord] = []
    last_loss = math.nan

    for epoch in range(1, tc.epochs + 1):
        if resample:
            fam = _family(fg, model_cfg, _anchor_seed(run_seed, epoch, 0))
        tape = Tape()
        leaves = [tape.leaf(p) for p in plist]
        z = _embed(tape, fg, dm, fam, plist, model_cfg)
        loss = epoch_loss(tape, z, split.train_pos, split.train_neg)
        last_loss = float(loss.data[0, 0])
        table = tape.backward(loss)
        grads = [table[leaf.id] for leaf in leaves]
        del tape, table, z, loss, leaves
        plist, state = adam_step(plist, grads, state,
                                 lr=tc.lr, beta1=tc.beta1, beta2=tc.beta2, eps=tc.eps)
        z = _embed(Tape(), fg, dm, fam, plist, model_cfg).data
        val_auc = _auc(z, split.val_pos, split.val_neg)
        log.append(EpochRecord(loss=last_loss, val_auc=val_auc))
        if val_auc > best_auc:
            best_auc, best_epoch = val_auc, epoch
            # adam_step returns new arrays, so the snapshot needs no copy
            best_arrays, best_fam, best_z = plist, fam, z

    if tc.epochs == 0:
        tape = Tape()
        z = _embed(tape, fg, dm, fam, plist, model_cfg)
        last_loss = float(epoch_loss(tape, z, split.train_pos,
                                     split.train_neg).data[0, 0])
        best_z = z.data
        best_auc = _auc(best_z, split.val_pos, split.val_neg)

    test_auc = _auc(best_z, split.test_pos, split.test_neg)
    return RepeatResult(repeat=repeat_idx, test_auc=test_auc, val_auc=best_auc,
                        best_epoch=best_epoch, train_loss=last_loss,
                        epoch_log=tuple(log), snapshot=tuple(best_arrays),
                        anchor_seed=None if best_fam is None else best_fam.seed)


def run_experiment(g: Graph, split: EdgeSplit, model_cfg, train_cfg: TrainConfig,
                   dataset: str = "graph") -> Metrics:
    """Train and evaluate ``repeats`` times; deterministic given the seeds."""
    fg, dm = _prepare(g, split, model_cfg, train_cfg.setting)
    per = []
    for r in range(train_cfg.repeats):
        per.append(_run_single(fg, dm, split, model_cfg, train_cfg,
                               train_cfg.seed + r, r))
    aucs = np.array([p.test_auc for p in per])
    return Metrics(task=split.task, dataset=dataset, model=model_label(model_cfg),
                   setting=train_cfg.setting, repeats=train_cfg.repeats,
                   per_repeat=tuple(per), mean_auc=float(aucs.mean()),
                   std_auc=float(aucs.std()))
