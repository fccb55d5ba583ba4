"""Per-layer metrics of a traced protocol run, measured from outside pgnn.

:class:`Probe` wraps pgnn's public callables in the namespace each caller
looks them up in (``pgnn.train.pgnn_forward``, ``pgnn.cli.all_pairs``, the
``Tape`` op methods, ...) and derives the per-layer metrics below from the
recorded spans and from the public objects passed through those calls.
Every ``_ms`` metric is the total time of one protocol run in that layer;
``.calls`` and ``.out_bytes`` are totals of one run as well.

``PER_LAYER`` maps each metric to its unit, its better direction and the
end-to-end metric it is predicted to move, on which workload.
"""

from __future__ import annotations

import weakref
from collections import Counter, defaultdict

TAPE_OPS = ("matmul", "add", "hadamard", "scale_rows", "concat_cols",
            "gather_rows", "relu", "bce_with_logits", "leaf")

PER_LAYER: dict[str, tuple[str, str, str]] = {
    "graph.generate_ms": ("ms", "lower", "setup_s on communities-pairs"),
    "graph.split_pairs_ms": ("ms", "lower", "setup_s on communities-pairs"),
    # all_pairs and all_pairs_within (the fast variant's oracle) in one metric,
    # so that no time metric is structurally zero on some workload
    "metric.all_pairs_ms": ("ms", "lower", "setup_s and protocol_s on communities-pairs; "
                            "all_pairs_within: setup_s on meanagg-fast"),
    "metric.bourgain_embed_ms": ("ms", "lower", "protocol_s on the 20x20 workloads"),
    "metric.measure_distortion_ms": ("ms", "lower", "protocol_s on the 20x20 workloads"),
    "metric.sample_anchor_family_ms": ("ms", "lower", "pgnn_epoch_ms; under 1%, so no move"),
    "model.pgnn_forward_train_ms": ("ms", "lower", "pgnn_epoch_ms: closest-member path on "
                                    "the 20x20 workloads, full-context path on meanagg-fast"),
    "model.pgnn_forward_eval_ms": ("ms", "lower", "as model.pgnn_forward_train_ms"),
    "model.gcn_forward_ms": ("ms", "lower", "gcn_epoch_ms on communities-pairs"),
    "tensor.backward_ms": ("ms", "lower", "pgnn_epoch_ms and gcn_epoch_ms"),
    "tensor.adam_step_ms": ("ms", "lower", "no move"),
    **{f"tensor.op.{kind}.{what}": (unit, "lower", effect)
       for kind, effect in (
           ("matmul", "pgnn_epoch_ms and peak_rss_mb on grid-link"),
           ("add", "pgnn_epoch_ms"),
           ("hadamard", "both epoch metrics on communities-pairs"),
           ("scale_rows", "pgnn_epoch_ms"),
           ("concat_cols", "pgnn_epoch_ms and peak_rss_mb on grid-link"),
           ("gather_rows", "gcn_epoch_ms on communities-pairs"),
           ("relu", "pgnn_epoch_ms"),
           ("bce_with_logits", "no move"),
           ("leaf", "pgnn_epoch_ms"))
       for what, unit in (("calls", "count"), ("ms", "ms"), ("out_bytes", "bytes"))},
    "train.epoch_loss_ms": ("ms", "lower", "both epoch metrics on communities-pairs"),
    "train.roc_auc_ms": ("ms", "lower", "both epoch metrics on communities-pairs"),
    "train.run_experiment_self_ms": ("ms", "lower", "both epoch metrics"),
    "cli.distortion_self_ms": ("ms", "lower", "protocol_s on the 20x20 workloads"),
    "model.pgnn_tape_nodes": ("count", "lower", "pgnn_epoch_ms; mean tape nodes per forward"),
    "model.gcn_tape_nodes": ("count", "lower", "gcn_epoch_ms; mean tape nodes per forward"),
    "metric.empty_set_frac": ("frac", "lower", "none; share of empty anchor sets drawn"),
    "model.useful_msg_frac": ("frac", "higher",
                              "none; share of (node, set) messages with non-zero similarity"),
    "trace.overhead_s": ("s", "lower", "none; traced minus untraced protocol_s"),
    "train.pgnn_test_auc": ("auc", "higher", "none; quality guard, repeats exactly per seed"),
    "train.gcn_test_auc": ("auc", "higher", "none; quality guard, repeats exactly per seed"),
}

# metrics that are counts of work: they must repeat exactly for one seed
EXACT = tuple(name for name, (unit, _, _) in PER_LAYER.items()
              if unit in ("count", "bytes", "frac"))


def _tape_len(args) -> int:
    return len(args[0])


class Probe:
    """Installs the pgnn wrappers on a tracer and turns its spans into metrics."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self._forwards_by_tape = weakref.WeakKeyDictionary()  # Tape -> [span index]
        self._train_forwards: set[int] = set()
        # (span index, tape nodes added, distance matrix, family, closest_node_agg)
        self._pgnn_forwards: list[tuple] = []
        self._gcn_nodes: list[int] = []
        self._out_bytes: Counter = Counter()
        self._drawn_sets = 0
        self._empty_sets = 0

    def install(self) -> None:
        from pgnn import cli, graph, model, tensor, train

        wrap = self.tracer.wrap
        for ns in (graph, cli):
            wrap(ns, "grid_graph", "graph.grid_graph")
            wrap(ns, "connected_caveman", "graph.connected_caveman")
        wrap(graph, "constant_features", "graph.constant_features")
        wrap(graph, "split_pairs", "graph.split_pairs")
        for ns in (model, cli):
            wrap(ns, "all_pairs", "metric.all_pairs")
        wrap(model, "all_pairs_within", "metric.all_pairs_within")
        wrap(train, "sample_anchor_family", "metric.sample_anchor_family",
             after=self._on_family)
        wrap(cli, "sample_anchor_family", "metric.sample_anchor_family")
        wrap(cli, "bourgain_embed", "metric.bourgain_embed")
        wrap(cli, "measure_distortion", "metric.measure_distortion")
        wrap(train, "pgnn_forward", "model.pgnn_forward",
             before=_tape_len, after=self._on_pgnn_forward)
        wrap(train, "gcn_forward", "model.gcn_forward",
             before=_tape_len, after=self._on_gcn_forward)
        for kind in TAPE_OPS:
            wrap(tensor.Tape, kind, f"tensor.op.{kind}",
                 after=self._op_counter(kind))
        wrap(tensor.Tape, "backward", "tensor.backward", after=self._on_backward)
        wrap(train, "adam_step", "tensor.adam_step")
        wrap(train, "epoch_loss", "train.epoch_loss")
        wrap(train, "roc_auc", "train.roc_auc")
        wrap(train, "run_experiment", "train.run_experiment")
        wrap(cli, "main", "cli.main")

    # ------------------------------------------------------------------
    # hooks; they run after the span closes and keep no tape alive

    def _op_counter(self, kind: str):
        def after(_token, _idx, _args, result):
            self._out_bytes[kind] += result.data.nbytes
        return after

    def _on_family(self, _token, _idx, _args, fam) -> None:
        self._drawn_sets += fam.k
        self._empty_sets += sum(1 for members in fam.sets if not members)

    def _on_pgnn_forward(self, before, idx, args, _result) -> None:
        tape, _g, dm, fam, _params, cfg = args
        self._forwards_by_tape.setdefault(tape, []).append(idx)
        self._pgnn_forwards.append((idx, len(tape) - before, dm, fam,
                                    cfg.closest_node_agg))

    def _on_gcn_forward(self, before, _idx, args, _result) -> None:
        self._gcn_nodes.append(len(args[0]) - before)

    def _on_backward(self, _token, _idx, args, _result) -> None:
        # a forward whose tape is differentiated is a training forward
        self._train_forwards.update(self._forwards_by_tape.get(args[0], ()))

    # ------------------------------------------------------------------

    def _useful_msg_frac(self) -> float:
        """Share of computed (node, member-or-set) messages that can reach."""
        from pgnn.metric import UNREACHABLE

        useful = total = 0
        for _, _, dm, fam, closest in self._pgnn_forwards:
            for members in fam.sets:
                if not members:
                    continue
                reach = dm.d[:, list(members)] != UNREACHABLE
                if closest:
                    useful += int(reach.any(axis=1).sum())
                    total += dm.n
                else:
                    useful += int(reach.sum())
                    total += reach.size
        return useful / total if total else 0.0

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far (trace.overhead_s excluded)."""
        spans = self.tracer.spans
        total: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _), self_s in zip(spans, self.tracer.self_times()):
            total[name] += end - start
            own[name] += self_s
            calls[name] += 1

        def ms(*names) -> float:
            return 1000.0 * sum(total[n] for n in names)

        train_fwd = sum(spans[i][2] - spans[i][1] for i, *_ in self._pgnn_forwards
                        if i in self._train_forwards)
        out = {
            "graph.generate_ms": ms("graph.grid_graph", "graph.connected_caveman",
                                    "graph.constant_features"),
            "graph.split_pairs_ms": ms("graph.split_pairs"),
            "metric.all_pairs_ms": ms("metric.all_pairs", "metric.all_pairs_within"),
            "metric.bourgain_embed_ms": ms("metric.bourgain_embed"),
            "metric.measure_distortion_ms": ms("metric.measure_distortion"),
            "metric.sample_anchor_family_ms": ms("metric.sample_anchor_family"),
            "model.pgnn_forward_train_ms": 1000.0 * train_fwd,
            "model.pgnn_forward_eval_ms": ms("model.pgnn_forward") - 1000.0 * train_fwd,
            "model.gcn_forward_ms": ms("model.gcn_forward"),
            "tensor.backward_ms": ms("tensor.backward"),
            "tensor.adam_step_ms": ms("tensor.adam_step"),
            "train.epoch_loss_ms": ms("train.epoch_loss"),
            "train.roc_auc_ms": ms("train.roc_auc"),
            "train.run_experiment_self_ms": 1000.0 * own["train.run_experiment"],
            "cli.distortion_self_ms": 1000.0 * own["cli.main"],
        }
        for kind in TAPE_OPS:
            name = f"tensor.op.{kind}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.ms"] = ms(name)
            out[f"{name}.out_bytes"] = self._out_bytes[kind]
        pgnn_nodes = [nodes for _, nodes, *_ in self._pgnn_forwards]
        out["model.pgnn_tape_nodes"] = (sum(pgnn_nodes) / len(pgnn_nodes)
                                        if pgnn_nodes else 0.0)
        out["model.gcn_tape_nodes"] = (sum(self._gcn_nodes) / len(self._gcn_nodes)
                                       if self._gcn_nodes else 0.0)
        out["metric.empty_set_frac"] = (self._empty_sets / self._drawn_sets
                                        if self._drawn_sets else 0.0)
        out["model.useful_msg_frac"] = self._useful_msg_frac()
        return out
