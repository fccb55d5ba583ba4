"""The benchmark's workloads: graphs, model configs and run lengths.

A workload seed feeds the dataset, split and train seeds; seed 0 gives the
graphs, splits and model configs of the acceptance tests (test_01 and
test_02).  Every protocol run also calls ``pgnn distortion`` on the
workload's graph once per norm.  Run lengths (epochs, repeats) are the
benchmark's own; graph size, anchor family size k and message width r are
never shrunk.
"""

from __future__ import annotations

from dataclasses import dataclass

REWIRE_PROB = 0.01
VAL_FRAC = TEST_FRAC = 0.1
REPEATS = 1
DISTORTION_NORMS = ("1", "2", "inf")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dataset: str              # "grid" (rows x cols) or "communities" (n_comm x comm_size)
    shape: tuple[int, int]
    task: str
    pgnn: dict                # PGNNConfig keyword arguments
    lr: float                 # for both models, as in the acceptance tests
    pgnn_epochs: int
    gcn_epochs: int

    def generate(self, graph, seed: int):
        """The workload's graph, built through the public generators of ``graph``."""
        a, b = self.shape
        if self.dataset == "grid":
            return graph.constant_features(graph.grid_graph(a, b))
        return graph.connected_caveman(a, b, REWIRE_PROB, seed=seed)

    def distortion_argv(self, seed: int, norm: str, out: str) -> list[str]:
        a, b = self.shape
        if self.dataset == "grid":
            ds = ["grid", str(a), str(b)]
        else:
            ds = ["communities", str(a), str(b), str(REWIRE_PROB)]
        return ["distortion", *ds, "--p", norm, "--seed", str(seed), "--out", out]

    def operations(self) -> int:
        """Checked operations per protocol: one per training repeat and CLI call."""
        return 2 * REPEATS + len(DISTORTION_NORMS)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="grid-link",
        why=("test_02 shape: 20x20 lattice link prediction with the largest anchor "
             "family (k=162), so the per-set forward loop and the tape dominate"),
        dataset="grid", shape=(20, 20), task="link_prediction",
        pgnn=dict(layers=2, message_dim=16, anchor_c=2.0, variant="exact"),
        lr=0.003, pgnn_epochs=12, gcn_epochs=150),
    Workload(
        name="communities-pairs",
        why=("test_01 shape: 20x20 rewired cliques, pairwise classification; dense "
             "cliques make the oracle and the 6080 training pairs heavy. Its "
             "gcn_epoch_ms is the noisiest metric"),
        dataset="communities", shape=(20, 20), task="pairwise_node_classification",
        pgnn=dict(layers=2, message_dim=32, anchor_c=1.0, variant="exact"),
        lr=0.01, pgnn_epochs=12, gcn_epochs=60),
    Workload(
        name="meanagg-fast",
        why=("8x8 communities with the fast variant and mean aggregation: the only "
             "run of the dense n x (n*m) averaging maps and all_pairs_within"),
        dataset="communities", shape=(8, 8), task="pairwise_node_classification",
        pgnn=dict(layers=2, message_dim=16, anchor_c=1.0, variant="fast",
                  closest_node_agg=False),
        lr=0.01, pgnn_epochs=24, gcn_epochs=150),
)}
