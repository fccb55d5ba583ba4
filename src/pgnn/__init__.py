"""Position-aware graph neural networks on dense matrices.

Anchor-set distances give every node coordinates that plain neighborhood
aggregation cannot recover; this package bundles the sampler, the model,
a small reverse-mode tape to train it, and a CLI for the experiments.
"""

from .graph import (EdgeListFormatError, EdgeSplit, Graph, TASKS,
                    augment_one_hot, component_sizes, connected_caveman,
                    constant_features, grid_graph, load_edge_list,
                    load_feature_csv, load_node_labels, split_pairs,
                    write_edge_list, write_node_labels)
from .metric import (UNREACHABLE, AnchorFamily, DisconnectedGraphError,
                     DistanceMatrix, all_pairs, all_pairs_within,
                     anchor_family_size, bfs_from, bourgain_embed,
                     measure_distortion, sample_anchor_family, set_distance,
                     similarity, truncate)
from .model import (FAST_HOPS, VARIANTS, Embeddings, GCNConfig, PGNNConfig,
                    gcn_forward, init_gcn_params, init_pgnn_params,
                    make_distance_input, pgnn_forward, singleton_family)
from .tensor import (AdamState, ShapeError, Tape, Value, adam_step)
from .train import (SETTINGS, EpochRecord, Metrics, RepeatResult, TrainConfig,
                    epoch_loss, evaluate, model_label, pair_score,
                    roc_auc, run_experiment)

__version__ = "0.1.0"

__all__ = [
    "AdamState", "AnchorFamily", "DisconnectedGraphError", "DistanceMatrix",
    "EdgeListFormatError", "EdgeSplit", "Embeddings", "EpochRecord",
    "FAST_HOPS", "GCNConfig", "Graph", "Metrics", "PGNNConfig",
    "RepeatResult", "SETTINGS", "ShapeError",
    "TASKS", "Tape", "TrainConfig", "UNREACHABLE", "VARIANTS", "Value",
    "adam_step", "all_pairs", "all_pairs_within", "anchor_family_size",
    "augment_one_hot", "bfs_from", "bourgain_embed", "component_sizes",
    "connected_caveman", "constant_features", "epoch_loss", "evaluate",
    "gcn_forward", "grid_graph", "init_gcn_params", "init_pgnn_params",
    "load_edge_list", "load_feature_csv", "load_node_labels",
    "make_distance_input", "measure_distortion", "model_label", "pair_score",
    "pgnn_forward", "roc_auc", "run_experiment", "sample_anchor_family",
    "set_distance", "similarity", "singleton_family", "split_pairs",
    "truncate", "write_edge_list", "write_node_labels",
]
