"""Undirected graphs, synthetic generators, file loaders and pair splits.

Graphs are simple and undirected: sorted adjacency lists, no self loops,
no duplicate edges.  Node ids are dense integers starting at 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Literal

import numpy as np

Pair = tuple[int, int]

Task = Literal["link_prediction", "pairwise_node_classification"]

TASKS = ("link_prediction", "pairwise_node_classification")


class EdgeListFormatError(ValueError):
    """An edge-list line could not be parsed; message carries the line number."""


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph with optional node features and labels.

    Attributes:
        n: node count.
        adjacency: per-node sorted tuples of neighbor ids.
        features: optional float64 matrix, row i holds the features of node i.
        labels: optional int64 vector of node labels.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    features: np.ndarray | None = None
    labels: np.ndarray | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"graph needs at least one node, got n={self.n}")
        if len(self.adjacency) != self.n:
            raise ValueError("adjacency length does not match n")
        seen = [set(nbrs) for nbrs in self.adjacency]
        for u, nbrs in enumerate(self.adjacency):
            if list(nbrs) != sorted(set(nbrs)):
                raise ValueError(f"adjacency of node {u} not sorted/unique")
            for v in nbrs:
                if v < 0 or v >= self.n:
                    raise ValueError(f"neighbor {v} of node {u} out of range")
                if v == u:
                    raise ValueError(f"self loop at node {u}")
                if u not in seen[v]:
                    raise ValueError(f"edge {u}->{v} missing its reverse")
        if self.features is not None:
            if self.features.ndim != 2 or self.features.shape[0] != self.n:
                raise ValueError("features must be an n-row matrix")
            if not np.all(np.isfinite(self.features)):
                raise ValueError("features must be finite")
            self.features.setflags(write=False)
        if self.labels is not None:
            if self.labels.shape != (self.n,):
                raise ValueError("labels must be a length-n vector")
            self.labels.setflags(write=False)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Pair],
                   features: np.ndarray | None = None,
                   labels: np.ndarray | None = None) -> "Graph":
        """Build a graph from (u, v) pairs, dropping self loops and duplicates."""
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                continue
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        adjacency = tuple(tuple(sorted(s)) for s in nbrs)
        return cls(n=n, adjacency=adjacency, features=features, labels=labels)

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def edges(self) -> Iterator[Pair]:
        """Yield each undirected edge once as (u, v) with u < v."""
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def is_connected(self) -> bool:
        return len(component_sizes(self.adjacency)) == 1


def component_sizes(adjacency) -> list[int]:
    """Sizes of the components of per-node neighbor lists, by smallest node id."""
    seen = [False] * len(adjacency)
    sizes = []
    for start in range(len(adjacency)):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        size = 0
        while stack:
            u = stack.pop()
            size += 1
            for v in adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        sizes.append(size)
    return sizes


# ----------------------------------------------------------------------
# generators


def check_grid(rows: int, cols: int) -> None:
    """Raise ValueError naming the first grid dimension below 1."""
    for name, value in (("rows", rows), ("cols", cols)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def grid_graph(rows: int, cols: int) -> Graph:
    """2-d lattice with 4-neighbor connectivity; node id = row * cols + col."""
    check_grid(rows, cols)
    edges = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                edges.append((u, u + 1))
            if r + 1 < rows:
                edges.append((u, u + cols))
    return Graph.from_edges(rows * cols, edges)


def check_caveman(n_comm: int, comm_size: int, rewire_prob: float, seed: int) -> None:
    """Raise ValueError naming the first caveman parameter out of range."""
    if n_comm < 2:
        raise ValueError(f"n_comm must be >= 2, got {n_comm}")
    if comm_size < 2:
        raise ValueError(f"comm_size must be >= 2, got {comm_size}")
    if not (0.0 <= rewire_prob <= 1.0):
        raise ValueError(f"rewire_prob must be in [0, 1], got {rewire_prob}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def _move_edge(nbrs: list[set[int]], u: int, old: int, new: int) -> None:
    """Replace the edge (u, old) by (u, new) in per-node neighbour sets."""
    nbrs[u].remove(old)
    nbrs[old].remove(u)
    nbrs[u].add(new)
    nbrs[new].add(u)


def connected_caveman(n_comm: int, comm_size: int, rewire_prob: float,
                      seed: int) -> Graph:
    """Ring of cliques with optional random edge rewiring.

    Each clique has one edge redirected to the previous clique around the
    ring (for 2-node cliques the intra edge is kept, otherwise the clique
    falls apart and the graph cannot be connected).  Every remaining edge
    is then independently rewired with probability ``rewire_prob``: one
    endpoint is replaced by a uniform random node, rejecting self loops and
    duplicates, and redrawing rewires that would disconnect the graph
    (bounded retries, then the rewire is skipped).  Labels are the original
    clique ids regardless of rewiring.

    Args:
        n_comm: number of cliques, at least 2.
        comm_size: nodes per clique, at least 2.
        rewire_prob: per-edge rewiring probability in [0, 1].
        seed: RNG seed, at least 0; with rewire_prob == 0 the output is seed-independent.
    """
    check_caveman(n_comm, comm_size, rewire_prob, seed)
    n = n_comm * comm_size
    edge_set: set[Pair] = set()
    for c in range(n_comm):
        base = c * comm_size
        for a in range(comm_size):
            for b in range(a + 1, comm_size):
                edge_set.add((base + a, base + b))
    for c in range(n_comm):
        base = c * comm_size
        if comm_size > 2:
            edge_set.discard((base, base + 1))
        u, v = base, (base - 1) % n
        edge_set.add((min(u, v), max(u, v)))

    rng = np.random.default_rng(seed)
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for a, b in edge_set:
        nbrs[a].add(b)
        nbrs[b].add(a)
    for u, old in sorted(edge_set):
        if rng.random() >= rewire_prob:
            continue
        for _ in range(20):
            x = int(rng.integers(n))
            if x == u or x in nbrs[u]:
                continue
            _move_edge(nbrs, u, old, x)
            if len(component_sizes(nbrs)) == 1:
                break
            _move_edge(nbrs, u, x, old)

    labels = np.repeat(np.arange(n_comm, dtype=np.int64), comm_size)
    return Graph(n=n, adjacency=tuple(tuple(sorted(s)) for s in nbrs), labels=labels)


# ----------------------------------------------------------------------
# file formats


def _int_pairs(path: str, noun: str) -> Iterator[tuple[int, str, int, int]]:
    """(line number, line, a, b) for each whitespace-separated "a b" line of
    ``path``, skipping blank and '#' lines; ``noun`` names a field in errors."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise EdgeListFormatError(
                    f"{path}:{lineno}: expected two fields, got {len(parts)}")
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise EdgeListFormatError(
                    f"{path}:{lineno}: non-integer {noun} in {line!r}") from None
            yield lineno, line, a, b


def load_edge_list(path: str) -> Graph:
    """Read an undirected edge list, one "u v" pair per line (tabs in the
    written format); duplicate lines and self loops are dropped, and the node
    count is 1 + the largest id seen."""
    edges: list[Pair] = []
    for lineno, line, u, v in _int_pairs(path, "node id"):
        if u < 0 or v < 0:
            raise EdgeListFormatError(
                f"{path}:{lineno}: negative node id in {line!r}")
        edges.append((u, v))
    if not edges:
        raise ValueError(f"{path}: edge list is empty")
    return Graph.from_edges(1 + max(map(max, edges)), edges)


def load_node_labels(path: str, n: int) -> np.ndarray:
    """Read "node_id label" lines into a length-n int vector."""
    labels = np.full(n, -1, dtype=np.int64)
    filled = np.zeros(n, dtype=bool)
    for lineno, _, node, lab in _int_pairs(path, "field"):
        if not (0 <= node < n):
            raise ValueError(f"{path}:{lineno}: node id {node} out of range")
        labels[node] = lab
        filled[node] = True
    if not filled.all():
        missing = int(np.flatnonzero(~filled)[0])
        raise ValueError(f"{path}: no label for node {missing}")
    return labels


def load_feature_csv(path: str, n: int) -> np.ndarray:
    """Read a dense CSV where row i holds the features of node i."""
    feats = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    if feats.shape[0] != n:
        raise ValueError(f"{path}: {feats.shape[0]} feature rows for {n} nodes")
    return feats


def _write_pairs(path: str, header: str, pairs: Iterable[Pair]) -> None:
    """Write tab-separated pairs under a '# header' comment line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n")
        for a, b in pairs:
            fh.write(f"{a}\t{b}\n")


def write_edge_list(path: str, g: Graph, header: str) -> None:
    """Write the graph's edges as tab-separated pairs under a comment header."""
    _write_pairs(path, header, g.edges())


def write_node_labels(path: str, g: Graph, header: str) -> None:
    if g.labels is None:
        raise ValueError("graph has no labels to write")
    _write_pairs(path, header, enumerate(g.labels.tolist()))


# ----------------------------------------------------------------------
# features


def augment_one_hot(g: Graph) -> Graph:
    """Append a one-hot identity block to the node features."""
    eye = np.eye(g.n, dtype=np.float64)
    if g.features is None:
        feats = eye
    else:
        feats = np.hstack((g.features, eye))
    return replace(g, features=feats)


def constant_features(g: Graph) -> Graph:
    """Give every node the single constant feature 1.0, replacing any existing."""
    return replace(g, features=np.ones((g.n, 1), dtype=np.float64))


# ----------------------------------------------------------------------
# pair splits


@dataclass(frozen=True)
class EdgeSplit:
    """Positive/negative pair sets for train/val/test, all as (u, v) u < v."""

    task: Task
    train_pos: tuple[Pair, ...]
    train_neg: tuple[Pair, ...]
    val_pos: tuple[Pair, ...]
    val_neg: tuple[Pair, ...]
    test_pos: tuple[Pair, ...]
    test_neg: tuple[Pair, ...]


def _positive_universe(g: Graph, task: Task) -> list[Pair]:
    if task == "link_prediction":
        return list(g.edges())
    if task == "pairwise_node_classification":
        if g.labels is None:
            raise ValueError("pairwise_node_classification needs node labels")
        pairs = []
        by_label: dict[int, list[int]] = {}
        for node, lab in enumerate(g.labels):
            by_label.setdefault(int(lab), []).append(node)
        for nodes in by_label.values():
            for i in range(len(nodes)):
                for j in range(i + 1, len(nodes)):
                    pairs.append((nodes[i], nodes[j]))
        return sorted(pairs)
    raise ValueError(f"unknown task {task!r}")


def _sample_negatives(n: int, pos: list[Pair], count: int,
                      rng: np.random.Generator) -> list[Pair]:
    """``count`` pairs drawn uniformly without replacement from the complement
    of ``pos`` among all (u, v), u < v, of ``n`` nodes.

    Pairs are indexed in row-major upper-triangle order, where ``first[u]``
    is the index of (u, u + 1).  Uniform ranks of the complement are drawn,
    and each is mapped to its pair index by counting the positives that come
    before it; the complement itself is never built.
    """
    first = np.arange(n, dtype=np.int64)
    first = first * (2 * n - first - 1) // 2
    ends = np.array(pos, dtype=np.int64).reshape(-1, 2)
    taken = np.sort(first[ends[:, 0]] + ends[:, 1] - ends[:, 0] - 1)
    complement_size = n * (n - 1) // 2 - len(taken)
    if count > complement_size:
        raise ValueError(
            f"cannot sample {count} negatives from a complement of {complement_size}")
    rank = rng.choice(complement_size, size=count, replace=False)
    idx = rank + np.searchsorted(taken - np.arange(len(taken)), rank, "right")
    u = np.searchsorted(first, idx, "right") - 1
    v = idx - first[u] + u + 1
    return list(zip(u.tolist(), v.tolist()))


def check_split(val_frac: float, test_frac: float, seed: int) -> None:
    """Raise ValueError unless both fractions are >= 0 and leave room for
    training pairs (so neither is NaN or infinite), and the seed is >= 0."""
    if not (val_frac >= 0 and test_frac >= 0 and val_frac + test_frac < 1):
        raise ValueError(f"bad split fractions val={val_frac} test={test_frac}")
    if seed < 0:
        raise ValueError(f"split.seed must be >= 0, got {seed}")


def split_pairs(g: Graph, task: Task, val_frac: float, test_frac: float,
                seed: int) -> EdgeSplit:
    """Partition positive pairs into train/val/test and sample negatives.

    Fractions are rounded down, but a split with a positive fraction gets at
    least one pair; whatever remains goes to train.  Negatives are uniform
    ranks of the complement universe (non-edges for link prediction,
    different-label pairs for pairwise classification), drawn without
    replacement and mapped to their pairs, one per positive in each split.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    check_split(val_frac, test_frac, seed)
    pos = _positive_universe(g, task)
    total = len(pos)
    if total == 0:
        raise ValueError("no positive pairs to split")
    n_val = math.floor(total * val_frac)
    if val_frac > 0 and n_val == 0:
        n_val = 1
    n_test = math.floor(total * test_frac)
    if test_frac > 0 and n_test == 0:
        n_test = 1
    n_train = total - n_val - n_test
    if n_train < 1:
        raise ValueError(
            f"too few positive pairs ({total}) to populate all splits")

    rng = np.random.default_rng(seed)
    perm = rng.permutation(total)
    shuffled = [pos[i] for i in perm]
    val_pos = shuffled[:n_val]
    test_pos = shuffled[n_val:n_val + n_test]
    train_pos = shuffled[n_val + n_test:]

    negatives = _sample_negatives(g.n, pos, total, rng)
    val_neg = negatives[:n_val]
    test_neg = negatives[n_val:n_val + n_test]
    train_neg = negatives[n_val + n_test:]

    return EdgeSplit(task=task,
                     train_pos=tuple(train_pos), train_neg=tuple(train_neg),
                     val_pos=tuple(val_pos), val_neg=tuple(val_neg),
                     test_pos=tuple(test_pos), test_neg=tuple(test_neg))
