"""Shortest-path machinery, anchor-set sampling and the Bourgain embedding.

Hop counts are int64; nodes that cannot be reached carry the out-of-band
sentinel :data:`UNREACHABLE` (never an in-band large number), and every
arithmetic path masks it explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .graph import Graph

UNREACHABLE: int = -1

_NORMS = (1, 2, math.inf)


class DisconnectedGraphError(ValueError):
    """An operation that needs a connected graph saw unreachable pairs."""


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric read-only hop counts, UNREACHABLE sentinels; hashed by identity."""

    d: np.ndarray

    def __post_init__(self):
        a = self.d
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"distance matrix must be square, got {a.shape}")
        if a.dtype != np.int64:
            raise ValueError("distance matrix must be int64")
        if np.any(np.diagonal(a) != 0):
            raise ValueError("self distances must be 0")
        if np.any((a < UNREACHABLE) | (a >= a.shape[0])):  # closest_members' key needs < n
            raise ValueError("distances must be hop counts below n or UNREACHABLE")
        if not np.array_equal(a, a.T):
            raise ValueError("distance matrix must be symmetric")
        a.setflags(write=False)

    @property
    def n(self) -> int:
        return self.d.shape[0]

    def is_fully_connected(self) -> bool:
        return not np.any(self.d == UNREACHABLE)


def _hop_counts(g: Graph, limit: float = math.inf, indices=None) -> np.ndarray:
    """Hop counts from ``indices`` (default all nodes), UNREACHABLE past ``limit``."""
    indptr = np.cumsum([0] + [len(nbrs) for nbrs in g.adjacency])
    cols = np.array([v for nbrs in g.adjacency for v in nbrs], dtype=np.int64)
    adj = csr_matrix((np.ones(cols.size), cols, indptr), shape=(g.n, g.n))
    d = dijkstra(adj, directed=False, unweighted=True, limit=limit, indices=indices)
    return np.where(np.isinf(d), UNREACHABLE, d).astype(np.int64)


def bfs_from(g: Graph, source: int) -> np.ndarray:
    """Hop counts from one source; UNREACHABLE where no path exists."""
    if not (0 <= source < g.n):
        raise ValueError(f"source {source} out of range for n={g.n}")
    return _hop_counts(g, indices=source)


def all_pairs(g: Graph) -> DistanceMatrix:
    """All-pairs hop counts."""
    return DistanceMatrix(_hop_counts(g))


def all_pairs_within(g: Graph, q: int) -> DistanceMatrix:
    """All-pairs hop counts up to q; pairs further apart are UNREACHABLE."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    return DistanceMatrix(_hop_counts(g, q))


def truncate(dm: DistanceMatrix, q) -> DistanceMatrix:
    """q-hop truncation: distances beyond q become UNREACHABLE.

    ``q`` is an integer >= 1 or math.inf (identity).  Idempotent.
    """
    if q != math.inf:
        if not float(q).is_integer() or q < 1:
            raise ValueError(f"q must be an integer >= 1 or inf, got {q!r}")
        q = int(q)
    d = dm.d.copy()
    over = d > q if q != math.inf else np.zeros_like(d, dtype=bool)
    d[over] = UNREACHABLE
    return DistanceMatrix(d)


def similarity(d):
    """1 / (hop count + 1), elementwise for an array; exactly 0.0 for UNREACHABLE."""
    d = np.asarray(d)
    if np.any(d < UNREACHABLE):
        raise ValueError(f"negative hop count {d}")
    return np.where(d != UNREACHABLE, 1.0 / (np.maximum(d, 0) + 1.0), 0.0)[()]


# ----------------------------------------------------------------------
# anchor sets


@dataclass(frozen=True)
class AnchorFamily:
    """A family of anchor node-sets with Bourgain (i, j) provenance.

    Sampled families always satisfy k = ceil(log2 n) * ceil(c * log2 n)
    with set i drawn by including each node independently with probability
    2**-i; hand-built families (demos, degenerate configs) may be smaller.
    """

    sets: tuple[tuple[int, ...], ...]
    provenance: tuple[tuple[int, int], ...]
    c: float
    seed: int

    def __post_init__(self):
        if len(self.sets) != len(self.provenance):
            raise ValueError("one provenance pair per anchor set required")
        if len(self.sets) < 1:
            raise ValueError("anchor family cannot be empty")
        for members in self.sets:
            if list(members) != sorted(set(members)):
                raise ValueError("anchor sets must be sorted and duplicate-free")

    @property
    def k(self) -> int:
        return len(self.sets)


def anchor_family_size(n: int, c: float) -> int:
    """k = ceil(log2 n) * ceil(c * log2 n) for an n-node graph."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if c <= 0:
        raise ValueError(f"need c > 0, got {c}")
    log_n = math.log2(n)
    return math.ceil(log_n) * math.ceil(c * log_n)


def sample_anchor_family(n: int, c: float, seed: int) -> AnchorFamily:
    """Draw the Bourgain anchor family for an n-node graph.

    For i in 1..ceil(log2 n) and j in 1..ceil(c * log2 n), set S_ij includes
    each node independently with probability 2**-i.  Empty draws are kept.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if c <= 0:
        raise ValueError(f"need c > 0, got {c}")
    log_n = math.log2(n)
    i_max = math.ceil(log_n)
    j_max = math.ceil(c * log_n)
    rng = np.random.default_rng(seed)
    sets: list[tuple[int, ...]] = []
    provenance: list[tuple[int, int]] = []
    for i in range(1, i_max + 1):
        prob = 2.0 ** -i
        for j in range(1, j_max + 1):
            mask = rng.random(n) < prob
            sets.append(tuple(np.flatnonzero(mask).tolist()))
            provenance.append((i, j))
    return AnchorFamily(sets=tuple(sets), provenance=tuple(provenance),
                        c=c, seed=seed)


def closest_members(dm: DistanceMatrix,
                    sets: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Per node and anchor set: the closest member and its hop count.

    Returns (member, hops), each n x len(sets) int64: hops[v, m] is
    d(v, S_m) = min over u in S_m of d(v, u), ties to the lowest member id,
    and both are UNREACHABLE where v reaches no member of S_m or S_m is
    empty.  Each (hops, id) packs into the key hops * n + id (UNREACHABLE as
    hops = n) in the smallest dtype that holds n * n + n; the members' key
    rows are gathered once, and each nonempty set's block reduces to its
    least key per node.
    """
    n = dm.n
    sizes = np.fromiter(map(len, sets), np.int64, len(sets))
    # dm.d is symmetric, so row u of key holds d(u, v) * n + u for every node v
    key = np.where(dm.d == UNREACHABLE, n, dm.d).astype(np.min_scalar_type(n * n + n))
    key *= n
    key += np.arange(n, dtype=key.dtype)[:, None]
    rows = key[np.fromiter(chain.from_iterable(sets), np.int64, sizes.sum())]
    best = np.full((sizes.size, n), n * n, dtype=key.dtype)
    ends = np.cumsum(sizes)
    for m in np.flatnonzero(sizes):  # a 2-d minimum.reduceat is several times slower
        np.minimum.reduce(rows[ends[m] - sizes[m]:ends[m]], axis=0, out=best[m])
    best = best.T.astype(np.int64)
    reach = best < n * n
    return np.where(reach, best % n, UNREACHABLE), np.where(reach, best // n, UNREACHABLE)


def set_distance(dm: DistanceMatrix, v: int, members: Sequence[int]) -> int:
    """Distance from node v to an anchor set: min over members.

    Empty sets and sets with no reachable member give UNREACHABLE.
    """
    if not (0 <= v < dm.n):
        raise ValueError(f"node {v} out of range for n={dm.n}")
    return int(closest_members(dm, [members])[1][v, 0])


def bourgain_embed(dm: DistanceMatrix, fam: AnchorFamily) -> np.ndarray:
    """n x k coordinates d(v, S_m) / k; empty sets contribute 0 columns.

    Raises DisconnectedGraphError if a nonempty set is unreachable from some
    node, since a finite coordinate does not exist there; the message names
    the first such set and, in it, the first such node.
    """
    _, hops = closest_members(dm, fam.sets)
    # a nonempty set is at hop 0 from its own members, so only empty columns are all out
    cut = (hops == UNREACHABLE) & (hops != UNREACHABLE).any(axis=0)
    if cut.any():
        m = int(cut.any(axis=0).argmax())
        raise DisconnectedGraphError(f"node {int(cut[:, m].argmax())} cannot reach anchor "
                                     f"set {m}; graph is disconnected")
    return np.maximum(hops, 0) / fam.k


def measure_distortion(dm: DistanceMatrix, emb: np.ndarray,
                       p) -> tuple[float, float, float]:
    """Worst-case expansion and contraction of an embedding, and their product.

    Over all node pairs u != v: expansion is the max ratio of embedded to
    graph distance, contraction the max of the inverse ratio.  Two distinct
    nodes mapped to the same point give infinite contraction (a value, not
    an exception).  Requires a connected graph and p in {1, 2, inf}.
    """
    if p not in _NORMS:
        raise ValueError(f"p must be one of {_NORMS}, got {p!r}")
    n = dm.n
    if n < 2:
        raise ValueError("need at least two nodes to measure distortion")
    if not dm.is_fully_connected():
        raise DisconnectedGraphError("distortion needs a connected graph")
    if emb.ndim != 2 or emb.shape[0] != n:
        raise ValueError(f"embedding must have {n} rows, got {emb.shape}")
    # one row of pairs (u, v > u) at a time, in triu order: no pairs x k array;
    # contiguous rows, so each norm sums in the same order for any input layout
    emb = np.ascontiguousarray(emb)
    emb_d = np.concatenate([np.linalg.norm(emb[u + 1:] - emb[u], ord=p, axis=1)
                            for u in range(n - 1)])
    graph_d = dm.d[np.triu_indices(n, k=1)].astype(np.float64)
    expansion = float((emb_d / graph_d).max())
    if np.any(emb_d == 0.0):
        # no rescaling recovers a collapsed pair
        return expansion, math.inf, math.inf
    contraction = float((graph_d / emb_d).max())
    return expansion, contraction, expansion * contraction
