"""Position-aware message passing over anchor-set distances.

Each layer sends every node one message per anchor set: the node's own
state is concatenated with the member's state scaled by 1 / (hop count + 1),
then pushed through a shared linear map and ReLU.  Keeping the distance
weight inside the nonlinearity lets the message react to proximity even
when input features are constant.  Per set the messages are either
averaged over all members or taken from the single closest member.  A
message depends only on its node and member, so a layer computes each
distinct one once (at most n^2 + n rows).  The map is linear before the
ReLU, so [h_v, s * h_u] W = (h W_top)[v] + s * (h W_bot)[u]: a layer
multiplies the 2n x 2d block diagonal [[h, 0], [0, h]] by W once and each
message adds two rows of the product.  For a given anchor family the rest
is fixed sparse maps, built once per family: two that pad h into the block
diagonal, the message map, the row-wise mean across sets (the next node
state, a sum over a node's distinct messages weighted by how often the
sets use them), and the anchor-indexed output, one column per set, where
each (node, set) cell averages the final layer's scalar projections of its
slots (one slot at weight 1.0 in closest mode).  The tape ops are the same
for both aggregation modes and any number of sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np
from scipy.sparse import csr_matrix

from .graph import Graph
from .metric import (UNREACHABLE, AnchorFamily, DistanceMatrix, all_pairs,
                     all_pairs_within, closest_members, similarity)
from .tensor import ShapeError, Tape, Value

VARIANTS = ("exact", "fast")

FAST_HOPS = 2


@dataclass(frozen=True)
class PGNNConfig:
    """Architecture knobs for the position-aware model."""

    layers: int = 2
    anchor_c: float = 1.0
    variant: str = "exact"
    message_dim: int = 32
    closest_node_agg: bool = True
    resample_anchors: bool = True

    def __post_init__(self):
        if not (1 <= self.layers <= 8):
            raise ValueError(f"layers must be in [1, 8], got {self.layers}")
        if not 0 < self.anchor_c < math.inf:
            raise ValueError(f"anchor_c must be finite and > 0, got {self.anchor_c}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.message_dim < 1:
            raise ValueError(f"message_dim must be >= 1, got {self.message_dim}")


@dataclass(frozen=True)
class GCNConfig:
    """Knobs for the degenerate mean-aggregation baseline."""

    layers: int = 2
    message_dim: int = 32

    def __post_init__(self):
        if not (1 <= self.layers <= 8):
            raise ValueError(f"layers must be in [1, 8], got {self.layers}")
        if self.message_dim < 1:
            raise ValueError(f"message_dim must be >= 1, got {self.message_dim}")


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int,
            shape: tuple[int, int]) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def init_pgnn_params(d_in: int, cfg: PGNNConfig,
                     rng: np.random.Generator) -> list[np.ndarray]:
    """Uniform +-sqrt(6 / (fan_in + fan_out)) init; layer l+1 input dim is r.

    Returns [w_msg0, ..., w_msg{L-1}, w] in checkpoint order: each layer's
    2d x r message map (d its input width), then the r x 1 output vector.
    """
    if d_in < 1:
        raise ValueError(f"d_in must be >= 1, got {d_in}")
    r = cfg.message_dim
    params = []
    dim = d_in
    for _ in range(cfg.layers):
        params.append(_glorot(rng, 2 * dim, r, (2 * dim, r)))
        w = _glorot(rng, r, 1, (r, 1))  # drawn every layer to keep seeded runs' draws
        dim = r
    return params + [w]


def init_gcn_params(d_in: int, cfg: GCNConfig,
                    rng: np.random.Generator) -> list[np.ndarray]:
    if d_in < 1:
        raise ValueError(f"d_in must be >= 1, got {d_in}")
    weights = []
    dim = d_in
    for _ in range(cfg.layers):
        weights.append(_glorot(rng, dim, cfg.message_dim, (dim, cfg.message_dim)))
        dim = cfg.message_dim
    return weights


@dataclass(frozen=True, eq=False)
class Embeddings:
    """Forward outputs: anchor-indexed Z (n x k) and node states H (n x r)."""

    z: Value
    h: Value


def make_distance_input(g: Graph, cfg: PGNNConfig) -> DistanceMatrix:
    """Exact variant: full hop counts; fast variant: the 2-hop neighborhood."""
    if cfg.variant == "exact":
        return all_pairs(g)
    return all_pairs_within(g, FAST_HOPS)


def _operator(data, indices, indptr, cols: int):
    """Read-only S in CSR, built as listed: a COO build would sort each row's
    columns and merge duplicates, and so reorder the row's sum."""
    s = csr_matrix((data, indices, indptr), shape=(indptr.size - 1, cols))
    for a in (s.data, s.indices, s.indptr):  # every caller of the memo shares these arrays
        a.setflags(write=False)
    return s


@lru_cache(maxsize=1)
def _message_table(dm: DistanceMatrix, fam: AnchorFamily, closest: bool):
    """Five read-only CSR operators: top, bottom, member, to_h and to_z.

    top = [I; 0] and bottom = [0; I] (2n x n) pad h into [[h, 0], [0, h]].
    Closest mode keeps each (node, set)'s nearest member (ties to the lowest
    id), mean mode every member; empty sets get no slots.  A member out of
    reach becomes the node itself with similarity 0, zeroing that half.  A
    message is a distinct (node, member, reachable) key, in key order.
    member (messages x 2n) holds 1.0 at column node, then its similarity at
    column n + member; to_h (n x messages) its weight in H, (1/k) * the sum
    of 1 / (slots of the pair) over its slots, added as integer slot counts
    / pair width in increasing width, so neither the order of fam.sets nor
    listing every set twice changes it; to_z (n*k x messages) adds cell
    node * k + set's slots in family order, each at 1 / their count.
    Memoized on the last call (dm by identity); the memo keeps that call's
    dm and table alive until the next call.
    """
    n, k = dm.n, fam.k
    own = np.arange(n, dtype=np.int64)[:, None]
    widths = np.fromiter(map(len, fam.sets), np.int64, k)
    if closest:
        u, d = (a[:, widths > 0] for a in closest_members(dm, fam.sets))
        widths = np.minimum(widths, 1)
    else:
        u = np.fromiter(chain.from_iterable(fam.sets), np.int64)
        d = dm.d[:, u]
    key = 2 * (own * n + np.where(d != UNREACHABLE, u, own)) + (d != UNREACHABLE)
    key, first, row = np.unique(key, return_index=True, return_inverse=True)
    row = row.ravel()
    slot_width = np.repeat(widths, widths)  # the pair width of each of a node's slots
    size = np.tile(slot_width, n)
    uses = sum((np.bincount(row.reshape(n, -1)[:, slot_width == m].ravel(), minlength=key.size)
                / m for m in np.unique(widths[widths > 0])), np.zeros(key.size))
    node, msgs = key // 2 // n, key.size
    halves = np.column_stack((np.ones(msgs), similarity(d.ravel()[first])))
    pad = [_operator(np.ones(n), own.ravel(), np.clip(np.arange(2 * n + 1) - lead, 0, n), n)
           for lead in (0, n)]
    return (*pad,
            _operator(halves.ravel(), np.column_stack((node, n + key // 2 % n)).ravel(),
                      np.arange(0, 2 * msgs + 1, 2), 2 * n),
            _operator(uses / k, np.arange(msgs), np.searchsorted(node, np.arange(n + 1)), msgs),
            _operator(1.0 / size, row, np.r_[0, np.cumsum(np.tile(widths, n))], msgs))


def _check_forward_args(g: Graph, dm: DistanceMatrix, fam: AnchorFamily) -> None:
    if g.features is None:
        raise ValueError("pgnn_forward needs node features on the graph")
    if dm.n != g.n:
        raise ShapeError(f"distance matrix is {dm.n}x{dm.n} for n={g.n}")
    for members in fam.sets:
        if members and (members[0] < 0 or members[-1] >= g.n):
            raise ValueError("anchor set member out of range")


def pgnn_forward(tape: Tape, g: Graph, dm: DistanceMatrix, fam: AnchorFamily,
                 params: list[np.ndarray], cfg: PGNNConfig) -> Embeddings:
    """Run the L-layer position-aware forward pass on the given tape.

    Z has one column per anchor set, in fam order.  H adds each node's
    distinct messages in member order, each scaled by its use count, which
    the table sums in an order fam's order does not touch; so reordering
    fam.sets permutes Z's columns and leaves H bit-identical, and so does
    listing every set twice.
    """
    _check_forward_args(g, dm, fam)
    if len(params) != cfg.layers + 1:
        raise ShapeError(f"{len(params)} params for layers={cfg.layers} (a w_msg each, then w)")
    n, k = g.n, fam.k
    top, bottom, member, to_h, to_z = _message_table(dm, fam, cfg.closest_node_agg)
    h = tape.leaf(g.features)
    for w_msg in params[:-1]:
        both = tape.concat_cols(tape.spmm(top, h), tape.spmm(bottom, h))  # [[h, 0], [0, h]]
        msg = tape.relu(tape.spmm(member, tape.matmul(both, tape.leaf(w_msg))))
        h = tape.spmm(to_h, msg)
    z = tape.spmm(to_z, tape.matmul(msg, tape.leaf(params[-1])))  # each pair's slot mean
    return Embeddings(z=tape.reshape(z, n, k), h=h)


@lru_cache(maxsize=1)
def _gcn_operator(adjacency: tuple[tuple[int, ...], ...]):
    """Read-only n x n neighbour operator: row v holds 0.5 / n at each neighbour of v, listed
    in adjacency order.  Memoized on the last adjacency (a featured Graph is unhashable)."""
    indptr = np.cumsum([0, *map(len, adjacency)])
    return _operator(np.full(indptr[-1], 0.5 / len(adjacency)),
                     np.fromiter(chain.from_iterable(adjacency), np.int64), indptr, len(adjacency))


def gcn_forward(tape: Tape, g: Graph, weights: list[np.ndarray],
                layers: int) -> Value:
    """Degenerate special case: every node its own anchor set, 1-hop weights.

    Per layer h_v <- (1/n) * sum_u s1(v, u) * relu(h_u W) where s1 is 1 on
    the node itself, 1/2 on neighbors and 0 beyond one hop; the output is
    the final h.  The neighbour terms are one sparse product over the
    adjacency, each row summed from zero, then added to the self term.
    """
    if g.features is None:
        raise ValueError("gcn_forward needs node features on the graph")
    if len(weights) != layers:
        raise ShapeError(f"{len(weights)} weight matrices for layers={layers}")
    neighbours = _gcn_operator(g.adjacency)
    h = tape.leaf(g.features)
    for w in weights:
        msg = tape.relu(tape.matmul(h, tape.leaf(w)))
        h = tape.add(tape.scale_rows(msg, np.full((g.n, 1), 1.0 / g.n)),
                     tape.spmm(neighbours, msg))
    return h
