"""Independent reference implementations shared by the test modules.

Everything here is deliberately written in a different style than the
package (min-plus matrix iteration, O(P*N) pair counting) so agreement
between the two routes is meaningful.
"""

import numpy as np

from pgnn.graph import Graph


def floyd_warshall(g: Graph) -> np.ndarray:
    """All-pairs hop counts as float, np.inf where unreachable."""
    n = g.n
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for u in range(n):
        for v in g.adjacency[u]:
            d[u, v] = 1.0
    for k in range(n):
        d = np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :])
    return d


def brute_force_auc(scores, labels) -> float:
    """Count concordant positive-negative pairs, ties worth one half."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos = s[y == 1]
    neg = s[y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def random_connected_graph(n: int, rng, extra_edges: int = 0) -> Graph:
    """Random tree on n nodes plus optional extra random edges."""
    edges = []
    for v in range(1, n):
        edges.append((int(rng.integers(v)), v))
    for _ in range(extra_edges):
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u != v:
            edges.append((u, v))
    return Graph.from_edges(n, edges)


def numeric_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function, entry by entry."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2.0 * h)
        it.iternext()
    return g


def max_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float((np.abs(a - b) / denom).max())


def reference_closest_members(dm, sets):
    """Per-set argmin over each set's member columns; returns (member, hops).

    Each is an n x len(sets) int64 array: the nearest member (ties to the
    lowest id, as argmin takes the first of equal sorted-member entries)
    and its hop count, UNREACHABLE (-1) where the node reaches no member and
    in every row of an empty set.
    """
    n = dm.n
    member = np.full((n, len(sets)), -1, dtype=np.int64)
    hops = member.copy()
    for m, members in enumerate(sets):
        mem = np.array(sorted(members), dtype=np.int64)
        if mem.size == 0:
            continue
        dist = dm.d[:, mem].astype(np.float64)
        dist[dm.d[:, mem] < 0] = np.inf
        pos = dist.argmin(axis=1)
        reach = np.isfinite(dist[np.arange(n), pos])
        member[reach, m] = mem[pos[reach]]
        hops[reach, m] = dist[np.arange(n), pos][reach]
    return member, hops


def reference_measure_distortion(dm, emb, p):
    """Expansion, contraction and distortion from one pairs x k difference matrix.

    The all-pairs form: every (u, v > u) difference in triu order, then a
    per-p branch for the norm.  A collapsed pair gives infinite contraction.
    """
    iu, ju = np.triu_indices(dm.n, k=1)
    diffs = emb[iu] - emb[ju]
    if p == 1:
        emb_d = np.abs(diffs).sum(axis=1)
    elif p == 2:
        emb_d = np.sqrt((diffs * diffs).sum(axis=1))
    else:
        emb_d = np.abs(diffs).max(axis=1)
    graph_d = dm.d[iu, ju].astype(np.float64)
    expansion = float((emb_d / graph_d).max())
    if np.any(emb_d == 0.0):
        return expansion, np.inf, np.inf
    contraction = float((graph_d / emb_d).max())
    return expansion, contraction, expansion * contraction


def reference_pgnn_forward(g: Graph, dm, fam, params, closest: bool):
    """Per-set position-aware forward in plain numpy; returns (Z, H).

    One (n, r) message block per anchor set and layer: closest mode picks
    each node's nearest member (ties to the lowest id, nodes out of reach
    use themselves with similarity 0), mean mode averages over all members,
    an empty set's block is zero.  The blocks are added in provenance order
    and scaled by 1/k.
    """
    n, k = g.n, fam.k
    own = np.arange(n)
    order = sorted(range(k), key=lambda m: (fam.provenance[m], m))
    h = np.asarray(g.features, dtype=np.float64)
    for w_msg in params[:-1]:
        blocks = []
        for members in fam.sets:
            mem = np.array(members, dtype=np.int64)
            if mem.size == 0:
                blocks.append(np.zeros((n, w_msg.shape[1])))
                continue
            hops = dm.d[:, mem].astype(np.float64)
            hops[dm.d[:, mem] < 0] = np.inf
            if closest:
                pos = hops.argmin(axis=1)
                best = hops[own, pos]
                choices = [(np.where(np.isfinite(best), mem[pos], own), best)]
            else:
                choices = [(np.full(n, u), hops[:, j]) for j, u in enumerate(mem)]
            msgs = [np.maximum(np.hstack([h, (1.0 / (d + 1.0))[:, None] * h[u]])
                               @ w_msg, 0.0) for u, d in choices]
            blocks.append(msgs[0] if closest else np.mean(msgs, axis=0))
        acc = blocks[order[0]]
        for m in order[1:]:
            acc = acc + blocks[m]
        h = acc * (1.0 / k)
    z = np.hstack([block @ params[-1] for block in blocks])
    return z, h


def reference_gcn_forward(g: Graph, weights):
    """Mean-pool baseline in plain numpy: one add per neighbor position.

    Per layer, h_v <- relu(h_v W) / n, then for j = 0, 1, ... the j-th
    neighbor's relu(h_u W) * 0.5 / n is added; nodes with fewer neighbors
    add a zero row at that position.
    """
    n = g.n
    max_deg = max((len(nbrs) for nbrs in g.adjacency), default=0)
    h = np.asarray(g.features, dtype=np.float64)
    for w in weights:
        msg = np.maximum(h @ w, 0.0)
        acc = msg * np.full((n, 1), 1.0 / n)
        for j in range(max_deg):
            idx = [nbrs[j] if j < len(nbrs) else v for v, nbrs in enumerate(g.adjacency)]
            scale = [[0.5 / n if j < len(nbrs) else 0.0] for nbrs in g.adjacency]
            acc = acc + msg[idx] * np.array(scale)
        h = acc
    return h


def reference_gcn_tape_forward(tape, g: Graph, weights):
    """The mean-pool baseline on the tape as gathers: per neighbour position a
    ``gather_rows`` (a node past its degree gathers itself), a ``scale_rows``
    by 0.5 / n (0 past the degree) and an ``add``, after the self term."""
    n = g.n
    width = max((len(nbrs) for nbrs in g.adjacency), default=0)
    h = tape.leaf(g.features)
    for w in weights:
        msg = tape.relu(tape.matmul(h, tape.leaf(w)))
        h = tape.scale_rows(msg, np.full((n, 1), 1.0 / n))
        for j in range(width):
            idx = [nbrs[j] if j < len(nbrs) else v for v, nbrs in enumerate(g.adjacency)]
            scale = [[0.5 / n if j < len(nbrs) else 0.0] for nbrs in g.adjacency]
            h = tape.add(h, tape.scale_rows(tape.gather_rows(msg, idx), scale))
    return h


def dense_negatives(n: int, pos, count: int, rng):
    """Negatives by listing the whole complement of ``pos`` in upper-triangle
    order and drawing ``count`` of its positions without replacement."""
    taken = set(pos)
    iu, ju = np.triu_indices(n, k=1)
    comp = [(int(a), int(b)) for a, b in zip(iu, ju) if (int(a), int(b)) not in taken]
    picked = rng.choice(len(comp), size=count, replace=False)
    return [comp[i] for i in picked]
