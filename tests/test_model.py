import gc
import weakref

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from pgnn.graph import (Graph, augment_one_hot, connected_caveman, constant_features,
                        grid_graph)
from pgnn.metric import (UNREACHABLE, AnchorFamily, all_pairs, closest_members,
                         sample_anchor_family, truncate)
from pgnn.model import (
    GCNConfig,
    PGNNConfig,
    _glorot,
    _gcn_index,
    _message_table,
    gcn_forward,
    init_gcn_params,
    init_pgnn_params,
    make_distance_input,
    pgnn_forward,
    singleton_family,
)
from pgnn.tensor import ShapeError, Tape
from pgnn.train import epoch_loss

from helpers import (max_rel_err, numeric_grad, random_connected_graph,
                     reference_gcn_forward, reference_pgnn_forward)


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def forward_embeddings(g, fam, params, cfg):
    tape = Tape()
    dm = make_distance_input(g, cfg)
    emb = pgnn_forward(tape, g, dm, fam, params, cfg)
    return emb.z.data, emb.h.data


def test_config_validation():
    with pytest.raises(ValueError):
        PGNNConfig(layers=0)
    with pytest.raises(ValueError):
        PGNNConfig(layers=9)
    with pytest.raises(ValueError):
        PGNNConfig(anchor_c=0.0)
    with pytest.raises(ValueError):
        PGNNConfig(variant="approximate")
    with pytest.raises(ValueError):
        PGNNConfig(message_dim=0)
    with pytest.raises(ValueError):
        GCNConfig(layers=0)
    with pytest.raises(ValueError):
        GCNConfig(message_dim=-3)


def test_init_shapes_bounds_and_determinism():
    cfg = PGNNConfig(layers=2, message_dim=8)
    params = init_pgnn_params(3, cfg, np.random.default_rng(0))
    # [w_msg0, w_msg1, w]: the checkpoint's layer{i}.w_msg, then layer1.w
    assert [p.shape for p in params] == [(6, 8), (16, 8), (8, 1)]
    bound0 = np.sqrt(6.0 / (6 + 8))
    assert np.abs(params[0]).max() <= bound0
    # every layer still draws an output vector, so seeded runs keep their draws
    rng = np.random.default_rng(0)
    old = [_glorot(rng, *shape, shape) for shape in ((6, 8), (8, 1), (16, 8), (8, 1))]
    for a, b in zip(params, (old[0], old[2], old[3])):
        assert np.array_equal(a, b)
    again = init_pgnn_params(3, cfg, np.random.default_rng(0))
    for a, b in zip(params, again):
        assert np.array_equal(a, b)
    gw = init_gcn_params(3, GCNConfig(layers=2, message_dim=8),
                         np.random.default_rng(0))
    assert gw[0].shape == (3, 8)
    assert gw[1].shape == (8, 8)
    with pytest.raises(ValueError):
        init_pgnn_params(0, cfg, np.random.default_rng(0))


def test_fast_distances_are_two_hop_truncation():
    rng = np.random.default_rng(9)
    for trial in range(20):
        n = int(rng.integers(2, 40))
        g = random_connected_graph(n, rng, extra_edges=int(rng.integers(0, 4)))
        fast = make_distance_input(g, PGNNConfig(variant="fast"))
        exact = make_distance_input(g, PGNNConfig(variant="exact"))
        assert np.array_equal(fast.d, truncate(exact, 2).d)


def test_forward_on_single_node_graph():
    g = constant_features(Graph(n=1, adjacency=((),)))
    fam = AnchorFamily(sets=((0,),), provenance=((1, 1),), c=1.0, seed=0)
    cfg = PGNNConfig(layers=2, message_dim=4)
    params = init_pgnn_params(1, cfg, np.random.default_rng(0))
    tape = Tape()
    emb = pgnn_forward(tape, g, all_pairs(g), fam, params, cfg)
    assert emb.z.shape == (1, 1)
    assert emb.h.shape == (1, 4)
    assert np.all(np.isfinite(emb.z.data))


def test_forward_argument_validation():
    g = constant_features(path_graph(4))
    cfg = PGNNConfig(layers=1, message_dim=4)
    params = init_pgnn_params(1, cfg, np.random.default_rng(0))
    fam = AnchorFamily(sets=((0,),), provenance=((1, 1),), c=1.0, seed=0)
    dm = all_pairs(g)
    with pytest.raises(ValueError):
        pgnn_forward(Tape(), path_graph(4), dm, fam, params, cfg)
    with pytest.raises(ShapeError):
        pgnn_forward(Tape(), g, all_pairs(path_graph(3)), fam, params, cfg)
    bad_fam = AnchorFamily(sets=((7,),), provenance=((1, 1),), c=1.0, seed=0)
    with pytest.raises(ValueError):
        pgnn_forward(Tape(), g, dm, bad_fam, params, cfg)
    two_layer = init_pgnn_params(1, PGNNConfig(layers=2, message_dim=4),
                                 np.random.default_rng(0))
    with pytest.raises(ShapeError):
        pgnn_forward(Tape(), g, dm, fam, two_layer, cfg)
    with pytest.raises(ShapeError):  # a w_msg without its output vector
        pgnn_forward(Tape(), g, dm, fam, params[:1], cfg)


def test_empty_anchor_set_yields_zero_output_column():
    g = constant_features(path_graph(5))
    fam = AnchorFamily(sets=((0, 2), (), (4,)),
                       provenance=((1, 1), (1, 2), (2, 1)), c=1.0, seed=0)
    cfg = PGNNConfig(layers=2, message_dim=4)
    params = init_pgnn_params(1, cfg, np.random.default_rng(3))
    z, h = forward_embeddings(g, fam, params, cfg)
    assert np.array_equal(z[:, 1], np.zeros(5))
    assert np.any(z[:, 0] != 0.0)
    assert np.all(np.isfinite(h))


def test_forward_matches_hand_computation():
    """Replicate the one-layer closest-member forward in raw numpy."""
    g = path_graph(3)
    feats = np.array([[1.0, 0.0], [0.5, 2.0], [-1.0, 1.0]])
    g = Graph(n=3, adjacency=g.adjacency, features=feats)
    fam = AnchorFamily(sets=((0,), (1, 2)), provenance=((1, 1), (1, 2)),
                       c=1.0, seed=0)
    cfg = PGNNConfig(layers=1, message_dim=2)
    params = init_pgnn_params(2, cfg, np.random.default_rng(5))
    z, h = forward_embeddings(g, fam, params, cfg)

    w_msg, w = params
    # set {0}: closest member is 0 for everyone; set {1,2}: node 0 -> 1,
    # node 1 -> 1, node 2 -> 2, with hop counts 1, 0, 0
    stars = [np.array([0, 0, 0]), np.array([1, 1, 2])]
    sims = [np.array([[1.0], [0.5], [1 / 3]]), np.array([[0.5], [1.0], [1.0]])]
    msgs = []
    for star, sim in zip(stars, sims):
        cat = np.hstack([feats, sim * feats[star]])
        msgs.append(np.maximum(cat @ w_msg, 0.0))
    assert np.array_equal(z, np.hstack([m @ w for m in msgs]))
    assert np.array_equal(h, (msgs[0] + msgs[1]) * 0.5)


def test_reordering_anchor_sets_permutes_z_and_preserves_h():
    rng = np.random.default_rng(0)
    g = random_connected_graph(14, rng, extra_edges=5)
    g = Graph(n=g.n, adjacency=g.adjacency, features=rng.standard_normal((14, 3)))
    fam = sample_anchor_family(14, 1.0, seed=2)
    cfg = PGNNConfig(layers=2, message_dim=6)
    params = init_pgnn_params(3, cfg, np.random.default_rng(1))
    z1, h1 = forward_embeddings(g, fam, params, cfg)

    perm = np.random.default_rng(4).permutation(fam.k)
    shuffled = AnchorFamily(sets=tuple(fam.sets[m] for m in perm),
                            provenance=tuple(fam.provenance[m] for m in perm),
                            c=fam.c, seed=fam.seed)
    z2, h2 = forward_embeddings(g, shuffled, params, cfg)
    assert np.array_equal(h1, h2)
    for new_col, old_col in enumerate(perm):
        assert np.array_equal(z2[:, new_col], z1[:, old_col])


def _shuffled(fam, seed):
    perm = np.random.default_rng(seed).permutation(fam.k)
    return AnchorFamily(sets=tuple(fam.sets[m] for m in perm),
                        provenance=tuple(fam.provenance[m] for m in perm),
                        c=fam.c, seed=fam.seed)


def _reference_cases(closest):
    """(name, graph, family, config) covering the shapes the forward meets."""
    rng = np.random.default_rng(11)
    feats = lambda g, d: Graph(n=g.n, adjacency=g.adjacency,
                               features=rng.standard_normal((g.n, d)))
    cave = connected_caveman(8, 8, 0.1, seed=3)
    # three components, one of them an isolated node
    split = feats(Graph.from_edges(12, [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7),
                                        (7, 8), (8, 9), (10, 11)]), 2)
    holes = AnchorFamily(sets=((0, 2), (), (4, 9), (), (1, 3, 5), (11,)),
                         provenance=((2, 1), (1, 1), (1, 2), (3, 3), (1, 1), (2, 2)),
                         c=1.0, seed=0)
    walk = feats(random_connected_graph(30, rng, extra_edges=6), 3)
    cases = [
        ("caveman", constant_features(cave), sample_anchor_family(64, 1.0, 4),
         dict(layers=2, message_dim=8)),
        ("caveman fast", feats(cave, 2), sample_anchor_family(64, 1.0, 5),
         dict(layers=2, message_dim=8, variant="fast")),
        ("disconnected", split, sample_anchor_family(12, 1.5, 3),
         dict(layers=2, message_dim=4)),
        ("disconnected fast, empty sets, shuffled", split, _shuffled(holes, 1),
         dict(layers=3, message_dim=4, variant="fast")),
        ("1 layer", walk, sample_anchor_family(30, 1.0, 6), dict(layers=1, message_dim=5)),
        ("3 layers shuffled", walk, _shuffled(sample_anchor_family(30, 2.0, 7), 2),
         dict(layers=3, message_dim=6)),
    ]
    # one-hot ids (the transductive setting): d = n, the widest layer-1 input
    cases.append(("caveman one-hot", augment_one_hot(cave), sample_anchor_family(64, 1.0, 8),
                  dict(layers=2, message_dim=8)))
    if not closest:  # 2-hop truncation leaves most (node, member) pairs out of reach
        cases.append(("grid fast, unreachable members", feats(grid_graph(12, 12), 2),
                      sample_anchor_family(144, 1.0, 9),
                      dict(layers=2, message_dim=8, variant="fast")))
    if closest:
        cases.append(("grid k=162", constant_features(grid_graph(20, 20)),
                      sample_anchor_family(400, 2.0, 0),
                      dict(layers=2, message_dim=16, anchor_c=2.0)))
    for name, g, fam, kw in cases:
        yield name, g, fam, PGNNConfig(closest_node_agg=closest, **kw)


def _assert_close(z, h, z_ref, h_ref, closest, label):
    """The forward against the per-set reference, up to summation order.

    H adds each distinct message once, weighted by its use count, and Z dots
    each distinct message with w before it is expanded into slots; the
    reference adds one block per set.  Z's dot product with the mixed-sign w
    may cancel to a near-zero entry, so Z, and closest-mode H, are checked
    relative to their largest entry.  Mean-mode H is checked entry by entry;
    a layer-1 H a few ulp off moves one near-zero layer-2 entry (5.1e-18 on
    the caveman case) by 1.8e-12 of itself, hence rtol 2e-12.
    """
    np.testing.assert_allclose(z, z_ref, rtol=1e-12, atol=1e-12 * np.abs(z_ref).max(),
                               err_msg=label)
    if closest:
        np.testing.assert_allclose(h, h_ref, rtol=1e-12, atol=1e-12 * np.abs(h_ref).max(),
                                   err_msg=label)
    else:
        np.testing.assert_allclose(h, h_ref, rtol=2e-12, atol=0, err_msg=label)


@pytest.mark.parametrize("closest", [True, False])
def test_forward_matches_per_set_reference(closest):
    for name, g, fam, cfg in _reference_cases(closest):
        params = init_pgnn_params(g.features.shape[1], cfg, np.random.default_rng(8))
        z, h = forward_embeddings(g, fam, params, cfg)
        z_ref, h_ref = reference_pgnn_forward(g, make_distance_input(g, cfg), fam,
                                              params, closest)
        _assert_close(z, h, z_ref, h_ref, closest, name)


@pytest.mark.parametrize("closest", [True, False])
def test_tape_nodes_per_forward_do_not_depend_on_k(closest):
    g = constant_features(connected_caveman(8, 8, 0.1, seed=1))
    cfg = PGNNConfig(layers=2, message_dim=4, closest_node_agg=closest)
    params = init_pgnn_params(1, cfg, np.random.default_rng(0))
    dm = make_distance_input(g, cfg)
    nodes = []
    for k in (1, 40):
        fam = AnchorFamily(sets=tuple((m, m + 20) for m in range(k)),
                           provenance=tuple((1, m + 1) for m in range(k)),
                           c=1.0, seed=0)
        tape = Tape()
        pgnn_forward(tape, g, dm, fam, params, cfg)
        nodes.append(len(tape))
    assert nodes == [21, 21]


def test_forward_frees_each_layers_pre_activation(monkeypatch):
    """The D x r array ``relu`` reads is dead once the forward returns; the
    ``relu`` output lives on in its own backward and the projection for Z."""
    g = constant_features(grid_graph(20, 20))
    cfg = PGNNConfig(layers=2, message_dim=16, anchor_c=2.0)
    params = init_pgnn_params(1, cfg, np.random.default_rng(0))
    dm = make_distance_input(g, cfg)
    fam = sample_anchor_family(g.n, cfg.anchor_c, seed=0)
    outputs = {"spmm": [], "relu": []}

    def spmm(tape, s, a, _op=Tape.spmm):
        out = _op(tape, s, a)
        outputs["spmm"].append((s, weakref.ref(out.data)))
        return out

    def relu(tape, a, _op=Tape.relu):
        out = _op(tape, a)
        outputs["relu"].append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(Tape, "spmm", spmm)
    monkeypatch.setattr(Tape, "relu", relu)
    tape = Tape()
    emb = pgnn_forward(tape, g, dm, fam, params, cfg)
    gc.collect()
    member = _message_table(dm, fam, cfg.closest_node_agg)[2]
    pre = [ref for s, ref in outputs["spmm"] if s is member]
    assert len(pre) == 2 and all(ref() is None for ref in pre)
    assert len(outputs["relu"]) == 2
    assert all(ref() is not None and ref().shape == (member.shape[0], 16)
               for ref in outputs["relu"])
    assert emb.z.shape == (g.n, fam.k)


@pytest.mark.parametrize("closest", [True, False])
def test_message_table_arrays_are_read_only(closest):
    """The memo hands the same arrays to every forward: an in-place sort or
    merge of an operator's entries would reorder the sums of later ones."""
    g = constant_features(connected_caveman(6, 6, 0.1, seed=2))
    cfg = PGNNConfig(variant="fast", closest_node_agg=closest)
    fam = sample_anchor_family(g.n, 1.0, seed=3)
    mats = _message_table(make_distance_input(g, cfg), fam, closest)
    assert len(mats) == 5  # top, bottom, member, to_h, to_z
    assert not any(a.flags.writeable for m in mats for a in (m.data, m.indices, m.indptr))
    # mean mode: a Z cell lists its messages in member order, not sorted, and
    # two unreachable members of one set share one message there
    merged = [m for m in mats if not m.has_canonical_format]
    assert bool(merged) == (not closest)
    for m in merged:
        with pytest.raises(ValueError, match="read-only"):
            m.sum_duplicates()


@pytest.mark.parametrize("closest", [True, False])
def test_spmm_gradient_equals_a_stored_transpose(closest):
    """Tape.spmm's backward, S.T @ g through scipy's CSC view of S, equals
    the product with a CSR copy of S.T bit for bit on each message-table
    operator (an empty set, and members out of the fast variant's reach),
    and on a listed one-row operator that names a column twice."""
    g = constant_features(path_graph(7))
    cfg = PGNNConfig(variant="fast", closest_node_agg=closest)
    fam = AnchorFamily(sets=((0, 6), (), (1, 3, 5), (2,)),
                       provenance=((1, 1), (1, 2), (2, 1), (2, 2)), c=1.0, seed=0)
    listed = csr_matrix((np.array([1e16, 1.0, -1e16]), np.array([1, 0, 1]),
                         np.array([0, 3])), shape=(1, 2))
    rng = np.random.default_rng(4)
    for s in (*_message_table(make_distance_input(g, cfg), fam, closest), listed):
        tape = Tape()
        x = tape.leaf(np.zeros((s.shape[1], 1)))
        g_out = rng.standard_normal((s.shape[0], 1)) * 10.0 ** rng.integers(-8, 8, (s.shape[0], 1))
        loss = tape.matmul(tape.leaf(g_out.T), tape.spmm(s, x))  # passes g_out on exactly
        assert np.array_equal(tape.backward(loss)[x.id], s.T.tocsr() @ g_out)


def _assert_matches_reference(g, dm, fam, params, cfg, label):
    emb = pgnn_forward(Tape(), g, dm, fam, params, cfg)
    z_ref, h_ref = reference_pgnn_forward(g, dm, fam, params, cfg.closest_node_agg)
    _assert_close(emb.z.data, emb.h.data, z_ref, h_ref, cfg.closest_node_agg, label)


def test_message_table_weights_equal_the_slot_mask_formula():
    """Mean mode sums each width's slot counts in increasing width; gathering a
    width's slot columns per node gives the bytes of a mask over every slot."""
    g = constant_features(grid_graph(8, 8))
    cfg = PGNNConfig(variant="fast", closest_node_agg=False)
    dm = make_distance_input(g, cfg)
    fam = sample_anchor_family(g.n, 2.0, seed=0)
    widths = np.array([len(s) for s in fam.sets])
    assert np.unique(widths[widths > 0]).size >= 5
    u = np.array([v for s in fam.sets for v in s])
    d, own = dm.d[:, u], np.arange(g.n)[:, None]
    key = 2 * (own * g.n + np.where(d != UNREACHABLE, u, own)) + (d != UNREACHABLE)
    key, row = np.unique(key, return_inverse=True)
    size = np.tile(np.repeat(widths, widths), g.n)
    uses = sum((np.bincount(row.ravel()[size == m], minlength=key.size) / m
                for m in np.unique(widths[widths > 0])), np.zeros(key.size))
    to_h = _message_table(dm, fam, False)[3]
    assert to_h.data.tobytes() == (uses / fam.k).tobytes()


def test_message_table_memo_follows_its_inputs():
    """Each call in turn changes one input the cached table depends on."""
    rng = np.random.default_rng(5)
    g = random_connected_graph(16, rng, extra_edges=4)
    g = Graph(n=g.n, adjacency=g.adjacency, features=rng.standard_normal((16, 2)))
    closest = PGNNConfig(layers=2, message_dim=4)
    mean = PGNNConfig(layers=2, message_dim=4, closest_node_agg=False)
    params = init_pgnn_params(2, closest, np.random.default_rng(6))
    dm = all_pairs(g)
    fam_a = sample_anchor_family(16, 1.0, seed=1)
    fam_b = sample_anchor_family(16, 1.0, seed=2)
    for label, dist, fam, cfg in (("A", dm, fam_a, closest), ("B", dm, fam_b, closest),
                                  ("A mean", dm, fam_a, mean),
                                  ("A one hop", truncate(dm, 1), fam_a, closest),
                                  ("A again", dm, fam_a, closest)):
        _assert_matches_reference(g, dist, fam, params, cfg, label)


def _distinct_messages(dm, fam, closest):
    """(node, member, reachable) triples of every message, from closest_members."""
    triples = set()
    for members in fam.sets:
        if not members:
            continue
        if closest:
            choices = [closest_members(dm, [members])[0][:, 0]]
        else:
            choices = [np.where(dm.d[:, u] != UNREACHABLE, u, UNREACHABLE) for u in members]
        for chosen in choices:
            triples.update((v, v if u == UNREACHABLE else int(u), u != UNREACHABLE)
                           for v, u in enumerate(chosen))
    return len(triples)


@pytest.mark.parametrize("closest", [True, False])
def test_each_distinct_message_is_computed_once(closest, monkeypatch):
    g = constant_features(connected_caveman(6, 6, 0.1, seed=2))
    cfg = PGNNConfig(layers=2, message_dim=4, variant="fast", closest_node_agg=closest)
    params = init_pgnn_params(1, cfg, np.random.default_rng(0))
    dm = make_distance_input(g, cfg)
    fam = sample_anchor_family(g.n, 1.0, seed=3)
    # every set twice, each copy under its own provenance
    twice = AnchorFamily(sets=fam.sets * 2,
                         provenance=fam.provenance + tuple((i, j + 100)
                                                           for i, j in fam.provenance),
                         c=fam.c, seed=fam.seed)
    rows = {"matmul": [], "relu": []}
    for kind in rows:
        def counting(tape, *args, _op=getattr(Tape, kind), _kind=kind):
            out = _op(tape, *args)
            rows[_kind].append(out.shape[0])
            return out

        monkeypatch.setattr(Tape, kind, counting)
    once = pgnn_forward(Tape(), g, dm, fam, params, cfg)
    emb = pgnn_forward(Tape(), g, dm, twice, params, cfg)
    # per forward: each layer's relu is its message array, and its matmul has
    # 2n rows ([h W_top; h W_bot]); the last matmul projects the messages for Z
    distinct = _distinct_messages(dm, fam, closest)
    assert rows["relu"] == [distinct] * 4
    assert rows["matmul"] == [2 * g.n, 2 * g.n, distinct] * 2
    assert np.array_equal(emb.z.data[:, :fam.k], emb.z.data[:, fam.k:])
    # every use count and k double, so each message keeps its weight exactly
    assert np.array_equal(emb.h.data, once.h.data)


def test_closest_and_mean_aggregation_agree_on_singleton_sets():
    rng = np.random.default_rng(7)
    g = random_connected_graph(10, rng, extra_edges=3)
    g = Graph(n=g.n, adjacency=g.adjacency, features=rng.standard_normal((10, 2)))
    fam = singleton_family(10)
    params = init_pgnn_params(2, PGNNConfig(layers=2, message_dim=4),
                              np.random.default_rng(2))
    z_close, h_close = forward_embeddings(
        g, fam, params, PGNNConfig(layers=2, message_dim=4, closest_node_agg=True))
    z_mean, h_mean = forward_embeddings(
        g, fam, params, PGNNConfig(layers=2, message_dim=4, closest_node_agg=False))
    assert np.allclose(z_close, z_mean, atol=1e-14)
    assert np.allclose(h_close, h_mean, atol=1e-14)


def test_position_aware_reduces_to_gcn_on_singleton_sets():
    """With one-hop distances, singleton sets and a member-only message map,
    the per-set messages become s1(v, u) * relu(h_u W), so the cross-set mean
    reproduces the baseline aggregation layer for layer."""
    rng = np.random.default_rng(12)
    g = random_connected_graph(12, rng, extra_edges=4)
    g = Graph(n=g.n, adjacency=g.adjacency, features=rng.standard_normal((12, 3)))
    gcn_cfg = GCNConfig(layers=2, message_dim=5)
    weights = init_gcn_params(3, gcn_cfg, np.random.default_rng(3))

    params = [np.vstack([np.zeros_like(w), w]) for w in weights] + [np.zeros((5, 1))]

    cfg = PGNNConfig(layers=2, message_dim=5)
    one_hop = truncate(all_pairs(g), 1)
    tape = Tape()
    emb = pgnn_forward(tape, g, one_hop, singleton_family(12), params, cfg)
    baseline = gcn_forward(Tape(), g, weights, layers=2)
    assert np.abs(emb.h.data - baseline.data).max() <= 1e-12


def test_five_path_symmetry_dichotomy():
    g = constant_features(path_graph(5))
    weights = init_gcn_params(1, GCNConfig(layers=2, message_dim=8),
                              np.random.default_rng(0))
    out = gcn_forward(Tape(), g, weights, layers=2).data
    # mirror images are indistinguishable to neighborhood aggregation; the
    # end nodes agree bit for bit, interior mirrors only up to add order
    assert np.array_equal(out[0], out[4])
    assert np.allclose(out[1], out[3], rtol=0.0, atol=1e-15)

    fam = AnchorFamily(sets=((0,),), provenance=((1, 1),), c=1.0, seed=0)
    cfg = PGNNConfig(layers=2, message_dim=8)
    params = init_pgnn_params(1, cfg, np.random.default_rng(0))
    z, _ = forward_embeddings(g, fam, params, cfg)
    assert np.abs(z[0] - z[4]).max() > 1e-6


def test_gcn_matches_neighbor_position_reference():
    rng = np.random.default_rng(13)
    tree = random_connected_graph(11, rng, extra_edges=7)
    g = Graph.from_edges(12, tree.edges())  # node 11 is isolated
    g = Graph(n=g.n, adjacency=g.adjacency, features=rng.standard_normal((12, 3)))
    degrees = [len(nbrs) for nbrs in g.adjacency]
    assert degrees[11] == 0 and max(degrees) >= 3
    weights = init_gcn_params(3, GCNConfig(layers=3, message_dim=4),
                              np.random.default_rng(4))
    out = gcn_forward(Tape(), g, weights, layers=3).data
    assert np.array_equal(out, reference_gcn_forward(g, weights))


def test_gcn_index_memo_follows_its_inputs():
    """Graph A, then B, then A again: each forward matches the reference."""
    rng = np.random.default_rng(17)
    graphs = []
    for n, extra in ((10, 5), (13, 9)):
        tree = random_connected_graph(n, rng, extra_edges=extra)
        graphs.append(Graph(n=n, adjacency=tree.adjacency,
                            features=rng.standard_normal((n, 3))))
    weights = init_gcn_params(3, GCNConfig(layers=2, message_dim=4),
                              np.random.default_rng(8))
    for g in (graphs[0], graphs[1], graphs[0]):
        out = gcn_forward(Tape(), g, weights, layers=2).data
        assert np.array_equal(out, reference_gcn_forward(g, weights))
        assert not any(a.flags.writeable for a in _gcn_index(g.adjacency))


def test_gcn_hand_oracle_on_triangle():
    g = constant_features(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]))
    w = np.array([[2.0]])
    out = gcn_forward(Tape(), g, [w], layers=1).data
    expected = 2.0 * (1 / 3 + 0.5 / 3 + 0.5 / 3)
    assert np.allclose(out, np.full((3, 1), expected), atol=1e-15)


def test_gcn_keeps_isolated_nodes_at_self_message():
    g = constant_features(Graph(n=2, adjacency=((), ())))
    out = gcn_forward(Tape(), g, [np.array([[1.0]])], layers=1).data
    assert np.array_equal(out, np.full((2, 1), 0.5))


def test_gcn_argument_validation():
    g = constant_features(path_graph(3))
    with pytest.raises(ValueError):
        gcn_forward(Tape(), path_graph(3), [np.eye(1)], layers=1)
    with pytest.raises(ShapeError):
        gcn_forward(Tape(), g, [np.eye(1)], layers=2)


def test_singleton_family_layout():
    fam = singleton_family(4)
    assert fam.sets == ((0,), (1,), (2,), (3,))
    assert fam.provenance == ((1, 1), (1, 2), (1, 3), (1, 4))


@pytest.mark.parametrize("closest", [True, False])
def test_full_model_gradient_check(closest):
    rng = np.random.default_rng(21)
    g = random_connected_graph(12, rng, extra_edges=4)
    g = Graph(n=g.n, adjacency=g.adjacency,
              features=rng.standard_normal((12, 3)))
    cfg = PGNNConfig(layers=2, message_dim=5, closest_node_agg=closest)
    dm = make_distance_input(g, cfg)
    fam = sample_anchor_family(12, 1.0, seed=6)
    flat = init_pgnn_params(3, cfg, rng)
    pos = [(0, 3), (2, 9), (4, 4)]
    neg = [(1, 7), (5, 11)]

    def loss_at(arrays):
        tape = Tape()
        leaves = [tape.leaf(a) for a in arrays]
        emb = pgnn_forward(tape, g, dm, fam, arrays, cfg)
        return tape, leaves, epoch_loss(tape, emb.z, pos, neg)

    tape, leaves, loss = loss_at(flat)
    table = tape.backward(loss)
    for idx, arr in enumerate(flat):
        def f(x):
            trial = list(flat)
            trial[idx] = x
            _, _, value = loss_at(trial)
            return float(value.data[0, 0])

        analytic = table[leaves[idx].id]
        numeric = numeric_grad(f, arr)
        assert max_rel_err(analytic, numeric) < 1e-4
        assert np.any(analytic != 0)  # the forward reads every parameter
