import math
import tracemalloc

import numpy as np
import pytest

from pgnn.graph import Graph, connected_caveman, grid_graph
from pgnn.metric import (
    UNREACHABLE,
    AnchorFamily,
    DisconnectedGraphError,
    DistanceMatrix,
    all_pairs,
    all_pairs_within,
    anchor_family_size,
    bfs_from,
    bourgain_embed,
    closest_members,
    measure_distortion,
    sample_anchor_family,
    set_distance,
    similarity,
    truncate,
)

from helpers import (floyd_warshall, random_connected_graph, reference_closest_members,
                     reference_measure_distortion)


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


# two paths and two isolated nodes (1 and 6), so two adjacency rows are empty
ISOLATED = Graph.from_edges(8, [(0, 2), (2, 3), (3, 4), (5, 7)])


def as_sentinel(fw):
    """Map the float/inf reference matrix onto the int64 sentinel format."""
    return np.where(np.isinf(fw), UNREACHABLE, fw).astype(np.int64)


def test_bfs_grid_corner_to_corner():
    g = grid_graph(20, 20)
    dist = bfs_from(g, 0)
    assert dist[0] == 0
    assert dist[399] == 38
    assert dist[19] == 19
    # every grid distance is the Manhattan distance between coordinates
    for v in (7, 153, 260, 399):
        r, c = divmod(v, 20)
        assert dist[v] == r + c


def test_bfs_marks_unreachable_nodes():
    g = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)])
    dist = bfs_from(g, 0)
    assert dist[1] == 1
    assert dist[2] == UNREACHABLE
    assert dist[4] == UNREACHABLE
    with pytest.raises(ValueError):
        bfs_from(g, 9)


def test_all_pairs_matches_min_plus_reference():
    rng = np.random.default_rng(42)
    for trial in range(10):
        n = int(rng.integers(2, 40))
        g = random_connected_graph(n, rng, extra_edges=int(rng.integers(0, n)))
        assert np.array_equal(all_pairs(g).d, as_sentinel(floyd_warshall(g)))
    # a single node, several components, and isolated nodes (empty rows)
    for g in (Graph.from_edges(1, []),
              Graph.from_edges(6, [(0, 1), (1, 2), (4, 5)]),
              ISOLATED):
        assert np.array_equal(all_pairs(g).d, as_sentinel(floyd_warshall(g)))


def test_bounded_search_equals_truncated_exact():
    rng = np.random.default_rng(3)
    graphs = [random_connected_graph(int(rng.integers(2, 30)), rng, extra_edges=2)
              for trial in range(8)]
    for g in graphs + [Graph.from_edges(1, []), ISOLATED]:
        exact = all_pairs(g)
        for q in (1, 2, 3):
            assert np.array_equal(all_pairs_within(g, q).d, truncate(exact, q).d)
    with pytest.raises(ValueError):
        all_pairs_within(grid_graph(2, 2), 0)


def test_truncate_is_idempotent_and_validates_q():
    dm = all_pairs(grid_graph(4, 4))
    t2 = truncate(dm, 2)
    assert np.array_equal(truncate(t2, 2).d, t2.d)
    assert np.array_equal(truncate(dm, math.inf).d, dm.d)
    assert t2.d.max() == 2
    assert np.any(t2.d == UNREACHABLE)
    with pytest.raises(ValueError):
        truncate(dm, 0)
    with pytest.raises(ValueError):
        truncate(dm, 2.5)


def test_distance_matrix_validation():
    with pytest.raises(ValueError):
        DistanceMatrix(np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        DistanceMatrix(np.zeros((2, 2), dtype=np.float64))
    with pytest.raises(ValueError):
        DistanceMatrix(np.array([[1, 0], [0, 0]], dtype=np.int64))
    with pytest.raises(ValueError):
        DistanceMatrix(np.array([[0, 1], [2, 0]], dtype=np.int64))
    with pytest.raises(ValueError):
        DistanceMatrix(np.array([[0, -3], [-3, 0]], dtype=np.int64))
    with pytest.raises(ValueError, match="hop counts below n"):
        DistanceMatrix(np.array([[0, 2], [2, 0]], dtype=np.int64))


def test_similarity_values():
    assert similarity(0) == 1.0
    assert similarity(1) == 0.5
    assert similarity(3) == 0.25
    assert similarity(UNREACHABLE) == 0.0
    assert np.array_equal(similarity(np.array([[0, UNREACHABLE], [1, 3]])),
                          [[1.0, 0.0], [0.5, 0.25]])
    with pytest.raises(ValueError):
        similarity(-2)
    with pytest.raises(ValueError):
        similarity(np.array([0, -2]))


def test_anchor_family_size_formula():
    # log2(400) ~ 8.64 so both factors round up to 9
    assert anchor_family_size(400, 1.0) == 81
    assert anchor_family_size(2, 1.0) == 1
    assert anchor_family_size(16, 0.5) == 8
    with pytest.raises(ValueError):
        anchor_family_size(1, 1.0)
    with pytest.raises(ValueError):
        anchor_family_size(10, 0.0)


def test_sampled_family_layout_and_determinism():
    fam = sample_anchor_family(400, 1.0, seed=0)
    assert fam.k == 81
    assert fam.provenance == tuple((i, j) for i in range(1, 10)
                                   for j in range(1, 10))
    for members in fam.sets:
        assert list(members) == sorted(set(members))
        assert all(0 <= v < 400 for v in members)
    again = sample_anchor_family(400, 1.0, seed=0)
    assert fam == again
    other = sample_anchor_family(400, 1.0, seed=1)
    assert fam.sets != other.sets


def test_sampled_set_sizes_track_inclusion_probability():
    # mean size of a prob 2**-i set over seeds should sit near n * 2**-i
    n = 400
    sizes = {1: [], 3: []}
    for seed in range(300):
        fam = sample_anchor_family(n, 1.0, seed=seed)
        for (i, _), members in zip(fam.provenance, fam.sets):
            if i in sizes:
                sizes[i].append(len(members))
    for i, vals in sizes.items():
        mean = np.mean(vals)
        expected = n * 2.0 ** -i
        se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert abs(mean - expected) < 4 * se + 1e-9


def test_anchor_family_validation():
    with pytest.raises(ValueError):
        AnchorFamily(sets=((0,),), provenance=(), c=1.0, seed=0)
    with pytest.raises(ValueError):
        AnchorFamily(sets=(), provenance=(), c=1.0, seed=0)
    with pytest.raises(ValueError):
        AnchorFamily(sets=((1, 0),), provenance=((1, 1),), c=1.0, seed=0)
    with pytest.raises(ValueError):
        sample_anchor_family(1, 1.0, seed=0)
    with pytest.raises(ValueError):
        sample_anchor_family(4, -1.0, seed=0)


def test_set_distance_minimum_and_corner_cases():
    dm = all_pairs(path_graph(4))
    assert set_distance(dm, 1, [0, 3]) == 1
    assert set_distance(dm, 0, [0]) == 0
    assert set_distance(dm, 2, []) == UNREACHABLE
    disc = all_pairs(Graph.from_edges(4, [(0, 1), (2, 3)]))
    assert set_distance(disc, 0, [2, 3]) == UNREACHABLE
    assert set_distance(disc, 0, [1, 3]) == 1
    with pytest.raises(ValueError):
        set_distance(dm, 7, [0])


def test_closest_members_break_ties_low_and_mark_unreachable():
    # path 0-1-2-3-4 plus an isolated node 5
    dm = all_pairs(Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4)]))
    member, hops = closest_members(dm, [[1, 3, 5]])
    # node 2 is one hop from both 1 and 3 and takes the lower id
    assert member[:, 0].tolist() == [1, 1, 1, 3, 3, 5]
    assert hops[:, 0].tolist() == [1, 0, 1, 0, 1, 0]
    member, hops = closest_members(dm, [[4]])
    assert member[:, 0].tolist() == [4, 4, 4, 4, 4, UNREACHABLE]
    assert hops[:, 0].tolist() == [4, 3, 2, 1, 0, UNREACHABLE]
    for out in closest_members(dm, [[]]):
        assert out[:, 0].tolist() == [UNREACHABLE] * 6


def _split_paths(n, length):
    """Paths of ``length`` nodes each (the last one shorter) side by side."""
    return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1) if (v + 1) % length])


_DISTANCES = {
    "grid-20x20": lambda: all_pairs(grid_graph(20, 20)),
    "caveman-20x20": lambda: all_pairs(connected_caveman(20, 20, 0.01, seed=0)),
    "caveman-20x20-2hop": lambda: all_pairs_within(connected_caveman(20, 20, 0.01, seed=0), 2),
    # n = 255 keeps the packed key in uint16, n = 256 needs uint32
    "paths-255": lambda: all_pairs(_split_paths(255, 40)),
    "paths-256": lambda: all_pairs(_split_paths(256, 40)),
}


@pytest.mark.parametrize("name", _DISTANCES)
def test_closest_members_match_the_per_set_argmin(name):
    dm = _DISTANCES[name]()
    n = dm.n
    families = [sample_anchor_family(n, c, seed).sets for seed in range(5) for c in (1.0, 2.0)]
    families.append(((), (0, n - 1), (), (0, n - 1), (n // 2,), tuple(range(0, n, 2)),
                     tuple(range(n)), (1, 3), (n - 2, n - 1), ()))
    for sets in families:
        member, hops = closest_members(dm, sets)
        ref_member, ref_hops = reference_closest_members(dm, sets)
        for got, ref in ((member, ref_member), (hops, ref_hops)):
            assert got.dtype == np.int64 and got.shape == (n, len(sets)), name
            assert np.array_equal(got, ref), name
    assert closest_members(dm, [])[0].shape == (n, 0)


def test_sampled_family_members_are_python_ints_in_the_same_draws():
    for n in (2, 64, 400):
        for seed in range(5):
            fam = sample_anchor_family(n, 1.0, seed)
            rng = np.random.default_rng(seed)
            log_n = math.log2(n)
            expected = tuple(tuple(int(v) for v in np.flatnonzero(rng.random(n) < 2.0 ** -i))
                             for i in range(1, math.ceil(log_n) + 1)
                             for _ in range(math.ceil(log_n)))
            assert fam.sets == expected
            assert all(type(v) is int for members in fam.sets for v in members)


def test_bourgain_embedding_coordinates_by_hand():
    dm = all_pairs(path_graph(4))
    fam = AnchorFamily(sets=((0,), (3,), ()),
                       provenance=((1, 1), (1, 2), (2, 1)), c=1.0, seed=0)
    emb = bourgain_embed(dm, fam)
    assert emb.shape == (4, 3)
    assert np.array_equal(emb[:, 0], np.array([0.0, 1.0, 2.0, 3.0]) / 3.0)
    assert np.array_equal(emb[:, 1], np.array([3.0, 2.0, 1.0, 0.0]) / 3.0)
    assert np.array_equal(emb[:, 2], np.zeros(4))


def test_bourgain_rejects_disconnected_graphs():
    dm = all_pairs(Graph.from_edges(4, [(0, 1), (2, 3)]))
    fam = AnchorFamily(sets=((0,),), provenance=((1, 1),), c=1.0, seed=0)
    with pytest.raises(DisconnectedGraphError):
        bourgain_embed(dm, fam)
    # the empty set 0 is skipped; set 1 is named before set 2, node 2 before node 3
    fam = AnchorFamily(sets=((), (0,), (2,)), provenance=((1, 1), (1, 2), (1, 3)),
                       c=1.0, seed=0)
    with pytest.raises(DisconnectedGraphError) as err:
        bourgain_embed(dm, fam)
    assert str(err.value) == "node 2 cannot reach anchor set 1; graph is disconnected"


def test_bourgain_l1_distances_never_expand():
    rng = np.random.default_rng(11)
    for trial in range(10):
        n = int(rng.integers(4, 50))
        g = random_connected_graph(n, rng, extra_edges=3)
        dm = all_pairs(g)
        fam = sample_anchor_family(n, 1.0, seed=trial)
        emb = bourgain_embed(dm, fam)
        for u in range(n):
            l1 = np.abs(emb - emb[u]).sum(axis=1)
            assert np.all(l1 <= dm.d[u] + 1e-12)


def test_distortion_of_an_isometric_line_embedding():
    n = 6
    dm = all_pairs(path_graph(n))
    emb = np.arange(n, dtype=np.float64).reshape(n, 1)
    for p in (1, 2, math.inf):
        expansion, contraction, distortion = measure_distortion(dm, emb, p)
        assert expansion == 1.0
        assert contraction == 1.0
        assert distortion == 1.0


def test_distortion_collapsed_embedding_is_infinite():
    dm = all_pairs(path_graph(4))
    expansion, contraction, distortion = measure_distortion(
        dm, np.zeros((4, 2)), 2)
    assert expansion == 0.0
    assert contraction == math.inf
    assert distortion == math.inf


def test_distortion_is_scale_invariant():
    rng = np.random.default_rng(5)
    g = random_connected_graph(20, rng, extra_edges=5)
    dm = all_pairs(g)
    emb = bourgain_embed(dm, sample_anchor_family(20, 1.0, seed=0))
    e1, c1, d1 = measure_distortion(dm, emb, 1)
    e2, c2, d2 = measure_distortion(dm, 2.0 * emb, 1)
    assert e2 == pytest.approx(2.0 * e1)
    assert c2 == pytest.approx(0.5 * c1)
    assert d2 == pytest.approx(d1)
    # the Bourgain embedding never stretches distances in l1
    assert e1 <= 1.0 + 1e-12


def test_distortion_matches_the_pairwise_reference():
    """Row-wise norms give the all-pairs difference matrix's values exactly."""
    rng = np.random.default_rng(15)
    graphs = [grid_graph(20, 20), connected_caveman(20, 20, 0.01, seed=0),
              connected_caveman(8, 8, 0.01, seed=0)]
    graphs += [random_connected_graph(n, rng, extra_edges=4) for n in (2, 3, 17, 60)]
    for g in graphs:
        dm = all_pairs(g)
        collapsed = rng.standard_normal((g.n, 3))
        collapsed[-1] = collapsed[0]
        embs = [bourgain_embed(dm, sample_anchor_family(g.n, c, seed))
                for c, seed in ((1.0, 0), (2.0, 4))]
        # column-major and strided layouts too
        embs += [rng.standard_normal((g.n, 9)), collapsed,
                 np.asfortranarray(rng.standard_normal((g.n, 9))),
                 rng.standard_normal((g.n, 10))[:, ::2]]
        for emb in embs:
            for p in (1, 2, math.inf):
                assert (measure_distortion(dm, emb, p)
                        == reference_measure_distortion(dm, emb, p)), (g.n, p)


def test_distortion_never_holds_a_pairs_by_k_array():
    """n = 400, k = 81: the pairs x k difference matrix alone would be 52 MB."""
    dm = all_pairs(grid_graph(20, 20))
    emb = bourgain_embed(dm, sample_anchor_family(dm.n, 1.0, seed=0))
    assert emb.shape == (400, 81)
    for p in (1, 2, math.inf):
        tracemalloc.start()
        try:
            measure_distortion(dm, emb, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20, (p, peak)


def test_distortion_input_validation():
    dm = all_pairs(path_graph(4))
    emb = np.zeros((4, 2))
    with pytest.raises(ValueError):
        measure_distortion(dm, emb, 3)
    with pytest.raises(ValueError):
        measure_distortion(dm, np.zeros((3, 2)), 1)
    disc = all_pairs(Graph.from_edges(4, [(0, 1), (2, 3)]))
    with pytest.raises(DisconnectedGraphError):
        measure_distortion(disc, emb, 1)
    single = DistanceMatrix(np.zeros((1, 1), dtype=np.int64))
    with pytest.raises(ValueError):
        measure_distortion(single, np.zeros((1, 1)), 1)
