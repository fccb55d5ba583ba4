import hashlib

import numpy as np
import pytest

from helpers import dense_negatives
from pgnn import graph
from pgnn.graph import (
    EdgeListFormatError,
    Graph,
    augment_one_hot,
    component_sizes,
    connected_caveman,
    constant_features,
    grid_graph,
    load_edge_list,
    load_feature_csv,
    load_node_labels,
    split_pairs,
    write_edge_list,
    write_node_labels,
)


def expected_grid_edges(rows, cols):
    """Enumerate lattice edges directly from coordinates, not node ids."""
    edges = set()
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.add((r * cols + c, r * cols + c + 1))
            if r + 1 < rows:
                edges.add((r * cols + c, (r + 1) * cols + c))
    return edges


def test_grid_matches_enumeration_oracle():
    g = grid_graph(20, 20)
    assert g.n == 400
    assert g.num_edges == 760
    assert set(g.edges()) == expected_grid_edges(20, 20)
    # corner, border and interior degrees
    assert len(g.adjacency[0]) == 2
    assert len(g.adjacency[5]) == 3
    assert len(g.adjacency[21]) == 4
    assert g.is_connected()


def test_grid_non_square():
    g = grid_graph(3, 5)
    assert g.n == 15
    assert set(g.edges()) == expected_grid_edges(3, 5)


def test_grid_single_node():
    g = grid_graph(1, 1)
    assert g.n == 1
    assert g.num_edges == 0
    assert g.is_connected()


def test_grid_rejects_nonpositive_dimensions():
    with pytest.raises(ValueError):
        grid_graph(0, 5)
    with pytest.raises(ValueError):
        grid_graph(5, -1)


def test_caveman_two_pair_cliques_form_a_cycle():
    # comm_size == 2 keeps the intra edge, so 2x2 is exactly a 4-cycle
    g = connected_caveman(2, 2, 0.0, seed=0)
    assert g.n == 4
    assert set(g.edges()) == {(0, 1), (2, 3), (0, 3), (1, 2)}
    assert list(g.labels) == [0, 0, 1, 1]
    assert g.is_connected()


def test_caveman_no_rewire_structure():
    g = connected_caveman(20, 20, 0.0, seed=0)
    assert g.n == 400
    # 20 cliques of C(20,2) edges, one dropped per clique, 20 ring edges
    assert g.num_edges == 20 * 190
    assert g.is_connected()
    inter = [(u, v) for u, v in g.edges() if g.labels[u] != g.labels[v]]
    assert len(inter) == 20
    for c in range(20):
        base = c * 20
        members = range(base, base + 20)
        for a in members:
            for b in members:
                if a < b and (a, b) != (base, base + 1):
                    assert g.has_edge(a, b)
        assert not g.has_edge(base, base + 1)


def test_caveman_without_rewiring_ignores_seed():
    a = connected_caveman(5, 4, 0.0, seed=0)
    b = connected_caveman(5, 4, 0.0, seed=999)
    assert a.adjacency == b.adjacency


def test_caveman_rewiring_is_seeded_and_safe():
    a = connected_caveman(20, 20, 0.01, seed=7)
    b = connected_caveman(20, 20, 0.01, seed=7)
    assert a.adjacency == b.adjacency
    for seed in range(5):
        g = connected_caveman(20, 20, 0.01, seed=seed)
        # rewiring swaps edges one for one, never changing the count
        assert g.num_edges == 3800
        assert g.is_connected()
        assert list(g.labels) == list(np.repeat(np.arange(20), 20))


def test_caveman_rewiring_is_pinned():
    # seeded edge sets must survive refactors of the generator bit for bit
    pinned = {
        (20, 20): "e60b462e2d5f529e5a681686b5e80031235ec9f4f51af70bc0ce1f7165b0d749",
        (8, 8): "27fc8fc4e2d1df18e7d119ecc240ccc013f9904b64fac6c58f6a6e2652a8ed29",
    }
    for (n_comm, comm_size), digest in pinned.items():
        g = connected_caveman(n_comm, comm_size, 0.01, seed=0)
        edges = repr(sorted(g.edges())).encode()
        assert hashlib.sha256(edges).hexdigest() == digest


def test_caveman_high_rewire_is_pinned_and_undoes_disconnecting_swaps(monkeypatch):
    # this config proposes swaps that disconnect the graph; each is undone
    components = []

    def spy(adjacency):
        components.append(len(component_sizes(adjacency)))
        return component_sizes(adjacency)

    monkeypatch.setattr(graph, "component_sizes", spy)
    g = connected_caveman(5, 3, 1.0, seed=2)
    edges = repr(sorted(g.edges())).encode()
    assert hashlib.sha256(edges).hexdigest() == (
        "3ed0ff25892fb56798183aba959906a818cdf3139180b604e96b3eca991a46a9")
    assert any(count > 1 for count in components)
    assert g.is_connected()


def test_component_sizes_follow_smallest_node_id():
    g = Graph.from_edges(6, [(0, 3), (2, 4), (4, 5)])
    assert component_sizes(g.adjacency) == [2, 1, 3]
    assert not g.is_connected()
    assert component_sizes(grid_graph(1, 1).adjacency) == [1]


def test_caveman_rejects_bad_parameters():
    with pytest.raises(ValueError):
        connected_caveman(1, 5, 0.0, seed=0)
    with pytest.raises(ValueError):
        connected_caveman(5, 1, 0.0, seed=0)
    with pytest.raises(ValueError):
        connected_caveman(5, 5, -0.1, seed=0)
    with pytest.raises(ValueError):
        connected_caveman(5, 5, 1.5, seed=0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        connected_caveman(5, 5, 0.0, seed=-1)


def test_graph_validation_rejects_malformed_adjacency():
    with pytest.raises(ValueError):
        Graph(n=2, adjacency=((1,), ()))  # missing reverse edge
    with pytest.raises(ValueError):
        Graph(n=2, adjacency=((0,), ()))  # self loop
    with pytest.raises(ValueError):
        Graph(n=2, adjacency=((1, 1), (0,)))  # duplicate neighbor
    with pytest.raises(ValueError):
        Graph(n=1, adjacency=((5,),))  # out of range
    with pytest.raises(ValueError):
        Graph(n=0, adjacency=())
    with pytest.raises(ValueError):
        Graph(n=2, adjacency=((1,), (0,)), features=np.ones((3, 1)))
    with pytest.raises(ValueError):
        Graph(n=2, adjacency=((1,), (0,)), labels=np.zeros(3, dtype=np.int64))


def test_from_edges_drops_self_loops_and_duplicates():
    g = Graph.from_edges(3, [(0, 1), (1, 0), (1, 1), (1, 2), (1, 2)])
    assert set(g.edges()) == {(0, 1), (1, 2)}
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])


def test_features_are_read_only():
    g = constant_features(grid_graph(2, 2))
    with pytest.raises(ValueError):
        g.features[0, 0] = 2.0


def test_edge_list_roundtrip(tmp_path):
    g = grid_graph(4, 3)
    path = str(tmp_path / "g.edges")
    write_edge_list(path, g, header="test graph")
    loaded = load_edge_list(path)
    assert loaded.adjacency == g.adjacency


def test_edge_list_accepts_comments_blanks_and_duplicates(tmp_path):
    path = tmp_path / "messy.edges"
    path.write_text("# header\n\n0 1\n1\t0\n2 2\n  1   2  \n# trailing\n")
    g = load_edge_list(str(path))
    assert g.n == 3
    assert set(g.edges()) == {(0, 1), (1, 2)}


def test_edge_list_reports_bad_lines(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("0 1\n1 2 3\n")
    with pytest.raises(EdgeListFormatError, match="2"):
        load_edge_list(str(path))
    path.write_text("0 x\n")
    with pytest.raises(EdgeListFormatError):
        load_edge_list(str(path))
    path.write_text("0 -1\n")
    with pytest.raises(EdgeListFormatError):
        load_edge_list(str(path))
    path.write_text("# only comments\n")
    with pytest.raises(ValueError):
        load_edge_list(str(path))


def test_node_labels_roundtrip_and_errors(tmp_path):
    g = connected_caveman(2, 3, 0.0, seed=0)
    path = str(tmp_path / "g.labels")
    write_node_labels(path, g, header="labels")
    assert list(load_node_labels(path, g.n)) == list(g.labels)
    with pytest.raises(ValueError):
        write_node_labels(path, grid_graph(2, 2), header="no labels")
    missing = tmp_path / "partial.labels"
    missing.write_text("0 0\n2 1\n")
    with pytest.raises(ValueError, match="node 1"):
        load_node_labels(str(missing), 3)
    out_of_range = tmp_path / "oob.labels"
    out_of_range.write_text("0 0\n7 1\n")
    with pytest.raises(ValueError):
        load_node_labels(str(out_of_range), 3)


def test_feature_csv(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
    feats = load_feature_csv(str(path), 3)
    assert np.array_equal(feats, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    with pytest.raises(ValueError):
        load_feature_csv(str(path), 4)


def test_feature_helpers():
    g = grid_graph(2, 2)
    const = constant_features(g)
    assert np.array_equal(const.features, np.ones((4, 1)))
    hot = augment_one_hot(g)
    assert np.array_equal(hot.features, np.eye(4))
    both = augment_one_hot(const)
    assert both.features.shape == (4, 5)
    assert np.array_equal(both.features[:, 0], np.ones(4))
    assert np.array_equal(both.features[:, 1:], np.eye(4))


def test_split_link_prediction_partitions_edges():
    g = grid_graph(20, 20)
    split = split_pairs(g, "link_prediction", 0.1, 0.1, seed=0)
    assert (len(split.val_pos), len(split.test_pos), len(split.train_pos)) == (76, 76, 608)
    assert (len(split.val_neg), len(split.test_neg), len(split.train_neg)) == (76, 76, 608)
    edge_set = set(g.edges())
    pos = split.train_pos + split.val_pos + split.test_pos
    assert set(pos) == edge_set
    assert len(set(pos)) == len(pos)
    neg = split.train_neg + split.val_neg + split.test_neg
    assert len(set(neg)) == len(neg)
    for u, v in neg:
        assert u < v
        assert (u, v) not in edge_set


def test_split_negatives_on_a_large_graph():
    # 1024 nodes give 523,776 pairs: above 500,000, where negatives were once
    # drawn by rejection and so differ from earlier versions' splits
    g = grid_graph(32, 32)
    assert g.n * (g.n - 1) // 2 > 500_000
    split = split_pairs(g, "link_prediction", 0.1, 0.1, seed=0)
    edge_set = set(g.edges())
    neg = split.train_neg + split.val_neg + split.test_neg
    assert len(set(neg)) == len(neg)
    for u, v in neg:
        assert u < v
        assert (u, v) not in edge_set
    for pos, negs in ((split.train_pos, split.train_neg), (split.val_pos, split.val_neg),
                      (split.test_pos, split.test_neg)):
        assert len(negs) == len(pos) > 0
    assert split_pairs(g, "link_prediction", 0.1, 0.1, seed=0) == split


@pytest.mark.parametrize("g, task", [
    (grid_graph(20, 20), "link_prediction"),
    (connected_caveman(20, 20, 0.01, seed=0), "pairwise_node_classification"),
    (connected_caveman(8, 8, 0.01, seed=0), "pairwise_node_classification"),
    (grid_graph(5, 5), "link_prediction"),
    (Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]), "link_prediction"),
    (grid_graph(31, 32), "link_prediction"),
], ids=["grid-20x20", "communities-20x20", "communities-8x8", "grid-5x5", "path-4",
        "grid-31x32"])
def test_split_negatives_match_the_listed_complement(monkeypatch, g, task):
    """Ranks mapped to pairs give the split, and leave the generator, exactly as
    listing the complement and drawing positions from it does."""
    def run(sampler, seed):
        rngs = []

        def spy(n, pos, count, rng):
            rngs.append(rng)
            return sampler(n, pos, count, rng)

        monkeypatch.setattr(graph, "_sample_negatives", spy)
        split = split_pairs(g, task, 0.1, 0.1, seed=seed)
        return split, rngs[0].random()

    real = graph._sample_negatives
    for seed in range(5):
        assert run(real, seed) == run(dense_negatives, seed)


def test_split_pairwise_uses_label_pairs():
    g = connected_caveman(20, 20, 0.01, seed=0)
    split = split_pairs(g, "pairwise_node_classification", 0.1, 0.1, seed=0)
    total = 20 * 190  # same-label pairs per clique
    assert len(split.train_pos) + len(split.val_pos) + len(split.test_pos) == total
    assert len(split.val_pos) == len(split.test_pos) == 380
    for u, v in split.train_pos + split.val_pos + split.test_pos:
        assert g.labels[u] == g.labels[v]
    for u, v in split.train_neg + split.val_neg + split.test_neg:
        assert g.labels[u] != g.labels[v]


def test_split_zero_fractions_put_everything_in_train():
    g = grid_graph(5, 5)
    split = split_pairs(g, "link_prediction", 0.0, 0.0, seed=3)
    assert split.val_pos == () and split.test_pos == ()
    assert len(split.train_pos) == g.num_edges


def test_split_positive_fraction_gets_at_least_one_pair():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    split = split_pairs(g, "link_prediction", 0.01, 0.01, seed=0)
    assert len(split.val_pos) == 1
    assert len(split.test_pos) == 1


def test_split_rejects_bad_inputs():
    g = grid_graph(4, 4)
    with pytest.raises(ValueError):
        split_pairs(g, "link_prediction", -0.1, 0.1, seed=0)
    with pytest.raises(ValueError):
        split_pairs(g, "link_prediction", 0.6, 0.5, seed=0)
    for val_frac, test_frac in ((float("nan"), 0.1), (0.1, float("inf"))):
        with pytest.raises(ValueError, match="bad split fractions"):
            split_pairs(g, "link_prediction", val_frac, test_frac, seed=0)
    with pytest.raises(ValueError):
        split_pairs(g, "mystery_task", 0.1, 0.1, seed=0)
    with pytest.raises(ValueError):
        split_pairs(g, "pairwise_node_classification", 0.1, 0.1, seed=0)


def test_split_is_seed_deterministic():
    g = grid_graph(10, 10)
    a = split_pairs(g, "link_prediction", 0.1, 0.1, seed=5)
    b = split_pairs(g, "link_prediction", 0.1, 0.1, seed=5)
    assert a == b
    c = split_pairs(g, "link_prediction", 0.1, 0.1, seed=6)
    assert a != c
