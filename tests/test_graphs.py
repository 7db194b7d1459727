from dataclasses import fields

import numpy as np
import pytest

from dtacopt.graphs import (
    ER_MAX_RETRIES,
    DirectedGraph,
    RetryBudgetError,
    WeightMatrix,
    build_column_stochastic_weights,
    dump_edge_list,
    generate_erdos_renyi,
    generate_exponential_graph,
    load_edge_list,
)


def links(g: DirectedGraph) -> list[tuple[int, int]]:
    """g's links as (sender, receiver) tuples, in the order of its arrays."""
    return list(zip(g.src.tolist(), g.dst.tolist()))


def same_links(a: DirectedGraph, b: DirectedGraph) -> bool:
    return np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)


def brute_force_strongly_connected(g: DirectedGraph) -> bool:
    """Reachability closure via boolean matrix powering."""
    n = g.n
    R = np.eye(n, dtype=bool)
    for j, i in links(g):
        R[j, i] = True
    for _ in range(n):
        R = R | (R @ R)
    return bool(R.all())


def cycle(n: int) -> DirectedGraph:
    return DirectedGraph.from_edges((i, (i + 1) % n) for i in range(n))


def test_er_two_nodes_full_probability_is_complete():
    g = generate_erdos_renyi(2, 1.0, seed=0)
    assert links(g) == [(0, 1), (1, 0)]
    assert g.strongly_connected


def test_er_sample_is_strongly_connected():
    g = generate_erdos_renyi(10, 0.5, seed=7)
    assert g.n == 10
    assert g.strongly_connected


def test_er_tiny_probability_exhausts_retries():
    with pytest.raises(RetryBudgetError, match=f"in {ER_MAX_RETRIES} samples"):
        generate_erdos_renyi(3, 1e-9, seed=1)


def test_er_deterministic_given_seed():
    a = generate_erdos_renyi(10, 0.5, seed=7)
    b = generate_erdos_renyi(10, 0.5, seed=7)
    assert same_links(a, b)
    c = generate_erdos_renyi(10, 0.5, seed=8)
    assert not same_links(c, a)


def test_er_parameter_validation():
    with pytest.raises(ValueError):
        generate_erdos_renyi(1, 0.5, seed=0)
    with pytest.raises(ValueError):
        generate_erdos_renyi(5, 0.0, seed=0)
    with pytest.raises(ValueError):
        generate_erdos_renyi(5, 1.5, seed=0)


def test_exponential_graph_two_nodes_is_a_ring():
    g = generate_exponential_graph(2)
    assert links(g) == [(0, 1), (1, 0)]


def test_exponential_graph_four_nodes_hops_one_and_two():
    g = generate_exponential_graph(4)
    expected = sorted((i, (i + h) % 4) for i in range(4) for h in (1, 2))
    assert links(g) == expected


def test_exponential_graph_sixteen_nodes_out_degree_four():
    g = generate_exponential_graph(16)
    for i in range(16):
        outs = g.dst[g.src == i].tolist()
        assert len(outs) == 4
        assert set(outs) == {(i + h) % 16 for h in (1, 2, 4, 8)}
    assert g.strongly_connected


def test_exponential_graph_equals_its_sorted_edge_list():
    for n in (*range(2, 301), 1000, 1024, 1025):
        hops = [2**j for j in range(int(np.log2(n - 1)) + 1)]
        ref = DirectedGraph.from_edges((i, (i + h) % n) for i in range(n) for h in hops)
        g = generate_exponential_graph(n)
        assert g.n == ref.n == n and same_links(g, ref), n
        assert g.src.dtype == g.dst.dtype == np.intp


def test_strong_connectivity_on_known_graphs():
    assert cycle(3).strongly_connected
    path = DirectedGraph(3, [0, 1], [1, 2])
    assert not path.strongly_connected
    complete5 = DirectedGraph.from_edges((i, j) for i in range(5) for j in range(5) if i != j)
    assert complete5.strongly_connected


def test_edge_arrays_follow_sorted_edges(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("2 0\n0 2\n1 1\n0 1\n0 2\n")
    assert links(load_edge_list(path)) == [(0, 1), (0, 2), (2, 0)]  # `1 1` dropped
    er = generate_erdos_renyi(9, 0.2, seed=4, require_strong=False)
    mask = np.random.default_rng(4).random((9, 9)) < 0.2
    np.fill_diagonal(mask, False)
    assert links(er) == sorted(zip(*(a.tolist() for a in np.nonzero(mask))))
    assert links(generate_exponential_graph(13)) == sorted(
        {(i, (i + h) % 13) for i in range(13) for h in (1, 2, 4, 8)}
    )
    for g in (
        generate_erdos_renyi(12, 0.3, seed=4),
        er,
        generate_exponential_graph(13),
        load_edge_list(path),
        DirectedGraph(3, [], []),
        DirectedGraph.from_edges([]),
    ):
        src, dst = g.src, g.dst
        assert src.dtype == dst.dtype == np.intp and len(src) == len(dst)
        # strictly increasing (src, dst): each link's flat index src*n + dst
        # is above the one before
        flat = src * g.n + dst
        assert np.all(flat[1:] > flat[:-1])
        assert np.all((0 <= src) & (src < g.n) & (0 <= dst) & (dst < g.n))


def test_graph_fields_are_its_node_count_and_arrays():
    assert [f.name for f in fields(DirectedGraph)] == ["n", "src", "dst"]
    g = DirectedGraph(2, [0, 1], [1, 0])
    assert g != DirectedGraph(2, g.src, g.dst)  # compared by identity
    assert same_links(g, DirectedGraph.from_edges([(1, 0), (0, 1), (1, 0)]))
    assert DirectedGraph.from_edges([(0, 3)]).n == 4  # nodes up to the largest index
    assert DirectedGraph.from_edges([]).n == 1


def test_out_of_range_edge_error_names_the_smallest_edge():
    edges = sorted({(5, 0), (2, 9), (1, 3), (0, 1), (-1, 2), (3, 1)})
    with pytest.raises(ValueError, match=r"^edge \(-1, 2\) out of range for n=3$"):
        DirectedGraph(3, *zip(*edges))
    with pytest.raises(ValueError, match=r"^edge \(1, 3\) out of range for n=3$"):
        DirectedGraph(3, *zip(*edges[1:]))
    # the converter takes n from the largest index, so only a negative one is out
    with pytest.raises(ValueError, match=r"^edge \(-1, 2\) out of range for n=3$"):
        DirectedGraph.from_edges({(0, 1), (-1, 2)})


@pytest.mark.parametrize(
    "src, dst, message",
    [
        ([0], [7], r"^edge \(0, 7\) out of range for n=3$"),
        ([-1, 0], [2, 1], r"^edge \(-1, 2\) out of range for n=3$"),
        ([0, 2, 3], [1, 0, 0], r"^edge \(3, 0\) out of range for n=3$"),
        ([1, 0], [0, 1], r"^link \(0, 1\) after \(1, 0\) is out of order$"),
        ([0, 0, 1], [2, 1, 0], r"^link \(0, 1\) after \(0, 2\) is out of order$"),
        ([0, 1, 1], [1, 0, 0], r"^link \(1, 0\) after \(1, 0\) is out of order$"),
        ([0, 1], [1], r"^link arrays must be 1-D integer arrays of equal length$"),
        ([0], [1, 0], r"^link arrays must be 1-D integer arrays of equal length$"),
        ([[0]], [[1]], r"^link arrays must be 1-D integer arrays of equal length$"),
        ([0.5], [1], r"^link arrays must be 1-D integer arrays of equal length$"),
        ([0, 1, 1], [1, 0, 1], r"^edge \(1, 1\) is a self-loop$"),
    ],
    ids=["receiver-past-n", "negative-sender", "sender-past-n", "unsorted",
         "unsorted-receivers", "repeated", "short-dst", "short-src", "two-dimensional",
         "float-sender", "self-loop"],
)
def test_graph_rejects_malformed_arrays(src, dst, message):
    with pytest.raises(ValueError, match=message):
        DirectedGraph(3, src, dst)
    with pytest.raises(ValueError, match="at least one node"):
        DirectedGraph(0, [], [])


def test_strong_connectivity_matches_brute_force_oracle():
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(2, 6))
        mask = rng.random((n, n)) < rng.uniform(0.1, 0.9)
        np.fill_diagonal(mask, False)
        g = DirectedGraph(n, *np.nonzero(mask))
        assert g.strongly_connected == brute_force_strongly_connected(g)


def test_weights_complete_two_node():
    g = generate_erdos_renyi(2, 1.0, seed=0)
    C = build_column_stochastic_weights(g)
    assert np.allclose(C.entries, [[0.5, 0.5], [0.5, 0.5]], atol=0)


def test_weights_three_cycle():
    C = build_column_stochastic_weights(cycle(3))
    for j in range(3):
        col = C.entries[:, j]
        assert col[j] == 0.5
        assert col[(j + 1) % 3] == 0.5
        assert col.sum() == 1.0


def test_weights_reject_small_or_disconnected():
    with pytest.raises(ValueError):
        build_column_stochastic_weights(DirectedGraph(1, [0], [0]))
    path = DirectedGraph(3, [0, 1], [1, 2])
    with pytest.raises(ValueError):
        build_column_stochastic_weights(path)


def test_weight_columns_sum_to_one_and_pattern_matches():
    rng = np.random.default_rng(3)
    for seed in range(10):
        n = int(rng.integers(3, 12))
        g = generate_erdos_renyi(n, 0.5, seed=seed)
        C = build_column_stochastic_weights(g).entries
        assert np.max(np.abs(C.sum(axis=0) - 1.0)) <= 1e-12
        for i in range(n):
            for j in range(n):
                if i == j:
                    assert C[i, j] > 0
                else:
                    assert (C[i, j] != 0) == ((j, i) in links(g))


def test_weight_matrix_validates_columns():
    with pytest.raises(ValueError):
        WeightMatrix(np.array([[0.5, 0.5], [0.4, 0.5]]))
    with pytest.raises(ValueError):
        WeightMatrix(np.array([[1.5, 0.5], [-0.5, 0.5]]))


def test_er_epoch_streams_are_deterministic_and_connected():
    def epoch(e):
        return generate_erdos_renyi(8, 0.5, np.random.SeedSequence([11, e]))

    g0a, g0b, g1 = epoch(0), epoch(0), epoch(1)
    assert same_links(g0a, g0b)
    assert not same_links(g0a, g1)
    for e in range(5):
        assert epoch(e).strongly_connected


def test_er_b_connected_mode_skips_retries():
    def epoch(e, require_strong):
        stream = np.random.SeedSequence([5, e])
        return generate_erdos_renyi(6, 0.4, stream, require_strong=require_strong)

    raw = [epoch(e, False) for e in range(30)]
    connected = [g.strongly_connected for g in raw]
    assert not all(connected)  # raw samples at low p are often not connected
    assert any(connected)
    # a connected first draw is what the retrying sampler returns too
    for e, g in enumerate(raw):
        if connected[e]:
            assert same_links(epoch(e, True), g)


def test_edge_list_round_trip(tmp_path):
    g = generate_erdos_renyi(7, 0.4, seed=2)
    path = tmp_path / "graph.txt"
    dump_edge_list(g, path)
    g2 = load_edge_list(path)
    assert same_links(g2, g)
