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
    is_strongly_connected,
    load_edge_list,
)


def brute_force_strongly_connected(g: DirectedGraph) -> bool:
    """Reachability closure via boolean matrix powering."""
    n = g.n
    R = np.eye(n, dtype=bool)
    for j, i in g.edges:
        R[j, i] = True
    for _ in range(n):
        R = R | (R @ R)
    return bool(R.all())


def cycle(n: int) -> DirectedGraph:
    return DirectedGraph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def test_er_two_nodes_full_probability_is_complete():
    g = generate_erdos_renyi(2, 1.0, seed=0)
    assert g.edges == frozenset({(0, 1), (1, 0)})
    assert is_strongly_connected(g)


def test_er_sample_is_strongly_connected():
    g = generate_erdos_renyi(10, 0.5, seed=7)
    assert g.n == 10
    assert is_strongly_connected(g)


def test_er_tiny_probability_exhausts_retries():
    with pytest.raises(RetryBudgetError, match=f"in {ER_MAX_RETRIES} samples"):
        generate_erdos_renyi(3, 1e-9, seed=1)


def test_er_deterministic_given_seed():
    a = generate_erdos_renyi(10, 0.5, seed=7)
    b = generate_erdos_renyi(10, 0.5, seed=7)
    assert a.edges == b.edges
    c = generate_erdos_renyi(10, 0.5, seed=8)
    assert c.edges != a.edges


def test_er_parameter_validation():
    with pytest.raises(ValueError):
        generate_erdos_renyi(1, 0.5, seed=0)
    with pytest.raises(ValueError):
        generate_erdos_renyi(5, 0.0, seed=0)
    with pytest.raises(ValueError):
        generate_erdos_renyi(5, 1.5, seed=0)


def test_exponential_graph_two_nodes_is_a_ring():
    g = generate_exponential_graph(2)
    assert g.edges == frozenset({(0, 1), (1, 0)})


def test_exponential_graph_four_nodes_hops_one_and_two():
    g = generate_exponential_graph(4)
    expected = frozenset(
        (i, (i + h) % 4) for i in range(4) for h in (1, 2)
    )
    assert g.edges == expected


def test_exponential_graph_sixteen_nodes_out_degree_four():
    g = generate_exponential_graph(16)
    for i in range(16):
        outs = g.out_neighbors(i)
        assert len(outs) == 4
        assert set(outs) == {(i + h) % 16 for h in (1, 2, 4, 8)}
    assert is_strongly_connected(g)


def test_strong_connectivity_on_known_graphs():
    assert is_strongly_connected(cycle(3))
    path = DirectedGraph(3, frozenset({(0, 1), (1, 2)}))
    assert not is_strongly_connected(path)
    complete5 = DirectedGraph(
        5, frozenset((i, j) for i in range(5) for j in range(5) if i != j)
    )
    assert is_strongly_connected(complete5)


def test_strong_connectivity_matches_brute_force_oracle():
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(2, 6))
        mask = rng.random((n, n)) < rng.uniform(0.1, 0.9)
        np.fill_diagonal(mask, False)
        edges = frozenset(
            (int(j), int(i)) for j, i in zip(*np.nonzero(mask))
        )
        g = DirectedGraph(n, edges)
        assert is_strongly_connected(g) == brute_force_strongly_connected(g)


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
        build_column_stochastic_weights(DirectedGraph(1, frozenset({(0, 0)})))
    path = DirectedGraph(3, frozenset({(0, 1), (1, 2)}))
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
                    assert (C[i, j] != 0) == ((j, i) in g.edges)


def test_weight_matrix_validates_columns():
    with pytest.raises(ValueError):
        WeightMatrix(np.array([[0.5, 0.5], [0.4, 0.5]]))
    with pytest.raises(ValueError):
        WeightMatrix(np.array([[1.5, 0.5], [-0.5, 0.5]]))


def test_er_epoch_streams_are_deterministic_and_connected():
    def epoch(e):
        return generate_erdos_renyi(8, 0.5, np.random.SeedSequence([11, e]))

    g0a, g0b, g1 = epoch(0), epoch(0), epoch(1)
    assert g0a.edges == g0b.edges
    assert g0a.edges != g1.edges
    for e in range(5):
        assert is_strongly_connected(epoch(e))


def test_er_b_connected_mode_skips_retries():
    def epoch(e, require_strong):
        stream = np.random.SeedSequence([5, e])
        return generate_erdos_renyi(6, 0.4, stream, require_strong=require_strong)

    raw = [epoch(e, False) for e in range(30)]
    connected = [is_strongly_connected(g) for g in raw]
    assert not all(connected)  # raw samples at low p are often not connected
    assert any(connected)
    # a connected first draw is what the retrying sampler returns too
    for e, g in enumerate(raw):
        if connected[e]:
            assert epoch(e, True).edges == g.edges


def test_edge_list_round_trip(tmp_path):
    g = generate_erdos_renyi(7, 0.4, seed=2)
    path = tmp_path / "graph.txt"
    dump_edge_list(g, path)
    g2 = load_edge_list(path)
    assert g2.edges == g.edges
