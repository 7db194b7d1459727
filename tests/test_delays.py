from dataclasses import fields

import numpy as np
import pytest

from dtacopt.delays import (
    DelayMap,
    assign_delays,
    build_augmented_matrix,
    build_delay_slices,
    dump_delay_map,
    load_delay_map,
)
from dtacopt.graphs import (
    DirectedGraph,
    build_column_stochastic_weights,
    generate_erdos_renyi,
)


def cycle(n: int) -> DirectedGraph:
    return DirectedGraph.from_edges((i, (i + 1) % n) for i in range(n))


def two_node_setup():
    """The worked 2-node example: delay 1 on 1->0, delay 0 on 0->1."""
    g = generate_erdos_renyi(2, 1.0, seed=0)
    C = build_column_stochastic_weights(g)
    d = DelayMap.from_dict({(1, 0): 1, (0, 1): 0}, tau_max=1)
    return g, C, d


def test_delay_map_validation():
    with pytest.raises(ValueError):
        DelayMap.from_dict({(0, 1): 3}, tau_max=2)
    with pytest.raises(ValueError):
        DelayMap.from_dict({(0, 0): 1}, tau_max=2)
    with pytest.raises(ValueError):
        DelayMap.from_dict({}, tau_max=-1)


def test_delay_map_fields_are_its_arrays_and_bound():
    assert [f.name for f in fields(DelayMap)] == ["src", "dst", "delay", "tau_max"]
    d = DelayMap.from_dict({(1, 0): 2, (0, 1): 0, (1, 1): 0}, tau_max=2)  # (1, 1) dropped
    assert (d.src.tolist(), d.dst.tolist(), d.delay.tolist()) == ([0, 1], [1, 0], [0, 2])
    assert list(d.tau.items()) == [((0, 1), 0), ((1, 0), 2)]
    with pytest.raises(TypeError):
        d.tau[0, 1] = 1  # a read-only view of the arrays
    assert d != DelayMap(d.src, d.dst, d.delay, d.tau_max)  # compared by identity


@pytest.mark.parametrize(
    "src, dst, delay, message",
    [
        ([1, 0], [0, 1], [0, 0], r"^link \(0, 1\) after \(1, 0\) is out of order$"),
        ([0, 0], [1, 1], [0, 1], r"^link \(0, 1\) after \(0, 1\) is out of order$"),
        ([0, 1], [1, 0], [0], r"^link arrays must be 1-D integer arrays of equal length$"),
        ([0, 1], [1], [0, 0], r"^link arrays must be 1-D integer arrays of equal length$"),
        ([0, 1, 2], [1, 2, 0], [0, 3, 4], r"^delay 3 on \(1, 2\) outside \[0, 2\]$"),
        ([0, 1, 2], [1, 2, 0], [0, 2, -1], r"^delay -1 on \(2, 0\) outside \[0, 2\]$"),
        ([0, 0, 1], [0, 1, 0], [1, 0, 0], r"^self-loop delays must be 0$"),
        ([[0, 1]], [[1, 0]], [[0, 0]], r"^link arrays must be 1-D integer arrays of equal length$"),
        ([0.0, 1.0], [1, 0], [0, 0], r"^link arrays must be 1-D integer arrays of equal length$"),
        ([0, 1, 1], [1, 0, 1], [0, 0, 0], r"^link \(1, 1\) is a self-loop$"),
    ],
    ids=["unsorted", "repeated", "short-delay", "short-dst", "delay-above-bound",
         "negative-delay", "delayed-self-loop", "two-dimensional", "float-sender", "self-loop"],
)
def test_delay_map_rejects_malformed_arrays(src, dst, delay, message):
    with pytest.raises(ValueError, match=message):
        DelayMap(src, dst, delay, 2)


def test_delay_bound_error_names_the_smallest_link():
    tau = {(3, 4): 9, (0, 2): 0, (1, 2): -1, (0, 1): 7}
    with pytest.raises(ValueError, match=r"^delay 7 on \(0, 1\) outside \[0, 5\]$"):
        DelayMap.from_dict(tau, tau_max=5)


def test_assign_delays_zero_bound_forces_zero():
    g = cycle(4)
    for mode in ("uniform-random", "homogeneous-max", "zero"):
        d = assign_delays(g, 0, mode, seed=1)
        assert all(t == 0 for t in d.tau.values())


def test_assign_delays_homogeneous_max():
    d = assign_delays(cycle(3), 2, "homogeneous-max")
    assert all(t == 2 for t in d.tau.values())


def test_assign_delays_uniform_range_and_determinism():
    g = generate_erdos_renyi(10, 0.5, seed=7)
    d1 = assign_delays(g, 5, "uniform-random", seed=7)
    d2 = assign_delays(g, 5, "uniform-random", seed=7)
    assert np.array_equal(d1.delay, d2.delay)
    assert d1.src is g.src and d1.dst is g.dst  # the graph's arrays, shared
    assert all(0 <= t <= 5 for t in d1.tau.values())
    assert len(set(d1.tau.values())) > 1


@pytest.mark.parametrize("mode", ["uniform-random", "homogeneous-max", "zero"])
def test_assign_delays_shares_the_checked_graph_arrays(mode, monkeypatch):
    g = generate_erdos_renyi(10, 0.5, seed=7)
    monkeypatch.setattr(DelayMap, "_store", None)  # a map that re-checks fails
    d = assign_delays(g, 3, mode, seed=7)
    assert d.src is g.src and d.dst is g.dst
    monkeypatch.undo()
    checked = DelayMap(g.src, g.dst, d.delay, 3)
    assert checked.tau == d.tau and checked.tau_max == d.tau_max == 3


def test_assign_delays_rejects_unknown_mode():
    with pytest.raises(ValueError):
        assign_delays(cycle(3), 2, "gaussian")


def test_slices_all_zero_delays_collapse_to_first():
    g = cycle(3)
    C = build_column_stochastic_weights(g)
    d = assign_delays(g, 2, "zero")
    slices = build_delay_slices(C, d)
    assert np.array_equal(slices.slices[0], C.entries)
    assert not slices.slices[1:].any()


def test_slices_two_node_worked_example():
    _, C, d = two_node_setup()
    slices = build_delay_slices(C, d)
    assert np.array_equal(slices.slices[0], [[0.5, 0.0], [0.5, 0.5]])
    assert np.array_equal(slices.slices[1], [[0.0, 0.5], [0.0, 0.0]])


def test_slices_homogeneous_max_splits_diagonal_from_rest():
    g = cycle(4)
    C = build_column_stochastic_weights(g)
    d = assign_delays(g, 2, "homogeneous-max")
    slices = build_delay_slices(C, d)
    assert np.array_equal(slices.slices[0], np.diag(np.diag(C.entries)))
    assert not slices.slices[1].any()
    off = C.entries - np.diag(np.diag(C.entries))
    assert np.array_equal(slices.slices[2], off)


def test_slices_sum_back_exactly():
    rng = np.random.default_rng(5)
    for seed in range(8):
        n = int(rng.integers(3, 10))
        g = generate_erdos_renyi(n, 0.6, seed=seed)
        C = build_column_stochastic_weights(g)
        d = assign_delays(g, int(rng.integers(0, 6)), "uniform-random", seed=seed)
        slices = build_delay_slices(C, d)
        assert np.array_equal(slices.slices.sum(axis=0), C.entries)


def test_slices_reject_domain_mismatch():
    g = cycle(3)
    C = build_column_stochastic_weights(g)
    bad = DelayMap.from_dict({(0, 1): 0, (1, 2): 1}, tau_max=1)  # misses (2, 0)
    with pytest.raises(ValueError):
        build_delay_slices(C, bad)


@pytest.mark.parametrize(
    "link", [(2, 3), (3, 0), (-1, 0), (0, -3)],
    ids=["receiver-past-n", "sender-past-n", "negative-sender", "negative-receiver"],
)
def test_slices_reject_a_link_outside_the_matrix(link):
    C = build_column_stochastic_weights(cycle(3))
    d = DelayMap.from_dict({(0, 1): 0, (1, 2): 1, (2, 0): 1, link: 1}, tau_max=1)
    with pytest.raises(ValueError, match=r"mapped non-links \[\(" + ", ".join(map(str, link))):
        build_delay_slices(C, d)


def test_augmented_zero_bound_equals_base_matrix():
    g = cycle(3)
    C = build_column_stochastic_weights(g)
    d = assign_delays(g, 0, "zero")
    aug = build_augmented_matrix(C, d)
    assert np.array_equal(aug.entries, C.entries)


def test_augmented_two_node_worked_example():
    _, C, d = two_node_setup()
    aug = build_augmented_matrix(C, d)
    expected = np.array(
        [
            [0.5, 0.0, 1.0, 0.0],
            [0.5, 0.5, 0.0, 1.0],
            [0.0, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )
    assert np.array_equal(aug.entries, expected)
    assert np.allclose(aug.entries.sum(axis=0), 1.0, atol=1e-12)


def test_augmented_block_structure_and_column_sums():
    rng = np.random.default_rng(9)
    for seed in range(6):
        n = int(rng.integers(3, 9))
        tau = int(rng.integers(1, 5))
        g = generate_erdos_renyi(n, 0.6, seed=seed)
        C = build_column_stochastic_weights(g)
        d = assign_delays(g, tau, "uniform-random", seed=seed)
        slices = build_delay_slices(C, d)
        aug = build_augmented_matrix(C, d)
        M = aug.entries
        assert np.max(np.abs(M.sum(axis=0) - 1.0)) <= 1e-12
        eye = np.eye(n)
        for r in range(tau + 1):
            # block (r, 0) carries slice r
            assert np.array_equal(M[r * n : (r + 1) * n, :n], slices.slices[r])
            for c in range(1, tau + 1):
                block = M[r * n : (r + 1) * n, c * n : (c + 1) * n]
                if r == c - 1:
                    assert np.array_equal(block, eye)
                else:
                    assert not block.any()


def test_delay_map_round_trip(tmp_path):
    g = generate_erdos_renyi(6, 0.5, seed=4)
    d = assign_delays(g, 4, "uniform-random", seed=4)
    path = tmp_path / "delays.txt"
    dump_delay_map(d, path)
    assert path.read_text().startswith("# tau_max=4\n")
    d2 = load_delay_map(path)
    assert d2.tau == d.tau
    for name in ("src", "dst", "delay"):
        assert np.array_equal(getattr(d2, name), getattr(d, name))
    assert d2.tau_max == 4


def test_delay_file_keeps_a_bound_above_its_largest_delay(tmp_path):
    g = cycle(3)
    d = assign_delays(g, 5, "zero")
    path = tmp_path / "delays.txt"
    dump_delay_map(d, path)
    assert load_delay_map(path).tau_max == 5
    # a hand-written file without the bound line is bounded by its largest delay
    path.write_text("".join(f"{j} {i} 2\n" for j, i in zip(g.src.tolist(), g.dst.tolist())))
    assert load_delay_map(path).tau_max == 2
    path.write_text("# tau_max=five\n")
    with pytest.raises(ValueError, match="delays.txt:1: expected '# tau_max=<t>'"):
        load_delay_map(path)
    path.write_text("# tau_max=\u0663\n")  # a decimal digit that int() reads as 3
    assert load_delay_map(path).tau_max == 3

