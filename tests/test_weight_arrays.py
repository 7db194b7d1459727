"""The weights held on the graph's link arrays against the dense builders in
`dense_weights.py`: the same dense matrix and the same delay slices bit for
bit, the same domain error word for word, and no n x n array on the engine
paths."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_weights
from dtacopt import costs, delays
from dtacopt.delays import DelayMap, assign_delays, build_delay_slices
from dtacopt.graphs import (
    WeightMatrix,
    build_column_stochastic_weights,
    generate_erdos_renyi,
    generate_exponential_graph,
)
from dtacopt.optimizer import AddOptEngine, StaticSetting, _mixer, init_states

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
MODES = ("uniform-random", "homogeneous-max", "zero")
DAMAGE = ("missing", "extra", "moved", "outside-above", "outside-below")


@st.composite
def networks(draw):
    """An ER graph (mean out-degree 0.5 to 40, not necessarily strongly
    connected) or an exponential graph on 2..300 nodes, with a delay map
    drawn on it."""
    n = draw(st.integers(2, 300) | st.integers(100, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        degree = draw(st.sampled_from((0.5, 1.0, 2.0, 4.0, 12.0, 40.0)))
        g = generate_erdos_renyi(n, min(1.0, degree / n), seed, require_strong=False)
    else:
        g = generate_exponential_graph(n)
    d = assign_delays(g, draw(st.integers(0, 6)), draw(st.sampled_from(MODES)), seed)
    return g, d


def raised(fn, *args) -> str:
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


@PROPERTY
@given(network=networks(), damage=st.sampled_from(DAMAGE), dim=st.integers(1, 3))
def test_link_arrays_match_the_dense_builders(network, damage, dim):
    g, d = network
    C = build_column_stochastic_weights(g, require_strong=False)
    assert "entries" not in vars(C)  # built on first read
    dense = dense_weights.column_stochastic_weights(g, require_strong=False)
    assert C.entries.dtype == dense.dtype and C.entries.tobytes() == dense.tobytes()

    want = dense_weights.delay_slices(dense, d).tobytes()
    copy = DelayMap.from_dict(d.tau, d.tau_max)  # compared, not shared
    assert build_delay_slices(C, d).slices.tobytes() == want
    assert build_delay_slices(C, copy).slices.tobytes() == want
    assert build_delay_slices(dense, d).slices.tobytes() == want

    n, width = g.n, 2 * dim + 1
    cost = costs.make_quadratic(n, dim, 42)
    engine = AddOptEngine(cost, init_states(cost, 3), C, d, 1e-3)
    scanned = _mixer(dense, width)
    assert hasattr(engine._mix, "__self__") == hasattr(scanned, "__self__")  # same route
    X = np.random.default_rng(n).standard_normal((n, width))
    assert engine._mix(X).tobytes() == scanned(X).tobytes()

    tau = dict(d.tau)
    links = list(tau)
    absent = next(((j, i) for j in range(n) for i in range(n) if j != i and (j, i) not in tau), None)
    if damage in ("missing", "moved") and links:
        del tau[links[len(links) // 2]]
    if damage in ("extra", "moved") and absent:
        tau[absent] = 0
    if damage == "outside-above":
        tau[0, n] = 0
    elif damage == "outside-below":
        tau[-1, 0] = 0
    if tau == dict(d.tau):  # nothing to damage
        return
    bad = DelayMap.from_dict(tau, d.tau_max)
    message = raised(dense_weights.delay_slices, dense, bad)
    assert message.startswith("delay map domain does not match the matrix pattern")
    assert raised(build_delay_slices, C, bad) == message
    assert raised(build_delay_slices, dense, bad) == message


def test_a_map_on_the_weights_link_arrays_is_not_compared(monkeypatch):
    g = generate_exponential_graph(50)
    C = build_column_stochastic_weights(g)
    d = assign_delays(g, 3, "uniform-random", 1)

    def compared(*args):
        raise AssertionError("link arrays compared")

    monkeypatch.setattr(delays.np, "array_equal", compared)
    build_delay_slices(C, d)
    with pytest.raises(AssertionError, match="compared"):
        build_delay_slices(C, DelayMap.from_dict(d.tau, d.tau_max))


def test_dense_input_reads_back_as_given_and_keeps_its_errors():
    M = np.array([[0.5, 0.0, 1.0], [0.5, 0.25, 0.0], [0.0, 0.75, 0.0]])
    C = WeightMatrix(M)
    assert C.entries is M
    assert (C.n, C.src.tolist(), C.dst.tolist()) == (3, [0, 1, 2], [1, 2, 0])
    assert C.weight.tolist() == [0.5, 0.75, 1.0] and C.diag.tolist() == [0.5, 0.25, 0.0]
    for bad, why in [
        (np.ones(3), "must be square"),
        (np.ones((2, 3)) / 2, "must be square"),
        (np.array([[1.5, 0.5], [-0.5, 0.5]]), "must be nonnegative"),
        (np.array([[0.5, 0.5], [0.4, 0.5]]), "must sum to 1 within 1e-12"),
    ]:
        with pytest.raises(ValueError, match=why):
            WeightMatrix(bad)


N_LARGE = 3000  # dense C would be N_LARGE**2 * 8 = 72 MB


@pytest.fixture(scope="module")
def large_graph():
    np.random.default_rng(0)  # load numpy.random: its import is not the draw's
    return generate_exponential_graph(N_LARGE)


def traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_static_draw_builds_no_dense_matrix(large_graph):
    g = large_graph
    setting, peak = traced_peak(lambda: StaticSetting.draw(g, 10, "uniform-random", 145))
    assert peak < 700_000  # the weights and the delays, 36000 * 8 bytes each, and no index
    C = setting.weights
    assert "entries" not in vars(C)
    assert C.entries.tobytes() == dense_weights.column_stochastic_weights(g).tobytes()


def test_addopt_engine_on_the_links_stays_linear_in_them(large_graph):
    setting = StaticSetting.draw(large_graph, 10, "uniform-random", 145)
    C, n = setting.weights, N_LARGE
    cost = costs.make_quadratic(n, 1, 42)
    W0 = init_states(cost, 3)
    engine, peak = traced_peak(lambda: AddOptEngine(cost, W0, C, setting.delays, 1e-3))
    nnz, width = len(C.src) + n, W0.shape[1]
    # the product's bins and gather buffer take 16 bytes per nonzero and column
    assert peak < 2 * 16 * nnz * width
    assert "entries" not in vars(C)
    X = np.random.default_rng(1).standard_normal((n, width))
    assert np.allclose(engine._mix(X), C.entries @ X, rtol=0, atol=1e-13)
