"""The per-node engine's stacked operator, located from the weights' link
arrays and the delay map, against a scan of the dense slice stack: the same
nonzeros, the same route, bitwise the same products; and its set-up never
holds the stack and the product's bins at once."""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dtacopt import costs
from dtacopt.delays import assign_delays, build_delay_slices
from dtacopt.graphs import (
    DirectedGraph,
    WeightMatrix,
    build_column_stochastic_weights,
    generate_exponential_graph,
)
from dtacopt.optimizer import (
    AddOptEngine,
    DtacEngine,
    EngineFault,
    _located_nonzeros,
    _mixer,
    init_states,
)

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
MODES = ("uniform-random", "homogeneous-max", "zero")


@st.composite
def delayed_settings(draw):
    """(C, d) on 2..300 nodes, a mean out-degree from 0.5 to 40, so that both
    routes occur; in about half of the draws the pairs include self-loops and
    go through `from_edges`, which drops them (`(n-1, n-1)` keeps n); a zero
    diagonal entry of C in about half."""
    n = draw(st.integers(2, 300) | st.integers(100, 300))
    degree = draw(st.sampled_from((0.5, 1.0, 2.0, 4.0, 12.0, 40.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((n, n)) < min(1.0, degree / n)
    if draw(st.booleans()):
        np.fill_diagonal(mask, False)
        g = DirectedGraph(n, *np.nonzero(mask))
    else:
        pairs = zip(*(a.tolist() for a in np.nonzero(mask)))
        g = DirectedGraph.from_edges([*pairs, (n - 1, n - 1)])
    d = assign_delays(g, draw(st.integers(0, 6)), draw(st.sampled_from(MODES)), rng)
    C = build_column_stochastic_weights(g, require_strong=False).entries
    senders = g.src
    if len(senders) and draw(st.booleans()):  # j gives all its mass to its out-links
        j = senders[draw(st.integers(0, len(senders) - 1))]
        C[j, j] = 0.0
        C[g.dst[senders == j], j] = 1.0 / np.count_nonzero(senders == j)
    return WeightMatrix(C), d


def stack(C, d) -> np.ndarray:
    """The engine's stacked slices: those up to the largest delay in use."""
    top = int(d.delay.max(initial=0))
    return build_delay_slices(C, d).slices[: top + 1].reshape(-1, len(C.entries))


def dense_route(mix) -> bool:
    return hasattr(mix, "__self__")  # a bound ndarray.__matmul__


def special_block(rng, n: int, width: int) -> np.ndarray:
    X = rng.standard_normal((n, width))
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    hit = rng.random((n, width)) < 0.2
    X[hit] = rng.choice(specials, np.count_nonzero(hit))
    return X


@PROPERTY
@given(setting=delayed_settings(), dim=st.integers(1, 3))
def test_located_operator_is_the_scanned_one(setting, dim):
    C, d = setting
    S = stack(C, d)
    n = S.shape[1]
    rows, cols, vals = _located_nonzeros(C, d.delay)
    flat = rows * n + cols
    assert np.array_equal(np.sort(flat), np.flatnonzero(S))  # each nonzero once
    assert vals.tobytes() == S.ravel()[flat].tobytes()
    by_row = np.argsort(rows, kind="stable")
    same_row = rows[by_row][1:] == rows[by_row][:-1]
    assert np.all(np.diff(cols[by_row])[same_row] > 0)  # each row in column order

    cost = costs.make_quadratic(n, dim, 42)
    engine = DtacEngine(cost, init_states(cost, 3), C, d, 1e-3)
    width = 2 * dim + 1
    scanned = _mixer(S, width)
    assert dense_route(engine._mix) == dense_route(scanned)
    X = special_block(np.random.default_rng(n), n, width)
    with np.errstate(invalid="ignore"):  # inf - inf
        assert engine._mix(X).tobytes() == scanned(X).tobytes()

    if not d.delay.any() and not dense_route(engine._mix):
        baseline = AddOptEngine(cost, init_states(cost, 3), C, d, 1e-3)
        with np.errstate(invalid="ignore"):
            assert engine._mix(X).tobytes() == baseline._mix(X).tobytes()
        for _ in range(3):
            outcomes = []
            for e in (engine, baseline):
                try:
                    e.step()
                    outcomes.append(e.W.tobytes())
                except EngineFault:
                    outcomes.append(EngineFault)
            assert outcomes[0] == outcomes[1]


def test_sparse_set_up_releases_the_stack_before_the_bins():
    n, tau_max = 400, 10
    g = generate_exponential_graph(n)
    C = build_column_stochastic_weights(g)
    d = assign_delays(g, tau_max, "uniform-random", 145)
    cost = costs.make_quadratic(n, 10, 42)  # blocks of 21 columns
    engine = DtacEngine(cost, init_states(cost, 3), C, d, 1e-4)
    assert not dense_route(engine._mix)
    stack_bytes = build_delay_slices(C, d).slices.nbytes
    bins_bytes = (len(d.src) + n) * engine.W.shape[1] * np.dtype(np.intp).itemsize
    tracemalloc.start()
    try:
        engine.set_topology(C, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stack_bytes < peak < stack_bytes + bins_bytes
