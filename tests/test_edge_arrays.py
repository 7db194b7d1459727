"""The array forms of the graph and delay set-up against the per-edge loops
in `per_edge.py`: equal arrays and dicts bit for bit (dicts in equal insertion
order), and the same exception type on bad input."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import per_edge
from dtacopt.delays import DelayMap, assign_delays, build_delay_slices
from dtacopt.graphs import DirectedGraph, build_column_stochastic_weights

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
MODES = ("uniform-random", "homogeneous-max", "zero", "no-such-mode")


@st.composite
def digraphs(draw) -> DirectedGraph:
    """Random digraphs on 1..12 nodes, sparse to complete.  In about half of
    the draws the pairs include self-loops (an edge-list file may list them)
    and go through `from_edges`, which drops them; `(n-1, n-1)` keeps n."""
    n = draw(st.integers(1, 12))
    p = draw(st.sampled_from((0.05, 0.15, 0.3, 0.6, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((n, n)) < p
    if draw(st.booleans()):
        np.fill_diagonal(mask, False)
        return DirectedGraph(n, *np.nonzero(mask))
    pairs = zip(*(a.tolist() for a in np.nonzero(mask)))
    return DirectedGraph.from_edges([*pairs, (n - 1, n - 1)])


def outcome(fn, *args):
    """fn's result, or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 -- the type is what is compared
        return type(exc)


def assert_same(got, want) -> None:
    if isinstance(want, type):
        assert got is want
    elif isinstance(want, dict):
        assert list(got.items()) == list(want.items())
    else:
        assert got.dtype == want.dtype and np.array_equal(got, want)


@PROPERTY
@given(g=digraphs())
def test_connectivity_matches_depth_first_search(g):
    want = per_edge.strongly_connected(g)
    assert g.strongly_connected is want
    assert g.strongly_connected is want  # the cached answer


@PROPERTY
@given(g=digraphs(), require_strong=st.booleans())
def test_weights_match_the_column_loop(g, require_strong):
    got = outcome(lambda: build_column_stochastic_weights(g, require_strong).entries)
    assert_same(got, outcome(per_edge.column_stochastic_weights, g, require_strong))


@PROPERTY
@given(
    g=digraphs(),
    tau_max=st.integers(-1, 6),
    mode=st.sampled_from(MODES),
    seed=st.integers(0, 2**32 - 1),
)
def test_delay_draw_matches_the_sorted_edge_loop(g, tau_max, mode, seed):
    got = outcome(lambda: assign_delays(g, tau_max, mode, seed).tau)
    assert_same(got, outcome(per_edge.delay_draw, g, tau_max, mode, seed))


@PROPERTY
@given(
    g=digraphs(),
    tau_max=st.integers(0, 6),
    mode=st.sampled_from(MODES[:3]),
    seed=st.integers(0, 2**32 - 1),
    damage=st.sampled_from(("none", "drop", "spurious", "off-range", "negative")),
)
def test_slices_match_the_per_link_loop(g, tau_max, mode, seed, damage):
    if g.n < 2:
        return
    C = build_column_stochastic_weights(g, require_strong=False).entries
    tau = dict(assign_delays(g, tau_max, mode, seed).tau)
    off = [e for e in tau if e[0] != e[1]]
    if damage == "drop" and off:
        del tau[off[len(off) // 2]]
    elif damage == "spurious":
        missing = [(j, i) for j in range(g.n) for i in range(g.n) if j != i and (j, i) not in tau]
        if missing:
            tau[missing[0]] = 0
    elif damage == "off-range":
        tau[0, g.n] = 0
    elif damage == "negative":
        tau[-1, 0] = 0
    d = DelayMap.from_dict(tau, tau_max)
    got = outcome(lambda: build_delay_slices(C, d).slices)
    assert_same(got, outcome(per_edge.delay_slices, C, tau, tau_max))
