"""No link is a self-loop: a node keeps its own share through the diagonal of
C at delay 0.  Edge lists and delay maps drop ``(j, j)`` where they are read
(the array constructors reject it: see `test_graph_rejects_malformed_arrays`
and `test_delay_map_rejects_malformed_arrays`), and no generated graph has one."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtacopt.cli import main
from dtacopt.delays import DelayMap, load_delay_map
from dtacopt.graphs import (
    DirectedGraph,
    build_column_stochastic_weights,
    generate_erdos_renyi,
    generate_exponential_graph,
    load_edge_list,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def links(d) -> list[tuple[int, int]]:
    return list(zip(d.src.tolist(), d.dst.tolist()))


def test_edge_lists_drop_self_loops_and_keep_their_nodes(tmp_path):
    g = DirectedGraph.from_edges([(0, 1), (2, 2), (1, 0), (1, 1)])
    assert g.n == 3 and links(g) == [(0, 1), (1, 0)]
    assert DirectedGraph.from_edges([(0, 0)]).n == 1
    path = tmp_path / "g.txt"
    path.write_text("0 1\n3 3\n1 0\n0 0\n")
    g = load_edge_list(path)
    assert g.n == 4 and links(g) == [(0, 1), (1, 0)]
    unlisted = DirectedGraph(4, [0, 1], [1, 0])
    weights = build_column_stochastic_weights(g, require_strong=False).entries
    assert weights.tobytes() == build_column_stochastic_weights(unlisted, False).entries.tobytes()


def test_delay_maps_drop_undelayed_self_loops(tmp_path):
    d = DelayMap.from_dict({(0, 1): 1, (1, 1): 0, (1, 0): 2, (0, 0): 0}, tau_max=2)
    assert list(d.tau.items()) == [((0, 1), 1), ((1, 0), 2)]
    path = tmp_path / "d.txt"
    path.write_text("# tau_max=4\n0 0 0\n0 1 1\n1 0 2\n1 1 0\n")
    d = load_delay_map(path)
    assert list(d.tau.items()) == [((0, 1), 1), ((1, 0), 2)] and d.tau_max == 4
    path.write_text("0 0 0\n")
    assert len(load_delay_map(path).src) == 0


@pytest.mark.parametrize(
    "tau_max, message",
    [(8, r"^self-loop delays must be 0$"), (2, r"^delay 7 on \(0, 0\) outside \[0, 2\]$")],
    ids=["in-range", "range-error-first"],
)
def test_a_delayed_self_loop_is_an_error(tmp_path, tau_max, message):
    with pytest.raises(ValueError, match=message):
        DelayMap.from_dict({(0, 0): 7, (0, 1): 0, (1, 0): 0}, tau_max)
    path = tmp_path / "d.txt"
    path.write_text(f"# tau_max={tau_max}\n0 0 7\n0 1 0\n1 0 0\n")
    with pytest.raises(ValueError, match=message):
        load_delay_map(path)


def test_link_files_listing_self_loops_certify_as_without_them(tmp_path, capsys):
    files = {
        "plain": ("0 1\n1 2\n2 0\n1 0\n", "# tau_max=3\n0 1 2\n1 0 0\n1 2 3\n2 0 1\n"),
        "looped": ("1 1\n0 1\n1 2\n2 2\n2 0\n1 0\n0 0\n",
                   "# tau_max=3\n0 0 0\n0 1 2\n1 0 0\n1 2 3\n2 0 1\n2 2 0\n"),
    }
    printed = {}
    for name, (graph, delays) in files.items():
        (tmp_path / f"{name}_g.txt").write_text(graph)
        (tmp_path / f"{name}_d.txt").write_text(delays)
        code = main(["check-bound", "--graph-file", str(tmp_path / f"{name}_g.txt"),
                     "--delay-file", str(tmp_path / f"{name}_d.txt"), "--set", "run.alpha=1e-5"])
        printed[name] = (code, *capsys.readouterr())
    assert printed["looped"] == printed["plain"]
    assert printed["plain"][0] == 0 and "CERTIFIED" in printed["plain"][1]


def no_self_loop(g: DirectedGraph) -> bool:
    return np.count_nonzero(g.src - g.dst) == len(g.src)


@PROPERTY
@given(n=st.integers(2, 300), seed=st.integers(0, 2**32 - 1), require_strong=st.booleans(),
       degree=st.sampled_from((0.5, 2.0, 6.0, 40.0)))
def test_erdos_renyi_graphs_have_no_self_loop(n, seed, require_strong, degree):
    if require_strong:  # dense enough to be strongly connected within the retry budget
        degree = max(degree, 2 * np.log(n) + 2)
    assert no_self_loop(generate_erdos_renyi(n, min(1.0, degree / n), seed, require_strong))


def test_exponential_graphs_have_no_self_loop():
    assert all(no_self_loop(generate_exponential_graph(n)) for n in range(2, 301))
