"""Per-edge reference builders: the loop forms of the graph and delay set-up.

`dtacopt.graphs` and `dtacopt.delays` build the same objects from sorted
integer edge arrays with whole-array numpy operations.  These loops take
a graph's links one at a time as Python tuples, `zip(g.src.tolist(),
g.dst.tolist())` (the graph's sorted order), and a delay map as its `tau`
dict, and raise where the builders must raise, so `test_edge_arrays.py` can
require the array forms to match them bit for bit.
"""

from __future__ import annotations

import numpy as np


def edges(g) -> list[tuple[int, int]]:
    """g's links as (sender, receiver) tuples, one at a time."""
    return list(zip(g.src.tolist(), g.dst.tolist()))


def _adjacency(g, reverse: bool = False) -> list[list[int]]:
    lists: list[list[int]] = [[] for _ in range(g.n)]
    for j, i in edges(g):
        if reverse:
            lists[i].append(j)
        else:
            lists[j].append(i)
    return lists


def _reaches_all(adj: list[list[int]]) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(adj)


def strongly_connected(g) -> bool:
    """Depth-first search from node 0, forward and backward."""
    if g.n == 1:
        return True
    return _reaches_all(_adjacency(g)) and _reaches_all(_adjacency(g, reverse=True))


def column_stochastic_weights(g, require_strong: bool = True) -> np.ndarray:
    """C[i, j] = 1 / (1 + outdeg(j)) on each link j -> i and on the diagonal,
    column by column; self-loops carry no extra weight."""
    if g.n < 2:
        raise ValueError("weight design needs n >= 2")
    if require_strong and not strongly_connected(g):
        raise ValueError("weight design requires a strongly connected digraph")
    out = _adjacency(g)
    C = np.zeros((g.n, g.n))
    for j in range(g.n):
        w = 1.0 / (1.0 + sum(1 for i in out[j] if i != j))
        C[j, j] = w
        for i in out[j]:
            if i != j:
                C[i, j] = w
    return C


def delay_draw(g, tau_max: int, mode: str, seed=0) -> dict:
    """One delay per edge in sorted order; uniform draws come from one
    `integers(0, tau_max + 1, size=|E|)` call; self-loops get 0."""
    if tau_max < 0:
        raise ValueError("tau_max must be >= 0")
    links = edges(g)
    if mode == "zero" or tau_max == 0:
        return {e: 0 for e in links}
    if mode == "homogeneous-max":
        return {(j, i): (0 if j == i else tau_max) for j, i in links}
    if mode == "uniform-random":
        draws = np.random.default_rng(seed).integers(0, tau_max + 1, size=len(links))
        return {(j, i): (0 if j == i else int(t)) for (j, i), t in zip(links, draws)}
    raise ValueError(f"unknown delay mode {mode!r}")


def delay_slices(C: np.ndarray, tau: dict, tau_max: int) -> np.ndarray:
    """Move each off-diagonal weight of C into the slice of its link's delay;
    the diagonal goes to slice 0.  The map's off-diagonal links must be
    exactly C's off-diagonal nonzeros."""
    n = C.shape[0]
    pattern = {(j, i) for i, j in zip(*np.nonzero(C)) if i != j}
    mapped = {e for e in tau if e[0] != e[1]}
    if pattern != mapped:
        raise ValueError("delay map domain does not match the matrix pattern")
    slices = np.zeros((tau_max + 1, n, n))
    for idx in range(n):
        slices[0, idx, idx] = C[idx, idx]
    for (j, i), t in tau.items():
        if j != i:
            slices[t, i, j] = C[i, j]
    return slices
