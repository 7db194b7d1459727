"""Directed communication graphs and column-stochastic mixing weights.

Edges are ordered pairs ``(j, i)`` meaning node ``j`` sends to node ``i``;
the weight matrix entry ``C[i, j]`` is the weight the link ``j -> i``
carries.  Weights follow the standard push-sum design: node ``j`` splits
its mass uniformly over itself and its out-neighbors, which makes every
column sum to one and keeps the diagonal positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

Edge = tuple[int, int]


# samples generate_erdos_renyi draws before giving up on strong connectivity
ER_MAX_RETRIES = 1000


class RetryBudgetError(RuntimeError):
    """No strongly connected sample was found within the retry budget."""


@dataclass(frozen=True)
class DirectedGraph:
    """Digraph on nodes ``0..n-1`` with edges stored as (sender, receiver)."""

    n: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        for j, i in self.edges:
            if not (0 <= j < self.n and 0 <= i < self.n):
                raise ValueError(f"edge ({j}, {i}) out of range for n={self.n}")

    @cached_property
    def _in_lists(self) -> list[list[int]]:
        lists: list[list[int]] = [[] for _ in range(self.n)]
        for j, i in sorted(self.edges):
            lists[i].append(j)
        return lists

    @cached_property
    def _out_lists(self) -> list[list[int]]:
        lists: list[list[int]] = [[] for _ in range(self.n)]
        for j, i in sorted(self.edges):
            lists[j].append(i)
        return lists

    def out_neighbors(self, j: int) -> list[int]:
        """Receivers i with a link j -> i."""
        return list(self._out_lists[j])

    def out_degree(self, j: int) -> int:
        """Out-degree of j, self-loop excluded."""
        return sum(1 for i in self._out_lists[j] if i != j)


@dataclass(frozen=True)
class WeightMatrix:
    """Column-stochastic nonnegative mixing matrix over a digraph."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        C = self.entries
        if C.ndim != 2 or C.shape[0] != C.shape[1]:
            raise ValueError("weight matrix must be square")
        if np.any(C < 0):
            raise ValueError("weight matrix must be nonnegative")
        colsums = C.sum(axis=0)
        if np.max(np.abs(colsums - 1.0)) > 1e-12:
            raise ValueError("weight matrix columns must sum to 1 within 1e-12")

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _sample_er(n: int, p: float, rng: np.random.Generator) -> DirectedGraph:
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    senders, receivers = np.nonzero(mask)
    edges = frozenset(zip(senders.tolist(), receivers.tolist()))
    return DirectedGraph(n, edges)


def generate_erdos_renyi(
    n: int,
    p: float,
    seed: int | np.random.SeedSequence,
    require_strong: bool = True,
) -> DirectedGraph:
    """Directed G(n, p): each ordered pair is an edge w.p. p.

    Every sample is drawn from the stream seeded by `seed`; a switching run
    seeds epoch e with SeedSequence([graph_seed, e]).  With require_strong
    the stream is resampled until a draw is strongly connected, raising
    RetryBudgetError after ER_MAX_RETRIES failures (p too small for n).
    Without it the first draw is returned as is: the B-connected regime,
    where only the union of a run's topologies need be connected.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not (0.0 < p <= 1.0):
        raise ValueError("need 0 < p <= 1")
    rng = np.random.default_rng(seed)
    for _ in range(ER_MAX_RETRIES):
        g = _sample_er(n, p, rng)
        if not require_strong or is_strongly_connected(g):
            return g
    raise RetryBudgetError(
        f"no strongly connected G({n}, {p}) digraph in {ER_MAX_RETRIES} samples"
    )


def generate_exponential_graph(n: int) -> DirectedGraph:
    """Digraph where node i links to (i + 2**j) mod n for j = 0..floor(log2(n-1))."""
    if n < 2:
        raise ValueError("need n >= 2")
    hops = [2**j for j in range(int(np.log2(n - 1)) + 1)] if n > 2 else [1]
    edges = frozenset((i, (i + h) % n) for i in range(n) for h in hops)
    return DirectedGraph(n, edges)


def is_strongly_connected(g: DirectedGraph) -> bool:
    """True iff every node reaches every other node along directed paths."""
    if g.n == 1:
        return True
    return _reaches_all(g._out_lists) and _reaches_all(g._in_lists)


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


def build_column_stochastic_weights(
    g: DirectedGraph, require_strong: bool = True
) -> WeightMatrix:
    """Uniform push-sum weights: C[i, j] = 1 / (1 + outdeg(j)) on each link and
    on the (implicit) self-loop, so each sender splits its mass evenly.

    Strong connectivity is required by default; a switching plan in the
    B-connected regime passes require_strong=False, as it does to
    generate_erdos_renyi, since only the union of its topologies is
    connected.
    """
    if g.n < 2:
        raise ValueError("weight design needs n >= 2")
    if require_strong and not is_strongly_connected(g):
        raise ValueError("weight design requires a strongly connected digraph")
    C = np.zeros((g.n, g.n))
    for j in range(g.n):
        w = 1.0 / (1.0 + g.out_degree(j))
        C[j, j] = w
        for i in g.out_neighbors(j):
            if i != j:
                C[i, j] = w
    return WeightMatrix(C)


def dump_edge_list(g: DirectedGraph, path: str | Path) -> None:
    """Write one `j i` line per edge (zero-indexed, sorted)."""
    lines = [f"{j} {i}" for j, i in sorted(g.edges)]
    Path(path).write_text("\n".join(lines) + "\n")


def load_edge_list(path: str | Path) -> DirectedGraph:
    """Read a `j i` edge list on nodes 0..(largest index seen)."""
    edges = set()
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            j, i = map(int, line.split())
        except ValueError:
            raise ValueError(f"{path}:{lineno}: expected 'j i', got {raw!r}") from None
        edges.add((j, i))
    n = 1 + max(max(j, i) for j, i in edges) if edges else 1
    return DirectedGraph(n, frozenset(edges))
