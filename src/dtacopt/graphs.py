"""Directed communication graphs and column-stochastic mixing weights.

Edges are ordered pairs ``(j, i)`` meaning node ``j`` sends to node ``i``;
the weight matrix entry ``C[i, j]`` is the weight the link ``j -> i``
carries.  Weights follow the standard push-sum design: node ``j`` splits
its mass uniformly over itself and its out-neighbors, which makes every
column sum to one and keeps the diagonal positive.

Every graph also holds its edges in the order of `sorted(edges)`, built
once: as `pairs`, a tuple of the set's own edge tuples (`delays.assign_delays`
keys its map with them, so map and graph share them), and as two integer
arrays `src`, `dst`.  The ER sampler takes that order straight from
`np.nonzero` of its adjacency mask; other graphs sort their edge set once.
The builders here and in `delays` read the arrays with whole-array
operations, never the set, and `is_strongly_connected` computes its answer
once per graph and keeps it, so a sampled graph is not searched again when
its weights are built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

Edge = tuple[int, int]


# samples generate_erdos_renyi draws before giving up on strong connectivity
ER_MAX_RETRIES = 1000


class RetryBudgetError(RuntimeError):
    """No strongly connected sample was found within the retry budget."""


def _int_array(values, count: int) -> np.ndarray:
    """The `count` Python ints of `values` as one integer array."""
    try:
        return np.fromiter(values, np.intp, count)
    except OverflowError:
        raise ValueError("node index or delay outside the int64 range") from None


@dataclass(frozen=True)
class DirectedGraph:
    """Digraph on nodes ``0..n-1`` with edges stored as (sender, receiver).

    `pairs` lists the same edge tuples in the order of `sorted(edges)`, and
    `src`/`dst` hold them as two integer arrays in that order; the builders
    below read these, never the set.  They are derived from `edges` unless a
    sampler that already has all three in that order, and in range, passes
    them (`np.nonzero` of an adjacency mask returns that order).
    """

    n: int
    edges: frozenset[Edge]
    pairs: tuple[Edge, ...] = field(default=None, kw_only=True, repr=False, compare=False)
    src: np.ndarray = field(default=None, kw_only=True, repr=False, compare=False)
    dst: np.ndarray = field(default=None, kw_only=True, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        if self.pairs is None:
            pairs = tuple(sorted(self.edges))
            flat = list(chain.from_iterable(pairs))
            if flat and not (0 <= min(flat) and max(flat) < self.n):
                j, i = next(e for e in pairs if not (0 <= min(e) and max(e) < self.n))
                raise ValueError(f"edge ({j}, {i}) out of range for n={self.n}")
            flat = _int_array(flat, len(flat))
            object.__setattr__(self, "pairs", pairs)
            object.__setattr__(self, "src", flat[0::2])
            object.__setattr__(self, "dst", flat[1::2])

    @cached_property
    def links(self) -> np.ndarray:
        """Positions in `src`/`dst` of the edges that are not self-loops."""
        return np.flatnonzero(self.src - self.dst)

    @cached_property
    def _strongly_connected(self) -> bool:
        return self.n == 1 or (
            _reaches_every_node(self.n, self.src, self.dst)
            and _reaches_every_node(self.n, self.dst, self.src)
        )


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
    pairs = tuple(zip(senders.tolist(), receivers.tolist()))
    return DirectedGraph(n, frozenset(pairs), pairs=pairs, src=senders, dst=receivers)


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
    """True iff every node reaches every other node along directed paths.
    Computed once per graph and kept on it."""
    return g._strongly_connected


def _reaches_every_node(n: int, frm: np.ndarray, to: np.ndarray) -> bool:
    """Reachability from node 0 over the links frm[k] -> to[k]: each pass
    marks the receivers of every link whose sender is marked, until every
    node is marked or a pass marks nothing new.

    The marks are floats, so each per-link temporary takes 8 bytes a link.
    numpy keeps up to 7 freed buffers of each size under 1 KiB for reuse;
    bool temporaries of |E| bytes, a new size at each switching epoch, would
    pile up there (about 0.3 MiB over 1000 epochs at n=30)."""
    seen = np.zeros(n)
    seen[0] = 1.0
    count = 1
    while True:
        seen[np.bincount(to, seen[frm], n) > 0] = 1.0
        now = np.count_nonzero(seen)
        if now == n:
            return True
        if now == count:
            return False
        count = now


def build_column_stochastic_weights(
    g: DirectedGraph, require_strong: bool = True
) -> WeightMatrix:
    """Uniform push-sum weights: C[i, j] = 1 / (1 + outdeg(j)) on each link and
    on the (implicit) self-loop, so each sender splits its mass evenly.
    Self-loops of g add no weight.

    Strong connectivity is required by default; a switching plan in the
    B-connected regime passes require_strong=False, as it does to
    generate_erdos_renyi, since only the union of its topologies is
    connected.
    """
    if g.n < 2:
        raise ValueError("weight design needs n >= 2")
    if require_strong and not is_strongly_connected(g):
        raise ValueError("weight design requires a strongly connected digraph")
    senders, receivers = g.src[g.links], g.dst[g.links]
    # out-degrees summed as floats (exact for counts): an int-to-float cast of
    # the counts would touch 64 KiB of numpy code that no other path runs
    w = 1.0 / (1.0 + np.bincount(senders, np.ones(len(senders)), g.n))
    C = np.zeros((g.n, g.n))
    C[receivers, senders] = w[senders]
    np.fill_diagonal(C, w)
    return WeightMatrix(C)


def dump_edge_list(g: DirectedGraph, path: str | Path) -> None:
    """Write one `j i` line per edge (zero-indexed, sorted)."""
    lines = [f"{j} {i}" for j, i in g.pairs]
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
