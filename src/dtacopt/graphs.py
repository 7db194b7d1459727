"""Directed communication graphs and column-stochastic mixing weights.

A graph's links are ordered pairs ``(j, i)`` meaning node ``j`` sends to node
``i``; the weight matrix entry ``C[i, j]`` is the weight the link ``j -> i``
carries.  Weights follow the standard push-sum design: node ``j`` splits
its mass uniformly over itself and its out-neighbors, which makes every
column sum to one and keeps the diagonal positive.

A `DirectedGraph` is its node count and two integer arrays: link k is
``src[k] -> dst[k]``, in strictly increasing ``(src, dst)`` order, which
`np.nonzero` of the ER sampler's adjacency mask returns and `from_edges`
sorts into.  No link is a self-loop: a node keeps its own share through the
diagonal, so `from_edges` (and an edge-list file) drops ``(j, j)``.  The
builders, and the graph's `strongly_connected` property, read the arrays
with whole-array operations.  A `WeightMatrix`
shares them: one weight per link and the diagonal, |E| + n numbers, checked
on those arrays; the dense n x n matrix is built only when it is read.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

Edge = tuple[int, int]


# samples generate_erdos_renyi draws before giving up on strong connectivity
ER_MAX_RETRIES = 1000


class RetryBudgetError(RuntimeError):
    """No strongly connected sample was found within the retry budget."""


def _columns(rows: list[tuple[int, ...]], width: int) -> list[np.ndarray]:
    """The `width` columns of `rows`, tuples of Python ints, as integer arrays."""
    try:
        flat = np.fromiter(chain.from_iterable(rows), np.intp, width * len(rows))
    except OverflowError:
        raise ValueError("node index or delay outside the int64 range") from None
    return [flat[c::width] for c in range(width)]


def _first_outside(x: np.ndarray, stop: int = 2**63) -> int:
    """Position of the first entry of x outside [0, stop), else len(x).  numpy's
    index check finds out whether there is one without a comparison ufunc,
    whose code (about 130 KiB resident) a run would load for this alone."""
    try:
        np.ravel_multi_index((x,), (min(stop, np.iinfo(np.intp).max),))
        return len(x)
    except ValueError:
        return next((k for k, v in enumerate(x.tolist()) if not 0 <= v < stop), len(x))


class _Links:
    """Base of the link types: links ``src[k] -> dst[k]``, strictly increasing."""

    def _store(self, *names: str) -> None:
        """Check the per-link arrays `names` (`src`, `dst` first); keep them as `intp`."""
        arrays = [np.asarray(getattr(self, name)) for name in names]
        for name, a in zip(names, arrays):
            if a.ndim != 1 or a.shape != arrays[0].shape or (a.size and a.dtype.kind not in "iu"):
                raise ValueError("link arrays must be 1-D integer arrays of equal length")
            object.__setattr__(self, name, a.astype(np.intp, copy=False))
        src, dst = self.src, self.dst
        # in order: senders never fall, and under one sender receivers rise
        rise, step = src[1:] - src[:-1], dst[1:] - dst[:-1] - 1
        step[np.flatnonzero(rise)] = 0
        k = min(_first_outside(rise), _first_outside(step))
        if k < len(rise):
            (j0, i0), (j, i) = (src[k], dst[k]), (src[k + 1], dst[k + 1])
            raise ValueError(f"link ({j}, {i}) after ({j0}, {i0}) is out of order")

    def _first_loop(self) -> int:
        """Position of the first self-loop ``j -> j`` in the link arrays, else
        their length."""
        gap = self.src - self.dst
        return len(gap) if np.count_nonzero(gap) == len(gap) else gap.tolist().index(0)


@dataclass(frozen=True, eq=False)
class DirectedGraph(_Links):
    """Digraph on nodes ``0..n-1`` with links ``src[k] -> dst[k]``, none a
    self-loop, in strictly increasing ``(src, dst)`` order; `from_edges` takes
    ``(j, i)`` pairs."""

    n: int
    src: np.ndarray
    dst: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        self._store("src", "dst")
        k = min(_first_outside(self.src, self.n), _first_outside(self.dst, self.n))
        if k < len(self.src):
            raise ValueError(f"edge ({self.src[k]}, {self.dst[k]}) out of range for n={self.n}")
        k = self._first_loop()
        if k < len(self.src):
            raise ValueError(f"edge ({self.src[k]}, {self.dst[k]}) is a self-loop")

    @classmethod
    def from_edges(cls, edges: Iterable[Edge]) -> DirectedGraph:
        """The graph of the links ``(j, i)`` in `edges` (a repeat counts once),
        sorted once, on nodes 0 to the largest index listed (one if none is);
        a self-loop ``(j, j)`` counts toward the nodes and is dropped."""
        pairs = sorted(set(edges))
        n = 1 + max(max(j, i) for j, i in pairs) if pairs else 1
        return cls(n, *_columns([(j, i) for j, i in pairs if j != i], 2))

    @cached_property
    def strongly_connected(self) -> bool:
        """Every node reaches every other along directed paths (kept once read)."""
        return self.n == 1 or (
            _reaches_every_node(self.n, self.src, self.dst)
            and _reaches_every_node(self.n, self.dst, self.src)
        )


class WeightMatrix:
    """Column-stochastic nonnegative mixing matrix C over a digraph, held on the
    graph's link arrays, shared and not copied: C[dst[k], src[k]] is
    ``weight[k]``, C[i, i] is ``diag[i]``, and every other entry is 0.

    `WeightMatrix(g, weight, diag)` takes a graph's arrays;
    `WeightMatrix(M)` takes a dense square M, whose off-diagonal nonzeros
    become the links and which reads back as `entries`.  Either is checked
    once, on the arrays: nonnegative, with column sums within 1e-12 of 1
    (`check=False` skips that, for the spectral helpers' substochastic C).
    The dense `entries` are built on first read.
    """

    def __init__(
        self,
        on: DirectedGraph | np.ndarray,
        weight: np.ndarray | None = None,
        diag: np.ndarray | None = None,
        check: bool = True,
    ) -> None:
        if not isinstance(on, DirectedGraph):
            M = np.asarray(on)
            if M.ndim != 2 or M.shape[0] != M.shape[1]:
                raise ValueError("weight matrix must be square")
            off = M.T != 0
            np.fill_diagonal(off, False)
            src, dst = np.nonzero(off)  # (src, dst) order: column by column
            on, weight, diag = DirectedGraph(len(M), src, dst), M[dst, src], M.diagonal()
            vars(self)["entries"] = M
        self.n, self.src, self.dst = on.n, on.src, on.dst
        self.weight, self.diag = weight, diag
        if not check:
            return
        if np.any(weight < 0) or np.any(diag < 0):
            raise ValueError("weight matrix must be nonnegative")
        colsums = np.bincount(self.src, weight, self.n) + diag
        if np.max(np.abs(colsums - 1.0)) > 1e-12:
            raise ValueError("weight matrix columns must sum to 1 within 1e-12")

    @cached_property
    def entries(self) -> np.ndarray:
        """The dense n x n matrix."""
        C = np.zeros((self.n, self.n))
        C[self.dst, self.src] = self.weight
        np.fill_diagonal(C, self.diag)
        return C


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
        mask = rng.random((n, n)) < p
        np.fill_diagonal(mask, False)
        g = DirectedGraph(n, *np.nonzero(mask))
        if not require_strong or g.strongly_connected:
            return g
    raise RetryBudgetError(
        f"no strongly connected G({n}, {p}) digraph in {ER_MAX_RETRIES} samples"
    )


def generate_exponential_graph(n: int) -> DirectedGraph:
    """Digraph where node i links to (i + 2**j) mod n for j = 0..floor(log2(n-1)).

    The links come out in sorted order without a sort: the k_i hops with
    i + h < n keep their order, the others wrap below i, so node i's sorted
    receivers are (i + hops) mod n rotated to start at hop k_i."""
    if n < 2:
        raise ValueError("need n >= 2")
    hops = [1 << j for j in range((n - 1).bit_length())]
    # k_i = number of hops h <= n - 1 - i
    k = np.cumsum(np.bincount(hops, minlength=n))[::-1]
    rotated = np.array(hops + hops)[k[:, None] + np.arange(len(hops))]
    nodes = np.arange(n)[:, None]
    # mod n by index wrapping: % would load numpy code no other set-up step runs
    dst = np.ravel_multi_index((nodes + rotated,), (n,), mode="wrap")
    return DirectedGraph(n, np.broadcast_to(nodes, dst.shape).ravel(), dst.ravel())


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
    on the diagonal, so each sender splits its mass evenly.

    Strong connectivity is required by default; a switching plan in the
    B-connected regime passes require_strong=False, as it does to
    generate_erdos_renyi, since only the union of its topologies is
    connected.
    """
    if g.n < 2:
        raise ValueError("weight design needs n >= 2")
    if require_strong and not g.strongly_connected:
        raise ValueError("weight design requires a strongly connected digraph")
    # out-degrees summed as floats (exact for counts): an int-to-float cast of
    # the counts would touch 64 KiB of numpy code that no other path runs
    w = 1.0 / (1.0 + np.bincount(g.src, np.ones(len(g.src)), g.n))
    return WeightMatrix(g, w[g.src], w)


def dump_edge_list(g: DirectedGraph, path: str | Path) -> None:
    """Write one `j i` line per edge (zero-indexed, sorted)."""
    lines = [f"{j} {i}" for j, i in zip(g.src.tolist(), g.dst.tolist())]
    Path(path).write_text("\n".join(lines) + "\n")


def load_edge_list(path: str | Path) -> DirectedGraph:
    """Read a `j i` edge list on nodes 0..(largest index seen); a `j j` line
    counts toward the nodes and is dropped."""
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
    return DirectedGraph.from_edges(edges)
