"""Per-link communication delays and the augmented consensus matrix.

A delayed network is modeled by giving every link ``j -> i`` a fixed integer
delay ``tau[(j, i)] <= tau_max``.  The mixing matrix C then splits into
slices ``C_0 .. C_tau_max`` (slice r holds the weights of the delay-r links),
and the augmented matrix stacks those slices against a shift register
(`build_augmented_matrix(C, d)` is the one place that assembles it):

    block (r, 0)     = C_r          for r = 0..tau_max
    block (r-1, r)   = I_n          for r = 1..tau_max
    everything else  = 0

Applied to the stacked state (live block; in-flight slots), the first block
row delivers slice-0 sends plus whatever was one step from arrival, and each
identity block moves in-flight mass one slot closer to delivery.  The matrix
is column stochastic whenever C is, so total mass is conserved even while
some of it is in transit.

A `DelayMap` is its bound and three integer arrays in a graph's link
order: link ``src[k] -> dst[k]`` has delay ``delay[k]``.  `assign_delays`
shares the graph's arrays, `links` included, and does not check them again.
`build_delay_slices` checks the map's domain on the link arrays: at once
when the map shares the weights' arrays, else by one comparison of the two
link lists, building sets of links only to word its error.  It moves every
weight into its slice with one scatter.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .graphs import DirectedGraph, Edge, WeightMatrix, _columns, _first_outside, _Links


@dataclass(frozen=True, eq=False)
class DelayMap(_Links):
    """Integer delay ``delay[k] <= tau_max`` on each link ``src[k] -> dst[k]``, in
    link order, and 0 on self-loops; `from_dict` takes a ``{(j, i): delay}`` map."""

    src: np.ndarray
    dst: np.ndarray
    delay: np.ndarray
    tau_max: int

    def __post_init__(self) -> None:
        if self.tau_max < 0:
            raise ValueError("tau_max must be >= 0")
        self._store("src", "dst", "delay")
        src, dst, delay, T = self.src, self.dst, self.delay, self.tau_max
        k = _first_outside(delay, T + 1)
        if k < len(delay):
            raise ValueError(f"delay {delay[k]} on ({src[k]}, {dst[k]}) outside [0, {T}]")
        # a nonzero delay off the links sits on a self-loop
        if np.count_nonzero(delay[self.links]) != np.count_nonzero(delay):
            raise ValueError("self-loop delays must be 0")

    @classmethod
    def from_dict(cls, tau: Mapping[Edge, int], tau_max: int) -> DelayMap:
        """The map with delay ``tau[(j, i)]`` on each link, sorted once."""
        return cls(*_columns([(j, i, t) for (j, i), t in sorted(tau.items())], 3), tau_max)

    @cached_property
    def tau(self) -> Mapping[Edge, int]:
        """Read-only ``{(j, i): delay}`` view of the arrays, in their order."""
        pairs = zip(self.src.tolist(), self.dst.tolist())
        return MappingProxyType(dict(zip(pairs, self.delay.tolist())))


def assign_delays(
    g: DirectedGraph,
    tau_max: int,
    mode: str,
    seed: int | np.random.SeedSequence = 0,
) -> DelayMap:
    """Draw a delay map for every edge of g, in the order of g's edge arrays.

    mode 'uniform-random': independent uniform draws on {0..tau_max}, one
    `integers(0, tau_max + 1, size=|E|)` call;
    mode 'homogeneous-max': every link gets tau_max;
    mode 'zero': all delays 0.  Self-loops always get 0.
    """
    if tau_max < 0:
        raise ValueError("tau_max must be >= 0")
    if mode == "zero" or tau_max == 0:
        draws = 0
    elif mode == "homogeneous-max":
        draws = tau_max
    elif mode == "uniform-random":
        draws = np.random.default_rng(seed).integers(0, tau_max + 1, size=len(g.src))
        if len(g.links) == len(g.src):  # no self-loop to keep at 0
            return _on_graph(g, draws, tau_max)
        draws = draws[g.links]
    else:
        raise ValueError(f"unknown delay mode {mode!r}")
    delay = np.zeros(len(g.src), dtype=np.intp)
    delay[g.links] = draws  # self-loops keep 0
    return _on_graph(g, delay, tau_max)


def _on_graph(g: DirectedGraph, delay: np.ndarray, tau_max: int) -> DelayMap:
    """The map of `delay` on g's checked link arrays, `links` included."""
    d = object.__new__(DelayMap)
    vars(d).update(src=g.src, dst=g.dst, delay=delay, tau_max=tau_max, links=g.links)
    return d


@dataclass(frozen=True)
class DelaySlices:
    """Slices C_0..C_tau_max with slice r carrying exactly the delay-r weights."""

    slices: np.ndarray  # shape (tau_max + 1, n, n)


def build_delay_slices(C: WeightMatrix | np.ndarray, d: DelayMap) -> DelaySlices:
    """Split C into per-delay slices. Each weight is moved, never recomputed,
    so the slices sum back to C exactly.

    Diagonal weights (implicit self-loops) go to slice 0.  The delay map's
    links that are not self-loops must be C's: that holds at once when the
    map shares C's link arrays, as every `assign_delays` map does, and is
    otherwise one comparison of the two sorted lists of those links.
    """
    if not isinstance(C, WeightMatrix):
        C = WeightMatrix(np.asarray(C, dtype=float), check=False)
    if not (d.src is C.src and d.dst is C.dst or _same_links(C, d)):
        raise _domain_error(C, d)
    n, T = C.n, d.tau_max
    at = np.ravel_multi_index((C.dst[C.links], C.src[C.links]), (n, n))
    slices = np.zeros((T + 1, n, n))
    np.fill_diagonal(slices[0], C.diag)
    slices.reshape(T + 1, -1)[d.delay[d.links], at] = C.weight
    return DelaySlices(slices=slices)


def _same_links(C: WeightMatrix, d: DelayMap) -> bool:
    """Whether d and C list the same links that are not self-loops (both
    lists are sorted, so as arrays)."""
    a, b = C.links, d.links
    return len(a) == len(b) and np.array_equal(
        (C.src[a], C.dst[a]), (d.src[b], d.dst[b])
    )


def _domain_error(C: WeightMatrix, d: DelayMap) -> ValueError:
    pattern = set(zip(C.src[C.links], C.dst[C.links]))
    mapped = {e for e in d.tau if e[0] != e[1]}
    missing = sorted(pattern - mapped)[:5]
    spurious = sorted(mapped - pattern)[:5]
    return ValueError(
        "delay map domain does not match the matrix pattern "
        f"(unmapped links {missing}, mapped non-links {spurious})"
    )


@dataclass(eq=False)
class AugmentedMatrix:
    """The n(tau_max+1)-dimensional delayed-mixing matrix over n nodes.
    Spectral quantities (its Perron vector and rank-one limit) are computed
    on demand by the spectral module, not stored here; it reads the slices
    C_0..C_tau_max back from the first block column, ``entries[:, :n]``.
    """

    entries: np.ndarray
    n: int

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def build_augmented_matrix(C: WeightMatrix | np.ndarray, d: DelayMap) -> AugmentedMatrix:
    """Slice C by the delay map and place slice r in block (r, 0) and
    identities on the block superdiagonal, whatever C sums to.  Column
    stochastic when C is; column sums are checked where a matrix enters
    (`WeightMatrix`; `spectral.perron_vector`, which checks an
    augmentation's through C, the sum of its slices), not here."""
    S = build_delay_slices(C, d).slices
    T, n = d.tau_max, S.shape[1]
    M = np.zeros((n * (T + 1), n * (T + 1)))
    M[:, :n] = S.reshape(-1, n)
    eye = np.eye(n)
    for r in range(1, T + 1):
        M[(r - 1) * n : r * n, r * n : (r + 1) * n] = eye
    return AugmentedMatrix(entries=M, n=n)


def dump_delay_map(d: DelayMap, path: str | Path) -> None:
    """Write a `# tau_max=<t>` line, then one `j i tau` line per link
    (zero-indexed, sorted)."""
    lines = [f"# tau_max={d.tau_max}"]
    lines += [f"{j} {i} {t}" for (j, i), t in d.tau.items()]
    Path(path).write_text("\n".join(lines) + "\n")


def load_delay_map(path: str | Path) -> DelayMap:
    """Read a `j i tau` list.  The bound is the `# tau_max=<t>` line that
    `dump_delay_map` writes first; a file without it is bounded by its
    largest delay.  A link listed twice is an error."""
    tau: dict[Edge, int] = {}
    tau_max = None
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if lineno == 1 and line.startswith("# tau_max="):
            bound = line.removeprefix("# tau_max=")
            if not bound.isdigit():
                raise ValueError(f"{path}:1: expected '# tau_max=<t>', got {raw!r}")
            tau_max = int(bound)
        if not line or line.startswith("#"):
            continue
        try:
            j, i, t = map(int, line.split())
        except ValueError:
            raise ValueError(f"{path}:{lineno}: expected 'j i tau', got {raw!r}") from None
        if (j, i) in tau:
            raise ValueError(f"{path}:{lineno}: link {(j, i)} listed twice")
        tau[j, i] = t
    return DelayMap.from_dict(tau, max(tau.values(), default=0) if tau_max is None else tau_max)
