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

A `DelayMap` keeps its links and delays as integer arrays `src`, `dst`,
`delay` beside the `tau` dict, in the dict's order.  `assign_delays` draws
over a graph's sorted edge arrays, so `tau` lists the links in
`sorted(g.edges)` order.  `build_delay_slices` checks the map's domain by
counting nonzeros, building sets of links only to word its error, and moves
every weight into its slice with one scatter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from .graphs import DirectedGraph, Edge, WeightMatrix, _int_array


@dataclass(frozen=True)
class DelayMap:
    """Fixed integer delay per link, bounded by tau_max; self-loops are 0.

    `src`, `dst` and `delay` hold `tau`'s keys and values as integer arrays,
    in its order.  They are derived from `tau` unless `assign_delays`, which
    draws over a graph's edge arrays, passes them.
    """

    tau: dict[Edge, int]
    tau_max: int
    src: np.ndarray = field(default=None, kw_only=True, repr=False, compare=False)
    dst: np.ndarray = field(default=None, kw_only=True, repr=False, compare=False)
    delay: np.ndarray = field(default=None, kw_only=True, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.tau_max < 0:
            raise ValueError("tau_max must be >= 0")
        delays = self.tau.values()
        if delays and not (0 <= min(delays) and max(delays) <= self.tau_max):
            (j, i), t = min((e, t) for e, t in self.tau.items() if not 0 <= t <= self.tau_max)
            raise ValueError(f"delay {t} on ({j}, {i}) outside [0, {self.tau_max}]")
        if self.src is None:
            flat = _int_array(chain.from_iterable(self.tau), 2 * len(self.tau))
            object.__setattr__(self, "src", flat[0::2])
            object.__setattr__(self, "dst", flat[1::2])
            object.__setattr__(self, "delay", _int_array(delays, len(delays)))
        # a nonzero delay off the links sits on a self-loop
        if np.count_nonzero(self.delay[self.links]) != np.count_nonzero(self.delay):
            raise ValueError("self-loop delays must be 0")

    @cached_property
    def links(self) -> np.ndarray:
        """Positions in `src`/`dst`/`delay` of the entries that are not self-loops."""
        return np.flatnonzero(self.src - self.dst)


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
        rng = np.random.default_rng(seed)
        draws = rng.integers(0, tau_max + 1, size=len(g.src))[g.links]
    else:
        raise ValueError(f"unknown delay mode {mode!r}")
    delay = np.zeros(len(g.src), dtype=np.intp)
    delay[g.links] = draws  # self-loops keep 0
    tau = dict(zip(g.pairs, delay.tolist()))
    return DelayMap(tau=tau, tau_max=tau_max, src=g.src, dst=g.dst, delay=delay)


@dataclass(frozen=True)
class DelaySlices:
    """Slices C_0..C_tau_max with slice r carrying exactly the delay-r weights."""

    slices: np.ndarray  # shape (tau_max + 1, n, n)


def build_delay_slices(C: WeightMatrix | np.ndarray, d: DelayMap) -> DelaySlices:
    """Split C into per-delay slices. Each entry is moved, never recomputed,
    so the slices sum back to C exactly.

    Diagonal weights (implicit self-loops) go to slice 0.  The delay map
    domain must cover the off-diagonal sparsity pattern of C: its links are
    distinct (dict keys), so it does when each lies inside C, each is a
    nonzero of C, and there are as many as C has off-diagonal nonzeros.
    """
    M = C.entries if isinstance(C, WeightMatrix) else np.asarray(C, dtype=float)
    n = M.shape[0]
    try:  # flat positions of the C[i, j] the links j -> i carry
        at = np.ravel_multi_index((d.dst[d.links], d.src[d.links]), M.shape)
    except ValueError:  # a link outside 0..n-1
        raise _domain_error(M, d) from None
    weights = M.ravel()[at]
    off_diagonal = np.count_nonzero(M) - np.count_nonzero(M.diagonal())
    if np.count_nonzero(weights) != len(at) or len(at) != off_diagonal:
        raise _domain_error(M, d)
    slices = np.zeros((d.tau_max + 1, n, n))
    np.fill_diagonal(slices[0], M.diagonal())
    slices.reshape(d.tau_max + 1, -1)[d.delay[d.links], at] = weights
    return DelaySlices(slices=slices)


def _domain_error(M: np.ndarray, d: DelayMap) -> ValueError:
    pattern = {(j, i) for i, j in zip(*np.nonzero(M)) if i != j}
    mapped = {e for e in d.tau if e[0] != e[1]}
    missing = sorted(pattern - mapped)[:5]
    spurious = sorted(mapped - pattern)[:5]
    return ValueError(
        "delay map domain does not match the matrix pattern "
        f"(unmapped links {missing}, mapped non-links {spurious})"
    )


@dataclass(eq=False)
class AugmentedMatrix:
    """The n(tau_max+1)-dimensional delayed-mixing matrix.  Spectral
    quantities (its Perron vector and rank-one limit) are computed on demand
    by the spectral module, not stored here.
    """

    entries: np.ndarray
    n: int
    tau_max: int

    @property
    def dim(self) -> int:
        return self.n * (self.tau_max + 1)


def build_augmented_matrix(C: WeightMatrix | np.ndarray, d: DelayMap) -> AugmentedMatrix:
    """Slice C by the delay map and place slice r in block (r, 0) and
    identities on the block superdiagonal, whatever C sums to.  Column
    stochastic when C is; column sums are checked where a matrix enters
    (`WeightMatrix`, `spectral.perron_vector`), not here."""
    S = build_delay_slices(C, d).slices
    T, n = d.tau_max, S.shape[1]
    M = np.zeros((n * (T + 1), n * (T + 1)))
    M[:, :n] = S.reshape(-1, n)
    eye = np.eye(n)
    for r in range(1, T + 1):
        M[(r - 1) * n : r * n, r * n : (r + 1) * n] = eye
    return AugmentedMatrix(entries=M, n=n, tau_max=T)


def dump_delay_map(d: DelayMap, path: str | Path) -> None:
    """Write a `# tau_max=<t>` line, then one `j i tau` line per link
    (zero-indexed, sorted)."""
    lines = [f"# tau_max={d.tau_max}"]
    lines += [f"{j} {i} {d.tau[(j, i)]}" for j, i in sorted(d.tau)]
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
    if tau_max is None:
        tau_max = max(tau.values(), default=0)
    return DelayMap(tau=tau, tau_max=tau_max)
