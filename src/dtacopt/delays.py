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
"""

from __future__ import annotations

from dataclasses import dataclass

from pathlib import Path

import numpy as np

from .graphs import DirectedGraph, Edge, WeightMatrix


@dataclass(frozen=True)
class DelayMap:
    """Fixed integer delay per link, bounded by tau_max; self-loops are 0."""

    tau: dict[Edge, int]
    tau_max: int

    def __post_init__(self) -> None:
        if self.tau_max < 0:
            raise ValueError("tau_max must be >= 0")
        for (j, i), t in self.tau.items():
            if not (0 <= t <= self.tau_max):
                raise ValueError(f"delay {t} on ({j}, {i}) outside [0, {self.tau_max}]")
            if j == i and t != 0:
                raise ValueError("self-loop delays must be 0")


def assign_delays(
    g: DirectedGraph,
    tau_max: int,
    mode: str,
    seed: int | np.random.SeedSequence = 0,
) -> DelayMap:
    """Draw a delay map for every edge of g.

    mode 'uniform-random': independent uniform draws on {0..tau_max};
    mode 'homogeneous-max': every link gets tau_max;
    mode 'zero': all delays 0.  Self-loops always get 0.
    """
    if tau_max < 0:
        raise ValueError("tau_max must be >= 0")
    edges = sorted(g.edges)
    if mode == "zero" or tau_max == 0:
        tau = {e: 0 for e in edges}
    elif mode == "homogeneous-max":
        tau = {(j, i): (0 if j == i else tau_max) for j, i in edges}
    elif mode == "uniform-random":
        rng = np.random.default_rng(seed)
        draws = rng.integers(0, tau_max + 1, size=len(edges))
        tau = {
            (j, i): (0 if j == i else int(t)) for (j, i), t in zip(edges, draws)
        }
    else:
        raise ValueError(f"unknown delay mode {mode!r}")
    return DelayMap(tau=tau, tau_max=tau_max)


@dataclass(frozen=True)
class DelaySlices:
    """Slices C_0..C_tau_max with slice r carrying exactly the delay-r weights."""

    slices: np.ndarray  # shape (tau_max + 1, n, n)


def build_delay_slices(C: WeightMatrix | np.ndarray, d: DelayMap) -> DelaySlices:
    """Split C into per-delay slices. Each entry is moved, never recomputed,
    so the slices sum back to C exactly.

    Diagonal weights (implicit self-loops) go to slice 0.  The delay map
    domain must cover the off-diagonal sparsity pattern of C.
    """
    M = C.entries if isinstance(C, WeightMatrix) else np.asarray(C, dtype=float)
    n = M.shape[0]
    pattern = {(j, i) for i, j in zip(*np.nonzero(M)) if i != j}
    mapped = {e for e in d.tau if e[0] != e[1]}
    if pattern != mapped:
        missing = sorted(pattern - mapped)[:5]
        spurious = sorted(mapped - pattern)[:5]
        raise ValueError(
            "delay map domain does not match the matrix pattern "
            f"(unmapped links {missing}, mapped non-links {spurious})"
        )
    slices = np.zeros((d.tau_max + 1, n, n))
    for idx in range(n):
        slices[0, idx, idx] = M[idx, idx]
    for (j, i), t in d.tau.items():
        if j != i:
            slices[t, i, j] = M[i, j]
    return DelaySlices(slices=slices)


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
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 'j i tau', got {raw!r}")
        link = (int(parts[0]), int(parts[1]))
        if link in tau:
            raise ValueError(f"{path}:{lineno}: link {link} listed twice")
        tau[link] = int(parts[2])
    if tau_max is None:
        tau_max = max(tau.values(), default=0)
    return DelayMap(tau=tau, tau_max=tau_max)
