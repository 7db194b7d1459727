"""Distributed push-sum gradient-tracking engines, with and without delays.

Three engines share one protocol semantics:

* DtacEngine: the per-node delayed protocol.  Each round every node mixes
  whatever packets arrive (a packet carrying a round-m state over a delay-t
  link is used in the round-(m+t) update), subtracts its gradient-tracker
  step from the value channel, re-derives the ratio estimate z = x / y, and
  broadcasts its new (x, y, g) on every out-link.  Messages not yet arrived
  contribute nothing, so buffers start empty.
* AugmentedEngine: the matrix-form oracle.  The (live; in-flight) stacked
  state is advanced by the augmented mixing matrix; the gradient step and
  the tracker increment act on the live block, which is exactly what the
  per-node protocol does.  Run in lockstep from the same initialization the
  two produce identical live states up to rounding.
* AddOptEngine: the delay-free baseline; it mixes with C alone (no delay
  slices, no in-flight buffer) and ignores the delay map.  It and the
  per-node engine take their route and their nonzeros from C's link arrays,
  the oracle from `_mixer`'s scan of its matrix, by one rule that depends on
  the matrix alone; so with all delays zero the per-node engine reduces to
  the baseline bit for bit, and so does the oracle when tau_max = 0.

All engines share one lifecycle: `Engine(problem, W0, C, delays, alpha)`
installs the round-0 topology, `set_topology(C, delays)` installs the next
one on a switching run, and `step()` advances one round.  `ENGINES` maps
each `run.engine` name to its class, so `run()` never branches on the name.

Every engine holds the per-node state as one (n, 2p+1) block whose columns
are [x | y | g]; `init_states` draws the round-0 block W0, and the ratio
estimate z = x / y is derived from it.  Column stochasticity then keeps two
block sums conserved to machine precision at every round, live plus
in-flight:

    sum(y-hat) == n                    (weight mass)
    sum(g-hat) == sum_i grad_i(z_i)    (tracker mass = current gradient mass)

Both are recorded per iteration; the tracker residual is normalized by the
current gradient scale so it stays meaningful on diverging runs.  The module
`invariants` checks these laws, the lockstep and the zero-delay reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .costs import GlobalProblem
from .delays import (
    DelayMap,
    assign_delays,
    build_augmented_matrix,
    build_delay_slices,
)
from .graphs import (
    DirectedGraph,
    WeightMatrix,
    build_column_stochastic_weights,
    generate_erdos_renyi,
)


class EngineFault(RuntimeError):
    """Protocol violation (e.g. a nonpositive push-sum weight)."""


def init_states(problem: GlobalProblem, seed: int) -> np.ndarray:
    """Round-0 block [x | y | g] over problem.n nodes: random x, unit weight,
    tracker seeded with the local gradient at z = x / y = x."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((problem.n, problem.dim))
    return np.hstack([X, np.ones((problem.n, 1)), problem.start_grads(X)])


class InTransitBuffer:
    """Round-indexed accumulators for packed (x | y | g) packets in flight.

    A deposit made for use at round u lands in slot u mod (tau_max + 1);
    delays never exceed tau_max, so pending rounds occupy distinct slots.
    take(k) drains and zeroes the slot for round k.
    """

    def __init__(self, tau_max: int, n: int, width: int) -> None:
        self.depth = tau_max + 1
        self.q = np.zeros((self.depth, n, width))

    def deposit(self, send_round: int, stacked: np.ndarray) -> None:
        """Add a round's sends, stacked by delay r = 0, 1, ... <= tau_max."""
        sends = stacked.reshape(-1, *self.q.shape[1:])
        s = send_round % self.depth
        head = min(len(sends), self.depth - s)  # the rest wraps to slot 0
        self.q[s : s + head] += sends[:head]
        if head < len(sends):
            self.q[: len(sends) - head] += sends[head:]

    def take(self, use_round: int) -> np.ndarray:
        s = use_round % self.depth
        out = self.q[s].copy()
        self.q[s] = 0.0
        return out


# Measured at width 11 on a 2-core x86_64 with OpenBLAS: a product through
# the nonzeros costs as much as about 32 dense entries per nonzero plus 4096
# entries of call overhead.
_DENSE_BASE = 4096
_DENSE_PER_NONZERO = 32


def _mixer(M: np.ndarray, width: int):
    """X -> M @ X for blocks X of `width` columns: one BLAS call if M has at
    most _DENSE_BASE + _DENSE_PER_NONZERO * nnz(M) entries, else the product
    through its nonzeros, which keeps no reference to M.  The route depends on
    M alone."""
    flat = np.flatnonzero(M)
    if M.size <= _DENSE_BASE + _DENSE_PER_NONZERO * len(flat):
        return M.__matmul__
    rows, cols = np.divmod(flat, M.shape[1])
    return _nonzero_product(rows, cols, M.ravel()[flat], M.shape[0], width)


def _nonzero_product(rows, cols, vals, m: int, width: int):
    """X -> M @ X for the m-row M with nonzeros vals at (rows, cols), each
    row's listed in column order: one bincount, which adds each row's terms in
    that order, over a gather buffer that every call reuses."""
    bins = (rows[:, None] * width + np.arange(width)).ravel()
    vals = vals[:, None]
    terms = np.empty((len(cols), width))

    def product(X: np.ndarray) -> np.ndarray:
        np.take(X, cols, 0, terms, "clip")  # "raise" would copy
        np.multiply(vals, terms, terms)
        return np.bincount(bins, terms.ravel(), m * width).reshape(m, width)

    return product


def _dense_wins(m: int, C: WeightMatrix) -> bool:
    """Whether the m-row operator that stacks C's weights by delay is
    multiplied in one BLAS call: its nonzeros are C's links and the nonzeros
    of its diagonal, and the rule is `_mixer`'s, so the route depends on the
    matrix alone."""
    nnz = len(C.src) + np.count_nonzero(C.diag)
    return m * C.n <= _DENSE_BASE + _DENSE_PER_NONZERO * nnz


def _located_nonzeros(C: WeightMatrix, delay):
    """The nonzeros of the operator that stacks C's weights by delay, found
    from C's link arrays, not by a scan: link j -> i of delay t (`delay`
    holds one per link, in C's link order, or is 0) at (t*n + i, j), in
    sender order, which is each row's column order, and node i's diagonal
    entry (i, i) after sender i's links.  Zero weights are dropped."""
    n, src = C.n, C.src
    at = np.arange(len(src)) + src
    loops = np.cumsum(np.bincount(src, minlength=n)) + np.arange(n)
    rows = np.empty(len(src) + n, np.intp)
    cols = np.empty_like(rows)
    vals = np.empty(len(rows))
    rows[at] = delay * n + C.dst
    cols[at] = src
    vals[at] = C.weight
    rows[loops] = cols[loops] = np.arange(n)
    vals[loops] = C.diag
    if np.count_nonzero(vals) < len(vals):
        keep = np.flatnonzero(vals)
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    return rows, cols, vals


class _EngineBase:
    """One lifecycle for every engine, plus the shared update arithmetic on
    the packed (n, 2p+1) live block.

    Every engine is built by this constructor: it takes the round-0 block W0,
    installs the round-0 topology with `set_topology(C, delays)` -- the call
    `run()` makes again at every switch -- and measures the conserved masses.
    """

    def __init__(
        self,
        problem: GlobalProblem,
        W0: np.ndarray,
        C: WeightMatrix,
        delays: DelayMap,
        alpha: float,
    ) -> None:
        self.problem = problem
        self.alpha = alpha
        self.n = len(W0)
        self.p = problem.dim
        self.tau_max = delays.tau_max
        self._init_state(W0)
        self.Z = self.W[:, : self.p] / self.W[:, self.p, None]
        self.grad_prev = self.W[:, self.p + 1 :].copy()
        self.k = 0
        self.set_topology(C, delays)
        self._measure()

    def _init_state(self, W: np.ndarray) -> None:
        """Hold the packed round-0 block; nothing is in flight yet."""
        self.W = W

    def _measure(self) -> None:
        p = self.p
        self.mass = float(np.add.reduce(self.W[:, p], None))
        self.tracker_mass = np.add.reduce(self.W[:, p + 1 :], 0)

    def _update_live(self, mixed: np.ndarray) -> np.ndarray:
        """Apply the gradient step and tracker increment to a mixed block, in
        place: `mixed` must be a fresh array that nothing else references."""
        p = self.p
        x, y, g = mixed[:, :p], mixed[:, p], mixed[:, p + 1 :]
        x -= self.alpha * self.W[:, p + 1 :]
        if (y <= 0.0).any():
            raise EngineFault("nonpositive push-sum weight: protocol violated")
        z = x / y[:, None]
        grads = self.problem.grads(z)
        g += grads
        g -= self.grad_prev
        self.Z = z
        self.grad_prev = grads
        return mixed


class DtacEngine(_EngineBase):
    """Per-node delayed gradient tracking (the deployable protocol)."""

    def _init_state(self, W: np.ndarray) -> None:
        self.W = W
        self.buffers = InTransitBuffer(self.tau_max, self.n, W.shape[1])

    def set_topology(self, C: WeightMatrix, delays: DelayMap) -> None:
        """Install mixing weights and delays for subsequent sends; packets
        already in flight keep their original delivery schedule."""
        if delays.tau_max != self.tau_max:
            raise ValueError("cannot change tau_max mid-run")
        # slices past the largest delay in use carry nothing; with all delays
        # zero the stacked operator is C itself, as in AddOptEngine.  (An int
        # max in place of bincount would load numpy code no other step runs.)
        top = len(np.bincount(delays.delay, minlength=1)) - 1
        # built on the sparse route too only because perfbench pins delays.slice_bytes
        S = build_delay_slices(C, delays).slices[: top + 1].reshape(-1, self.n)
        m = len(S)
        if _dense_wins(m, C):
            self._mix = S.__matmul__
            return
        del S  # by the domain check, delays' links are C's, in its order
        rows, cols, vals = _located_nonzeros(C, delays.delay)
        self._mix = _nonzero_product(rows, cols, vals, m, self.W.shape[1])

    def step(self) -> None:
        # the round-k state is shared under the round-k topology, so sends
        # happen at the start of the round (mirrors the mixing-matrix form)
        self.buffers.deposit(self.k, self._mix(self.W))
        self.W = self._update_live(self.buffers.take(self.k))
        self.k += 1
        self._measure()

    def _measure(self) -> None:
        p, q = self.p, self.buffers.q
        self.mass = float(np.add.reduce(self.W[:, p], None)) + float(
            np.add.reduce(q[:, :, p], (0, 1))
        )
        self.tracker_mass = np.add.reduce(self.W[:, p + 1 :], 0) + np.add.reduce(
            q[:, :, p + 1 :], (0, 1)
        )


class AugmentedEngine(_EngineBase):
    """Matrix-form oracle on the stacked (live; in-flight) state."""

    def _init_state(self, W: np.ndarray) -> None:
        self.W_hat = np.zeros(((self.tau_max + 1) * self.n, W.shape[1]))
        self.W_hat[: self.n] = W

    def set_topology(self, C: WeightMatrix, delays: DelayMap) -> None:
        """Install the augmented matrix of (C, delays) for subsequent rounds."""
        if delays.tau_max != self.tau_max:
            raise ValueError("cannot change tau_max mid-run")
        self._mix = _mixer(build_augmented_matrix(C, delays).entries, self.W_hat.shape[1])

    @property
    def W(self) -> np.ndarray:  # live view used by the shared update
        return self.W_hat[: self.n]

    def step(self) -> None:
        mixed = self._mix(self.W_hat)
        self._update_live(mixed[: self.n])
        self.W_hat = mixed
        self.k += 1
        self._measure()

    def _measure(self) -> None:
        p = self.p
        self.mass = float(np.add.reduce(self.W_hat[:, p], None))
        self.tracker_mass = np.add.reduce(self.W_hat[:, p + 1 :], 0)


class AddOptEngine(_EngineBase):
    """Delay-free push-sum gradient tracking (the baseline).  It mixes with C
    alone and ignores the delay map; it builds no delay slices and holds
    nothing in flight, so the delayed engines' zero-delay reduction to it
    is a real check."""

    def set_topology(self, C: WeightMatrix, delays: DelayMap) -> None:
        if _dense_wins(self.n, C):
            self._mix = C.entries.__matmul__
        else:
            rows, cols, vals = _located_nonzeros(C, 0)
            self._mix = _nonzero_product(rows, cols, vals, self.n, self.W.shape[1])

    def step(self) -> None:
        self.W = self._update_live(self._mix(self.W))
        self.k += 1
        self._measure()


ENGINES: dict[str, type[_EngineBase]] = {
    "per-node": DtacEngine,
    "augmented-oracle": AugmentedEngine,
    "addopt-nodelay": AddOptEngine,
}


class TraceRecord(NamedTuple):
    """One metric row; all finite unless the run diverged."""

    iter: int
    optimality_gap: float
    mse: float
    consensus_error: float
    grad_tracker_sum_error: float
    mass_error: float


TRACE_HEADER = ",".join(TraceRecord._fields)

# a run's trace: one 48-byte row per recorded iteration, TraceRecord's fields
TRACE_DTYPE = np.dtype(
    [("iter", np.int64)] + [(name, np.float64) for name in TraceRecord._fields[1:]]
)

_TRACE_START = 64  # rows a trace holds before it first grows


# a run whose mean squared distance to z* passes this is DIVERGED
DIVERGENCE_MSE = 1e12


@dataclass
class RunConfig:
    """Knobs of a single run: the `run.*` rows of `experiment.CONFIG_KEYS`."""

    alpha: float
    max_iters: int
    tol: float
    record_every: int
    engine: str
    init_seed: int


@dataclass(frozen=True)
class StaticSetting:
    """Fixed topology and delay map for a whole run."""

    weights: WeightMatrix
    delays: DelayMap

    @classmethod
    def draw(
        cls, g: DirectedGraph, tau_max: int, mode: str, seed, require_strong: bool = True
    ) -> StaticSetting:
        """Uniform push-sum weights on g, then a delay map drawn over its
        links: the one way a setting is made from a graph."""
        C = build_column_stochastic_weights(g, require_strong=require_strong)
        return cls(weights=C, delays=assign_delays(g, tau_max, mode, seed))


@dataclass(frozen=True)
class SwitchingPlan:
    """Erdos-Renyi topology and delays at the same bound, redrawn every
    `period` iterations.

    Epoch e draws its graph from SeedSequence([graph_seed, e]) and its delays
    from SeedSequence([delay_seed, e]).  With require_strong every epoch's
    graph is strongly connected; without it each epoch takes its stream's
    first draw (the B-connected regime, with no certified rate here).
    """

    period: int
    n: int
    p: float
    graph_seed: int
    require_strong: bool
    tau_max: int
    delay_mode: str
    delay_seed: int

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError("switching period must be >= 1")

    def realize(self, epoch: int) -> StaticSetting:
        g = generate_erdos_renyi(
            self.n,
            self.p,
            np.random.SeedSequence([self.graph_seed, epoch]),
            require_strong=self.require_strong,
        )
        seed = np.random.SeedSequence([self.delay_seed, epoch])
        return StaticSetting.draw(g, self.tau_max, self.delay_mode, seed, self.require_strong)


@dataclass
class RunResult:
    """One run; a sweep's summary row is its fields but `trace`, in order."""

    tau_max: int
    alpha: float
    status: str  # CONVERGED | DIVERGED | MAXITER
    iters: int
    final_gap: float
    final_mse: float
    trace: np.ndarray  # TRACE_DTYPE, one row per recorded iteration

    def status_line(self) -> str:
        return f"STATUS {self.status} iters={self.iters} final_gap={self.final_gap!r}"


def _metrics(engine, problem: GlobalProblem) -> TraceRecord:
    # the reductions numpy's mean, sum and linalg.norm make (so the same bits),
    # without their wrappers' overhead
    Z, n = engine.Z, engine.n
    z_bar = np.add.reduce(Z, 0) / n
    d = Z - problem.z_star
    mse = float(np.add.reduce(np.add.reduce(d * d, 1), None) / n)
    d = Z - z_bar
    # sqrt is correctly rounded and monotone, so this is the largest row norm
    consensus = math.sqrt(np.maximum.reduce(np.add.reduce(d * d, 1)))
    grad_now = np.add.reduce(engine.grad_prev, 0)
    resid = engine.tracker_mass - grad_now
    tracker_err = math.sqrt(resid.dot(resid)) / (1.0 + math.sqrt(grad_now.dot(grad_now)))
    return TraceRecord(
        engine.k, problem.gap(z_bar), mse, consensus, tracker_err, abs(engine.mass - n)
    )


def _keep(trace: np.ndarray, rows: int, row: TraceRecord) -> int:
    """Write `row` after the first `rows` rows of `trace`, doubling `trace`
    in place when it is full; returns the new row count.  Only `run()` holds
    `trace` while it grows, and it takes no view of it."""
    if rows == len(trace):
        trace.resize(2 * rows, refcheck=False)
    trace[rows] = row
    return rows + 1


def run(
    config: RunConfig,
    setting: StaticSetting | SwitchingPlan,
    problem: GlobalProblem,
) -> RunResult:
    """Drive the selected engine to convergence, divergence, or max_iters.

    On a SwitchingPlan the topology (and a fresh delay map at the same
    bound) is installed every `period` iterations; packets already in
    flight are still delivered on their original schedule.  The trace
    holds the round-0 row, the row of every `record_every`-th iteration and
    the final row.
    """
    switching = isinstance(setting, SwitchingPlan)
    current = setting.realize(0) if switching else setting
    engine = ENGINES[config.engine](
        problem, init_states(problem, config.init_seed), current.weights,
        current.delays, config.alpha,
    )

    last = _metrics(engine, problem)
    trace = np.empty(_TRACE_START, TRACE_DTYPE)
    rows = _keep(trace, 0, last)
    status = "MAXITER"
    for k in range(config.max_iters):
        if switching and k > 0 and k % setting.period == 0:
            current = setting.realize(k // setting.period)
            engine.set_topology(current.weights, current.delays)
        engine.step()
        last = _metrics(engine, problem)
        if engine.k % config.record_every == 0:
            rows = _keep(trace, rows, last)
        if not math.isfinite(last.mse) or last.mse > DIVERGENCE_MSE:
            status = "DIVERGED"
            break
        if last.optimality_gap < config.tol:
            status = "CONVERGED"
            break
    if engine.k % config.record_every:  # the final row is off the cadence
        rows = _keep(trace, rows, last)
    trace.resize(rows, refcheck=False)  # in place: no copy of the rows
    return RunResult(
        tau_max=engine.tau_max,
        alpha=config.alpha,
        status=status,
        iters=engine.k,
        final_gap=last.optimality_gap,
        final_mse=last.mse,
        trace=trace,
    )
