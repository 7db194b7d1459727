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
  slices, no in-flight buffer) and ignores the delay map.  All engines
  multiply through `_mixer`, whose route depends on the matrix alone, so
  with all delays zero the per-node engine reduces to it bit for bit, and
  so does the oracle when tau_max = 0.

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
current gradient scale so it stays meaningful on diverging runs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .costs import GlobalProblem
from .delays import (
    DelayMap,
    assign_delays,
    build_augmented_matrix,
    build_delay_slices,
)
from .graphs import (
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
        self.q[: len(sends) - head] += sends[head:]

    def take(self, use_round: int) -> np.ndarray:
        s = use_round % self.depth
        out = self.q[s].copy()
        self.q[s] = 0.0
        return out

    def column_sum(self, col: slice | int) -> np.ndarray | float:
        return self.q[:, :, col].sum(axis=(0, 1))


# Measured at width 11 on a 2-core x86_64 with OpenBLAS: a product through
# the nonzeros costs as much as about 32 dense entries per nonzero plus 4096
# entries of call overhead.
_DENSE_BASE = 4096
_DENSE_PER_NONZERO = 32


def _mixer(M: np.ndarray, width: int):
    """X -> M @ X for blocks X of `width` columns: one BLAS call if M has at
    most _DENSE_BASE + _DENSE_PER_NONZERO * nnz(M) entries, else one bincount
    over the nonzeros that adds each row's terms in column order and keeps no
    reference to M.  The route depends on M alone."""
    if M.size <= _DENSE_BASE + _DENSE_PER_NONZERO * np.count_nonzero(M):
        return M.__matmul__
    flat = np.flatnonzero(M)
    rows, cols = np.divmod(flat, M.shape[1])
    vals = M.ravel()[flat][:, None]
    bins = (rows[:, None] * width + np.arange(width)).ravel()
    shape = (M.shape[0], width)

    def product(X: np.ndarray) -> np.ndarray:
        terms = vals * X[cols]
        return np.bincount(bins, terms.ravel(), shape[0] * width).reshape(shape)

    return product


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
        self.mass = float(self.W[:, p].sum())
        self.tracker_mass = self.W[:, p + 1 :].sum(axis=0)

    def _update_live(self, mixed: np.ndarray) -> np.ndarray:
        """Apply the gradient step and tracker increment to a mixed block."""
        p = self.p
        G_prev = self.W[:, p + 1 :]
        x_new = mixed[:, :p] - self.alpha * G_prev
        y_new = mixed[:, p]
        if np.any(y_new <= 0.0):
            raise EngineFault("nonpositive push-sum weight: protocol violated")
        z_new = x_new / y_new[:, None]
        grads = self.problem.grads(z_new)
        g_new = (mixed[:, p + 1 :] + grads) - self.grad_prev
        W_new = np.empty_like(mixed)
        W_new[:, :p] = x_new
        W_new[:, p] = y_new
        W_new[:, p + 1 :] = g_new
        self.Z = z_new
        self.grad_prev = grads
        return W_new

    @property
    def live_x(self) -> np.ndarray:
        return self.W[:, : self.p]

    @property
    def live_y(self) -> np.ndarray:
        return self.W[:, self.p]

    @property
    def live_g(self) -> np.ndarray:
        return self.W[:, self.p + 1 :]

    @property
    def live_z(self) -> np.ndarray:
        return self.Z


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
        slices = build_delay_slices(C, delays).slices[: top + 1]
        self._mix = _mixer(slices.reshape(-1, self.n), self.W.shape[1])

    def step(self) -> None:
        # the round-k state is shared under the round-k topology, so sends
        # happen at the start of the round (mirrors the mixing-matrix form)
        self.buffers.deposit(self.k, self._mix(self.W))
        arrivals = self.buffers.take(self.k)
        self.W = self._update_live(arrivals)
        self.k += 1
        self._measure()

    def _measure(self) -> None:
        p = self.p
        self.mass = float(self.W[:, p].sum()) + float(self.buffers.column_sum(p))
        self.tracker_mass = self.W[:, p + 1 :].sum(axis=0) + self.buffers.column_sum(
            slice(p + 1, None)
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
        self.aug = build_augmented_matrix(C, delays)
        self._mix = _mixer(self.aug.entries, self.W_hat.shape[1])

    @property
    def W(self) -> np.ndarray:  # live view used by the shared update
        return self.W_hat[: self.n]

    def step(self) -> None:
        mixed = self._mix(self.W_hat)
        live = self._update_live(mixed[: self.n])
        mixed[: self.n] = live
        self.W_hat = mixed
        self.k += 1
        self._measure()

    def _measure(self) -> None:
        p = self.p
        self.mass = float(self.W_hat[:, p].sum())
        self.tracker_mass = self.W_hat[:, p + 1 :].sum(axis=0)

    @property
    def x_hat(self) -> np.ndarray:
        return self.W_hat[:, : self.p]

    @property
    def g_hat(self) -> np.ndarray:
        return self.W_hat[:, self.p + 1 :]


class AddOptEngine(_EngineBase):
    """Delay-free push-sum gradient tracking (the baseline).  It mixes with C
    alone and ignores the delay map; it builds no delay slices and holds
    nothing in flight, so the delayed engines' zero-delay reduction to it
    is a real check."""

    def set_topology(self, C: WeightMatrix, delays: DelayMap) -> None:
        self._mix = _mixer(C.entries, self.W.shape[1])

    def step(self) -> None:
        self.W = self._update_live(self._mix(self.W))
        self.k += 1
        self._measure()


ENGINES: dict[str, type[_EngineBase]] = {
    "per-node": DtacEngine,
    "augmented-oracle": AugmentedEngine,
    "addopt-nodelay": AddOptEngine,
}


@dataclass(frozen=True)
class TraceRecord:
    """One metric row; all finite unless the run diverged."""

    iter: int
    optimality_gap: float
    mse: float
    consensus_error: float
    grad_tracker_sum_error: float
    mass_error: float

    def as_csv_row(self) -> str:
        return ",".join(repr(getattr(self, name)) for name in _TRACE_COLUMNS)


# taken once: every fields() call builds a tuple, and one per row leaves up to
# 2000 of them (about 170 KiB) on CPython's tuple free list after a trace write
_TRACE_COLUMNS = tuple(f.name for f in fields(TraceRecord))
TRACE_HEADER = ",".join(_TRACE_COLUMNS)


# a run whose mean squared distance to z* passes this is DIVERGED
DIVERGENCE_MSE = 1e12


@dataclass
class RunConfig:
    """Knobs of a single run; `experiment.validate_config` checks them."""

    alpha: float
    max_iters: int = 20000
    tol: float = 1e-10
    record_every: int = 1
    engine: str = "per-node"
    init_seed: int = 3


@dataclass(frozen=True)
class StaticSetting:
    """Fixed topology and delay map for a whole run."""

    weights: WeightMatrix
    delays: DelayMap


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
        C = build_column_stochastic_weights(g, require_strong=self.require_strong)
        d = assign_delays(
            g,
            self.tau_max,
            self.delay_mode,
            np.random.SeedSequence([self.delay_seed, epoch]),
        )
        return StaticSetting(weights=C, delays=d)


@dataclass
class RunResult:
    status: str  # CONVERGED | DIVERGED | MAXITER
    iters: int
    final_gap: float
    final_mse: float
    records: list[TraceRecord]

    def status_line(self) -> str:
        return f"STATUS {self.status} iters={self.iters} final_gap={self.final_gap!r}"


def _metrics(engine, problem: GlobalProblem) -> TraceRecord:
    Z = engine.live_z
    z_bar = Z.mean(axis=0)
    gap = problem.gap(z_bar)
    diffs = Z - problem.z_star
    mse = float(np.mean(np.sum(diffs * diffs, axis=1)))
    consensus = float(np.max(np.linalg.norm(Z - z_bar, axis=1)))
    grad_now = engine.grad_prev.sum(axis=0)
    tracker_err = float(
        np.linalg.norm(engine.tracker_mass - grad_now)
        / (1.0 + np.linalg.norm(grad_now))
    )
    mass_err = abs(engine.mass - engine.n)
    return TraceRecord(
        iter=engine.k,
        optimality_gap=gap,
        mse=mse,
        consensus_error=consensus,
        grad_tracker_sum_error=tracker_err,
        mass_error=mass_err,
    )


def run(
    config: RunConfig,
    setting: StaticSetting | SwitchingPlan,
    problem: GlobalProblem,
) -> RunResult:
    """Drive the selected engine to convergence, divergence, or max_iters.

    On a SwitchingPlan the topology (and a fresh delay map at the same
    bound) is installed every `period` iterations; packets already in
    flight are still delivered on their original schedule.
    """
    switching = isinstance(setting, SwitchingPlan)
    current = setting.realize(0) if switching else setting
    engine = ENGINES[config.engine](
        problem, init_states(problem, config.init_seed), current.weights,
        current.delays, config.alpha,
    )

    records = [_metrics(engine, problem)]
    status = "MAXITER"
    last = records[-1]
    for k in range(config.max_iters):
        if switching and k > 0 and k % setting.period == 0:
            current = setting.realize(k // setting.period)
            engine.set_topology(current.weights, current.delays)
        engine.step()
        last = _metrics(engine, problem)
        if engine.k % config.record_every == 0:
            records.append(last)
        if not np.isfinite(last.mse) or last.mse > DIVERGENCE_MSE:
            status = "DIVERGED"
            break
        if last.optimality_gap < config.tol:
            status = "CONVERGED"
            break
    if records[-1].iter != last.iter:
        records.append(last)
    return RunResult(
        status=status,
        iters=engine.k,
        final_gap=last.optimality_gap,
        final_mse=last.mse,
        records=records,
    )
