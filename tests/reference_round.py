"""The engines' round before it was cut to numpy's call floor, as an oracle.

`dtacopt.optimizer` applies the gradient step and tracker increment in place
on the freshly mixed block, sums with `np.add.reduce` and takes its metric
row from bare reductions.  The classes here keep the earlier round: a copy of
each input block and the `.sum()`/`np.mean`/`np.linalg.norm` wrappers, in the
masses and in the metric row.  Each reference engine subclasses its package
engine, so both share the constructor, `set_topology`, the mixing product and
every step body that did not change, and differ only in the code that was
rewritten.  The rewrite computes the
same expressions, so the tests require the two to agree bit for bit: equal
states, equal trace rows and the same `EngineFault`.
"""

from __future__ import annotations

import numpy as np

from dtacopt.costs import GlobalProblem
from dtacopt.optimizer import (
    AddOptEngine,
    AugmentedEngine,
    DtacEngine,
    EngineFault,
    InTransitBuffer,
)


class ReferenceBuffer(InTransitBuffer):
    """In-transit slots that always add the wrap-around part and copy on take."""

    def deposit(self, send_round: int, stacked: np.ndarray) -> None:
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


class _ReferenceUpdate:
    """The gradient step and tracker increment into a new block."""

    def _update_live(self, mixed: np.ndarray) -> np.ndarray:
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


class ReferenceDtacEngine(_ReferenceUpdate, DtacEngine):
    def _init_state(self, W: np.ndarray) -> None:
        self.W = W
        self.buffers = ReferenceBuffer(self.tau_max, self.n, W.shape[1])

    def masses(self) -> tuple[float, np.ndarray]:
        p = self.p
        return (
            float(self.W[:, p].sum()) + float(self.buffers.column_sum(p)),
            self.W[:, p + 1 :].sum(axis=0) + self.buffers.column_sum(slice(p + 1, None)),
        )


class ReferenceAugmentedEngine(_ReferenceUpdate, AugmentedEngine):
    def step(self) -> None:
        mixed = self._mix(self.W_hat)
        live = self._update_live(mixed[: self.n])
        mixed[: self.n] = live
        self.W_hat = mixed
        self.k += 1

    def masses(self) -> tuple[float, np.ndarray]:
        p = self.p
        return float(self.W_hat[:, p].sum()), self.W_hat[:, p + 1 :].sum(axis=0)


class ReferenceAddOptEngine(_ReferenceUpdate, AddOptEngine):
    def masses(self) -> tuple[float, np.ndarray]:
        p = self.p
        return float(self.W[:, p].sum()), self.W[:, p + 1 :].sum(axis=0)


REFERENCE_ENGINES = {
    DtacEngine: ReferenceDtacEngine,
    AugmentedEngine: ReferenceAugmentedEngine,
    AddOptEngine: ReferenceAddOptEngine,
}


def reference_metrics(engine, problem: GlobalProblem) -> tuple:
    Z = engine.Z
    z_bar = Z.mean(axis=0)
    gap = problem.gap(z_bar)
    diffs = Z - problem.z_star
    mse = float(np.mean(np.sum(diffs * diffs, axis=1)))
    consensus = float(np.max(np.linalg.norm(Z - z_bar, axis=1)))
    mass, tracker_mass = engine.masses()
    grad_now = engine.grad_prev.sum(axis=0)
    tracker_err = float(
        np.linalg.norm(tracker_mass - grad_now)
        / (1.0 + np.linalg.norm(grad_now))
    )
    mass_err = abs(mass - engine.n)
    return engine.k, gap, mse, consensus, tracker_err, mass_err
