"""The comparison-matrix recursion measured along an augmented-engine run.

Test helpers: the comparison pair (G, H_k) built from a spectral
certificate, the error triple t_k of the convergence analysis and a monitor
that checks t_k <= G t_{k-1} + H_{k-1} s_{k-1} step by step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dtacopt.optimizer import AugmentedEngine
from dtacopt.spectral import Certificate


@dataclass(frozen=True)
class ContractionMatrices:
    """The 3x3 comparison pair (G, H_k) driving the error-triple recursion
    t_k <= G t_{k-1} + H_{k-1} s_{k-1}."""

    G: np.ndarray
    H_k: np.ndarray


def build_G_H(alpha: float, k: int, cert: Certificate, l: float, s: float) -> ContractionMatrices:
    """Comparison matrices at step size alpha and round k, for a cost with
    smoothness l and strong convexity s.

    eta = 1 - alpha n(tau_max+1) s (the binding branch of
    max{1 - alpha n(tau_max+1) l, 1 - alpha n(tau_max+1) s} since s <= l).
    H_k decays like gamma1^(k-1) and only touches the ||x_hat|| column.
    """
    m = cert.n * (cert.tau_max + 1)
    eta = 1.0 - alpha * m * s
    eps, y, ym = cert.epsilon, cert.y, cert.y_minus
    G = np.array(
        [
            [cert.sigma, 0.0, alpha],
            [alpha * l * ym, eta, 0.0],
            [
                eps * l * ym * (cert.kappa + alpha * l * y * ym),
                alpha * eps * l**2 * y * ym,
                cert.sigma + alpha * eps * l * ym,
            ],
        ]
    )
    envelope = cert.envelope_T * cert.gamma1 ** (k - 1) if k >= 1 else cert.envelope_T
    H = np.array(
        [
            [0.0, 0.0, 0.0],
            [alpha * l * ym * envelope, 0.0, 0.0],
            [(alpha * l * y + 2.0) * eps * l * ym**2 * envelope, 0.0, 0.0],
        ]
    )
    return ContractionMatrices(G=G, H_k=H)


class ContractionMonitor:
    """Accumulates the error-triple recursion t_k <= G t_{k-1} + H_{k-1} s_{k-1}
    along an augmented-engine run and logs the worst per-row tightness.

    Call observe() once per engine step; `worst_ratios` holds, per row, the
    largest observed t_k / rhs_k.  The G used here should carry the measured
    operator-norm contraction (sigma_norm2 of the spectral report): the
    one-step inequality needs a norm bound, not the asymptotic rate.
    """

    def __init__(self, G_builder, limit: np.ndarray, z_star: np.ndarray) -> None:
        self.G_builder = G_builder  # k -> ContractionMatrices
        self.limit = limit
        self.z_star = z_star
        self.worst_ratios = np.zeros(3)
        self._prev: tuple[np.ndarray, np.ndarray] | None = None
        self.rows: list[np.ndarray] = []

    def observe(self, engine: AugmentedEngine) -> None:
        t, s = tracking_triple(engine, self.limit, self.z_star)
        if self._prev is not None:
            t_prev, s_prev = self._prev
            GH = self.G_builder(engine.k)
            rhs = GH.G @ t_prev + GH.H_k @ s_prev
            ratios = t / np.maximum(rhs, 1e-300)
            self.worst_ratios = np.maximum(self.worst_ratios, ratios)
            self.rows.append(ratios)
        self._prev = (t, s)


def tracking_triple(
    engine: AugmentedEngine, limit: np.ndarray, z_star: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Measured error triple t_k (and driver s_k) for the comparison-matrix
    recursion t_k <= G t_{k-1} + H_{k-1} s_{k-1}:

    t = (||x_hat - limit @ x_hat||, ||stack(x_bar - z*)||, ||g_hat - limit @ g_hat||)
    s = (||x_hat||, 0, 0)

    where x_bar is the global mass average (valid because weight mass is n).
    """
    n, p = engine.n, engine.p
    x_hat, g_hat = engine.W_hat[:, :p], engine.W_hat[:, p + 1 :]
    reps = engine.tau_max + 1
    t1 = float(np.linalg.norm(x_hat - limit @ x_hat))
    x_bar = x_hat.sum(axis=0) / n
    t2 = float(np.sqrt(n * reps) * np.linalg.norm(x_bar - z_star))
    t3 = float(np.linalg.norm(g_hat - limit @ g_hat))
    s1 = float(np.linalg.norm(x_hat))
    return np.array([t1, t2, t3]), np.array([s1, 0.0, 0.0])
