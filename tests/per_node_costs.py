"""Per-node reference models: each agent's own f_i, one object per node.

`dtacopt.costs` holds every objective only as its family's data stacked over
the nodes.  These dataclasses write f_i, grad f_i and the per-node constants
s_i, l_i one node at a time with plain matrix-vector products, as an agent
would, so the tests can require the stacked `grads`, `total` and
`total_grad` to match them to rounding and `start_grads`, `s` and `l` to
match them bit for bit.  `per_node_models(prob)` builds them on views of a
problem's stacked arrays, so the references read the very data the engines
run.

`replay_quadratic` and `replay_least_squares` draw and build a factory's
data one node at a time, in stream order, so the tests can require the
stacked factories to match them bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from dtacopt import costs
from dtacopt.costs import _log1pexp, _sigmoid


@dataclass(frozen=True)
class QuadraticCost:
    """f(z) = 0.5 z'Az + b'z with A symmetric positive definite."""

    A: np.ndarray
    b: np.ndarray
    s: float
    l: float

    @property
    def dim(self) -> int:
        return self.b.shape[0]

    def eval(self, z: np.ndarray) -> float:
        return float(0.5 * z @ self.A @ z + self.b @ z)

    def grad(self, z: np.ndarray) -> np.ndarray:
        return self.A @ z + self.b


@dataclass(frozen=True)
class LeastSquaresCost:
    """f(z) = 0.5 ||Hz - b||^2 + 0.5 ridge ||z||^2."""

    H: np.ndarray
    b: np.ndarray
    ridge: float
    s: float
    l: float

    @property
    def dim(self) -> int:
        return self.H.shape[1]

    def eval(self, z: np.ndarray) -> float:
        r = self.H @ z - self.b
        return float(0.5 * r @ r + 0.5 * self.ridge * z @ z)

    def grad(self, z: np.ndarray) -> np.ndarray:
        return self.H.T @ (self.H @ z - self.b) + self.ridge * z


@dataclass(frozen=True)
class LogisticCost:
    """Binary logistic loss over (w, b) with an l2 ridge on w only.

    f(w, b) = scale * sum_j log(1 + exp(-(w'c_j + b) y_j)) + 0.5 lam ||w||^2
    where scale is 1/m when mean_scaled.  The optional bias_ridge adds
    0.5 * bias_ridge * b^2 to restore joint strong convexity when needed.
    """

    features: np.ndarray  # (m, p)
    labels: np.ndarray  # (m,) in {-1, +1}
    lam: float
    mean_scaled: bool = True
    bias_ridge: float = 0.0
    s: float = field(init=False)
    l: float = field(init=False)

    def __post_init__(self) -> None:
        ones = np.ones((self.features.shape[0], 1))
        tilde = np.hstack([self.features, ones])
        gram_top = float(np.linalg.eigvalsh(tilde.T @ tilde)[-1])
        object.__setattr__(self, "s", self.lam)
        object.__setattr__(self, "l", self.lam + 0.25 * self._scale * gram_top)

    @property
    def dim(self) -> int:
        return self.features.shape[1] + 1

    @property
    def _scale(self) -> float:
        return 1.0 / len(self.labels) if self.mean_scaled else 1.0

    def _margins(self, z: np.ndarray) -> np.ndarray:
        return self.labels * (self.features @ z[:-1] + z[-1])

    def eval(self, z: np.ndarray) -> float:
        w = z[:-1]
        total = self._scale * float(np.sum(_log1pexp(-self._margins(z))))
        total += 0.5 * self.lam * float(w @ w)
        if self.bias_ridge:
            total += 0.5 * self.bias_ridge * float(z[-1] ** 2)
        return total

    def grad(self, z: np.ndarray) -> np.ndarray:
        scale = self._scale
        coeff = -self.labels * _sigmoid(-self._margins(z))  # d loss / d margin-arg
        g = np.empty(self.dim)
        g[:-1] = scale * (self.features.T @ coeff) + self.lam * z[:-1]
        g[-1] = scale * float(np.sum(coeff)) + self.bias_ridge * z[-1]
        return g


@dataclass(frozen=True)
class SmoothSvmCost:
    """Smoothed hinge SVM over (omega, nu):

    f = omega'omega + C_margin * sum_j (1/mu) log(1 + exp(mu * x_j)),
    x_j = 1 - l_j (omega'chi_j - nu).
    """

    features: np.ndarray  # (m, p)
    labels: np.ndarray  # (m,) in {-1, +1}
    margin_weight: float
    smoothness: float
    s: float = field(init=False)
    l: float = field(init=False)

    def __post_init__(self) -> None:
        ones = np.ones((self.features.shape[0], 1))
        tilde = np.hstack([self.features, -ones])
        gram_top = float(np.linalg.eigvalsh(tilde.T @ tilde)[-1])
        object.__setattr__(self, "s", 2.0)
        object.__setattr__(
            self, "l", 2.0 + self.margin_weight * self.smoothness / 4.0 * gram_top
        )

    @property
    def dim(self) -> int:
        return self.features.shape[1] + 1

    def _slack(self, z: np.ndarray) -> np.ndarray:
        omega, nu = z[:-1], z[-1]
        return 1.0 - self.labels * (self.features @ omega - nu)

    def eval(self, z: np.ndarray) -> float:
        omega = z[:-1]
        mu = self.smoothness
        hinge = float(np.sum(_log1pexp(mu * self._slack(z)))) / mu
        return float(omega @ omega) + self.margin_weight * hinge

    def grad(self, z: np.ndarray) -> np.ndarray:
        mu = self.smoothness
        coeff = self.margin_weight * _sigmoid(mu * self._slack(z))  # (m,)
        g = np.empty(self.dim)
        g[:-1] = 2.0 * z[:-1] - self.features.T @ (coeff * self.labels)
        g[-1] = float(np.sum(coeff * self.labels))
        return g


def per_node_models(prob) -> list:
    """The n per-node models of a stacked problem, on views of its arrays.

    The quadratic factory draws each A_i from a known spectrum; its model
    here takes s_i and l_i from that spectrum, recovered by eigvalsh.
    """
    n = prob.n
    if isinstance(prob, costs._QuadraticProblem):
        eigs = np.linalg.eigvalsh(prob.A)
        return [
            QuadraticCost(A=prob.A[i], b=prob.b[i], s=float(eigs[i, 0]), l=float(eigs[i, -1]))
            for i in range(n)
        ]
    if isinstance(prob, costs._LeastSquaresProblem):
        models = []
        for i in range(n):
            H = prob.H[i]
            eigs = np.linalg.eigvalsh(H.T @ H + prob.ridge * np.eye(prob.dim))
            models.append(
                LeastSquaresCost(
                    H=H, b=prob.b[i], ridge=prob.ridge, s=float(eigs[0]), l=float(eigs[-1])
                )
            )
        return models
    if isinstance(prob, costs._LogisticProblem):
        mean_scaled = prob.scale == 1.0 / prob.labels.shape[1]
        return [
            LogisticCost(
                features=prob.features[i], labels=prob.labels[i], lam=prob.lam,
                mean_scaled=mean_scaled, bias_ridge=prob.bias_ridge,
            )
            for i in range(n)
        ]
    if isinstance(prob, costs._SvmProblem):
        return [
            SmoothSvmCost(
                features=prob.features[i], labels=prob.labels[i],
                margin_weight=prob.margin_weight, smoothness=prob.smoothness,
            )
            for i in range(n)
        ]
    raise TypeError(f"no per-node model for {type(prob).__name__}")


def random_spd(p: int, rng: np.random.Generator, lo: float = 1.0, hi: float = 10.0):
    """One node's A_i: a random orthogonal conjugation of a diagonal with
    eigenvalues in [lo, hi], and the smallest and largest of them."""
    eigs = rng.uniform(lo, hi, size=p)
    Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    return (Q * eigs) @ Q.T, float(eigs.min()), float(eigs.max())


def replay_quadratic(n: int, p: int, seed: int):
    """(A, b, s, l) of `costs.make_quadratic(n, p, seed)`, node by node."""
    rng = np.random.default_rng(seed)
    A, b, s, l = np.empty((n, p, p)), np.empty((n, p)), np.empty(n), np.empty(n)
    for i in range(n):
        A[i], s[i], l[i] = random_spd(p, rng)
        b[i] = rng.standard_normal(p)
    return A, b, s, l


def replay_least_squares(n: int, p: int, rows: int, seed: int):
    """(H, b) of `costs.make_least_squares(n, p, rows, seed)`, node by node."""
    rng = np.random.default_rng(seed)
    z_true = rng.standard_normal(p)
    H, b = np.empty((n, rows, p)), np.empty((n, rows))
    for i in range(n):
        H[i] = rng.standard_normal((rows, p))
        b[i] = H[i] @ z_true + 0.1 * rng.standard_normal(rows)
    return H, b
