"""Local objective functions with exact gradients and centralized optima.

Every factory returns a GlobalProblem subclass that holds its family's data
stacked over the n nodes:

    quadratic       A (n, p, p), b (n, p)
    least squares   H (n, r, p), b (n, r), ridge
    logistic        features (n, m, p), labels (n, m), lam, scale, bias_ridge
    smoothed SVM    features (n, m, p), labels (n, m), margin_weight, smoothness

and computes all n gradients (`grads(Z)`, one einsum pass) and the network
objective (`total(z)`, one pass over the flattened data) without a loop over
nodes.  These are the paths the engines and the metrics run.  The per-node
models in `locals` (QuadraticCost, ...) are built on views of the stacked
arrays, so no data is held twice; they are the reference the batched methods
are tested against, and they seed the initial trackers.

The problem also carries the uniform strong-convexity / gradient-Lipschitz
constants and the minimizer of F = sum_i f_i, computed by an independent
centralized oracle: a linear solve where the problem is quadratic, otherwise
accelerated gradient descent on `total_grad` to gradient norm 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class OracleError(RuntimeError):
    """The centralized reference solver failed to reach its tolerance."""


def _sigmoid(t: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-t)) without overflow: exp is only taken of -|t|."""
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _log1pexp(t: np.ndarray) -> np.ndarray:
    """log(1 + exp(t)) without overflow."""
    out = np.where(t > 33.0, t, np.log1p(np.exp(np.minimum(t, 33.0))))
    return out


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


class GlobalProblem:
    """F = sum_i f_i over n nodes, with its centralized optimum.

    A subclass holds one family's data stacked over the nodes and implements
    the batched `grads` and `total`; `locals` are the per-node models, built
    on views of that data.  s and l are the uniform (worst-node) constants;
    z_star and f_star are set once the centralized oracle has run.
    """

    z_star: np.ndarray
    f_star: float

    def __init__(self, locals: list) -> None:
        self.locals = locals
        self.s = min(m.s for m in locals)
        self.l = max(m.l for m in locals)

    @property
    def n(self) -> int:
        return len(self.locals)

    @property
    def dim(self) -> int:
        return self.locals[0].dim

    def total(self, z: np.ndarray) -> float:
        """F(z) = sum_i f_i(z)."""
        raise NotImplementedError

    def grads(self, Z: np.ndarray) -> np.ndarray:
        """Per-node gradients at per-node states: row i is grad f_i(Z[i])."""
        raise NotImplementedError

    def total_grad(self, z: np.ndarray) -> np.ndarray:
        return self.grads(np.broadcast_to(z, (self.n, z.shape[0]))).sum(axis=0)

    def gap(self, z: np.ndarray) -> float:
        return self.total(z) - self.f_star

    def _with_optimum(self, z_star: np.ndarray) -> "GlobalProblem":
        self.z_star = z_star
        self.f_star = self.total(z_star)
        return self


class _QuadraticProblem(GlobalProblem):
    def __init__(self, locals: list, A: np.ndarray, b: np.ndarray) -> None:
        super().__init__(locals)
        self.A, self.b = A, b  # (n, p, p), (n, p)
        self.A_sum, self.b_sum = A.sum(axis=0), b.sum(axis=0)

    def grads(self, Z: np.ndarray) -> np.ndarray:
        return np.einsum("npq,nq->np", self.A, Z) + self.b

    def total(self, z: np.ndarray) -> float:
        return float(0.5 * z @ self.A_sum @ z + self.b_sum @ z)


class _LeastSquaresProblem(GlobalProblem):
    def __init__(self, locals: list, H: np.ndarray, b: np.ndarray, ridge: float) -> None:
        super().__init__(locals)
        self.H, self.b, self.ridge = H, b, ridge  # (n, r, p), (n, r)

    def grads(self, Z: np.ndarray) -> np.ndarray:
        R = np.einsum("nrp,np->nr", self.H, Z) - self.b
        return np.einsum("nrp,nr->np", self.H, R) + self.ridge * Z

    def total(self, z: np.ndarray) -> float:
        r = self.H.reshape(-1, z.shape[0]) @ z - self.b.ravel()
        return float(0.5 * r @ r + 0.5 * self.n * self.ridge * z @ z)


class _LogisticProblem(GlobalProblem):
    def __init__(
        self, locals: list, features: np.ndarray, labels: np.ndarray,
        lam: float, scale: float, bias_ridge: float,
    ) -> None:
        super().__init__(locals)
        self.features, self.labels = features, labels  # (n, m, p), (n, m)
        self.lam, self.scale, self.bias_ridge = lam, scale, bias_ridge

    def grads(self, Z: np.ndarray) -> np.ndarray:
        W, beta = Z[:, :-1], Z[:, -1]
        margins = self.labels * (
            np.einsum("nmp,np->nm", self.features, W) + beta[:, None]
        )
        coeff = -self.labels * _sigmoid(-margins)
        G = np.empty(Z.shape)
        G[:, :-1] = self.scale * np.einsum("nmp,nm->np", self.features, coeff) + self.lam * W
        G[:, -1] = self.scale * coeff.sum(axis=1) + self.bias_ridge * beta
        return G

    def total(self, z: np.ndarray) -> float:
        w, beta = z[:-1], z[-1]
        margins = self.labels.ravel() * (self.features.reshape(-1, w.shape[0]) @ w + beta)
        loss = self.scale * float(np.sum(_log1pexp(-margins)))
        ridge = 0.5 * self.lam * float(w @ w) + 0.5 * self.bias_ridge * float(beta**2)
        return loss + self.n * ridge


class _SvmProblem(GlobalProblem):
    def __init__(
        self, locals: list, features: np.ndarray, labels: np.ndarray,
        margin_weight: float, smoothness: float,
    ) -> None:
        super().__init__(locals)
        self.features, self.labels = features, labels  # (n, m, p), (n, m)
        self.margin_weight, self.smoothness = margin_weight, smoothness

    def grads(self, Z: np.ndarray) -> np.ndarray:
        omega, nu = Z[:, :-1], Z[:, -1]
        slack = 1.0 - self.labels * (
            np.einsum("nmp,np->nm", self.features, omega) - nu[:, None]
        )
        coeff = self.margin_weight * _sigmoid(self.smoothness * slack) * self.labels
        G = np.empty(Z.shape)
        G[:, :-1] = 2.0 * omega - np.einsum("nmp,nm->np", self.features, coeff)
        G[:, -1] = coeff.sum(axis=1)
        return G

    def total(self, z: np.ndarray) -> float:
        omega, nu = z[:-1], z[-1]
        slack = 1.0 - self.labels.ravel() * (
            self.features.reshape(-1, omega.shape[0]) @ omega - nu
        )
        mu = self.smoothness
        hinge = float(np.sum(_log1pexp(mu * slack))) / mu
        return self.n * float(omega @ omega) + self.margin_weight * hinge


def nesterov_minimize(
    grad_fn,
    x0: np.ndarray,
    lipschitz: float,
    tol: float = 1e-10,
    max_iters: int = 1_000_000,
) -> np.ndarray:
    """Accelerated gradient descent with step 1/l and restarts, run until
    the gradient norm drops below tol."""
    x = x0.copy()
    y = x0.copy()
    t = 1.0
    step = 1.0 / lipschitz
    for _ in range(max_iters):
        g = grad_fn(y)
        x_new = y - step * g
        if float(np.linalg.norm(grad_fn(x_new))) < tol:
            return x_new
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        momentum = (t - 1.0) / t_new
        y_new = x_new + momentum * (x_new - x)
        if float(g @ (x_new - x)) > 0.0:  # gradient restart
            t_new = 1.0
            y_new = x_new
        x, y, t = x_new, y_new, t_new
    raise OracleError(f"centralized oracle missed tol={tol} in {max_iters} iterations")


def _random_spd(p: int, rng: np.random.Generator, lo: float = 1.0, hi: float = 10.0):
    """Random orthogonal conjugation of a diagonal with eigenvalues in [lo, hi]."""
    eigs = rng.uniform(lo, hi, size=p)
    Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    return (Q * eigs) @ Q.T, float(eigs.min()), float(eigs.max())


def make_quadratic(n: int, p: int, seed: int) -> GlobalProblem:
    """n random strongly convex quadratics; the optimum solves the summed
    linear system exactly."""
    if n < 1 or p < 1:
        raise ValueError("need n >= 1 and p >= 1")
    rng = np.random.default_rng(seed)
    A = np.empty((n, p, p))
    b = np.empty((n, p))
    models = []
    for i in range(n):
        A[i], s_i, l_i = _random_spd(p, rng)
        b[i] = rng.standard_normal(p)
        models.append(QuadraticCost(A=A[i], b=b[i], s=s_i, l=l_i))
    problem = _QuadraticProblem(models, A=A, b=b)
    return problem._with_optimum(np.linalg.solve(problem.A_sum, -problem.b_sum))


def make_least_squares(
    n: int, p: int, rows_per_agent: int, seed: int, ridge: float = 0.0
) -> GlobalProblem:
    """n local least-squares blocks H_i z = b_i (optionally ridge-regularized
    per agent); the optimum solves the normal equations of the stacked system."""
    if n * rows_per_agent < p:
        raise ValueError("stacked system must be overdetermined: n*rows >= p")
    rng = np.random.default_rng(seed)
    z_true = rng.standard_normal(p)
    H = np.empty((n, rows_per_agent, p))
    b = np.empty((n, rows_per_agent))
    models = []
    gram = ridge * n * np.eye(p)
    rhs = np.zeros(p)
    for i in range(n):
        H[i] = rng.standard_normal((rows_per_agent, p))
        b[i] = H[i] @ z_true + 0.1 * rng.standard_normal(rows_per_agent)
        eigs = np.linalg.eigvalsh(H[i].T @ H[i] + ridge * np.eye(p))
        models.append(
            LeastSquaresCost(H=H[i], b=b[i], ridge=ridge, s=float(eigs[0]), l=float(eigs[-1]))
        )
        gram += H[i].T @ H[i]
        rhs += H[i].T @ b[i]
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] < 1e-10 * max(1.0, eigs[-1]):
        raise ValueError("stacked system is rank deficient and ridge is 0")
    problem = _LeastSquaresProblem(models, H=H, b=b, ridge=ridge)
    return problem._with_optimum(np.linalg.solve(gram, rhs))


def _two_cluster_data(
    n: int, p: int, samples_per_agent: int, seed: int, separation: float = 2.0
) -> tuple[np.ndarray, np.ndarray]:
    """Balanced two-cluster Gaussian features (n, m, p) with +-1 labels (n, m):
    on every agent the first m // 2 samples are positive."""
    rng = np.random.default_rng(seed)
    center = separation * np.ones(p) / np.sqrt(p)
    m_pos = samples_per_agent // 2
    labels = np.ones((n, samples_per_agent))
    labels[:, m_pos:] = -1.0
    features = labels[:, :, None] * center + rng.standard_normal((n, samples_per_agent, p))
    return features, labels


def make_logistic(
    n: int,
    p: int,
    samples_per_agent: int,
    lam: float,
    seed: int,
    mean_scaled: bool = True,
    bias_ridge: float = 0.0,
    separation: float = 2.0,
) -> GlobalProblem:
    """Distributed binary logistic regression on synthetic two-cluster data.

    State is (w; b), p+1 dimensional.  lam > 0 regularizes w only; the data
    always mixes labels, which keeps the bias direction coercive.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if samples_per_agent < 2:
        raise ValueError("need at least 2 samples per agent to mix labels")
    F, Y = _two_cluster_data(n, p, samples_per_agent, seed, separation)
    models = [
        LogisticCost(
            features=F[i], labels=Y[i], lam=lam, mean_scaled=mean_scaled,
            bias_ridge=bias_ridge,
        )
        for i in range(n)
    ]
    scale = 1.0 / samples_per_agent if mean_scaled else 1.0
    problem = _LogisticProblem(
        models, features=F, labels=Y, lam=lam, scale=scale, bias_ridge=bias_ridge
    )
    L = float(sum(m.l for m in models))
    z_star = nesterov_minimize(problem.total_grad, np.zeros(p + 1), lipschitz=L, tol=1e-10)
    return problem._with_optimum(z_star)


def make_smooth_svm(
    n: int,
    p: int,
    samples_per_agent: int,
    margin_weight: float,
    smoothness: float,
    seed: int,
    separation: float = 2.0,
) -> GlobalProblem:
    """Distributed smoothed-hinge SVM on synthetic two-cluster data.

    State is (omega; nu), p+1 dimensional, with the ridge acting on omega.
    margin_weight = 0 degenerates to the pure ridge; by convention the free
    offset is pinned at 0 there and the optimum is exactly the origin.
    """
    if margin_weight < 0 or smoothness <= 0:
        raise ValueError("need margin_weight >= 0 and smoothness > 0")
    F, Y = _two_cluster_data(n, p, samples_per_agent, seed, separation)
    models = [
        SmoothSvmCost(
            features=F[i], labels=Y[i], margin_weight=margin_weight, smoothness=smoothness
        )
        for i in range(n)
    ]
    problem = _SvmProblem(
        models, features=F, labels=Y, margin_weight=margin_weight, smoothness=smoothness
    )
    if margin_weight == 0.0:
        return problem._with_optimum(np.zeros(p + 1))
    L = float(sum(m.l for m in models))
    z_star = nesterov_minimize(problem.total_grad, np.zeros(p + 1), lipschitz=L, tol=1e-10)
    return problem._with_optimum(z_star)
