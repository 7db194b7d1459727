"""Local objective functions with exact gradients and centralized optima.

Every factory returns a GlobalProblem subclass that holds its family's data
stacked over the n nodes:

    quadratic       A (n, p, p), b (n, p)
    least squares   H (n, r, p), b (n, r), ridge
    logistic        features (n, m, p), labels (n, m), lam, scale, bias_ridge
    smoothed SVM    features (n, m, p), labels (n, m), margin_weight, smoothness

and nothing per node besides.  It computes all n gradients (`grads(Z)`, one
einsum pass) and the network objective (`total(z)`, one pass over the
flattened data) without a loop over nodes; these are the paths the engines,
the metrics and the oracle run.  The round-0 trackers come from
`start_grads(Z)`, the same gradient expression over stacked np.matmul
products: in the protocol agent i seeds its tracker with grad f_i(x_i(0)) as
it computes it itself, and matmul reproduces that per-node arithmetic bit
for bit where einsum's order differs in the last bits.

The problem also carries the uniform strong-convexity / gradient-Lipschitz
constants and the minimizer of F = sum_i f_i, computed by an independent
centralized oracle: a linear solve where the problem is quadratic, otherwise
accelerated gradient descent on `total_grad` to gradient norm 1e-10.
"""

from __future__ import annotations

import numpy as np


class OracleError(RuntimeError):
    """The centralized reference solver failed to reach its tolerance."""


def _sigmoid(t: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-t)) without overflow: exp is only taken of -|t|."""
    e = np.exp(-np.abs(t))
    d = 1.0 + e
    return np.where(t >= 0, 1.0 / d, e / d)


def _log1pexp(t: np.ndarray) -> np.ndarray:
    """log(1 + exp(t)) without overflow."""
    out = np.where(t > 33.0, t, np.log1p(np.exp(np.minimum(t, 33.0))))
    return out


def _matvec(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Row i is M[i] @ V[i], as one matrix-vector product per node."""
    return np.matmul(M, V[..., None])[..., 0]


def _matvec_t(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Row i is M[i].T @ V[i], as one matrix-vector product per node."""
    return _matvec(M.transpose(0, 2, 1), V)


def _einsum(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Row i is M[i] @ V[i], as one einsum pass over all nodes."""
    return np.einsum("nmp,np->nm", M, V)


def _einsum_t(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Row i is M[i].T @ V[i], as one einsum pass over all nodes."""
    return np.einsum("nmp,nm->np", M, V)


def _gram_top(F: np.ndarray, offset: float) -> np.ndarray:
    """Per node, the largest eigenvalue of the Gram of [F[i] | offset * 1]."""
    tilde = np.concatenate([F, np.full((*F.shape[:2], 1), offset)], axis=2)
    return np.linalg.eigvalsh(np.matmul(tilde.transpose(0, 2, 1), tilde))[:, -1]


class GlobalProblem:
    """F = sum_i f_i over n nodes, with its centralized optimum.

    A subclass holds one family's data stacked over the nodes and nothing
    per node besides: its `_grads(Z, mul, mul_t)` writes the family's
    gradient once, over two routes to the per-node products M[i] @ v and
    M[i].T @ v.  `grads` takes the einsum route, the fast one the engines
    and the oracle run.  `start_grads` takes np.matmul, one matrix-vector
    product per node in agent i's own order of operations, for the round-0
    trackers grad f_i(x_i(0)); einsum sums in another order, so the two
    agree to rounding, not bitwise.  s and l are the uniform (worst-node)
    constants, the min and max of the per-node arrays the factory computes;
    z_star and f_star are set once the centralized oracle has run.
    """

    z_star: np.ndarray
    f_star: float

    def __init__(self, dim: int, s: np.ndarray, l: np.ndarray) -> None:
        self.n, self.dim = len(s), dim
        self.s, self.l = float(s.min()), float(l.max())

    def total(self, z: np.ndarray) -> float:
        """F(z) = sum_i f_i(z)."""
        raise NotImplementedError

    def _grads(self, Z: np.ndarray, mul, mul_t) -> np.ndarray:
        raise NotImplementedError

    def grads(self, Z: np.ndarray) -> np.ndarray:
        """Per-node gradients at per-node states: row i is grad f_i(Z[i])."""
        return self._grads(Z, _einsum, _einsum_t)

    def start_grads(self, Z: np.ndarray) -> np.ndarray:
        """grads(Z) with each row computed as agent i computes its own."""
        return self._grads(Z, _matvec, _matvec_t)

    def total_grad(self, z: np.ndarray) -> np.ndarray:
        return self.grads(np.broadcast_to(z, (self.n, z.shape[0]))).sum(axis=0)

    def gap(self, z: np.ndarray) -> float:
        return self.total(z) - self.f_star

    def _with_optimum(self, z_star: np.ndarray) -> "GlobalProblem":
        self.z_star = z_star
        self.f_star = self.total(z_star)
        return self


class _QuadraticProblem(GlobalProblem):
    """f_i(z) = 0.5 z'A_i z + b_i'z with A_i symmetric positive definite."""

    def __init__(self, A: np.ndarray, b: np.ndarray, s: np.ndarray, l: np.ndarray) -> None:
        super().__init__(b.shape[1], s, l)
        self.A, self.b = A, b  # (n, p, p), (n, p)
        self.A_sum, self.b_sum = A.sum(axis=0), b.sum(axis=0)

    def _grads(self, Z: np.ndarray, mul, mul_t) -> np.ndarray:
        return mul(self.A, Z) + self.b

    def total(self, z: np.ndarray) -> float:
        return float(0.5 * z @ self.A_sum @ z + self.b_sum @ z)


class _LeastSquaresProblem(GlobalProblem):
    """f_i(z) = 0.5 ||H_i z - b_i||^2 + 0.5 ridge ||z||^2."""

    def __init__(
        self, H: np.ndarray, b: np.ndarray, ridge: float, s: np.ndarray, l: np.ndarray
    ) -> None:
        super().__init__(H.shape[2], s, l)
        self.H, self.b, self.ridge = H, b, ridge  # (n, r, p), (n, r)

    def _grads(self, Z: np.ndarray, mul, mul_t) -> np.ndarray:
        return mul_t(self.H, mul(self.H, Z) - self.b) + self.ridge * Z

    def total(self, z: np.ndarray) -> float:
        r = self.H.reshape(-1, z.shape[0]) @ z - self.b.ravel()
        return float(0.5 * r @ r + 0.5 * self.n * self.ridge * z @ z)


class _LogisticProblem(GlobalProblem):
    """Binary logistic loss over (w, b) with an l2 ridge on w only:

    f_i(w, b) = scale * sum_j log(1 + exp(-(w'c_ij + b) y_ij)) + 0.5 lam ||w||^2
    plus 0.5 * bias_ridge * b^2, which restores joint strong convexity
    where needed.
    """

    def __init__(
        self, features: np.ndarray, labels: np.ndarray, lam: float, scale: float,
        bias_ridge: float, s: np.ndarray, l: np.ndarray,
    ) -> None:
        super().__init__(features.shape[2] + 1, s, l)
        self.features, self.labels = features, labels  # (n, m, p), (n, m)
        self.lam, self.scale, self.bias_ridge = lam, scale, bias_ridge

    def _grads(self, Z: np.ndarray, mul, mul_t) -> np.ndarray:
        W, beta = Z[:, :-1], Z[:, -1]
        margins = self.labels * (mul(self.features, W) + beta[:, None])
        coeff = -self.labels * _sigmoid(-margins)  # d loss / d margin-arg
        G = np.empty(Z.shape)
        G[:, :-1] = self.scale * mul_t(self.features, coeff) + self.lam * W
        G[:, -1] = self.scale * coeff.sum(axis=1) + self.bias_ridge * beta
        return G

    def total(self, z: np.ndarray) -> float:
        w, beta = z[:-1], z[-1]
        margins = self.labels.ravel() * (self.features.reshape(-1, w.shape[0]) @ w + beta)
        loss = self.scale * float(np.sum(_log1pexp(-margins)))
        ridge = 0.5 * self.lam * float(w @ w) + 0.5 * self.bias_ridge * float(beta**2)
        return loss + self.n * ridge


class _SvmProblem(GlobalProblem):
    """Smoothed hinge SVM over (omega, nu):

    f_i = omega'omega + margin_weight * sum_j (1/mu) log(1 + exp(mu * x_ij)),
    x_ij = 1 - l_ij (omega'chi_ij - nu).
    """

    def __init__(
        self, features: np.ndarray, labels: np.ndarray, margin_weight: float,
        smoothness: float, s: np.ndarray, l: np.ndarray,
    ) -> None:
        super().__init__(features.shape[2] + 1, s, l)
        self.features, self.labels = features, labels  # (n, m, p), (n, m)
        self.margin_weight, self.smoothness = margin_weight, smoothness

    def _grads(self, Z: np.ndarray, mul, mul_t) -> np.ndarray:
        omega, nu = Z[:, :-1], Z[:, -1]
        slack = 1.0 - self.labels * (mul(self.features, omega) - nu[:, None])
        coeff = self.margin_weight * _sigmoid(self.smoothness * slack) * self.labels
        G = np.empty(Z.shape)
        G[:, :-1] = 2.0 * omega - mul_t(self.features, coeff)
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
    the gradient norm drops below tol.  Raises OracleError when it misses
    tol in max_iters rounds or the gradient norm is not finite."""
    x = x0.copy()
    y = x0.copy()
    t = 1.0
    step = 1.0 / lipschitz
    for _ in range(max_iters):
        g = grad_fn(y)
        x_new = y - step * g
        g_norm = float(np.linalg.norm(grad_fn(x_new)))
        if g_norm < tol:
            return x_new
        if not np.isfinite(g_norm):
            raise OracleError(f"centralized oracle hit a gradient norm of {g_norm!r}")
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        momentum = (t - 1.0) / t_new
        y_new = x_new + momentum * (x_new - x)
        if float(g @ (x_new - x)) > 0.0:  # gradient restart
            t_new = 1.0
            y_new = x_new
        x, y, t = x_new, y_new, t_new
    raise OracleError(f"centralized oracle missed tol={tol} in {max_iters} iterations")


def make_quadratic(n: int, p: int, seed: int) -> GlobalProblem:
    """n random strongly convex quadratics; the optimum solves the summed
    linear system exactly.

    A_i is a random orthogonal conjugation Q_i diag(eigs_i) Q_i' with
    eigenvalues drawn uniformly in [1, 10].  Node by node the stream gives
    eigs_i, the Gaussian whose QR factor is Q_i, then b_i; the factorizations
    and products then run once over the stacked draws."""
    if n < 1 or p < 1:
        raise ValueError("need n >= 1 and p >= 1")
    rng = np.random.default_rng(seed)
    eigs = np.empty((n, p))
    G = np.empty((n, p, p))
    b = np.empty((n, p))
    for i in range(n):
        eigs[i] = rng.uniform(1.0, 10.0, size=p)
        G[i] = rng.standard_normal((p, p))
        b[i] = rng.standard_normal(p)
    Q, _ = np.linalg.qr(G)
    A = np.matmul(Q * eigs[:, None, :], Q.transpose(0, 2, 1))
    problem = _QuadraticProblem(A, b, eigs.min(1), eigs.max(1))
    return problem._with_optimum(np.linalg.solve(problem.A_sum, -problem.b_sum))


def make_least_squares(
    n: int, p: int, rows_per_agent: int, seed: int, ridge: float = 0.0
) -> GlobalProblem:
    """n local least-squares blocks H_i z = b_i (optionally ridge-regularized
    per agent); the optimum solves the normal equations of the stacked system."""
    if not 0 <= ridge < np.inf:
        raise ValueError("ridge must be >= 0 and finite")
    if n * rows_per_agent < p:
        raise ValueError("stacked system must be overdetermined: n*rows >= p")
    rng = np.random.default_rng(seed)
    z_true = rng.standard_normal(p)
    H = np.empty((n, rows_per_agent, p))
    noise = np.empty((n, rows_per_agent))
    for i in range(n):
        H[i] = rng.standard_normal((rows_per_agent, p))
        noise[i] = rng.standard_normal(rows_per_agent)
    b = np.matmul(H, z_true) + 0.1 * noise
    grams = np.matmul(H.transpose(0, 2, 1), H)
    # summed node by node, in order, as the per-node normal equations add up
    gram = sum(grams, ridge * n * np.eye(p))
    rhs = sum(_matvec_t(H, b), np.zeros(p))
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] < 1e-10 * max(1.0, eigs[-1]):
        raise ValueError("stacked system is rank deficient and ridge is 0")
    local = np.linalg.eigvalsh(grams + ridge * np.eye(p))
    problem = _LeastSquaresProblem(H, b, ridge, local[:, 0], local[:, -1])
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
    always mixes labels, which keeps the bias direction coercive.  The
    problem's s is lam, though b has no ridge: an f_i need not be s-strongly
    convex (README, "The `s` the certificate reads").
    """
    if not 0 < lam < np.inf:
        raise ValueError("lam must be positive and finite")
    if samples_per_agent < 2:
        raise ValueError("need at least 2 samples per agent to mix labels")
    F, Y = _two_cluster_data(n, p, samples_per_agent, seed, separation)
    scale = 1.0 / samples_per_agent if mean_scaled else 1.0
    l = lam + 0.25 * scale * _gram_top(F, 1.0)
    problem = _LogisticProblem(F, Y, lam, scale, bias_ridge, np.full(n, lam), l)
    L = float(sum(l))  # in node order, not np.sum's pairwise order
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
    offset is pinned at 0 there and the optimum is exactly the origin.  The
    problem's s is 2, the ridge's on omega alone: nu has none, so an f_i
    need not be s-strongly convex (README, "The `s` the certificate reads").
    """
    if not (0 <= margin_weight < np.inf and 0 < smoothness < np.inf):
        raise ValueError("need finite margin_weight >= 0 and smoothness > 0")
    if samples_per_agent < 2:
        raise ValueError("need at least 2 samples per agent to mix labels")
    F, Y = _two_cluster_data(n, p, samples_per_agent, seed, separation)
    l = 2.0 + margin_weight * smoothness / 4.0 * _gram_top(F, -1.0)
    problem = _SvmProblem(F, Y, margin_weight, smoothness, np.full(n, 2.0), l)
    if margin_weight == 0.0:
        return problem._with_optimum(np.zeros(p + 1))
    L = float(sum(l))  # in node order, not np.sum's pairwise order
    z_star = nesterov_minimize(problem.total_grad, np.zeros(p + 1), lipschitz=L, tol=1e-10)
    return problem._with_optimum(z_star)
