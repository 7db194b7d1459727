"""Spectral diagnostics for the delayed-mixing machinery.

This module certifies the quantities the convergence argument runs on:

* the spectral-radius relation between a matrix and its delay augmentation,
  rho(aug(A)) <= rho(A)^(1/(1+tau_max)) for substochastic A (equality at 1
  for column-stochastic A);
* the rank-one limit pi 1^T of the augmented matrix, with its Perron vector
  pi obtained by one linear solve (no power iteration);
* the contraction factor sigma = rho(Cbar - Cbar_inf), the asymptotic
  per-step rate at which delayed mixing forgets disagreement.  The induced
  2-norm of the same difference is also reported but is >= 1 for every
  delayed instance: a zero-sum pair of in-flight buffer coordinates moves
  through the shift register isometrically, so no single-step norm
  contraction below 1 exists and the spectral radius is the quantity the
  certification actually runs on;
* the admissible step-size interval derived from a 3x3 comparison matrix
  G(alpha): alpha < min(alpha3, 1/(n(tau_max+1)l)) forces rho(G(alpha)) < 1.

Trajectory-dependent constants (the sup-norms of the weight diagonal and its
inverse, and the geometric envelope of its convergence) are measured from a
pilot run of the weight recursion rather than bounded a priori.  Every
augmentation comes from `delays.build_augmented_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .delays import AugmentedMatrix, DelayMap, build_augmented_matrix

# rounds of the weight-recursion pilot run behind the mixing constants
PILOT_HORIZON = 500


def spectral_radius(M: np.ndarray) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("spectral radius needs a square matrix")
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def _minus_identity(M: np.ndarray) -> np.ndarray:
    """M - I without allocating I (the spectral report runs at N in the
    hundreds, where every N x N temporary shows in its peak memory)."""
    K = M.copy()
    K[np.diag_indices(K.shape[0])] -= 1.0
    return K


def perron_vector(M: AugmentedMatrix | np.ndarray) -> np.ndarray:
    """Right Perron vector pi of a column-stochastic matrix: M pi = pi,
    1^T pi = 1, by one linear solve of (M - I) with its last row set to ones
    against e_N.

    Needs a single recurrent class, which every strongly connected weight
    design and its delay augmentation have; entries on dead slots are 0.
    Raises ValueError when the columns do not sum to 1 within 1e-12, and
    numpy's LinAlgError (a ValueError) when the system is singular.
    """
    A = M.entries if isinstance(M, AugmentedMatrix) else np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("Perron vector needs a square matrix")
    if np.max(np.abs(A.sum(axis=0) - 1.0)) > 1e-12:
        raise ValueError("Perron vector needs a column-stochastic matrix")
    K = _minus_identity(A)
    K[-1] = 1.0
    e = np.zeros(K.shape[0])
    e[-1] = 1.0
    return np.linalg.solve(K, e)


def limit_matrix(M: AugmentedMatrix | np.ndarray) -> np.ndarray:
    """Rank-one limit pi 1^T of a column-stochastic matrix: lim_k M^k when M
    is aperiodic (positive diagonals on the live block give that here).  For
    a periodic chain the powers have no limit, and the contraction factor
    against this matrix is 1."""
    pi = perron_vector(M)
    return np.outer(pi, np.ones(pi.size))


def contraction_sigma(aug: AugmentedMatrix | np.ndarray) -> float:
    """Contraction factor rho(M - limit(M)): the asymptotic per-step rate at
    which mixing forgets disagreement (the second-largest eigenvalue modulus
    for a stochastic M).  Strictly below 1 for every strongly connected
    weight design; tends to 1 as the delay bound grows.
    """
    M = aug.entries if isinstance(aug, AugmentedMatrix) else np.asarray(aug, dtype=float)
    return spectral_radius(M - limit_matrix(aug))


def verify_spectral_bound(C: np.ndarray, d: DelayMap) -> bool:
    """Check the delayed-vs-undelayed spectral radius relation numerically.

    Substochastic case (rho(C) < 1): rho(Cbar) <= rho(C)^(1/(1+tau_max)),
    with tau_max = d.tau_max.  Stochastic case (rho(C) = 1): rho(Cbar) = 1.
    Tolerance 1e-9 throughout.
    """
    C = np.asarray(C, dtype=float)
    aug = build_augmented_matrix(C, d)
    r = spectral_radius(C)
    r_aug = spectral_radius(aug.entries)
    if abs(r - 1.0) <= 1e-9:
        return abs(r_aug - 1.0) <= 1e-9
    return r_aug <= r ** (1.0 / (1.0 + d.tau_max)) + 1e-9


@dataclass(frozen=True)
class MixingConstants:
    """Trajectory constants of the weight recursion y <- Cbar y.

    y_sup / y_inv_sup bound the diagonal weight matrix and its inverse in
    2-norm (the inverse is only ever taken on the live block, whose entries
    stay positive).  gamma1/envelope_T fit ||Y_k - Y_inf||_2 <= T gamma1^k.
    """

    y_sup: float
    y_inv_sup: float
    gamma1: float
    envelope_T: float


def measure_mixing_constants(aug: AugmentedMatrix) -> MixingConstants:
    """Run the weight recursion from (1_n; 0; ...; 0) for PILOT_HORIZON
    rounds and record sup norms plus a least-squares geometric fit of the
    decay toward the limit."""
    n = aug.n
    N = aug.dim
    y = np.zeros(N)
    y[:n] = 1.0
    y_inf = float(n) * perron_vector(aug)
    y_sup = 0.0
    y_inv_sup = 0.0
    gaps: list[float] = []
    v = y
    for _ in range(PILOT_HORIZON + 1):
        y_sup = max(y_sup, float(np.max(np.abs(v))))
        live_min = float(np.min(v[:n]))
        if live_min <= 0:
            raise RuntimeError("live weight hit zero during the pilot run")
        y_inv_sup = max(y_inv_sup, 1.0 / live_min)
        gaps.append(float(np.max(np.abs(v - y_inf))))
        v = aug.entries @ v
    ks = [k for k, gap in enumerate(gaps) if gap > 1e-13]
    if len(ks) >= 2:
        xs = np.array(ks, dtype=float)
        ys = np.log([gaps[k] for k in ks])
        slope, intercept = np.polyfit(xs, ys, 1)
        gamma1 = float(np.exp(slope))
        # lift the fit so it envelopes every observed gap
        envelope_T = float(np.exp(intercept + max(0.0, np.max(ys - (slope * xs + intercept)))))
    else:
        # already at the limit: no decay to fit
        gamma1 = 0.0
        envelope_T = gaps[0] if gaps else 0.0
    return MixingConstants(
        y_sup=y_sup, y_inv_sup=y_inv_sup, gamma1=gamma1, envelope_T=envelope_T
    )


@dataclass(frozen=True)
class SpectralConstants:
    """Everything the comparison-matrix machinery consumes."""

    n: int
    tau_max: int
    sigma: float
    kappa: float
    epsilon: float
    l: float
    s: float
    y: float
    y_minus: float
    gamma1: float
    envelope_T: float


@dataclass(frozen=True)
class StepSizeBound:
    """Admissible step-size interval (0, admissible_max) certified by the
    comparison matrix: rho(G(alpha)) < 1 on it."""

    alpha3: float
    cap: float
    admissible_max: float
    delta: float
    theta: float

    def certifies(self, alpha: float) -> bool:
        return 0.0 < alpha < self.admissible_max


def step_size_bound(
    n: int,
    tau_max: int,
    sigma: float,
    kappa: float,
    epsilon: float,
    l: float,
    s: float,
    y: float,
    y_minus: float,
) -> StepSizeBound:
    """Solve the unit-root equation of the comparison matrix for the largest
    certified step size.

    delta = n(tau_max+1) s eps l y_minus (1 - sigma + kappa)
    theta = eps l^2 y y_minus^2 (l + n(tau_max+1) s)
    alpha3 = (sqrt(delta^2 + 4 n(tau_max+1) s (1-sigma)^2 theta) - delta) / (2 theta)

    and the returned maximum is min(alpha3, 1/(n(tau_max+1)l)).  Raises
    ValueError when alpha3 is not a finite positive float (e.g. the constants
    overflow).
    """
    if min(kappa, epsilon, l, s, y, y_minus) <= 0:
        raise ValueError("all constants must be positive")
    if not (0.0 <= sigma < 1.0):
        raise ValueError(
            f"sigma={sigma:.6g} outside [0, 1): delays too large for a certified rate"
        )
    m = n * (tau_max + 1)
    try:
        delta = m * s * epsilon * l * y_minus * (1.0 - sigma + kappa)
        theta = epsilon * l**2 * y * y_minus**2 * (l + m * s)
        alpha3 = (np.sqrt(delta**2 + 4.0 * m * s * (1.0 - sigma) ** 2 * theta) - delta) / (
            2.0 * theta
        )
    except OverflowError:
        raise ValueError(f"step-size constants overflow (y_minus={y_minus:.6g})") from None
    if not (np.isfinite(alpha3) and alpha3 > 0.0):
        raise ValueError(f"alpha3={float(alpha3)!r} is not a finite positive step size")
    cap = 1.0 / (m * l)
    return StepSizeBound(
        alpha3=float(alpha3),
        cap=cap,
        admissible_max=float(min(alpha3, cap)),
        delta=float(delta),
        theta=float(theta),
    )


@dataclass(frozen=True)
class ContractionMatrices:
    """The 3x3 comparison pair (G, H_k) driving the error-triple recursion
    t_k <= G t_{k-1} + H_{k-1} s_{k-1}."""

    G: np.ndarray
    H_k: np.ndarray


def build_G_H(alpha: float, k: int, constants: SpectralConstants) -> ContractionMatrices:
    """Comparison matrices at step size alpha and round k.

    eta = 1 - alpha n(tau_max+1) s (the binding branch of
    max{1 - alpha n(tau_max+1) l, 1 - alpha n(tau_max+1) s} since s <= l).
    H_k decays like gamma1^(k-1) and only touches the ||x_hat|| column.
    """
    cn = constants
    m = cn.n * (cn.tau_max + 1)
    eta = 1.0 - alpha * m * cn.s
    eps, l, y, ym = cn.epsilon, cn.l, cn.y, cn.y_minus
    G = np.array(
        [
            [cn.sigma, 0.0, alpha],
            [alpha * l * ym, eta, 0.0],
            [
                eps * l * ym * (cn.kappa + alpha * l * y * ym),
                alpha * eps * l**2 * y * ym,
                cn.sigma + alpha * eps * l * ym,
            ],
        ]
    )
    envelope = cn.envelope_T * cn.gamma1 ** (k - 1) if k >= 1 else cn.envelope_T
    H = np.array(
        [
            [0.0, 0.0, 0.0],
            [alpha * l * ym * envelope, 0.0, 0.0],
            [(alpha * l * y + 2.0) * eps * l * ym**2 * envelope, 0.0, 0.0],
        ]
    )
    return ContractionMatrices(G=G, H_k=H)


@dataclass(frozen=True)
class SpectralReport:
    """Flat bundle of the spectral diagnostics for one (C, delays) instance."""

    n: int
    tau_max: int
    rho_C: float
    rho_Cbar: float
    bound: float
    sigma: float
    sigma1: float
    sigma_norm2: float
    sigma1_norm2: float
    kappa: float
    epsilon: float
    kappa_aug: float
    epsilon_aug: float
    y: float
    y_minus: float
    gamma1: float
    envelope_T: float
    perron: np.ndarray = field(repr=False)

    def lines(self) -> list[str]:
        pairs = self.as_pairs()
        width = max(len(k) for k, _ in pairs)
        return [f"{k:<{width}}  {v}" for k, v in pairs]

    def record(self) -> str:
        return " ".join(f"{k}={v}" for k, v in self.as_pairs())

    def as_pairs(self) -> list[tuple[str, str]]:
        return [(f.name, repr(getattr(self, f.name))) for f in fields(self) if f.repr]


def build_spectral_report(C: np.ndarray, d: DelayMap) -> SpectralReport:
    """Full diagnostic sweep for a column-stochastic C under a delay map."""
    C = np.asarray(C, dtype=float)
    n = C.shape[0]
    aug = build_augmented_matrix(C, d)
    rho_C = spectral_radius(C)
    rho_Cbar = spectral_radius(aug.entries)
    bound = rho_C ** (1.0 / (1.0 + d.tau_max))
    P = limit_matrix(aug)
    pi = P[:, 0].copy()
    C_inf = limit_matrix(C)
    sigma = spectral_radius(aug.entries - P)
    sigma1 = spectral_radius(C - C_inf)
    sigma_norm2 = float(np.linalg.norm(aug.entries - P, 2))
    sigma1_norm2 = float(np.linalg.norm(C - C_inf, 2))
    kappa = float(np.linalg.norm(_minus_identity(C), 2))
    # ||I - X|| = ||X - I||
    epsilon = float(np.linalg.norm(_minus_identity(C_inf), 2))
    kappa_aug = float(np.linalg.norm(_minus_identity(aug.entries), 2))
    epsilon_aug = float(np.linalg.norm(_minus_identity(P), 2))
    mix = measure_mixing_constants(aug)
    return SpectralReport(
        n=n,
        tau_max=d.tau_max,
        rho_C=rho_C,
        rho_Cbar=rho_Cbar,
        bound=bound,
        sigma=sigma,
        sigma1=sigma1,
        sigma_norm2=sigma_norm2,
        sigma1_norm2=sigma1_norm2,
        kappa=kappa,
        epsilon=epsilon,
        kappa_aug=kappa_aug,
        epsilon_aug=epsilon_aug,
        y=mix.y_sup,
        y_minus=mix.y_inv_sup,
        gamma1=mix.gamma1,
        envelope_T=mix.envelope_T,
        perron=pi,
    )
