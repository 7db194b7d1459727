"""Spectral diagnostics for the delayed-mixing machinery.

This module certifies the quantities the convergence argument runs on (the
relation rho(aug(A)) <= rho(A)^(1/(1+tau_max)) is checked by
`invariants.spectral_bound_excess`):

* the rank-one limit pi 1^T of the augmented matrix.  Its Perron vector pi
  comes from the shift register: the live block is the Perron vector of C
  (one n x n linear solve) and each in-flight block is a tail sum of the
  delay slices applied to it, so no N x N system is solved;
* the contraction factor sigma = rho(Cbar - Cbar_inf), the asymptotic
  per-step rate at which delayed mixing forgets disagreement.  Deflating
  the Perron pair replaces the eigenvalue 1 by 0 and keeps the rest of the
  spectrum, so one eigendecomposition of Cbar gives both rho(Cbar) and
  sigma, and no N x N limit is formed.  The induced
  2-norm of the same difference is also reported but is >= 1 for every
  delayed instance: a zero-sum pair of in-flight buffer coordinates moves
  through the shift register isometrically, so no single-step norm
  contraction below 1 exists and the spectral radius is the quantity the
  certification actually runs on;
* the admissible step-size interval derived from a 3x3 comparison matrix
  G(alpha): alpha < min(alpha3, 1/(n(tau_max+1)l)) forces rho(G(alpha)) < 1.
  `step_size_bound` reads one `Certificate`, which `certify` builds from an
  augmentation with one N x N eigendecomposition, the pilot run and n x n
  work on C; `build_spectral_report` adds the diagnostics only `spectral`
  prints.

Trajectory-dependent constants (the sup-norms of the weight diagonal and its
inverse, and the geometric envelope of its convergence) are measured from a
pilot run of the weight recursion rather than bounded a priori; each of its
rounds applies Cbar through its first block column and a shift, in O(N n)
work rather than N^2.  Every augmentation comes from
`delays.build_augmented_matrix`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .delays import AugmentedMatrix, DelayMap, build_augmented_matrix
from .graphs import WeightMatrix

# rounds of the weight-recursion pilot run behind the mixing constants
PILOT_HORIZON = 500


def spectral_radius(M: np.ndarray) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("spectral radius needs a square matrix")
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def _check_column_stochastic(A: np.ndarray) -> None:
    if np.max(np.abs(A.sum(axis=0) - 1.0)) > 1e-12:
        raise ValueError("Perron vector needs a column-stochastic matrix")


def perron_vector(M: AugmentedMatrix | np.ndarray) -> np.ndarray:
    """Right Perron vector pi of a column-stochastic matrix: M pi = pi,
    1^T pi = 1.

    For an `ndarray`, one linear solve of (M - I) with its last row set to
    ones against e_N.  For an `AugmentedMatrix`, the shift-register fixed
    point: the live block is v_0 = perron_vector(C), with C the sum of the
    slices C_0..C_T in the first block column, and in-flight block r is the
    tail sum (C_r + ... + C_T) v_0; the whole is scaled to sum 1.  That is
    one n x n solve and O(N n) work, with no N x N system.

    Needs a single recurrent class, which every strongly connected weight
    design and its delay augmentation have; entries on dead slots are 0.
    Raises ValueError when the columns (of C, for an augmentation) do not
    sum to 1 within 1e-12, and numpy's LinAlgError (a ValueError) when the
    system is singular.
    """
    if isinstance(M, AugmentedMatrix):
        n = M.n
        column = M.entries[:, :n]  # C_0; ...; C_T stacked
        v0 = perron_vector(column.reshape(-1, n, n).sum(axis=0))
        v = np.cumsum((column @ v0).reshape(-1, n)[::-1], axis=0)[::-1]
        v[0] = v0
        return v.ravel() / v.sum()
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("Perron vector needs a square matrix")
    _check_column_stochastic(A)
    K = A - np.eye(len(A))
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


def _radius_and_sigma(M: np.ndarray) -> tuple[float, float]:
    """rho(M) and rho(M - pi 1^T) of a column-stochastic M from one
    eigendecomposition.  1^T is a left eigenvector for the eigenvalue 1 and
    1^T pi = 1, so subtracting pi 1^T moves that eigenvalue to 0 and keeps
    the others (Brauer): sigma is the largest modulus once the eigenvalue
    nearest 1 is dropped, and 0 when nothing is left (N = 1)."""
    w = np.linalg.eigvals(M)
    moduli = np.abs(w)
    rest = np.delete(moduli, np.argmin(np.abs(w - 1.0)))
    return float(np.max(moduli)), float(np.max(rest, initial=0.0))


def _projector_norm(pi: np.ndarray) -> float:
    """||I - pi 1^T||_2 for 1^T pi = 1.  I - pi 1^T is a projector, neither 0
    nor I once N > 1, so it has the norm of pi 1^T, sqrt(N) ||pi||_2; at
    N = 1 it is 0."""
    return float(np.sqrt(pi.size) * np.linalg.norm(pi)) if pi.size > 1 else 0.0


def contraction_sigma(aug: AugmentedMatrix | np.ndarray) -> float:
    """Contraction factor rho(M - limit(M)): the asymptotic per-step rate at
    which mixing forgets disagreement (the second-largest eigenvalue modulus
    for a stochastic M).  Strictly below 1 for every strongly connected
    weight design; tends to 1 as the delay bound grows, and is 1 for a
    periodic chain.  Raises ValueError unless the columns sum to 1.
    """
    M = aug.entries if isinstance(aug, AugmentedMatrix) else np.asarray(aug, dtype=float)
    _check_column_stochastic(M)
    return _radius_and_sigma(M)[1]


@dataclass(frozen=True)
class MixingConstants:
    """Trajectory constants of the weight recursion y <- Cbar y, under the
    certificate's names.

    y / y_minus bound the diagonal weight matrix and its inverse in 2-norm
    (the inverse is only ever taken on the live block, whose entries stay
    positive).  gamma1/envelope_T fit ||Y_k - Y_inf||_2 <= T gamma1^k.
    """

    y: float
    y_minus: float
    gamma1: float
    envelope_T: float


def measure_mixing_constants(aug: AugmentedMatrix) -> MixingConstants:
    """Run the weight recursion from (1_n; 0; ...; 0) for PILOT_HORIZON
    rounds and record sup norms plus a least-squares geometric fit of the
    decay toward the limit.

    Each round applies the augmentation without its N x N product: block r
    of Cbar v is C_r v_0 + v_{r+1} (v_{T+1} = 0), one N x n product with the
    slice column and a shifted add."""
    n = aug.n
    column = aug.entries[:, :n]  # C_0; ...; C_T stacked
    y_inf = float(n) * perron_vector(aug)
    y = 0.0
    y_minus = 0.0
    gaps: list[float] = []
    v = np.zeros(aug.dim)
    v[:n] = 1.0
    for _ in range(PILOT_HORIZON + 1):
        y = max(y, float(np.max(np.abs(v))))
        live_min = float(np.min(v[:n]))
        if live_min <= 0:
            raise RuntimeError("live weight hit zero during the pilot run")
        y_minus = max(y_minus, 1.0 / live_min)
        gaps.append(float(np.max(np.abs(v - y_inf))))
        w = column @ v[:n]
        w[:-n] += v[n:]
        v = w
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
    return MixingConstants(y, y_minus, gamma1, envelope_T)


@dataclass(frozen=True)
class Certificate:
    """What the comparison matrix G(alpha) and its driver H_k read of one
    augmentation: sigma, kappa = ||C - I||_2, epsilon = ||I - C_inf||_2 and
    the pilot run's y = sup ||Y_k|| and y_minus = sup ||Y_k^-1||, plus the
    pilot's fit ||Y_k - Y_inf||_2 <= envelope_T gamma1^k and rho(Cbar) from
    the same eigendecomposition as sigma."""

    n: int
    tau_max: int
    rho_Cbar: float
    sigma: float
    kappa: float
    epsilon: float
    y: float
    y_minus: float
    gamma1: float
    envelope_T: float


def certify(aug: AugmentedMatrix) -> Certificate:
    """The certificate of an augmentation: one N x N eigendecomposition, the
    pilot run, and n x n work on C, the sum of its slices.  Raises
    ValueError unless C's columns sum to 1."""
    n = aug.n
    C = aug.entries[:, :n].reshape(-1, n, n).sum(axis=0)
    epsilon = _projector_norm(perron_vector(C))  # checks C's column sums first
    rho_Cbar, sigma = _radius_and_sigma(aug.entries)
    return Certificate(
        n=n,
        tau_max=aug.dim // n - 1,
        rho_Cbar=rho_Cbar,
        sigma=sigma,
        kappa=float(np.linalg.norm(C - np.eye(n), 2)),
        epsilon=epsilon,
        **asdict(measure_mixing_constants(aug)),
    )


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


def step_size_bound(cert: Certificate, l: float, s: float) -> StepSizeBound:
    """Solve the unit-root equation of the comparison matrix for the largest
    certified step size, given the cost's smoothness l and strong convexity
    s (gamma1, envelope_T and rho_Cbar are not read).

    delta = n(tau_max+1) s eps l y_minus (1 - sigma + kappa)
    theta = eps l^2 y y_minus^2 (l + n(tau_max+1) s)
    alpha3 = (sqrt(delta^2 + 4 n(tau_max+1) s (1-sigma)^2 theta) - delta) / (2 theta)

    and the returned maximum is min(alpha3, 1/(n(tau_max+1)l)).  Raises
    ValueError when alpha3 is not a finite positive float (e.g. the constants
    overflow).
    """
    sigma, kappa, epsilon, y, y_minus = cert.sigma, cert.kappa, cert.epsilon, cert.y, cert.y_minus
    if min(kappa, epsilon, l, s, y, y_minus) <= 0:
        raise ValueError("all constants must be positive")
    if not (0.0 <= sigma < 1.0):
        raise ValueError(
            f"sigma={sigma:.6g} outside [0, 1): delays too large for a certified rate"
        )
    m = cert.n * (cert.tau_max + 1)
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
class SpectralReport:
    """Flat bundle of the spectral diagnostics for one (C, delays) instance:
    its certificate's fields, in print order among the others, and the
    certificate itself."""

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
    certificate: Certificate = field(repr=False)

    def lines(self) -> list[str]:
        pairs = self.as_pairs()
        width = max(len(k) for k, _ in pairs)
        return [f"{k:<{width}}  {v}" for k, v in pairs]

    def record(self) -> str:
        return " ".join(f"{k}={v}" for k, v in self.as_pairs())

    def as_pairs(self) -> list[tuple[str, str]]:
        return [(f.name, repr(getattr(self, f.name))) for f in fields(self) if f.repr]


def build_spectral_report(C: WeightMatrix | np.ndarray, d: DelayMap) -> SpectralReport:
    """The certificate of C under a delay map, with the diagnostics around
    it: rho(C) and its power bound, sigma1 of C alone, and the 2-norms."""
    aug = build_augmented_matrix(C, d)
    C = C.entries if isinstance(C, WeightMatrix) else np.asarray(C, dtype=float)
    cert = certify(aug)  # checks C's column sums first
    pi = perron_vector(aug)
    rho_C = spectral_radius(C)
    C_inf = limit_matrix(C)
    # aug is not read again, so its two N x N norms are taken in its own
    # entries: aug - I, then (diagonal restored) aug - pi 1^T
    M = aug.entries
    diagonal = np.diag_indices(M.shape[0])
    live = M[diagonal]
    M[diagonal] -= 1.0
    kappa_aug = float(np.linalg.norm(M, 2))
    M[diagonal] = live
    M -= pi[:, None]
    sigma_norm2 = float(np.linalg.norm(M, 2))
    return SpectralReport(
        **asdict(cert),
        rho_C=rho_C,
        bound=rho_C ** (1.0 / (1.0 + d.tau_max)),
        sigma1=contraction_sigma(C),
        sigma_norm2=sigma_norm2,
        sigma1_norm2=float(np.linalg.norm(C - C_inf, 2)),
        kappa_aug=kappa_aug,
        epsilon_aug=_projector_norm(pi),
        certificate=cert,
    )
