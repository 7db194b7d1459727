import io
from contextlib import redirect_stdout
from dataclasses import fields
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contraction import build_G_H
from dtacopt import costs
from dtacopt.cli import main
from dtacopt.delays import DelayMap, assign_delays, build_augmented_matrix, build_delay_slices
from dtacopt.graphs import (
    DirectedGraph,
    build_column_stochastic_weights,
    generate_erdos_renyi,
    generate_exponential_graph,
)
from dtacopt.invariants import spectral_bound_excess
from dtacopt.optimizer import StaticSetting
from dtacopt.spectral import (
    PILOT_HORIZON,
    Certificate,
    build_spectral_report,
    certify,
    contraction_sigma,
    limit_matrix,
    measure_mixing_constants,
    perron_vector,
    spectral_radius,
    step_size_bound,
)


def cycle(n: int) -> DirectedGraph:
    return DirectedGraph.from_edges((i, (i + 1) % n) for i in range(n))


def random_delay_map(pattern_edges, tau_max, rng) -> DelayMap:
    return DelayMap.from_dict(
        {e: int(rng.integers(0, tau_max + 1)) for e in sorted(pattern_edges)}, tau_max
    )


def random_nonneg(n, rng, density=0.7):
    M = rng.random((n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(M, rng.random(n))
    return M


def test_spectral_radius_known_values():
    assert spectral_radius(np.eye(3)) == pytest.approx(1.0, abs=1e-12)
    assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(0.0, abs=1e-12)
    assert spectral_radius(np.full((2, 2), 0.5)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        spectral_radius(np.ones((2, 3)))


def _power_limit(M: np.ndarray) -> np.ndarray:
    """Test oracle: the power limit lim_k M^k by iterating P <- P @ M."""
    P = M.copy()
    for _ in range(200_000):
        Q = P @ M
        if np.max(np.abs(Q - P)) < 1e-15:
            return Q
        P = Q
    raise AssertionError("power limit did not settle")


def _shift_register_perron(C, d) -> np.ndarray:
    """Test oracle: v_0 = Perron vector of C (by eig), v_r = sum_{s>=r} C_s v_0
    for the in-flight slots, normalised to sum 1."""
    S = build_delay_slices(C, d).slices
    w, V = np.linalg.eig(S.sum(axis=0))
    v0 = np.real(V[:, np.argmin(np.abs(w - 1.0))])
    v = np.concatenate([S[r:].sum(axis=0) @ v0 for r in range(d.tau_max + 1)])
    return v / v.sum()


def test_limit_matrix_rank_one_two_node():
    C = np.full((2, 2), 0.5)
    P = limit_matrix(C)
    assert np.allclose(P, 0.5, atol=1e-12)
    with pytest.raises(ValueError, match="column-stochastic"):
        limit_matrix(0.5 * np.eye(3))


def test_periodic_chain_gets_no_certificate():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])  # period-2, powers never settle
    sigma = contraction_sigma(swap)  # the eigenvalue -1 survives the projection
    assert sigma == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="outside"):
        step_size_bound(*_cn(2, 0, 1.0, 1.0, 1.0, 5.0, 1.0, 1.0, 1.0))
    # the computed sigma (the modulus of the eigenvalue -1) certifies nothing either
    with pytest.raises(ValueError, match="outside"):
        step_size_bound(*_cn(2, 0, sigma, 1.0, 1.0, 5.0, 1.0, 1.0, 1.0))


def test_limit_matrix_fixed_point_residuals():
    rng = np.random.default_rng(2)
    for seed in range(5):
        n = int(rng.integers(3, 9))
        tau = int(rng.integers(0, 4))
        g = generate_erdos_renyi(n, 0.6, seed=seed)
        C = build_column_stochastic_weights(g)
        d = assign_delays(g, tau, "uniform-random", seed=seed)
        aug = build_augmented_matrix(C, d)
        P = limit_matrix(aug)
        assert np.max(np.abs(aug.entries @ P - P)) < 2e-13
        assert np.max(np.abs(P @ P - P)) < 2e-13


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 8),
    tau_max=st.integers(0, 4),
    mode=st.sampled_from(["uniform-random", "homogeneous-max", "zero"]),
    p=st.floats(0.3, 1.0),
    seed=st.integers(0, 2**16),
)
def test_perron_vector_matches_power_and_shift_register_oracles(n, tau_max, mode, p, seed):
    g = generate_erdos_renyi(n, p, seed=seed)
    C = build_column_stochastic_weights(g)
    d = assign_delays(g, tau_max, mode, seed=seed)
    aug = build_augmented_matrix(C, d)
    pi = perron_vector(aug)
    assert np.max(np.abs(pi - _power_limit(aug.entries).mean(axis=1))) < 1e-12
    assert np.max(np.abs(pi - _shift_register_perron(C, d))) < 1e-12


class DensePilot(NamedTuple):
    """The dense oracle's pilot constants, in a record of its own."""

    y_sup: float
    y_inv_sup: float
    gamma1: float
    envelope_T: float


def _dense_pilot(aug) -> tuple[DensePilot, np.ndarray]:
    """Test oracle: the pilot run of `measure_mixing_constants` with dense
    N x N products and the dense Perron vector, fitted the same way; also
    returns the gaps to the limit it fitted."""
    n = aug.n
    y_inf = n * perron_vector(aug.entries)
    v = np.zeros(aug.dim)
    v[:n] = 1.0
    sups, inv_sups, gaps = [], [], []
    for _ in range(PILOT_HORIZON + 1):
        sups.append(np.max(np.abs(v)))
        inv_sups.append(1.0 / np.min(v[:n]))
        gaps.append(np.max(np.abs(v - y_inf)))
        v = aug.entries @ v
    gaps = np.array(gaps)
    xs = np.flatnonzero(gaps > 1e-13).astype(float)
    if len(xs) < 2:
        gamma1, envelope_T = 0.0, gaps[0]
    else:
        ys = np.log(gaps[gaps > 1e-13])
        slope, intercept = np.polyfit(xs, ys, 1)
        gamma1 = np.exp(slope)
        envelope_T = np.exp(intercept + max(0.0, np.max(ys - (slope * xs + intercept))))
    return DensePilot(max(sups), max(inv_sups), gamma1, envelope_T), gaps


def dense_sigma(M: np.ndarray, pi: np.ndarray) -> float:
    """rho(M - pi 1^T) by one dense `eigvals`, or 0 when the deflation D is
    nilpotent.  `eigvals` places a zero eigenvalue in a Jordan block of size
    k only to within about eps^(1/k): it reads 3e-10 on the complete graph
    with empty delay slices.  rho(D) <= ||D^N||_2^(1/N), and a bound at or
    below 1e-8, far under the smallest nonzero sigma this family draws
    (0.018 over 3000 instances), is read as D^N = 0."""
    D = M - np.outer(pi, 1)
    if np.linalg.norm(np.linalg.matrix_power(D, len(D)), 2) ** (1 / len(D)) <= 1e-8:
        return 0.0
    return spectral_radius(D)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@example(n=3, tau_max=0, mode="dead-slots", p=1.0, seed=0)  # nilpotent deflation
@given(
    n=st.integers(1, 8),
    tau_max=st.integers(0, 4),
    mode=st.sampled_from(["uniform-random", "homogeneous-max", "zero", "dead-slots"]),
    p=st.floats(0.3, 1.0),
    seed=st.integers(0, 2**16),
)
def test_structured_spectral_paths_match_dense_oracles(n, tau_max, mode, p, seed):
    """The shift-register Perron vector, the deflated one-eigvals sigma and
    the matrix-free pilot run against their dense N x N counterparts.  The
    "dead-slots" maps are drawn as "uniform-random" and given a bound two
    above it, as a delay file's `# tau_max=` line may, so the last slices
    are empty.

    The fitted gamma1/envelope_T get 1e-2: the fit runs down to gaps of
    1e-13, where the two products' last-bit differences are up to 1e-3 of a
    gap, and a fit over a few dozen rounds carries that into its slope (up
    to 1.4e-3 relative over 3000 random instances of this family).  Where
    the run starts at its limit the "gap" is rounding alone, hence the
    absolute 1e-15.  The envelope itself must bound the dense gaps."""
    if n == 1:  # the weight design needs two nodes; one node keeps all its mass
        g, C = DirectedGraph.from_edges([]), np.ones((1, 1))
    else:
        g = generate_erdos_renyi(n, p, seed=seed)
        C = build_column_stochastic_weights(g).entries
    if mode == "dead-slots":
        d = assign_delays(g, tau_max, "uniform-random", seed=seed)
        d = DelayMap(d.src, d.dst, d.delay, tau_max + 2)
    else:
        d = assign_delays(g, tau_max, mode, seed=seed)
    aug = build_augmented_matrix(C, d)
    report = build_spectral_report(C, d)
    pi = perron_vector(aug.entries)
    assert np.max(np.abs(perron_vector(aug) - pi)) < 1e-12
    sigma = dense_sigma(aug.entries, pi)
    assert abs(contraction_sigma(aug) - sigma) < 1e-10 and abs(report.sigma - sigma) < 1e-10
    # ||I - pi 1^T||, including N = 1 where the projector is 0
    for eps, v in ((report.epsilon_aug, pi), (report.epsilon, perron_vector(C))):
        dense_eps = np.linalg.norm(np.eye(v.size) - np.outer(v, 1), 2)
        assert eps == pytest.approx(dense_eps, rel=1e-12, abs=1e-15)
    dense, gaps = _dense_pilot(aug)
    assert report.y == pytest.approx(dense.y_sup, rel=1e-12)
    assert report.y_minus == pytest.approx(dense.y_inv_sup, rel=1e-12)
    assert report.gamma1 == pytest.approx(dense.gamma1, rel=1e-2, abs=1e-15)
    assert report.envelope_T == pytest.approx(dense.envelope_T, rel=1e-2, abs=1e-15)
    envelope = report.envelope_T * report.gamma1 ** np.arange(len(gaps))
    assert np.all(gaps <= envelope + 1e-12)


def test_perron_vector_nonnegative_with_dead_slots_zero():
    g = cycle(3)
    C = build_column_stochastic_weights(g)
    d = DelayMap.from_dict({(0, 1): 0, (1, 2): 2, (2, 0): 1}, tau_max=2)
    aug = build_augmented_matrix(C, d)
    pi = perron_vector(aug)
    assert np.all(pi >= -1e-15)
    assert abs(pi.sum() - 1.0) < 1e-10
    assert pi[3 + 1] < 1e-12 and pi[6 + 1] < 1e-12  # node 1 buffer slots
    assert np.all(pi[:3] > 0)


def test_contraction_sigma_rank_one_is_zero():
    C = np.full((2, 2), 0.5)
    assert contraction_sigma(C) == pytest.approx(0.0, abs=1e-10)


def test_contraction_sigma_three_cycle_in_unit_interval():
    C = build_column_stochastic_weights(cycle(3))
    sigma = contraction_sigma(C.entries)
    assert 0.0 < sigma < 1.0


def test_contraction_sigma_monotone_probe_against_power_bound():
    """sigma grows toward 1 with the delay bound and stays under
    sigma1^(1/(1+tau_max)) for uniformly drawn delay maps."""
    rng = np.random.default_rng(11)
    instances = [
        generate_erdos_renyi(10, 0.5, seed=7),
        generate_erdos_renyi(10, 0.5, seed=9),
        generate_exponential_graph(16),
    ]
    for g in instances:
        C = build_column_stochastic_weights(g)
        sigma1 = contraction_sigma(C.entries)
        for tau in (0, 1, 2, 5):
            d = assign_delays(g, tau, "uniform-random", seed=101)
            aug = build_augmented_matrix(C.entries, d)
            sigma = contraction_sigma(aug)
            assert sigma <= sigma1 ** (1.0 / (1.0 + tau)) + 1e-9
            assert sigma < 1.0


def test_spectral_bound_substochastic_and_stochastic():
    rng = np.random.default_rng(23)
    for trial in range(30):
        n = int(rng.integers(3, 8))
        M = random_nonneg(n, rng)
        rho = spectral_radius(M)
        if rho == 0:
            continue
        M = M * (rng.choice([0.5, 0.9, 0.99]) / rho)
        tau = int(rng.choice([1, 2, 5]))
        edges = {(j, i) for i, j in zip(*np.nonzero(M)) if i != j}
        d = random_delay_map(edges, tau, rng)
        assert spectral_bound_excess(M, d) <= 0.0
    for trial in range(10):
        n = int(rng.integers(3, 8))
        M = random_nonneg(n, rng) + 1e-3
        M = M / M.sum(axis=0)
        tau = int(rng.choice([1, 2, 5]))
        edges = {(j, i) for i, j in zip(*np.nonzero(M)) if i != j}
        d = random_delay_map(edges, tau, rng)
        assert abs(spectral_radius(M) - 1.0) <= 1e-9  # so the bound is rho(aug(M)) = 1
        assert spectral_bound_excess(M, d) <= 0.0


def test_mixing_constants_pilot_run():
    g = generate_erdos_renyi(8, 0.5, seed=3)
    C = build_column_stochastic_weights(g)
    d = assign_delays(g, 3, "uniform-random", seed=3)
    aug = build_augmented_matrix(C, d)
    mix = measure_mixing_constants(aug)
    assert mix.y >= 1.0
    assert mix.y_minus >= 1.0
    assert 0.0 < mix.gamma1 < 1.0
    assert mix.envelope_T > 0.0
    # the fitted envelope really bounds the decay it was fitted on
    pi = perron_vector(aug)
    y = np.zeros(aug.dim)
    y[:8] = 1.0
    y_inf = 8.0 * pi
    for k in range(PILOT_HORIZON + 1):
        gap = np.max(np.abs(y - y_inf))
        assert gap <= mix.envelope_T * mix.gamma1**k + 1e-12
        y = aug.entries @ y


def _report_and_problem(n=6, tau=2, gseed=50, dseed=60, cseed=70):
    g = generate_erdos_renyi(n, 0.6, seed=gseed)
    C = build_column_stochastic_weights(g)
    d = assign_delays(g, tau, "uniform-random", seed=dseed)
    prob = costs.make_quadratic(n, 3, cseed)
    report = build_spectral_report(C.entries, d)
    return report, prob


def _cn(n, tau_max, sigma, kappa, epsilon, l, s, y, y_minus):
    """`step_size_bound`'s arguments from the nine numbers it reads; the
    certificate's rho_Cbar and pilot fit (gamma1, envelope_T), which it
    does not read, are 1, 0 and 0."""
    return Certificate(n, tau_max, 1.0, sigma, kappa, epsilon, y, y_minus, 0.0, 0.0), l, s


def test_report_carries_its_certificate():
    g = generate_erdos_renyi(6, 0.6, seed=50)  # _report_and_problem's instance
    C = build_column_stochastic_weights(g).entries
    d = assign_delays(g, 2, "uniform-random", seed=60)
    report = build_spectral_report(C, d)
    assert report.certificate == certify(build_augmented_matrix(C, d))
    for f in fields(Certificate):
        assert getattr(report, f.name) == getattr(report.certificate, f.name), f.name
    names = [name for name, _ in report.as_pairs()]
    assert "certificate" not in names and {f.name for f in fields(Certificate)} <= set(names)


def test_step_size_bound_tiny_theta_limit():
    # alpha3 -> m s (1-sigma)^2 / delta as theta -> 0; oracle is the series
    # expansion of the root, alpha3 = L (1 - a theta / (4 delta^2)) + O(theta^2)
    n, tau, sigma = 4, 1, 0.5
    kappa, eps, l, s, y, ym = 1.4, 1.1, 8.0, 1.0, 2.0, 3.0
    b = step_size_bound(*_cn(n, tau, sigma, kappa, eps, l, s, y, ym))
    m = n * (tau + 1)
    a = 4 * m * s * (1 - sigma) ** 2
    delta = b.delta
    # the implementation's alpha3 equals the closed form at its own theta
    closed_form = (np.sqrt(delta**2 + a * b.theta) - delta) / (2 * b.theta)
    assert b.alpha3 == pytest.approx(closed_form, rel=1e-12)
    limit = m * s * (1 - sigma) ** 2 / delta
    for u in (1e-2, 1e-4):  # theta scaled so the root stays float-accurate
        theta = u * delta**2 / a
        alpha3 = (np.sqrt(delta**2 + a * theta) - delta) / (2 * theta)
        series = limit * (1 - a * theta / (4 * delta**2))
        assert alpha3 == pytest.approx(series, rel=u * u / 4 + 1e-9)
        assert alpha3 == pytest.approx(limit, rel=2 * u)


def test_step_size_bound_vanishes_as_sigma_approaches_one():
    prev = None
    for sigma in (0.9, 0.99, 0.999, 0.9999):
        b = step_size_bound(*_cn(5, 2, sigma, 1.5, 1.2, 9.0, 1.0, 2.0, 4.0))
        if prev is not None:
            assert b.alpha3 < prev
        prev = b.alpha3
    assert prev < 1e-6


def test_step_size_bound_rejects_large_sigma_and_accepts_zero():
    with pytest.raises(ValueError):
        step_size_bound(*_cn(5, 2, 1.0, 1.5, 1.2, 9.0, 1.0, 2.0, 4.0))
    b = step_size_bound(*_cn(2, 0, 0.0, 1.0, 1.0, 5.0, 1.0, 1.0, 1.0))
    assert b.admissible_max > 0


def test_step_size_bound_that_overflows_is_a_value_error():
    # y_minus near 1e160 squares past the float range inside delta**2
    with pytest.raises(ValueError, match="overflow"):
        step_size_bound(*_cn(5, 2, 0.5, 1.5, 1.2, 9.0, 1.0, 2.0, 1e160))


def test_certified_interval_shrinks_with_delay_bound():
    g = generate_erdos_renyi(8, 0.6, seed=3)
    C = build_column_stochastic_weights(g)
    prob = costs.make_quadratic(8, 3, 4)
    prev = np.inf
    for tau in (0, 1, 3, 6, 10):
        d = assign_delays(g, tau, "uniform-random", seed=5)
        rep = build_spectral_report(C.entries, d)
        b = step_size_bound(rep.certificate, prob.l, prob.s)
        assert b.admissible_max < prev
        prev = b.admissible_max
    assert prev < 1e-4  # large delays certify only tiny steps


def test_comparison_matrix_certified_interval():
    report, prob = _report_and_problem()
    cert, l, s = report.certificate, prob.l, prob.s
    bound = step_size_bound(cert, l, s)
    G0 = build_G_H(0.0, 1, cert, l, s).G
    eigs = np.sort(np.abs(np.linalg.eigvals(G0)))
    assert eigs[-1] == pytest.approx(1.0, abs=1e-12)  # eta = 1 at alpha = 0
    assert np.allclose(np.sort(eigs), np.sort([report.sigma, report.sigma, 1.0]), atol=1e-9)
    for frac in np.linspace(0.05, 0.99, 20):
        G = build_G_H(frac * bound.admissible_max, 1, cert, l, s).G
        assert spectral_radius(G) < 1.0


def test_comparison_matrix_unit_eigenvalue_derivative():
    report, prob = _report_and_problem()
    cert, l, s = report.certificate, prob.l, prob.s
    m = report.n * (report.tau_max + 1)
    h = 1e-9 / (m * prob.s)
    rho0 = spectral_radius(build_G_H(0.0, 1, cert, l, s).G)
    rhoh = spectral_radius(build_G_H(h, 1, cert, l, s).G)
    deriv = (rhoh - rho0) / h
    assert deriv == pytest.approx(-m * prob.s, rel=0.05)


def test_H_decays_geometrically():
    report, prob = _report_and_problem()
    cert = report.certificate
    for k in (1, 2, 5, 11):
        Hk = build_G_H(0.01, k, cert, prob.l, prob.s).H_k
        Hk1 = build_G_H(0.01, k + 1, cert, prob.l, prob.s).H_k
        assert np.allclose(Hk1, cert.gamma1 * Hk, rtol=1e-12)


def test_centralized_contraction_factor():
    """One step of full-gradient descent contracts by
    max(|1 - alpha n l|, |1 - alpha n s|) on the sum objective.

    The logistic family needs the bias-ridge flag at full strength here:
    its stock s constant covers the regularized block only, while this
    bound needs joint strong convexity of the whole state.
    """
    rng = np.random.default_rng(8)
    problems = (
        costs.make_quadratic(4, 3, 1),
        costs.make_least_squares(3, 3, 5, 1),
        costs.make_logistic(3, 2, 20, 0.2, 2, bias_ridge=0.2),
    )
    for prob in problems:
        n, l, s = prob.n, prob.l, prob.s
        for alpha in (0.2 / (n * l), 0.9 / (n * l)):
            eta1 = max(abs(1 - alpha * n * l), abs(1 - alpha * n * s))
            for _ in range(20):
                z = prob.z_star + rng.standard_normal(prob.dim)
                z_plus = z - alpha * prob.total_grad(z)
                lhs = np.linalg.norm(z_plus - prob.z_star)
                rhs = eta1 * np.linalg.norm(z - prob.z_star)
                assert lhs <= rhs * (1 + 1e-9)


def test_spectral_report_field_consistency():
    g = generate_erdos_renyi(6, 0.6, seed=50)  # _report_and_problem's instance
    C = build_column_stochastic_weights(g).entries
    d = assign_delays(g, 2, "uniform-random", seed=60)
    report = build_spectral_report(C, d)
    aug = build_augmented_matrix(C, d).entries
    N = report.n * (report.tau_max + 1)
    assert report.rho_C == pytest.approx(1.0, abs=1e-9)
    assert report.rho_Cbar == pytest.approx(1.0, abs=1e-9)
    assert 0 < report.sigma < 1
    assert report.sigma_norm2 >= report.sigma
    assert report.sigma1_norm2 >= report.sigma1
    assert report.kappa > 0 and report.epsilon > 0
    assert report.kappa_aug >= report.kappa
    # dense oracles: the limits from N x N and n x n solves, norms by SVD
    P = limit_matrix(aug)
    assert report.sigma_norm2 == pytest.approx(np.linalg.norm(aug - P, 2), rel=1e-12)
    assert report.kappa_aug == pytest.approx(np.linalg.norm(aug - np.eye(N), 2), rel=1e-12)
    assert report.epsilon_aug == pytest.approx(np.linalg.norm(np.eye(N) - P, 2), rel=1e-12)
    assert report.epsilon == pytest.approx(
        np.linalg.norm(np.eye(report.n) - limit_matrix(C), 2), rel=1e-12
    )
    rec = report.record()
    assert "sigma=" in rec and "\n" not in rec


def test_report_takes_one_dense_eigendecomposition_and_no_dense_solve(monkeypatch):
    """At N = n(tau_max+1) the report factorises no N x N matrix but for one
    eigvals (and the 2-norms' SVDs, which numpy calls internally): the
    Perron vector comes from an n x n solve, and no N x N limit is formed."""
    g = generate_erdos_renyi(6, 0.6, seed=50)
    C = build_column_stochastic_weights(g).entries
    d = assign_delays(g, 3, "uniform-random", seed=60)
    N = 6 * 4
    shapes = []

    def spy(module, name):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            shapes.append((name, *(np.shape(a) for a in args)))
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    for module, name in ((np.linalg, "eigvals"), (np.linalg, "eig"), (np.linalg, "solve"), (np, "outer")):
        spy(module, name)
    build_spectral_report(C, d)
    dense = [call for call in shapes if any(N in shape for shape in call[1:])]
    assert dense == [("eigvals", (N, N))]


def test_check_bound_takes_one_dense_eigendecomposition_and_nothing_else(monkeypatch, capsys):
    """`check-bound` computes the certificate alone: at N = n(tau_max+1) it
    hands numpy one N x N array, to eigvals, and takes no 2-norm, SVD,
    solve or outer product of one (the report's diagnostics take four)."""
    N = 6 * 4
    shapes = []

    def spy(module, name):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            shapes.append((name, *(np.shape(a) for a in args)))
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    for name in ("eigvals", "eig", "solve", "svd", "norm", "lstsq", "inv"):
        spy(np.linalg, name)
    spy(np, "outer")
    argv = ["--set", "graph.n=6", "--set", "graph.p=0.6", "--set", "cost.dim=3",
            "--set", "delay.tau_max=3", "--set", "run.alpha=1e-5"]
    assert main(["check-bound", *argv]) == 0
    assert capsys.readouterr().out.endswith(" CERTIFIED\n")
    assert [call for call in shapes if any(N in shape for shape in call[1:])] == [
        ("eigvals", (N, N))
    ]
    shapes.clear()
    assert main(["spectral", *argv]) == 0
    dense = [call[0] for call in shapes if (N, N) in call[1:]]
    assert sorted(dense) == ["eigvals", "norm", "norm"]


def _cli_admissible_max(command: str, argv: list[str]) -> tuple[int, str]:
    """A command's exit code and the `admissible_max=` value it printed last
    ('' if none)."""
    with redirect_stdout(io.StringIO()) as out:
        code = main([command, *argv])
    values = [ln.rpartition("admissible_max=")[2].split()[0]
              for ln in out.getvalue().splitlines() if "admissible_max=" in ln]
    return code, values[-1] if values else ""


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 10),
    tau_max=st.integers(0, 4),
    mode=st.sampled_from(["uniform-random", "homogeneous-max", "zero"]),
    p=st.floats(0.3, 1.0),
    seed=st.integers(0, 2**16),
)
def test_certificate_alone_equals_the_reports(n, tau_max, mode, p, seed):
    """`certify` on an augmentation gives the report's fields bit for bit,
    and `check-bound`, which builds only the certificate, prints the
    `admissible_max` of `spectral --record`."""
    setting = StaticSetting.draw(generate_erdos_renyi(n, p, seed=seed), tau_max, mode, seed)
    C, d = setting.weights.entries, setting.delays
    cert = certify(build_augmented_matrix(C, d))
    report = build_spectral_report(C, d)
    for f in fields(Certificate):
        mine, theirs = getattr(cert, f.name), getattr(report, f.name)
        assert np.array(mine).tobytes() == np.array(theirs).tobytes(), f.name
    argv = [a for kv in (f"graph.n={n}", f"graph.p={p!r}", f"graph.seed={seed}",
                         f"delay.tau_max={tau_max}", f"delay.mode={mode}",
                         f"delay.seed={seed}", "cost.dim=2") for a in ("--set", kv)]
    spectral_code, spectral_max = _cli_admissible_max("spectral", [*argv, "--record"])
    check_code, check_max = _cli_admissible_max("check-bound", argv)
    assert (check_code, check_max) == (spectral_code, spectral_max)
    assert spectral_code == 3 or spectral_max
