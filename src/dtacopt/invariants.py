"""The invariant catalogue: one function per invariant of the convergence
argument, each returning its worst residual on one instance, and the fixed
instances `dtacopt selftest` checks them on (the `*_suite` functions, which
`SUITES` names in print order).  The tests call the same functions over
generated instances; of the commands, only `selftest` loads this module."""

from __future__ import annotations

import numpy as np

from . import costs, delays, graphs, optimizer, spectral
from .optimizer import AddOptEngine, AugmentedEngine, DtacEngine, StaticSetting, init_states


def column_sums(g: graphs.DirectedGraph) -> float:
    """Largest |column sum - 1| of the push-sum weights on g; inf when a
    diagonal weight is not positive or a link of g carries no weight."""
    C = graphs.build_column_stochastic_weights(g).entries
    if np.any(np.diag(C) <= 0) or not np.all(C[g.dst, g.src]):
        return np.inf
    return float(np.max(np.abs(C.sum(axis=0) - 1.0)))


def gradient_error(problem: costs.GlobalProblem, z: np.ndarray) -> float:
    """Relative error of `total_grad(z)` against central differences of `total`."""
    g = problem.total_grad(z)
    step = 1e-6 * (1.0 + np.linalg.norm(z))
    fd = np.array([problem.total(z + e) - problem.total(z - e) for e in np.eye(len(z)) * step])
    return float(np.linalg.norm(fd / (2 * step) - g) / (1.0 + np.linalg.norm(g)))


def batched_grads_error(problem: costs.GlobalProblem, Z: np.ndarray) -> float:
    """Largest deviation of the batched `grads(Z)` the engines run from the
    per-node products of round 0, relative to 1 + their largest entry."""
    ref = problem.start_grads(Z)
    return float(np.max(np.abs(problem.grads(Z) - ref)) / (1.0 + np.max(np.abs(ref))))


def _lockstep(problem, setting: StaticSetting, rounds, alpha, seed, classes, measure) -> float:
    """Step engines of `classes` in lockstep from init_states(problem, seed):
    the worst `measure(*engines)` over the rounds, NaN if any round's is."""
    C, d = setting.weights, setting.delays
    engines = [cls(problem, init_states(problem, seed), C, d, alpha) for cls in classes]
    worst = []
    for _ in range(rounds):
        for e in engines:
            e.step()
        worst.append(measure(*engines))
    return float(np.max(worst))


def reduction_deviation(
    problem: costs.GlobalProblem, setting: StaticSetting, rounds: int, alpha: float, seed: int
) -> float:
    """Largest deviation of the per-node engine's and the oracle's live blocks
    from the delay-free baseline's on a setting whose delays are all zero:
    0.0 exactly when both equal it bit for bit at every round."""
    classes = (AddOptEngine, DtacEngine, AugmentedEngine)
    return _lockstep(problem, setting, rounds, alpha, seed, classes,
                     lambda base, *delayed: np.abs(np.array([e.W for e in delayed]) - base.W).max())


def lockstep_residuals(
    problem: costs.GlobalProblem, setting: StaticSetting, rounds: int, alpha: float, seed: int
) -> tuple[float, float, float]:
    """The per-node engine and the matrix-form oracle in lockstep: the largest
    deviation of their live blocks [x | y | g], then `conservation` of both
    engines' metric rows."""
    rows = []

    def measure(*pair):
        rows.extend(optimizer._metrics(e, problem) for e in pair)
        return np.abs(pair[0].W - pair[1].W).max()

    classes = (DtacEngine, AugmentedEngine)
    deviation = _lockstep(problem, setting, rounds, alpha, seed, classes, measure)
    return (deviation, *conservation(np.array(rows, optimizer.TRACE_DTYPE)))


def conservation(trace: np.ndarray) -> tuple[float, float]:
    """Worst weight-mass and tracker-mass residuals, in-flight packets
    counted, over a trace's rows (`RunResult.trace`)."""
    return float(np.max(trace["mass_error"])), float(np.max(trace["grad_tracker_sum_error"]))


def spectral_bound_excess(A: np.ndarray, d: delays.DelayMap) -> float:
    """How far rho(aug(A)) passes rho(A)^(1/(1+tau_max)) for a nonnegative A
    with rho(A) < 1, or 1 when rho(A) = 1, less the 1e-9 tolerance: the bound
    holds where this is <= 0."""
    r = spectral.spectral_radius(A)
    r_aug = spectral.spectral_radius(delays.build_augmented_matrix(A, d).entries)
    if abs(r - 1.0) <= 1e-9:
        return abs(r_aug - 1.0) - 1e-9
    return r_aug - r ** (1.0 / (1.0 + d.tau_max)) - 1e-9


def _check(residual: float, tol: float, what: str) -> None:
    if not residual <= tol:
        raise AssertionError(f"{what}: residual {residual:.2e} > {tol:g}")


def weights_suite() -> None:
    for seed in (7, 8):
        g = graphs.generate_erdos_renyi(8, 0.4, seed)
        _check(column_sums(g), 1e-12, "weight matrix columns drifted from 1")


def gradients_suite() -> None:
    rng = np.random.default_rng(0)
    for prob in (costs.make_quadratic(3, 4, 0), costs.make_least_squares(3, 3, 5, 1),
                 costs.make_logistic(3, 3, 12, 0.1, 2),
                 costs.make_smooth_svm(3, 3, 12, 1.0, 5.0, 3)):
        for z in rng.standard_normal((5, prob.dim)):
            _check(gradient_error(prob, z), 1e-5, "gradient check failed")
        Z = rng.standard_normal((prob.n, prob.dim))
        _check(batched_grads_error(prob, Z), 1e-12, "batched grads disagree with round 0's")


def reduction_suite() -> None:
    setting = StaticSetting.draw(graphs.generate_erdos_renyi(6, 0.5, 11), 0, "zero", 0)
    deviation = reduction_deviation(costs.make_quadratic(6, 3, 5), setting, 200, 0.01, 1)
    _check(deviation, 0.0, "zero-delay engine is not bitwise equal to the baseline")


def equivalence_suite() -> None:
    for n, tau, seed in ((4, 2, 12), (6, 3, 13)):
        g = graphs.generate_erdos_renyi(n, 0.6, seed)
        setting = StaticSetting.draw(g, tau, "uniform-random", seed)
        deviation = lockstep_residuals(costs.make_quadratic(n, 3, seed), setting, 150, 0.004, 7)[0]
        _check(deviation, 1e-10, "per-node and matrix-form engines disagree")


def conservation_suite() -> None:
    setting = StaticSetting.draw(graphs.generate_erdos_renyi(8, 0.5, 21), 4, "uniform-random", 22)
    run = optimizer.run(optimizer.RunConfig(0.004, 300, 0.0, 1, "per-node", 2), setting,
                        costs.make_quadratic(8, 3, 23))
    mass, tracker = conservation(run.trace)
    _check(mass, 1e-10, "weight mass drifted")
    _check(tracker, 1e-9, "tracker mass drifted from gradient mass")


def spectral_bound_suite() -> None:
    rng = np.random.default_rng(31)
    for _ in range(20):
        M = rng.random((6, 6)) * (rng.random((6, 6)) < 0.6)
        np.fill_diagonal(M, rng.random(6))
        rho = spectral.spectral_radius(M)
        if rho == 0:
            continue
        M *= 0.9 / rho
        edges = sorted((j, i) for i, j in zip(*np.nonzero(M)) if i != j)
        d = delays.DelayMap.from_dict({e: int(rng.integers(0, 3)) for e in edges}, tau_max=2)
        _check(spectral_bound_excess(M, d), 0.0, "spectral-radius bound violated")


# `dtacopt selftest`'s suites: each line's name, in print order
SUITES = {
    "column-stochasticity": weights_suite,
    "gradient-check": gradients_suite,
    "reduction": reduction_suite,
    "oracle-equivalence": equivalence_suite,
    "conservation": conservation_suite,
    "spectral-bound": spectral_bound_suite,
}
