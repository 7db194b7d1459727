"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Expensive runs are shared through module-scoped fixtures so the
conservation criterion can audit the same traces the reproduction criteria
produced.
"""

import time

import numpy as np
import pytest

from dtacopt import costs, delays, graphs, invariants, spectral
from dtacopt.experiment import compare_engines, execute_run, load_config
from dtacopt.optimizer import DtacEngine, StaticSetting, init_states
from contraction import build_G_H
from per_node_costs import per_node_models


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


def base_config():
    return load_config(None)


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def static_run():
    cfg = base_config()
    t0 = time.perf_counter()
    result = execute_run(cfg)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def switching_run():
    cfg = base_config().with_overrides(**{"switching.enabled": True})
    t0 = time.perf_counter()
    result = execute_run(cfg)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sweep_runs():
    cfg = base_config().with_overrides(
        **{"run.max_iters": 60000, "run.tol": 1e-8}
    )
    t0 = time.perf_counter()
    results = {}
    for tau in (5, 10, 15, 20):
        for alpha in (0.001, 0.005):
            sub = cfg.with_overrides(**{"delay.tau_max": tau, "run.alpha": alpha})
            results[(tau, alpha)] = execute_run(sub)
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def reduction_traces():
    """tau_max=0 per-node runs vs the delay-free baseline, 5 instances."""
    pairs = []
    for seed in range(5):
        cfg = base_config().with_overrides(
            **{
                "graph.n": 6,
                "graph.seed": 30 + seed,
                "cost.dim": 3,
                "cost.seed": 40 + seed,
                "delay.tau_max": 0,
                "run.alpha": 0.004,
                "run.max_iters": 1000,
                "run.tol": 0.0,
            }
        )
        delayed = execute_run(cfg)
        baseline = execute_run(cfg.with_overrides(**{"run.engine": "addopt-nodelay"}))
        pairs.append((delayed, baseline))
    return pairs


@pytest.fixture(scope="module")
def equivalence_runs():
    """Per-node vs matrix-form engines on 10 random instances, 500 rounds: the
    catalogue's (live-state deviation, weight-mass, tracker-mass) residuals."""
    rng = np.random.default_rng(0)
    runs = []
    t0 = time.perf_counter()
    for trial in range(10):
        n = int(rng.integers(2, 9))
        tau = int(rng.integers(0, 4))
        g = graphs.generate_erdos_renyi(n, 0.6, seed=100 + trial)
        setting = StaticSetting.draw(g, tau, "uniform-random", 200 + trial)
        prob = costs.make_quadratic(n, 3, 300 + trial)
        runs.append(invariants.lockstep_residuals(prob, setting, 500, 0.003, 7))
    return runs, time.perf_counter() - t0


# ---------------------------------------------------------------- criteria

def test_criterion_01_static_er_reproduction(static_run):
    result, elapsed = static_run
    ok = (
        result.status == "CONVERGED"
        and result.final_gap < 1e-8
        and result.iters <= 20000
        and elapsed < 10.0
    )
    report(
        1,
        ok,
        f"static ER tau=5 alpha=0.005: {result.status} iters={result.iters} "
        f"gap={result.final_gap:.2e} time={elapsed:.1f}s",
    )


def test_criterion_02_switching_reproduction(switching_run):
    result, elapsed = switching_run
    gaps = result.trace["optimality_gap"].tolist()
    non_monotone = sum(1 for a, b in zip(gaps, gaps[1:]) if b > a)
    ok = (
        result.status == "CONVERGED"
        and result.final_gap < 1e-8
        and non_monotone >= 1
        and elapsed < 20.0
    )
    report(
        2,
        ok,
        f"switching ER: {result.status} iters={result.iters} "
        f"non-monotone-steps={non_monotone} time={elapsed:.1f}s",
    )


def test_criterion_03_delay_step_size_sweep(sweep_runs):
    results, elapsed = sweep_runs
    small_ok = all(results[(t, 0.001)].status == "CONVERGED" for t in (5, 10, 15, 20))
    big_divergence = all(results[(t, 0.005)].status == "DIVERGED" for t in (15, 20))
    mse_flag = all(
        results[(t, 0.005)].final_mse > 1e12
        or not np.isfinite(results[(t, 0.005)].final_mse)
        for t in (15, 20)
    )
    ok = small_ok and big_divergence and mse_flag and elapsed < 120.0
    statuses = {k: v.status for k, v in results.items()}
    report(3, ok, f"sweep statuses={statuses} time={elapsed:.1f}s")


def test_criterion_04_zero_delay_reduction(reduction_traces):
    worst = 0.0
    for delayed, baseline in reduction_traces:
        assert np.array_equal(delayed.trace["iter"], baseline.trace["iter"])
        for name in delayed.trace.dtype.names[1:]:
            worst = max(worst, float(np.max(np.abs(delayed.trace[name] - baseline.trace[name]))))
    ok = worst <= 1e-14
    report(4, ok, f"tau=0 trace deviation across 5 instances: {worst:.2e}")


def test_criterion_05_oracle_equivalence(equivalence_runs):
    runs, elapsed = equivalence_runs
    worst = float(np.max([deviation for deviation, _, _ in runs]))
    ok = worst <= 1e-10 and elapsed < 30.0
    report(
        5,
        ok,
        f"per-node vs matrix-form live-state deviation over 10 instances x 500 "
        f"rounds: {worst:.2e} time={elapsed:.1f}s",
    )


def test_criterion_06_conservation_laws(
    static_run, switching_run, sweep_runs, reduction_traces, equivalence_runs
):
    mass_worst = 0.0
    tracker_worst = 0.0

    def finite_max(column):
        return float(np.max(column, initial=0.0, where=np.isfinite(column)))

    def absorb(trace):
        nonlocal mass_worst, tracker_worst
        mass_worst = max(mass_worst, finite_max(trace["mass_error"]))
        tracker_worst = max(tracker_worst, finite_max(trace["grad_tracker_sum_error"]))

    absorb(static_run[0].trace)
    absorb(switching_run[0].trace)
    for result in sweep_runs[0].values():
        absorb(result.trace)
    for delayed, baseline in reduction_traces:
        absorb(delayed.trace)
        absorb(baseline.trace)
    for _, mass, tracker in equivalence_runs[0]:  # np.max keeps a NaN
        mass_worst = float(np.max([mass_worst, mass]))
        tracker_worst = float(np.max([tracker_worst, tracker]))
    ok = mass_worst < 1e-10 and tracker_worst < 1e-9
    report(
        6,
        ok,
        f"weight-mass error={mass_worst:.2e} (tol 1e-10), "
        f"tracker-mass error={tracker_worst:.2e} (tol 1e-9)",
    )


def test_criterion_07_spectral_radius_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    checked = 0
    ok = True
    while checked < 200:
        n = 6
        M = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
        np.fill_diagonal(M, rng.random(n))
        rho = spectral.spectral_radius(M)
        if rho < 1e-9:
            continue
        target = (0.5, 0.9, 0.99)[checked % 3]
        M *= target / rho
        tau = (1, 2, 5)[checked % 3 if checked % 2 else (checked // 3) % 3]
        edges = {(j, i) for i, j in zip(*np.nonzero(M)) if i != j}
        d = delays.DelayMap.from_dict(
            {e: int(rng.integers(0, tau + 1)) for e in sorted(edges)}, tau
        )
        ok = ok and invariants.spectral_bound_excess(M, d) <= 0.0
        checked += 1
    stochastic_ok = True
    for trial in range(50):
        n = int(rng.integers(3, 9))
        M = rng.random((n, n)) + 1e-3
        M = M / M.sum(axis=0)
        tau = int(rng.choice([1, 2, 5]))
        edges = {(j, i) for i, j in zip(*np.nonzero(M)) if i != j}
        d = delays.DelayMap.from_dict(
            {e: int(rng.integers(0, tau + 1)) for e in sorted(edges)}, tau
        )
        # rho(M) = 1, so the bound is rho(aug(M)) = 1 within 1e-9
        stochastic_ok = (
            stochastic_ok
            and abs(spectral.spectral_radius(M) - 1.0) <= 1e-9
            and invariants.spectral_bound_excess(M, d) <= 0.0
        )
    elapsed = time.perf_counter() - t0
    ok = ok and stochastic_ok and elapsed < 60.0
    report(
        7,
        ok,
        f"200 substochastic + 50 stochastic augmentations verified, "
        f"time={elapsed:.1f}s",
    )


CONTRACTION_SWEEP = [
    ("ER(10,0.5,7)", lambda: graphs.generate_erdos_renyi(10, 0.5, 7)),
    ("ER(10,0.5,8)", lambda: graphs.generate_erdos_renyi(10, 0.5, 8)),
    ("ER(10,0.5,9)", lambda: graphs.generate_erdos_renyi(10, 0.5, 9)),
    ("ER(16,0.3,13)", lambda: graphs.generate_erdos_renyi(16, 0.3, 13)),
    ("expo(16)", lambda: graphs.generate_exponential_graph(16)),
]


def test_criterion_08_contraction_factor():
    worst_margin = -np.inf
    sigma_max = 0.0
    ok = True
    for _, factory in CONTRACTION_SWEEP:
        g = factory()
        C = graphs.build_column_stochastic_weights(g)
        sigma1 = spectral.contraction_sigma(C.entries)
        for tau in (0, 1, 2, 5):
            d = delays.assign_delays(g, tau, "uniform-random", seed=101)
            aug = delays.build_augmented_matrix(C, d)
            sigma = spectral.contraction_sigma(aug)
            bound = sigma1 ** (1.0 / (1.0 + tau))
            worst_margin = max(worst_margin, sigma - bound)
            sigma_max = max(sigma_max, sigma)
            ok = ok and sigma <= bound + 1e-9 and sigma < 1.0
    report(
        8,
        ok,
        f"sigma <= sigma1^(1/(1+tau)) margin={worst_margin:.2e}, "
        f"max sigma={sigma_max:.4f} (< 1)",
    )


def test_criterion_09_step_size_certification():
    rng = np.random.default_rng(5)
    ok = True
    details = []
    for trial in range(10):
        n = int(rng.integers(4, 9))
        tau = int(rng.integers(1, 4))
        g = graphs.generate_erdos_renyi(n, 0.6, seed=50 + trial)
        C = graphs.build_column_stochastic_weights(g)
        d = delays.assign_delays(g, tau, "uniform-random", seed=60 + trial)
        prob = costs.make_quadratic(n, 3, 70 + trial)
        rep = spectral.build_spectral_report(C.entries, d)
        cert, l, s = rep.certificate, prob.l, prob.s
        bound = spectral.step_size_bound(cert, l, s)
        rho0 = spectral.spectral_radius(build_G_H(0.0, 1, cert, l, s).G)
        ok = ok and rho0 >= 1.0 - 1e-12
        for frac in np.linspace(0.05, 0.999, 20):
            G = build_G_H(float(frac) * bound.admissible_max, 1, cert, l, s).G
            ok = ok and spectral.spectral_radius(G) < 1.0
        m = n * (tau + 1)
        h = 1e-9 / (m * prob.s)
        rho_h = spectral.spectral_radius(build_G_H(h, 1, cert, l, s).G)
        deriv = (rho_h - rho0) / h
        rel = abs(deriv + m * prob.s) / (m * prob.s)
        ok = ok and rel < 0.05
        details.append(f"{bound.admissible_max:.1e}")
    report(9, ok, f"10 instances certified; admissible_max values {details}")


def _certified_distributed_error(problem, n, tau, gseed, dseed):
    g = graphs.generate_erdos_renyi(n, 0.6, seed=gseed)
    C = graphs.build_column_stochastic_weights(g)
    d = delays.assign_delays(g, tau, "uniform-random", seed=dseed)
    rep = spectral.build_spectral_report(C.entries, d)
    bound = spectral.step_size_bound(rep.certificate, problem.l, problem.s)
    alpha = 0.99 * bound.admissible_max
    engine = DtacEngine(problem, init_states(problem, 3), C, d, alpha)
    err = np.inf
    for k in range(60000):
        engine.step()
        if k % 100 == 0:
            err = float(np.linalg.norm(engine.Z.mean(axis=0) - problem.z_star))
            if err < 1e-6:
                break
    return err


def test_criterion_10_cost_model_correctness():
    rng = np.random.default_rng(1)
    families = {
        "quadratic": costs.make_quadratic(4, 3, 11),
        "least_squares": costs.make_least_squares(4, 3, 5, 12),
        "logistic": costs.make_logistic(3, 3, 16, 0.2, 14),
        "svm": costs.make_smooth_svm(3, 3, 16, 1.0, 5.0, 16),
    }
    ok = True
    for name, prob in families.items():
        for model in per_node_models(prob):
            for _ in range(20):
                z = rng.standard_normal(prob.dim)
                g = model.grad(z)
                step = 1e-6 * (1.0 + np.linalg.norm(z))
                fd = np.empty_like(g)
                for idx in range(prob.dim):
                    e = np.zeros(prob.dim)
                    e[idx] = step
                    fd[idx] = (model.eval(z + e) - model.eval(z - e)) / (2 * step)
                rel = np.linalg.norm(fd - g) / (1.0 + np.linalg.norm(g))
                ok = ok and rel < 1e-5
        ok = ok and np.linalg.norm(prob.total_grad(prob.z_star)) < 1e-9
    err_q = _certified_distributed_error(families["quadratic"], 4, 1, 50, 60)
    err_ls = _certified_distributed_error(families["least_squares"], 4, 1, 50, 60)
    ok = ok and err_q < 1e-6 and err_ls < 1e-6
    report(
        10,
        ok,
        f"gradient + oracle checks on 4 families; certified distributed error "
        f"quadratic={err_q:.1e} least_squares={err_ls:.1e}",
    )


def test_criterion_11_exponential_graph_logistic_comparison(tmp_path):
    cfg = base_config().with_overrides(
        **{
            "graph.type": "exponential",
            "graph.n": 16,
            "cost.type": "logistic",
            "cost.dim": 5,
            "delay.tau_max": 3,
            "run.alpha": 0.02,
            "run.tol": 1e-9,
            "run.max_iters": 20000,
        }
    )
    t0 = time.perf_counter()
    results = compare_engines(cfg, tmp_path)
    elapsed = time.perf_counter() - t0
    delayed, baseline = results["delayed"], results["baseline"]

    def iters_to(result, level):
        reached = np.flatnonzero(result.trace["optimality_gap"] <= level)
        return int(result.trace["iter"][reached[0]]) if len(reached) else None

    it_d = iters_to(delayed, 1e-4)
    it_b = iters_to(baseline, 1e-4)
    ok = (
        delayed.status == "CONVERGED"
        and baseline.status == "CONVERGED"
        and it_d is not None
        and it_b is not None
        and it_d > it_b
        and elapsed < 120.0
    )
    report(
        11,
        ok,
        f"iterations to gap 1e-4: delayed={it_d} delay-free={it_b} "
        f"time={elapsed:.1f}s",
    )
