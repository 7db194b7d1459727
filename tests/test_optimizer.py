import hashlib
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contraction import ContractionMonitor, tracking_triple
from per_node_costs import per_node_models
from dtacopt import costs, delays, graphs, spectral
from dtacopt.optimizer import (
    _DENSE_BASE,
    _DENSE_PER_NONZERO,
    ENGINES,
    AddOptEngine,
    AugmentedEngine,
    DtacEngine,
    EngineFault,
    InTransitBuffer,
    RunConfig,
    StaticSetting,
    SwitchingPlan,
    _mixer,
    init_states,
    run,
)


def make_setting(n, tau, gseed, dseed, p_edge=0.6, mode="uniform-random"):
    g = graphs.generate_erdos_renyi(n, p_edge, seed=gseed)
    C = graphs.build_column_stochastic_weights(g)
    d = delays.assign_delays(g, tau, mode, seed=dseed)
    return StaticSetting(weights=C, delays=d)


def make_circulant_setting(n, tau, dseed, hops=(1, 7)):
    """A sparse strongly connected setting: node i sends to i + h (mod n)."""
    g = graphs.DirectedGraph.from_edges((i, (i + h) % n) for i in range(n) for h in hops)
    C = graphs.build_column_stochastic_weights(g)
    d = delays.assign_delays(g, tau, "uniform-random", seed=dseed)
    return StaticSetting(weights=C, delays=d)


def multiplied_through_nonzeros(M):
    """True iff the engines' product helper takes the bincount route for M."""
    return M.size > _DENSE_BASE + _DENSE_PER_NONZERO * np.count_nonzero(M)


def test_init_states_deterministic_and_seeded():
    prob = costs.make_quadratic(5, 3, 1)
    a = init_states(prob, seed=7)
    assert a.shape == (5, 2 * 3 + 1)
    assert np.array_equal(a, init_states(prob, seed=7))
    assert not np.array_equal(a[:, :3], init_states(prob, seed=8)[:, :3])
    x, y, g = a[:, :3], a[:, 3], a[:, 4:]
    assert np.all(y == 1.0)
    for i, model in enumerate(per_node_models(prob)):
        assert np.array_equal(g[i], model.grad(x[i]))


def test_in_transit_buffer_delivers_on_schedule():
    buf = InTransitBuffer(tau_max=3, n=2, width=3)
    pkt = np.ones((2, 3))
    sends = np.zeros((4 * 2, 3))
    sends[3 * 2 :] = pkt  # a round-2 send over delay 3: nothing arrives before round 5
    buf.deposit(2, sends)
    for k in (3, 4):
        assert not buf.take(k).any()
    got = buf.take(5)
    assert np.array_equal(got, pkt)
    assert not buf.take(5).any()  # drained


def test_in_transit_buffer_accumulates_same_round():
    buf = InTransitBuffer(tau_max=2, n=1, width=1)
    buf.deposit(4, np.array([[1.0], [0.0], [0.0]]))
    buf.deposit(2, np.array([[0.0], [0.0], [2.0]]))
    assert buf.take(4)[0, 0] == 3.0


def test_single_node_reduces_to_gradient_descent():
    prob = costs.make_quadratic(1, 3, 2)
    C = graphs.WeightMatrix(np.array([[1.0]]))
    d = delays.DelayMap([0], [0], [0], tau_max=0)
    W0 = init_states(prob, seed=3)
    engine = DtacEngine(prob, W0, C, d, alpha=0.05)
    x = W0[0, :3].copy()
    (model,) = per_node_models(prob)
    for _ in range(200):
        x = x - 0.05 * model.grad(x)
        engine.step()
        assert np.allclose(engine.live_x[0], x, atol=1e-12)
    assert np.linalg.norm(x - prob.z_star) < 1e-3


def zero_delay_er6():
    return make_setting(6, 0, 11, 0, mode="zero")


@pytest.mark.parametrize(
    "n, setting, make_problem, rounds",
    [
        (6, zero_delay_er6, lambda: costs.make_quadratic(6, 3, 5), 300),
        (6, zero_delay_er6, lambda: costs.make_logistic(6, 3, 12, 0.1, 5), 300),
        (6, zero_delay_er6, lambda: costs.make_smooth_svm(6, 3, 12, 1.0, 5.0, 5), 300),
        (200, lambda: make_circulant_setting(200, 0, 0), lambda: costs.make_quadratic(200, 3, 5), 100),
    ],
    ids=["quadratic", "logistic", "svm", "quadratic-sparse-n200"],
)
def test_zero_delay_engines_are_bitwise_identical(n, setting, make_problem, rounds):
    setting = setting()
    prob = make_problem()
    e_dtac, e_base, e_aug = (
        cls(prob, init_states(prob, 1), setting.weights, setting.delays, 0.01)
        for cls in (DtacEngine, AddOptEngine, AugmentedEngine)
    )
    assert multiplied_through_nonzeros(setting.weights.entries) == (n == 200)
    for _ in range(rounds):
        e_dtac.step()
        e_base.step()
        e_aug.step()
        assert np.array_equal(e_dtac.W, e_base.W)
        assert np.array_equal(e_dtac.W, e_aug.W_hat[:n])
    assert np.all(np.isfinite(e_dtac.W))


@pytest.mark.parametrize("n", [6, 200])
def test_per_node_reduces_bitwise_when_every_delay_is_below_the_bound(n):
    """All delays zero under tau_max = 3: the per-node engine stacks no
    slice past the largest delay in use, so it multiplies by C itself.  At
    n = 200 all four slices would be multiplied through their nonzeros and
    C alone is multiplied densely."""
    g = graphs.generate_exponential_graph(n)
    C = graphs.build_column_stochastic_weights(g)
    d = delays.assign_delays(g, 3, "zero")
    all_slices = delays.build_delay_slices(C, d).slices.reshape(-1, n)
    assert multiplied_through_nonzeros(all_slices) == (n == 200)
    assert not multiplied_through_nonzeros(C.entries)
    prob = costs.make_quadratic(n, 3, 5)
    e_dtac, e_base = (
        cls(prob, init_states(prob, 1), C, d, 0.01) for cls in (DtacEngine, AddOptEngine)
    )
    for _ in range(100):
        e_dtac.step()
        e_base.step()
        assert np.array_equal(e_dtac.W, e_base.W)


def test_oracle_equivalence_under_delays():
    rng = np.random.default_rng(0)
    cases = []
    for trial in range(4):
        n = int(rng.integers(3, 9))
        tau = int(rng.integers(1, 4))
        cases.append((n, make_setting(n, tau, 20 + trial, 30 + trial), 40 + trial, 300))
    # one instance whose stacked slices and augmented matrix are multiplied
    # through their nonzeros
    sparse = make_circulant_setting(128, 3, 34, hops=(1, 5))
    slices = delays.build_delay_slices(sparse.weights, sparse.delays).slices
    assert multiplied_through_nonzeros(slices.reshape(-1, 128))
    cases.append((128, sparse, 44, 60))
    for n, setting, cost_seed, rounds in cases:
        prob = costs.make_quadratic(n, 3, cost_seed)
        e1 = DtacEngine(prob, init_states(prob, 7), setting.weights, setting.delays, 0.003)
        e2 = AugmentedEngine(prob, init_states(prob, 7), setting.weights, setting.delays, 0.003)
        if n == 128:
            assert multiplied_through_nonzeros(e2.aug.entries)
        for _ in range(rounds):
            e1.step()
            e2.step()
            assert np.max(np.abs(e1.live_x - e2.live_x)) < 1e-10
            assert np.max(np.abs(e1.live_y - e2.live_y)) < 1e-10
            assert np.max(np.abs(e1.live_g - e2.live_g)) < 1e-10


@st.composite
def mixing_products(draw):
    """A (blocks n, n) matrix on a drawn side of the dense/nonzero threshold,
    with empty rows, and a block of 3-21 columns to multiply."""
    sparse = draw(st.booleans())
    n = draw(st.integers(1, 60))
    blocks = draw(st.integers(1, 8))  # blocks > 1: stacked delay slices
    if sparse:  # enough entries for the nonzero route
        blocks = max(blocks, _DENSE_BASE // (n * n) + 1)
    m = blocks * n
    width = draw(st.integers(3, 21))
    most_sparse = (m * n - _DENSE_BASE - 1) // _DENSE_PER_NONZERO
    if sparse:
        nnz = draw(st.integers(0, min(most_sparse, m * n)))
    else:
        nnz = draw(st.integers(max(most_sparse + 1, 0), m * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = np.zeros(m * n)
    M[rng.choice(m * n, nnz, replace=False)] = rng.uniform(0.5, 2.0, nnz) * rng.choice([-1, 1], nnz)
    M = M.reshape(m, n)
    M[rng.random(m) < draw(st.floats(0.0, 0.5))] = 0.0
    X = rng.standard_normal((n, width)) * 10.0 ** rng.uniform(-3, 3)
    return M, X


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mixing_products())
def test_mixer_matches_the_dense_product(case):
    M, X = case
    width = X.shape[1]
    got = _mixer(M, width)(X)
    scale = np.abs(M) @ np.abs(X)
    assert got.shape == (M.shape[0], width)
    assert np.all(np.abs(got - M @ X) <= 1e-13 * scale)
    twin = M.copy()
    mix = _mixer(twin, width)
    assert np.array_equal(mix(X), got)  # equal matrices, bitwise-equal products
    if multiplied_through_nonzeros(M):
        twin[:] = 0.0  # the nonzero route holds no reference to its matrix
        assert np.array_equal(mix(X), got)


def test_two_node_quadratic_matches_oracle_tightly():
    g = graphs.generate_erdos_renyi(2, 1.0, seed=0)
    C = graphs.build_column_stochastic_weights(g)
    d = delays.DelayMap.from_dict({(1, 0): 1, (0, 1): 0}, tau_max=1)
    prob = costs.make_quadratic(2, 2, 3)
    e1 = DtacEngine(prob, init_states(prob, 5), C, d, 0.01)
    e2 = AugmentedEngine(prob, init_states(prob, 5), C, d, 0.01)
    for _ in range(200):
        e1.step()
        e2.step()
    assert np.max(np.abs(e1.W - e2.W_hat[:2])) < 1e-10


def test_mass_and_tracker_conservation_under_delays():
    setting = make_setting(8, 4, 21, 22)
    prob = costs.make_quadratic(8, 3, 23)
    for cls in (DtacEngine, AugmentedEngine):
        engine = cls(prob, init_states(prob, 2), setting.weights, setting.delays, 0.003)
        for _ in range(500):
            engine.step()
            assert abs(engine.mass - 8.0) < 1e-10
            grad_now = engine.grad_prev.sum(axis=0)
            resid = np.linalg.norm(engine.tracker_mass - grad_now)
            assert resid / (1.0 + np.linalg.norm(grad_now)) < 1e-9


def test_engine_fault_on_nonpositive_weight():
    setting = make_setting(4, 1, 2, 3)
    prob = costs.make_quadratic(4, 2, 4)
    engine = DtacEngine(prob, init_states(prob, 1), setting.weights, setting.delays, 0.01)
    engine.W[:, engine.p] = 0.0  # corrupt the live weights
    engine.buffers.q[:, :, engine.p] = 0.0
    with pytest.raises(EngineFault):
        engine.step()


def test_delayed_convergence_on_er_instance():
    setting = make_setting(10, 5, 8, 145, p_edge=0.5)
    prob = costs.make_quadratic(10, 5, 42)
    cfg = RunConfig(alpha=0.005, max_iters=5000, tol=1e-14, engine="per-node", init_seed=3)
    result = run(cfg, setting, prob)
    assert result.iters <= 5000
    assert result.final_gap < 1e-8
    assert result.records[-1].consensus_error < 1e-6


def test_run_statuses_and_divergence_marker():
    setting = make_setting(10, 15, 8, 145, p_edge=0.5)
    prob = costs.make_quadratic(10, 5, 42)
    diverged = run(
        RunConfig(alpha=0.005, max_iters=3000, engine="per-node", init_seed=3),
        setting,
        prob,
    )
    assert diverged.status == "DIVERGED"
    assert diverged.final_mse > 1e12 or not np.isfinite(diverged.final_mse)
    line = diverged.status_line()
    assert line.startswith("STATUS DIVERGED iters=")


def test_run_convergence_status_and_trace_cadence():
    setting = make_setting(6, 2, 31, 32)
    prob = costs.make_quadratic(6, 3, 33)
    cfg = RunConfig(alpha=0.004, max_iters=20000, tol=1e-9, record_every=50, init_seed=3)
    result = run(cfg, setting, prob)
    assert result.status == "CONVERGED"
    assert result.final_gap < 1e-9
    iters = [rec.iter for rec in result.records]
    assert iters[0] == 0
    assert all(b > a for a, b in zip(iters, iters[1:]))
    assert iters[-1] == result.iters
    # interior records follow the cadence
    for it in iters[1:-1]:
        assert it % 50 == 0


def test_switching_plan_converges_and_preserves_mass():
    plan = SwitchingPlan(
        period=2, n=8, p=0.5, graph_seed=13, require_strong=True,
        tau_max=3, delay_mode="uniform-random", delay_seed=14,
    )
    prob = costs.make_quadratic(8, 3, 15)
    cfg = RunConfig(alpha=0.004, max_iters=15000, tol=1e-9, init_seed=3)
    result = run(cfg, plan, prob)
    assert result.status == "CONVERGED"
    assert max(rec.mass_error for rec in result.records) < 1e-10
    assert max(rec.grad_tracker_sum_error for rec in result.records) < 1e-9


def test_switching_plan_rejects_period_below_one():
    with pytest.raises(ValueError, match="period must be >= 1"):
        SwitchingPlan(
            period=0, n=6, p=0.6, graph_seed=13, require_strong=True,
            tau_max=3, delay_mode="uniform-random", delay_seed=14,
        )


# sha256 over epochs 0-49 of the benchmark's switching config (n=30, tau_max=5,
# graph seed 8, delay seed 145): each epoch's C bytes, then repr of its
# (edge, delay) items in order.  At p=0.25 every first draw is strongly
# connected, so both settings agree; at p=0.1 45 of the 50 are not.
SWITCHING_DIGESTS = {
    (0.25, True): "dcbf13986444dcc403ad64c46e9ad53c2f9632a56672a580351642b75d2335b7",
    (0.25, False): "dcbf13986444dcc403ad64c46e9ad53c2f9632a56672a580351642b75d2335b7",
    (0.1, False): "3742400ac82a9b1f8d2f89b7c678bfdae818b41940b7bf2b2eb12fe3cf998821",
}


@pytest.mark.parametrize("p, require_strong", sorted(SWITCHING_DIGESTS))
def test_switching_streams_keep_their_draws_and_edge_order(p, require_strong):
    plan = SwitchingPlan(
        period=2, n=30, p=p, graph_seed=8, require_strong=require_strong,
        tau_max=5, delay_mode="uniform-random", delay_seed=145,
    )
    h = hashlib.sha256()
    for epoch in range(50):
        setting = plan.realize(epoch)
        h.update(setting.weights.entries.tobytes())
        h.update(repr(list(setting.delays.tau.items())).encode())
    assert h.hexdigest() == SWITCHING_DIGESTS[p, require_strong]


def test_run_switches_topology_on_every_engine():
    """run() installs each switched topology through set_topology(C, delays)
    whatever the engine: the matrix-form oracle follows the per-node protocol
    row for row, and the delay-free baseline keeps its weight mass."""
    plan = SwitchingPlan(
        period=2, n=6, p=0.6, graph_seed=13, require_strong=True,
        tau_max=3, delay_mode="uniform-random", delay_seed=14,
    )
    prob = costs.make_quadratic(6, 3, 15)
    results = {
        name: run(RunConfig(alpha=0.004, max_iters=15000, tol=1e-9, engine=name), plan, prob)
        for name in ENGINES
    }
    per_node, oracle = results["per-node"], results["augmented-oracle"]
    assert (oracle.status, oracle.iters) == (per_node.status, per_node.iters)
    assert len(oracle.records) == len(per_node.records)
    for a, b in zip(per_node.records, oracle.records):
        assert a.iter == b.iter
        assert np.allclose(astuple(a)[1:], astuple(b)[1:], rtol=0.0, atol=1e-10)
    baseline = results["addopt-nodelay"]
    assert baseline.status == "CONVERGED"
    assert max(rec.mass_error for rec in baseline.records) < 1e-10


def test_switching_lockstep_across_engines():
    """Per-node and matrix-form engines stay in lockstep through topology
    switches: in-flight packets follow the same delivery schedule in both."""
    prob = costs.make_quadratic(6, 3, 91)
    settings = [make_setting(6, 3, 90 + e, 95 + e) for e in range(6)]
    e1, e2 = (
        cls(prob, init_states(prob, 4), settings[0].weights, settings[0].delays, 0.003)
        for cls in (DtacEngine, AugmentedEngine)
    )
    for k in range(120):
        if k > 0 and k % 2 == 0:
            current = settings[(k // 2) % len(settings)]
            e1.set_topology(current.weights, current.delays)
            e2.set_topology(current.weights, current.delays)
        e1.step()
        e2.step()
        assert np.max(np.abs(e1.live_x - e2.live_x)) < 1e-12
        assert abs(e1.mass - e2.mass) < 1e-12


def test_set_topology_rejects_tau_change():
    setting = make_setting(5, 2, 61, 62)
    prob = costs.make_quadratic(5, 3, 63)
    other = make_setting(5, 3, 61, 64)
    for cls in (DtacEngine, AugmentedEngine):
        engine = cls(prob, init_states(prob, 1), setting.weights, setting.delays, 0.004)
        with pytest.raises(ValueError):
            engine.set_topology(other.weights, other.delays)


def test_switching_keeps_in_flight_packets():
    # an engine mid-run switches topology; mass in flight is untouched
    setting = make_setting(6, 3, 41, 42)
    prob = costs.make_quadratic(6, 3, 43)
    engine = DtacEngine(prob, init_states(prob, 1), setting.weights, setting.delays, 0.004)
    for _ in range(5):
        engine.step()
    other = make_setting(6, 3, 44, 45)
    engine.set_topology(other.weights, other.delays)
    for _ in range(50):
        engine.step()
        assert abs(engine.mass - 6.0) < 1e-10


def test_contraction_monitor_on_converged_certified_runs():
    """The comparison-matrix recursion holds (slack 1.05) along certified
    converged quadratic runs; G carries the measured operator-norm sigma."""
    for n, tau, gseed, dseed, cseed in ((5, 1, 50, 60, 70), (6, 2, 52, 62, 72)):
        setting = make_setting(n, tau, gseed, dseed, p_edge=0.7)
        prob = costs.make_quadratic(n, 3, cseed)
        report = spectral.build_spectral_report(setting.weights.entries, setting.delays)
        bound = spectral.step_size_bound(
            n=n, tau_max=tau, sigma=report.sigma, kappa=report.kappa,
            epsilon=report.epsilon, l=prob.l, s=prob.s,
            y=report.y, y_minus=report.y_minus,
        )
        alpha = 0.9 * bound.admissible_max
        cn = spectral.SpectralConstants(
            n=n, tau_max=tau, sigma=report.sigma_norm2, kappa=report.kappa,
            epsilon=report.epsilon, l=prob.l, s=prob.s,
            y=report.y, y_minus=report.y_minus,
            gamma1=report.gamma1, envelope_T=report.envelope_T,
        )
        engine = AugmentedEngine(
            prob, init_states(prob, 3), setting.weights, setting.delays, alpha
        )
        limit = spectral.limit_matrix(engine.aug)
        monitor = ContractionMonitor(
            lambda k: spectral.build_G_H(alpha, k, cn), limit, prob.z_star
        )
        monitor.observe(engine)
        for _ in range(20000):
            engine.step()
            monitor.observe(engine)
            if prob.gap(engine.live_z.mean(axis=0)) < 1e-8:
                break
        gap = prob.gap(engine.live_z.mean(axis=0))
        assert gap < 1e-6  # converged run
        assert np.all(monitor.worst_ratios <= 1.05)


def test_tracking_triple_decays_to_zero():
    setting = make_setting(5, 2, 50, 60)
    prob = costs.make_quadratic(5, 3, 70)
    engine = AugmentedEngine(prob, init_states(prob, 3), setting.weights, setting.delays, 0.002)
    limit = spectral.limit_matrix(engine.aug)
    t0, s0 = tracking_triple(engine, limit, prob.z_star)
    for _ in range(6000):
        engine.step()
    t1, s1 = tracking_triple(engine, limit, prob.z_star)
    assert np.all(t1 < 1e-6)
    assert np.all(t1 < t0)
