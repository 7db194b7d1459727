import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dtacopt.costs import (
    OracleError,
    make_least_squares,
    make_logistic,
    make_quadratic,
    make_smooth_svm,
    nesterov_minimize,
)
from per_node_costs import (
    LeastSquaresCost,
    QuadraticCost,
    per_node_models,
    replay_least_squares,
    replay_quadratic,
)

ALL_FACTORIES = [
    lambda: make_quadratic(4, 3, 11),
    lambda: make_least_squares(4, 3, 5, 12),
    lambda: make_least_squares(3, 4, 4, 13, ridge=0.5),
    lambda: make_logistic(3, 3, 16, 0.2, 14),
    lambda: make_logistic(3, 2, 10, 0.5, 15, mean_scaled=False),
    lambda: make_smooth_svm(3, 3, 16, 1.0, 5.0, 16),
]


def finite_diff_grad(model, z):
    step = 1e-6 * (1.0 + np.linalg.norm(z))
    g = np.empty(model.dim)
    for idx in range(model.dim):
        e = np.zeros(model.dim)
        e[idx] = step
        g[idx] = (model.eval(z + e) - model.eval(z - e)) / (2 * step)
    return g


@pytest.mark.parametrize("factory", ALL_FACTORIES)
def test_gradients_match_finite_differences(factory):
    prob = factory()
    rng = np.random.default_rng(0)
    for model in per_node_models(prob):
        for _ in range(20):
            z = rng.standard_normal(prob.dim)
            g = model.grad(z)
            fd = finite_diff_grad(model, z)
            rel = np.linalg.norm(fd - g) / (1.0 + np.linalg.norm(g))
            assert rel < 1e-5


@pytest.mark.parametrize("factory", ALL_FACTORIES)
def test_midpoint_convexity(factory):
    prob = factory()
    rng = np.random.default_rng(1)
    for model in per_node_models(prob):
        for _ in range(50):
            a = rng.standard_normal(prob.dim)
            b = rng.standard_normal(prob.dim)
            mid = model.eval(0.5 * (a + b))
            assert mid <= 0.5 * model.eval(a) + 0.5 * model.eval(b) + 1e-12


@pytest.mark.parametrize("factory", ALL_FACTORIES)
def test_gradient_lipschitz_constant(factory):
    prob = factory()
    rng = np.random.default_rng(2)
    for model in per_node_models(prob):
        for _ in range(50):
            a = rng.standard_normal(prob.dim)
            b = rng.standard_normal(prob.dim)
            lhs = np.linalg.norm(model.grad(a) - model.grad(b))
            assert lhs <= model.l * np.linalg.norm(a - b) * (1 + 1e-9)


@pytest.mark.parametrize("factory", ALL_FACTORIES)
def test_strong_convexity_on_regularized_block(factory):
    """(grad(a) - grad(b))'(a - b) >= s ||a - b||^2 along the regularized
    coordinates (logistic and svm leave the offset coordinate out)."""
    prob = factory()
    rng = np.random.default_rng(3)
    models = per_node_models(prob)
    offset_free = hasattr(models[0], "lam") or hasattr(models[0], "margin_weight")
    for model in models:
        for _ in range(50):
            a = rng.standard_normal(prob.dim)
            b = a.copy()
            if offset_free:
                b[:-1] = rng.standard_normal(prob.dim - 1)
            else:
                b = rng.standard_normal(prob.dim)
            inner = float((model.grad(a) - model.grad(b)) @ (a - b))
            assert inner >= model.s * np.linalg.norm(a - b) ** 2 * (1 - 1e-9)


@pytest.mark.parametrize("factory", ALL_FACTORIES)
def test_global_optimum_is_stationary(factory):
    prob = factory()
    ref = 1e-9 * (1.0 + np.linalg.norm(prob.total_grad(np.zeros(prob.dim))))
    assert np.linalg.norm(prob.total_grad(prob.z_star)) <= max(ref, 1e-9)
    assert prob.s <= prob.l


def test_quadratic_known_cases():
    # a single identity quadratic with zero offset has its optimum at 0
    m = QuadraticCost(A=np.eye(3), b=np.zeros(3), s=1.0, l=1.0)
    assert np.allclose(np.linalg.solve(m.A, -m.b), 0.0)
    assert m.eval(np.zeros(3)) == 0.0
    # symmetric offsets cancel: A1 = A2 = I, b1 = -b2 = e1 gives optimum 0
    e1 = np.array([1.0, 0.0, 0.0])
    m1 = QuadraticCost(A=np.eye(3), b=e1, s=1.0, l=1.0)
    m2 = QuadraticCost(A=np.eye(3), b=-e1, s=1.0, l=1.0)
    assert np.allclose(np.linalg.solve(m1.A + m2.A, -(m1.b + m2.b)), 0.0)
    assert np.allclose(m1.grad(np.zeros(3)) + m2.grad(np.zeros(3)), 0.0)


def test_quadratic_solver_residual_and_eig_range():
    prob = make_quadratic(6, 4, 7)
    assert np.linalg.norm(prob.total_grad(prob.z_star)) < 1e-9
    eigs = np.linalg.eigvalsh(prob.A)
    assert eigs.min() >= 1.0 - 1e-9 and eigs.max() <= 10.0 + 1e-9
    assert prob.s == pytest.approx(eigs.min()) and prob.l == pytest.approx(eigs.max())


def test_least_squares_identity_blocks():
    v = np.array([1.5, -2.0])
    models = [
        LeastSquaresCost(H=np.eye(2), b=v.copy(), ridge=0.0, s=1.0, l=1.0)
        for _ in range(3)
    ]
    gram = sum(m.H.T @ m.H for m in models)
    rhs = sum(m.H.T @ m.b for m in models)
    z = np.linalg.solve(gram, rhs)
    assert np.allclose(z, v)
    assert all(np.allclose(m.grad(z), 0.0) for m in models)


def test_least_squares_hand_normal_equations():
    # two single-row blocks selecting coordinates: optimum is (3, 4)
    m1 = LeastSquaresCost(
        H=np.array([[1.0, 0.0]]), b=np.array([3.0]), ridge=0.0, s=0.0, l=1.0
    )
    m2 = LeastSquaresCost(
        H=np.array([[0.0, 1.0]]), b=np.array([4.0]), ridge=0.0, s=0.0, l=1.0
    )
    gram = m1.H.T @ m1.H + m2.H.T @ m2.H
    rhs = m1.H.T @ m1.b + m2.H.T @ m2.b
    assert np.allclose(np.linalg.solve(gram, rhs), [3.0, 4.0])


def test_least_squares_random_residual():
    prob = make_least_squares(5, 4, 6, 3)
    assert np.linalg.norm(prob.total_grad(prob.z_star)) < 1e-9


def test_least_squares_rejects_underdetermined_system():
    with pytest.raises(ValueError):
        make_least_squares(1, 5, 2, 0)  # 2 rows < 5 unknowns


@pytest.mark.parametrize("ridge", [-5.0, float("nan")])
def test_least_squares_rejects_a_ridge_below_zero(ridge):
    with pytest.raises(ValueError, match="ridge must be >= 0"):
        make_least_squares(3, 2, 4, 0, ridge=ridge)


def test_logistic_single_sample_bisection_oracle():
    """No-offset logistic with one (+1, c=1) sample and lam=1:
    f(w) = log(1 + exp(-w)) + w^2 / 2, whose optimum solves w = sigmoid(-w)
    and whose gradient is 1 + 1/4 Lipschitz; the oracle is plain bisection."""

    def grad(v):
        return v - 1.0 / (1.0 + np.exp(v))

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if grad(np.array([mid]))[0] < 0:
            lo = mid
        else:
            hi = mid
    w_star = 0.5 * (lo + hi)
    z = nesterov_minimize(grad, np.zeros(1), lipschitz=1.25, tol=1e-12)
    assert z[0] == pytest.approx(w_star, abs=1e-9)


def test_logistic_oracle_reaches_tight_stationarity():
    prob = make_logistic(4, 3, 20, 0.3, 9)
    assert np.linalg.norm(prob.total_grad(prob.z_star)) < 1e-10
    assert prob.s == pytest.approx(0.3)


def test_logistic_rejects_bad_params():
    with pytest.raises(ValueError):
        make_logistic(3, 3, 16, 0.0, 0)
    with pytest.raises(ValueError):
        make_logistic(3, 3, 1, 0.1, 0)


def test_logistic_rejects_a_nan_weight_before_its_oracle():
    with pytest.raises(ValueError, match="lam must be positive"):
        make_logistic(3, 3, 16, float("nan"), 0)


@pytest.mark.parametrize(
    "samples,margin,smoothness",
    [
        (16, float("nan"), 5.0),
        (16, -1.0, 5.0),
        (16, 1.0, float("nan")),
        (16, 1.0, 0.0),
        (1, 1.0, 5.0),  # one sample per agent cannot mix labels
    ],
)
def test_svm_rejects_bad_params_before_its_oracle(samples, margin, smoothness):
    with pytest.raises(ValueError):
        make_smooth_svm(3, 3, samples, margin, smoothness, 0)


def test_svm_zero_margin_weight_is_pure_ridge():
    prob = make_smooth_svm(3, 3, 10, 0.0, 5.0, 4)
    assert np.allclose(prob.z_star, 0.0)
    assert prob.f_star == pytest.approx(0.0)


def test_svm_separable_data_classifies_training_points():
    prob = make_smooth_svm(2, 1, 30, 10.0, 20.0, 5, separation=6.0)
    omega, nu = prob.z_star[:-1], prob.z_star[-1]
    correct = total = 0
    for m in per_node_models(prob):
        preds = np.sign(m.features @ omega - nu)
        correct += int(np.sum(preds == m.labels))
        total += len(m.labels)
    assert correct / total >= 0.97


INF = float("inf")


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_least_squares(3, 2, 4, 0, ridge=INF),
        lambda: make_logistic(3, 3, 16, INF, 0),
        lambda: make_smooth_svm(3, 3, 16, INF, 5.0, 0),
        lambda: make_smooth_svm(3, 3, 16, 1.0, INF, 0),
    ],
    ids=["ridge", "lam", "margin", "smoothness"],
)
def test_factories_reject_an_infinite_weight_before_their_oracle(build):
    with pytest.raises(ValueError, match="finite"):
        build()


@pytest.mark.parametrize("bad", [float("nan"), INF])
def test_nesterov_oracle_stops_on_a_non_finite_gradient(bad):
    calls = []

    def grad(z):
        calls.append(z)
        return np.full_like(z, bad)

    with pytest.raises(OracleError, match="gradient norm"):
        nesterov_minimize(grad, np.zeros(2), lipschitz=1.0)
    assert len(calls) == 2  # one round: the gradient at y, then at x_new


def test_nesterov_oracle_caps_iterations():
    with pytest.raises(OracleError):
        nesterov_minimize(
            lambda z: np.ones_like(z),  # constant slope, no stationary point
            np.zeros(2),
            lipschitz=1.0,
            tol=1e-12,
            max_iters=50,
        )


# -- batched paths against the per-node models --------------------------------
# grads/total/total_grad sum in another order than the per-node loop, so they
# agree to rounding, not bitwise: 1e-12 relative to the result's scale (plus
# an absolute 1e-12 where the result itself is near 0).  start_grads and the
# constants s, l are computed in the per-node order and must match bitwise.
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)
NODES = st.integers(1, 6)
DIMS = st.integers(1, 4)
SAMPLES = st.integers(2, 12)
SEEDS = st.integers(0, 2**32 - 1)


def _assert_close(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref)))


def _check_batched(prob, seed, models=None):
    models = per_node_models(prob) if models is None else models
    rng = np.random.default_rng(seed)
    Z = 2.0 * rng.standard_normal((prob.n, prob.dim))
    ref = np.stack([m.grad(z) for m, z in zip(models, Z)])
    _assert_close(prob.grads(Z), ref)
    assert np.array_equal(prob.start_grads(Z), ref)
    assert type(prob.s) is float and type(prob.l) is float
    assert prob.s == min(m.s for m in models) and prob.l == max(m.l for m in models)
    z = Z[0]
    _assert_close(prob.total(z), sum(m.eval(z) for m in models))
    _assert_close(prob.total_grad(z), sum(m.grad(z) for m in models))


def _drawn_quadratic_models(prob, seed):
    """The quadratic's per-node models with s_i, l_i set to the spectrum the
    factory drew for A_i (replayed from its seed), not recovered by eigvalsh."""
    _, _, s, l = replay_quadratic(prob.n, prob.dim, seed)
    return [
        dataclasses.replace(m, s=float(s_i), l=float(l_i))
        for m, s_i, l_i in zip(per_node_models(prob), s, l)
    ]


@PROPERTY
@given(n=NODES, p=DIMS, seed=SEEDS)
def test_batched_quadratic_matches_per_node_models(n, p, seed):
    prob = make_quadratic(n, p, seed)
    _check_batched(prob, seed, _drawn_quadratic_models(prob, seed))


BUILDS = settings(max_examples=20, deadline=None, derandomize=True, database=None)


@BUILDS
@given(n=st.integers(1, 1000), p=st.integers(1, 6), seed=SEEDS)
@example(n=1000, p=1, seed=0)
@example(n=1000, p=5, seed=42)
def test_make_quadratic_matches_a_per_node_replay(n, p, seed):
    prob = make_quadratic(n, p, seed)
    A, b, s, l = replay_quadratic(n, p, seed)
    assert np.array_equal(prob.A, A) and np.array_equal(prob.b, b)
    assert prob.s == s.min() and prob.l == l.max()


@BUILDS
@given(n=st.integers(1, 1000), p=st.integers(1, 6), rows=st.integers(1, 8), seed=SEEDS)
@example(n=1000, p=1, rows=1, seed=0)
@example(n=1000, p=5, rows=8, seed=42)
def test_make_least_squares_matches_a_per_node_replay(n, p, rows, seed):
    assume(n * rows >= p)
    prob = make_least_squares(n, p, rows, seed)
    H, b = replay_least_squares(n, p, rows, seed)
    assert np.array_equal(prob.H, H) and np.array_equal(prob.b, b)


@PROPERTY
@given(
    n=NODES, p=DIMS, rows=st.integers(1, 6),
    ridge=st.just(0.0) | st.floats(0.01, 2.0), seed=SEEDS,
)
def test_batched_least_squares_matches_per_node_models(n, p, rows, ridge, seed):
    assume(n * rows >= p)
    _check_batched(make_least_squares(n, p, rows, seed, ridge=ridge), seed)


@PROPERTY
@given(
    n=NODES, p=DIMS, m=SAMPLES, lam=st.floats(0.05, 1.0), mean_scaled=st.booleans(),
    bias_ridge=st.just(0.0) | st.floats(0.01, 1.0), seed=SEEDS,
)
def test_batched_logistic_matches_per_node_models(n, p, m, lam, mean_scaled, bias_ridge, seed):
    prob = make_logistic(n, p, m, lam, seed, mean_scaled=mean_scaled, bias_ridge=bias_ridge)
    _check_batched(prob, seed)


@PROPERTY
@given(
    n=NODES, p=DIMS, m=SAMPLES, margin_weight=st.just(0.0) | st.floats(0.1, 3.0),
    smoothness=st.floats(1.0, 10.0), seed=SEEDS,
)
def test_batched_svm_matches_per_node_models(n, p, m, margin_weight, smoothness, seed):
    _check_batched(make_smooth_svm(n, p, m, margin_weight, smoothness, seed), seed)


@pytest.mark.parametrize("factory", ALL_FACTORIES)
def test_per_node_models_are_views_of_the_stacked_data(factory):
    """The problem holds only stacked arrays and scalars, no per-node
    objects, and the reference models read that very data."""
    prob = factory()
    assert all(isinstance(v, (np.ndarray, float, int)) for v in vars(prob).values())
    stacked = [v for v in vars(prob).values() if isinstance(v, np.ndarray) and v.ndim >= 2]
    for model in per_node_models(prob):
        arrays = [v for v in vars(model).values() if isinstance(v, np.ndarray)]
        assert arrays and all(any(a.base is s for s in stacked) for a in arrays)
