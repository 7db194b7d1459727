"""Every function of the invariant catalogue over generated instances: random
strongly connected digraphs on 2-12 nodes, delay bounds up to 3 under each
delay mode, switching plans and all four cost families.  `dtacopt selftest`
runs the same functions on its fixed instances."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dtacopt import costs
from dtacopt.graphs import DirectedGraph
from dtacopt.invariants import (
    batched_grads_error,
    column_sums,
    conservation,
    gradient_error,
    lockstep_residuals,
    reduction_deviation,
    spectral_bound_excess,
)
from dtacopt.optimizer import RunConfig, StaticSetting, SwitchingPlan, run

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

MODES = st.sampled_from(["uniform-random", "homogeneous-max", "zero"])
SEEDS = st.integers(0, 2**16)
FAMILIES = {
    "quadratic": lambda n, seed: costs.make_quadratic(n, 3, seed),
    "least_squares": lambda n, seed: costs.make_least_squares(n, 3, 4, seed),
    "logistic": lambda n, seed: costs.make_logistic(n, 3, 8, 0.1, seed),
    "svm": lambda n, seed: costs.make_smooth_svm(n, 3, 8, 1.0, 5.0, seed),
}
FAMILY_NAMES = st.sampled_from(sorted(FAMILIES))


@st.composite
def digraphs(draw):
    """A strongly connected digraph on 2-12 nodes: a cycle through the nodes
    in a drawn order, plus every other ordered pair with a drawn probability."""
    n = draw(st.integers(2, 12))
    order = draw(st.permutations(range(n)))
    rng = np.random.default_rng(draw(SEEDS))
    extra = np.argwhere(rng.random((n, n)) < draw(st.floats(0.0, 1.0))).tolist()
    return DirectedGraph.from_edges(
        [(order[k], order[(k + 1) % n]) for k in range(n)] + [(j, i) for j, i in extra]
    )


def step_size(problem):
    """A step well inside every family's smoothness, so no run blows up."""
    return 0.1 / problem.l


@PROPERTY
@given(digraphs())
def test_weights_are_column_stochastic(g):
    assert column_sums(g) <= 1e-12


@PROPERTY
@given(FAMILY_NAMES, st.integers(2, 12), SEEDS)
def test_gradients_are_the_objectives(family, n, seed):
    prob = FAMILIES[family](n, seed)
    rng = np.random.default_rng(seed)
    assert gradient_error(prob, rng.standard_normal(prob.dim)) <= 1e-5
    assert batched_grads_error(prob, rng.standard_normal((n, prob.dim))) <= 1e-12


@PROPERTY
@given(digraphs(), MODES, FAMILY_NAMES, SEEDS)
def test_zero_delay_engines_reduce_to_the_baseline_bit_for_bit(g, mode, family, seed):
    prob = FAMILIES[family](g.n, seed)
    setting = StaticSetting.draw(g, 0, mode, seed)
    assert reduction_deviation(prob, setting, 20, step_size(prob), seed) == 0.0


@PROPERTY
@given(digraphs(), st.integers(0, 3), MODES, FAMILY_NAMES, SEEDS)
def test_per_node_engine_follows_the_oracle_and_conserves_mass(g, tau, mode, family, seed):
    prob = FAMILIES[family](g.n, seed)
    setting = StaticSetting.draw(g, tau, mode, seed)
    deviation, mass, tracker = lockstep_residuals(prob, setting, 30, step_size(prob), seed)
    assert deviation <= 1e-10
    assert mass <= 1e-10
    assert tracker <= 1e-9


@PROPERTY
@given(
    st.integers(2, 12), st.floats(0.3, 1.0), st.booleans(), st.integers(1, 4),
    st.integers(0, 3), MODES, FAMILY_NAMES, SEEDS,
)
def test_switching_runs_conserve_mass(n, p, require_strong, period, tau, mode, family, seed):
    plan = SwitchingPlan(period, n, p, seed, require_strong, tau, mode, seed + 1)
    prob = FAMILIES[family](n, seed)
    for engine in ("per-node", "augmented-oracle"):
        config = RunConfig(step_size(prob), 24, 0.0, 1, engine, seed)
        mass, tracker = conservation(run(config, plan, prob).trace)
        assert mass <= 1e-10
        assert tracker <= 1e-9


@PROPERTY
@given(digraphs(), st.integers(0, 3), MODES, st.floats(0.05, 1.0), SEEDS)
def test_augmentation_keeps_the_spectral_radius_bound(g, tau, mode, scale, seed):
    """scale 1: rho(aug(C)) = 1; below it, C is substochastic."""
    setting = StaticSetting.draw(g, tau, mode, seed)
    assert spectral_bound_excess(scale * setting.weights.entries, setting.delays) <= 0.0
