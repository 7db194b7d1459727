"""The engines' round and metric row against `reference_round`, bit for bit."""

import math
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_round import REFERENCE_ENGINES, reference_metrics
from dtacopt import costs
from dtacopt.optimizer import (
    DIVERGENCE_MSE,
    ENGINES,
    AugmentedEngine,
    DtacEngine,
    EngineFault,
    SwitchingPlan,
    _metrics,
    init_states,
)

FAMILIES = {
    "quadratic": lambda n, p, seed: costs.make_quadratic(n, p, seed),
    "least_squares": lambda n, p, seed: costs.make_least_squares(n, p, 3, seed, ridge=0.1),
    "logistic": lambda n, p, seed: costs.make_logistic(n, p, 6, 0.1, seed),
    "svm": lambda n, p, seed: costs.make_smooth_svm(n, p, 6, 1.0, 5.0, seed),
}
ROUNDS = 40


@st.composite
def lockstep_cases(draw):
    """A small instance, a step size from well inside to far past divergence,
    a static or switching topology, and an optional round at which every
    push-sum weight is negated (so that round must raise EngineFault)."""
    n = draw(st.integers(2, 12))
    plan = SwitchingPlan(
        period=draw(st.integers(1, 3)), n=n, p=0.6,
        graph_seed=draw(st.integers(0, 2**16)), require_strong=draw(st.booleans()),
        tau_max=draw(st.integers(0, 6)),
        delay_mode=draw(st.sampled_from(("uniform-random", "homogeneous-max", "zero"))),
        delay_seed=draw(st.integers(0, 2**16)),
    )
    return dict(
        plan=plan,
        switching=draw(st.booleans()),
        dim=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**16)),
        alpha=10.0 ** draw(st.floats(-4.0, 0.0)),
        fault_round=draw(st.none() | st.integers(0, ROUNDS - 1)),
    )


def _state(engine):
    mass, tracker_mass = engine.masses()
    arrays = [engine.W_hat if isinstance(engine, AugmentedEngine) else engine.W,
              engine.Z, engine.grad_prev, tracker_mass]
    if isinstance(engine, DtacEngine):
        arrays.append(engine.buffers.q)
    return arrays, (engine.k, mass)


def _assert_same_state(a, b):
    (arrays_a, scalars_a), (arrays_b, scalars_b) = _state(a), _state(b)
    assert all(np.array_equal(x, y, equal_nan=True) for x, y in zip(arrays_a, arrays_b))
    assert repr(scalars_a) == repr(scalars_b)


def _assert_same_row(a, b):
    """Field for field the same type and repr, so NaN equals NaN and -0.0
    differs from 0.0."""
    assert [(type(v), repr(v)) for v in a] == [(type(v), repr(v)) for v in b]


def _negate_weights(engine):
    p = engine.p
    if isinstance(engine, AugmentedEngine):
        engine.W_hat[:, p] *= -1.0
        return
    engine.W[:, p] *= -1.0
    if isinstance(engine, DtacEngine):
        engine.buffers.q[:, :, p] *= -1.0


def _lockstep(cls, prob, case):
    """Step the package engine and its reference as `run()` would, until
    max rounds, the DIVERGED test or an EngineFault."""
    plan = case["plan"]
    setting = plan.realize(0)
    engines = [
        make(prob, init_states(prob, case["seed"]), setting.weights, setting.delays, case["alpha"])
        for make in (cls, REFERENCE_ENGINES[cls])
    ]
    pkg, ref = engines
    _assert_same_state(pkg, ref)
    _assert_same_row(_metrics(pkg, prob), reference_metrics(ref, prob))
    for k in range(ROUNDS):
        if case["switching"] and k > 0 and k % plan.period == 0:
            setting = plan.realize(k // plan.period)
            for e in engines:
                e.set_topology(setting.weights, setting.delays)
        if k == case["fault_round"]:
            for e in engines:
                _negate_weights(e)
        faults = []
        for e in engines:
            try:
                e.step()
                faults.append(None)
            except EngineFault as exc:
                faults.append(str(exc))
        assert faults[0] == faults[1]
        _assert_same_state(pkg, ref)
        if faults[0] is not None:
            assert k == case["fault_round"]
            return
        row = _metrics(pkg, prob)
        _assert_same_row(row, reference_metrics(ref, prob))
        mse = row[2]
        if not math.isfinite(mse) or mse > DIVERGENCE_MSE:
            return


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(case=lockstep_cases())
def test_round_matches_the_reference_bit_for_bit(family, case):
    prob = FAMILIES[family](case["plan"].n, case["dim"], case["seed"])
    # a run past divergence may overflow; the rows are compared, not warnings
    with np.errstate(all="ignore"):
        for cls in ENGINES.values():
            _lockstep(cls, prob, case)
