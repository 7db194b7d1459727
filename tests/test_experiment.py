import re
from dataclasses import fields
from functools import partial

import numpy as np
import pytest

from dtacopt import costs, experiment, graphs, optimizer
from dtacopt.experiment import (
    CONFIG_KEYS,
    ConfigError,
    apply_overrides,
    build_problem,
    build_setting,
    compare_engines,
    config_help_lines,
    execute_run,
    load_config,
    parse_config_text,
    run_experiment,
    validate_config,
)
from dtacopt.optimizer import RunConfig, StaticSetting, SwitchingPlan

FAST = {
    "graph.n": 6,
    "graph.p": 0.6,
    "cost.dim": 3,
    "run.max_iters": 2000,
    "run.tol": 1e-8,
    "delay.tau_max": 2,
    "run.alpha": 0.004,
}


def fast_config(**extra):
    cfg = load_config(None)
    merged = dict(FAST)
    merged.update(extra)
    return cfg.with_overrides(**merged)


def test_empty_config_gives_documented_defaults():
    cfg = load_config(None)
    assert cfg.get("graph.n") == 10
    assert cfg.get("graph.p") == 0.5
    assert cfg.get("graph.type") == "erdos-renyi"
    assert cfg.get("delay.tau_max") == 5
    assert cfg.get("cost.type") == "quadratic"
    assert cfg.get("run.alpha") == 0.005
    assert cfg.get("switching.period") == 2


def test_config_text_parsing_and_unknown_keys():
    cfg = validate_config(parse_config_text("run.alpha = 0.01\n# comment\n\ngraph.n = 4"))
    assert cfg.get("run.alpha") == 0.01
    assert cfg.get("graph.n") == 4
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("run.alpha = 0.01\nnot.a.key = 3")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("run.alpha 0.01")


def test_config_validation_errors_name_the_key():
    with pytest.raises(ConfigError, match="run.alpha"):
        validate_config({"run.alpha": "-1"})
    with pytest.raises(ConfigError, match="run.alpha"):
        validate_config({"run.alpha": "nan"})
    with pytest.raises(ConfigError, match="sweep.alpha"):
        validate_config({"sweep.alpha": "0.1,nan"})
    # step sizes and the tolerance must be finite
    with pytest.raises(ConfigError, match="run.alpha"):
        validate_config({"run.alpha": "inf"})
    with pytest.raises(ConfigError, match="sweep.alpha"):
        validate_config({"sweep.alpha": "0.1,inf"})
    with pytest.raises(ConfigError, match="run.tol"):
        validate_config({"run.tol": "inf"})
    # a repeated sweep entry, also one equal only as a number
    with pytest.raises(ConfigError, match="sweep.tau_max.*repeats"):
        validate_config({"sweep.tau_max": "2,2"})
    with pytest.raises(ConfigError, match="sweep.alpha.*repeats"):
        validate_config({"sweep.alpha": "0.001,1e-3"})
    with pytest.raises(ConfigError, match="graph.p"):
        validate_config({"graph.p": "1.5"})
    with pytest.raises(ConfigError, match="run.engine"):
        validate_config({"run.engine": "warp-drive"})
    with pytest.raises(ConfigError, match="run.max_iters"):
        validate_config({"run.max_iters": "0"})
    with pytest.raises(ConfigError, match="run.record_every"):
        validate_config({"run.record_every": "0"})
    with pytest.raises(ConfigError, match="budget"):
        validate_config(
            {"sweep.tau_max": "1,2,3,4,5,6,7,8,9", "sweep.alpha": "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8",
             "sweep.budget": "8"}
        )


def test_every_numeric_key_has_a_rule_that_nan_and_negatives_fail():
    for key, (parser, _default, _help, rule) in CONFIG_KEYS.items():
        item = parser.args[0] if isinstance(parser, partial) else parser  # a sweep list's entries
        if item not in (int, float):
            continue
        assert rule is not None, key
        with pytest.raises(ConfigError, match=f"^key '{re.escape(key)}': "):
            validate_config({key: "nan" if item is float else "-1"})


def test_run_config_fields_are_the_run_keys():
    run_keys = {key for key in CONFIG_KEYS if key.startswith("run.")}
    assert {f"run.{f.name}" for f in fields(RunConfig)} == run_keys


def test_overrides_apply_after_load():
    cfg = load_config(None)
    cfg2 = apply_overrides(cfg, ["run.alpha=0.25", "graph.n=4"])
    assert cfg2.get("run.alpha") == 0.25
    assert cfg2.get("graph.n") == 4
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["bogus.key=1"])
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["run.alpha"])
    # a misspelt key is rejected on every path, not dropped
    with pytest.raises(ConfigError, match="unknown key 'run.alph'"):
        apply_overrides(cfg, ["run.alph=0.1"])
    with pytest.raises(ConfigError, match="unknown key 'run.alph'"):
        cfg.with_overrides(**{"run.alph": 0.1})
    with pytest.raises(ConfigError, match="unknown key 'run.alph'"):
        validate_config({"run.alph": "0.1"})


def test_config_file_loading(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("graph.n = 4\nrun.alpha = 0.002\n")
    cfg = load_config(str(path))
    assert cfg.get("graph.n") == 4
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "missing.cfg"))


def test_config_help_covers_every_key():
    text = "\n".join(config_help_lines())
    for key in ("graph.n", "delay.tau_max", "cost.type", "run.alpha", "sweep.budget"):
        assert key in text


def test_build_setting_static_and_switching():
    assert isinstance(build_setting(fast_config()), StaticSetting)
    plan = build_setting(fast_config(**{"switching.enabled": True}))
    assert isinstance(plan, SwitchingPlan)
    assert plan.period == 2


def test_b_connected_switching_mode_accepts_raw_topologies():
    """B-connected schedules use raw samples; the run proceeds even though
    single epochs may be disconnected (no certified rate in this regime)."""
    cfg = fast_config(
        **{
            "switching.enabled": True,
            "switching.mode": "b-connected",
            "graph.p": 0.3,
            "run.max_iters": 400,
            "run.tol": 1e-12,
        }
    )
    result = execute_run(cfg)
    # completes without faulting; divergence is a legitimate outcome here
    assert result.status in ("CONVERGED", "MAXITER", "DIVERGED")
    mass = result.trace["mass_error"]
    assert np.max(mass[np.isfinite(mass)]) < 1e-10


@pytest.mark.parametrize("switching", [False, True])
def test_run_result_carries_its_delay_bound_and_step_size(switching):
    cfg = fast_config(**{"delay.tau_max": 3, "run.alpha": 0.003, "run.max_iters": 20,
                         "switching.enabled": switching})
    result = execute_run(cfg)
    assert type(result.tau_max) is int and result.tau_max == cfg.get("delay.tau_max")
    assert type(result.alpha) is float and result.alpha == cfg.get("run.alpha")


def test_engine_selection_via_config():
    per_node = execute_run(fast_config())
    oracle = execute_run(fast_config(**{"run.engine": "augmented-oracle"}))
    assert per_node.status == oracle.status
    assert per_node.iters == oracle.iters
    gaps = per_node.trace["optimality_gap"] - oracle.trace["optimality_gap"]
    assert np.max(np.abs(gaps)) < 1e-12


def test_zero_delay_config_reduces_to_baseline():
    delayed = execute_run(fast_config(**{"delay.tau_max": 0}))
    baseline = execute_run(
        fast_config(**{"delay.tau_max": 0, "run.engine": "addopt-nodelay"})
    )
    assert delayed.status == baseline.status
    assert len(delayed.trace) == len(baseline.trace)
    for name in ("optimality_gap", "mse", "consensus_error"):
        assert np.array_equal(delayed.trace[name], baseline.trace[name])


def test_run_experiment_writes_traces_and_summary(tmp_path):
    cfg = fast_config(**{"sweep.tau_max": (0, 2), "sweep.alpha": (0.004,)})
    results = run_experiment(cfg, tmp_path)
    assert [(r.tau_max, r.alpha) for r in results] == [(0, 0.004), (2, 0.004)]
    assert [len(r.trace) for r in results] == [0, 0]  # the rows are in the files alone
    assert (tmp_path / "run_summary.csv").exists()
    assert (tmp_path / "run_graph.txt").exists()
    for tau in (0, 2):  # one delay map per swept bound, as that point ran it
        lines = (tmp_path / f"run_tau{tau}_delays.txt").read_text().splitlines()
        assert lines[0] == f"# tau_max={tau}"
        assert max(int(line.split()[2]) for line in lines[1:]) == tau
    assert not (tmp_path / "run_delays.txt").exists()
    for r in results:
        trace = tmp_path / f"run_tau{r.tau_max}_alpha{r.alpha!r}.csv"
        assert trace.exists()
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "iter,optimality_gap,mse,consensus_error,grad_tracker_sum_error,mass_error"
        final = lines[-1].split(",")
        assert int(final[0]) == r.iters
        assert float(final[1]) == r.final_gap
    summary_lines = (tmp_path / "run_summary.csv").read_text().strip().splitlines()
    assert summary_lines[0] == "tau_max,alpha,status,iters,final_gap,final_mse"
    assert len(summary_lines) == 3
    for line, r in zip(summary_lines[1:], results):  # each row is its result's fields
        tau, alpha, status, iters, gap, mse = line.split(",")
        assert (int(tau), float(alpha), status) == (r.tau_max, r.alpha, r.status)
        assert (int(iters), float(gap), float(mse)) == (r.iters, r.final_gap, r.final_mse)


def test_run_experiment_is_byte_deterministic(tmp_path):
    cfg = fast_config(**{"sweep.tau_max": (1, 2), "sweep.alpha": (0.003, 0.004)})
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    run_experiment(cfg, a_dir)
    run_experiment(cfg, b_dir)
    for path_a in sorted(a_dir.iterdir()):
        path_b = b_dir / path_a.name
        assert path_b.exists()
        assert path_a.read_bytes() == path_b.read_bytes()


def test_diverged_run_is_a_summary_row_not_an_error(tmp_path):
    cfg = load_config(None).with_overrides(
        **{"delay.tau_max": 15, "run.alpha": 0.005, "run.max_iters": 3000}
    )
    results = run_experiment(cfg, tmp_path)
    assert results[0].status == "DIVERGED"
    assert results[0].final_mse > 1e12


def test_compare_engines_columns_and_status_row(tmp_path):
    cfg = fast_config()
    results = compare_engines(cfg, tmp_path)
    text = (tmp_path / "run_compare.csv").read_text().strip().splitlines()
    assert text[0] == "iter,gap_delay_tolerant,gap_delay_free"
    assert text[-1] == f"status,{results['delayed'].status},{results['baseline'].status}"
    # both columns carry numbers on the first data row
    first = text[1].split(",")
    float(first[1]), float(first[2])


def test_compare_engines_zero_delay_columns_coincide(tmp_path):
    cfg = fast_config(**{"delay.tau_max": 0})
    compare_engines(cfg, tmp_path)
    lines = (tmp_path / "run_compare.csv").read_text().strip().splitlines()
    for line in lines[1:-1]:
        _, left, right = line.split(",")
        assert left == right


def test_compare_engines_divergent_column_is_marked(tmp_path):
    cfg = load_config(None).with_overrides(
        **{"delay.tau_max": 15, "run.alpha": 0.005, "run.max_iters": 3000}
    )
    results = compare_engines(cfg, tmp_path)
    assert results["delayed"].status == "DIVERGED"
    assert results["baseline"].status == "CONVERGED"
    last = (tmp_path / "run_compare.csv").read_text().strip().splitlines()[-1]
    assert last == "status,DIVERGED,CONVERGED"


def _count_calls(monkeypatch, module, name: str) -> list:
    """Wrap module.name so each call appends to the returned list."""
    calls, fn = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_compare_builds_the_problem_once(monkeypatch, tmp_path):
    built = _count_calls(monkeypatch, costs, "make_quadratic")
    compare_engines(fast_config(**{"run.max_iters": 20}), tmp_path)
    assert len(built) == 1


def test_compare_draws_its_network_once(monkeypatch, tmp_path):
    sampled = _count_calls(monkeypatch, graphs, "generate_erdos_renyi")
    weighted = [
        _count_calls(monkeypatch, module, "build_column_stochastic_weights")
        for module in (graphs, optimizer)
    ]
    compare_engines(fast_config(**{"run.max_iters": 20}), tmp_path)
    assert (len(sampled), sum(map(len, weighted))) == (1, 1)


def test_switching_compare_draws_no_delays_for_its_delay_free_leg(monkeypatch, tmp_path):
    cfg = fast_config(**{"switching.enabled": True, "switching.period": 3, "run.max_iters": 20})
    problem, plan = build_problem(cfg), build_setting(cfg)
    addopt = cfg.with_overrides(**{"run.engine": "addopt-nodelay"})
    alone = execute_run(addopt, problem, plan)  # the baseline on the delayed plan
    drawn = _count_calls(monkeypatch, optimizer, "assign_delays")  # where StaticSetting.draw looks
    results = compare_engines(cfg, tmp_path)
    modes = [args[2] for args in drawn]
    epochs = [1 + (results[leg].iters - 1) // 3 for leg in ("delayed", "baseline")]
    assert modes == ["uniform-random"] * epochs[0] + ["zero"] * epochs[1]
    assert results["baseline"].trace.tobytes() == alone.trace.tobytes()


def test_sweep_builds_problem_and_graph_once_and_runs_every_point(monkeypatch, tmp_path):
    built = _count_calls(monkeypatch, costs, "make_quadratic")
    sampled = _count_calls(monkeypatch, graphs, "generate_erdos_renyi")
    drawn = _count_calls(monkeypatch, optimizer, "assign_delays")  # where StaticSetting.draw looks
    points = _count_calls(monkeypatch, experiment, "execute_run")
    cfg = fast_config(**{"sweep.tau_max": (1, 2), "sweep.alpha": (0.003, 0.004), "run.max_iters": 20})
    run_experiment(cfg, tmp_path)
    assert (len(built), len(sampled), len(drawn), len(points)) == (1, 1, 2, 4)


def test_build_problem_selects_cost_family():
    assert type(build_problem(fast_config())) is costs._QuadraticProblem
    least_squares = fast_config(**{"cost.type": "least_squares", "cost.rows_per_agent": 4})
    assert type(build_problem(least_squares)) is costs._LeastSquaresProblem
    assert type(build_problem(fast_config(**{"cost.type": "logistic"}))) is costs._LogisticProblem
    assert type(build_problem(fast_config(**{"cost.type": "svm"}))) is costs._SvmProblem
