"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload is traced in a shrunken form (its `quick_overrides`) to show
that the spans meant to load on it fire; the checks are shown to reject
outputs that break an invariant or the stopping rule.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from run import PER_LAYER_UNITS, ROOT, layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def traced(workload: str, tmp_path: Path) -> dict[str, float]:
    wl = WORKLOADS[workload]
    trace = tmp_path / "trace.json"
    argv = wl.argv(DEFAULT_SEED, str(tmp_path / "out"), quick=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "cli", "--trace", str(trace), "--", *argv],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    return layer_metrics(json.loads(trace.read_text()))


# workload -> per-layer metrics that must be positive on it
EXPECTED = {
    "readme_sweep": (
        "experiment.write_s", "experiment.trace_bytes", "experiment.point_s_max",
        "costs.grads_s", "costs.gap_s", "optimizer.step_self_s", "optimizer.run_self_s",
        "optimizer.iters",
    ),
    "logistic_compare": (
        "costs.oracle_grad_calls", "costs.build_s", "costs.grads_us", "costs.gap_us",
        "optimizer.iters",
    ),
    "spectral_report": (
        "spectral.limit_calls", "spectral.limit_s", "spectral.eig_s", "spectral.mixing_s",
        "spectral.report_self_s", "spectral.aug_dim", "graphs.build_calls", "delays.slices_s",
    ),
    "large_sparse": (
        "optimizer.mix_density", "optimizer.mix_bytes_per_step", "delays.slice_bytes",
        "optimizer.step_us", "delays.assign_s", "graphs.build_s",
    ),
    "switching_topology": (
        "optimizer.set_topology_calls", "optimizer.set_topology_s", "optimizer.realize_s",
        "graphs.build_calls", "delays.assign_s", "delays.slices_s",
    ),
}


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_spans_fire_on_their_workload(workload, tmp_path):
    metrics = traced(workload, tmp_path)
    assert set(metrics) | {"trace.overhead_frac"} == set(PER_LAYER_UNITS)
    silent = [name for name in EXPECTED[workload] if not metrics[name] > 0]
    assert not silent, f"spans silent on {workload}: {silent}"
    if workload == "readme_sweep":
        assert metrics["experiment.points"] == 8
    if workload == "spectral_report":
        assert metrics["spectral.aug_dim"] == 20 * (3 + 1)  # quick: n=20, tau_max=3
        assert metrics["costs.grads_s"] == 0 and metrics["optimizer.iters"] == 0
    if workload == "switching_topology":
        assert metrics["optimizer.set_topology_calls"] >= 40 // 2
    if workload == "large_sparse":
        n, tau = 200, 10
        assert metrics["delays.slice_bytes"] == (tau + 1) * n * n * 8


def test_every_binding_is_rebound():
    code = """
import sys
sys.path.insert(0, sys.argv[1]); sys.path.insert(0, sys.argv[2])
import tracer as t
tr = t.install(t.Tracer())
from dtacopt import cli, costs, experiment, optimizer
for obj in (costs._QuadraticProblem.grads, costs.GlobalProblem.grads, optimizer.build_delay_slices,
            optimizer.build_augmented_matrix, optimizer.build_column_stochastic_weights,
            optimizer.assign_delays, cli.build_problem, cli.run_experiment, experiment.execute_run,
            optimizer.DtacEngine.set_topology, optimizer.SwitchingPlan.realize):
    assert hasattr(obj, "__perfbench_original__"), obj
print(len(tr.wrapped))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code, str(HERE), str(HERE.parent / "src")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 40


def _trace_file(tmp_path: Path, rows: list[tuple]) -> Path:
    path = tmp_path / "t.csv"
    lines = [checks.TRACE_HEADER] + [",".join(repr(v) for v in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_checks_accept_a_consistent_trace(tmp_path):
    path = _trace_file(tmp_path, [(0, 1.0, 1.0, 0.1, 0.0, 0.0), (1, 1e-11, 1e-9, 1e-6, 1e-15, 1e-15)])
    facts = checks.check_trace(path, "CONVERGED", 1, 1e-11, 1e-10, 100)
    assert facts["rows"] == 2


@pytest.mark.parametrize(
    "rows,status,why",
    [
        ([(0, 1.0, 1.0, 0.1, 0.0, 0.0), (1, 1e-11, 1e-9, 1e-6, 0.0, 1e-6)], "CONVERGED", "mass_error"),
        ([(0, 1.0, 1.0, 0.1, 0.0, 0.0), (1, 1e-11, 1e-9, 1e-6, 1e-3, 0.0)], "CONVERGED", "grad_tracker"),
        ([(0, 1.0, 1.0, 0.1, 0.0, 0.0), (1, 1e-9, 1e-9, 1e-6, 0.0, 0.0)], "CONVERGED", ">= tol"),
        ([(0, 1.0, 1.0, 0.1, 0.0, 0.0), (1, 0.5, 2.0, 1e-6, 0.0, 0.0)], "DIVERGED", "below the guard"),
        ([(0, 1.0, 1.0, 0.1, 0.0, 0.0), (1, -1e-3, 1e-9, 1e-6, 0.0, 0.0)], "MAXITER", "MAXITER"),
    ],
)
def test_checks_reject_broken_traces(tmp_path, rows, status, why):
    path = _trace_file(tmp_path, rows)
    with pytest.raises(checks.CheckError, match=why):
        checks.check_trace(path, status, 1, rows[-1][1], 1e-10, 100)


def test_reference_mismatch_is_a_failure():
    ref = {"status": "CONVERGED", "iters": 100, "final_gap": 1e-9, "final_mse": 1e-10}
    checks._compare_run(ref, dict(ref, iters=101), "ok")  # one step of drift is allowed
    with pytest.raises(checks.CheckError):
        checks._compare_run(ref, dict(ref, iters=103), "iters")
    with pytest.raises(checks.CheckError):
        checks._compare_run(ref, dict(ref, final_gap=2e-9), "gap")
    with pytest.raises(checks.CheckError):
        checks._compare_run(ref, dict(ref, status="DIVERGED"), "status")


def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_dispatch_tables_are_rebound_and_tuples_refused():
    code = """
import sys
sys.path.insert(0, sys.argv[1]); sys.path.insert(0, sys.argv[2])
import tracer as t
from dtacopt import costs
costs.DISPATCH = {"quadratic": costs.make_quadratic}  # rebound in place
costs.FROZEN = (costs.make_logistic,)  # cannot be rebound: refused
try:
    t.install(t.Tracer())
except t.MissedBinding as exc:
    print(exc)
assert hasattr(costs.DISPATCH["quadratic"], "__perfbench_original__")
"""
    proc = subprocess.run(
        [sys.executable, "-c", code, str(HERE), str(HERE.parent / "src")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "dtacopt.costs.FROZEN" in proc.stdout
