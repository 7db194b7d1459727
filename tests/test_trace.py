"""A run's trace: the rows `run()` keeps, their memory, and the text that
`write_trace` and `compare_engines` make of them."""

import math
import tracemalloc

import numpy as np
import pytest

from dtacopt import costs, graphs
from dtacopt.experiment import compare_engines, load_config, write_trace
from dtacopt.optimizer import (
    TRACE_DTYPE,
    TRACE_HEADER,
    RunConfig,
    StaticSetting,
    TraceRecord,
    run,
)


def as_csv_row(rec: TraceRecord) -> str:
    """A row's text as the frozen-dataclass trace rows printed it, field by
    field with an f-string's `!r`."""
    return (
        f"{rec.iter!r},{rec.optimality_gap!r},{rec.mse!r},"
        f"{rec.consensus_error!r},{rec.grad_tracker_sum_error!r},{rec.mass_error!r}"
    )


def small_run(max_iters, record_every=1, tol=0.0, alpha=0.01):
    setting = StaticSetting.draw(graphs.generate_erdos_renyi(2, 1.0, 5), 1, "uniform-random", 6)
    config = RunConfig(alpha, max_iters, tol, record_every, "per-node", 3)
    return run(config, setting, costs.make_quadratic(2, 1, 7))


def test_a_row_takes_48_bytes_in_the_header_order():
    assert TRACE_DTYPE.itemsize == 48
    assert ",".join(TRACE_DTYPE.names) == TRACE_HEADER
    assert TRACE_DTYPE["iter"] == np.int64


EDGE_ROWS = [
    TraceRecord(0, math.inf, math.nan, -0.0, 5e-324, 0.0),
    TraceRecord(2**53 + 1, -math.inf, -math.nan, 1e308, 2.2250738585072014e-308, -5e-324),
    TraceRecord(2**63 - 1, 0.1, 1 / 3, -1e-300, 123456789.0, 1e16),
]


def test_writer_prints_each_field_as_the_dataclass_rows_did(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace(np.array(EDGE_ROWS, TRACE_DTYPE), path)
    expected = [TRACE_HEADER] + [as_csv_row(rec) for rec in EDGE_ROWS]
    assert path.read_text() == "\n".join(expected) + "\n"
    assert path.read_text().splitlines()[1:3] == [
        "0,inf,nan,-0.0,5e-324,0.0",
        "9007199254740993,-inf,nan,1e+308,2.2250738585072014e-308,-5e-324",
    ]


def test_writer_prints_a_run_as_its_rows(tmp_path):
    result = small_run(40, record_every=3)
    path = tmp_path / "trace.csv"
    write_trace(result.trace, path)
    rows = [TraceRecord(*row.item()) for row in result.trace]
    assert path.read_text().splitlines() == [TRACE_HEADER] + [as_csv_row(r) for r in rows]


@pytest.mark.parametrize(
    "max_iters, expected",
    [(30, [0, 7, 14, 21, 28, 30]), (28, [0, 7, 14, 21, 28]), (1, [0, 1])],
)
def test_run_keeps_its_final_row_off_the_cadence(max_iters, expected):
    result = small_run(max_iters, record_every=7)
    assert result.trace["iter"].tolist() == expected
    assert result.trace["optimality_gap"][-1] == result.final_gap
    assert result.trace["mse"][-1] == result.final_mse


def test_converged_run_keeps_its_final_row_off_the_cadence():
    # no allocation is sized by max_iters, so a cap of 10**12 costs nothing
    result = small_run(10**12, record_every=50, tol=1e-6)
    assert result.status == "CONVERGED" and result.iters % 50
    assert result.trace["iter"].tolist() == [*range(0, result.iters, 50), result.iters]
    assert result.trace["optimality_gap"][-1] == result.final_gap < 1e-6


def test_trace_memory_is_48_bytes_a_row_and_grows_geometrically():
    """Held: the rows and the array's header.  Peak: the rows, and their
    room to grow into before the trace is trimmed to them."""
    small_run(10)  # warm caches, so they are not charged to the run
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = small_run(12_000, alpha=1e-5)  # far from converged
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = len(result.trace)
    assert rows == 12_001 and result.trace.nbytes == 48 * rows
    assert (held - before) / rows <= 56
    assert (peak - before) / rows <= 150


def _compare_lines(delayed: np.ndarray, baseline: np.ndarray) -> list[str]:
    """The compare CSV's gap rows as the set-and-dicts construction built
    them: the union of both legs' iterations, sorted, and each leg's gap at
    it or an empty cell."""
    iters = sorted(set(delayed["iter"].tolist()) | set(baseline["iter"].tolist()))
    d_map = dict(zip(delayed["iter"].tolist(), delayed["optimality_gap"].tolist()))
    b_map = dict(zip(baseline["iter"].tolist(), baseline["optimality_gap"].tolist()))
    lines = []
    for it in iters:
        left = repr(d_map[it]) if it in d_map else ""
        right = repr(b_map[it]) if it in b_map else ""
        lines.append(f"{it},{left},{right}")
    return lines


@pytest.mark.parametrize("extra", [{}, {"switching.enabled": True, "run.tol": 1e-7}])
def test_compare_merges_legs_that_stop_at_different_iterations(tmp_path, extra):
    cfg = load_config(None).with_overrides(
        **{"graph.n": 6, "cost.dim": 3, "delay.tau_max": 3, "run.alpha": 0.004,
           "run.tol": 1e-8, "run.record_every": 7, **extra}
    )
    results = compare_engines(cfg, tmp_path)
    delayed, baseline = results["delayed"], results["baseline"]
    assert delayed.status == baseline.status == "CONVERGED"
    # each leg ends off the cadence, and the two end apart
    assert delayed.iters % 7 and baseline.iters % 7 and delayed.iters != baseline.iters
    lines = (tmp_path / "run_compare.csv").read_text().splitlines()
    assert lines[0] == "iter,gap_delay_tolerant,gap_delay_free"
    assert lines[1:-1] == _compare_lines(delayed.trace, baseline.trace)
    assert lines[-1] == "status,CONVERGED,CONVERGED"
