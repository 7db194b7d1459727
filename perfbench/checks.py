"""Correctness checks on a command's outputs.

Every operation of a command (one sweep point, one compare leg, one run, one
spectral report) gets a verdict.  Two kinds of check apply:

* Self-consistency, on every seed: exit code, STATUS lines against the files,
  status against the stopping rule (`CONVERGED` only below `run.tol`,
  `DIVERGED` only past the divergence guard, `MAXITER` only at the cap),
  one trace row per iteration, a nonnegative optimality gap, and the trace
  invariants `mass_error <= 1e-9` and `grad_tracker_sum_error <= 1e-7` on
  every row that has not diverged (finite `mse` below 1e6).  The spectral
  report must show a column-stochastic augmentation (`rho_C`, `rho_Cbar`,
  `bound` within 1e-9 of 1), `0 < sigma < 1`, `sigma_norm2 >= 1` and a
  positive certified step size.
* On the default seed, agreement with `reference.json` (recorded from the
  package as first benchmarked): same exit code and statuses; iteration
  counts within 1 (the ROADMAP allows 1e-12-relative drift in traces, which
  can move a tolerance crossing by one step); when the counts are equal,
  final gap and MSE within 1e-6 relative.  Spectral fields must agree within
  1e-9 relative, except the fitted `gamma1`/`envelope_T` (1e-3: the fit's
  sample set depends on gaps crossing 1e-13).  The sweep's `_delays.txt` is
  not checked: it is written at the base `tau_max`, a known defect whose fix
  must not count as a failure.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

TRACE_HEADER = "iter,optimality_gap,mse,consensus_error,grad_tracker_sum_error,mass_error"
DIVERGENCE_MSE = 1e12  # optimizer.RunConfig.divergence_mse
CLI_DEFAULT_TOL = 1e-10  # run.tol
CLI_DEFAULT_MAX_ITERS = 20000  # run.max_iters
SETTLED_MSE = 1e6  # rows above this are diverging; invariants are not checked there
MASS_TOL = 1e-9
TRACKER_TOL = 1e-7
GAP_FLOOR = -1e-8
ITERS_SLACK = 1
FINAL_RTOL = 1e-6
SPECTRAL_RTOL = 1e-9
SPECTRAL_FIT_RTOL = 1e-3
SPECTRAL_FIT_FIELDS = ("gamma1", "envelope_T")

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

_STATUS = re.compile(r"STATUS (CONVERGED|DIVERGED|MAXITER) iters=(\d+) final_gap=(\S+)")
_SWEEP = re.compile(
    r"tau_max=(\d+) alpha=(\S+) (CONVERGED|DIVERGED|MAXITER) iters=(\d+) final_gap=(\S+)"
)


class CheckError(Exception):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def _close(a: float, b: float, rtol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b)) or a == b


def _settings(pairs: list[str]) -> dict[str, str]:
    return dict(p.split("=", 1) for p in pairs)


def read_trace(path: Path) -> list[list[float]]:
    lines = path.read_text().splitlines()
    _require(bool(lines) and lines[0] == TRACE_HEADER, f"{path.name}: bad trace header")
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def check_trace(path: Path, status: str, iters: int, final_gap: float, tol: float, max_iters: int) -> dict:
    """Self-consistency of one run's trace; returns the facts the reference
    comparison uses."""
    rows = read_trace(path)
    _require(len(rows) == iters + 1, f"{path.name}: {len(rows)} rows for {iters} iterations")
    _require(all(int(r[0]) == k for k, r in enumerate(rows)), f"{path.name}: iterations not consecutive")
    last = rows[-1]
    _require(last[1] == final_gap, f"{path.name}: last gap {last[1]!r} != reported {final_gap!r}")
    for r in rows[:-1]:
        _require(r[1] >= tol, f"{path.name}: gap below tol before the end (iter {int(r[0])})")
        _require(math.isfinite(r[2]) and r[2] <= DIVERGENCE_MSE, f"{path.name}: diverged before the end")
    if status == "CONVERGED":
        _require(last[1] < tol, f"{path.name}: CONVERGED with gap {last[1]!r} >= tol")
    elif status == "DIVERGED":
        _require(not math.isfinite(last[2]) or last[2] > DIVERGENCE_MSE, f"{path.name}: DIVERGED below the guard")
    else:
        _require(iters == max_iters and last[1] >= tol, f"{path.name}: MAXITER before the cap")
    for r in rows:
        if not (math.isfinite(r[2]) and r[2] <= SETTLED_MSE):
            continue
        _require(r[1] >= GAP_FLOOR, f"{path.name}: negative optimality gap {r[1]!r} at iter {int(r[0])}")
        _require(r[5] <= MASS_TOL, f"{path.name}: mass_error {r[5]!r} at iter {int(r[0])}")
        _require(r[4] <= TRACKER_TOL, f"{path.name}: grad_tracker_sum_error {r[4]!r} at iter {int(r[0])}")
    return {"status": status, "iters": iters, "final_gap": last[1], "final_mse": last[2], "rows": len(rows)}


def _compare_run(ref: dict, got: dict, what: str) -> None:
    _require(got["status"] == ref["status"], f"{what}: status {got['status']} != reference {ref['status']}")
    _require(
        abs(got["iters"] - ref["iters"]) <= ITERS_SLACK,
        f"{what}: {got['iters']} iterations, reference {ref['iters']}",
    )
    if got["iters"] == ref["iters"]:
        for key in ("final_gap", "final_mse"):
            if key in ref:
                _require(_close(got[key], ref[key], FINAL_RTOL), f"{what}: {key} {got[key]!r} vs reference {ref[key]!r}")


# -- per-command checks: each returns a list of (operation, facts, error) --
def _ops_sweep(pairs: list[str], out: Path, stdout: str):
    cfg = _settings(pairs)
    tol, max_iters = float(cfg["run.tol"]), int(cfg["run.max_iters"])
    taus = [int(t) for t in cfg["sweep.tau_max"].split(",")]
    alphas = [float(a) for a in cfg["sweep.alpha"].split(",")]
    printed = {(int(m[1]), float(m[2])): m for m in _SWEEP.finditer(stdout)}
    summary = (out / "run_summary.csv").read_text().splitlines()
    _require(summary[0] == "tau_max,alpha,status,iters,final_gap,final_mse", "bad summary header")
    rows = {(int(r[0]), float(r[1])): r for r in (line.split(",") for line in summary[1:])}
    results = []
    for tau in taus:
        for alpha in alphas:
            op = f"tau_max={tau},alpha={alpha!r}"
            try:
                _require((tau, alpha) in printed and (tau, alpha) in rows, f"{op}: missing from output")
                m, row = printed[(tau, alpha)], rows[(tau, alpha)]
                status, iters, gap = m[3], int(m[4]), float(m[5])
                _require(row[2] == status and int(row[3]) == iters and float(row[4]) == gap, f"{op}: summary disagrees with stdout")
                facts = check_trace(out / f"run_tau{tau}_alpha{alpha!r}.csv", status, iters, gap, tol, max_iters)
                _require(float(row[5]) == facts["final_mse"], f"{op}: summary mse disagrees with trace")
                results.append((op, facts, None))
            except (CheckError, OSError, ValueError, IndexError) as exc:
                results.append((op, None, str(exc)))
    return results


def _ops_run(pairs: list[str], out: Path, stdout: str):
    cfg = _settings(pairs)
    tol = float(cfg.get("run.tol", CLI_DEFAULT_TOL))
    max_iters = int(cfg.get("run.max_iters", CLI_DEFAULT_MAX_ITERS))
    try:
        m = _STATUS.search(stdout)
        _require(m is not None, "no STATUS line")
        facts = check_trace(out / "run_trace.csv", m[1], int(m[2]), float(m[3]), tol, max_iters)
        return [("run", facts, None)]
    except (CheckError, OSError, ValueError) as exc:
        return [("run", None, str(exc))]


def _ops_compare(pairs: list[str], out: Path, stdout: str):
    cfg = _settings(pairs)
    tol = float(cfg["run.tol"])
    legs = (("delayed", "delay-tolerant:"), ("baseline", "delay-free:"))
    try:
        lines = (out / "run_compare.csv").read_text().splitlines()
        _require(lines[0] == "iter,gap_delay_tolerant,gap_delay_free", "bad compare header")
        status_row = lines[-1].split(",")
        _require(status_row[0] == "status", "no status row")
        cols = [[], []]
        for line in lines[1:-1]:
            it, left, right = line.split(",")
            _require(int(it) == len(cols[0]) or int(it) == len(cols[1]), "compare rows not consecutive")
            for c, v in ((0, left), (1, right)):
                if v:
                    cols[c].append(float(v))
    except (CheckError, OSError, ValueError, IndexError) as exc:
        return [(leg, None, f"compare csv: {exc}") for leg, _ in legs]
    results = []
    for c, (leg, prefix) in enumerate(legs):
        try:
            m = re.search(re.escape(prefix) + r"\s+" + _STATUS.pattern, stdout)
            _require(m is not None, f"{leg}: no STATUS line")
            status, iters, gap = m[1], int(m[2]), float(m[3])
            _require(status_row[1 + c] == status, f"{leg}: csv status disagrees")
            gaps = cols[c]
            _require(len(gaps) == iters + 1, f"{leg}: {len(gaps)} gaps for {iters} iterations")
            _require(gaps[-1] == gap, f"{leg}: last gap disagrees with STATUS")
            _require(all(g >= tol for g in gaps[:-1]), f"{leg}: gap below tol before the end")
            _require(status != "CONVERGED" or gap < tol, f"{leg}: CONVERGED above tol")
            _require(all(g >= GAP_FLOOR for g in gaps if math.isfinite(g)), f"{leg}: negative gap")
            results.append((leg, {"status": status, "iters": iters, "final_gap": gap}, None))
        except (CheckError, ValueError) as exc:
            results.append((leg, None, str(exc)))
    d, b = results[0][1], results[1][1]
    if d and b and d["status"] == b["status"] == "CONVERGED" and not d["iters"] > b["iters"]:
        results[0] = ("delayed", None, "delayed run converged no later than the delay-free one")
    return results


def parse_record(stdout: str) -> dict[str, float]:
    line = next(ln for ln in stdout.splitlines() if ln.startswith("n=") and " tau_max=" in ln)
    return {k: float(v) for k, v in (kv.split("=", 1) for kv in line.split())}


def _ops_spectral(pairs: list[str], out: Path, stdout: str):
    cfg = _settings(pairs)
    try:
        rec = parse_record(stdout)
        _require(rec["n"] == int(cfg["graph.n"]) and rec["tau_max"] == int(cfg["delay.tau_max"]), "wrong size")
        for key in ("rho_C", "rho_Cbar", "bound"):
            _require(abs(rec[key] - 1.0) <= 1e-9, f"{key}={rec[key]!r} is not 1")
        _require(0.0 < rec["sigma"] < 1.0, f"sigma={rec['sigma']!r} outside (0, 1)")
        _require(rec["sigma_norm2"] >= 1.0 - 1e-12, f"sigma_norm2={rec['sigma_norm2']!r} < 1")
        _require(rec.get("admissible_max", 0.0) > 0.0, "no certified step size")
        return [("spectral", rec, None)]
    except (CheckError, StopIteration, ValueError, KeyError) as exc:
        return [("spectral", None, f"spectral record: {exc!r}")]


OPS = {"sweep": _ops_sweep, "run": _ops_run, "compare": _ops_compare, "spectral": _ops_spectral}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.is_file() else {}


def check_command(wl, pairs: list[str], out: Path, exit_code: int, stdout: str, reference: dict | None):
    """Verdicts for every operation of one command: a list of (op, facts, error).

    `reference` is this workload's entry of reference.json, or None to skip
    the reference comparison (seeds other than the default)."""
    if exit_code != 0:
        return [(f"op{k}", None, f"exit code {exit_code}") for k in range(wl.ops)]
    try:
        results = OPS[wl.command](pairs, out, stdout)
    except (CheckError, OSError, ValueError, IndexError) as exc:
        return [(f"op{k}", None, f"unreadable output: {exc}") for k in range(wl.ops)]
    if len(results) != wl.ops:
        return [(f"op{k}", None, f"{len(results)} operations, expected {wl.ops}") for k in range(wl.ops)]
    if reference is None:
        return results
    checked = []
    for op, facts, err in results:
        if err is None:
            try:
                _require(op in reference, f"{op}: not in reference")
                if wl.command == "spectral":
                    for key, ref_v in reference[op].items():
                        rtol = SPECTRAL_FIT_RTOL if key in SPECTRAL_FIT_FIELDS else SPECTRAL_RTOL
                        _require(key in facts and _close(facts[key], ref_v, rtol), f"{key}={facts.get(key)!r} vs reference {ref_v!r}")
                else:
                    _compare_run(reference[op], facts, op)
            except CheckError as exc:
                err = str(exc)
        checked.append((op, facts, err))
    return checked
