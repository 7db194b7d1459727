"""Benchmark runner: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload readme_sweep --seed 0 --seconds 18 --trace 0

Each operation runs in a fresh child process (`perfbench/child.py`), one
after the other (a closed loop, one client).  `--trace 0` measures the
end-to-end metrics, with a set-up process before each command; `--trace 1`
alternates untraced and traced commands and reports the per-layer metrics.  Human-readable lines go first; the last line
of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  See perfbench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from child import EXIT_NO_PACKAGE  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_REPS = 9  # set-up processes per timed run, at the least
# commands per timed run, at the least: a single sample would follow every
# burst of load on a shared machine
MIN_COMMANDS = 2
HARD_LIMIT_S = 170.0  # the whole run ends well inside 180 s
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

# per-layer metric -> unit; layer_metrics() says how each is read off a trace
PER_LAYER_UNITS = {
    "costs.grads_s": "s",
    "costs.grads_us": "us",
    "costs.gap_s": "s",
    "costs.gap_us": "us",
    "costs.build_s": "s",
    "costs.oracle_grad_calls": "count",
    "optimizer.step_self_s": "s",
    "optimizer.step_us": "us",
    "optimizer.mix_density": "ratio",
    "optimizer.mix_bytes_per_step": "B",
    "delays.slice_bytes": "B",
    "optimizer.set_topology_s": "s",
    "optimizer.set_topology_calls": "count",
    "optimizer.realize_s": "s",
    "graphs.build_s": "s",
    "graphs.build_calls": "count",
    "delays.assign_s": "s",
    "delays.slices_s": "s",
    "optimizer.run_self_s": "s",
    "optimizer.iters": "count",
    "spectral.limit_s": "s",
    "spectral.limit_calls": "count",
    "spectral.eig_s": "s",
    "spectral.mixing_s": "s",
    "spectral.report_self_s": "s",
    "spectral.aug_dim": "count",
    "experiment.write_s": "s",
    "experiment.trace_bytes": "B",
    "experiment.points": "count",
    "experiment.point_s_max": "s",
    "trace.overhead_frac": "ratio",
}

GRAPH_SPANS = (
    "graphs.generate_erdos_renyi",
    "graphs.generate_exponential_graph",
    "graphs.build_column_stochastic_weights",
    "graphs.graph_at",
    "graphs.load_edge_list",
)


def layer_metrics(summary: dict) -> dict[str, float]:
    """Per-layer metrics of one traced command (all but trace.overhead_frac)."""
    spans, counts, values = summary["spans"], summary["counts"], summary["values"]

    def span(name: str, field: str = "total_s") -> float:
        return float(spans.get(name, {}).get(field, 0.0))

    return {
        "costs.grads_s": span("costs.grads"),
        "costs.grads_us": span("costs.grads", "median_us"),
        "costs.gap_s": span("costs.gap"),
        "costs.gap_us": span("costs.gap", "median_us"),
        "costs.build_s": sum(span(n, "outer_s") for n in spans if n.startswith("costs.make_")),
        "costs.oracle_grad_calls": float(counts.get("costs.oracle_grad_calls", 0)),
        # step's only wrapped child is costs.grads, so its self time is step - grads
        "optimizer.step_self_s": span("optimizer.step", "self_s"),
        "optimizer.step_us": span("optimizer.step", "median_self_us"),
        "optimizer.mix_density": float(values.get("optimizer.mix_density", 0.0)),
        "optimizer.mix_bytes_per_step": float(values.get("optimizer.mix_bytes_per_step", 0.0)),
        "delays.slice_bytes": float(values.get("delays.slice_bytes", 0.0)),
        "optimizer.set_topology_s": span("optimizer.set_topology"),
        "optimizer.set_topology_calls": span("optimizer.set_topology", "calls"),
        "optimizer.realize_s": span("optimizer.realize"),
        "graphs.build_s": sum(span(n, "outer_s") for n in GRAPH_SPANS),
        "graphs.build_calls": sum(span(n, "outer_calls") for n in GRAPH_SPANS),
        "delays.assign_s": span("delays.assign_delays"),
        "delays.slices_s": span("delays.build_delay_slices"),
        "optimizer.run_self_s": span("optimizer.run", "self_s"),
        "optimizer.iters": float(counts.get("optimizer.iters", 0)),
        "spectral.limit_s": span("spectral.limit_matrix"),
        "spectral.limit_calls": span("spectral.limit_matrix", "calls"),
        "spectral.eig_s": span("spectral.spectral_radius"),
        "spectral.mixing_s": span("spectral.measure_mixing_constants"),
        "spectral.report_self_s": span("spectral.build_spectral_report", "self_s"),
        "spectral.aug_dim": float(values.get("spectral.aug_dim", 0.0)),
        "experiment.write_s": span("experiment.write_trace"),
        "experiment.trace_bytes": float(counts.get("experiment.trace_bytes", 0)),
        "experiment.points": float(counts.get("experiment.points", 0)),
        "experiment.point_s_max": float(values.get("experiment.point_s_max", 0.0)),
    }


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.t_end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.t_end - time.perf_counter()


@dataclass
class Proc:
    code: int
    wall: float  # s, launch to exit
    cpu: float  # s, user + system of the process and its threads
    rss: float  # MiB, peak resident set
    stdout: str
    stderr: str


def spawn(args: list[str], workdir: Path, limit: Deadline) -> Proc:
    """Run `python3 child.py <args>` to completion.  The child is killed if it
    would outlive the run's hard limit."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *args], stdout=out, stderr=err, cwd=workdir
        )
        killer = threading.Timer(max(limit.left(), 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:  # interrupted: take the child down with us
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        code=proc.returncode,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
    )


def environment() -> dict:
    import numpy

    sha = ""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy has no dict mode
        blas = "unknown"
    return {
        "git_sha": sha or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "machine": platform.machine(),
    }


class Runner:
    def __init__(self, workload: str, seed: int, workdir: Path, limit: Deadline) -> None:
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.workdir = workdir
        self.limit = limit
        self.reference = checks.load_reference().get(workload) if seed == DEFAULT_SEED else None
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []  # why operations failed
        self.samples: list[dict] = []  # one per command

    def setup_once(self) -> float:
        proc = spawn(["setup", "--", *self.wl.setup_pairs(self.seed)], self.workdir, self.limit)
        if proc.code != 0:
            raise SystemExit(f"perfbench: setup failed (exit {proc.code}): {proc.stderr.strip()[-2000:]}")
        return proc.wall

    def command(self, trace: bool) -> dict:
        """One command of the workload, checked; returns its sample."""
        out = self.workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        trace_file = self.workdir / "trace.json"
        trace_file.unlink(missing_ok=True)
        args = ["cli"] + (["--trace", str(trace_file)] if trace else [])
        args += ["--", *self.wl.argv(self.seed, str(out))]
        proc = spawn(args, self.workdir, self.limit)
        if proc.code == EXIT_NO_PACKAGE:
            raise SystemExit(f"perfbench: {proc.stderr.strip()}")
        try:
            verdicts = checks.check_command(
                self.wl, self.wl.config_pairs(self.seed), out, proc.code, proc.stdout, self.reference
            )
        finally:
            shutil.rmtree(out, ignore_errors=True)
        self.attempted += len(verdicts)
        for op, _, err in verdicts:
            if err is not None:
                self.failed += 1
                self.notes.append(f"{op}: {err}")
        if proc.code != 0:
            self.notes.append(f"stderr: {proc.stderr.strip()[-500:]}")
        sample = {
            "trace": trace,
            "wall": proc.wall,
            "cpu": proc.cpu,
            "rss": proc.rss,
            "iters": sum(facts.get("iters", 0) for _, facts, _ in verdicts if facts),
        }
        self.samples.append(sample)
        if trace and trace_file.is_file():
            sample["layers"] = layer_metrics(json.loads(trace_file.read_text()))
        return sample


def measure(runner: Runner, seconds: float, trace: bool) -> dict[str, dict]:
    runner.setup_once()  # warm-up: byte-compiles the package, not timed
    if not trace:
        # set-up processes alternate with the commands, so both sample the
        # machine over the whole run rather than one burst of it
        stop = Deadline(seconds)
        setup, runs = [], []
        while not runs or ((len(runs) < MIN_COMMANDS or stop.left() > 0) and runner.limit.left() > 0):
            setup.append(runner.setup_once())
            runs.append(runner.command(trace=False))
        while len(setup) < SETUP_REPS and runner.limit.left() > 0:
            setup.append(runner.setup_once())
        print(f"commands: {len(runs)}  setup processes: {len(setup)}")
        return {
            "wall_s": {"value": statistics.median(r["wall"] for r in runs), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["rss"] for r in runs), "unit": "MiB"},
        }
    plain, traced = [], []
    stop = Deadline(seconds)
    while not traced or (stop.left() > 0 and runner.limit.left() > 0):
        plain.append(runner.command(trace=False))
        traced.append(runner.command(trace=True))
    print(f"commands: {len(plain)} untraced, {len(traced)} traced")
    layers = [r["layers"] for r in traced if "layers" in r]
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name == "trace.overhead_frac":
            value = statistics.median(r["wall"] for r in traced) / statistics.median(r["wall"] for r in plain) - 1.0
        else:
            value = statistics.median(m[name] for m in layers) if layers else 0.0
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append this run (metrics, environment) as a JSON line to FILE")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "dtacopt" / "__init__.py").is_file():
        print(f"perfbench: no dtacopt package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    limit = Deadline(HARD_LIMIT_S)
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, args.seed, workdir, limit)
    try:
        metrics = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()

    env = environment()
    failed = runner.failed
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    print(f"why: {runner.wl.why}")
    for name, m in metrics.items():
        print(f"{name:<30} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':<30} {failed / max(runner.attempted, 1):.6g} ratio ({failed}/{runner.attempted} operations)")
    for line in runner.notes[:20]:
        print(f"FAILED {line}")
    print("env: " + json.dumps(env, sort_keys=True))
    if args.record:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "seconds": args.seconds,
            "env": env,
            **result,
            "samples": [{k: v for k, v in r.items() if k != "layers"} for r in runner.samples],
        }
        with open(args.record, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
