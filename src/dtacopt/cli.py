"""Command-line harness: run, sweep, spectral, check-bound, selftest.

Exit codes: 0 ok, 1 config error (a bad key or value, an unreadable input
file, an input too large for memory (`MemoryError`), a graph that cannot be
sampled strongly connected, or costs whose centralized oracle misses its
tolerance), 2 engine fault, 3 no certified step size (sigma >= 1, or a bound
that is not a finite positive number), 4 selftest failure.  `main` maps
errors to exit codes for every subcommand; `selftest` runs the suites of
`invariants.SUITES`, the one command that loads that module, and reports a
suite that raises as failed.  Human-readable status goes to stdout,
machine-readable data to files under --out, errors to stderr.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import costs, delays, graphs, optimizer, spectral
from .experiment import (
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    build_graph,
    build_problem,
    build_setting,
    compare_engines,
    config_help_lines,
    execute_run,
    load_config,
    run_experiment,
    write_trace,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ENGINE = 2
EXIT_NO_STEP_SIZE = 3
EXIT_SELFTEST = 4


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    return apply_overrides(cfg, args.set or [])


def cmd_run(args) -> int:
    cfg = _load(args)
    problem, setting = build_problem(cfg), build_setting(cfg)  # before any write
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    result = execute_run(cfg, problem, setting)
    tag = cfg.get("experiment.tag")
    trace_path = outdir / f"{tag}_trace.csv"
    write_trace(result.trace, trace_path)
    print(result.status_line())
    print(f"trace: {trace_path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    for r in run_experiment(_load(args), args.out):
        print(
            f"tau_max={r.tau_max} alpha={r.alpha!r} {r.status} "
            f"iters={r.iters} final_gap={r.final_gap!r}"
        )
    return EXIT_OK


def cmd_compare(args) -> int:
    results = compare_engines(_load(args), args.out)
    print("delay-tolerant: " + results["delayed"].status_line())
    print("delay-free:     " + results["baseline"].status_line())
    return EXIT_OK


def _inputs(args):
    """Resolve the graph (from --graph-file, else the config) and the delays
    (from --delay-file, else drawn on that graph from the config), and build
    the problem on that many nodes.  Returns (cfg, setting, problem).  A
    certificate covers one fixed topology, so a switching config is refused."""
    cfg = _load(args)
    if cfg.get("switching.enabled"):
        raise ConfigError(
            f"{args.command} certifies one fixed topology; set switching.enabled=false"
        )
    if args.graph_file:
        g = graphs.load_edge_list(args.graph_file)
        if not g.strongly_connected:
            raise ConfigError("graph file is not strongly connected")
    else:
        g = build_graph(cfg)
    if args.delay_file:
        setting = optimizer.StaticSetting(
            graphs.build_column_stochastic_weights(g), delays.load_delay_map(args.delay_file)
        )
    else:
        setting = optimizer.StaticSetting.draw(
            g, cfg.get("delay.tau_max"), cfg.get("delay.mode"), cfg.get("delay.seed")
        )
    return cfg, setting, build_problem(cfg.with_overrides(**{"graph.n": g.n}))


def _bound(cert: spectral.Certificate, problem) -> tuple:
    """(bound, "") for a certified step size, else (None, the reason)."""
    try:
        return spectral.step_size_bound(cert, problem.l, problem.s), ""
    except ValueError as exc:
        return None, str(exc)


def cmd_spectral(args) -> int:
    _cfg, setting, problem = _inputs(args)
    report = spectral.build_spectral_report(setting.weights, setting.delays)
    bound, reason = _bound(report.certificate, problem)
    names = ("delta", "theta", "alpha3", "cap", "admissible_max")
    pairs = [(k, getattr(bound, k)) for k in names] if bound is not None else []
    for line in report.lines():
        print(line)
    for k, v in pairs:  # the table says `admissible`, the record `admissible_max`
        print(f"{k.removesuffix('_max'):<13}  {v!r}")
    if args.record:
        print(report.record() + "".join(f" {k}={v!r}" for k, v in pairs))
    if bound is None:
        print(f"no certified step size: {reason}", file=sys.stderr)
        return EXIT_NO_STEP_SIZE
    return EXIT_OK


def cmd_check_bound(args) -> int:
    """The certificate alone: no diagnostics, so no N x N 2-norm."""
    cfg, setting, problem = _inputs(args)
    aug = delays.build_augmented_matrix(setting.weights, setting.delays)
    bound, reason = _bound(spectral.certify(aug), problem)
    if bound is None:
        print(f"no certified step size: {reason}", file=sys.stderr)
        return EXIT_NO_STEP_SIZE
    alpha = cfg.get("run.alpha")
    verdict = "CERTIFIED" if bound.certifies(alpha) else "UNCERTIFIED"
    print(f"alpha={alpha!r} admissible_max={bound.admissible_max!r} {verdict}")
    if verdict == "UNCERTIFIED":
        print(
            "note: alpha outside the certified interval; convergence is "
            "not guaranteed by the bound (it may still converge)",
        )
    return EXIT_OK


def run_selftest() -> tuple[bool, list[str]]:
    from . import invariants  # here, so that no other command loads the catalogue

    lines = []
    all_ok = True
    for name, suite in invariants.SUITES.items():
        t0 = time.perf_counter()
        try:
            suite()
            status = "PASS"
        except AssertionError as exc:
            status = f"FAIL ({exc})"
            all_ok = False
        # a suite that raises is a failed suite, not a config error
        except Exception as exc:
            status = f"FAIL ({type(exc).__name__}: {exc})"
            all_ok = False
        dt = time.perf_counter() - t0
        lines.append(f"SUITE {name:<22} {status}  [{dt:.2f}s]")
    return all_ok, lines


def cmd_selftest(args) -> int:
    ok, lines = run_selftest()
    for line in lines:
        print(line)
    if not ok:
        failing = [ln.split()[1] for ln in lines if "FAIL" in ln]
        print(f"selftest failed: {', '.join(failing)}", file=sys.stderr)
        return EXIT_SELFTEST
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    epilog = "config keys:\n" + "\n".join(config_help_lines())
    fmt = argparse.RawDescriptionHelpFormatter
    parser = argparse.ArgumentParser(
        prog="dtacopt",
        description="Delay-tolerant distributed optimization over digraphs",
        epilog=epilog,
        formatter_class=fmt,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text in (
        ("run", cmd_run, "single run"),
        ("sweep", cmd_sweep, "tau_max x alpha sweep"),
        ("compare", cmd_compare, "delayed run vs delay-free baseline"),
        ("spectral", cmd_spectral, "spectral report and step-size bound"),
        ("check-bound", cmd_check_bound,
         "check the configured alpha against the certified interval"),
    ):
        p = sub.add_parser(name, help=help_text, epilog=epilog, formatter_class=fmt)
        p.add_argument("--config", help="experiment config file (flat key = value)")
        p.add_argument(
            "--set",
            action="append",
            metavar="K=V",
            help="override a config key (repeatable), e.g. --set run.alpha=0.001",
        )
        p.add_argument("--out", default="out", help="output directory")
        if name in ("spectral", "check-bound"):
            p.add_argument("--graph-file", help="edge list `j i` per line")
            p.add_argument(
                "--delay-file",
                help=(
                    "delay list `j i tau` per line; tau_max is its `# tau_max=<t>` "
                    "first line, else its largest delay"
                ),
            )
        p.set_defaults(func=func)
    sub.choices["spectral"].add_argument(
        "--record", action="store_true", help="also print a single-line record"
    )
    sub.add_parser("selftest", help="run the built-in invariant suites").set_defaults(
        func=cmd_selftest
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except optimizer.EngineFault as exc:
        print(f"engine fault: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    # ValueError covers ConfigError and numpy's LinAlgError; MemoryError an
    # input whose arrays are larger than memory
    except (ValueError, OSError, MemoryError, graphs.RetryBudgetError, costs.OracleError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
