"""Command-line harness: run, sweep, spectral, check-bound, selftest.

Exit codes: 0 ok, 1 config error (a bad key or value, an unreadable input
file, a graph that cannot be sampled strongly connected, or costs whose
centralized oracle misses its tolerance), 2 engine fault, 3 no certified step
size (sigma >= 1, or a bound that is not a finite positive number), 4
selftest failure.  `main` maps errors to exit codes for every subcommand;
`selftest` reports a suite that raises as failed.  Human-readable status goes
to stdout, machine-readable data to files under --out, errors to stderr.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

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
from .optimizer import EngineFault, StaticSetting

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
    write_trace(result.records, trace_path)
    print(result.status_line())
    print(f"trace: {trace_path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    summaries = run_experiment(_load(args), args.out)
    for s in summaries:
        print(
            f"tau_max={s.tau_max} alpha={s.alpha!r} {s.status} "
            f"iters={s.iters} final_gap={s.final_gap!r}"
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
        if not graphs.is_strongly_connected(g):
            raise ConfigError("graph file is not strongly connected")
    else:
        g = build_graph(cfg)
    if args.delay_file:
        setting = StaticSetting(
            graphs.build_column_stochastic_weights(g), delays.load_delay_map(args.delay_file)
        )
    else:
        setting = StaticSetting.draw(
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


def _suite_weights() -> None:
    for seed in (7, 8):
        g = graphs.generate_erdos_renyi(8, 0.4, seed)
        entries = graphs.build_column_stochastic_weights(g).entries
        colsums = entries.sum(axis=0)
        if np.max(np.abs(colsums - 1.0)) > 1e-12:
            raise AssertionError("weight matrix columns drifted from 1")
        diag = np.diag(entries)
        if np.any(diag <= 0):
            raise AssertionError("weight diagonal must stay positive")
        if not np.all(entries[g.dst, g.src]):
            raise AssertionError("missing weight on an edge")


def _suite_gradients() -> None:
    probs = [
        costs.make_quadratic(3, 4, 0),
        costs.make_least_squares(3, 3, 5, 1),
        costs.make_logistic(3, 3, 12, 0.1, 2),
        costs.make_smooth_svm(3, 3, 12, 1.0, 5.0, 3),
    ]
    rng = np.random.default_rng(0)
    for prob in probs:
        for _ in range(5):
            z = rng.standard_normal(prob.dim)
            g = prob.total_grad(z)
            step = 1e-6 * (1.0 + np.linalg.norm(z))
            fd = np.empty_like(g)
            for idx in range(prob.dim):
                e = np.zeros(prob.dim)
                e[idx] = step
                fd[idx] = (prob.total(z + e) - prob.total(z - e)) / (2 * step)
            rel = np.linalg.norm(fd - g) / (1.0 + np.linalg.norm(g))
            if rel > 1e-5:
                raise AssertionError(f"gradient check failed: rel err {rel:.2e}")
        # the einsum path the engines run, against the per-node products of round 0
        Z = rng.standard_normal((prob.n, prob.dim))
        G = prob.grads(Z)
        ref = prob.start_grads(Z)
        if np.max(np.abs(G - ref)) > 1e-12 * (1.0 + np.max(np.abs(ref))):
            raise AssertionError("batched grads disagree with the round-0 gradients")


def _suite_reduction() -> None:
    setting = StaticSetting.draw(graphs.generate_erdos_renyi(6, 0.5, 11), 0, "zero", 0)
    prob = costs.make_quadratic(6, 3, 5)
    base, *delayed = (
        cls(prob, optimizer.init_states(prob, 1), setting.weights, setting.delays, 0.01)
        for cls in (optimizer.AddOptEngine, optimizer.DtacEngine, optimizer.AugmentedEngine)
    )
    for _ in range(200):
        base.step()
        for e in delayed:
            e.step()
            if not np.array_equal(e.W, base.W):
                raise AssertionError("zero-delay engine is not bitwise equal to the baseline")


def _suite_equivalence() -> None:
    for n, tau, seed in ((4, 2, 12), (6, 3, 13)):
        g = graphs.generate_erdos_renyi(n, 0.6, seed)
        setting = StaticSetting.draw(g, tau, "uniform-random", seed)
        C, d = setting.weights, setting.delays
        prob = costs.make_quadratic(n, 3, seed)
        e1 = optimizer.DtacEngine(prob, optimizer.init_states(prob, 7), C, d, 0.004)
        e2 = optimizer.AugmentedEngine(prob, optimizer.init_states(prob, 7), C, d, 0.004)
        for _ in range(150):
            e1.step()
            e2.step()
            if np.max(np.abs(e1.live_x - e2.live_x)) > 1e-10:
                raise AssertionError("per-node and matrix-form engines disagree")


def _suite_conservation() -> None:
    setting = StaticSetting.draw(graphs.generate_erdos_renyi(8, 0.5, 21), 4, "uniform-random", 22)
    prob = costs.make_quadratic(8, 3, 23)
    e = optimizer.DtacEngine(
        prob, optimizer.init_states(prob, 2), setting.weights, setting.delays, 0.004
    )
    for _ in range(300):
        e.step()
        row = optimizer._metrics(e, prob)  # the residuals a trace records
        if row.mass_error > 1e-10:
            raise AssertionError("weight mass drifted")
        if row.grad_tracker_sum_error > 1e-9:
            raise AssertionError("tracker mass drifted from gradient mass")


def _suite_spectral_bound() -> None:
    rng = np.random.default_rng(31)
    for trial in range(20):
        n = 6
        M = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
        np.fill_diagonal(M, rng.random(n))
        rho = spectral.spectral_radius(M)
        if rho == 0:
            continue
        M *= 0.9 / rho
        edges = sorted((j, i) for i, j in zip(*np.nonzero(M)) if i != j)
        d = delays.DelayMap.from_dict({e: int(rng.integers(0, 3)) for e in edges}, tau_max=2)
        if not spectral.verify_spectral_bound(M, d):
            raise AssertionError("spectral-radius bound violated")


SELFTEST_SUITES = (
    ("column-stochasticity", _suite_weights),
    ("gradient-check", _suite_gradients),
    ("reduction", _suite_reduction),
    ("oracle-equivalence", _suite_equivalence),
    ("conservation", _suite_conservation),
    ("spectral-bound", _suite_spectral_bound),
)


def run_selftest() -> tuple[bool, list[str]]:
    lines = []
    all_ok = True
    for name, suite in SELFTEST_SUITES:
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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="experiment config file (flat key = value)")
    parser.add_argument(
        "--set",
        action="append",
        metavar="K=V",
        help="override a config key (repeatable), e.g. --set run.alpha=0.001",
    )
    parser.add_argument("--out", default="out", help="output directory")


def _add_spectral_inputs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph-file", help="edge list `j i` per line")
    parser.add_argument(
        "--delay-file",
        help=(
            "delay list `j i tau` per line; tau_max is its `# tau_max=<t>` "
            "first line, else its largest delay"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    epilog = "config keys:\n" + "\n".join(config_help_lines())
    parser = argparse.ArgumentParser(
        prog="dtacopt",
        description="Delay-tolerant distributed optimization over digraphs",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.RawDescriptionHelpFormatter
    p_run = sub.add_parser("run", help="single run", epilog=epilog, formatter_class=fmt)
    _add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser(
        "sweep", help="tau_max x alpha sweep", epilog=epilog, formatter_class=fmt
    )
    _add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser(
        "compare",
        help="delayed run vs delay-free baseline",
        epilog=epilog,
        formatter_class=fmt,
    )
    _add_common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_spec = sub.add_parser(
        "spectral",
        help="spectral report and step-size bound",
        epilog=epilog,
        formatter_class=fmt,
    )
    _add_common(p_spec)
    _add_spectral_inputs(p_spec)
    p_spec.add_argument(
        "--record", action="store_true", help="also print a single-line record"
    )
    p_spec.set_defaults(func=cmd_spectral)

    p_chk = sub.add_parser(
        "check-bound",
        help="check the configured alpha against the certified interval",
        epilog=epilog,
        formatter_class=fmt,
    )
    _add_common(p_chk)
    _add_spectral_inputs(p_chk)
    p_chk.set_defaults(func=cmd_check_bound)

    p_self = sub.add_parser("selftest", help="run the built-in invariant suites")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EngineFault as exc:
        print(f"engine fault: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    # ValueError covers ConfigError and numpy's LinAlgError; MemoryError an
    # input whose arrays are larger than memory
    except (ValueError, OSError, MemoryError, graphs.RetryBudgetError, costs.OracleError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
