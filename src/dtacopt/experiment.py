"""Experiment configuration, sweep orchestration, and CSV traces.

Configs are flat-key text, `section.key = value` per line, with `#`
comments.  Unknown keys are rejected; every seed is explicit so any config
reproduces its CSVs byte for byte.  A sweep crosses `sweep.tau_max` with
`sweep.alpha` and writes one trace per point plus a summary table, one row
per point's `RunResult`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import costs, delays, graphs, optimizer
from .optimizer import (
    RunConfig,
    RunResult,
    StaticSetting,
    SwitchingPlan,
    TRACE_DTYPE,
    TRACE_HEADER,
)


class ConfigError(ValueError):
    """Malformed or invalid experiment configuration."""


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_list(item, text: str) -> tuple:
    text = text.strip()
    return tuple(item(part) for part in text.split(",")) if text else ()


def _at_least(low) -> tuple:
    return (lambda v: v >= low, f"must be >= {low}")


_FINITE_POSITIVE = (lambda v: 0 < v < math.inf, "must be positive and finite")
_FINITE_AT_LEAST_0 = (lambda v: 0 <= v < math.inf, "must be >= 0 and finite")


def _choice(*names: str) -> tuple:
    """A key that takes one of `names`; the first is its default."""
    return (str, names[0], " | ".join(names), (names.__contains__, f"must be one of {names}"))


# key -> (parser, default, help, rule).  A rule is (test, phrase): every value
# must pass the test, and comparisons are written so that NaN fails them; a
# sweep list applies it to each entry, and no entry may repeat.  Only the bool
# keys have none.
CONFIG_KEYS: dict[str, tuple] = {
    "experiment.tag": (
        str, "run", "prefix for output file names",
        (lambda v: "/" not in v and os.sep not in v and "\0" not in v,
         "must not contain a path separator or a NUL byte"),
    ),
    "graph.type": _choice("erdos-renyi", "exponential"),
    "graph.n": (int, 10, "number of nodes", (lambda v: v >= 2, "need at least 2 nodes")),
    "graph.p": (
        float, 0.5, "edge probability for erdos-renyi", (lambda v: 0 < v <= 1, "must be in (0, 1]")
    ),
    "graph.seed": (int, 8, "graph sampling seed", _at_least(0)),
    "delay.tau_max": (int, 5, "delay bound (0 disables delays)", _at_least(0)),
    "delay.mode": _choice("uniform-random", "homogeneous-max", "zero"),
    "delay.seed": (int, 145, "delay sampling seed", _at_least(0)),
    "cost.type": _choice("quadratic", "least_squares", "logistic", "svm"),
    "cost.dim": (int, 5, "state dimension (feature dim for logistic/svm)", _at_least(1)),
    "cost.seed": (int, 42, "cost sampling seed", _at_least(0)),
    "cost.lambda": (float, 0.1, "logistic ridge weight on w", _FINITE_POSITIVE),
    "cost.samples_per_agent": (int, 50, "samples per agent (logistic/svm)", _at_least(2)),
    "cost.rows_per_agent": (int, 8, "rows per agent (least squares)", _at_least(1)),
    "cost.ridge": (float, 0.0, "per-agent ridge (least squares)", _FINITE_AT_LEAST_0),
    "cost.margin": (float, 1.0, "margin weight C (svm)", _FINITE_AT_LEAST_0),
    "cost.smoothness": (float, 5.0, "hinge smoothing mu (svm)", _FINITE_POSITIVE),
    "cost.mean_scaled": (_parse_bool, True, "scale logistic loss by 1/m_i", None),
    "cost.separation": (
        float, 2.0, "cluster separation (logistic/svm)", (math.isfinite, "must be finite")
    ),
    "run.alpha": (float, 0.005, "gradient-tracking step size", _FINITE_POSITIVE),
    "run.max_iters": (int, 20000, "iteration cap", _at_least(1)),
    "run.tol": (float, 1e-10, "optimality-gap threshold for CONVERGED", _FINITE_AT_LEAST_0),
    "run.record_every": (int, 1, "metric recording cadence", _at_least(1)),
    "run.engine": _choice(*optimizer.ENGINES),
    "run.init_seed": (int, 3, "initial-state seed", _at_least(0)),
    "switching.enabled": (_parse_bool, False, "redraw the topology periodically", None),
    "switching.period": (int, 2, "iterations between topology changes", _at_least(1)),
    "switching.mode": _choice("connected", "b-connected"),
    "sweep.tau_max": (
        partial(_parse_list, int), (), "comma list of delay bounds to sweep", _at_least(0)
    ),
    "sweep.alpha": (
        partial(_parse_list, float), (), "comma list of step sizes to sweep", _FINITE_POSITIVE
    ),
    "sweep.budget": (int, 64, "maximum number of sweep runs", _at_least(1)),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated flat config, keyed exactly like the config file."""

    values: dict

    def get(self, key: str):
        return self.values[key]

    def with_overrides(self, **flat: object) -> "ExperimentConfig":
        return validate_config({**self.values, **flat})


def parse_config_text(text: str) -> dict:
    """Parse `section.key = value` lines into a raw key->string dict."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        raw[key] = value
    return raw


def validate_config(values: dict) -> ExperimentConfig:
    """The one check of a config: reject unknown keys, parse string values,
    fill defaults and enforce every range and choice.  Config files, `--set`
    and `with_overrides` all end here."""
    unknown = sorted(set(values) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r}")
    full: dict = {}
    for key, (parser, default, _help, rule) in CONFIG_KEYS.items():
        v = values.get(key, default)
        if isinstance(v, str):
            try:
                v = parser(v)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"key {key!r}: {exc}") from None
        if rule is not None:
            test, phrase = rule
            if isinstance(v, tuple):  # a sweep list: the rule holds for each entry
                if not all(map(test, v)):
                    raise ConfigError(f"key {key!r}: every entry {phrase}")
                if len(set(v)) < len(v):  # equal points would share one trace file
                    raise ConfigError(f"key {key!r}: an entry repeats")
            elif not test(v):
                raise ConfigError(f"key {key!r}: {phrase}")
        full[key] = v
    n_sweep = max(1, len(full["sweep.tau_max"])) * max(1, len(full["sweep.alpha"]))
    if n_sweep > full["sweep.budget"]:
        raise ConfigError(
            f"sweep has {n_sweep} points, over budget {full['sweep.budget']}"
        )
    return ExperimentConfig(values=full)


def load_config(path: str | Path | None) -> ExperimentConfig:
    """Load a config file; None yields all defaults."""
    if path is None:
        return validate_config({})
    if not Path(path).exists():
        raise ConfigError(f"config file not found: {path}")
    return validate_config(parse_config_text(Path(path).read_text()))


def apply_overrides(cfg: ExperimentConfig, pairs: list[str]) -> ExperimentConfig:
    """Apply repeatable `--set section.key=value` strings on top of cfg."""
    raw = {}
    for pair in pairs:
        key, eq, value = pair.partition("=")
        if not eq:
            raise ConfigError(f"override {pair!r}: expected section.key=value")
        raw[key.strip()] = value.strip()
    return validate_config({**cfg.values, **raw})


def config_help_lines() -> list[str]:
    width = max(len(k) for k in CONFIG_KEYS)
    out = []
    for key, (_parser, default, help_text, _rule) in CONFIG_KEYS.items():
        out.append(f"  {key:<{width}}  (default {default!r}) {help_text}")
    return out


def build_problem(cfg: ExperimentConfig) -> costs.GlobalProblem:
    kind = cfg.get("cost.type")
    n = cfg.get("graph.n")
    p = cfg.get("cost.dim")
    seed = cfg.get("cost.seed")
    if kind == "quadratic":
        return costs.make_quadratic(n, p, seed)
    if kind == "least_squares":
        return costs.make_least_squares(
            n, p, cfg.get("cost.rows_per_agent"), seed, ridge=cfg.get("cost.ridge")
        )
    if kind == "logistic":
        return costs.make_logistic(
            n,
            p,
            cfg.get("cost.samples_per_agent"),
            cfg.get("cost.lambda"),
            seed,
            mean_scaled=cfg.get("cost.mean_scaled"),
            separation=cfg.get("cost.separation"),
        )
    # svm: the cost.type rule admits no other value
    return costs.make_smooth_svm(
        n,
        p,
        cfg.get("cost.samples_per_agent"),
        cfg.get("cost.margin"),
        cfg.get("cost.smoothness"),
        seed,
        separation=cfg.get("cost.separation"),
    )


def build_graph(cfg: ExperimentConfig) -> graphs.DirectedGraph:
    if cfg.get("graph.type") == "exponential":
        return graphs.generate_exponential_graph(cfg.get("graph.n"))
    return graphs.generate_erdos_renyi(
        cfg.get("graph.n"), cfg.get("graph.p"), cfg.get("graph.seed")
    )


def build_setting(cfg: ExperimentConfig) -> StaticSetting | SwitchingPlan:
    """The switching plan of `cfg`, or its graph with its weights and delays."""
    if cfg.get("switching.enabled"):
        if cfg.get("graph.type") != "erdos-renyi":
            raise ConfigError("switching schedules support erdos-renyi graphs only")
        return SwitchingPlan(
            period=cfg.get("switching.period"),
            n=cfg.get("graph.n"),
            p=cfg.get("graph.p"),
            graph_seed=cfg.get("graph.seed"),
            require_strong=cfg.get("switching.mode") == "connected",
            tau_max=cfg.get("delay.tau_max"),
            delay_mode=cfg.get("delay.mode"),
            delay_seed=cfg.get("delay.seed"),
        )
    return StaticSetting.draw(
        build_graph(cfg), cfg.get("delay.tau_max"), cfg.get("delay.mode"), cfg.get("delay.seed")
    )


def write_trace(trace: np.ndarray, path: Path) -> None:
    """Write a run's trace (`RunResult.trace`) one row at a time, so its text
    is never whole in memory.  Each field prints as the repr of its Python
    int or float, `inf`, `nan` and `-0.0` included."""
    with path.open("w") as f:
        f.write(TRACE_HEADER + "\n")
        f.writelines(",".join(map(repr, row.item())) + "\n" for row in trace)


def execute_run(
    cfg: ExperimentConfig,
    problem: costs.GlobalProblem | None = None,
    setting: StaticSetting | SwitchingPlan | None = None,
) -> RunResult:
    """Run one configured experiment point, on the problem and setting a
    caller already built for `cfg` where it passes them (then only the
    `run.*` keys are read)."""
    if problem is None:
        problem = build_problem(cfg)
    if setting is None:
        setting = build_setting(cfg)
    run_cfg = RunConfig(**{f.name: cfg.get(f"run.{f.name}") for f in fields(RunConfig)})
    return optimizer.run(run_cfg, setting, problem)


SUMMARY_HEADER = "tau_max,alpha,status,iters,final_gap,final_mse"


def run_experiment(cfg: ExperimentConfig, outdir: str | Path) -> list[RunResult]:
    """Execute the configured sweep (or the single configured point), write
    one trace CSV per run plus a summary CSV, and dump the static topology
    with one delay map per swept delay bound.  Returns each point's
    `RunResult`, its `trace` emptied once it is written to its file.

    A sweep varies only `delay.tau_max` and `run.alpha`, so the problem and
    the static graph are built once; each bound draws its setting on that
    graph once, for its delay file and for all of its points."""
    problem = build_problem(cfg)  # first: its cross-key errors come before any write
    # a switching plan holds no draws; each bound takes it at its own tau_max
    plan = build_setting(cfg) if cfg.get("switching.enabled") else None
    g = None if plan is not None else build_graph(cfg)
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    tag = cfg.get("experiment.tag")
    taus = cfg.get("sweep.tau_max") or (cfg.get("delay.tau_max"),)
    alphas = cfg.get("sweep.alpha") or (cfg.get("run.alpha"),)
    if g is not None:
        graphs.dump_edge_list(g, out / f"{tag}_graph.txt")
    results = []
    for tau in taus:
        if plan is not None:
            setting = replace(plan, tau_max=tau)
        else:
            setting = StaticSetting.draw(g, tau, cfg.get("delay.mode"), cfg.get("delay.seed"))
            delays.dump_delay_map(setting.delays, out / f"{tag}_tau{tau}_delays.txt")
        for alpha in alphas:
            result = execute_run(cfg.with_overrides(**{"run.alpha": alpha}), problem, setting)
            write_trace(result.trace, out / f"{tag}_tau{tau}_alpha{alpha!r}.csv")
            result.trace = np.empty(0, TRACE_DTYPE)  # written: not held during the next point
            results.append(result)

    lines = [SUMMARY_HEADER] + [
        f"{r.tau_max!r},{r.alpha!r},{r.status},{r.iters!r},{r.final_gap!r},{r.final_mse!r}"
        for r in results
    ]
    (out / f"{tag}_summary.csv").write_text("\n".join(lines) + "\n")
    return results


def _gap_lines(delayed: np.ndarray, baseline: np.ndarray):
    """The compare CSV's `iter,delayed gap,baseline gap` lines, one for each
    iteration either trace recorded, in order: one merge of the two traces'
    increasing `iter` columns.  A trace that did not record an iteration
    leaves its cell empty."""
    legs = [zip(map(int, t["iter"]), map(float, t["optimality_gap"])) for t in (delayed, baseline)]
    heads = [next(leg, None) for leg in legs]
    while heads != [None, None]:
        it = min(head[0] for head in heads if head is not None)
        cells = ["", ""]
        for k, head in enumerate(heads):
            if head is not None and head[0] == it:
                cells[k] = repr(head[1])
                heads[k] = next(legs[k], None)
        yield f"{it},{cells[0]},{cells[1]}\n"


def compare_engines(cfg: ExperimentConfig, outdir: str | Path) -> dict:
    """Run the delayed per-node engine and the delay-free baseline on the
    same problem, setting and initialization (the baseline ignores the
    delays); emit aligned gap-vs-iteration columns (`_gap_lines`).

    The CSV ends with a `status,...` row carrying each engine's outcome.
    """
    problem = build_problem(cfg)
    setting = build_setting(cfg)
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    tag = cfg.get("experiment.tag")
    delayed = execute_run(cfg.with_overrides(**{"run.engine": "per-node"}), problem, setting)
    if isinstance(setting, SwitchingPlan):  # the same graphs, no delay draws
        setting = replace(setting, delay_mode="zero")
    baseline = execute_run(
        cfg.with_overrides(**{"run.engine": "addopt-nodelay"}), problem, setting
    )
    with (out / f"{tag}_compare.csv").open("w") as f:
        f.write("iter,gap_delay_tolerant,gap_delay_free\n")
        f.writelines(_gap_lines(delayed.trace, baseline.trace))
        f.write(f"status,{delayed.status},{baseline.status}\n")
    return {"delayed": delayed, "baseline": baseline}
