"""Experiment configuration, sweep orchestration, and CSV traces.

Configs are flat-key text, `section.key = value` per line, with `#`
comments.  Unknown keys are rejected; every seed is explicit so any config
reproduces its CSVs byte for byte.  A sweep crosses `sweep.tau_max` with
`sweep.alpha` and writes one trace per point plus a summary table.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from . import costs, delays, graphs, optimizer
from .optimizer import (
    RunConfig,
    RunResult,
    StaticSetting,
    SwitchingPlan,
    TRACE_HEADER,
    TraceRecord,
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


def _parse_float_list(text: str) -> tuple[float, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(float(part) for part in text.split(","))


def _parse_int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


# key -> (parser, default, help)
CONFIG_KEYS: dict[str, tuple] = {
    "experiment.tag": (str, "run", "prefix for output file names"),
    "graph.type": (str, "erdos-renyi", "erdos-renyi | exponential"),
    "graph.n": (int, 10, "number of nodes"),
    "graph.p": (float, 0.5, "edge probability for erdos-renyi"),
    "graph.seed": (int, 8, "graph sampling seed"),
    "delay.tau_max": (int, 5, "delay bound (0 disables delays)"),
    "delay.mode": (str, "uniform-random", "uniform-random | homogeneous-max | zero"),
    "delay.seed": (int, 145, "delay sampling seed"),
    "cost.type": (str, "quadratic", "quadratic | least_squares | logistic | svm"),
    "cost.dim": (int, 5, "state dimension (feature dim for logistic/svm)"),
    "cost.seed": (int, 42, "cost sampling seed"),
    "cost.lambda": (float, 0.1, "logistic ridge weight on w"),
    "cost.samples_per_agent": (int, 50, "samples per agent (logistic/svm)"),
    "cost.rows_per_agent": (int, 8, "rows per agent (least squares)"),
    "cost.ridge": (float, 0.0, "per-agent ridge (least squares)"),
    "cost.margin": (float, 1.0, "margin weight C (svm)"),
    "cost.smoothness": (float, 5.0, "hinge smoothing mu (svm)"),
    "cost.mean_scaled": (_parse_bool, True, "scale logistic loss by 1/m_i"),
    "cost.separation": (float, 2.0, "cluster separation (logistic/svm)"),
    "run.alpha": (float, 0.005, "gradient-tracking step size"),
    "run.max_iters": (int, 20000, "iteration cap"),
    "run.tol": (float, 1e-10, "optimality-gap threshold for CONVERGED"),
    "run.record_every": (int, 1, "metric recording cadence"),
    "run.engine": (str, "per-node", "per-node | augmented-oracle | addopt-nodelay"),
    "run.init_seed": (int, 3, "initial-state seed"),
    "switching.enabled": (_parse_bool, False, "redraw the topology periodically"),
    "switching.period": (int, 2, "iterations between topology changes"),
    "switching.mode": (str, "connected", "connected | b-connected"),
    "sweep.tau_max": (_parse_int_list, (), "comma list of delay bounds to sweep"),
    "sweep.alpha": (_parse_float_list, (), "comma list of step sizes to sweep"),
    "sweep.budget": (int, 64, "maximum number of sweep runs"),
}

_CHOICES = {
    "graph.type": ("erdos-renyi", "exponential"),
    "delay.mode": ("uniform-random", "homogeneous-max", "zero"),
    "cost.type": ("quadratic", "least_squares", "logistic", "svm"),
    "run.engine": tuple(optimizer.ENGINES),
    "switching.mode": ("connected", "b-connected"),
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
    for key, (parser, default, _help) in CONFIG_KEYS.items():
        v = values.get(key, default)
        if isinstance(v, str):
            try:
                v = parser(v)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"key {key!r}: {exc}") from None
        full[key] = v
    for key, choices in _CHOICES.items():
        if full[key] not in choices:
            raise ConfigError(f"key {key!r}: must be one of {choices}")
    if full["run.alpha"] <= 0:
        raise ConfigError("key 'run.alpha': must be positive")
    if full["run.max_iters"] < 1:
        raise ConfigError("key 'run.max_iters': must be >= 1")
    if full["run.record_every"] < 1:
        raise ConfigError("key 'run.record_every': must be >= 1")
    if full["graph.n"] < 2:
        raise ConfigError("key 'graph.n': need at least 2 nodes")
    if not (0.0 < full["graph.p"] <= 1.0):
        raise ConfigError("key 'graph.p': must be in (0, 1]")
    if full["delay.tau_max"] < 0:
        raise ConfigError("key 'delay.tau_max': must be >= 0")
    if full["switching.period"] < 1:
        raise ConfigError("key 'switching.period': must be >= 1")
    if full["cost.dim"] < 1:
        raise ConfigError("key 'cost.dim': must be >= 1")
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
    for key, (_parser, default, help_text) in CONFIG_KEYS.items():
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
    if kind == "svm":
        return costs.make_smooth_svm(
            n,
            p,
            cfg.get("cost.samples_per_agent"),
            cfg.get("cost.margin"),
            cfg.get("cost.smoothness"),
            seed,
            separation=cfg.get("cost.separation"),
        )
    raise ConfigError(f"unknown cost type {kind!r}")


def build_graph(cfg: ExperimentConfig) -> graphs.DirectedGraph:
    if cfg.get("graph.type") == "exponential":
        return graphs.generate_exponential_graph(cfg.get("graph.n"))
    return graphs.generate_erdos_renyi(
        cfg.get("graph.n"), cfg.get("graph.p"), cfg.get("graph.seed")
    )


def build_setting(cfg: ExperimentConfig) -> StaticSetting | SwitchingPlan:
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
    g = build_graph(cfg)
    C = graphs.build_column_stochastic_weights(g)
    d = delays.assign_delays(
        g, cfg.get("delay.tau_max"), cfg.get("delay.mode"), cfg.get("delay.seed")
    )
    return StaticSetting(weights=C, delays=d)


def write_trace(records: list[TraceRecord], path: Path) -> None:
    lines = [TRACE_HEADER]
    lines.extend(rec.as_csv_row() for rec in records)
    path.write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class RunSummary:
    tau_max: int
    alpha: float
    status: str
    iters: int
    final_gap: float
    final_mse: float
    trace_path: str

    def as_csv_row(self) -> str:
        return (
            f"{self.tau_max!r},{self.alpha!r},{self.status},"
            f"{self.iters!r},{self.final_gap!r},{self.final_mse!r}"
        )


SUMMARY_HEADER = "tau_max,alpha,status,iters,final_gap,final_mse"


def execute_run(cfg: ExperimentConfig) -> RunResult:
    """Run one configured experiment point."""
    problem = build_problem(cfg)
    setting = build_setting(cfg)
    run_cfg = RunConfig(
        alpha=cfg.get("run.alpha"),
        max_iters=cfg.get("run.max_iters"),
        tol=cfg.get("run.tol"),
        record_every=cfg.get("run.record_every"),
        engine=cfg.get("run.engine"),
        init_seed=cfg.get("run.init_seed"),
    )
    return optimizer.run(run_cfg, setting, problem)


def run_experiment(cfg: ExperimentConfig, outdir: str | Path) -> list[RunSummary]:
    """Execute the configured sweep (or the single configured point), write
    one trace CSV per run plus a summary CSV, and dump the static topology
    with one delay map per swept delay bound."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    tag = cfg.get("experiment.tag")
    taus = cfg.get("sweep.tau_max") or (cfg.get("delay.tau_max"),)
    alphas = cfg.get("sweep.alpha") or (cfg.get("run.alpha"),)

    if not cfg.get("switching.enabled"):
        g = build_graph(cfg)
        graphs.dump_edge_list(g, out / f"{tag}_graph.txt")
        for tau in taus:
            d = delays.assign_delays(g, tau, cfg.get("delay.mode"), cfg.get("delay.seed"))
            delays.dump_delay_map(d, out / f"{tag}_tau{tau}_delays.txt")

    summaries = []
    for tau in taus:
        for alpha in alphas:
            sub = cfg.with_overrides(**{"delay.tau_max": tau, "run.alpha": alpha})
            result = execute_run(sub)
            path = out / f"{tag}_tau{tau}_alpha{alpha!r}.csv"
            write_trace(result.records, path)
            summaries.append(
                RunSummary(
                    tau_max=tau,
                    alpha=alpha,
                    status=result.status,
                    iters=result.iters,
                    final_gap=result.final_gap,
                    final_mse=result.final_mse,
                    trace_path=str(path),
                )
            )

    lines = [SUMMARY_HEADER]
    lines.extend(s.as_csv_row() for s in summaries)
    (out / f"{tag}_summary.csv").write_text("\n".join(lines) + "\n")
    return summaries


def compare_engines(cfg: ExperimentConfig, outdir: str | Path) -> dict:
    """Run the delayed per-node engine and the delay-free baseline on the
    same problem and initialization; emit aligned gap-vs-iteration columns.

    The CSV ends with a `status,...` row carrying each engine's outcome.
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    tag = cfg.get("experiment.tag")
    delayed = execute_run(cfg.with_overrides(**{"run.engine": "per-node"}))
    baseline = execute_run(
        cfg.with_overrides(**{"run.engine": "addopt-nodelay", "delay.tau_max": 0})
    )
    rows = ["iter,gap_delay_tolerant,gap_delay_free"]
    iters = sorted(
        {r.iter for r in delayed.records} | {r.iter for r in baseline.records}
    )
    d_map = {r.iter: r.optimality_gap for r in delayed.records}
    b_map = {r.iter: r.optimality_gap for r in baseline.records}
    for it in iters:
        left = repr(d_map[it]) if it in d_map else ""
        right = repr(b_map[it]) if it in b_map else ""
        rows.append(f"{it},{left},{right}")
    rows.append(f"status,{delayed.status},{baseline.status}")
    (out / f"{tag}_compare.csv").write_text("\n".join(rows) + "\n")
    return {"delayed": delayed, "baseline": baseline}
