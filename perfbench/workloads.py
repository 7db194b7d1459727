"""The benchmark's workloads: README reproductions as a user would type them,
scaled to a few seconds a command.

Each workload is one `dtacopt` CLI command.  The benchmark seed is mapped to
the four seed keys of the config (`graph.seed`, `delay.seed`, `cost.seed`,
`run.init_seed`); seed 0 leaves the CLI defaults in place, so the default
seed draws the README's graphs, delays, costs and starts.  Which of the four
keys a workload varies is part of its definition (see `seeded` and its `why`).
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 0

# CLI defaults of the seed keys; seed s shifts each varied key by s (mod 2**31,
# so any integer seed gives valid config seeds).
BASE_SEEDS = {"graph.seed": 8, "delay.seed": 145, "cost.seed": 42, "run.init_seed": 3}
ALL_SEED_KEYS = tuple(BASE_SEEDS)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # CLI subcommand
    overrides: tuple[str, ...]  # `--set` pairs, without the seed keys
    ops: int  # operations one command performs (sweep points, compare legs, ...)
    seeded: tuple[str, ...] = ALL_SEED_KEYS
    extra_args: tuple[str, ...] = ()
    # overrides that turn the command into its first run's config, for setup_s
    setup_overrides: tuple[str, ...] = ()
    # overrides that shrink the command for the benchmark's own unit test
    quick_overrides: tuple[str, ...] = ()

    def seed_pairs(self, seed: int) -> list[str]:
        return [f"{key}={(BASE_SEEDS[key] + seed) % 2**31}" for key in self.seeded]

    def config_pairs(self, seed: int) -> list[str]:
        return list(self.overrides) + self.seed_pairs(seed)

    def argv(self, seed: int, out: str, quick: bool = False) -> list[str]:
        pairs = self.config_pairs(seed) + (list(self.quick_overrides) if quick else [])
        argv = [self.command]
        for pair in pairs:
            argv += ["--set", pair]
        argv += list(self.extra_args)
        if self.command != "spectral":
            argv += ["--out", out]
        return argv

    def setup_pairs(self, seed: int) -> list[str]:
        return self.config_pairs(seed) + list(self.setup_overrides)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="readme_sweep",
            why=(
                "README tau_max x alpha divergence sweep, 1500 iterations a point: "
                "the only workload that runs experiment.run_experiment (8 points, "
                "trace CSV writing); small-n engine over many delay slices"
            ),
            command="sweep",
            # the README grid; each point stops at 1500 iterations instead of
            # converging to 1e-8 (up to 60000 iterations, 12-15 s a command), so
            # the work is fixed but for the two points that diverge first
            # (alpha=0.005 at tau_max=15, 20) and a run holds many commands
            overrides=(
                "sweep.tau_max=5,10,15,20",
                "sweep.alpha=0.001,0.005",
                "run.max_iters=1500",
                "run.tol=1e-30",
            ),
            ops=8,
            # the README network and costs put tau_max=15, alpha=0.005 just past
            # the divergence boundary; other draws of them move that boundary
            # and with it the sweep's work, so only the start varies
            seeded=("run.init_seed",),
            setup_overrides=("delay.tau_max=5", "run.alpha=0.001"),
            quick_overrides=("run.max_iters=200",),
        ),
        Workload(
            name="logistic_compare",
            why=(
                "README delayed-vs-delay-free compare on logistic costs, at "
                "alpha=0.04 to 1e-6: dominated by costs (per-node grad loops, gap "
                "evals) and the logistic oracle in setup; also runs AddOptEngine"
            ),
            command="compare",
            overrides=(
                "graph.type=exponential",
                "graph.n=16",
                "cost.type=logistic",
                "cost.dim=5",
                "delay.tau_max=3",
                # the README's alpha=0.02 to 1e-9 takes 12-14 s a command; this
                # converges both legs in about 3200 iterations (3 s)
                "run.alpha=0.04",
                "run.tol=1e-6",
            ),
            ops=2,
            # the exponential graph takes no seed; new data or a new start move
            # the iterations to 1e-9 by up to 40%, new delays those to 1e-6 by
            # about 3%
            seeded=("delay.seed",),
            quick_overrides=("run.max_iters=200",),
        ),
        Workload(
            name="spectral_report",
            why=(
                "spectral certificate at N=420 (n=20, tau_max=20): the only "
                "workload that loads spectral (power-limit products, eigvals, "
                "dense 2-norms); never steps an engine"
            ),
            command="spectral",
            overrides=("graph.n=20", "delay.tau_max=20"),
            ops=1,
            # graph and delay draws move sigma (0.92-0.94) and with it the
            # number of power-limit products by about 8%; the cost family only
            # moves the certified step size, so the seed varies that
            seeded=("cost.seed", "run.init_seed"),
            extra_args=("--record",),
            quick_overrides=("delay.tau_max=3",),
        ),
        Workload(
            name="large_sparse",
            why=(
                "n=1000 exponential graph, tau_max=10, 100 iterations: the "
                "per-node engine's dense slice matmuls at scale and their memory"
            ),
            command="run",
            overrides=(
                "graph.type=exponential",
                "graph.n=1000",
                "delay.tau_max=10",
                "run.alpha=1e-4",
                "run.max_iters=100",
                "run.tol=1e-30",
            ),
            ops=1,
            quick_overrides=("graph.n=200", "run.max_iters=5"),
        ),
        Workload(
            name="switching_topology",
            why=(
                "switching ER n=30 run, a new topology every 2 steps, 2000 "
                "iterations: the write side of the engine (SwitchingPlan.realize, "
                "set_topology)"
            ),
            command="run",
            overrides=(
                "graph.n=30",
                "graph.p=0.25",
                "run.alpha=0.001",
                "switching.enabled=true",
                "switching.period=2",
                "delay.tau_max=5",
                # a fixed 2000 of the 7800 iterations to convergence: the same
                # mix of work per step, the same work on every seed
                "run.max_iters=2000",
                "run.tol=1e-30",
            ),
            ops=1,
            quick_overrides=("run.max_iters=40",),
        ),
    )
}
