"""List every output of a fixed set of README commands, for a byte-identity check.

    python tools/output_digests.py [ROOT]

Runs each entry below as `python -m dtacopt.cli ...` on the package in
ROOT/src (default: the checkout this script is in), each entry in a fresh
temporary directory that is also its `--out`; an entry of several commands
runs them in order in the same directory, so a later one can read what an
earlier one wrote.  For every command it prints the exit code, stdout and
stderr with the temporary directory replaced by `<out>`, and then, for the
entry, `sha256 path` for every file written, in sorted order.

Two checkouts that print the same listing wrote the same bytes, the same
`STATUS` lines and the same exit codes.  CI diffs the listing of a pull
request's base commit against its head's:

    git worktree add ../base BASE_SHA
    python tools/output_digests.py ../base > base.txt
    python tools/output_digests.py . > head.txt
    diff -u base.txt head.txt
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

LOGISTIC = ("--set", "graph.type=exponential", "--set", "graph.n=16",
            "--set", "cost.type=logistic", "--set", "delay.tau_max=3")

# (name, argv, ...): the README commands, one run under each engine and cost
# family, large sparse runs whose products take the nonzero (bincount) route
# under each delay mode and under the delay-free engine, a switching run
# whose epochs take that route, a one-point sweep that writes the edge list, delay map and trace of an
# exponential graph whose hops wrap unevenly (n=257) on least-squares costs,
# a switching compare and sweep, a sweep whose graph and delay files
# `spectral` and `check-bound` then certify, two sweeps on different graphs
# under two tags, `spectral` on one's graph with the other's delays (exit 1),
# `check-bound` on both sides of its verdict, and a graph that cannot be
# sampled strongly connected (exit 1)
COMMANDS = (
    ("run", ("run",)),
    ("run-oracle", ("run", "--set", "run.engine=augmented-oracle")),
    ("run-addopt", ("run", "--set", "run.engine=addopt-nodelay")),
    ("run-zero-delay", ("run", "--set", "delay.tau_max=0")),
    ("run-switching", ("run", "--set", "switching.enabled=true")),
    ("run-b-connected", ("run", "--set", "switching.enabled=true",
                         "--set", "switching.mode=b-connected", "--set", "run.max_iters=2000")),
    ("run-least-squares", ("run", "--set", "cost.type=least_squares", "--set", "run.max_iters=2000")),
    ("run-svm-oracle", ("run", "--set", "cost.type=svm", "--set", "run.engine=augmented-oracle",
                        "--set", "run.alpha=0.002", "--set", "run.max_iters=2000")),
    ("run-large-sparse", ("run", "--set", "graph.type=exponential", "--set", "graph.n=200",
                          "--set", "delay.tau_max=10", "--set", "run.alpha=1e-4",
                          "--set", "run.max_iters=200")),
    ("run-sparse-zero-delay", ("run", "--set", "graph.type=exponential", "--set", "graph.n=400",
                               "--set", "delay.tau_max=10", "--set", "delay.mode=zero",
                               "--set", "run.alpha=1e-4", "--set", "run.max_iters=200")),
    ("run-sparse-homogeneous", ("run", "--set", "graph.type=exponential", "--set", "graph.n=200",
                                "--set", "delay.tau_max=3", "--set", "delay.mode=homogeneous-max",
                                "--set", "run.alpha=1e-4", "--set", "run.max_iters=200")),
    ("run-addopt-sparse", ("run", "--set", "graph.type=exponential", "--set", "graph.n=400",
                           "--set", "delay.tau_max=10", "--set", "run.engine=addopt-nodelay",
                           "--set", "run.alpha=1e-4", "--set", "run.max_iters=200")),
    ("run-switching-sparse", ("run", "--set", "switching.enabled=true", "--set", "graph.n=100",
                              "--set", "graph.p=0.06", "--set", "run.max_iters=300")),
    ("sweep", ("sweep", "--set", "sweep.tau_max=0,5,15", "--set", "sweep.alpha=0.001,0.005",
               "--set", "run.max_iters=1500")),
    ("sweep-exponential", ("sweep", "--set", "graph.type=exponential", "--set", "graph.n=257",
                           "--set", "cost.type=least_squares", "--set", "run.max_iters=5")),
    ("compare-logistic", ("compare", *LOGISTIC)),
    ("compare-switching", ("compare", "--set", "switching.enabled=true")),
    ("sweep-switching", ("sweep", "--set", "switching.enabled=true",
                         "--set", "sweep.tau_max=2,4", "--set", "sweep.alpha=0.002,0.005",
                         "--set", "run.max_iters=1500")),
    ("sweep-then-spectral", ("sweep", "--set", "delay.tau_max=3", "--set", "run.max_iters=100"),
     ("spectral", "--graph-file", "run_graph.txt", "--delay-file", "run_tau3_delays.txt",
      "--record"),
     ("check-bound", "--graph-file", "run_graph.txt", "--delay-file", "run_tau3_delays.txt")),
    ("sweep-two-tags", ("sweep", "--set", "experiment.tag=a", "--set", "delay.tau_max=3",
                        "--set", "run.max_iters=100"),
     ("sweep", "--set", "experiment.tag=b", "--set", "graph.seed=9", "--set", "delay.tau_max=3",
      "--set", "run.max_iters=100")),
    ("spectral-mismatched-files", ("sweep", "--set", "experiment.tag=a", "--set", "delay.tau_max=3",
                                   "--set", "run.max_iters=1"),
     ("sweep", "--set", "experiment.tag=b", "--set", "graph.seed=9", "--set", "delay.tau_max=3",
      "--set", "run.max_iters=1"),
     ("spectral", "--graph-file", "a_graph.txt", "--delay-file", "b_tau3_delays.txt")),
    ("spectral", ("spectral", "--set", "delay.tau_max=5", "--record")),
    ("check-bound", ("check-bound", "--set", "run.alpha=0.001")),
    ("check-bound-certified", ("check-bound", "--set", "run.alpha=1e-5")),
    ("config-error", ("run", "--set", "graph.n=30", "--set", "graph.p=0.01")),
)

NO_OUT = ("spectral", "check-bound")  # subcommands without --out


def digest_lines(root: Path) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    lines = []
    for name, *argvs in COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp).resolve()
            for argv in argvs:
                cmd = [sys.executable, "-m", "dtacopt.cli", *argv]
                if argv[0] not in NO_OUT:
                    cmd += ["--out", str(out)]
                proc = subprocess.run(cmd, cwd=out, env=env, capture_output=True, text=True)
                lines.append(f"== {name}: exit {proc.returncode}")
                for stream, text in (("stdout", proc.stdout), ("stderr", proc.stderr)):
                    lines += [f"{stream}: {ln}" for ln in text.replace(str(out), "<out>").splitlines()]
            for path in sorted(p for p in out.rglob("*") if p.is_file()):
                sha = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{sha} {path.relative_to(out)}")
    return lines


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    if not (root / "src" / "dtacopt").is_dir():
        print(f"{root}: no src/dtacopt here", file=sys.stderr)
        return 1
    print("\n".join(digest_lines(root.resolve())))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
