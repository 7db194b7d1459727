"""List every output of a fixed set of README commands, for a byte-identity check.

    python tools/output_digests.py [ROOT]

Runs each entry below as `python -m dtacopt.cli ...` on the package in
ROOT/src (default: the checkout this script is in), each entry in a fresh
temporary directory that is also its `--out`; an entry of several steps
runs them in order in the same directory, so a later one can read what an
earlier one wrote.  A step is a command's arguments, or a `{name: text}`
dict of input files to write there.  For every command it prints the exit
code, stdout and stderr with the temporary directory replaced by `<out>`
and `selftest`'s per-suite timings by `[<t>s]`, and then, for the entry,
`sha256 path` for every file in the directory, in sorted order.

Two checkouts that print the same listing wrote the same bytes, the same
`STATUS` lines and the same exit codes.  The commands inherit this script's
environment (only PYTHONPATH is set), so a BLAS thread count such as
OPENBLAS_NUM_THREADS=2 reaches them and is kept; with the variable unset the
package runs one BLAS thread, so that listing is the one under `=1`.  CI
diffs the listing of a pull request's base commit against its head's under
one and two BLAS threads and with the variable unset, then head's unset
listing against its `=1` listing:

    git worktree add ../base BASE_SHA
    for t in 1 2 default; do
        if [ $t = default ]; then unset OPENBLAS_NUM_THREADS; else export OPENBLAS_NUM_THREADS=$t; fi
        python tools/output_digests.py ../base > base_$t.txt
        python tools/output_digests.py . > head_$t.txt
        diff -u base_$t.txt head_$t.txt
    done
    diff -u head_1.txt head_default.txt
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

LOGISTIC = ("--set", "graph.type=exponential", "--set", "graph.n=16",
            "--set", "cost.type=logistic", "--set", "delay.tau_max=3")
# a strongly connected 6-node graph and its delays, each listing self-loops
LOOPED_GRAPH = "0 0\n0 1\n1 2\n1 4\n2 2\n2 3\n3 1\n3 4\n4 5\n5 0\n5 5\n"
LOOPED_DELAYS = ("# tau_max=3\n0 0 0\n0 1 2\n1 2 1\n1 4 3\n2 2 0\n2 3 0\n3 1 2\n"
                 "3 4 1\n4 5 3\n5 0 1\n5 5 0\n")

# (name, argv, ...): the README commands, one run under each engine and cost
# family, a run and a compare that record every 7th iteration (each run ends
# off that cadence, so its final row is written apart, and a compare's two
# columns end at different iterations), large sparse runs whose products take
# the nonzero (bincount) route under each delay mode and under the delay-free
# engine, a switching run whose epochs take that route, a one-point sweep that
# writes the edge list, delay map and trace of an exponential graph whose hops
# wrap unevenly (n=257) on least-squares costs, a switching compare and sweep,
# a sweep whose graph and delay files `spectral` and `check-bound` then
# certify, two sweeps on different graphs under two tags, `spectral` on one's
# graph with the other's delays (exit 1), `spectral` and `check-bound` at
# N=420, whose last bits follow a BLAS thread count the caller sets,
# `check-bound` on both sides of its verdict, hand-written graph and delay
# files that list self-loops (`j j`, `j j 0`; then `j j 1`, exit 1), a graph
# that cannot be sampled strongly connected (exit 1), and the selftest
COMMANDS = (
    ("run", ("run",)),
    ("run-oracle", ("run", "--set", "run.engine=augmented-oracle")),
    ("run-addopt", ("run", "--set", "run.engine=addopt-nodelay")),
    ("run-zero-delay", ("run", "--set", "delay.tau_max=0")),
    ("run-record-every", ("run", "--set", "run.record_every=7")),
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
    ("compare-record-every", ("compare", "--set", "run.record_every=7")),
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
    ("spectral-threaded", ("spectral", "--set", "graph.n=20", "--set", "delay.tau_max=20",
                           "--record"),
     ("check-bound", "--set", "graph.n=20", "--set", "delay.tau_max=20")),
    ("check-bound", ("check-bound", "--set", "run.alpha=0.001")),
    ("check-bound-certified", ("check-bound", "--set", "run.alpha=1e-5")),
    ("self-loop-files", {"g.txt": LOOPED_GRAPH, "d.txt": LOOPED_DELAYS,
                         "delayed.txt": LOOPED_DELAYS.replace("0 0 0", "0 0 1")},
     ("spectral", "--graph-file", "g.txt", "--delay-file", "d.txt", "--record"),
     ("check-bound", "--graph-file", "g.txt", "--delay-file", "d.txt"),
     ("spectral", "--graph-file", "g.txt", "--delay-file", "delayed.txt")),
    ("config-error", ("run", "--set", "graph.n=30", "--set", "graph.p=0.01")),
    ("selftest", ("selftest",)),
)

NO_OUT = ("spectral", "check-bound", "selftest")  # subcommands without --out
TIMING = re.compile(r"\[\d+\.\d+s\]$")  # a selftest suite's `[0.02s]`


def digest_lines(root: Path) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    lines = []
    for name, *argvs in COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp).resolve()
            for argv in argvs:
                if isinstance(argv, dict):
                    for file, text in argv.items():
                        (out / file).write_text(text)
                    continue
                cmd = [sys.executable, "-m", "dtacopt.cli", *argv]
                if argv[0] not in NO_OUT:
                    cmd += ["--out", str(out)]
                proc = subprocess.run(cmd, cwd=out, env=env, capture_output=True, text=True)
                lines.append(f"== {name}: exit {proc.returncode}")
                for stream, text in (("stdout", proc.stdout), ("stderr", proc.stderr)):
                    lines += [f"{stream}: {TIMING.sub('[<t>s]', ln)}"
                              for ln in text.replace(str(out), "<out>").splitlines()]
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
