"""Parent-vs-change comparison of two result sets.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

A result set is the file that `run.py --record FILE` appends to: one JSON
line per run.  Run both sides with identical settings, alternating which goes
first, e.g.

    for s in 1 2 3 4 5 6 7 8 9 10; do
      (cd parent && python3 perfbench/run.py --workload W --seed $s --seconds 18 --trace 0 --record ../parent.jsonl)
      (cd change && python3 perfbench/run.py --workload W --seed $s --seconds 18 --trace 0 --record ../change.jsonl)
    done

For every workload and end-to-end metric it prints each side's median and
quartiles, the share of pairs the change won (pairs are matched by seed, in
recorded order; ties count for neither side) and a verdict:

* improved:   the change wins at least 9/10 of the pairs and the medians
              differ by more than the parent's own quartile spread;
* worse:      the same rule with the sides swapped, or the change's median
              is worse than the parent's by more than the metric's bound;
* no worse:   the change's median is within the bound of the parent's and
              the parent's spread is within the bound;
* unresolved: otherwise (the spread is wider than the bound), unless every
              run of the change reads better than every run of the parent.

Per-layer rows (from `--trace 1` runs) print the change in median values,
with no verdict.  Each side's recorded environment is printed first.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9


def load(path: str) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs_by_seed(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    pending = defaultdict(list)
    for rec in change:
        pending[rec["seed"]].append(rec)
    out = []
    for rec in parent:
        if pending[rec["seed"]]:
            out.append((rec, pending[rec["seed"]].pop(0)))
    return out


def verdict(p_vals, c_vals, pairs, better: str, bound: float) -> tuple[str, float]:
    sign = 1.0 if better == "lower" else -1.0
    won = sum(1 for p, c in pairs if sign * (p - c) > 0)
    lost = sum(1 for p, c in pairs if sign * (c - p) > 0)
    share = won / len(pairs) if pairs else 0.0
    p1, pm, p3 = quartiles(p_vals)
    cm = quartiles(c_vals)[1]
    spread = p3 - p1
    worse_by = sign * (cm - pm) / abs(pm) if pm else 0.0
    if pairs and share >= WIN_SHARE and abs(cm - pm) > spread and sign * (pm - cm) > 0:
        return "improved", share
    if (pairs and lost / len(pairs) >= WIN_SHARE and abs(cm - pm) > spread) or worse_by > bound:
        return "worse", share
    if pm and spread / abs(pm) <= bound:
        return "no worse", share
    if all(sign * (p - c) > 0 for p in p_vals for c in c_vals):
        return "no worse", share  # every change run beats every parent run
    return "unresolved", share


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    spec = json.loads(BENCHMARK.read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}

    for label, recs in (("parent", parent), ("change", change)):
        envs = {json.dumps(r.get("env", {}), sort_keys=True) for r in recs}
        for env in sorted(envs):
            print(f"{label} env: {env}")
    print()
    print(f"{'workload':<20} {'metric':<30} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} {'won':>5}  verdict")
    workloads = sorted({r["workload"] for r in parent + change})
    for wl in workloads:
        for trace, names in ((0, e2e), (1, layers)):
            p_runs = [r for r in parent if r["workload"] == wl and r["trace"] == trace]
            c_runs = [r for r in change if r["workload"] == wl and r["trace"] == trace]
            if not p_runs or not c_runs:
                continue
            pairs = pairs_by_seed(p_runs, c_runs)
            for name, meta in names.items():
                p_vals = [r["metrics"][name]["value"] for r in p_runs if name in r["metrics"]]
                c_vals = [r["metrics"][name]["value"] for r in c_runs if name in r["metrics"]]
                if not p_vals or not c_vals:
                    continue
                pq, cq = quartiles(p_vals), quartiles(c_vals)
                cols = f"{'/'.join(f'{v:.4g}' for v in pq):>32} {'/'.join(f'{v:.4g}' for v in cq):>32}"
                if trace == 0:
                    vpairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs]
                    word, share = verdict(p_vals, c_vals, vpairs, meta["better"], meta["bound"])
                    print(f"{wl:<20} {name:<30} {cols} {share:>5.0%}  {word}")
                elif pq[1] or cq[1]:  # layers neither side loads are left out
                    delta = cq[1] - pq[1]
                    rel = f" ({delta / pq[1]:+.1%})" if pq[1] else ""
                    print(f"{wl:<20} {name:<30} {cols} {'':>5}  delta {delta:+.4g}{rel}")
        failed = [r for r in parent + change if r["workload"] == wl and not r["correct"]]
        if failed:
            print(f"{wl:<20} {len(failed)} run(s) reported incorrect outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
