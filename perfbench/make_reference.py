"""Record reference.json: the outputs of every workload at the default seed.

    python3 perfbench/make_reference.py

Run it only on the commit the reference describes; checks.py documents the
tolerances each recorded field is compared with.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
from run import HERE, Deadline, spawn
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    reference = {}
    workdir = HERE / "_work" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, wl in WORKLOADS.items():
            out = workdir / "out"
            shutil.rmtree(out, ignore_errors=True)
            argv = wl.argv(DEFAULT_SEED, str(out))
            proc = spawn(["cli", "--", *argv], workdir, Deadline(600))
            verdicts = checks.check_command(wl, wl.config_pairs(DEFAULT_SEED), out, proc.code, proc.stdout, None)
            errors = [f"{op}: {err}" for op, _, err in verdicts if err is not None]
            if errors:
                print(f"{name}: not recorded, outputs fail the checks: {errors} {proc.stderr}", file=sys.stderr)
                return 1
            reference[name] = {op: facts for op, facts, _ in verdicts}
            print(f"{name}: {len(verdicts)} operations recorded ({proc.wall:.2f} s)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
