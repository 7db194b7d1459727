"""One benchmark operation in a fresh process.

    python3 perfbench/child.py cli [--trace FILE] -- <dtacopt CLI argv>
    python3 perfbench/child.py setup -- <section.key=value ...>

`cli` calls `dtacopt.cli.main(argv)` exactly as the `dtacopt` entry point
does and exits with its code; with `--trace` the layer spans are recorded
and written to FILE as JSON.  `setup` imports the package and builds the
inputs of a run (`experiment.build_problem`, then `experiment.build_setting`)
and nothing else.  The package is imported from `src/` of the checkout this
file sits in, never from an installed copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXIT_NO_PACKAGE = 90


def _import_package():
    src = ROOT / "src"
    if not (src / "dtacopt" / "__init__.py").is_file():
        print(f"perfbench: no package at {src / 'dtacopt'}", file=sys.stderr)
        sys.exit(EXIT_NO_PACKAGE)
    sys.path.insert(0, str(src))
    import dtacopt

    if Path(dtacopt.__file__).resolve().parent != (src / "dtacopt").resolve():
        print(f"perfbench: imported {dtacopt.__file__}, not the checkout", file=sys.stderr)
        sys.exit(EXIT_NO_PACKAGE)
    return dtacopt


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    trace_path = None
    if rest[:1] == ["--trace"]:
        trace_path, rest = rest[1], rest[2:]
    if rest[:1] == ["--"]:
        rest = rest[1:]
    _import_package()
    if mode == "setup":
        from dtacopt import experiment

        cfg = experiment.apply_overrides(experiment.load_config(None), rest)
        experiment.build_problem(cfg)
        experiment.build_setting(cfg)
        return 0
    if mode != "cli":
        print(f"perfbench: unknown mode {mode!r}", file=sys.stderr)
        return 2
    from dtacopt import cli

    tracer = None
    if trace_path is not None:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracer as tracing

        tracer = tracing.install(tracing.Tracer())
    try:
        return cli.main(rest)
    finally:
        if tracer is not None:
            tracer.write(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
