"""Per-layer spans recorded from outside the package.

`install()` wraps the public functions of the six layers (`graphs`, `delays`,
`costs`, `optimizer`, `spectral`, `experiment`) and a fixed list of public
methods, and rebinds every name under which the package can reach them:
module globals bound by `from ... import`, re-exports in `dtacopt/__init__`,
and subclass overrides of a wrapped method (e.g. `_QuadraticProblem.grads`).
After patching it checks that no original is still bound anywhere in the
package, so a layer cannot be missed silently.

Not wrapped, on purpose: the per-node cost models' `grad`/`eval` (called n
times inside `costs.grads` / `costs.gap`), `InTransitBuffer` methods (called
inside `optimizer.step`), properties and dataclass dunders.  Their time is
the self time of the enclosing span.

Spans are aggregated in memory and written once, as JSON, when the command
ends.  A span's self time is its duration minus the durations of the wrapped
spans it directly encloses (single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("graphs", "delays", "costs", "optimizer", "spectral", "experiment")

# Public methods that carry a layer boundary, by (module, class, method).
METHODS = (
    ("graphs", "SwitchingSchedule", "graph_at"),
    ("costs", "GlobalProblem", "grads"),
    ("costs", "GlobalProblem", "gap"),
    ("costs", "GlobalProblem", "total"),
    ("costs", "GlobalProblem", "total_grad"),
    ("optimizer", "DtacEngine", "step"),
    ("optimizer", "DtacEngine", "set_topology"),
    ("optimizer", "AugmentedEngine", "step"),
    ("optimizer", "AugmentedEngine", "set_topology"),
    ("optimizer", "AddOptEngine", "step"),
    ("optimizer", "AddOptEngine", "set_topology"),
    ("optimizer", "SwitchingPlan", "realize"),
    ("optimizer", "ContractionMonitor", "observe"),
)


class MissedBinding(RuntimeError):
    """A wrapped function is still reachable under its original binding."""


class _Stat:
    __slots__ = ("calls", "total", "self_total", "outer_calls", "outer_total", "durs", "selfs")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_total = 0.0
        self.outer_calls = 0  # calls not nested in another span of the same layer
        self.outer_total = 0.0
        self.durs = array("d")
        self.selfs = array("d")


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # frames: [name, t0, covered_by_children]
        self.depth = dict.fromkeys(LAYERS, 0)  # open spans per layer
        self.stats: dict[str, _Stat] = {}
        self.counts: dict[str, float] = {}
        self.values: dict[str, float] = {}
        self.wrapped: dict[str, str] = {}  # qualified original -> span name

    # -- recording -------------------------------------------------------
    def _span(self, name: str, layer: str, fn, hooks=None):
        stack, depth = self.stack, self.depth
        stat = self.stats.setdefault(name, _Stat())
        clock = time.perf_counter
        before = hooks.before if hooks is not None else None
        after = hooks.after if hooks is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            frame = [name, clock(), 0.0]
            stack.append(frame)
            depth[layer] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                depth[layer] -= 1
                self_dur = dur - frame[2]
                stat.calls += 1
                stat.total += dur
                stat.self_total += self_dur
                stat.durs.append(dur)
                stat.selfs.append(self_dur)
                if stack:
                    stack[-1][2] += dur
                if depth[layer] == 0:
                    stat.outer_calls += 1
                    stat.outer_total += dur
            if after is not None:
                after(self, args, kwargs, result, dur)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def inside(self, name: str) -> bool:
        return any(f[0] == name for f in self.stack)

    def count(self, key: str, by: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def keep_max(self, key: str, value: float) -> None:
        self.values[key] = max(self.values.get(key, value), value)

    # -- output ----------------------------------------------------------
    def summary(self) -> dict:
        return {
            "spans": {
                name: {
                    "calls": s.calls,
                    "total_s": s.total,
                    "self_s": s.self_total,
                    "outer_calls": s.outer_calls,
                    "outer_s": s.outer_total,
                    "median_us": _median(s.durs) * 1e6,
                    "median_self_us": _median(s.selfs) * 1e6,
                    "max_s": max(s.durs, default=0.0),
                }
                for name, s in self.stats.items()
            },
            "counts": self.counts,
            "values": self.values,
            "wrapped": self.wrapped,
        }

    def write(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.summary(), sort_keys=True))


def _median(xs) -> float:
    if not xs:
        return 0.0
    s = sorted(xs)
    m = len(s) // 2
    return s[m] if len(s) % 2 else 0.5 * (s[m - 1] + s[m])


class _Hooks:
    def __init__(self, before=None, after=None) -> None:
        self.before = before
        self.after = after


# -- hooks that read counts off the calls ----------------------------------
def _count_oracle_calls(tracer: Tracer, args, kwargs):
    """nesterov_minimize(grad_fn, ...): count every grad_fn evaluation."""
    args = list(args)
    grad_fn = kwargs.pop("grad_fn") if "grad_fn" in kwargs else args.pop(0)

    def counted(z):
        tracer.count("costs.oracle_grad_calls")
        return grad_fn(z)

    return (counted, *args), kwargs


def _after_run(tracer: Tracer, args, kwargs, result, dur) -> None:
    tracer.count("optimizer.iters", result.iters)


def _after_write_trace(tracer: Tracer, args, kwargs, result, dur) -> None:
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    tracer.count("experiment.trace_bytes", Path(path).stat().st_size)


def _after_execute_run(tracer: Tracer, args, kwargs, result, dur) -> None:
    if tracer.inside("experiment.run_experiment"):
        tracer.count("experiment.points")
        tracer.keep_max("experiment.point_s_max", dur)


def _after_slices(tracer: Tracer, args, kwargs, result, dur) -> None:
    tracer.keep_max("delays.slice_bytes", float(result.slices.nbytes))


def _after_augmented(tracer: Tracer, args, kwargs, result, dur) -> None:
    tracer.keep_max("spectral.aug_dim", float(result.dim))


def _after_set_topology(tracer: Tracer, args, kwargs, result, dur) -> None:
    """Computed, not measured: the dense slice mixing the per-node engine
    does per step for the topology just installed (first install only)."""
    engine = args[0]
    if type(engine).__name__ != "DtacEngine" or "optimizer.mix_density" in tracer.values:
        return
    delay_map = kwargs.get("delays", args[2] if len(args) > 2 else None)
    n, width = engine.n, 2 * engine.p + 1
    links = [t for (j, i), t in delay_map.tau.items() if j != i]
    nz = len(set(links) | {0})
    tracer.values["optimizer.mix_density"] = (len(links) + n) / (nz * n * n)
    tracer.values["optimizer.mix_bytes_per_step"] = float(nz * (n * n + 2 * n * width) * 8)


HOOKS = {
    "costs.nesterov_minimize": _Hooks(before=_count_oracle_calls),
    "optimizer.run": _Hooks(after=_after_run),
    "optimizer.set_topology": _Hooks(after=_after_set_topology),
    "experiment.write_trace": _Hooks(after=_after_write_trace),
    "experiment.execute_run": _Hooks(after=_after_execute_run),
    "delays.build_delay_slices": _Hooks(after=_after_slices),
    "spectral.build_augmented_from": _Hooks(after=_after_augmented),
    "delays.build_augmented_matrix": _Hooks(after=_after_augmented),
}


def _package_modules(pkg: str = "dtacopt") -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == pkg or name.startswith(pkg + ".")]


def _classes(modules) -> list[type]:
    seen: dict[int, type] = {}
    for mod in modules:
        for obj in vars(mod).values():
            if inspect.isclass(obj) and obj.__module__.startswith("dtacopt"):
                seen[id(obj)] = obj
    return list(seen.values())


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary and rebind every reference to it."""
    import dtacopt  # noqa: F401  (imports the layers)
    from dtacopt import cli  # noqa: F401  (binds names the CLI imported)

    modules = _package_modules()
    by_name = {m.__name__: m for m in modules}
    replacements: dict[int, object] = {}  # id(original) -> wrapper
    originals: dict[int, object] = {}

    # 1. public module-level functions defined in each layer
    for layer in LAYERS:
        mod = by_name[f"dtacopt.{layer}"]
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            replacements[id(fn)] = tracer._span(name, layer, fn, HOOKS.get(name))
            originals[id(fn)] = fn
            tracer.wrapped[f"{mod.__name__}.{attr}"] = name

    # 2. listed methods, plus every subclass override of them
    classes = _classes(modules)
    for layer, cls_name, meth in METHODS:
        base = getattr(by_name[f"dtacopt.{layer}"], cls_name, None)
        if base is None:
            continue
        for cls in classes:
            if issubclass(cls, base) and meth in vars(cls) and inspect.isfunction(vars(cls)[meth]):
                fn = vars(cls)[meth]
                if id(fn) in replacements:
                    continue
                name = f"{layer}.{meth}"
                replacements[id(fn)] = tracer._span(name, layer, fn, HOOKS.get(name))
                originals[id(fn)] = fn
                tracer.wrapped[f"{cls.__module__}.{cls.__qualname__}.{meth}"] = name

    def is_original(obj) -> bool:
        return id(obj) in originals and originals[id(obj)] is obj

    # 3. rebind: module globals (incl. `from x import f` copies), class dicts,
    #    and module-level dispatch tables (dict values, list items)
    for owner in (*modules, *classes):
        for attr, obj in list(vars(owner).items()):
            if is_original(obj):
                setattr(owner, attr, replacements[id(obj)])
            elif isinstance(obj, dict):
                for key, item in list(obj.items()):
                    if is_original(item):
                        obj[key] = replacements[id(item)]
            elif isinstance(obj, list):
                for k, item in enumerate(obj):
                    if is_original(item):
                        obj[k] = replacements[id(item)]

    # 4. nothing may still reach an original (e.g. from a tuple)
    missed = []
    for owner in (*modules, *classes):
        for attr, obj in vars(owner).items():
            items = obj.values() if isinstance(obj, dict) else obj if isinstance(obj, (list, tuple)) else (obj,)
            if any(is_original(item) for item in items):
                missed.append(f"{owner.__name__}.{attr}")
    if missed:
        raise MissedBinding("unwrapped bindings left: " + ", ".join(sorted(missed)))
    return tracer
