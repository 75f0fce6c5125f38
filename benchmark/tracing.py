"""Span tracing of modcap's layers from outside the package.

``Tracer.install`` rebinds each traced function in every modcap module
that holds it, because several modules import these functions by name
(``plans.occupation_at``, ``modulus.path_line_measure``,
``duality.solve_modulus_explicit``, ``gradients.testplan_check``, ...).
``Tracer.remove`` restores the originals.

A span records name, start, end, parent span and op id, plus counters
read off the result.  Spans stay in memory until ``write_ndjson``.
Self time is a span's duration minus the time covered by its child
spans; calls are synchronous, so children never overlap.

The curve kernels (``occupation_at``, ``stretch``) run millions of
times per plans round.  They are leaves, so they are aggregated per
parent span (calls and total time) instead of kept as one span each,
which would need gigabytes.
"""

from __future__ import annotations

import json
import re
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

SPANS = {
    "modulus": ("solve_modulus_explicit", "solve_modulus_paths", "shortest_weighted_path"),
    "duality": (
        "solve_content",
        "check_duality",
        "check_optimality_conditions",
        "build_measure_plan",
    ),
    "families": ("path_line_measure",),
    "plans": (
        "parametric_barycenter",
        "stretch_average",
        "testplan_check",
        "improve_barycenter",
        "bridge_inequality",
    ),
    "gradients": ("check_w1p_pair",),
    "instance": ("generate_random_instance", "instance_from_dict"),
}
LEAVES = {"curves": ("occupation_at", "stretch")}
# Counters read off a span's result, summed per function.
COUNTED = {
    "modulus.solve_modulus_explicit": ("iterations",),
    "duality.solve_content": ("iterations",),
    "modulus.solve_modulus_paths": ("outer_iterations", "paths"),
}

_ITERATIONS = re.compile(r"after (\d+) iterations")


def _stalled_iterations(exc: BaseException) -> int | None:
    """Iteration count quoted in a solver's stall message, if any."""
    found = _ITERATIONS.search(str(exc))
    return int(found.group(1)) if found else None


class _Frame:
    __slots__ = ("sid", "child_s", "child_calls", "leaves")

    def __init__(self, sid: int):
        self.sid = sid
        self.child_s = 0.0
        self.child_calls: dict[str, int] = defaultdict(int)
        self.leaves: dict[str, list] = {}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.leaf_records: list[dict[str, Any]] = []
        self.paths_built: set = set()
        self.op: str | None = None
        self.active = False
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._saved: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------ installation

    def install(self) -> None:
        import modcap

        modules = [m for name, m in sys.modules.items()
                   if name == "modcap" or name.startswith("modcap.")]
        targets: list[tuple[Callable, Callable]] = []
        for table, make in ((SPANS, self._span_wrapper), (LEAVES, self._leaf_wrapper)):
            for mod_name, funcs in table.items():
                home = getattr(modcap, mod_name)
                for fn_name in funcs:
                    fn = getattr(home, fn_name)
                    targets.append((fn, make(f"{mod_name}.{fn_name}", fn)))
        for fn, wrapper in targets:
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._saved.append((mod, attr, val))
                        setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, val in reversed(self._saved):
            setattr(mod, attr, val)
        self._saved.clear()
        self.active = False

    # ---------------------------------------------------------- wrappers

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        on_result = _COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = _Frame(sid)
            stack.append(frame)
            attrs: dict[str, Any] = {}
            error = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(self, attrs, args, result, None, frame)
                return result
            except Exception as exc:
                error = type(exc).__name__
                if on_result is not None:
                    on_result(self, attrs, args, None, exc, frame)
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += t1 - t0
                    parent.child_calls[name] += 1
                span = {
                    "id": sid,
                    "name": name,
                    "op": self.op,
                    "parent": None if parent is None else parent.sid,
                    "start": t0,
                    "end": t1,
                    "self_s": (t1 - t0) - frame.child_s,
                }
                if error is not None:
                    span["error"] = error
                span.update(attrs)
                self.spans.append(span)
                for leaf, (calls, total) in frame.leaves.items():
                    self.leaf_records.append(
                        {"name": leaf, "op": self.op, "parent": sid,
                         "calls": calls, "total_s": total}
                    )

        return wrapper

    def _leaf_wrapper(self, name: str, fn: Callable) -> Callable:
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active or not self._stack:
                return fn(*args, **kwargs)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                frame = self._stack[-1]
                frame.child_s += dt
                acc = frame.leaves.get(name)
                if acc is None:
                    frame.leaves[name] = [1, dt]
                else:
                    acc[0] += 1
                    acc[1] += dt

        return wrapper

    # ----------------------------------------------------------- output

    def metrics(self) -> dict[str, float]:
        """Per-layer totals: self time, calls and counters per function."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        counters = {f"{name}.{key}": 0
                    for name, keys in COUNTED.items() for key in keys}
        for span in self.spans:
            name = span["name"]
            self_s[name] += span["self_s"]
            calls[name] += 1
            for key in COUNTED.get(name, ()):
                counters[f"{name}.{key}"] += span.get(key, 0)
        for rec in self.leaf_records:
            self_s[rec["name"]] += rec["total_s"]
            calls[rec["name"]] += rec["calls"]
        out: dict[str, float] = {}
        for mod_name, funcs in (*SPANS.items(), *LEAVES.items()):
            for fn_name in funcs:
                name = f"{mod_name}.{fn_name}"
                out[f"{name}.self_s"] = self_s[name]
                out[f"{name}.calls"] = calls[name]
        out.update(counters)
        # Useful builds over attempts: the share of path_line_measure
        # calls that build a path not built before in the same op (0
        # when nothing is built).
        plm = "families.path_line_measure"
        out[f"{plm}.calls_per_path"] = (
            len(self.paths_built) / calls[plm] if calls[plm] else 0.0
        )
        return out

    def write_ndjson(self, path: Path) -> None:
        with path.open("w") as fh:
            for rec in (*self.spans, *self.leaf_records):
                fh.write(json.dumps(rec) + "\n")


def _count_explicit(tracer, attrs, args, result, exc, frame):
    if exc is None:
        attrs["iterations"] = result.iterations
    else:
        its = _stalled_iterations(exc)
        if its is not None:
            attrs["iterations"] = its


def _count_content(tracer, attrs, args, result, exc, frame):
    if exc is None:
        attrs["iterations"] = result.iterations


def _count_paths(tracer, attrs, args, result, exc, frame):
    if exc is None:
        attrs["outer_iterations"] = result.outer_iterations
        attrs["paths"] = len(result.paths)
    else:
        # One dual solve per round of constraint generation.
        attrs["outer_iterations"] = frame.child_calls["modulus.solve_modulus_explicit"]


def _count_path_build(tracer, attrs, args, result, exc, frame):
    tracer.paths_built.add((tracer.op, tuple(args[1])))


_COUNTERS = {
    "modulus.solve_modulus_explicit": _count_explicit,
    "duality.solve_content": _count_content,
    "modulus.solve_modulus_paths": _count_paths,
    "families.path_line_measure": _count_path_build,
}
