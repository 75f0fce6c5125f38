"""Instance files, seeded generation, and result emission.

An instance is a JSON document with a ``space`` plus optional named
``families``, ``curves``, ``plans``, and per-point ``columns``.  All
validation is eager: every referenced name must resolve and every
constructed object passes its own invariants, with errors naming the
offending field.  Serialization is canonical (sorted keys), so loading
and re-saving an instance is byte-stable.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .curves import ParametricCurve, _steps
from .errors import InvalidInstanceError
from .families import MeasureFamily
from .plans import CurvePlan
from .space import DiscreteMeasure, MetricMeasureSpace

__all__ = [
    "Instance",
    "NamedPlan",
    "ResultRecord",
    "load_instance",
    "instance_from_dict",
    "instance_to_dict",
    "save_instance",
    "generate_random_instance",
    "random_walk_curve",
    "emit_results",
    "GENERATOR_POINT_CAP",
    "RESULT_COLUMNS",
]

GENERATOR_POINT_CAP = 200


def _object(data: Any, where: str, required=(), optional=None) -> Mapping[str, Any]:
    """A JSON object with the required keys and, if ``optional`` is given, no others."""
    if not isinstance(data, Mapping):
        raise InvalidInstanceError(f"{where}: expected an object")
    if optional is not None:
        for key in data:
            if key not in required and key not in optional:
                raise InvalidInstanceError(f"{where}: unknown key {key!r}")
    for key in required:
        if key not in data:
            raise InvalidInstanceError(f"{where}: missing key {key!r}")
    return data


def _array(value: Any, where: str, length: int | None = None) -> list[Any]:
    """A JSON list (a string is not one), of the given length if one is given."""
    if not isinstance(value, list):
        raise InvalidInstanceError(f"{where}: expected a list, got {value!r}")
    if length is not None and len(value) != length:
        raise InvalidInstanceError(
            f"{where}: expected {length} entries, got {len(value)}"
        )
    return value


def _integer(value: Any, where: str) -> int:
    """A JSON integer: floats such as 1.7 and bools are rejected, not truncated."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidInstanceError(f"{where}: expected an integer, got {value!r}")
    return value


def _point(value: Any, where: str, n_points: int) -> int:
    """A point id: a JSON integer in 0..n_points-1."""
    i = _integer(value, where)
    if not 0 <= i < n_points:
        raise InvalidInstanceError(f"{where}: point {i} is outside the space")
    return i


def _number(value: Any, where: str) -> float:
    """A finite JSON number: bools, strings, NaN and Infinity are rejected."""
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (ok and abs(value) <= sys.float_info.max):  # NaN and huge ints fail too
        raise InvalidInstanceError(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def _per_point(value: Any, where: str, n_points: int) -> list[float]:
    """One finite number per point: the reference measure or a column."""
    values = _array(value, where)
    if len(values) != n_points:
        raise InvalidInstanceError(
            f"{where}: expected {n_points} per-point values, got {len(values)}"
        )
    return [_number(x, where) for x in values]


def _curve_names(value: Any, where: str, curves: Mapping[str, Any]) -> tuple[str, ...]:
    names = tuple(_array(value, where))
    for c in names:
        if not isinstance(c, str) or c not in curves:
            raise InvalidInstanceError(f"{where}: unknown curve name {c!r}")
    return names


@dataclass(frozen=True)
class NamedPlan:
    curve_names: tuple[str, ...]
    plan: CurvePlan


@dataclass(frozen=True)
class Instance:
    name: str
    space: MetricMeasureSpace
    families: dict[str, MeasureFamily] = field(default_factory=dict)
    curves: dict[str, ParametricCurve] = field(default_factory=dict)
    plans: dict[str, NamedPlan] = field(default_factory=dict)
    columns: dict[str, np.ndarray] = field(default_factory=dict)


def _parse_space(data: Any) -> MetricMeasureSpace:
    _object(data, "space", ("n_points", "edges", "measure"), ("coords",))
    n = _integer(data["n_points"], "space.n_points")
    edges = []
    for i, e in enumerate(_array(data["edges"], "space.edges")):
        where = f"space.edges[{i}]"
        u, v, length = _array(e, where, 3)
        edges.append((_point(u, where, n), _point(v, where, n), _number(length, where)))
    coords = data.get("coords")
    if coords is not None:
        coords = [
            tuple(_number(c, "space.coords") for c in _array(xy, "space.coords", 2))
            for xy in _array(coords, "space.coords", n)
        ]
    measure = _per_point(data["measure"], "space.measure", n)
    try:
        return MetricMeasureSpace(n, edges, measure, coords=coords)
    except InvalidInstanceError as exc:
        raise InvalidInstanceError(f"space: {exc}") from exc


def _parse_curve(name: str, data: Any) -> ParametricCurve:
    where = f"curves[{name!r}]"
    _object(data, where, ("nodes",), ("times",))
    at = f"{where}.nodes"
    nodes = [_integer(v, at) for v in _array(data["nodes"], at)]
    times = data.get("times")
    if times is None:
        times = [i / max(len(nodes) - 1, 1) for i in range(len(nodes))]
    at = f"{where}.times"
    times = [_number(t, at) for t in _array(times, at)]
    try:
        return ParametricCurve(tuple(nodes), tuple(times))
    except InvalidInstanceError as exc:
        raise InvalidInstanceError(f"{where}: {exc}") from exc


def _parse_curves(items: Any, space: MetricMeasureSpace) -> dict[str, ParametricCurve]:
    """The named curves, their walks read by one ``_steps`` pass (the curves
    before a malformed one too): a fault names the first bad curve in file order."""
    curves = {}
    try:
        for k, v in items:
            curves[str(k)] = _parse_curve(str(k), v)
    finally:
        try:
            _steps(space, [c.nodes for c in curves.values()])
        except InvalidInstanceError:
            for k, c in curves.items():
                try:
                    _steps(space, [c.nodes])
                except InvalidInstanceError as exc:
                    raise InvalidInstanceError(f"curves[{k!r}]: {exc}") from exc
    return curves


def _parse_measure(entry: Any, where: str, n_points: int) -> DiscreteMeasure:
    items = []
    for j, pair in enumerate(_array(entry, where)):
        at = f"{where}[{j}]"
        point, weight = _array(pair, at, 2)
        items.append((_point(point, at, n_points), _number(weight, at)))
    try:
        return DiscreteMeasure(tuple(items))
    except InvalidInstanceError as exc:
        raise InvalidInstanceError(f"{where}: {exc}") from exc


_FAMILY_KEYS = {  # kind: (required keys, optional keys)
    "explicit": (("kind", "measures"), ()),
    "paths": (("kind", "source", "target"), ("max_hops",)),
    "curves": (("kind", "curve_names"), ("curve_map",)),
}


def _parse_family(
    name: str, data: Any, n_points: int, curves: Mapping[str, ParametricCurve]
) -> MeasureFamily:
    where = f"families[{name!r}]"
    kind = _object(data, where, ("kind",))["kind"]
    if not isinstance(kind, str) or kind not in _FAMILY_KEYS:
        raise InvalidInstanceError(f"{where}.kind: unknown family kind {kind!r}")
    _object(data, where, *_FAMILY_KEYS[kind])
    if kind == "explicit":
        measures = tuple(
            _parse_measure(entry, f"{where}.measures[{i}]", n_points)
            for i, entry in enumerate(_array(data["measures"], f"{where}.measures"))
        )
        return MeasureFamily(name, kind, measures=measures)
    if kind == "paths":
        ends = {}
        for key in ("source", "target"):
            at = f"{where}.{key}"
            ends[key] = tuple(_point(v, at, n_points) for v in _array(data[key], at))
        hops = data.get("max_hops")
        hops = None if hops is None else _integer(hops, f"{where}.max_hops")
        return MeasureFamily(name, kind, **ends, max_hops=hops)
    names = _curve_names(data["curve_names"], f"{where}.curve_names", curves)
    curve_map = data.get("curve_map", "J")
    return MeasureFamily(name, kind, curve_names=names, curve_map=curve_map)


def _parse_plan(
    name: str, data: Any, curves: Mapping[str, ParametricCurve]
) -> NamedPlan:
    where = f"plans[{name!r}]"
    _object(data, where, ("curves", "probs"), ())
    names = _curve_names(data["curves"], f"{where}.curves", curves)
    at = f"{where}.probs"
    probs = [_number(w, at) for w in _array(data["probs"], at)]
    try:
        plan = CurvePlan(tuple(curves[c] for c in names), tuple(probs))
    except InvalidInstanceError as exc:
        raise InvalidInstanceError(f"{where}: {exc}") from exc
    return NamedPlan(names, plan)


def instance_from_dict(data: Any, name: str = "instance") -> Instance:
    """Validate a parsed JSON document into a fully constructed instance.

    Each field is read once, in the order space, curves, families, plans,
    columns, so every point id and curve name is checked where it is read.
    Null top-level sections count as empty.
    """
    sections = ("families", "curves", "plans", "columns")
    _object(data, "instance", ("space",), ("name", *sections))
    named = {
        key: _object({} if data.get(key) is None else data[key], key).items()
        for key in sections
    }
    space = _parse_space(data["space"])
    n = space.n_points
    curves = _parse_curves(named["curves"], space)
    families = {
        str(k): _parse_family(str(k), v, n, curves) for k, v in named["families"]
    }
    plans = {str(k): _parse_plan(str(k), v, curves) for k, v in named["plans"]}
    columns = {
        str(k): np.asarray(_per_point(v, f"columns[{k!r}]", n))
        for k, v in named["columns"]
    }
    label = data.get("name", name)
    if not isinstance(label, str):
        raise InvalidInstanceError(f"name: expected a string, got {label!r}")
    return Instance(label, space, families, curves, plans, columns)


def load_instance(path: str | Path) -> Instance:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise InvalidInstanceError(f"instance file not found: {path}") from None
    except ValueError as exc:  # bad JSON, bad UTF-8, an over-long integer
        raise InvalidInstanceError(f"{path}: invalid JSON ({exc})") from exc
    return instance_from_dict(data, name=path.stem)


def _to_json(value: Any) -> Any:
    """A family field as JSON: measures as [[point, weight], ...], tuples as lists."""
    if isinstance(value, DiscreteMeasure):
        return [[idx, w] for idx, w in value.items]
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


def instance_to_dict(inst: Instance) -> dict[str, Any]:
    """Canonical JSON-ready form; inverse of instance_from_dict."""
    space: dict[str, Any] = {
        "n_points": inst.space.n_points,
        "edges": [[u, v, ell] for u, v, ell in inst.space.edges],
        "measure": [float(w) for w in inst.space.measure],
    }
    if inst.space.coords is not None:
        space["coords"] = [[x, y] for x, y in inst.space.coords]
    doc: dict[str, Any] = {"name": inst.name, "space": space}
    if inst.families:
        doc["families"] = {
            k: {
                key: _to_json(getattr(fam, key))
                for key in sum(_FAMILY_KEYS[fam.kind], ())
            }
            for k, fam in sorted(inst.families.items())
        }
    if inst.curves:
        doc["curves"] = {
            k: {
                "nodes": list(inst.curves[k].nodes),
                "times": list(inst.curves[k].times),
            }
            for k in sorted(inst.curves)
        }
    if inst.plans:
        doc["plans"] = {
            k: {
                "curves": list(inst.plans[k].curve_names),
                "probs": list(inst.plans[k].plan.probabilities),
            }
            for k in sorted(inst.plans)
        }
    if inst.columns:
        doc["columns"] = {
            k: [float(x) for x in inst.columns[k]] for k in sorted(inst.columns)
        }
    return doc


def save_instance(inst: Instance, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(instance_to_dict(inst), indent=2, sort_keys=True) + "\n"
    )


def generate_random_instance(
    seed: int,
    n_points: int = 30,
    n_measures: int = 8,
    sparsity: float = 0.25,
    *,
    n_null_points: int = 0,
) -> Instance:
    """Seeded random connected instance with one explicit family.

    The graph is a random spanning tree plus extra edges at the given
    density; measure weights are positive except for ``n_null_points``
    zeroed points, and every generated measure is supported where the
    measure is positive.  Deterministic per seed.
    """
    if n_points > GENERATOR_POINT_CAP:
        raise InvalidInstanceError(
            f"generator capped at {GENERATOR_POINT_CAP} points, asked {n_points}"
        )
    if n_points < 2:
        raise InvalidInstanceError("generator needs at least 2 points")
    if not 0 <= n_null_points < n_points:
        raise InvalidInstanceError("n_null_points must leave at least one positive point")
    if not 0 <= sparsity < math.inf:  # NaN fails too
        raise InvalidInstanceError(f"sparsity must be finite and nonnegative, got {sparsity}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_points)
    edges: dict[tuple[int, int], float] = {}
    for i in range(1, n_points):
        u = int(perm[i])
        v = int(perm[rng.integers(0, i)])
        a, b = (u, v) if u < v else (v, u)
        edges[(a, b)] = float(rng.uniform(0.5, 1.5))
    n_extra = int(sparsity * n_points)
    for _ in range(n_extra):
        u = int(rng.integers(0, n_points))
        v = int(rng.integers(0, n_points))
        if u == v:
            continue
        a, b = (u, v) if u < v else (v, u)
        if (a, b) not in edges:
            edges[(a, b)] = float(rng.uniform(0.5, 1.5))
    weights = rng.uniform(0.2, 1.2, size=n_points)
    if n_null_points:
        nulls = rng.choice(n_points, size=n_null_points, replace=False)
        weights[nulls] = 0.0
    space = MetricMeasureSpace(
        n_points,
        [(u, v, ell) for (u, v), ell in sorted(edges.items())],
        weights,
    )
    positive = np.nonzero(space.positive_mask)[0]
    measures = []
    for _ in range(n_measures):
        size = int(rng.integers(1, min(6, len(positive)) + 1))
        pts = rng.choice(positive, size=size, replace=False)
        mags = rng.uniform(0.1, 1.0, size=size)
        measures.append(
            DiscreteMeasure(tuple((int(p), float(w)) for p, w in zip(pts, mags)))
        )
    fam = MeasureFamily("random", "explicit", measures=tuple(measures))
    return Instance(f"random-{seed}", space, {"random": fam})


def random_walk_curve(
    space: MetricMeasureSpace, rng: np.random.Generator, n_steps: int
) -> ParametricCurve:
    """Seeded random walk with random (sorted) breakpoint times."""
    node = int(rng.integers(0, space.n_points))
    nodes = [node]
    for _ in range(n_steps):
        nbrs = space.neighbors(node)
        if not nbrs:
            break
        node = int(nbrs[int(rng.integers(0, len(nbrs)))][0])
        nodes.append(node)
    if len(nodes) == 1:
        return ParametricCurve((nodes[0], nodes[0]), (0.0, 1.0))
    inner = np.sort(rng.uniform(0.05, 0.95, size=len(nodes) - 2))
    times = (0.0, *map(float, inner), 1.0)
    return ParametricCurve(tuple(nodes), times)


@dataclass(frozen=True)
class ResultRecord:
    instance: str
    family: str
    p: float
    value: float
    dual_value: float
    gap: float
    iters: int
    wall_ms: float
    seed: int

    def row(self) -> list[str]:
        def fmt(v: Any) -> str:
            if isinstance(v, float):
                if math.isinf(v):
                    return "inf" if v > 0 else "-inf"
                if math.isnan(v):
                    return "nan"
                return repr(v)
            return str(v)

        return [fmt(getattr(self, col)) for col in RESULT_COLUMNS]


RESULT_COLUMNS = tuple(fld.name for fld in fields(ResultRecord))


def emit_results(
    records: Sequence[ResultRecord], path: str | Path, format: str = "csv"
) -> None:
    """Write result records as CSV (canonical) or ndjson.

    Column order is fixed; infinite values serialize as ``inf``.
    """
    path = Path(path)
    if format == "csv":
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(RESULT_COLUMNS)
            for rec in records:
                writer.writerow(rec.row())
        return
    if format == "ndjson":
        with path.open("w") as fh:
            for rec in records:
                obj = dict(zip(RESULT_COLUMNS, rec.row()))
                fh.write(json.dumps(obj, sort_keys=True) + "\n")
        return
    raise InvalidInstanceError(f"unknown result format {format!r}")
