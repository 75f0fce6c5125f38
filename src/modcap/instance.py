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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .curves import ParametricCurve
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


def _require_keys(obj: Mapping[str, Any], allowed: set[str], where: str) -> None:
    if not isinstance(obj, Mapping):
        raise InvalidInstanceError(f"{where}: expected an object")
    for key in obj:
        if key not in allowed:
            raise InvalidInstanceError(f"{where}: unknown key {key!r}")


def _integer(value: Any, where: str) -> int:
    """A JSON integer: floats such as 1.7 and bools are rejected, not truncated."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidInstanceError(f"{where}: expected an integer, got {value!r}")
    return value


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
    _require_keys(data, {"n_points", "edges", "measure", "coords"}, "space")
    for key in ("n_points", "edges", "measure"):
        if key not in data:
            raise InvalidInstanceError(f"space: missing key {key!r}")
    n = _integer(data["n_points"], "space.n_points")
    edges = []
    for i, e in enumerate(data["edges"]):
        where = f"space.edges[{i}]"
        if not (isinstance(e, Sequence) and len(e) == 3):
            raise InvalidInstanceError(f"{where}: expected [u, v, length]")
        edges.append((_integer(e[0], where), _integer(e[1], where), float(e[2])))
    measure = data["measure"]
    if not isinstance(measure, Sequence) or len(measure) != n:
        raise InvalidInstanceError(
            f"space.measure: expected {n} entries, got "
            f"{len(measure) if isinstance(measure, Sequence) else type(measure).__name__}"
        )
    coords = None
    if data.get("coords") is not None:
        coords = [tuple(float(c) for c in xy) for xy in data["coords"]]
        if len(coords) != n:
            raise InvalidInstanceError(
                f"space.coords: expected {n} entries, got {len(coords)}"
            )
    try:
        return MetricMeasureSpace(n, edges, measure, coords=coords)
    except (ValueError, InvalidInstanceError) as exc:
        raise InvalidInstanceError(f"space: {exc}") from exc


def _parse_measure(entry: Any, where: str) -> DiscreteMeasure:
    if not isinstance(entry, Sequence):
        raise InvalidInstanceError(f"{where}: expected a list of [point, weight]")
    items = []
    for j, pair in enumerate(entry):
        if not (isinstance(pair, Sequence) and len(pair) == 2):
            raise InvalidInstanceError(f"{where}[{j}]: expected [point, weight]")
        items.append((_integer(pair[0], f"{where}[{j}]"), float(pair[1])))
    try:
        return DiscreteMeasure(tuple(items))
    except (ValueError, InvalidInstanceError) as exc:
        raise InvalidInstanceError(f"{where}: {exc}") from exc


def _parse_family(name: str, data: Any) -> MeasureFamily:
    where = f"families[{name!r}]"
    _require_keys(
        data,
        {"kind", "measures", "source", "target", "max_hops", "curve_names", "curve_map"},
        where,
    )
    kind = data.get("kind")
    try:
        if kind == "explicit":
            measures = tuple(
                _parse_measure(entry, f"{where}.measures[{i}]")
                for i, entry in enumerate(data.get("measures", []))
            )
            return MeasureFamily(name, "explicit", measures=measures)
        if kind == "paths":
            hops = data.get("max_hops")
            return MeasureFamily(
                name,
                "paths",
                source=tuple(
                    _integer(v, f"{where}.source") for v in data.get("source", ())
                ),
                target=tuple(
                    _integer(v, f"{where}.target") for v in data.get("target", ())
                ),
                max_hops=None if hops is None else _integer(hops, f"{where}.max_hops"),
            )
        if kind == "curves":
            return MeasureFamily(
                name,
                "curves",
                curve_names=tuple(data.get("curve_names", ())),
                curve_map=data.get("curve_map", "J"),
            )
    except ValueError as exc:
        raise InvalidInstanceError(f"{where}: {exc}") from exc
    raise InvalidInstanceError(f"{where}.kind: unknown family kind {kind!r}")


def _parse_curve(name: str, data: Any, space: MetricMeasureSpace) -> ParametricCurve:
    where = f"curves[{name!r}]"
    _require_keys(data, {"nodes", "times"}, where)
    if "nodes" not in data:
        raise InvalidInstanceError(f"{where}: missing key 'nodes'")
    nodes = tuple(_integer(v, f"{where}.nodes") for v in data["nodes"])
    if data.get("times") is None:
        k = max(len(nodes) - 1, 1)
        times = tuple(i / k for i in range(len(nodes)))
        if len(nodes) == 1:
            times = (0.0,)
    else:
        times = tuple(float(t) for t in data["times"])
    try:
        curve = ParametricCurve(nodes, times)
    except InvalidInstanceError as exc:
        raise InvalidInstanceError(f"{where}: {exc}") from exc
    outside = [x for x in curve.nodes if x >= space.n_points]
    if outside:
        raise InvalidInstanceError(f"{where}: node {outside[0]} is not a point")
    for k in range(curve.n_segments):
        u, v = curve.nodes[k], curve.nodes[k + 1]
        if u != v and not space.has_edge(u, v):
            raise InvalidInstanceError(
                f"{where}: consecutive nodes ({u}, {v}) are not adjacent"
            )
    return curve


def _parse_plan(
    name: str, data: Any, curves: Mapping[str, ParametricCurve]
) -> NamedPlan:
    where = f"plans[{name!r}]"
    _require_keys(data, {"curves", "probs"}, where)
    for key in ("curves", "probs"):
        if key not in data:
            raise InvalidInstanceError(f"{where}: missing key {key!r}")
    names = tuple(str(c) for c in data["curves"])
    for c in names:
        if c not in curves:
            raise InvalidInstanceError(f"{where}: unknown curve name {c!r}")
    probs = tuple(float(w) for w in data["probs"])
    try:
        plan = CurvePlan(tuple(curves[c] for c in names), probs)
    except ValueError as exc:
        raise InvalidInstanceError(f"{where}: {exc}") from exc
    return NamedPlan(names, plan)


def instance_from_dict(data: Any, name: str = "instance") -> Instance:
    """Validate a parsed JSON document into a fully constructed instance."""
    _require_keys(
        data, {"name", "space", "families", "curves", "plans", "columns"}, "instance"
    )
    if "space" not in data:
        raise InvalidInstanceError("instance: missing key 'space'")
    label = data.get("name", name)
    space = _parse_space(data["space"])
    families = {
        str(k): _parse_family(str(k), v)
        for k, v in (data.get("families") or {}).items()
    }
    curves = {
        str(k): _parse_curve(str(k), v, space)
        for k, v in (data.get("curves") or {}).items()
    }
    plans = {
        str(k): _parse_plan(str(k), v, curves)
        for k, v in (data.get("plans") or {}).items()
    }
    columns: dict[str, np.ndarray] = {}
    for k, v in (data.get("columns") or {}).items():
        where = f"columns[{k!r}]"
        if not isinstance(v, Sequence) or len(v) != space.n_points:
            raise InvalidInstanceError(
                f"{where}: expected {space.n_points} per-point values"
            )
        arr = np.asarray([float(x) for x in v])
        if not np.all(np.isfinite(arr)):
            raise InvalidInstanceError(f"{where}: entries must be finite")
        columns[str(k)] = arr

    for fname, fam in families.items():
        if fam.kind == "paths":
            for pt in (*fam.source, *fam.target):
                if not (0 <= pt < space.n_points):
                    raise InvalidInstanceError(
                        f"families[{fname!r}]: endpoint {pt} is not a point"
                    )
        if fam.kind == "curves":
            for cname in fam.curve_names:
                if cname not in curves:
                    raise InvalidInstanceError(
                        f"families[{fname!r}]: unknown curve name {cname!r}"
                    )
        if fam.kind == "explicit":
            for i, mu in enumerate(fam.measures):
                for idx, _ in mu.items:
                    if idx >= space.n_points:
                        raise InvalidInstanceError(
                            f"families[{fname!r}].measures[{i}]: "
                            f"unknown point {idx}"
                        )
    return Instance(str(label), space, families, curves, plans, columns)


def load_instance(path: str | Path) -> Instance:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise InvalidInstanceError(f"instance file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise InvalidInstanceError(f"{path}: invalid JSON ({exc})") from exc
    return instance_from_dict(data, name=path.stem)


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
        fams: dict[str, Any] = {}
        for k in sorted(inst.families):
            fam = inst.families[k]
            if fam.kind == "explicit":
                fams[k] = {
                    "kind": "explicit",
                    "measures": [
                        [[idx, w] for idx, w in mu.items] for mu in fam.measures
                    ],
                }
            elif fam.kind == "paths":
                fams[k] = {
                    "kind": "paths",
                    "source": list(fam.source),
                    "target": list(fam.target),
                    "max_hops": fam.max_hops,
                }
            else:
                fams[k] = {
                    "kind": "curves",
                    "curve_names": list(fam.curve_names),
                    "curve_map": fam.curve_map,
                }
        doc["families"] = fams
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
        raise ValueError(
            f"generator capped at {GENERATOR_POINT_CAP} points, asked {n_points}"
        )
    if n_points < 2:
        raise ValueError("generator needs at least 2 points")
    if not 0 <= n_null_points < n_points:
        raise ValueError("n_null_points must leave at least one positive point")
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


RESULT_COLUMNS = (
    "instance",
    "family",
    "p",
    "value",
    "dual_value",
    "gap",
    "iters",
    "wall_ms",
    "seed",
)


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
    raise ValueError(f"unknown result format {format!r}")
