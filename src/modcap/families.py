"""Named families of measures: explicit lists, path families, curve images."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .curves import ParametricCurve, _half_rows, _measure, _steps, j_map, m_map
from .errors import InvalidInstanceError
from .space import DiscreteMeasure, MetricMeasureSpace

__all__ = ["MeasureFamily", "enumerate_family", "path_line_measure"]

_KINDS = ("explicit", "paths", "curves")


@dataclass(frozen=True)
class MeasureFamily:
    """A family of measures described by kind-specific data.

    kind="explicit": ``measures`` holds the family directly.
    kind="paths":    all simple paths from ``source`` to ``target``
                     (optionally at most ``max_hops`` edges), each mapped
                     to its node-projected line measure.
    kind="curves":   named curves mapped through the line measure ("J")
                     or the occupation measure ("M").
    """

    name: str
    kind: str
    measures: tuple[DiscreteMeasure, ...] = ()
    source: tuple[int, ...] = ()
    target: tuple[int, ...] = ()
    max_hops: int | None = None
    curve_names: tuple[str, ...] = ()
    curve_map: str = "J"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidInstanceError(
                f"family {self.name!r} has unknown kind {self.kind!r}"
            )
        if self.kind == "paths":
            if not self.source or not self.target:
                raise InvalidInstanceError(
                    f"path family {self.name!r} needs nonempty source and target"
                )
            if self.max_hops is not None and self.max_hops < 1:
                raise InvalidInstanceError(
                    f"path family {self.name!r}: max_hops must be positive"
                )
        if self.kind == "curves" and self.curve_map not in ("J", "M"):
            raise InvalidInstanceError(
                f"curve family {self.name!r}: map must be 'J' or 'M'"
            )


@dataclass(frozen=True)
class EnumeratedFamily:
    measures: tuple[DiscreteMeasure, ...]
    truncated: bool = False
    paths: tuple[tuple[int, ...], ...] = field(default=())


def _enumerate_paths(
    space: MetricMeasureSpace,
    source: tuple[int, ...],
    target: tuple[int, ...],
    max_hops: int | None,
    limit: int,
) -> tuple[list[tuple[int, ...]], bool]:
    """Simple source-to-target paths in lexicographic node-sequence order."""
    targets = set(target)
    paths: list[tuple[int, ...]] = []
    truncated = False
    hop_cap = max_hops if max_hops is not None else space.n_points

    def dfs(node: int, visited: set[int], trail: list[int]) -> bool:
        nonlocal truncated
        if node in targets:
            paths.append(tuple(trail))
            if len(paths) >= limit:
                truncated = True
                return False
            return True
        if len(trail) - 1 >= hop_cap:
            return True
        for nbr, _ in space.neighbors(node):
            if nbr in visited:
                continue
            visited.add(nbr)
            trail.append(nbr)
            keep_going = dfs(nbr, visited, trail)
            trail.pop()
            visited.remove(nbr)
            if not keep_going:
                return False
        return True

    for s in sorted(set(source)):
        if not dfs(s, {s}, [s]):
            break
    return paths, truncated


def path_line_measure(
    space: MetricMeasureSpace, path: tuple[int, ...]
) -> DiscreteMeasure:
    """Node-projected line measure of a simple path (mass = path length).

    Half of each edge's length lands on each endpoint: the ``j_map`` of
    the path at any parameterization, without building the curve.
    """
    return _measure(*_path_rows(space, [path])[1:])


def _path_rows(
    space: MetricMeasureSpace, paths: Sequence[tuple[int, ...]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entries (row, point, mass), row r ``path_line_measure`` of paths[r],
    sorted by row then point: the steps read by ``curves._steps`` (no
    plateaus) and one ``_half_rows`` pass."""
    row, _, u, v, length = _steps(space, paths, plateaus=False)
    return _half_rows(row, u, v, length, space.n_points)


def enumerate_family(
    space: MetricMeasureSpace,
    family: MeasureFamily,
    limit: int = 100000,
    curves_by_name: Mapping[str, ParametricCurve] | None = None,
) -> EnumeratedFamily:
    """Materialize a family as a finite list of measures.

    Ordering is deterministic: explicit families keep their order, path
    families enumerate lexicographically by node sequence, curve
    families follow the listed names.  Explicit and curve families come
    back whole; ``limit`` caps the number of enumerated paths and
    ``truncated`` reports whether it cut the enumeration short.
    """
    if limit < 1:
        raise InvalidInstanceError("enumeration limit must be positive")
    if family.kind == "explicit":
        return EnumeratedFamily(family.measures)
    if family.kind == "paths":
        for pt in (*family.source, *family.target):
            if not (0 <= pt < space.n_points):
                raise InvalidInstanceError(
                    f"path family {family.name!r} references unknown point {pt}"
                )
        paths, truncated = _enumerate_paths(
            space, family.source, family.target, family.max_hops, limit
        )
        measures = tuple(path_line_measure(space, p) for p in paths)
        return EnumeratedFamily(measures, truncated, tuple(paths))
    # curves
    if curves_by_name is None:
        curves_by_name = {}
    out = []
    for name in family.curve_names:
        try:
            curve = curves_by_name[name]
        except KeyError:
            raise InvalidInstanceError(
                f"curve family {family.name!r} references unknown curve {name!r}"
            ) from None
        out.append(
            j_map(space, curve) if family.curve_map == "J" else m_map(space, curve)
        )
    return EnumeratedFamily(tuple(out))
