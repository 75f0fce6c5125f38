"""Finite metric measure spaces and sparse nonnegative measures.

A space is a finite simple graph with positive edge lengths and a
nonnegative reference measure on the points.  Points are dense integer
ids ``0..n-1``.  The metric is the shortest-path metric; curve and
modulus computations only ever query lengths of single edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InvalidInstanceError

__all__ = [
    "MetricMeasureSpace",
    "DiscreteMeasure",
    "build_grid_space",
    "grid_node",
    "trapezoid_grid_weights",
]


class MetricMeasureSpace:
    """Immutable finite graph with edge lengths and a point measure.

    Parameters
    ----------
    n_points : int
        Number of points; ids are ``0..n_points-1``.
    edges : iterable of (u, v, length)
        Undirected simple edges with strictly positive lengths.
    measure : sequence of float
        Nonnegative mass per point, length ``n_points``.
    coords : optional sequence of (x, y)
        Layout metadata, not used by any computation.
    """

    def __init__(
        self,
        n_points: int,
        edges: Iterable[tuple[int, int, float]],
        measure: Sequence[float],
        coords: Sequence[tuple[float, float]] | None = None,
    ):
        if n_points <= 0:
            raise InvalidInstanceError("space needs at least one point")
        m = np.asarray(measure, dtype=float)
        if m.shape != (n_points,):
            raise InvalidInstanceError(
                f"measure has length {m.shape}, expected ({n_points},)"
            )
        if not np.all(np.isfinite(m)):
            raise InvalidInstanceError("measure contains non-finite entries")
        neg = np.nonzero(m < 0)[0]
        if neg.size:
            raise InvalidInstanceError(f"negative mass at point {int(neg[0])}")

        elen: dict[tuple[int, int], float] = {}
        norm_edges: list[tuple[int, int, float]] = []
        for e in edges:
            u, v, length = int(e[0]), int(e[1]), float(e[2])
            if not (0 <= u < n_points and 0 <= v < n_points):
                raise InvalidInstanceError(f"edge ({u},{v}) references unknown point")
            if u == v:
                raise InvalidInstanceError(f"self-loop at point {u}")
            if not (length > 0 and math.isfinite(length)):
                raise InvalidInstanceError(
                    f"edge ({u},{v}) has non-positive length {length!r}"
                )
            key = (u, v) if u < v else (v, u)
            if key in elen:
                raise InvalidInstanceError(f"duplicate edge ({key[0]},{key[1]})")
            elen[key] = length
            norm_edges.append((key[0], key[1], length))
        norm_edges.sort()

        adj: list[list[tuple[int, float]]] = [[] for _ in range(n_points)]
        for u, v, length in norm_edges:
            adj[u].append((v, length))
            adj[v].append((u, length))

        self._n = n_points
        self._edges = tuple(norm_edges)
        # Sorted edge keys u * n + v (u < v), then a sentinel n * n, for _edge_lengths.
        self._keys = np.array([u * n_points + v for u, v, _ in norm_edges] + [n_points**2])
        self._lengths = np.array([length for *_, length in norm_edges] + [math.nan])
        self._elen = elen
        self._adj = tuple(tuple(sorted(a)) for a in adj)
        self._measure = m
        self._measure.setflags(write=False)
        self._positive = m > 0
        self._positive.setflags(write=False)
        self._coords = None
        if coords is not None:
            c = np.asarray(coords, dtype=float)
            if c.shape != (n_points, 2):
                raise InvalidInstanceError("coords must be one (x, y) pair per point")
            c.setflags(write=False)
            self._coords = c

    @property
    def n_points(self) -> int:
        return self._n

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        return self._edges

    @property
    def measure(self) -> np.ndarray:
        return self._measure

    @property
    def coords(self) -> np.ndarray | None:
        return self._coords

    @property
    def positive_mask(self) -> np.ndarray:
        """The points of positive mass, as a read-only mask."""
        return self._positive

    def neighbors(self, u: int) -> tuple[tuple[int, float], ...]:
        return self._adj[u]

    def edge_length(self, u: int, v: int) -> float:
        """Length of the edge {u, v}; raises if absent."""
        key = (u, v) if u < v else (v, u)
        try:
            return self._elen[key]
        except KeyError:
            raise InvalidInstanceError(f"points {u} and {v} are not adjacent") from None

    def _edge_lengths(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Length of each edge {u[i], v[i]} of point ids, NaN where there is none."""
        key = np.minimum(u, v) * self._n + np.maximum(u, v)
        i = np.searchsorted(self._keys, key)
        return np.where(self._keys[i] == key, self._lengths[i], math.nan)

    def has_edge(self, u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        return key in self._elen

    def __repr__(self) -> str:  # pragma: no cover
        return f"MetricMeasureSpace(n_points={self._n}, n_edges={len(self._edges)})"


@dataclass(frozen=True)
class DiscreteMeasure:
    """Sparse nonnegative measure: sorted (point, weight) pairs.

    Zero-weight entries are dropped on construction, so the zero measure
    has an empty ``items`` tuple.  ``total`` is the exact (fsum) mass.
    """

    items: tuple[tuple[int, float], ...]
    total: float = field(init=False)

    def __post_init__(self):
        seen: dict[int, float] = {}
        for idx, w in self.items:
            i, wf = int(idx), float(w)
            if i < 0:
                raise InvalidInstanceError(f"negative point id {i} in measure")
            if wf < 0 or not math.isfinite(wf):
                raise InvalidInstanceError(f"measure weight {wf!r} at point {i}")
            if i in seen:
                raise InvalidInstanceError(f"duplicate point {i} in measure")
            seen[i] = wf
        cleaned = tuple(sorted((i, w) for i, w in seen.items() if w > 0))
        object.__setattr__(self, "items", cleaned)
        object.__setattr__(self, "total", math.fsum(w for _, w in cleaned))

    @classmethod
    def from_dict(cls, weights: Mapping[int, float]) -> "DiscreteMeasure":
        return cls(tuple(weights.items()))

    @classmethod
    def from_array(cls, values: Sequence[float]) -> "DiscreteMeasure":
        arr = np.asarray(values, dtype=float)
        return cls(tuple((int(i), float(arr[i])) for i in np.nonzero(arr)[0]))

    def to_array(self, n_points: int) -> np.ndarray:
        out = np.zeros(n_points)
        for i, w in self.items:
            if i >= n_points:
                raise InvalidInstanceError(f"measure charges unknown point {i}")
            out[i] = w
        return out

    def integrate(self, values: Sequence[float]) -> float:
        """Integral of a per-point function against this measure."""
        return math.fsum(w * float(values[i]) for i, w in self.items)


def _entries(
    space: MetricMeasureSpace, measures: Sequence[DiscreteMeasure]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (member, point, mass) entries of a family's items, in item order.

    Raises InvalidInstanceError naming the first measure that charges a
    point outside the space, an id beyond int64 included.
    """
    member = np.repeat(np.arange(len(measures)), [len(mu.items) for mu in measures])
    points = [x for mu in measures for x, _ in mu.items]
    if max(points, default=-1) >= space.n_points:
        at = next(j for j, x in enumerate(points) if x >= space.n_points)
        raise InvalidInstanceError(
            f"measure {member[at]} charges point {points[at]} outside the space"
        )
    mass = np.fromiter((w for mu in measures for _, w in mu.items), float, len(member))
    return member, np.array(points, dtype=np.int64), mass


def grid_node(nx: int, x: int, y: int) -> int:
    """Point id of grid node (x, y) in row-major order."""
    return y * nx + x


def build_grid_space(
    nx: int,
    ny: int,
    measure_weights: Sequence[float] | None = None,
) -> MetricMeasureSpace:
    """4-neighbor grid on the unit square with ``nx * ny`` points.

    Horizontal edges have length ``1/max(nx-1, 1)`` and vertical edges
    ``1/max(ny-1, 1)``, so the grid spans [0,1] on each populated axis.
    With ``measure_weights=None`` every point carries mass
    ``1/(nx*ny)`` (total mass 1); otherwise the given per-point weights
    are used as-is.
    """
    if nx < 1 or ny < 1:
        raise InvalidInstanceError("grid dimensions must be at least 1")
    n = nx * ny
    hx = 1.0 / max(nx - 1, 1)
    hy = 1.0 / max(ny - 1, 1)
    edges: list[tuple[int, int, float]] = []
    for y in range(ny):
        for x in range(nx):
            i = grid_node(nx, x, y)
            if x + 1 < nx:
                edges.append((i, grid_node(nx, x + 1, y), hx))
            if y + 1 < ny:
                edges.append((i, grid_node(nx, x, y + 1), hy))
    if measure_weights is None:
        measure = np.full(n, 1.0 / n)
    else:
        measure = np.asarray(measure_weights, dtype=float)
        if measure.shape != (n,):
            raise InvalidInstanceError(
                f"custom grid weights have shape {measure.shape}, expected ({n},)"
            )
    coords = [
        (x * hx if nx > 1 else 0.0, y * hy if ny > 1 else 0.0)
        for y in range(ny)
        for x in range(nx)
    ]
    return MetricMeasureSpace(n, edges, measure, coords)


def trapezoid_grid_weights(nx: int, ny: int) -> np.ndarray:
    """Finite-volume node weights for the unit-square grid.

    Each node owns its surrounding cell: interior nodes get the full
    cell ``hx*hy``, boundary nodes half of it per boundary axis, corner
    nodes a quarter.  The weights sum to 1 and make node quadrature of
    smooth integrands second-order accurate up to the boundary.
    """
    if nx < 1 or ny < 1:
        raise InvalidInstanceError("grid dimensions must be at least 1")
    hx = 1.0 / max(nx - 1, 1)
    hy = 1.0 / max(ny - 1, 1)
    wx = np.full(nx, hx)
    wy = np.full(ny, hy)
    if nx > 1:
        wx[0] *= 0.5
        wx[-1] *= 0.5
    if ny > 1:
        wy[0] *= 0.5
        wy[-1] *= 0.5
    return np.outer(wy, wx).reshape(-1)
