"""Piecewise-linear curves on a space and their calculus.

A parametric curve is a node sequence with a strictly increasing time
grid on [0, 1]; consecutive nodes are adjacent or identical (identical
nodes form a plateau).  Speed, length, energy, line measures, and
occupation measures all derive from the segment decomposition with a
single quadrature convention: along a segment, a per-point function is
interpolated linearly, so a segment contributes half of its time (or
length) to each endpoint.  ``_half_weights`` is the one place that rule
is coded.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInstanceError
from .space import DiscreteMeasure, MetricMeasureSpace

__all__ = [
    "ParametricCurve",
    "constant_curve",
    "metric_speed",
    "curve_length",
    "curve_energy",
    "constant_speed_reparam",
    "j_map",
    "j_edge_measure",
    "edge_multiplicity",
    "m_map",
    "time_average",
    "curve_integral",
    "occupation_at",
    "stretch",
    "curves_equivalent",
]


@dataclass(frozen=True)
class ParametricCurve:
    """Node path with a time grid; times run from 0 to 1."""

    nodes: tuple[int, ...]
    times: tuple[float, ...]

    def __post_init__(self):
        nodes = tuple(int(x) for x in self.nodes)
        times = tuple(float(t) for t in self.times)
        if len(nodes) == 1:
            # A single node means the constant curve; normalize so the
            # time grid always spans [0, 1].
            nodes = (nodes[0], nodes[0])
            times = (0.0, 1.0)
        if len(nodes) != len(times):
            raise InvalidInstanceError(
                f"curve has {len(nodes)} nodes but {len(times)} times"
            )
        if len(nodes) < 2:
            raise InvalidInstanceError("curve needs at least one node")
        if min(nodes) < 0:
            raise InvalidInstanceError(f"curve has negative node {min(nodes)}")
        if times[0] != 0.0 or times[-1] != 1.0:
            raise InvalidInstanceError("curve times must start at 0 and end at 1")
        for a, b in zip(times, times[1:]):
            if not (b > a):
                raise InvalidInstanceError("curve times must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "times", times)

    @property
    def n_segments(self) -> int:
        return len(self.nodes) - 1

    def is_constant(self) -> bool:
        first = self.nodes[0]
        return all(x == first for x in self.nodes)


def constant_curve(point: int) -> ParametricCurve:
    """The curve that sits at one point for all of [0, 1]."""
    return ParametricCurve((point, point), (0.0, 1.0))


def _segment_lengths(space: MetricMeasureSpace, curve: ParametricCurve) -> list[float]:
    """Edge length of each segment, 0 on a plateau.

    Raises InvalidInstanceError for a node outside the space or a step
    between points that are not adjacent.
    """
    if max(curve.nodes) >= space.n_points:  # nodes are never negative
        raise InvalidInstanceError(
            f"curve node {max(curve.nodes)} is not a point of the space"
        )
    out = []
    for u, v in zip(curve.nodes, curve.nodes[1:]):
        if u == v:
            out.append(0.0)
        else:
            try:
                out.append(space.edge_length(u, v))
            except InvalidInstanceError:
                raise InvalidInstanceError(
                    f"curve steps between non-adjacent points ({u},{v})"
                ) from None
    return out


def metric_speed(space: MetricMeasureSpace, curve: ParametricCurve) -> np.ndarray:
    """Per-segment speed: segment length over segment duration."""
    lens = _segment_lengths(space, curve)
    dts = np.diff(np.asarray(curve.times))
    return np.asarray(lens) / dts


def curve_length(space: MetricMeasureSpace, curve: ParametricCurve) -> float:
    return math.fsum(_segment_lengths(space, curve))


def curve_energy(space: MetricMeasureSpace, curve: ParametricCurve, q: float) -> float:
    """q-energy: integral of speed^q over time."""
    if not (q >= 1 and math.isfinite(q)):  # also false on NaN
        raise InvalidInstanceError(f"energy exponent must be finite and >= 1, got {q}")
    lens = _segment_lengths(space, curve)
    times = curve.times
    total = 0.0
    for i, ell in enumerate(lens):
        dt = times[i + 1] - times[i]
        if ell > 0:
            total += (ell / dt) ** q * dt
    return total


def constant_speed_reparam(
    space: MetricMeasureSpace, curve: ParametricCurve
) -> ParametricCurve:
    """Constant-speed representative with plateaus removed.

    The i-th surviving node is placed at time (arc length so far) /
    (total length), so every segment runs at speed equal to the total
    length.  The representative stands for the non-parametric curve,
    the curve up to increasing reparameterization.  Rejects constant
    curves.
    """
    lens = _segment_lengths(space, curve)
    total = math.fsum(lens)
    if total <= 0:
        raise InvalidInstanceError("constant curve has no constant-speed representative")
    nodes = [curve.nodes[0]]
    times = [0.0]
    acc = 0.0
    for i, ell in enumerate(lens):
        if ell == 0.0:
            continue
        acc += ell
        nodes.append(curve.nodes[i + 1])
        times.append(acc / total)
    times[-1] = 1.0
    return ParametricCurve(tuple(nodes), tuple(times))


def _half_weights(segments: Iterable[tuple[int, int, float]]) -> dict[int, float]:
    """Point -> summed half masses: each (u, v, mass) gives mass / 2 to u and to v.

    Halves are added in segment order, u before v; a plateau (u == v)
    gives its whole mass to its node.
    """
    acc: dict[int, float] = {}
    for u, v, mass in segments:
        half = 0.5 * mass
        acc[u] = acc.get(u, 0.0) + half
        acc[v] = acc.get(v, 0.0) + half
    return acc


def edge_multiplicity(
    space: MetricMeasureSpace, curve: ParametricCurve
) -> dict[tuple[int, int], int]:
    """Traversal count per undirected edge."""
    _segment_lengths(space, curve)  # InvalidInstanceError off the space
    out: dict[tuple[int, int], int] = {}
    for u, v in zip(curve.nodes, curve.nodes[1:]):
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        out[key] = out.get(key, 0) + 1
    return out


def j_edge_measure(
    space: MetricMeasureSpace, curve: ParametricCurve
) -> dict[tuple[int, int], float]:
    """Line measure of the curve, indexed by edge.

    Each traversal of an edge contributes the edge length, so the mass
    of edge e is multiplicity(e) * length(e) and the total mass is the
    curve length.  Invariant under reparameterization by construction.
    """
    mult = edge_multiplicity(space, curve)
    return {e: k * space.edge_length(*e) for e, k in mult.items()}


def j_map(space: MetricMeasureSpace, curve: ParametricCurve) -> DiscreteMeasure:
    """Line measure projected to nodes (half of each edge's mass per endpoint)."""
    edges = j_edge_measure(space, curve).items()
    return DiscreteMeasure.from_dict(_half_weights((u, v, w) for (u, v), w in edges))


def m_map(space: MetricMeasureSpace, curve: ParametricCurve) -> DiscreteMeasure:
    """Occupation measure: pushforward of time, total mass 1.

    Time spent on a segment splits half to each endpoint (the integral
    of the linear interpolation weights); a plateau's full duration
    lands on its node.  Not invariant under reparameterization.
    """
    _segment_lengths(space, curve)  # InvalidInstanceError off the space
    x, t = curve.nodes, curve.times
    steps = ((x[i], x[i + 1], t[i + 1] - t[i]) for i in range(curve.n_segments))
    return DiscreteMeasure.from_dict(_half_weights(steps))


def time_average(
    space: MetricMeasureSpace, curve: ParametricCurve, values: Sequence[float]
) -> float:
    """Time integral of a per-point function along the curve.

    This is the integral against the occupation measure ``m_map``: each
    segment contributes the trapezoid value (f(u) + f(v)) / 2 per unit
    of time.
    """
    return m_map(space, curve).integrate(values)


def curve_integral(
    space: MetricMeasureSpace, curve: ParametricCurve, values: Sequence[float]
) -> float:
    """Curvilinear integral of a per-point function (against the line measure)."""
    vals = np.asarray(values, dtype=float)
    lens = _segment_lengths(space, curve)
    total = 0.0
    for i, ell in enumerate(lens):
        if ell > 0:
            total += ell * 0.5 * (vals[curve.nodes[i]] + vals[curve.nodes[i + 1]])
    return float(total)


def _curve_table(curves: Sequence[ParametricCurve]) -> tuple[np.ndarray, np.ndarray]:
    """One padded row of times and of nodes per curve.

    A row of times ends in a sentinel 2.0 and then +inf; a row of nodes
    repeats the last node from there on, so t = 1 falls on a plateau.
    """
    width = max(len(c.times) for c in curves) + 1
    rows = [(c, width - len(c.times)) for c in curves]
    times = np.array([c.times + (2.0,) + (math.inf,) * (k - 1) for c, k in rows])
    nodes = np.array([c.nodes + c.nodes[-1:] * k for c, k in rows])
    return times, nodes


def _table_occupation(
    times: np.ndarray, nodes: np.ndarray, s: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node weights of table row r at each of the times s[r], in [0, 1].

    Returns arrays u, v, theta shaped like s: the curve sits on u with
    weight 1 - theta and on v with weight theta, where theta interpolates
    linearly inside a segment (found by exact comparison with the row's
    times).  At a breakpoint, on a plateau (u == v) and at t = 1, theta
    is 0, so all weight is on u.
    """
    width = times.shape[1]
    count = (times[:, :, None] <= s[:, None, :]).sum(1, dtype=np.min_scalar_type(width))
    # Flat index of the last row time <= s (every row starts at time 0).
    i = np.arange(-1, times.size - 1, width)[:, None] + count
    times, nodes, j = times.ravel(), nodes.ravel(), i + 1
    t0, u, v = times[i], nodes[i], nodes[j]
    theta = np.where(u != v, (s - t0) / (times[j] - t0), 0.0)
    return u, v, theta


def occupation_at(
    space: MetricMeasureSpace, curve: ParametricCurve, t: float
) -> list[tuple[int, float]]:
    """Instantaneous node weights at time t.

    Inside a segment the curve occupies both endpoints with linear
    interpolation weights; at a breakpoint it sits fully on that node.
    """
    if not (0.0 <= t <= 1.0):
        raise InvalidInstanceError(f"time {t} outside [0, 1]")
    _segment_lengths(space, curve)  # InvalidInstanceError off the space
    table = _curve_table([curve])
    u, v, theta = (x.item() for x in _table_occupation(*table, np.array([[t]])))
    if theta == 0.0:
        return [(u, 1.0)]
    return [(u, 1.0 - theta), (v, theta)]


def stretch(
    space: MetricMeasureSpace, curve: ParametricCurve, a: float, b: float
) -> ParametricCurve:
    """Restriction of the curve to [a, b], rescaled back to [0, 1].

    Output time t corresponds to source time a + t(b - a).  Interior
    breakpoints carry over exactly; a window boundary that falls inside
    a segment is snapped to the nearest node of that segment, which is
    the finest position the node representation can express.
    """
    _segment_lengths(space, curve)
    if not (0.0 <= a < b <= 1.0):
        raise InvalidInstanceError(f"invalid window [{a}, {b}]")
    times = curve.times
    span = b - a
    lo = bisect_right(times, a)
    hi = bisect_left(times, b)
    u, v, theta = _table_occupation(*_curve_table([curve]), np.array([[a, b]]))
    first, last = np.where(theta < 0.5, u, v)[0].tolist()
    nodes = [first]
    out_times = [0.0]
    for k in range(lo, hi):
        nodes.append(curve.nodes[k])
        out_times.append((times[k] - a) / span)
    nodes.append(last)
    out_times.append(1.0)
    if len(nodes) == 2 and nodes[0] == nodes[1]:
        return constant_curve(nodes[0])
    return ParametricCurve(tuple(nodes), tuple(out_times))


def curves_equivalent(
    space: MetricMeasureSpace,
    c1: ParametricCurve,
    c2: ParametricCurve,
    tol: float = 1e-9,
) -> bool:
    """Whether two nonconstant curves agree up to increasing reparameterization.

    Compares constant-speed representatives: node sequences must match
    exactly and breakpoint times within tol.  A curve and its reversal
    are not equivalent.
    """
    r1, r2 = (constant_speed_reparam(space, c) for c in (c1, c2))
    return _same_rep(r1, r2, tol)


def _same_rep(r1: ParametricCurve, r2: ParametricCurve, tol: float) -> bool:
    """Whether two constant-speed representatives name the same curve."""
    return r1.nodes == r2.nodes and all(
        abs(s - t) <= tol for s, t in zip(r1.times, r2.times)
    )
