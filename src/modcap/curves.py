"""Piecewise-linear curves on a space and their calculus.

A parametric curve is a node sequence with a strictly increasing time
grid on [0, 1]; consecutive nodes are adjacent or identical (identical
nodes form a plateau).  Speed, length, energy, line measures, and
occupation measures all derive from the segment decomposition with a
single quadrature convention: along a segment, a per-point function is
interpolated linearly, so a segment contributes half of its time (or
length) to each endpoint.

One reader, ``_steps``, cuts the node sequences of curves and of paths
into steps: it checks every node against the space before any edge, and
names the first bad node or step, in order, as "node x is not a point of
the space" or "points u and v are not adjacent".  A curve may stay at a
point (a plateau, a step of length 0); a path may not.  Curves are read
through a segment table (``_segment_table``): one flat row per segment
of any number of curves, holding its curve, ends, start time, duration
and edge length.  It validates with ``_steps``, then lays the curves end
to end as flat arrays (``_flat``) for the builder ``_table``; stretch
windows, cut as flat arrays by ``_windows``, go to ``_table``
unvalidated.  Time lookups read padded rows cut from a table
(``_padded``).  The per-curve functions read a one-curve table; ``plans``
reads one table per plan.  ``_half_rows`` codes the half rule on a table,
adding halves in segment order, u before v; ``families`` applies it to
the steps of paths.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Sequence

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
    "edge_multiplicity",
    "m_map",
    "occupation_at",
    "stretch",
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

    def is_constant(self) -> bool:
        first = self.nodes[0]
        return all(x == first for x in self.nodes)


def constant_curve(point: int) -> ParametricCurve:
    """The curve that sits at one point for all of [0, 1]."""
    return ParametricCurve((point, point), (0.0, 1.0))


# Flat segment table of curves, curve after curve: segment s of curve
# curve[s] runs from u[s] at time t0[s] to v[s] in time dt[s] along an edge
# of length length[s] (0 on a plateau); curve c owns start[c]:start[c + 1].
class _Segments(namedtuple("_Segments", "start curve u v dt length t0")):
    def __new__(cls, *arrays):  # read-only, so that a plan can carry its table
        for a in arrays:
            a.setflags(write=False)
        return super().__new__(cls, *arrays)


def _steps(
    space: MetricMeasureSpace, seqs: Sequence[Sequence[int]], plateaus: bool = True
) -> tuple[np.ndarray, ...]:
    """The steps of node sequences on the space, as arrays (seq, at, u, v, length).

    Step i of sequence seq[i] runs from u[i] to v[i], the nodes at flat
    indices at[i] and at[i] + 1 of the sequences laid end to end, along
    an edge of length length[i]; ``plateaus`` is True for curves, False
    for paths.  All nodes are checked before any edge lookup, as the key
    u * n + v of a node off the space can equal that of a real edge.
    """
    sizes = np.array([len(s) for s in seqs], dtype=np.int64)
    try:
        nodes = np.fromiter(chain.from_iterable(seqs), np.int64, sizes.sum())
        ok = not len(nodes) or (nodes.min() >= 0 and nodes.max() < space.n_points)
    except OverflowError:  # a node beyond int64 is off the space too
        ok = False
    if ok:
        seq = np.repeat(np.arange(len(seqs)), sizes - 1)
        at = np.arange(len(seq)) + seq
        u, v = nodes[at], nodes[at + 1]
        length = space._edge_lengths(u, v)
        if plateaus:
            length = np.where(u == v, 0.0, length)
        ok = not np.isnan(length).any()
    if not ok:
        for s in seqs:
            for i, b in enumerate(s):
                if not 0 <= b < space.n_points:
                    raise InvalidInstanceError(f"node {b} is not a point of the space")
                a = s[i - 1]
                if i and not (plateaus and a == b) and not space.has_edge(a, b):
                    raise InvalidInstanceError(f"points {a} and {b} are not adjacent")
    return seq, at, u, v, length


def _flat(curves: Sequence[ParametricCurve]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrays (start, nodes, times) of the curves laid end to end: curve c
    owns the nodes and times start[c]:start[c + 1]."""
    start = np.array([0, *accumulate(len(c.nodes) for c in curves)])
    nodes = np.fromiter(chain.from_iterable(c.nodes for c in curves), np.int64, start[-1])
    times = np.fromiter(chain.from_iterable(c.times for c in curves), float, start[-1])
    return start, nodes, times


def _table(
    space: MetricMeasureSpace, start: np.ndarray, nodes: np.ndarray, times: np.ndarray
) -> _Segments:
    """The segment table of curves on the space laid end to end (``_flat``),
    unchecked: edge lengths are looked up, 0 on a plateau."""
    curve = np.repeat(np.arange(len(start) - 1), np.diff(start) - 1)
    at = np.arange(len(curve)) + curve
    u, v, t0 = nodes[at], nodes[at + 1], times[at]
    length = np.where(u == v, 0.0, space._edge_lengths(u, v))
    return _Segments(start - np.arange(len(start)), curve, u, v, times[at + 1] - t0, length, t0)


def _segment_table(space: MetricMeasureSpace, curves: Sequence[ParametricCurve]) -> _Segments:
    """The segments of all the curves, read and validated by ``_steps``."""
    _steps(space, [c.nodes for c in curves])
    return _table(space, *_flat(curves))


def _half_rows(
    curve: np.ndarray, u: np.ndarray, v: np.ndarray, mass: np.ndarray,
    n_rows: int, n_points: int,
) -> np.ndarray:
    """(n_rows, n_points) point masses: entry i gives mass[i] / 2 to u[i] and
    to v[i] in row curve[i].  ``np.bincount`` adds its weights in order, so
    each cell sums its halves from 0.0 in entry order, u before v."""
    cells = curve * n_points
    idx = np.stack((cells + u, cells + v), axis=1).ravel()
    halves = np.repeat(0.5 * mass, 2)
    return np.bincount(idx, halves, minlength=n_rows * n_points).reshape(n_rows, n_points)


def _edges(t: _Segments) -> tuple[np.ndarray, ...]:
    """Arrays (curve, lo, hi, mass, count): one entry per edge {lo < hi} of each
    curve, curve after curve in order of first traversal, with its line
    measure mass = count x edge length and its traversal count."""
    s = np.flatnonzero(t.u != t.v)
    lo, hi = np.minimum(t.u[s], t.v[s]), np.maximum(t.u[s], t.v[s])
    order = np.lexsort((hi, lo, t.curve[s]))  # stable: traversals stay in order
    s, lo, hi = s[order], lo[order], hi[order]
    new = np.ones(len(s), dtype=bool)  # first traversal of a (curve, edge)
    new[1:] = (np.diff(t.curve[s]) != 0) | (np.diff(lo) != 0) | (np.diff(hi) != 0)
    heads = np.flatnonzero(new)
    count = np.diff(np.append(heads, len(s)))
    by_first = np.argsort(s[heads])
    heads, count = heads[by_first], count[by_first]
    return t.curve[s[heads]], lo[heads], hi[heads], count * t.length[s[heads]], count


def metric_speed(space: MetricMeasureSpace, curve: ParametricCurve) -> np.ndarray:
    """Per-segment speed: segment length over segment duration."""
    t = _segment_table(space, [curve])
    return t.length / t.dt


def curve_length(space: MetricMeasureSpace, curve: ParametricCurve) -> float:
    return math.fsum(_segment_table(space, [curve]).length.tolist())


def _check_energy_exponent(q: float) -> None:
    if not (q >= 1 and math.isfinite(q)):  # also false on NaN
        raise InvalidInstanceError(f"energy exponent must be finite and >= 1, got {q}")


def _energies(t: _Segments, q: float) -> np.ndarray:
    """Per curve, (length / dt)^q dt summed over its moving segments in
    order; a power beyond the float range counts as inf."""
    s = t.length > 0
    terms = []
    for ell, dt in zip(t.length[s].tolist(), t.dt[s].tolist()):
        try:
            terms.append((ell / dt) ** q * dt)
        except OverflowError:
            terms.append(math.inf)
    return np.bincount(t.curve[s], terms, minlength=len(t.start) - 1)


def curve_energy(space: MetricMeasureSpace, curve: ParametricCurve, q: float) -> float:
    """q-energy: integral of speed^q over time (inf beyond the float range)."""
    _check_energy_exponent(q)
    return float(_energies(_segment_table(space, [curve]), q)[0])


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
    t = _segment_table(space, [curve])
    total = math.fsum(t.length.tolist())
    if total <= 0:
        raise InvalidInstanceError("constant curve has no constant-speed representative")
    moves = t.length > 0
    arcs = list(accumulate(t.length[moves].tolist()))  # arc length at each surviving node
    times = (0.0, *(acc / total for acc in arcs[:-1]), 1.0)
    return ParametricCurve((curve.nodes[0], *t.v[moves].tolist()), times)


def edge_multiplicity(
    space: MetricMeasureSpace, curve: ParametricCurve
) -> dict[tuple[int, int], int]:
    """Traversal count per undirected edge, in order of first traversal."""
    _, lo, hi, _, count = _edges(_segment_table(space, [curve]))
    return dict(zip(zip(lo.tolist(), hi.tolist()), count.tolist()))


def j_map(space: MetricMeasureSpace, curve: ParametricCurve) -> DiscreteMeasure:
    """Line measure projected to nodes (half of each edge's mass per endpoint)."""
    line = _edges(_segment_table(space, [curve]))[:4]
    return DiscreteMeasure.from_array(_half_rows(*line, 1, space.n_points)[0])


def m_map(space: MetricMeasureSpace, curve: ParametricCurve) -> DiscreteMeasure:
    """Occupation measure: pushforward of time, total mass 1.

    Time spent on a segment splits half to each endpoint (the integral
    of the linear interpolation weights); a plateau's full duration
    lands on its node.  Not invariant under reparameterization.
    """
    t = _segment_table(space, [curve])
    row = _half_rows(t.curve, t.u, t.v, t.dt, 1, space.n_points)[0]
    return DiscreteMeasure.from_array(row)


def _line_integrals(t: _Segments, values: np.ndarray) -> np.ndarray:
    """Per curve, length (f(u) + f(v)) / 2 summed over its moving segments in order."""
    s = t.length > 0
    terms = t.length[s] * 0.5 * (values[t.u[s]] + values[t.v[s]])
    return np.bincount(t.curve[s], terms, minlength=len(t.start) - 1)


def _padded(t: _Segments, keep: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One padded row of times and of nodes per curve of segment table t (or
    per curve that ``keep`` marks).  A row of times holds its segments' start
    times, then 1.0, a sentinel 2.0 and +inf; a row of nodes its segments'
    first nodes, then its last node from there on, so t = 1 falls on a plateau."""
    seg, size = np.arange(len(t.curve)), np.diff(t.start)
    if keep is not None:
        seg, size = seg[keep[t.curve]], size[keep]
    width, end = size.max() + 2, np.cumsum(size)
    one = np.arange(len(size)) * width + size  # the flat cell of each row's 1.0
    at = np.arange(len(seg)) + np.repeat(one - end, size)  # flat cells of the segments
    padded_times = np.full(len(size) * width, math.inf)
    padded_times[at], padded_times[one], padded_times[one + 1] = t.t0[seg], 1.0, 2.0
    padded_nodes = np.repeat(t.v[seg[end - 1]], width)
    padded_nodes[at] = t.u[seg]
    return padded_times.reshape(-1, width), padded_nodes.reshape(-1, width)


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
    table = _padded(_segment_table(space, [curve]))  # InvalidInstanceError off the space
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
    table = _padded(_segment_table(space, [curve]))  # InvalidInstanceError off the space
    if not (0.0 <= a < b <= 1.0):
        raise InvalidInstanceError(f"invalid window [{a}, {b}]")
    _, nodes, times = _windows(table, np.array([a], dtype=float), np.array([b], dtype=float))
    return _trusted(tuple(nodes.tolist()), tuple(times.tolist()))


def _windows(
    table: tuple[np.ndarray, np.ndarray], a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``stretch`` of each curve of a padded table (``_padded``) to each window
    [a[i], b[i]], as arrays (start, nodes, times) of the windows, row after row
    (``_flat``): all ends from one occupation lookup, and the interior nodes
    a < t < b of a row by counting its times, each time becoming (t - a) / (b - a)."""
    times, nodes = table
    rows, width, n = len(times), times.shape[1], len(a)
    u, v, theta = _table_occupation(times, nodes, np.tile(np.concatenate((a, b)), (rows, 1)))
    ends = np.where(theta < 0.5, u, v)
    base = np.arange(0, times.size, width)[:, None]  # flat index of each row's time 0
    first = ((times[:, :, None] <= a).sum(1) + base).ravel()
    size = ((times[:, :, None] < b).sum(1) + base).ravel() - first + 2
    start = np.concatenate(([0], np.cumsum(size)))
    head, tail = start[:-1], start[1:] - 1
    at = np.repeat(first - 1 - head, size) + np.arange(start[-1])  # nodes first - 1 to stop
    lo, span = (np.repeat(np.tile(x, rows), size) for x in (a, b - a))
    out_nodes, out_times = nodes.ravel()[at], (times.ravel()[at] - lo) / span
    out_nodes[head], out_nodes[tail] = ends[:, :n].ravel(), ends[:, n:].ravel()
    out_times[head], out_times[tail] = 0.0, 1.0
    _derived(start, out_times)
    return start, out_nodes, out_times


def _derived(start: np.ndarray, times: np.ndarray) -> None:
    """Make the times of curves cut or retimed from curves on a space, laid end
    to end (``_flat``), strictly increasing in place: rounded times that
    collide (or pass 1.0) are moved apart by ulps."""
    ok = np.diff(times) > 0
    ok[start[1:-1] - 1] = True  # one curve's 1.0, the next one's 0.0
    for c in set((np.searchsorted(start, np.flatnonzero(~ok), side="right") - 1).tolist()):
        ts = times[start[c]:start[c + 1]]  # lift each time above the last, then below the next
        for k in range(1, len(ts) - 1):
            ts[k] = max(ts[k], math.nextafter(ts[k - 1], 1.0))
        for k in range(len(ts) - 2, 0, -1):
            ts[k] = min(ts[k], math.nextafter(ts[k + 1], 0.0))


def _trusted(nodes: tuple[int, ...], times: tuple[float, ...]) -> ParametricCurve:
    """A curve cut or retimed from curves on a space (Python ints and floats),
    built without the checks of ``ParametricCurve``."""
    curve = object.__new__(ParametricCurve)
    fields = curve.__dict__  # frozen: no __setattr__
    fields["nodes"], fields["times"] = nodes, times
    return curve

