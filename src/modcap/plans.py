"""Probability plans on parametric curves.

A plan assigns probabilities to finitely many curves.  Its parametric
barycenter is the occupation density h with

    sum_gamma rho(gamma) * (time average of f along gamma)
        = sum_x f_x h_x m_x   for every per-point f,

an exact identity because both sides use the same segment-endpoint
quadrature.  The module provides q-energy, the test-plan constant
(supremum over time of the instantaneous marginal density), the
barycenter-improving time reparameterization, and the stretch-average
construction.

A call walks each plan it reads once, as one segment table of all its
curves (``curves._segment_table``), validated in one pass, and reads
barycenters, the line-measure c_q, energies and speeds off that table
for all curves at once.  Barycenters go through ``duality._barycenter``,
the helper of measure plans: a point's barycenter sums its halves in
segment order within a curve and adds the curves in plan order, the
order of a loop over the curves.  A plan that ``stretch_average`` or
``improve_barycenter`` builds is born validated and carries its table for its
space (``_plan_table``): its windows or retimed curves are cut as flat arrays,
and its table comes from those or from the input's.  The padded rows of the
marginal kernel and of the stretch windows are cut from a plan's one table
(``curves._padded``).  A plan the caller builds is tabled once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .curves import (
    ParametricCurve,
    _Segments,
    _check_energy_exponent,
    _derived,
    _edges,
    _energies,
    _padded,
    _segment_table,
    _table,
    _table_occupation,
    _trusted,
    _windows,
)
from .duality import _barycenter, _check_probabilities, _lq_norm
from .errors import InvalidInstanceError, NoBarycenterError
from .modulus import _check_count, _check_p
from .space import MetricMeasureSpace

__all__ = [
    "CurvePlan",
    "parametric_barycenter",
    "q_energy",
    "plan_lipschitz",
    "testplan_check",
    "improve_barycenter",
    "stretch_average",
    "bridge_inequality",
]


@dataclass(frozen=True)
class CurvePlan:
    """Finitely supported probability measure on parametric curves."""

    curves: tuple[ParametricCurve, ...]
    probabilities: tuple[float, ...]
    # (space, table, report or None, (q, energy, barycenter) or None) of a plan built on space
    _born: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_probabilities(self.curves, self.probabilities, "curve")

    def __getstate__(self) -> dict:  # pickled without its table
        return {"curves": self.curves, "probabilities": self.probabilities}

    def support(self):
        """Pairs (probability, curve) with positive probability."""
        return [
            (w, c) for w, c in zip(self.probabilities, self.curves) if w > 0
        ]


def _plan_table(space: MetricMeasureSpace, plan: CurvePlan) -> _Segments:
    """The table the plan was born with on the space, or one built and validated now."""
    born = plan._born
    return born[1] if born and born[0] is space else _segment_table(space, plan.curves)


def _plan_density(
    space: MetricMeasureSpace, t: _Segments, probs: Sequence[float], line: bool = False
) -> np.ndarray:
    """``duality._barycenter`` of a plan's occupation (or ``line``) measures:
    each segment (or ``_edges`` entry) gives half its mass to u, then to v."""
    curve, u, v, mass = _edges(t)[:4] if line else (t.curve, t.u, t.v, t.dt)
    point = np.stack((u, v), axis=1).ravel()
    return _barycenter(space, np.repeat(curve, 2), point, np.repeat(0.5 * mass, 2), probs)


def _energy(t: _Segments, probs: Sequence[float], q: float) -> float:
    """``q_energy`` of a plan from its segment table."""
    return math.fsum(w * e for w, e in zip(probs, _energies(t, q).tolist()) if w > 0)


def _lipschitz(t: _Segments, probs: Sequence[float]) -> float:
    """``plan_lipschitz`` of a plan from its segment table."""
    with np.errstate(over="ignore"):  # inf is the speed on a subnormal dt
        return float((t.length / t.dt)[np.asarray(probs)[t.curve] > 0].max())


def plan_lipschitz(space: MetricMeasureSpace, plan: CurvePlan) -> float:
    """Largest segment speed over the support curves."""
    return _lipschitz(_plan_table(space, plan), plan.probabilities)


def parametric_barycenter(space: MetricMeasureSpace, plan: CurvePlan) -> np.ndarray:
    """Occupation density h of the plan.

    h_x = (sum_gamma rho(gamma) m_map(gamma)(x)) / m_x, the barycenter
    of the occupation measures under the plan's probabilities.  Raises
    NoBarycenterError if occupation mass sits on a zero-mass point.
    """
    return _plan_density(space, _plan_table(space, plan), plan.probabilities)


def q_energy(space: MetricMeasureSpace, plan: CurvePlan, q: float) -> float:
    """Plan-averaged q-energy of the support curves (inf beyond the float range)."""
    _check_energy_exponent(q)
    return _energy(_plan_table(space, plan), plan.probabilities, q)


@dataclass(frozen=True)
class TestPlanReport:
    is_test_plan: bool
    c_min: float
    worst_time: float
    worst_point: int


def testplan_check(
    space: MetricMeasureSpace,
    plan: CurvePlan,
    extra_times: Sequence[float] = (),
) -> TestPlanReport:
    """Smallest C with instantaneous marginals (e_t)#rho <= C m.

    The marginal density is piecewise linear in t between the merged
    breakpoints of the support curves, so the supremum over all t is
    attained on that grid and the computed C_min is exact.  A screen, a
    running sum of the pieces' intercepts and slopes per point with a bound
    of gamma_N times a running sum of absolute values (``_screen``),
    leaves the exact kernel only the grid times that may attain the
    supremum; its recheck of those returns what it returns on the whole
    grid.  Mass on a zero-mass point at any time gives C_min = inf.  A
    curve of the plan, of probability 0 or not, that leaves the space or
    steps between non-adjacent points raises InvalidInstanceError.  A plan
    that ``stretch_average`` built on the space returns the report it carries.
    """
    return _report(space, plan, _plan_table(space, plan), extra_times)


def _report(
    space: MetricMeasureSpace, plan: CurvePlan, t: _Segments, extra_times: Sequence[float] = ()
) -> TestPlanReport:
    """The test-plan report the plan was born with on the space, when no extra
    times are asked for, or one computed now from its segment table t."""
    born = plan._born
    if born and born[0] is space and born[2] and len(extra_times) == 0:
        return born[2]
    rows = _padded(t, np.asarray(plan.probabilities) > 0)
    return _testplan(space, rows, [w for w in plan.probabilities if w > 0], extra_times)


def _testplan(
    space: MetricMeasureSpace,
    table: tuple[np.ndarray, np.ndarray],
    weights: Sequence[float],
    extra_times: Sequence[float] = (),
    shifts: Sequence[float] = (0.0,),
    scale: float = 1.0,
) -> TestPlanReport:
    """The report of ``_marginal_sup`` for curves on the space with positive
    weights, from their padded table, on a grid in [0, 1]: 0, 1, the extra
    times and each t = scale s - tau at which a curve reaches a breakpoint s."""
    ts = np.subtract.outer(scale * table[0].ravel(), shifts).ravel()
    ts = np.concatenate(([0.0, 1.0], ts, np.asarray(extra_times, dtype=float)))
    # Sorted, each once: a stable sort keeps the 0.0 before any -0.0, and
    # np.unique would import numpy.ma.
    ts = np.sort(ts[(0.0 <= ts) & (ts <= 1.0)], kind="stable")
    times = ts[np.append(True, ts[1:] != ts[:-1])]
    c_min, k, x = _marginal_sup(space, table, weights, times, shifts, scale)
    return TestPlanReport(math.isfinite(c_min), c_min, float(times[k]), x)


_BLOCK = 256  # times per block; a block holds a few (block x n_points) arrays
_CELLS = 1 << 15  # term x node x time cells per chunk: a 32 KB comparison array


def _marginal_sup(
    space: MetricMeasureSpace,
    table: tuple[np.ndarray, np.ndarray],
    weights: Sequence[float],
    times: np.ndarray,
    shifts: Sequence[float] = (0.0,),
    scale: float = 1.0,
) -> tuple[float, int, int]:
    """Supremum over times and points of a marginal density mass / m.

    Each curve of the padded table (``curves._padded``) with its weight w and
    each shift tau, in that order, is a term: it adds w / len(shifts) times the
    occupation of the curve at s = (t + tau) / scale to the mass at each time
    t.  The exact kernel runs on the times ``_screen`` keeps, a block of
    ``_BLOCK`` times in chunks of at most ``_CELLS`` term x node x time cells
    (or one term), so a chunk holds O(_CELLS) memory, and ``np.add.at`` adds
    a chunk term by term, u before v: a cell's sum depends on neither, so the
    result is that of the kernel on all times.  Mass on a point with m = 0
    has infinite density.  Returns the supremum with the time index and point
    of its first attainment in (time, point) order ((0.0, 0, -1) without mass).
    """
    m, n, k = space.measure, space.n_points, len(shifts)
    table_times, table_nodes = table
    w_k = [w / k for w in weights]
    picks = _screen(space, table, np.array(w_k), times, np.asarray(shifts, dtype=float), scale)
    rows = np.repeat(np.arange(len(w_k)), k)
    weights = np.repeat(w_k, k)[:, None]
    shifts = np.tile(shifts, len(w_k))[:, None]
    best, best_k, best_x = 0.0, 0, -1
    for start in range(0, len(picks), _BLOCK):
        ts = times[picks[start:start + _BLOCK]]
        cells = np.arange(len(ts)) * n
        mass = np.zeros((len(ts), n))
        step = max(1, _CELLS // (len(ts) * table_times.shape[1]))
        for a in range(0, len(rows), step):
            r, w = rows[a:a + step], weights[a:a + step]
            s = (ts + shifts[a:a + step]) / scale
            u, v, theta = _table_occupation(table_times[r], table_nodes[r], s)
            uv = np.stack((u, v), axis=1) + cells
            add = np.stack((w * (1.0 - theta), w * theta), axis=1)
            np.add.at(mass.ravel(), uv.ravel(), add.ravel())  # a view of mass
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dens = np.where(mass > 0, mass / m, 0.0)
        flat = int(np.argmax(dens))
        if dens.flat[flat] > best:
            best = float(dens.flat[flat])
            at, best_x = divmod(flat, n)
            best_k = int(picks[start + at])
    return best, best_k, best_x


def _screen(
    space: MetricMeasureSpace,
    table: tuple[np.ndarray, np.ndarray],
    weights: np.ndarray,
    times: np.ndarray,
    taus: np.ndarray,
    scale: float,
) -> np.ndarray:
    """Indices of the times where ``_marginal_sup``'s kernel may attain its supremum.

    While s = (t + tau) / scale stays in a segment [t0, t1) of a table
    row, a term of weight w puts a_v + b t on v and w - a_v - b t on u,
    with b = w / (scale (t1 - t0)), a_v = -b (scale t0 - tau), and b = 0
    on a plateau (so on the last node from s = 1 on).  Each such piece
    has an entry (a, b, mu, 1) at its first grid index and (-a, -b, mu, -1)
    past its last (n_t if it holds to the end), mu = w + 2 kappa b, kappa
    = 1 + scale + max |tau| >= t, |scale t0 - tau|, so |a| + t |b| <= mu
    for both entries.  One running sum over the N entries sorted by (point,
    grid index) gives a point's mass M = A + t B and occupancy count from
    each of its entries to its next, as earlier points' entries cancel
    exactly; the running sum of the mu is the magnitude R summed so far.

    Error bound (u = 2^-53, gamma_k = k u / (1 - k u); k floats summed in
    any order err by at most gamma_k-1 times their absolute sum: Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 3.1, 4.2).
    Against the pieces' exact sum at s* = (t + tau) / scale, M errs by
    gamma_8 mu per coefficient and gamma_N R for the running sum (counts
    are exact).  The kernel uses the same pieces, found at its rounded s;
    its 2K values (K terms) err by gamma_5 w each and sum within gamma_2K
    of their total (at most R), and its s, within gamma_2 s* of s*, moves a
    term by the slope w / (t1 - t0) <= kappa b times that: delta R in all,
    delta = gamma_3 max s.  A + t B is linear between two entries of a
    point, and rounding it at a time inside instead of at the interval's
    end times moves it by at most 2 gamma_2 (|A| + t |B|) < 5 u R.  So E =
    eps R, eps = gamma_2N+4K+64 + 8 u (1 + max s), with the rounding of R
    and of hi = (M + E) / m and lo = (M - E) / m (division rounds
    monotonically), makes the larger hi at an interval's end times bound
    the kernel's density at each time inside, and lo at any end time a
    lower bound of its supremum.  The intervals whose end bound reaches the
    largest such lo, or that occupy a point with m = 0, are expanded to
    their grid times, and a time is kept when its own hi reaches lo or it
    occupies such a point: every time left out lies below the kernel's
    supremum, and every time that attains it is kept.  Work and memory go
    with N, not with times x points.  A slope past the float range (a
    subnormal segment duration) leaves A, B or R inf or nan: then every
    grid time is kept, and the exact kernel decides.
    """
    (t_row, x_row), n_t, m, u = table, len(times), space.measure, 2.0**-53
    # Per (shift, row, column) the first grid index whose s, rounded as the
    # kernel rounds it, reaches the row's time: s is nondecreasing in the
    # index, so steps from a search for scale x time - tau settle on it.
    tau, top = taus[:, None, None], n_t - 1
    first, step = np.searchsorted(times, scale * t_row - tau), 1
    while np.any(step):
        back = (first > 0) & ((times[np.maximum(first - 1, 0)] + tau) / scale >= t_row)
        ahead = (first <= top) & ((times[np.minimum(first, top)] + tau) / scale < t_row)
        step = ahead.astype(np.int64) - back
        first += step
    sh, r, i = np.nonzero(first[..., :-1] < first[..., 1:])  # pieces held at some grid time
    t0, w, x0, x1 = t_row[r, i], weights[r], x_row[r, i], x_row[r, i + 1]
    moves, dt = x0 != x1, t_row[r, i + 1] - t0
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan on a subnormal dt
        b = np.divide(w, scale * dt, out=np.zeros(len(r)), where=moves)
        a_v = -b * (scale * t0 - taus[sh])
        mu = w + 2.0 * (1.0 + scale + np.abs(taus).max()) * b
    both = lambda x, y: np.concatenate((x, y[moves]))  # v only off plateaus
    col, a, b, mu = both(x0, x1), both(w - a_v, a_v), both(-b, b), both(mu, mu)
    f, e = first[sh, r, i], first[sh, r, i + 1]
    at = np.concatenate((both(f, f), both(e, e)))  # the starts, then the ends
    del sh, r, i, t0, dt, w, x0, x1, a_v, f, e, first  # only the entries are needed from here
    order = np.argsort(np.tile(col, 2) * (n_t + 1) + at)  # by (point, grid index)
    at, x, neg = at[order], col[order % len(col)], order >= len(col)
    with np.errstate(invalid="ignore"):
        A, B, R = (np.cumsum(np.concatenate((v, s * v))[order])
                   for v, s in ((a, -1), (b, -1), (mu, 1)))
    del col, a, b, mu, order
    if not np.isfinite([A[-1:], B[-1:], R[-1:]]).all():  # a running sum stays inf or nan
        return np.arange(n_t)
    gam = (2 * len(at) + 4 * len(taus) * len(weights) + 64) * u
    eps = gam / (1.0 - gam) + 8.0 * u * (1.0 + (times[-1] + taus.max()) / scale)
    E = np.multiply(R, eps, out=R)  # in R's place
    zero = m == 0
    m_pos = np.where(zero, np.inf, m)  # zero-mass points go by their counts
    occupied = zero[x]
    if occupied.any():
        occupied &= np.cumsum(1 - 2 * neg) > 0
    # Entry j holds its point's mass from grid index at[j] up to the next
    # entry's; after a point's last entry (an end) that mass is 0 anywhere.
    nxt = np.append(at[1:], n_t)
    j = np.flatnonzero(at < nxt)
    m_j = m_pos[x[j]]
    mass = np.maximum(A[j] + times[at[j]] * B[j], A[j] + times[nxt[j] - 1] * B[j])
    with np.errstate(over="ignore"):  # inf is the density on a subnormal mass
        lo = float(((mass - E[j]) / m_j).max(initial=0.0))
        j = j[((mass + E[j]) / m_j >= lo) | occupied[j]]
        size = nxt[j] - at[j]
        j, k = np.repeat(j, size), np.repeat(at[j] - np.cumsum(size) + size, size)
        k += np.arange(len(k))
        hi = (A[j] + times[k] * B[j] + E[j]) / m_pos[x[j]]
    return np.flatnonzero(np.bincount(k[(hi >= lo) | occupied[j]], minlength=n_t))


@dataclass(frozen=True)
class ImproveResult:
    """Output of the barycenter-improving reparameterization.

    The new plan's pointwise barycenter is at most 1/z; ``z`` never
    exceeds 1/eps.  ``energy_formula`` is the closed-form bound
    L^q / (z eps^q) * sum_x g_x max(eps, g_x)^(q-1) m_x on the new
    q-energy, inf where a float cannot hold it.  The along-segment density
    is sampled conservatively, so the realized energy can exceed the
    formula by at most a factor 2.
    """

    plan: CurvePlan
    z: float
    g: np.ndarray
    h: np.ndarray
    new_barycenter: np.ndarray
    new_barycenter_sup: float
    barycenter_ok: bool
    energy_new: float
    energy_formula: float
    lipschitz: float


def improve_barycenter(
    space: MetricMeasureSpace, plan: CurvePlan, q: float, eps: float
) -> ImproveResult:
    """Reweight and time-change a plan to force barycenter <= 1/z.

    With g the input barycenter and h = 1 / max(eps, g), each curve is
    slowed where h is small: the along-curve rate on a segment is the
    conservative endpoint value H = min(h_u, h_v), the curve weight
    scales with G = sum dt H, and new breakpoint times are the exact
    partial sums of dt H / G (the time change is piecewise linear, so
    the node representation stays exact).  Since H <= h_x <= 1/g_x at
    every endpoint, the new occupation density is at most 1/z with
    z = sum_gamma rho G <= 1/eps.
    """
    if not (eps > 0 and math.isfinite(eps)):
        raise InvalidInstanceError(f"eps must be a positive real, got {eps}")
    q = _check_p(q, "q")
    t = _plan_table(space, plan)
    g = _plan_density(space, t, plan.probabilities)
    if np.isinf(g).any():  # h = 0 there: a curve that stays there would never leave
        x = int(np.argmax(np.isinf(g)))
        raise NoBarycenterError(f"barycenter is infinite at point {x} (mass {space.measure[x]:g})")
    h = 1.0 / np.maximum(eps, g)

    # The support curves keep their nodes: their rows of t, with rho G per
    # curve and new times from the partial sums of dt H, curve by curve.
    probs = np.asarray(plan.probabilities)
    rows = probs[t.curve] > 0
    curve = (np.cumsum(probs > 0) - 1)[t.curve[rows]]
    rates = (t.dt * np.minimum(h[t.u], h[t.v]))[rows]
    start = np.searchsorted(curve, np.arange(curve[-1] + 2))
    bounds, spans = start.tolist(), rates.tolist()
    totals = np.array([math.fsum(spans[i:j]) for i, j in zip(bounds, bounds[1:])])
    col = np.arange(len(curve)) - start[curve]
    sums = np.zeros((len(totals), col.max() + 1))
    sums[curve, col] = rates
    at, node_start = np.arange(len(curve)) + curve, start + np.arange(len(start))
    times = np.zeros(node_start[-1])
    times[at + 1] = np.cumsum(sums, axis=1)[curve, col] / totals[curve]  # added in order
    times[node_start[1:] - 1] = 1.0
    _derived(node_start, times)

    weighted = (probs[probs > 0] * totals).tolist()
    z = math.fsum(weighted)
    new_probs = [wg / z for wg in weighted]
    drift = math.fsum(new_probs)
    new_probs = [w / drift for w in new_probs]
    new_times, bounds = times.tolist(), node_start.tolist()
    new_curves = [
        _trusted(c.nodes, tuple(new_times[i:j]))
        for (_, c), i, j in zip(plan.support(), bounds, bounds[1:])
    ]
    out = CurvePlan(tuple(new_curves), tuple(new_probs))
    dt = times[at + 1] - times[at]
    t_out = _Segments(start, curve, t.u[rows], t.v[rows], dt, t.length[rows], times[at])
    new_bary = _plan_density(space, t_out, out.probabilities)
    sup_new = float(new_bary.max(initial=0.0))
    lip = _lipschitz(t, plan.probabilities)
    energy_new = _energy(t_out, out.probabilities, q)
    object.__setattr__(out, "_born", (space, t_out, None, (q, energy_new, new_bary.copy())))
    msk = space.positive_mask
    with np.errstate(over="ignore"):  # an inf mass gives an inf bound below
        mass = float(np.dot(space.measure[msk], g[msk] * np.maximum(eps, g[msk]) ** (q - 1.0)))
    try:
        formula = lip**q / (z * eps**q) * mass
    except (OverflowError, ZeroDivisionError):  # eps**q underflowed or a power overflowed
        formula = math.inf
    return ImproveResult(
        plan=out,
        z=z,
        g=g,
        h=h,
        new_barycenter=new_bary,
        new_barycenter_sup=sup_new,
        barycenter_ok=sup_new <= 1.0 / z + 1e-8,
        energy_new=energy_new,
        energy_formula=formula,
        lipschitz=lip,
    )


@dataclass(frozen=True)
class StretchResult:
    """Stretch-averaged plan plus its marginal certificate.

    ``exact_sup`` is the supremum marginal density of the tau-grid
    average evaluated through the source curves (exact: piecewise
    linear in t).  It satisfies exact_sup <= bound + correction, where
    ``bound`` = C (1+eps)/eps and ``correction`` is the midpoint-rule
    error term, proportional to 1/n_tau.  ``output_c_min`` is the
    test-plan constant of the returned plan itself, whose window ends
    are snapped to nodes.
    """

    plan: CurvePlan
    c_in: float
    bound: float
    exact_sup: float
    correction: float
    output_c_min: float
    marginal_ok: bool


def stretch_average(
    space: MetricMeasureSpace,
    plan: CurvePlan,
    eps: float,
    n_tau: int = 64,
) -> StretchResult:
    """Average the time-window reparameterizations gamma((t+tau)/(1+eps)).

    tau runs over the n_tau midpoints of [0, eps]; each pushforward
    restricts the curve to the window [tau/(1+eps), (1+tau)/(1+eps)].
    The averaged marginal at any time is controlled by the parametric
    barycenter bound C = sup h of the input: at most C (1+eps)/eps plus
    a quadrature correction that halves when n_tau doubles.
    """
    if not (0.0 < eps < 0.5):
        raise InvalidInstanceError(f"stretch parameter must lie in (0, 1/2), got {eps}")
    _check_count(n_tau, "n_tau")
    t, rho = _plan_table(space, plan), np.asarray(plan.probabilities)
    c_in = float(_plan_density(space, t, plan.probabilities).max(initial=0.0))
    taus = (np.arange(n_tau) + 0.5) * eps / n_tau

    source, weights = _padded(t, rho > 0), [w for w in plan.probabilities if w > 0]
    cut = _windows(source, taus / (1.0 + eps), (1.0 + taus) / (1.0 + eps))
    start, nodes, times = (a.tolist() for a in cut)
    atoms: dict[tuple, list] = {}  # (nodes, times) of a window -> [first index, probability]
    for k, (i, j) in enumerate(zip(start, start[1:])):  # equal windows merge into the first
        atom = atoms.setdefault((tuple(nodes[i:j]), tuple(times[i:j])), [k, 0.0])
        atom[1] += weights[k // n_tau] / n_tau
    kept, probs = (list(x) for x in zip(*atoms.values()))
    out = CurvePlan(tuple(_trusted(*key) for key in atoms), tuple(probs))
    size = np.diff(cut[0])[kept]
    start = np.concatenate(([0], np.cumsum(size)))
    at = np.repeat(cut[0][kept] - start[:-1], size) + np.arange(start[-1])
    t_out = _table(space, start, cut[1][at], cut[2][at])

    # Exact tau-grid marginal through the source curves: breakpoints of
    # t -> gamma((t+tau)/(1+eps)) sit at t = (1+eps) t_k - tau.
    exact_sup = _testplan(space, source, weights, (), taus, 1.0 + eps).c_min

    # A curve's occupation weight at x jumps by 1 at each non-plateau
    # step touching x, so its total variation in time is that count: each
    # (point, curve) cell that moves touch holds rho x its count, and the
    # cells of a point are summed with one fsum.
    s, n_c = t.u != t.v, len(t.start) - 1
    key = np.sort(np.concatenate((t.u[s], t.v[s])) * n_c + np.tile(t.curve[s], 2))
    head = np.flatnonzero(np.diff(key, prepend=-1))  # the first entry of each cell
    x, c = np.divmod(key[head], n_c)
    terms = (rho[c] * np.diff(head, append=len(key))).tolist()
    first = np.flatnonzero(np.diff(x, prepend=-1)).tolist()  # the first cell of each point
    tv = np.array([math.fsum(terms[i:j]) for i, j in zip(first, [*first[1:], len(terms)])])
    m = space.measure[x[first]]
    with np.errstate(over="ignore"):  # inf is the density on a subnormal mass
        corr = float(np.max(eps / n_tau / (2.0 * eps) * tv[m > 0] / m[m > 0], initial=0.0))
    bound = c_in * (1.0 + eps) / eps
    positive = np.array(probs) > 0  # windows of weight w / n_tau = 0 do not count
    report = _testplan(space, _padded(t_out, positive), [w for w in probs if w])
    object.__setattr__(out, "_born", (space, t_out, report, None))
    return StretchResult(
        plan=out,
        c_in=c_in,
        bound=bound,
        exact_sup=exact_sup,
        correction=corr,
        output_c_min=report.c_min,
        marginal_ok=exact_sup <= bound + corr + 1e-12,
    )


@dataclass(frozen=True)
class BridgeReport:
    c_q: float
    energy: float
    h_sup: float
    rhs: float
    ok: bool


def bridge_inequality(
    space: MetricMeasureSpace, plan: CurvePlan, q: float
) -> BridgeReport:
    """Check c_q of the line-measure pushforward against the energy bound.

    The plan's curves map to their line measures; the resulting measure
    plan has c_q at most (q-energy of the plan)^(1/q) * (sup h)^(1/p),
    h the parametric barycenter and p the conjugate exponent.  A plan that
    ``improve_barycenter`` built on the space at this q carries its energy and h.
    """
    t, born = _plan_table(space, plan), plan._born
    q = _check_p(q, "q")
    c_q = _lq_norm(space, _plan_density(space, t, plan.probabilities, line=True), q)
    if born and born[0] is space and born[3] and born[3][0] == q:
        energy, h = born[3][1:]
    else:
        energy, h = _energy(t, plan.probabilities, q), _plan_density(space, t, plan.probabilities)
    h_sup = float(h.max(initial=0.0))
    p = q / (q - 1.0)
    rhs = energy ** (1.0 / q) * h_sup ** (1.0 / p)
    return BridgeReport(c_q, energy, h_sup, rhs, c_q <= rhs + 1e-6)
