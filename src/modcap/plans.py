"""Probability plans on parametric curves.

A plan assigns probabilities to finitely many curves.  Its parametric
barycenter is the occupation density h with

    sum_gamma rho(gamma) * (time average of f along gamma)
        = sum_x f_x h_x m_x   for every per-point f,

an exact identity because both sides use the same segment-endpoint
quadrature.  The module provides q-energy, the test-plan constant
(supremum over time of the instantaneous marginal density), the
barycenter-improving time reparameterization, the stretch-average
construction, and the constant-speed pushforward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .curves import (
    ParametricCurve,
    constant_speed_reparam,
    curve_energy,
    j_map,
    m_map,
    metric_speed,
    stretch,
    _occupation,
    _same_rep,
)
from .duality import _check_probabilities, build_measure_plan, plan_barycenter
from .space import MetricMeasureSpace

__all__ = [
    "CurvePlan",
    "parametric_barycenter",
    "q_energy",
    "plan_lipschitz",
    "testplan_check",
    "improve_barycenter",
    "stretch_average",
    "constant_speed_pushforward",
    "bridge_inequality",
]


@dataclass(frozen=True)
class CurvePlan:
    """Finitely supported probability measure on parametric curves."""

    curves: tuple[ParametricCurve, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_probabilities(self.curves, self.probabilities, "curve")

    def support(self):
        """Pairs (probability, curve) with positive probability."""
        return [
            (w, c) for w, c in zip(self.probabilities, self.curves) if w > 0
        ]


def plan_lipschitz(space: MetricMeasureSpace, plan: CurvePlan) -> float:
    """Largest segment speed over the support curves."""
    worst = 0.0
    for w, c in plan.support():
        speeds = metric_speed(space, c)
        if speeds.size:
            worst = max(worst, float(speeds.max()))
    return worst


def parametric_barycenter(space: MetricMeasureSpace, plan: CurvePlan) -> np.ndarray:
    """Occupation density h of the plan.

    h_x = (sum_gamma rho(gamma) m_map(gamma)(x)) / m_x, the barycenter
    of the occupation measures under the plan's probabilities.  Raises
    NoBarycenterError if occupation mass sits on a zero-mass point.
    """
    occupations = [m_map(space, c) for c in plan.curves]
    return plan_barycenter(space, occupations, plan.probabilities)


def q_energy(space: MetricMeasureSpace, plan: CurvePlan, q: float) -> float:
    """Plan-averaged q-energy of the support curves."""
    return math.fsum(w * curve_energy(space, c, q) for w, c in plan.support())


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
    attained on that grid and the computed C_min is exact.  Mass on a
    zero-mass point at any time gives C_min = inf.
    """
    grid = {0.0, 1.0}
    for _, c in plan.support():
        grid.update(c.times)
    grid.update(float(t) for t in extra_times if 0.0 <= t <= 1.0)
    times = np.array(sorted(grid))
    c_min, k, x = _marginal_sup(
        space, times, lambda ts: ((w, c, ts) for w, c in plan.support())
    )
    return TestPlanReport(math.isfinite(c_min), c_min, float(times[k]), x)


_BLOCK = 256  # times per block; a block holds a (block x n_points) mass array


def _marginal_sup(
    space: MetricMeasureSpace,
    times: np.ndarray,
    terms: Callable[[np.ndarray], Iterable[tuple[float, ParametricCurve, np.ndarray]]],
) -> tuple[float, int, int]:
    """Supremum over times and points of a marginal density mass / m.

    ``terms(ts)`` yields (w, curve, s) for a block ts of the times: the
    mass at ts[j] gains w times the occupation of the curve at s[j], in
    term order.  Mass on a point with m = 0 has infinite density.
    Returns the supremum with the time index and point of its first
    attainment in (time, point) order ((0.0, 0, -1) without mass).
    """
    m = space.measure
    best, best_k, best_x = 0.0, 0, -1
    for start in range(0, len(times), _BLOCK):
        ts = times[start:start + _BLOCK]
        rows = np.arange(len(ts))
        mass = np.zeros((len(ts), space.n_points))
        for w, c, s in terms(ts):
            u, v, theta = _occupation(c, s)
            mass[rows, u] += w * (1.0 - theta)
            mass[rows, v] += w * theta
        with np.errstate(divide="ignore", invalid="ignore"):
            dens = np.where(mass > 0, mass / m, 0.0)
        flat = int(np.argmax(dens))
        if dens.flat[flat] > best:
            best = float(dens.flat[flat])
            best_k, best_x = divmod(start * space.n_points + flat, space.n_points)
    return best, best_k, best_x


@dataclass(frozen=True)
class ImproveResult:
    """Output of the barycenter-improving reparameterization.

    The new plan's pointwise barycenter is at most 1/z; ``z`` never
    exceeds 1/eps.  ``energy_formula`` is the closed-form bound
    L^q / (z eps^q) * sum_x g_x max(eps, g_x)^(q-1) m_x on the new
    q-energy (the along-segment density is sampled conservatively, so
    the realized energy can exceed the formula by at most a factor 2;
    both numbers are reported).
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
        raise ValueError(f"eps must be a positive real, got {eps}")
    if not q > 1:
        raise ValueError(f"energy exponent must satisfy q > 1, got {q}")
    g = parametric_barycenter(space, plan)
    h = 1.0 / np.maximum(eps, g)

    new_curves: list[ParametricCurve] = []
    big_g: list[float] = []
    for _, c in plan.support():
        times = c.times
        rates = [
            min(h[c.nodes[i]], h[c.nodes[i + 1]]) for i in range(c.n_segments)
        ]
        spans = [
            (times[i + 1] - times[i]) * rates[i] for i in range(c.n_segments)
        ]
        total = math.fsum(spans)
        new_times = [0.0]
        acc = 0.0
        for s in spans[:-1]:
            acc += s
            new_times.append(acc / total)
        new_times.append(1.0)
        new_curves.append(ParametricCurve(c.nodes, tuple(new_times)))
        big_g.append(total)

    probs_in = [w for w, _ in plan.support()]
    z = math.fsum(w * gg for w, gg in zip(probs_in, big_g))
    new_probs = [w * gg / z for w, gg in zip(probs_in, big_g)]
    drift = math.fsum(new_probs)
    new_probs = [w / drift for w in new_probs]
    out = CurvePlan(tuple(new_curves), tuple(new_probs))

    new_bary = parametric_barycenter(space, out)
    sup_new = float(new_bary.max(initial=0.0))
    lip = plan_lipschitz(space, plan)
    energy_new = q_energy(space, out, q)
    msk = space.positive_mask
    formula = (
        lip**q
        / (z * eps**q)
        * float(
            np.dot(
                space.measure[msk],
                g[msk] * np.maximum(eps, g[msk]) ** (q - 1.0),
            )
        )
    )
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


def _occupation_tv(curve: ParametricCurve, point: int) -> float:
    """Total variation in time of the occupation weight at one node."""
    tv = 0.0
    prev = 1.0 if curve.nodes[0] == point else 0.0
    for nd in curve.nodes[1:]:
        cur = 1.0 if nd == point else 0.0
        tv += abs(cur - prev)
        prev = cur
    return tv


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
        raise ValueError(f"stretch parameter must lie in (0, 1/2), got {eps}")
    if n_tau < 1:
        raise ValueError(f"n_tau must be a positive integer, got {n_tau}")
    c_in = float(parametric_barycenter(space, plan).max(initial=0.0))
    taus = [(j + 0.5) * eps / n_tau for j in range(n_tau)]

    atoms: dict[tuple, float] = {}  # in order of first appearance
    for w, c in plan.support():
        for tau in taus:
            piece = stretch(space, c, tau / (1.0 + eps), (1.0 + tau) / (1.0 + eps))
            key = (piece.nodes, piece.times)
            atoms[key] = atoms.get(key, 0.0) + w / n_tau
    out = CurvePlan(
        tuple(ParametricCurve(nodes, times) for nodes, times in atoms),
        tuple(atoms.values()),
    )

    # Exact tau-grid marginal through the source curves: breakpoints of
    # t -> gamma((t+tau)/(1+eps)) sit at t = (1+eps) t_k - tau.
    eval_times = {0.0, 1.0}
    for _, c in plan.support():
        for tk in c.times:
            for tau in taus:
                t = (1.0 + eps) * tk - tau
                if 0.0 < t < 1.0:
                    eval_times.add(t)
    exact_sup, _, _ = _marginal_sup(
        space,
        np.array(sorted(eval_times)),
        lambda ts: (
            (w / n_tau, c, (ts + tau) / (1.0 + eps))
            for w, c in plan.support()
            for tau in taus
        ),
    )

    dtau = eps / n_tau
    corr = 0.0
    m = space.measure
    for x in np.nonzero(space.positive_mask)[0]:
        tv = math.fsum(
            w * _occupation_tv(c, int(x)) for w, c in plan.support()
        )
        corr = max(corr, dtau / (2.0 * eps) * tv / float(m[x]))
    bound = c_in * (1.0 + eps) / eps
    report = testplan_check(space, out)
    return StretchResult(
        plan=out,
        c_in=c_in,
        bound=bound,
        exact_sup=exact_sup,
        correction=corr,
        output_c_min=report.c_min,
        marginal_ok=exact_sup <= bound + corr + 1e-12,
    )


def constant_speed_pushforward(
    space: MetricMeasureSpace, plan: CurvePlan
) -> CurvePlan:
    """Push the plan through constant-speed reparameterization.

    Equivalent curves collapse to a single atom with summed
    probability (same node sequence, breakpoint times within 1e-9).
    Constant curves are rejected: they have no canonical
    representative.  Atoms come out sorted by node sequence.
    """
    groups: list[tuple[ParametricCurve, float]] = []
    for w, c in plan.support():
        rep = constant_speed_reparam(space, c)
        for i, (other, acc) in enumerate(groups):
            if _same_rep(other, rep, 1e-9):
                groups[i] = (other, acc + w)
                break
        else:
            groups.append((rep, w))
    groups.sort(key=lambda pair: pair[0].nodes)
    return CurvePlan(
        tuple(c for c, _ in groups), tuple(w for _, w in groups)
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
    h the parametric barycenter and p the conjugate exponent.
    """
    measures = [j_map(space, c) for _, c in plan.support()]
    probs = [w for w, _ in plan.support()]
    mplan = build_measure_plan(space, measures, probs, q)
    energy = q_energy(space, plan, q)
    h_sup = float(parametric_barycenter(space, plan).max(initial=0.0))
    p = q / (q - 1.0)
    rhs = energy ** (1.0 / q) * h_sup ** (1.0 / p)
    return BridgeReport(mplan.c_q, energy, h_sup, rhs, mplan.c_q <= rhs + 1e-6)
