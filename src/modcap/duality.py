"""Plans over measure families, content, and duality certificates.

A plan is a probability vector over the family members; its barycenter
density is g = (sum_i prob_i mu_i) / m on {m > 0} and c_q is the
L^q(m) norm of g.  The content of a family is

    C = sup { 1 / c_q(plan) : plan a probability over the family },

attained by minimizing the convex map lam -> ||bar(lam)||_q over the
simplex.  Strong duality gives C = Mod_p ^ (1/p) with q = p/(p-1); at
optimality the plan charges only saturated measures and its barycenter
equals f^(p-1) / ||f||_p^p.

One helper, ``_barycenter``, reduces the point masses of every plan
barycenter: the items of a measure plan here, and the half masses of the
segments of a curve plan in ``plans``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInstanceError, NoBarycenterError
from .modulus import ModulusSolution, _check_limits, _check_p, solve_modulus_explicit
from .space import DiscreteMeasure, MetricMeasureSpace, _entries

__all__ = [
    "MeasurePlan",
    "plan_barycenter",
    "build_measure_plan",
    "content_from_multipliers",
    "solve_content",
    "check_duality",
    "check_optimality_conditions",
]


def _check_probabilities(
    support: Sequence[object], probabilities: Sequence[float], member: str
) -> None:
    """One finite, nonnegative weight per support member, summing to 1."""
    if len(support) != len(probabilities):
        raise InvalidInstanceError(f"plan needs one probability per {member}")
    if len(support) == 0:
        raise InvalidInstanceError("plan needs a nonempty support")
    if not all(w >= 0 and math.isfinite(w) for w in probabilities):
        raise InvalidInstanceError("plan probabilities must be finite and nonnegative")
    total = math.fsum(probabilities)
    if abs(total - 1.0) > 1e-12:
        raise InvalidInstanceError(f"plan probabilities sum to {total!r}, expected 1")


@dataclass(frozen=True)
class MeasurePlan:
    """Probability vector over a measure family, with barycenter data.

    ``barycenter_density`` is the ``plan_barycenter`` of the support and
    ``c_q`` its L^q(m) norm; ``build_measure_plan`` computes both.
    """

    support: tuple[DiscreteMeasure, ...]
    probabilities: tuple[float, ...]
    q: float
    barycenter_density: np.ndarray
    c_q: float

    def __post_init__(self) -> None:
        _check_probabilities(self.support, self.probabilities, "measure")
        _check_p(self.q, "q")


def plan_barycenter(
    space: MetricMeasureSpace,
    support: Sequence[DiscreteMeasure],
    probabilities: Sequence[float],
) -> np.ndarray:
    """Barycenter density g = (sum_i prob_i mu_i) / m, 0 where m = 0.

    Raises NoBarycenterError when the averaged measure puts mass on a
    point with m = 0 (no density exists there), InvalidInstanceError for a
    point outside the space.  Each point's mass sums its terms w * mu(x)
    from 0.0 in support order (``_barycenter``).
    """
    _check_probabilities(support, probabilities, "measure")
    return _barycenter(space, *_entries(space, support), probabilities)


def _barycenter(
    space: MetricMeasureSpace, member: np.ndarray, point: np.ndarray, mass: np.ndarray,
    probabilities: Sequence[float],
) -> np.ndarray:
    """Barycenter density of members given by entries: entry j puts mass[j]
    on point[j] in member member[j].  Each (member, point) cell sums its
    entries in entry order, and each point adds probabilities[member] x its
    cells' sums in member order, both from 0.0 (``np.bincount``), so the bits
    are those of a loop over the members; work and memory go with the
    entries.  0 where m = 0; NoBarycenterError for mass on a zero-mass point.
    """
    n, m = space.n_points, space.measure
    key = member * n + point
    order = np.argsort(key, kind="stable")  # a cell's entries stay in entry order
    head = np.diff(key[order], prepend=-1) != 0  # the first entry of each cell
    cells = key[order][head]
    sums = np.bincount(np.cumsum(head) - 1, mass[order])
    total = np.bincount(cells % n, np.asarray(probabilities)[cells // n] * sums, minlength=n)
    bad = np.nonzero((total > 0) & (m == 0))[0]
    if bad.size:
        raise NoBarycenterError(
            f"plan puts mass {total[bad[0]]:g} on zero-mass point {int(bad[0])}"
        )
    g = np.zeros(n)
    msk = space.positive_mask
    with np.errstate(over="ignore"):  # inf is the density on a subnormal mass
        g[msk] = total[msk] / m[msk]
    return g


def _lq_norm(space: MetricMeasureSpace, g: np.ndarray, q: float) -> float:
    """The L^q(m) norm of a density: the c_q of a plan with barycenter g."""
    msk = space.positive_mask
    with np.errstate(over="ignore"):  # a power beyond the float range gives inf
        return float(np.dot(space.measure[msk], g[msk] ** q)) ** (1.0 / q)


def build_measure_plan(
    space: MetricMeasureSpace,
    support: Sequence[DiscreteMeasure],
    probabilities: Sequence[float],
    q: float,
) -> MeasurePlan:
    """Construct a plan with its barycenter density and c_q filled in."""
    q = _check_p(q, "q")
    probabilities = tuple(float(w) for w in probabilities)
    g = plan_barycenter(space, support, probabilities)
    return MeasurePlan(tuple(support), probabilities, q, g, _lq_norm(space, g, q))


@dataclass(frozen=True)
class ContentSolution:
    """Optimal content value and the plan achieving it.

    ``value`` is infinite when the family contains the zero measure and
    0 when no member admits an L^q barycenter (``no_admissible_plan``).
    ``plan`` spans the full input family; unusable members (mass where
    m vanishes, listed in ``excluded``) carry probability 0.
    """

    value: float
    plan: MeasurePlan | None
    iterations: int
    excluded: tuple[int, ...] = ()
    no_admissible_plan: bool = False


def solve_content(
    space: MetricMeasureSpace,
    measures: Sequence[DiscreteMeasure],
    q: float,
    *,
    tol: float = 1e-11,
    max_iter: int = 200000,
) -> ContentSolution:
    """Maximize 1 / c_q over plans on the family.

    The plan is read off ``solve_modulus_explicit`` at p = q / (q - 1)
    (see ``content_from_multipliers``) and certified by that solve's
    weak-duality bracket: its relative width is at most tol, or
    SolverError is raised.
    """
    q = _check_p(q, "q")
    sol = solve_modulus_explicit(
        space, measures, q / (q - 1.0), gap_tol=tol, max_iter=max_iter
    )
    return content_from_multipliers(space, measures, sol, q)


def content_from_multipliers(
    space: MetricMeasureSpace,
    measures: Sequence[DiscreteMeasure],
    solution: ModulusSolution,
    q: float,
) -> ContentSolution:
    """Content and optimal plan read off a modulus solution of the family.

    The multipliers p w_i / s^(p-1) are proportional to the plan weights
    w, so the plan is the multipliers divided by their sum.  Modulus 0
    gives no plan; an infinite modulus gives the delta on the first zero
    measure.  The pair is certified by ``check_duality``.
    """
    if solution.value == 0.0:
        return ContentSolution(
            0.0, None, solution.iterations, solution.dropped,
            no_admissible_plan=len(measures) > 0,
        )
    if math.isinf(solution.value):
        weights = np.zeros(len(measures))
        weights[next(i for i, mu in enumerate(measures) if mu.total == 0)] = 1.0
    elif solution.multipliers is None:
        raise InvalidInstanceError("content read-off needs a solution with multipliers")
    else:
        weights = solution.multipliers / solution.multipliers.sum()
    plan = build_measure_plan(space, measures, weights, q)
    value = 1.0 / plan.c_q if plan.c_q > 0 else math.inf
    return ContentSolution(value, plan, solution.iterations, solution.dropped)


def _slacks(
    space: MetricMeasureSpace, plan: MeasurePlan, f: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """The plan's weights w, each member's slack <mu_i, f> - 1, and r.

    One pass over the items computes every integral.  w is the plan's
    probabilities divided by their sum.  A member that charges a zero-mass
    point is met for free (no plan charges it): its slack reads 0.

    r bounds the rounding of both audits, for k members on n points.  N
    nonnegative floats summed in any order err by at most gamma_(N-1) times
    their sum, gamma_N = N u / (1 - N u), u = 2^-53 (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., 3.1).  So an integral errs by
    gamma_(n+1), w . slack by gamma_(k+1) more, and a solve's f, divided by
    its least integral, is admissible to gamma_(n+2); value^(1/p),
    dual_value^(1/p) (sums over n points of powers of sums over k members)
    and the plan normalized from the multipliers err by gamma_(n+2k+8) in
    all.  r = gamma_(2n+4k+16) covers the terms that meet in each test.
    """
    member, points, mass = _entries(space, plan.support)
    k = len(plan.support)
    integrals = np.bincount(member, mass * f[points], minlength=k)
    free = np.bincount(member, ~space.positive_mask[points], minlength=k) > 0
    w = np.asarray(plan.probabilities) / math.fsum(plan.probabilities)
    g = (2 * space.n_points + 4 * k + 16) * 2.0**-53
    return w, np.where(free, 0.0, integrals - 1.0), g / (1.0 - g)


@dataclass(frozen=True)
class DualityCertificate:
    modulus: float
    content: float
    modulus_root: float
    rel_gap: float
    weak_lhs: float
    weak_rhs: float
    weak_ok: bool
    ok: bool


def check_duality(
    space: MetricMeasureSpace,
    primal: ModulusSolution,
    dual: ContentSolution,
    p: float,
    *,
    tol: float = 1e-6,
) -> DualityCertificate:
    """Certificate that Mod^(1/p) and the content agree.

    Checks the value identity |content - Mod^(1/p)| <= tol Mod^(1/p), free
    of the family's mass scale (absolute at Mod = 0), and the weak-duality
    chain 1 <= <f, bar(plan)> m <= c_q ||f||_p within the rounding bound r
    of ``_slacks``.  The chain holds for every plan and admissible f: the
    left end because <f, bar> m = sum_i w_i <mu_i, f> and each <mu_i, f> >=
    1, the right end by Hölder.  That the plan charges only saturated
    measures is checked by ``check_optimality_conditions``.
    """
    p = _check_p(p)
    _check_limits(tol)
    mod, content = primal.value, dual.value
    if math.isinf(mod) or math.isinf(content):
        ok = math.isinf(mod) and math.isinf(content)
        return DualityCertificate(
            mod, content, math.inf, 0.0 if ok else math.inf, 1.0, 1.0, ok, ok
        )
    root = mod ** (1.0 / p)
    rel = abs(content - root) / (root if root > 0 else 1.0)
    if mod == 0.0 or dual.plan is None:
        ok = rel <= tol
        return DualityCertificate(mod, content, root, rel, 0.0, 0.0, ok, ok)

    w, slack, r = _slacks(space, dual.plan, primal.f)
    weak_lhs, weak_rhs = 1.0 + float(w @ slack), dual.plan.c_q * _lq_norm(space, primal.f, p)
    weak_ok = 1.0 <= weak_lhs + r and weak_lhs <= weak_rhs + r
    ok = rel <= tol and weak_ok
    return DualityCertificate(mod, content, root, rel, weak_lhs, weak_rhs, weak_ok, ok)


@dataclass(frozen=True)
class OptimalityReport:
    saturation_max_dev: float
    barycenter_max_dev: float
    violated: tuple[str, ...]
    ok: bool


def check_optimality_conditions(
    space: MetricMeasureSpace,
    primal: ModulusSolution,
    dual: ContentSolution,
    p: float,
    *,
    tol: float = 1e-6,
) -> OptimalityReport:
    """Audit the optimality conditions linking a solved primal-dual pair.

    (1) saturation, read off the bracket: every member of the plan w is
        admissible, slack_i = <mu_i, f> - 1 >= -r, and sum_i w_i slack_i =
        <f, bar(w)> m - 1, which Hölder bounds by c_q(w) ||f||_p - 1, is at
        most the solve's own bracket width (value / dual_value)^(1/p) - 1
        plus r.  Given admissibility this bounds every w_i slack_i, with no
        threshold on the weights; ``saturation_max_dev`` is the largest.
    (2) barycenter: the plan's ``barycenter_density`` matches
        f^(p-1) / ||f||_p^p within tol relative in L^q(m), q = p / (p-1),
        free of the mass scale; ``barycenter_max_dev`` is that deviation.

    r is the rounding bound of ``_slacks``.
    """
    p = _check_p(p)
    _check_limits(tol)
    mod, f, plan = primal.value, primal.f, dual.plan
    if (math.isinf(mod) and math.isinf(dual.value)) or (mod == 0.0 and plan is None):
        # No density is admissible, or no member admits a barycenter (no
        # measure charged, the zero barycenter): there is nothing to audit.
        return OptimalityReport(0.0, 0.0, (), True)
    if f is None or plan is None:
        raise InvalidInstanceError("optimality audit needs finite solved instances")
    w, slack, r = _slacks(space, plan, f)
    width = (mod / primal.dual_value) ** (1.0 / p) - 1.0 if mod > 0 else 0.0
    saturated = float(slack.min()) >= -r and float(w @ slack) <= width + r
    msk, q = space.positive_mask, p / (p - 1.0)
    target = np.where(msk, f, 0.0) ** (p - 1.0) / mod if mod > 0 else np.zeros(len(f))
    norm = _lq_norm(space, target, q)
    dev = _lq_norm(space, np.abs(plan.barycenter_density - target), q)
    bary_dev = dev / (norm if norm > 0 else 1.0)
    violated = ("saturation",) * (not saturated) + ("barycenter",) * (bary_dev > tol)
    sat_dev = float(np.max(w * slack, initial=0.0))
    return OptimalityReport(sat_dev, bary_dev, violated, not violated)
