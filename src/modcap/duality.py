"""Plans over measure families, content, and duality certificates.

A plan is a probability vector over the family members; its barycenter
density is g = (sum_i prob_i mu_i) / m on {m > 0} and c_q is the
L^q(m) norm of g.  The content of a family is

    C = sup { 1 / c_q(plan) : plan a probability over the family },

attained by minimizing the convex map lam -> ||bar(lam)||_q over the
simplex.  Strong duality gives C = Mod_p ^ (1/p) with q = p/(p-1); at
optimality the plan charges only saturated measures and its barycenter
equals f^(p-1) / ||f||_p^p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curves import ParametricCurve, j_map
from .errors import NoBarycenterError
from .modulus import ModulusSolution, _check_p, solve_modulus_explicit
from .space import DiscreteMeasure, MetricMeasureSpace

__all__ = [
    "MeasurePlan",
    "plan_barycenter",
    "build_measure_plan",
    "content_from_multipliers",
    "solve_content",
    "check_duality",
    "check_optimality_conditions",
    "content_of_curve_family",
]


def _check_probabilities(
    support: Sequence[object], probabilities: Sequence[float], member: str
) -> None:
    """One finite, nonnegative weight per support member, summing to 1."""
    if len(support) != len(probabilities):
        raise ValueError(f"plan needs one probability per {member}")
    if len(support) == 0:
        raise ValueError("plan needs a nonempty support")
    if not all(w >= 0 and math.isfinite(w) for w in probabilities):
        raise ValueError("plan probabilities must be finite and nonnegative")
    total = math.fsum(probabilities)
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"plan probabilities sum to {total!r}, expected 1")


@dataclass(frozen=True)
class MeasurePlan:
    """Probability vector over a measure family, with barycenter data.

    ``barycenter_density`` (recomputable through ``plan_barycenter``)
    and its L^q(m) norm ``c_q`` are filled by ``build_measure_plan``.
    """

    support: tuple[DiscreteMeasure, ...]
    probabilities: tuple[float, ...]
    q: float
    barycenter_density: np.ndarray | None = None
    c_q: float | None = None

    def __post_init__(self) -> None:
        _check_probabilities(self.support, self.probabilities, "measure")
        if not self.q > 1:
            raise ValueError(f"plan exponent must satisfy q > 1, got {self.q}")


def plan_barycenter(
    space: MetricMeasureSpace,
    support: Sequence[DiscreteMeasure],
    probabilities: Sequence[float],
) -> np.ndarray:
    """Barycenter density g = (sum_i prob_i mu_i) / m, 0 where m = 0.

    Raises NoBarycenterError when the averaged measure puts mass on a
    point with m = 0 (no density exists there).
    """
    _check_probabilities(support, probabilities, "measure")
    mass = np.zeros(space.n_points)
    for w, mu in zip(probabilities, support):
        if w == 0:
            continue
        for idx, val in mu.items:
            mass[idx] += w * val
    m = space.measure
    bad = np.nonzero((mass > 0) & (m == 0))[0]
    if bad.size:
        raise NoBarycenterError(
            f"plan puts mass {mass[bad[0]]:g} on zero-mass point {int(bad[0])}"
        )
    g = np.zeros(space.n_points)
    msk = space.positive_mask
    g[msk] = mass[msk] / m[msk]
    return g


def build_measure_plan(
    space: MetricMeasureSpace,
    support: Sequence[DiscreteMeasure],
    probabilities: Sequence[float],
    q: float,
) -> MeasurePlan:
    """Construct a plan with its barycenter density and c_q filled in."""
    plan = MeasurePlan(tuple(support), tuple(float(w) for w in probabilities), q)
    g = plan_barycenter(space, plan.support, plan.probabilities)
    msk = space.positive_mask
    c_q = float(np.dot(space.measure[msk], g[msk] ** q)) ** (1.0 / q)
    return MeasurePlan(plan.support, plan.probabilities, q, g, c_q)


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

    @property
    def weights(self) -> np.ndarray:
        if self.plan is None:
            return np.zeros(0)
        return np.asarray(self.plan.probabilities)


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
    if not (q > 1 and math.isfinite(q)):
        raise ValueError(f"content exponent must satisfy q > 1, got {q}")
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
        raise ValueError("content read-off needs a solution with multipliers")
    else:
        weights = solution.multipliers / solution.multipliers.sum()
    plan = build_measure_plan(space, measures, weights, q)
    value = 1.0 / plan.c_q if plan.c_q > 0 else math.inf
    return ContentSolution(value, plan, solution.iterations, solution.dropped)


@dataclass(frozen=True)
class DualityCertificate:
    modulus: float
    content: float
    modulus_root: float
    rel_gap: float
    weak_lhs: float
    weak_rhs: float
    weak_ok: bool
    supported_on_saturated: bool
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

    Checks the value identity at relative tolerance tol, the
    unconditional weak-duality chain 1 <= <f, bar(plan)> m <= c_q ||f||_p
    for the solved pair, and that the optimal plan charges only
    measures saturated at the primal density.
    """
    p = _check_p(p)
    mod = primal.value
    content = dual.value
    if math.isinf(mod) or math.isinf(content):
        ok = math.isinf(mod) and math.isinf(content)
        return DualityCertificate(
            mod, content, math.inf, 0.0 if ok else math.inf, 1.0, 1.0, ok, ok, ok
        )
    root = mod ** (1.0 / p)
    rel = abs(content - root) / max(1.0, root)
    if mod == 0.0 or dual.plan is None:
        ok = rel <= tol
        return DualityCertificate(mod, content, root, rel, 0.0, 0.0, ok, ok, ok)

    f = primal.f
    msk = space.positive_mask
    norm_p = float(np.dot(space.measure[msk], f[msk] ** p)) ** (1.0 / p)
    integrals = np.array([mu.integrate(f) for mu in dual.plan.support])
    weights = np.asarray(dual.plan.probabilities)
    weak_lhs = float(np.dot(weights, integrals))
    weak_rhs = dual.plan.c_q * norm_p
    weak_ok = 1.0 <= weak_lhs + 1e-9 and weak_lhs <= weak_rhs + 1e-9

    supported = True
    for w, integ in zip(weights, integrals):
        if w > 1e-6 and abs(integ - 1.0) > 10 * tol:
            supported = False
    ok = rel <= tol and weak_ok and supported
    return DualityCertificate(
        mod, content, root, rel, weak_lhs, weak_rhs, weak_ok, supported, ok
    )


@dataclass(frozen=True)
class OptimalityReport:
    saturation_max_dev: float
    barycenter_max_dev: float
    converse_value: float
    converse_ok: bool
    violated: tuple[str, ...]
    ok: bool


def check_optimality_conditions(
    space: MetricMeasureSpace,
    primal: ModulusSolution,
    dual: ContentSolution,
    p: float,
    tol: float = 1e-6,
    f_alt: np.ndarray | None = None,
) -> OptimalityReport:
    """Audit the optimality conditions linking a solved primal-dual pair.

    (1) every plan-charged measure integrates f to 1 within tol;
    (2) the plan barycenter matches f^(p-1) / ||f||_p^p within tol
        max-norm on {m > 0};
    (3) converse: a density integrating to 1 against every charged
        measure has p-energy at least Mod - tol (checked on ``f_alt``,
        defaulting to the primal density).
    """
    p = _check_p(p)
    if math.isinf(primal.value) and math.isinf(dual.value):
        # No density is admissible, so there is no condition to audit.
        return OptimalityReport(0.0, 0.0, math.inf, True, (), True)
    if primal.f is None or (dual.plan is None and primal.value != 0.0):
        raise ValueError("optimality audit needs finite solved instances")
    mod = primal.value
    f = primal.f
    violated: list[str] = []
    msk = space.positive_mask
    # Modulus 0 without a plan (no member admits a barycenter) charges
    # no measure and has the zero barycenter.
    charged = []
    g = np.zeros(space.n_points)
    if dual.plan is not None:
        charged = [
            mu for w, mu in zip(dual.plan.probabilities, dual.plan.support)
            if w > 1e-6
        ]
        g = plan_barycenter(space, dual.plan.support, dual.plan.probabilities)

    sat_dev = max((abs(mu.integrate(f) - 1.0) for mu in charged), default=0.0)
    if sat_dev > tol:
        violated.append("saturation")

    target = np.zeros(space.n_points)
    target[msk] = f[msk] ** (p - 1.0) / mod if mod > 0 else 0.0
    bary_dev = float(np.max(np.abs(g[msk] - target[msk]), initial=0.0))
    if bary_dev > tol:
        violated.append("barycenter")

    probe = f if f_alt is None else np.asarray(f_alt, dtype=float)
    charged_ok = all(abs(mu.integrate(probe) - 1.0) <= tol for mu in charged)
    converse_value = float(np.dot(space.measure[msk], probe[msk] ** p))
    converse_ok = (not charged_ok) or converse_value >= mod - tol
    if not converse_ok:
        violated.append("converse")
    return OptimalityReport(
        sat_dev, bary_dev, converse_value, converse_ok, tuple(violated), not violated
    )


def content_of_curve_family(
    space: MetricMeasureSpace,
    curves: Sequence[ParametricCurve],
    p: float,
) -> tuple[ContentSolution, tuple[DiscreteMeasure, ...]]:
    """Best plan supported on the given curves, through their line measures.

    Maps each curve to its node-projected line measure, solves the
    content over those measures, and returns the solution (the plan's
    probabilities index the curves) together with the measures used.
    """
    p = _check_p(p)
    if not curves:
        raise ValueError("content of an empty curve family is undefined")
    for i, c in enumerate(curves):
        if c.is_constant():
            raise ValueError(f"curve {i} is constant and has no line measure")
    measures = tuple(j_map(space, c) for c in curves)
    return solve_content(space, measures, p / (p - 1.0)), measures
