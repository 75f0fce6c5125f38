"""Upper-gradient checks along curves and the two a.e. quantifiers.

A pair (f, g) satisfies the upper-gradient inequality along a curve
when |f(end) - f(start)| <= integral of g against the curve's line
measure.  Quantifying over modulus-a.e. curves or over q-test-plan-a.e.
curves gives two different smallness notions for the violating set;
this module measures both and checks the implication from the first to
the second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .curves import ParametricCurve, j_map, _line_integrals, _segment_table
from .errors import InvalidInstanceError
from .modulus import _check_limits, solve_modulus_explicit
from .plans import CurvePlan, _plan_table, _report
from .space import MetricMeasureSpace

__all__ = [
    "check_upper_gradient",
    "modulus_of_violating_family",
    "check_w1p_pair",
    "equivalence_experiment",
]


@dataclass(frozen=True)
class GradientCheckReport:
    """Per-family audit of the upper-gradient inequality.

    ``worst_residual`` is the largest |f(end) - f(start)| - int_gamma g
    over the curves; a curve violates when its residual exceeds the
    tolerance, so worst_residual <= tol iff there are no violations.
    ``modulus_of_violations`` is filled by modulus_of_violating_family.
    """

    n_curves: int
    n_violations: int
    violating: tuple[int, ...]
    worst_residual: float
    tol: float
    modulus_of_violations: float | None = None


def check_upper_gradient(
    space: MetricMeasureSpace,
    f: Sequence[float],
    g: Sequence[float],
    curves: Sequence[ParametricCurve],
    tol: float = 1e-10,
) -> GradientCheckReport:
    """Residuals of |f(end) - f(start)| <= int g dJ over the curves.

    f must be finite; g may be +inf (an infinite upper gradient) but not
    negative or NaN.
    """
    fv, gv = _checked_pair(space, f, g, tol)  # before the table
    return _check_gradient(fv, gv, tol, _segment_table(space, curves))


def _checked_pair(space: MetricMeasureSpace, f, g, tol) -> tuple[np.ndarray, np.ndarray]:
    """f and g as float arrays; InvalidInstanceError unless they and tol are valid."""
    _check_limits(tol)
    fv = np.asarray(f, dtype=float)
    gv = np.asarray(g, dtype=float)
    if fv.shape != (space.n_points,) or gv.shape != (space.n_points,):
        raise InvalidInstanceError("f and g must be per-point vectors")
    if not np.all(np.isfinite(fv)):
        raise InvalidInstanceError("f must be finite")
    if not np.all(gv >= 0):  # also false on NaN
        raise InvalidInstanceError("upper gradient candidates must be nonnegative, not NaN")
    return fv, gv


def _check_gradient(fv: np.ndarray, gv: np.ndarray, tol: float, t) -> GradientCheckReport:
    """``check_upper_gradient`` of the curves of segment table t, for a checked pair."""
    first, last = t.u[t.start[:-1]], t.v[t.start[1:] - 1]  # each curve's ends
    resid = (np.abs(fv[last] - fv[first]) - _line_integrals(t, gv)).tolist()
    bad = tuple(i for i, r in enumerate(resid) if r > tol)
    return GradientCheckReport(len(resid), len(bad), bad, max(resid, default=-math.inf), tol)


def modulus_of_violating_family(
    space: MetricMeasureSpace,
    f: Sequence[float],
    g: Sequence[float],
    curves: Sequence[ParametricCurve],
    p: float,
    tol: float = 1e-10,
) -> GradientCheckReport:
    """Modulus of the curves violating the upper-gradient inequality.

    A value at zero certifies (f, g) as an upper-gradient pair in the
    modulus-a.e. sense relative to the family.  Violating curves map to
    their line measures before the modulus solve.
    """
    report = check_upper_gradient(space, f, g, curves, tol)
    if not report.violating:
        value = 0.0
    else:
        measures = [j_map(space, curves[i]) for i in report.violating]
        value = solve_modulus_explicit(space, measures, p, gap_tol=1e-11).value
    return replace(report, modulus_of_violations=value)


@dataclass(frozen=True)
class PlanViolation:
    is_test_plan: bool
    c_min: float
    violating_probability: float


@dataclass(frozen=True)
class W1pReport:
    per_plan: tuple[PlanViolation, ...]
    passed: bool
    warnings: tuple[str, ...]


def check_w1p_pair(
    space: MetricMeasureSpace,
    f: Sequence[float],
    g: Sequence[float],
    plans: Sequence[CurvePlan],
    tol: float = 1e-10,
) -> W1pReport:
    """Probability of upper-gradient violations under each test plan.

    Passes when every test plan gives violating probability at most
    1e-8.  Plans that fail testplan_check (unbounded marginal) are
    reported and skipped rather than silently accepted; an empty plan
    list passes vacuously with a warning.
    """
    entries: list[PlanViolation] = []
    warnings: list[str] = []
    passed = True
    fv, gv = _checked_pair(space, f, g, tol)  # also when there is no plan
    if not plans:
        warnings.append("no plans supplied; vacuous pass")
    for idx, plan in enumerate(plans):
        t = _plan_table(space, plan)  # at most one table
        rep, tp = _check_gradient(fv, gv, tol, t), _report(space, plan, t)
        prob = math.fsum(plan.probabilities[i] for i in rep.violating)
        entries.append(PlanViolation(tp.is_test_plan, tp.c_min, prob))
        if not tp.is_test_plan:
            warnings.append(
                f"plan {idx} is not a test plan (unbounded marginal); skipped"
            )
            continue
        if prob > 1e-8:
            passed = False
    return W1pReport(tuple(entries), passed, tuple(warnings))


@dataclass(frozen=True)
class EquivalenceRecord:
    modulus_of_violations: float
    plan_probabilities: tuple[float, ...]
    implication_ok: bool


def equivalence_experiment(
    space: MetricMeasureSpace,
    f: Sequence[float],
    g: Sequence[float],
    curves: Sequence[ParametricCurve],
    plans: Sequence[CurvePlan],
    p: float,
    *,
    tol: float = 1e-10,
) -> EquivalenceRecord:
    """Check the easy a.e.-quantifier implication on one instance.

    When the violating family is modulus-null (value <= 1e-10), every
    test plan must see the violators with probability at most 1e-8.
    """
    rep = modulus_of_violating_family(space, f, g, curves, p, tol)
    w1p = check_w1p_pair(space, f, g, plans, tol)
    probs = tuple(e.violating_probability for e in w1p.per_plan)
    ok = w1p.passed or rep.modulus_of_violations > 1e-10
    return EquivalenceRecord(rep.modulus_of_violations, probs, ok)
