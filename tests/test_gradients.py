"""Upper-gradient audits under the two a.e. quantifiers."""

import math

import numpy as np
import pytest

from modcap.curves import ParametricCurve, constant_speed_reparam
from modcap.gradients import (
    check_upper_gradient,
    check_w1p_pair,
    equivalence_experiment,
    modulus_of_violating_family,
)
from modcap.instance import random_walk_curve
from modcap.plans import CurvePlan
from modcap.space import MetricMeasureSpace, build_grid_space


def chain_space(n=5):
    return MetricMeasureSpace(
        n, [(i, i + 1, 1.0 / (n - 1)) for i in range(n - 1)], np.full(n, 1.0 / n)
    )


def walks(space, rng, count, max_steps=8):
    out = []
    while len(out) < count:
        c = random_walk_curve(space, rng, int(rng.integers(2, max_steps + 1)))
        if len(set(c.nodes)) > 1:
            out.append(c)
    return out


def test_input_validation():
    space = chain_space(3)
    c = ParametricCurve((0, 1), (0.0, 1.0))
    with pytest.raises(ValueError, match="per-point"):
        check_upper_gradient(space, [0.0, 1.0], [0.0, 0.0, 0.0], [c])
    for g in ([0.0, -1.0, 0.0], [math.nan, 0.0, 0.0]):
        with pytest.raises(ValueError, match="nonnegative"):
            check_upper_gradient(space, [0.0, 1.0, 5.0], g, [c])
    for f in ([math.nan, 1.0, 5.0], [0.0, math.inf, 5.0]):
        with pytest.raises(ValueError, match="finite"):
            check_upper_gradient(space, f, [0.0] * 3, [c])
    # An infinite upper gradient is allowed.
    rep = check_upper_gradient(space, [0.0, 1.0, 5.0], [math.inf] * 3, [c])
    assert rep.n_violations == 0


def test_calibrated_pair_never_violates():
    # f = position along the chain and g = 1: the jump |f(b) - f(a)|
    # equals the signed length, which the line integral dominates.
    space = chain_space(5)
    f = np.linspace(0.0, 1.0, 5)
    g = np.ones(5)
    rng = np.random.default_rng(13)
    curves = walks(space, rng, 50)
    rep = check_upper_gradient(space, f, g, curves)
    assert rep.n_violations == 0
    assert rep.worst_residual <= 1e-10
    full = modulus_of_violating_family(space, f, g, curves, 2.0)
    assert full.modulus_of_violations == 0.0


def test_step_function_with_zero_gradient_violates():
    space = chain_space(4)
    f = np.array([0.0, 0.0, 1.0, 1.0])
    g = np.zeros(4)
    crossing = ParametricCurve((1, 2), (0.0, 1.0))
    flat = ParametricCurve((0, 1), (0.0, 1.0))
    rep = check_upper_gradient(space, f, g, [flat, crossing])
    assert rep.violating == (1,)
    assert rep.worst_residual == pytest.approx(1.0)
    full = modulus_of_violating_family(space, f, g, [flat, crossing], 2.0)
    assert full.modulus_of_violations > 0.0


def test_doubling_the_gradient_only_helps():
    space = build_grid_space(4, 4)
    rng = np.random.default_rng(21)
    curves = walks(space, rng, 30)
    f = rng.uniform(0.0, 1.0, space.n_points)
    g = rng.uniform(0.0, 0.3, space.n_points)
    weak = check_upper_gradient(space, f, g, curves)
    strong = check_upper_gradient(space, f, 2.0 * g, curves)
    assert strong.n_violations <= weak.n_violations
    assert set(strong.violating) <= set(weak.violating)
    assert strong.worst_residual <= weak.worst_residual + 1e-12


def test_residuals_are_reparameterization_invariant():
    # The jump and the line integral both depend only on the traced
    # path, so rescaling time leaves every residual unchanged.
    space = build_grid_space(4, 4)
    rng = np.random.default_rng(34)
    curves = walks(space, rng, 25)
    f = rng.uniform(0.0, 1.0, space.n_points)
    g = rng.uniform(0.0, 0.5, space.n_points)
    base = check_upper_gradient(space, f, g, curves)
    reparam = [constant_speed_reparam(space, c) for c in curves]
    again = check_upper_gradient(space, f, g, reparam)
    assert again.violating == base.violating
    assert again.worst_residual == pytest.approx(base.worst_residual, abs=1e-10)


def test_w1p_check_skips_non_test_plans():
    space = MetricMeasureSpace(2, [(0, 1, 1.0)], [1.0, 0.0])
    plan = CurvePlan((ParametricCurve((0, 1), (0.0, 1.0)),), (1.0,))
    f = np.array([0.0, 5.0])
    g = np.zeros(2)
    rep = check_w1p_pair(space, f, g, [plan])
    assert rep.passed
    assert not rep.per_plan[0].is_test_plan
    assert any("not a test plan" in w for w in rep.warnings)


def test_w1p_check_vacuous_without_plans():
    space = chain_space(3)
    rep = check_w1p_pair(space, np.zeros(3), np.zeros(3), [])
    assert rep.passed
    assert any("vacuous" in w for w in rep.warnings)


def test_w1p_check_flags_charged_violations():
    space = chain_space(4)
    f = np.array([0.0, 0.0, 1.0, 1.0])
    g = np.zeros(4)
    crossing = ParametricCurve((1, 2), (0.0, 1.0))
    flat = ParametricCurve((0, 1), (0.0, 1.0))
    plan = CurvePlan((flat, crossing), (0.5, 0.5))
    rep = check_w1p_pair(space, f, g, [plan])
    assert not rep.passed
    assert rep.per_plan[0].violating_probability == pytest.approx(0.5)


def test_equivalence_over_seeded_instances():
    # Whenever the violating family is modulus-null, no test plan may
    # charge it; slope-calibrated g makes the family empty outright.
    space = build_grid_space(4, 4)
    for s in range(6):
        rng = np.random.default_rng(130 + s)
        curves = walks(space, rng, 20)
        f = rng.uniform(0.0, 1.0, space.n_points)
        g = np.zeros(space.n_points)
        for u, v, ell in space.edges:
            slope = abs(f[u] - f[v]) / ell
            g[u] = max(g[u], slope)
            g[v] = max(g[v], slope)
        plans = []
        for _ in range(3):
            sup = walks(space, rng, 4)
            w = rng.uniform(0.2, 1.0, 4)
            w = w / w.sum()
            plans.append(CurvePlan(tuple(sup), tuple(float(x) for x in w)))
        rec = equivalence_experiment(space, f, g, curves, plans, 2.0)
        assert rec.modulus_of_violations == 0.0
        assert rec.implication_ok
