"""Curve plans: barycenters, test-plan constants, time-change operators."""

import math

import numpy as np
import pytest

from modcap.curves import (
    ParametricCurve, constant_curve, constant_speed_reparam, m_map, occupation_at
)
from modcap.errors import NoBarycenterError
from modcap.instance import random_walk_curve
from modcap.plans import (
    CurvePlan,
    bridge_inequality,
    constant_speed_pushforward,
    improve_barycenter,
    parametric_barycenter,
    plan_lipschitz,
    q_energy,
    stretch_average,
)
from modcap.plans import testplan_check as marginal_check
from modcap.space import MetricMeasureSpace, build_grid_space


def chain_space(n=4):
    return MetricMeasureSpace(
        n, [(i, i + 1, 1.0) for i in range(n - 1)], np.full(n, 1.0 / n)
    )


def walk_plan(space, rng, n_curves, max_steps=8):
    curves = []
    while len(curves) < n_curves:
        c = random_walk_curve(space, rng, int(rng.integers(2, max_steps + 1)))
        if len(set(c.nodes)) > 1:
            curves.append(c)
    w = rng.uniform(0.2, 1.0, size=n_curves)
    w = w / w.sum()
    return CurvePlan(tuple(curves), tuple(float(x) for x in w))


def test_curve_plan_validation():
    c = ParametricCurve((0, 1), (0.0, 1.0))
    with pytest.raises(ValueError, match="one probability per"):
        CurvePlan((c,), (0.5, 0.5))
    with pytest.raises(ValueError, match="nonempty"):
        CurvePlan((), ())
    with pytest.raises(ValueError, match="nonnegative"):
        CurvePlan((c, c), (1.25, -0.25))
    with pytest.raises(ValueError, match="finite"):
        CurvePlan((c,), (math.nan,))
    with pytest.raises(ValueError, match="sum to"):
        CurvePlan((c,), (0.9,))


def test_parametric_barycenter_by_hand():
    # One curve spending half its time on each endpoint of a unit edge:
    # the occupation measure is 1/2 at each node, so h = (1/2) / m.
    space = chain_space(2)
    c = ParametricCurve((0, 1), (0.0, 1.0))
    plan = CurvePlan((c,), (1.0,))
    occ = m_map(space, c)
    assert dict(occ.items) == {0: 0.5, 1: 0.5}
    assert np.allclose(parametric_barycenter(space, plan), [1.0, 1.0])


def test_parametric_barycenter_validation():
    space = chain_space(3)
    plan = CurvePlan((ParametricCurve((0, 1), (0.0, 1.0)),), (1.0,))
    dead = MetricMeasureSpace(
        3, [(0, 1, 1.0), (1, 2, 1.0)], [1.0, 0.0, 1.0]
    )
    with pytest.raises(NoBarycenterError, match="point 1"):
        parametric_barycenter(dead, plan)


def test_q_energy_and_lipschitz_by_hand():
    # Two unit edges crossed in times 1/2 each: speed 2 throughout, so
    # the q-energy is 2^q and the Lipschitz constant is 2.
    space = chain_space(3)
    c = ParametricCurve((0, 1, 2), (0.0, 0.5, 1.0))
    plan = CurvePlan((c,), (1.0,))
    for qq in (1.5, 2.0, 3.0):
        assert q_energy(space, plan, qq) == pytest.approx(2.0**qq, rel=1e-12)
    assert plan_lipschitz(space, plan) == pytest.approx(2.0)


def test_testplan_constant_is_exact_on_breakpoints():
    space = chain_space(3)
    plan = CurvePlan(
        (
            ParametricCurve((0, 1, 2), (0.0, 0.5, 1.0)),
            ParametricCurve((2, 1, 0), (0.0, 0.5, 1.0)),
        ),
        (0.5, 0.5),
    )
    rep = marginal_check(space, plan)
    assert rep.is_test_plan
    # At t = 1/2 both curves sit on node 1 with full weight: marginal
    # density (0.5 + 0.5) / (1/3) = 3.
    assert rep.c_min == pytest.approx(3.0, rel=1e-12)
    assert rep.worst_time == pytest.approx(0.5)
    assert rep.worst_point == 1
    # The marginal is piecewise linear between breakpoints, so refining
    # the evaluation grid never grows the supremum.
    finer = marginal_check(space, plan, extra_times=np.linspace(0, 1, 113))
    assert finer.c_min == pytest.approx(rep.c_min, rel=1e-12)


def test_testplan_infinite_on_zero_mass_point():
    space = MetricMeasureSpace(2, [(0, 1, 1.0)], [1.0, 0.0])
    plan = CurvePlan((ParametricCurve((0, 1), (0.0, 1.0)),), (1.0,))
    rep = marginal_check(space, plan)
    assert not rep.is_test_plan
    assert math.isinf(rep.c_min)


def test_improve_barycenter_certificates():
    space = build_grid_space(5, 5)
    for s in range(8):
        rng = np.random.default_rng(300 + s)
        plan = walk_plan(space, rng, 3 + s % 3)
        q = (1.5, 2.0, 3.0)[s % 3]
        eps = (0.05, 0.1, 0.25)[s % 3]
        res = improve_barycenter(space, plan, q, eps)
        assert res.z <= 1.0 / eps + 1e-12
        assert res.barycenter_ok
        assert res.new_barycenter_sup <= 1.0 / res.z + 1e-8
        assert math.fsum(res.plan.probabilities) == pytest.approx(1.0, abs=1e-12)
        # Sampled rates are conservative, so the realized energy stays
        # within a factor 2 of the closed-form bound.
        assert res.energy_new <= 2.0 * res.energy_formula + 1e-9


def test_improve_barycenter_validation():
    space = chain_space(3)
    plan = CurvePlan((ParametricCurve((0, 1), (0.0, 1.0)),), (1.0,))
    with pytest.raises(ValueError, match="eps"):
        improve_barycenter(space, plan, 2.0, 0.0)
    with pytest.raises(ValueError, match="q > 1"):
        improve_barycenter(space, plan, 1.0, 0.1)


def test_improve_barycenter_keeps_node_sequences():
    space = build_grid_space(4, 4)
    rng = np.random.default_rng(9)
    plan = walk_plan(space, rng, 4)
    res = improve_barycenter(space, plan, 2.0, 0.1)
    assert tuple(c.nodes for c in res.plan.curves) == tuple(
        c.nodes for c in plan.curves
    )


def test_stretch_average_validation():
    space = chain_space(3)
    plan = CurvePlan((ParametricCurve((0, 1, 2), (0.0, 0.5, 1.0)),), (1.0,))
    for eps in (0.0, 0.5, -0.1, 0.75):
        with pytest.raises(ValueError, match="stretch parameter"):
            stretch_average(space, plan, eps)
    with pytest.raises(ValueError, match="n_tau"):
        stretch_average(space, plan, 0.25, 0)


def test_stretch_average_certificate_and_probabilities():
    space = build_grid_space(4, 4)
    for s in range(6):
        rng = np.random.default_rng(450 + s)
        plan = walk_plan(space, rng, 3)
        res = stretch_average(space, plan, 0.25, n_tau=32)
        assert res.marginal_ok
        assert res.exact_sup <= res.bound + res.correction + 1e-12
        assert math.fsum(res.plan.probabilities) == pytest.approx(1.0, abs=1e-9)
        assert all(w > 0 for w in res.plan.probabilities)
        assert len(res.plan.curves) <= 32 * len(plan.curves)


def test_stretch_correction_halves_when_grid_doubles():
    space = build_grid_space(4, 4)
    rng = np.random.default_rng(77)
    plan = walk_plan(space, rng, 3)
    coarse = stretch_average(space, plan, 0.25, n_tau=16)
    fine = stretch_average(space, plan, 0.25, n_tau=32)
    assert fine.correction == pytest.approx(coarse.correction / 2.0, rel=1e-12)
    assert fine.c_in == coarse.c_in


def test_constant_speed_pushforward_merges_equivalent_atoms():
    # Same node path with different breakpoint times collapses to one
    # constant-speed atom carrying the summed probability.
    space = chain_space(4)
    a = ParametricCurve((0, 1, 2), (0.0, 0.3, 1.0))
    b = ParametricCurve((0, 1, 2), (0.0, 0.8, 1.0))
    other = ParametricCurve((3, 2), (0.0, 1.0))
    plan = CurvePlan((a, b, other), (0.25, 0.35, 0.4))
    out = constant_speed_pushforward(space, plan)
    assert len(out.curves) == 2
    merged = dict(zip((c.nodes for c in out.curves), out.probabilities))
    assert merged[(0, 1, 2)] == pytest.approx(0.6)
    assert merged[(3, 2)] == pytest.approx(0.4)
    for c in out.curves:
        rep = constant_speed_reparam(space, c)
        assert max(abs(s - t) for s, t in zip(rep.times, c.times)) < 1e-12


def test_bridge_inequality_on_random_plans():
    space = build_grid_space(5, 5)
    for s in range(10):
        rng = np.random.default_rng(520 + s)
        plan = walk_plan(space, rng, 2 + s % 4)
        q = (1.5, 2.0, 3.0)[s % 3]
        rep = bridge_inequality(space, plan, q)
        assert rep.ok, rep
        assert rep.c_q <= rep.rhs + 1e-6


def scalar_testplan(space, plan, extra_times=()):
    """Reference marginal loop: one occupation_at call per time and curve."""
    grid = {0.0, 1.0}
    for _, c in plan.support():
        grid.update(c.times)
    grid.update(float(t) for t in extra_times if 0.0 <= t <= 1.0)
    m = space.measure
    c_min, worst_t, worst_x = 0.0, 0.0, -1
    for t in sorted(grid):
        mass = np.zeros(space.n_points)
        for w, c in plan.support():
            for idx, frac in occupation_at(space, c, t):
                mass[idx] += w * frac
        for idx in np.nonzero(mass > 0)[0]:
            dens = mass[idx] / m[idx] if m[idx] > 0 else math.inf
            if dens > c_min:
                c_min, worst_t, worst_x = float(dens), t, int(idx)
    return c_min, worst_t, worst_x


def messy_plan(space, rng, n_curves):
    """Walks with plateaus and shared breakpoints, plus constant curves."""
    curves = []
    for _ in range(n_curves):
        if rng.random() < 0.2:
            curves.append(constant_curve(int(rng.integers(space.n_points))))
            continue
        walk = random_walk_curve(space, rng, int(rng.integers(1, 7))).nodes
        nodes = [x for x in walk for _ in range(1 + (rng.random() < 0.3))]
        if len(nodes) < 2:
            nodes.append(nodes[0])
        # Breakpoints on a grid of eighths (when there is room) coincide
        # across curves, so densities tie across times and points.
        pool = np.arange(1, 8) / 8 if len(nodes) <= 8 else rng.uniform(0, 1, 40)
        inner = np.sort(rng.choice(pool, size=len(nodes) - 2, replace=False))
        curves.append(ParametricCurve(tuple(nodes), (0.0, *inner, 1.0)))
    w = rng.uniform(0.2, 1.0, size=n_curves)
    return CurvePlan(tuple(curves), tuple(float(x) for x in w / w.sum()))


def test_testplan_check_matches_scalar_occupation_loop():
    for s in range(60):
        rng = np.random.default_rng(900 + s)
        side = 3 + s % 3
        weights = [
            np.ones(side * side),
            rng.uniform(0.1, 1.0, side * side),
            rng.uniform(0.1, 1.0, side * side) * (rng.random(side * side) > 0.2),
        ][s % 3]
        space = build_grid_space(side, side, weights)
        plan = messy_plan(space, rng, 1 + s % 5)
        extra = rng.uniform(-0.2, 1.2, size=s % 7) if s % 2 else ()
        rep = marginal_check(space, plan, extra_times=extra)
        assert (rep.c_min, rep.worst_time, rep.worst_point) == scalar_testplan(
            space, plan, extra
        )


def test_stretch_outputs_match_scalar_occupation_loop():
    for s in range(8):
        rng = np.random.default_rng(960 + s)
        space = build_grid_space(4, 4, rng.uniform(0.1, 1.0, 16))
        plan = messy_plan(space, rng, 2 + s % 3)
        res = stretch_average(space, plan, 0.25, n_tau=(8, 16)[s % 2])
        ref = scalar_testplan(space, res.plan)
        assert res.output_c_min == ref[0]
        rep = marginal_check(space, res.plan)
        assert (rep.c_min, rep.worst_time, rep.worst_point) == ref


def test_stretch_exact_sup_matches_brute_force_tau_average():
    eps = 0.25
    for s in range(6):
        rng = np.random.default_rng(980 + s)
        space = build_grid_space(4, 4, rng.uniform(0.1, 1.0, 16))
        plan = messy_plan(space, rng, 2 + s % 3)
        n_tau = (8, 16)[s % 2]
        res = stretch_average(space, plan, eps, n_tau=n_tau)
        taus = [(j + 0.5) * eps / n_tau for j in range(n_tau)]
        # The averaged marginal is piecewise linear between the shifted
        # breakpoints (1 + eps) t_k - tau, so its supremum sits on them.
        grid = {0.0, 1.0}
        for _, c in plan.support():
            grid.update(
                t for tk in c.times for tau in taus
                if 0.0 < (t := (1.0 + eps) * tk - tau) < 1.0
            )
        brute = 0.0
        for t in sorted(grid):
            mass = np.zeros(space.n_points)
            for w, c in plan.support():
                for tau in taus:
                    for idx, frac in occupation_at(space, c, (t + tau) / (1.0 + eps)):
                        mass[idx] += w / n_tau * frac
            brute = max(brute, float((mass / space.measure).max()))
        assert res.exact_sup == pytest.approx(brute, rel=1e-12, abs=0.0)
