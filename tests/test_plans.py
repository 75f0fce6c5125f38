"""Curve plans: barycenters, test-plan constants, time-change operators."""

import math
from bisect import bisect_left, bisect_right

import numpy as np
import pytest

from modcap.curves import (
    ParametricCurve,
    _edges,
    _padded,
    _segment_table,
    constant_curve,
    curve_energy,
    edge_multiplicity,
    j_map,
    m_map,
    metric_speed,
    occupation_at,
    stretch,
)
from modcap.duality import build_measure_plan, plan_barycenter
from modcap.errors import InvalidInstanceError, NoBarycenterError
from modcap.gradients import check_upper_gradient, check_w1p_pair
from modcap.instance import random_walk_curve
from modcap.plans import (
    CurvePlan,
    bridge_inequality,
    improve_barycenter,
    parametric_barycenter,
    plan_lipschitz,
    q_energy,
    stretch_average,
)
from modcap import plans
from modcap.plans import _BLOCK, _CELLS
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


def test_q_energy_beyond_the_float_range_is_inf():
    # 2^1e6 overflows a float, which raised OverflowError.
    space = chain_space(3)
    fast = ParametricCurve((0, 1, 2), (0.0, 0.5, 1.0))
    slow = ParametricCurve((0, 0, 1), (0.0, 0.5, 1.0))  # a plateau, then speed 2
    crawl = ParametricCurve((1, 2), (0.0, 1.0))  # speed 1
    assert curve_energy(space, fast, 1e6) == math.inf
    assert q_energy(space, CurvePlan((fast, crawl), (0.5, 0.5)), 1e6) == math.inf
    assert q_energy(space, CurvePlan((crawl,), (1.0,)), 1e6) == 1.0
    assert q_energy(space, CurvePlan((slow, crawl), (0.25, 0.75)), 1e3) == math.fsum(
        [0.25 * 2.0**1e3 * 0.5, 0.75]
    )
    # A curve of probability 0 does not count, even with infinite energy.
    assert q_energy(space, CurvePlan((fast, crawl), (0.0, 1.0)), 1e6) == 1.0


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


def _ones(space):
    return np.ones(space.n_points)


def time_average(space, curve, values):
    """Time integral of a per-point function along the curve: its integral
    against the occupation measure."""
    return m_map(space, curve).integrate(values)


def j_edge_measure(space, curve):
    """Line measure of the curve per edge (lo, hi), in order of first traversal."""
    _, lo, hi, mass, _ = _edges(_segment_table(space, [curve]))
    return dict(zip(zip(lo.tolist(), hi.tolist()), mass.tolist()))


_ON_PLAN = {
    "parametric_barycenter": parametric_barycenter,
    "testplan_check": marginal_check,
    "stretch_average": lambda space, plan: stretch_average(space, plan, 0.25, 4),
    "q_energy": lambda space, plan: q_energy(space, plan, 2.0),
    "plan_lipschitz": plan_lipschitz,
    "improve_barycenter": lambda space, plan: improve_barycenter(space, plan, 2.0, 0.1),
    "bridge_inequality": lambda space, plan: bridge_inequality(space, plan, 2.0),
    "check_w1p_pair": lambda space, plan: check_w1p_pair(
        space, _ones(space), _ones(space), [plan]
    ),
    "check_upper_gradient": lambda space, plan: check_upper_gradient(
        space, _ones(space), _ones(space), plan.curves
    ),
    # Curve functions get the offending curve, the second of the plan.
    "time_average": lambda space, plan: time_average(space, plan.curves[1], _ones(space)),
    "m_map": lambda space, plan: m_map(space, plan.curves[1]),
    "j_map": lambda space, plan: j_map(space, plan.curves[1]),
    "occupation_at": lambda space, plan: occupation_at(space, plan.curves[1], 0.5),
}

_OFF_THE_SPACE = [constant_curve(99), ParametricCurve((0, 4), (0.0, 1.0))]


@pytest.mark.parametrize("name", sorted(_ON_PLAN))
@pytest.mark.parametrize(
    "bad, message",
    [
        (0, "node 99 is not a point of the space"),
        (1, "points 0 and 4 are not adjacent"),
    ],
    ids=["constant-off-the-space", "diagonal-step"],
)
def test_curves_off_the_space_are_rejected(name, bad, message):
    # On a 3x3 grid these raised IndexError or returned mass on point 99;
    # testplan_check accepted the diagonal step with c_min = 9.  The bad
    # curve is second and the third is bad the other way, so the whole
    # plan is checked at once and the first offending curve is named.
    space = build_grid_space(3, 3)
    good = ParametricCurve((3, 4, 4, 5), (0.0, 0.25, 0.5, 1.0))
    plan = CurvePlan((good, _OFF_THE_SPACE[bad], _OFF_THE_SPACE[1 - bad]), (0.25, 0.5, 0.25))
    with pytest.raises(InvalidInstanceError, match=message):
        _ON_PLAN[name](space, plan)


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
    for q in (1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="q > 1"):
            improve_barycenter(space, plan, q, 0.1)
        # An infinite q gave ok=False with rhs=nan.
        with pytest.raises(ValueError, match="q > 1"):
            bridge_inequality(space, plan, q)
    # NaN compared false with q < 1, so the energy came out 1.0.
    for q in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="energy exponent"):
            q_energy(space, plan, q)


def test_improve_barycenter_reports_unrepresentable_bound_as_inf():
    # eps**q underflows to 0 here, which raised ZeroDivisionError.
    space = build_grid_space(4, 4)
    plan = walk_plan(space, np.random.default_rng(8), 3)
    for q, eps in ((3.0, 1e-120), (2.0, 1e-300)):
        res = improve_barycenter(space, plan, q, eps)
        assert res.energy_formula == math.inf
        assert res.barycenter_ok and res.energy_new < math.inf


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
    # A fractional or NaN count raised TypeError from range.
    for n_tau in (0, 2.5, math.nan):
        with pytest.raises(InvalidInstanceError, match="n_tau"):
            stretch_average(space, plan, 0.25, n_tau)


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


def test_bridge_inequality_on_random_plans():
    space = build_grid_space(5, 5)
    for s in range(10):
        rng = np.random.default_rng(520 + s)
        plan = walk_plan(space, rng, 2 + s % 4)
        q = (1.5, 2.0, 3.0)[s % 3]
        rep = bridge_inequality(space, plan, q)
        assert rep.ok, rep
        assert rep.c_q <= rep.rhs + 1e-6


def test_bridge_c_q_beyond_the_float_range_is_inf():
    # The line-measure barycenter exceeds 1 on point 1, so g ** q overflows.
    space = chain_space(3)
    plan = CurvePlan((ParametricCurve((0, 1, 2), (0.0, 0.5, 1.0)),), (1.0,))
    rep = bridge_inequality(space, plan, 1e6)  # without an overflow warning
    assert math.isinf(rep.c_q) and math.isinf(rep.energy) and rep.ok


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


def scalar_tau_average(space, plan, eps, n_tau):
    """Reference stretch marginal: one occupation_at call per time, curve and tau.

    The averaged marginal is piecewise linear between the shifted
    breakpoints (1 + eps) t_k - tau, so its supremum sits on them.
    """
    taus = [(j + 0.5) * eps / n_tau for j in range(n_tau)]
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
    return brute


def test_stretch_exact_sup_matches_brute_force_tau_average():
    eps = 0.25
    for s in range(6):
        rng = np.random.default_rng(980 + s)
        space = build_grid_space(4, 4, rng.uniform(0.1, 1.0, 16))
        plan = messy_plan(space, rng, 2 + s % 3)
        n_tau = (8, 16)[s % 2]
        res = stretch_average(space, plan, eps, n_tau=n_tau)
        brute = scalar_tau_average(space, plan, eps, n_tau)
        assert res.exact_sup == pytest.approx(brute, rel=1e-12, abs=0.0)


def test_testplan_check_matches_scalar_loop_across_blocks_and_chunks():
    # More than one block of times, and per block several chunks of terms.
    rng = np.random.default_rng(1200)
    space = build_grid_space(5, 5, rng.uniform(0.1, 1.0, 25))
    plan = messy_plan(space, rng, 40)
    extra = rng.uniform(0.0, 1.0, 600)
    rep = marginal_check(space, plan, extra_times=extra)
    grid = {0.0, 1.0, *extra}.union(*(c.times for c in plan.curves))
    width = max(len(c.times) for c in plan.curves) + 1
    assert len(grid) > 2 * _BLOCK
    assert len(plan.curves) > 3 * (_CELLS // (_BLOCK * width))
    assert (rep.c_min, rep.worst_time, rep.worst_point) == scalar_testplan(
        space, plan, extra
    )


def test_zero_probability_curves_do_not_count():
    rng = np.random.default_rng(1300)
    space = build_grid_space(4, 4, rng.uniform(0.1, 1.0, 16))
    base = messy_plan(space, rng, 6)
    extra = messy_plan(space, rng, 6).curves
    # Zero-weight curves first, last and in between change nothing: the
    # report equals that of the plan without them.
    curves = (extra[0], *base.curves[:3], *extra[1:4], *base.curves[3:], *extra[4:])
    probs = (0.0, *base.probabilities[:3], 0.0, 0.0, 0.0, *base.probabilities[3:], 0.0, 0.0)
    plan = CurvePlan(curves, probs)
    rep = marginal_check(space, plan)
    ref = scalar_testplan(space, plan)
    assert (rep.c_min, rep.worst_time, rep.worst_point) == ref
    same = marginal_check(space, base)
    assert (same.c_min, same.worst_time, same.worst_point) == ref


def test_stretch_at_128_taus_matches_scalar_loops():
    rng = np.random.default_rng(1400)
    space = build_grid_space(8, 8, rng.uniform(0.1, 1.0, 64))
    plan = messy_plan(space, rng, 1)
    while plan.curves[0].is_constant():
        plan = messy_plan(space, rng, 1)
    res = stretch_average(space, plan, 0.25, n_tau=128)
    ref = scalar_testplan(space, res.plan)
    assert res.output_c_min == ref[0]
    rep = marginal_check(space, res.plan)
    assert (rep.c_min, rep.worst_time, rep.worst_point) == ref
    assert res.exact_sup == scalar_tau_average(space, plan, 0.25, 128)


def avoiding_plans(space, rng, point, count):
    """messy_plan draws whose curves never visit ``point``."""
    while count:
        plan = messy_plan(space, rng, 2 + count % 4)
        if all(point not in c.nodes for c in plan.curves):
            count -= 1
            yield plan


def occupation_tv(curve, point):
    """Total variation in time of the occupation weight at one node."""
    tv = 0.0
    prev = 1.0 if curve.nodes[0] == point else 0.0
    for nd in curve.nodes[1:]:
        cur = 1.0 if nd == point else 0.0
        tv += abs(cur - prev)
        prev = cur
    return tv


def test_stretch_correction_matches_occupation_indicator_scan():
    rng = np.random.default_rng(1500)
    weights = rng.uniform(0.1, 1.0, 16)
    weights[5] = 0.0
    space = build_grid_space(4, 4, weights)
    for plan in avoiding_plans(space, rng, 5, 8):
        eps, n_tau = 0.25, 16
        res = stretch_average(space, plan, eps, n_tau)
        corr = 0.0
        for x in np.nonzero(space.positive_mask)[0]:
            tv = math.fsum(w * occupation_tv(c, int(x)) for w, c in plan.support())
            corr = max(corr, eps / n_tau / (2.0 * eps) * tv / float(space.measure[x]))
        assert res.correction == corr


def test_improve_barycenter_times_are_sequential_partial_sums():
    rng = np.random.default_rng(1600)
    weights = rng.uniform(0.1, 1.0, 16)
    weights[5] = 0.0
    space = build_grid_space(4, 4, weights)
    for plan in avoiding_plans(space, rng, 5, 8):
        res = improve_barycenter(space, plan, 2.0, 0.1)
        for (_, c), new in zip(plan.support(), res.plan.curves):
            x, t = c.nodes, c.times
            spans = [
                (t[i + 1] - t[i]) * min(res.h[x[i]], res.h[x[i + 1]])
                for i in range(len(c.nodes) - 1)
            ]
            total, acc, times = math.fsum(spans), 0.0, [0.0]
            for s in spans[:-1]:
                acc += s
                times.append(acc / total)
            assert new.times == (*times, 1.0)


def test_m_map_and_j_map_match_per_segment_loops():
    rng = np.random.default_rng(1700)
    space = build_grid_space(4, 4, rng.uniform(0.1, 1.0, 16))
    for _ in range(12):
        # Walks that cross edges up to three times: count x length is
        # not the sum of the lengths in floating point.
        for c in revisiting_plan(space, rng, 3).curves:
            occ, line, counts = {}, {}, {}
            for i in range(len(c.nodes) - 1):
                u, v = c.nodes[i], c.nodes[i + 1]
                half = 0.5 * (c.times[i + 1] - c.times[i])
                occ[u] = occ.get(u, 0.0) + half
                occ[v] = occ.get(v, 0.0) + half
                if u != v:
                    edge = (min(u, v), max(u, v))
                    counts[edge] = counts.get(edge, 0) + 1
            edges = {(u, v): k * space.edge_length(u, v) for (u, v), k in counts.items()}
            for (u, v), mass in edges.items():
                line[u] = line.get(u, 0.0) + 0.5 * mass
                line[v] = line.get(v, 0.0) + 0.5 * mass
            assert list(edge_multiplicity(space, c).items()) == list(counts.items())
            assert list(j_edge_measure(space, c).items()) == list(edges.items())
            assert dict(m_map(space, c).items) == occ
            assert dict(j_map(space, c).items) == line


# Per-curve references for the plan functions, which read every curve of
# a plan off one segment table: the parent implementations, one curve
# (or one curve and window) per call.


def per_curve_barycenter(space, plan):
    return plan_barycenter(space, [m_map(space, c) for c in plan.curves], plan.probabilities)


def scalar_stretch(space, curve, a, b):
    """``stretch`` through bisect and occupation_at, one window per call."""
    ends = []
    for t in (a, b):
        weights = occupation_at(space, curve, t)
        ends.append(weights[0][0] if weights[-1][1] < 0.5 else weights[-1][0])
    inner = range(bisect_right(curve.times, a), bisect_left(curve.times, b))
    nodes = (ends[0], *(curve.nodes[k] for k in inner), ends[1])
    if len(nodes) == 2 and nodes[0] == nodes[1]:
        return constant_curve(nodes[0])
    times = (0.0, *((curve.times[k] - a) / (b - a) for k in inner), 1.0)
    return ParametricCurve(nodes, times)


def per_window_stretch_plan(space, plan, eps, n_tau):
    atoms = {}
    for w, c in plan.support():
        for j in range(n_tau):
            tau = (j + 0.5) * eps / n_tau
            a, b = tau / (1.0 + eps), (1.0 + tau) / (1.0 + eps)
            piece = stretch(space, c, a, b)
            assert piece == scalar_stretch(space, c, a, b)
            atoms[piece] = atoms.get(piece, 0.0) + w / n_tau
    return CurvePlan(tuple(atoms), tuple(atoms.values()))


def per_curve_c_q(space, plan, q):
    support = plan.support()
    measures = [j_map(space, c) for _, c in support]
    return build_measure_plan(space, measures, [w for w, _ in support], q).c_q


def loop_energy(space, curve, q):
    total = 0.0
    for i in range(len(curve.nodes) - 1):
        u, v = curve.nodes[i], curve.nodes[i + 1]
        dt = curve.times[i + 1] - curve.times[i]
        if u != v:
            total += (space.edge_length(u, v) / dt) ** q * dt
    return total


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of its NoBarycenterError."""
    try:
        return fn(*args)
    except NoBarycenterError as exc:
        return (NoBarycenterError, str(exc))


def _same(a, b):
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a.tobytes() == b.tobytes()
    return a == b


def revisiting_plan(space, rng, n_curves):
    """messy_plan with back-and-forth walks and zero-probability curves."""
    base = messy_plan(space, rng, n_curves)
    curves = list(base.curves)
    for i, c in enumerate(curves[:2]):
        if not c.is_constant():
            nodes = c.nodes + c.nodes[-2::-1] + c.nodes[1:]  # every edge three times
            times = np.linspace(0.0, 1.0, len(nodes))
            times[1:-1] += rng.uniform(-0.2, 0.2, len(nodes) - 2) / len(nodes)
            curves[i] = ParametricCurve(nodes, tuple(times.tolist()))
    probs = list(base.probabilities)
    curves.insert(1, messy_plan(space, rng, 1).curves[0])
    probs.insert(1, 0.0)
    curves.append(messy_plan(space, rng, 1).curves[0])
    probs.append(0.0)
    return CurvePlan(tuple(curves), tuple(probs))


def test_plan_tables_match_per_curve_references():
    q = 2.0
    raised = 0
    for s in range(24):
        rng = np.random.default_rng(1800 + s)
        weights = rng.uniform(0.1, 1.0, 16)
        plan = revisiting_plan(build_grid_space(4, 4, weights.copy()), rng, 2 + s % 4)
        # One zero-mass point: every third plan visits it.
        visited = set().union(*(c.nodes for c in plan.curves))
        pool = sorted(visited if s % 3 == 0 else set(range(16)) - visited or visited)
        weights[pool[int(rng.integers(len(pool)))]] = 0.0
        space = build_grid_space(4, 4, weights)
        ref = outcome(per_curve_barycenter, space, plan)
        assert _same(outcome(parametric_barycenter, space, plan), ref)
        if isinstance(ref, tuple):
            raised += 1
            # Every plan function reports the same missing barycenter;
            # the bridge checks the line measures first.
            line = outcome(per_curve_c_q, space, plan, q)
            expected = line if isinstance(line, tuple) else ref
            assert outcome(bridge_inequality, space, plan, q) == expected
            assert outcome(improve_barycenter, space, plan, q, 0.1) == ref
            assert outcome(stretch_average, space, plan, 0.25, 8) == ref
            continue
        support = plan.support()
        assert q_energy(space, plan, q) == math.fsum(
            w * loop_energy(space, c, q) for w, c in support
        )
        assert plan_lipschitz(space, plan) == max(
            float(metric_speed(space, c).max()) for _, c in support
        )
        rep = bridge_inequality(space, plan, q)
        assert rep.c_q == per_curve_c_q(space, plan, q)
        assert rep.h_sup == float(ref.max())
        assert rep.energy == q_energy(space, plan, q)
        imp = improve_barycenter(space, plan, q, 0.1)
        assert np.array_equal(imp.g, ref)
        assert np.array_equal(imp.new_barycenter, per_curve_barycenter(space, imp.plan))
        n_tau = (4, 8)[s % 2]
        res = stretch_average(space, plan, 0.25, n_tau)
        assert res.c_in == float(ref.max())
        assert res.plan == per_window_stretch_plan(space, plan, 0.25, n_tau)
    assert 4 <= raised <= 12
    # A constant curve charges its point in time but not in length, so
    # the bridge gets past the line measures to the occupation.
    space = build_grid_space(3, 3, [1, 1, 1, 1, 0, 1, 1, 1, 1])
    plan = CurvePlan((constant_curve(4), ParametricCurve((0, 1), (0.0, 1.0))), (0.5, 0.5))
    ref = (NoBarycenterError, "plan puts mass 0.5 on zero-mass point 4")
    assert outcome(per_curve_barycenter, space, plan) == ref
    assert outcome(parametric_barycenter, space, plan) == ref
    assert per_curve_c_q(space, plan, q) > 0
    assert outcome(bridge_inequality, space, plan, q) == ref


def test_barycenters_match_per_curve_references_on_a_large_plan():
    # One reduction over the segments of thousands of curves: each point
    # must still add the curves in plan order, as the per-curve loop does.
    rng = np.random.default_rng(1850)
    space = build_grid_space(8, 8, rng.uniform(0.1, 1.0, 64))
    plan = revisiting_plan(space, rng, 2000)
    assert len(plan.curves) > 2000
    assert _same(parametric_barycenter(space, plan), per_curve_barycenter(space, plan))
    assert bridge_inequality(space, plan, 3.0).c_q == per_curve_c_q(space, plan, 3.0)


def test_upper_gradient_integrals_match_per_curve_loop():
    rng = np.random.default_rng(1900)
    space = build_grid_space(4, 4, rng.uniform(0.1, 1.0, 16))
    f = rng.uniform(0.0, 1.0, 16)
    g = rng.uniform(0.0, 2.0, 16)
    g[3] = math.inf
    curves = revisiting_plan(space, rng, 5).curves + messy_plan(space, rng, 6).curves
    rep = check_upper_gradient(space, f, g, curves, tol=0.0)
    resid = []
    for c in curves:
        total = 0.0
        for u, v in zip(c.nodes, c.nodes[1:]):
            if u != v:
                total += space.edge_length(u, v) * 0.5 * (g[u] + g[v])
        resid.append(abs(float(f[c.nodes[-1]]) - float(f[c.nodes[0]])) - float(total))
    assert rep.worst_residual == max(resid)
    assert rep.violating == tuple(i for i, r in enumerate(resid) if r > 0.0)
    empty = check_upper_gradient(space, f, g, [])
    assert (empty.n_curves, empty.violating, empty.worst_residual) == (0, (), -math.inf)


# The screen of ``_marginal_sup``: its result must equal that of the
# exact kernel run on every time.


def exhaustive(fn, *args):
    """fn(*args) with the screen keeping every time."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plans, "_screen", lambda space, table, weights, times, *_: np.arange(len(times)))
        return fn(*args)


def screen_calls(fn, *args):
    """Per ``_marginal_sup`` call that fn(*args) makes: its arguments and the
    indices its screen keeps."""
    calls, real_sup, real_screen = [], plans._marginal_sup, plans._screen
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plans, "_marginal_sup", lambda *a: calls.append([a]) or real_sup(*a))
        mp.setattr(plans, "_screen", lambda *a: calls[-1].append(real_screen(*a)) or calls[-1][-1])
        fn(*args)
    return calls


def assert_screen_is_exact(fn, *args):
    calls = screen_calls(fn, *args)
    assert calls
    for a, _ in calls:
        assert plans._marginal_sup(*a) == exhaustive(plans._marginal_sup, *a)
    return calls


def attaining_times(call):
    """Indices of all the times at which the exhaustive kernel attains the
    supremum of ``_marginal_sup(*call)``: each is the first attainment among
    the times after the one before, as a cell's sum does not depend on the
    other times of its call."""
    space, table, weights, times, *rest = call
    sup, found, start = exhaustive(plans._marginal_sup, *call)[0], [], 0
    while start < len(times):
        d, k, _ = exhaustive(plans._marginal_sup, space, table, weights, times[start:], *rest)
        if d != sup:
            break
        found.append(start + k)
        start += k + 1
    return np.array(found, dtype=np.int64)


def test_screened_marginal_sup_equals_exhaustive_kernel():
    shifted = infinite = 0
    for s in range(18):
        rng = np.random.default_rng(2200 + s)
        side = 3 + s % 3
        # Plateaus, revisits, shared breakpoints and zero-probability curves.
        plan = revisiting_plan(build_grid_space(side, side), rng, 1 + s % 4)
        weights = rng.uniform(0.1, 1.0, side * side)
        # A zero-mass point: one the plan visits, or any.
        if s % 3:
            nodes = plan.support()[0][1].nodes if s % 3 == 1 else range(side * side)
            weights[rng.choice(nodes)] = 0.0
        space = build_grid_space(side, side, weights)
        extra = rng.uniform(-0.2, 1.2, 5 + s) if s % 2 else ()
        calls = assert_screen_is_exact(marginal_check, space, plan, extra)
        infinite += math.isinf(plans._marginal_sup(*calls[0][0])[0])
        eps, n_tau = (0.1, 0.25, 0.4)[s % 3], (64, 128)[s % 2]
        try:
            calls = assert_screen_is_exact(stretch_average, space, plan, eps, n_tau)
        except NoBarycenterError:
            continue
        shifted += 1
        assert len(calls[0][0][4]) == n_tau  # the shifted call comes first
    assert shifted >= 10 and infinite >= 6


def test_screen_keeps_every_time_of_a_flat_marginal():
    # Constant curves make the marginal flat in time, and these masses tie
    # across points: every time is kept and the first (time, point) wins.
    space = build_grid_space(3, 3, [1, 2, 1, 2, 1, 2, 1, 2, 1])
    plan = CurvePlan((constant_curve(7), constant_curve(4), constant_curve(2)), (0.5, 0.25, 0.25))
    extra = np.random.default_rng(2300).uniform(0.0, 1.0, 40)
    (call, kept), = assert_screen_is_exact(marginal_check, space, plan, extra)
    assert np.array_equal(kept, np.arange(len(call[3])))
    rep = marginal_check(space, plan, extra)
    assert (rep.c_min, rep.worst_time, rep.worst_point) == (0.25, 0.0, 2)
    for call, kept in assert_screen_is_exact(stretch_average, space, plan, 0.25, 64):
        assert np.array_equal(kept, np.arange(len(call[3])))


def support_rows(space, plan):
    """The padded rows and the weights of the plan's support curves."""
    rows = _padded(_segment_table(space, plan.curves), np.array(plan.probabilities) > 0)
    return rows, [w for w, _ in plan.support()]


def test_screen_reads_each_points_entries(monkeypatch):
    # The screen sorts the pieces' entries by (point, grid index) and reads
    # each point's mass between two of its entries.  Here: 100 points; point
    # 0 occupied from grid index 0, so its entries open the sorted run; the
    # supremum on the light point 12 at t = 1, in an interval that ends past
    # the last grid time; and in shifted calls too.
    rng = np.random.default_rng(2400)
    weights = rng.uniform(0.1, 1.0, 100)
    weights[12] = 0.01
    space = build_grid_space(10, 10, weights)
    base = revisiting_plan(space, rng, 8)
    walk = ParametricCurve((0, 1, 2, 12), (0.0, 0.3, 0.6, 1.0))
    plan = CurvePlan((walk, *base.curves), (0.5, *(0.5 * w for w in base.probabilities)))
    extra = rng.uniform(0.0, 1.0, 30)
    (call, kept), = assert_screen_is_exact(marginal_check, space, plan, extra)
    _, k, x = plans._marginal_sup(*call)
    assert (k, x) == (len(call[3]) - 1, 12) and k in kept
    for call, kept in assert_screen_is_exact(stretch_average, space, plan, 0.25, 64):
        assert np.array_equal(kept, attaining_times(call))
    # A zero-mass point occupied only inside the grid: point 55 from t = 0.3
    # to t = 0.6, unshifted and shifted.  Every time it is occupied is kept.
    weights = weights.copy()
    weights[55] = 0.0
    space = build_grid_space(10, 10, weights)
    inside = ParametricCurve((44, 45, 55, 65, 66), (0.0, 0.3, 0.5, 0.6, 1.0))
    plan = CurvePlan((inside, *base.curves), plan.probabilities)
    eps, n_tau = 0.25, 64
    taus = (np.arange(n_tau) + 0.5) * eps / n_tau
    grid = np.linspace(0.0, 1.0, 81)
    for run, shifts, scale in (
        ((marginal_check, space, plan, extra), np.zeros(1), 1.0),
        ((lambda *a: plans._marginal_sup(*a), space, *support_rows(space, plan), grid, taus,
          1.0 + eps),
         taus, 1.0 + eps),
    ):
        (call, kept), = screen_calls(*run)
        exact = exhaustive(plans._marginal_sup, *call)
        assert plans._marginal_sup(*call) == exact and exact[::2] == (math.inf, 55)
        s = np.add.outer(call[3], shifts) / scale
        held = np.flatnonzero(((s >= 0.3) & (s < 0.6)).any(axis=1))
        assert 0 < held[0] and held[-1] < len(s) - 1 and np.isin(held, kept).all()
    # The kernel runs the kept times in blocks of _BLOCK: on a flat marginal
    # the screen keeps every time, more than a block.
    monkeypatch.setattr(plans, "_BLOCK", 7)
    space = build_grid_space(3, 3, [1, 2, 1, 2, 1, 2, 1, 2, 1])
    plan = CurvePlan((constant_curve(7), constant_curve(4), constant_curve(2)), (0.5, 0.25, 0.25))
    (call, kept), = assert_screen_is_exact(marginal_check, space, plan, extra)
    assert np.array_equal(kept, np.arange(len(call[3]))) and len(kept) > 4 * plans._BLOCK


def test_screen_keeps_just_the_times_that_attain_the_supremum():
    # A bound too loose still passes the exactness tests, but makes the
    # kernel recheck every time.  On random-walk plans built like the
    # benchmark's (4x4 and 8x8 grids, 2-4 curves), every screen call keeps
    # exactly the times at which the exhaustive kernel attains the supremum.
    counts = []
    for s in range(8):
        side = (4, 8)[s % 2]
        rng = np.random.default_rng([2450, s])
        space = build_grid_space(side, side)
        plan = walk_plan(space, rng, 2 + s % 3, {4: 5, 8: 10}[side])
        for run in ((marginal_check, space, plan), (stretch_average, space, plan, 0.25, 64)):
            for call, kept in screen_calls(*run):
                assert np.array_equal(kept, attaining_times(call))
                counts.append(len(kept))
    assert len(counts) == 24 and min(counts) >= 1


def test_screen_follows_the_kernels_rounding_of_shifted_times():
    # The grid time t = (1 + eps) T - tau of breakpoint T can give back
    # s = (t + tau) / (1 + eps) just below T; the kernel then puts a tiny
    # mass on the node before T.  Find such a T for the smallest tau, so no
    # other term reaches that node then.
    eps, n_tau = 0.25, 64
    taus = (np.arange(n_tau) + 0.5) * eps / n_tau
    rng = np.random.default_rng(2500)
    while True:
        T = float(rng.uniform(0.2, 0.8))
        t = float(((1.0 + eps) * np.array([T]) - taus)[0])
        s = (t + taus[0]) / (1.0 + eps)
        walk = ParametricCurve((0, 1, 2), (0.0, T, 1.0))
        if s < T and dict(occupation_at(chain_space(5), walk, s)).get(0, 0.0) > 0.0:
            break
    # A falling density on point 3 holds the supremum at t = 0.
    slide = ParametricCurve((3, 4), (0.0, 1.0))
    plan = CurvePlan((walk, slide), (0.5, 0.5))
    kept, edges = {}, [(i, i + 1, 1.0) for i in range(4)]
    for m0 in (1.0, 0.0):
        space = MetricMeasureSpace(5, edges, [m0, 1.0, 1.0, 0.05, 1.0])
        grid = np.array([0.0, t, 1.0])
        (call, kept[m0]), = screen_calls(
            lambda *a: plans._marginal_sup(*a), space, *support_rows(space, plan), grid, taus,
            1.0 + eps,
        )
        exact = exhaustive(plans._marginal_sup, *call)
        assert plans._marginal_sup(*call) == exact
        assert exact[1] in kept[m0]
    assert 1 not in kept[1.0]  # t, far below the supremum
    assert 1 in kept[0.0]  # the tiny mass on the zero-mass point 0 counts


def ulp_apart_curve(t_hex):
    """A 4-point chain curve with two breakpoints one ulp apart at t."""
    t = float.fromhex(t_hex)
    return ParametricCurve((0, 1, 2, 3), (0.0, t, math.nextafter(t, 1.0), 1.0))


def assert_valid_curves(curves):
    for c in curves:
        assert all(b > a for a, b in zip(c.times, c.times[1:]))
        assert ParametricCurve(c.nodes, c.times) == c  # the checked constructor agrees


def test_stretch_of_breakpoints_an_ulp_apart_keeps_times_increasing():
    # Two source times that map to one window time after rounding made
    # the piece's times collide, and stretch_average raised
    # "curve times must be strictly increasing" on a valid plan.
    space = build_grid_space(4, 1)
    c = ulp_apart_curve("0x1.a4b11fbee8d2ep-1")
    eps, n_tau = 0.40160970597833545, 3
    res = stretch_average(space, CurvePlan((c,), (1.0,)), eps, n_tau)
    assert res.marginal_ok
    assert_valid_curves(res.plan.curves)
    taus = (np.arange(n_tau) + 0.5) * eps / n_tau
    collided = 0
    for a, b in zip((taus / (1 + eps)).tolist(), ((1 + taus) / (1 + eps)).tolist()):
        inner = [(t - a) / (b - a) for t in c.times if a < t < b]
        collided += len(set(inner)) < len(inner)
        piece = stretch(space, c, a, b)
        assert_valid_curves([piece])
        # Repaired times move by at most an ulp each.
        assert all(abs(x - y) <= math.ulp(y) for x, y in zip(piece.times[1:-1], inner))
    assert collided


def test_stretch_window_time_rounding_to_one_is_lowered_below_it():
    # A breakpoint one ulp below a window's end maps to 1.0 after
    # rounding: the backward pass from 1.0 moves it below.
    space = build_grid_space(4, 1)
    t = float.fromhex("0x1.d9e2c4907970ap-1")
    c = ParametricCurve((0, 1, 2, 3), (0.0, 0.1, t, 1.0))
    eps = float.fromhex("0x1.b234a6727ef13p-2")
    res = stretch_average(space, CurvePlan((c,), (1.0,)), eps, 2)
    assert_valid_curves(res.plan.curves)
    assert (0.0, math.nextafter(1.0, 0.0), 1.0) in [p.times for p in res.plan.curves]


def test_improve_barycenter_of_colliding_partial_sums_keeps_times_increasing():
    space = build_grid_space(4, 1)
    plan = CurvePlan((ulp_apart_curve("0x1.63d844b93b950p-4"),), (1.0,))
    res = improve_barycenter(space, plan, 2.0, 0.1)
    assert_valid_curves(res.plan.curves)
    assert res.barycenter_ok


@pytest.mark.parametrize(
    "times, expected",
    [
        ((0.0, 0.5, 0.5, 0.5, 1.0), (0.0, 0.5, 0.5000000000000001, 0.5000000000000002, 1.0)),
        ((0.0, 1.0, 1.0), (0.0, 0.9999999999999999, 1.0)),
        ((0.0, 0.25, 1.0, 1.0), (0.0, 0.25, 0.9999999999999999, 1.0)),
        ((0.0, 1.0000000000000002, 1.0), (0.0, 0.9999999999999999, 1.0)),
        ((0.0, 0.0, 0.75, 1.0), (0.0, 5e-324, 0.75, 1.0)),
        ((0.0, 0.25, 0.75, 1.0), (0.0, 0.25, 0.75, 1.0)),
    ],
)
def test_derived_curves_move_colliding_times_apart_by_ulps(times, expected):
    from modcap.curves import _derived

    # The times of one curve laid out between two that need no repair:
    # one curve's 1.0 next to the next one's 0.0 is no collision.
    flat = np.array([0.0, 0.5, 1.0, *times, 0.0, 1.0])
    _derived(np.array([0, 3, 3 + len(times), len(flat)]), flat)
    assert tuple(flat.tolist()) == (0.0, 0.5, 1.0, *expected, 0.0, 1.0)


def test_stretch_and_improve_build_no_checked_curves(monkeypatch):
    space = build_grid_space(4, 4)
    plan = walk_plan(space, np.random.default_rng(2400), 3)
    calls = []
    real = ParametricCurve.__post_init__
    monkeypatch.setattr(ParametricCurve, "__post_init__", lambda c: calls.append(1) or real(c))
    res = stretch_average(space, plan, 0.25, n_tau=16)
    improve_barycenter(space, res.plan, 2.0, 0.1)
    assert calls == []
    assert_valid_curves(res.plan.curves)


def count_tables(monkeypatch):
    """A list that gets one entry per segment table built by plans or gradients."""
    import modcap.gradients

    builds = []
    real = plans._segment_table
    for module in (modcap.gradients, plans):
        monkeypatch.setattr(module, "_segment_table", lambda *a: builds.append(1) or real(*a))
    return builds


def test_a_plan_op_builds_one_segment_table(monkeypatch):
    # stretch_average validates and tables its input only: the stretched
    # and the improved plans are born with tables built from their flat
    # arrays, which the w1p check, the improvement and the bridge read.
    space = build_grid_space(4, 4)
    rng = np.random.default_rng(2500)
    plan = walk_plan(space, rng, 3)
    f, g = rng.uniform(0.0, 1.0, 16), np.full(16, 10.0)
    builds = count_tables(monkeypatch)
    res = stretch_average(space, plan, 0.25, n_tau=16)
    assert len(builds) == 1
    w1p = check_w1p_pair(space, f, g, [res.plan])
    imp = improve_barycenter(space, res.plan, 2.0, 0.1)
    assert len(builds) == 1
    bridge = bridge_inequality(space, imp.plan, 2.0)
    assert len(builds) == 1
    # The same numbers from caller-built copies, which are tabled every call.
    stretched = CurvePlan(res.plan.curves, res.plan.probabilities)
    improved = CurvePlan(imp.plan.curves, imp.plan.probabilities)
    assert check_w1p_pair(space, f, g, [stretched]) == w1p
    assert w1p.per_plan[0].c_min == res.output_c_min
    again = improve_barycenter(space, stretched, 2.0, 0.1)
    assert again.plan == imp.plan and again.new_barycenter.tobytes() == imp.new_barycenter.tobytes()
    assert bridge_inequality(space, improved, 2.0) == bridge
    assert len(builds) == 1 + 1 + 1 + 1


def test_caller_built_plans_are_tabled_on_every_call(monkeypatch):
    import modcap

    space = build_grid_space(4, 4)
    rng = np.random.default_rng(2600)
    plan = walk_plan(space, rng, 3)
    f, g = rng.uniform(0.0, 1.0, 16), np.full(16, 10.0)
    builds, flats = count_tables(monkeypatch), []
    real = modcap.curves._flat  # each call lays the plan's curves out flat once
    for module in (modcap.curves, modcap.gradients, plans):
        monkeypatch.setattr(module, "_flat", lambda *a: flats.append(1) or real(*a), raising=False)
    for k in range(1, 3):
        check_w1p_pair(space, f, g, [plan])
        assert len(flats) == 3 * k - 2
        marginal_check(space, plan)
        assert len(flats) == 3 * k - 1
        bridge_inequality(space, plan, 2.0)
        assert len(flats) == len(builds) == 3 * k
    res = stretch_average(space, plan, 0.25, n_tau=8)
    assert len(flats) == 7 and len(builds) == 7
    assert plan._born is None and res.plan._born is not None


def test_carried_table_is_read_only_and_bound_to_its_space():
    space = build_grid_space(4, 4)
    rng = np.random.default_rng(2700)
    res = stretch_average(space, walk_plan(space, rng, 3), 0.25, n_tau=8)
    born_space, table, report, _ = res.plan._born
    assert born_space is space and report.c_min == res.output_c_min
    assert marginal_check(space, res.plan) is report  # read, not computed
    assert marginal_check(space, res.plan, [0.5]) == report
    assert not any(a.flags.writeable for a in table)
    assert plans._plan_table(space, res.plan) is table
    # An equal space is another object: the plan is tabled again.
    twin = build_grid_space(4, 4)
    assert plans._plan_table(twin, res.plan) is not table
    # A space the curves leave still rejects them.
    small = build_grid_space(2, 2)
    f, g = np.zeros(4), np.ones(4)
    with pytest.raises(InvalidInstanceError, match="not a point of the space"):
        check_w1p_pair(small, f, g, [res.plan])
    with pytest.raises(InvalidInstanceError, match="not a point of the space"):
        marginal_check(small, res.plan)


def test_replaced_plan_carries_no_stale_report():
    import dataclasses

    space = build_grid_space(4, 4)
    rng = np.random.default_rng(2800)
    res = stretch_average(space, walk_plan(space, rng, 3), 0.25, n_tau=8)
    w = rng.uniform(0.2, 1.0, len(res.plan.curves))
    probs = tuple((w / w.sum()).tolist())
    moved = dataclasses.replace(res.plan, probabilities=probs)
    assert moved._born is None
    fresh = marginal_check(space, CurvePlan(res.plan.curves, probs))
    rep = check_w1p_pair(space, np.zeros(16), np.zeros(16), [moved])
    assert rep.per_plan[0].c_min == fresh.c_min != res.output_c_min


def test_born_plans_compare_hash_print_and_pickle_as_caller_built_ones():
    import pickle

    space = build_grid_space(4, 4)
    rng = np.random.default_rng(2900)
    res = stretch_average(space, walk_plan(space, rng, 3), 0.25, n_tau=8)
    imp = improve_barycenter(space, res.plan, 2.0, 0.1)
    for born in (res.plan, imp.plan):
        plain = CurvePlan(born.curves, born.probabilities)
        assert born._born is not None
        assert born == plain and hash(born) == hash(plain)
        assert repr(born) == repr(plain) and "_born" not in repr(born)
        assert pickle.dumps(born) == pickle.dumps(plain)
        back = pickle.loads(pickle.dumps(born))
        assert back == born and back._born is None


# Plans the library builds come from flat arrays: their carried tables
# and report must be those a caller-built copy gets.


def array_path_plans():
    """(space, plan, eps, n_tau): seeded walk plans and messy draws (constant
    curves, plateaus, revisits, curves of probability 0) on 4x4 and 8x8
    grids, then the ulp-collision repros and a curve of subnormal weight,
    whose windows get probability 0."""
    for s in range(16):
        side = (4, 8)[s % 2]
        rng = np.random.default_rng([3000, s])
        space = build_grid_space(side, side, rng.uniform(0.1, 1.0, side * side))
        draw = (walk_plan, messy_plan, revisiting_plan)[s % 3]
        yield space, draw(space, rng, 1 + s % 4), 0.25, (64, 128)[s // 2 % 2]
    space = build_grid_space(4, 1)
    plan = CurvePlan((ulp_apart_curve("0x1.a4b11fbee8d2ep-1"),), (1.0,))
    yield space, plan, 0.40160970597833545, 3
    c = ParametricCurve((0, 1, 2, 3), (0.0, 0.1, float.fromhex("0x1.d9e2c4907970ap-1"), 1.0))
    yield space, CurvePlan((c,), (1.0,)), float.fromhex("0x1.b234a6727ef13p-2"), 2
    plan = CurvePlan((ulp_apart_curve("0x1.63d844b93b950p-4"),), (1.0,))
    yield space, plan, 0.25, 8
    plan = CurvePlan((c, ParametricCurve((3, 2), (0.0, 1.0))), (5e-324, 1.0))
    yield space, plan, 0.25, 8


def assert_same_table(table, expected):
    assert len(table) == len(expected) == 7
    for a, b in zip(table, expected):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert not a.flags.writeable


def naive_rows(curves, width):
    """Padded rows built from the curves' own tuples: times then 2.0 and +inf,
    nodes then the last node repeated."""
    pad = lambda c: width - len(c.nodes)
    times = [[*c.times, 2.0, *[math.inf] * (pad(c) - 1)] for c in curves]
    nodes = [[*c.nodes, *[c.nodes[-1]] * pad(c)] for c in curves]
    return np.array(times, dtype=float), np.array(nodes, dtype=np.int64)


def test_padded_rows_are_cut_from_the_segment_table():
    # The cases of array_path_plans, their stretched plans, and steps of
    # subnormal duration.
    cases = []
    for space, plan, eps, n_tau in array_path_plans():
        cases += [(space, plan), (space, stretch_average(space, plan, eps, n_tau).plan)]
    for dt in (1e-310, 5e-324):
        tiny = ParametricCurve((0, 1, 2), (0.0, dt, 1.0))
        cases.append((build_grid_space(3, 1), CurvePlan((tiny, constant_curve(2)), (0.5, 0.5))))
    for space, p in cases:
        probs = np.array(p.probabilities)
        for keep in (None, probs > 0, probs == probs.max()):
            kept = [c for i, c in enumerate(p.curves) if keep is None or keep[i]]
            width = max(len(c.nodes) for c in kept) + 1
            for t in (_segment_table(space, p.curves), *(p._born or ())[1:2]):  # and the carried one
                for a, b in zip(_padded(t, keep), naive_rows(kept, width)):
                    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def test_library_built_plans_carry_the_tables_of_caller_built_copies():
    zero_windows = 0
    for space, plan, eps, n_tau in array_path_plans():
        res = stretch_average(space, plan, eps, n_tau)
        zero_windows += 0.0 in res.plan.probabilities
        improved = (improve_barycenter(space, p, 2.0, 0.1).plan for p in (res.plan, plan))
        for built in (res.plan, *improved):
            assert_valid_curves(built.curves)
            assert_same_table(built._born[1], _segment_table(space, built.curves))
        copy = CurvePlan(res.plan.curves, res.plan.probabilities)
        rep, born = marginal_check(space, copy), res.plan._born[2]
        assert (born.c_min, born.worst_time, born.worst_point) == (
            rep.c_min, rep.worst_time, rep.worst_point
        )
        assert res.output_c_min == born.c_min
    assert zero_windows == 1


def test_improved_plans_carry_their_energy_and_barycenter_to_the_bridge(monkeypatch):
    # The plan improve_barycenter builds carries its q-energy and occupation
    # barycenter: the bridge at that q reads them, so a stretch -> improve ->
    # bridge pipeline runs _energies once, and its report is, bit for bit,
    # the report of an unborn copy.  At another q the bridge computes them.
    energies, runs = plans._energies, []

    def counted(t, q):
        runs.append(q)
        return energies(t, q)

    def bits(rep):
        return np.array([rep.c_q, rep.energy, rep.h_sup, rep.rhs]).tobytes(), rep.ok

    monkeypatch.setattr(plans, "_energies", counted)
    for space, plan, eps, n_tau in array_path_plans():
        runs.clear()
        imp = improve_barycenter(space, stretch_average(space, plan, eps, n_tau).plan, 2.0, 0.1)
        rep = bridge_inequality(space, imp.plan, 2.0)
        assert runs == [2.0]
        assert (rep.energy, rep.h_sup) == (imp.energy_new, imp.new_barycenter_sup)
        copy = CurvePlan(imp.plan.curves, imp.plan.probabilities)
        assert bits(rep) == bits(bridge_inequality(space, copy, 2.0))
        imp.new_barycenter[:] = 0.0  # the returned array is the caller's
        assert bits(bridge_inequality(space, imp.plan, 2.0)) == bits(rep)
        runs.clear()
        other = bridge_inequality(space, imp.plan, 3.0)
        assert runs == [3.0] and bits(other) == bits(bridge_inequality(space, copy, 3.0))


def test_stretch_windows_at_the_ends_and_on_breakpoints_match_the_scalar_cut():
    import itertools

    rng = np.random.default_rng(3100)
    for side in (4, 8):
        space = build_grid_space(side, side)
        for _ in range(8):
            for c in messy_plan(space, rng, 3).curves:
                cuts = sorted({0.0, 1.0, *c.times, *rng.uniform(0.0, 1.0, 3).tolist()})
                for a, b in itertools.combinations(cuts, 2):
                    piece = stretch(space, c, a, b)
                    assert piece == scalar_stretch(space, c, a, b)
                    assert all(type(x) is int for x in piece.nodes)
                    assert all(type(t) is float for t in piece.times)


def test_subnormal_point_mass_gives_infinite_densities_without_warnings():
    import warnings

    # Point 1 has a subnormal mass: a density there overflows to inf.
    space = build_grid_space(2, 2, [1, 1e-320, 1, 1])
    plan = CurvePlan((ParametricCurve((0, 1), (0.0, 1.0)),), (1.0,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings included
        g = parametric_barycenter(space, plan)
        assert g[1] == math.inf and g[0] == 0.5
        rep = marginal_check(space, plan)
        assert (rep.is_test_plan, rep.c_min, rep.worst_point) == (False, math.inf, 1)
        res = stretch_average(space, plan, 0.25, 8)
        assert res.exact_sup == res.correction == res.output_c_min == math.inf
        assert bridge_inequality(space, plan, 2.0).c_q == math.inf
        # The improvement would stop the curve at point 1 for good (h = 0
        # there) and divide 0 by 0: it reports the missing barycenter.
        with pytest.raises(NoBarycenterError, match="infinite at point 1 "):
            improve_barycenter(space, plan, 2.0, 0.1)


def test_subnormal_segment_duration_keeps_the_marginal_constant():
    import warnings

    # A step this short has a slope past the float range: the screen's
    # running sums turned nan and kept no time, so C_min read 0.0.
    space = build_grid_space(3, 1)
    for dt, speed in ((1e-308, 5e307), (1e-310, math.inf), (5e-324, math.inf)):
        plan = CurvePlan((ParametricCurve((0, 1, 2), (0.0, dt, 1.0)),), (1.0,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warnings included
            rep = marginal_check(space, plan)
            assert (rep.c_min, rep.worst_time, rep.worst_point) == (3.0, 0.0, 0)
            assert scalar_testplan(space, plan) == (3.0, 0.0, 0)
            assert plan_lipschitz(space, plan) == speed
            assert improve_barycenter(space, plan, 2.0, 0.1).lipschitz == speed
