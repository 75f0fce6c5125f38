"""Content solver, plan barycenters, and duality certificates."""

import math

import numpy as np
import pytest

from modcap.curves import ParametricCurve
from modcap.duality import (
    MeasurePlan,
    build_measure_plan,
    check_duality,
    check_optimality_conditions,
    content_from_multipliers,
    content_of_curve_family,
    plan_barycenter,
    solve_content,
)
from modcap.errors import NoBarycenterError, SolverError
from modcap.instance import generate_random_instance
from modcap.modulus import solve_modulus_explicit, solve_modulus_primal
from modcap.space import DiscreteMeasure, MetricMeasureSpace


def interval_space(n=10):
    return MetricMeasureSpace(
        n, [(i, i + 1, 1.0 / n) for i in range(n - 1)], np.full(n, 1.0 / n)
    )


def restriction(space, points):
    return DiscreteMeasure(tuple((i, float(space.measure[i])) for i in points))


def test_measure_plan_validation():
    mu = DiscreteMeasure(((0, 1.0),))
    with pytest.raises(ValueError, match="one probability per"):
        MeasurePlan((mu,), (0.5, 0.5), 2.0)
    with pytest.raises(ValueError, match="nonempty"):
        MeasurePlan((), (), 2.0)
    with pytest.raises(ValueError, match="nonnegative"):
        MeasurePlan((mu, mu), (1.5, -0.5), 2.0)
    with pytest.raises(ValueError, match="finite"):
        MeasurePlan((mu,), (math.nan,), 2.0)
    with pytest.raises(ValueError, match="sum to"):
        MeasurePlan((mu, mu), (0.5, 0.4), 2.0)
    with pytest.raises(ValueError, match="q > 1"):
        MeasurePlan((mu,), (1.0,), 1.0)


def test_plan_barycenter_by_hand():
    space = MetricMeasureSpace(3, [(0, 1, 1.0), (1, 2, 1.0)], [0.5, 0.25, 0.25])
    mu0 = DiscreteMeasure(((0, 1.0),))
    mu1 = DiscreteMeasure(((1, 1.0), (2, 1.0)))
    plan = build_measure_plan(space, [mu0, mu1], [0.5, 0.5], 2.0)
    # g = (0.5 mu0 + 0.5 mu1) / m pointwise.
    assert np.allclose(plan.barycenter_density, [1.0, 2.0, 2.0])
    expected = math.sqrt(0.5 * 1.0 + 0.25 * 4.0 + 0.25 * 4.0)
    assert plan.c_q == pytest.approx(expected, rel=1e-12)
    g = plan_barycenter(space, [mu0, mu1], [0.5, 0.5])
    assert np.array_equal(g, plan.barycenter_density)
    with pytest.raises(ValueError, match="one probability per"):
        plan_barycenter(space, [mu0, mu1], [1.0])


def test_plan_barycenter_names_zero_mass_point():
    space = MetricMeasureSpace(3, [(0, 1, 1.0), (1, 2, 1.0)], [1.0, 0.0, 1.0])
    with pytest.raises(NoBarycenterError, match="point 1"):
        plan_barycenter(space, [DiscreteMeasure(((1, 2.0),))], [1.0])


def test_content_of_singleton_family():
    # With one measure the only plan is the delta, so the content is
    # 1 / ||mu/m||_q exactly.
    space = interval_space(6)
    mu = restriction(space, range(3))
    for q in (1.5, 2.0, 3.0):
        sol = solve_content(space, [mu], q)
        plan = build_measure_plan(space, [mu], [1.0], q)
        assert sol.value == pytest.approx(1.0 / plan.c_q, rel=1e-12)
        assert sol.weights.tolist() == [1.0]


def test_content_with_zero_measure_is_infinite():
    space = interval_space(4)
    sol = solve_content(space, [restriction(space, range(2)), DiscreteMeasure.zero()], 2.0)
    assert math.isinf(sol.value)
    assert sol.plan.probabilities == (0.0, 1.0)


def test_content_excludes_null_supported_measures():
    space = MetricMeasureSpace(3, [(0, 1, 1.0), (1, 2, 1.0)], [1.0, 1.0, 0.0])
    ghost = DiscreteMeasure(((2, 1.0),))
    real = DiscreteMeasure(((0, 2.0),))
    sol = solve_content(space, [ghost, real], 2.0)
    assert sol.excluded == (0,)
    assert sol.plan.probabilities == (0.0, 1.0)
    assert sol.value == pytest.approx(0.5, rel=1e-12)

    only_ghost = solve_content(space, [ghost], 2.0)
    assert only_ghost.value == 0.0
    assert only_ghost.no_admissible_plan
    assert only_ghost.plan is None


def test_content_exponent_validation():
    space = interval_space(3)
    mu = restriction(space, range(2))
    for q in (1.0, 0.5, math.inf):
        with pytest.raises(ValueError, match="q > 1"):
            solve_content(space, [mu], q)


def test_duality_identity_on_random_instances():
    # Content equals Mod^(1/p) with q the conjugate exponent, and the
    # optimal plan charges only measures that f integrates to one.
    for seed in range(10):
        inst = generate_random_instance(
            seed=seed, n_points=6 + seed % 5, n_measures=3 + seed % 4
        )
        measures = inst.families["random"].measures
        p = (1.5, 2.0, 3.0)[seed % 3]
        primal = solve_modulus_explicit(inst.space, measures, p, gap_tol=1e-10)
        dual = solve_content(inst.space, measures, p / (p - 1.0))
        cert = check_duality(inst.space, primal, dual, p)
        assert cert.ok, cert
        assert cert.rel_gap <= 1e-6
        assert cert.weak_ok
        opt = check_optimality_conditions(inst.space, primal, dual, p)
        assert opt.ok, opt


def test_duality_certificate_for_infinite_pair():
    space = interval_space(4)
    fam = [restriction(space, range(2)), DiscreteMeasure.zero()]
    primal = solve_modulus_explicit(space, fam, 2.0)
    dual = solve_content(space, fam, 2.0)
    cert = check_duality(space, primal, dual, 2.0)
    assert cert.ok
    assert math.isinf(cert.modulus) and math.isinf(cert.content)
    # No density is admissible, so the optimality audit has nothing to flag.
    opt = check_optimality_conditions(space, primal, dual, 2.0)
    assert opt.ok and opt.violated == ()
    assert math.isinf(opt.converse_value)


def test_content_from_multipliers_matches_content_solve():
    # One modulus solve carries the content: its read-off is the plan and
    # value of solve_content, bit for bit.
    for seed in (0, 1, 2, 3):
        inst = generate_random_instance(seed=seed, n_points=7, n_measures=4)
        measures = inst.families["random"].measures
        primal = solve_modulus_explicit(inst.space, measures, 2.0, gap_tol=1e-11)
        read = content_from_multipliers(inst.space, measures, primal, 2.0)
        assert math.fsum(read.plan.probabilities) == pytest.approx(1.0, abs=1e-12)
        dual = solve_content(inst.space, measures, 2.0, tol=1e-11)
        assert read.plan.probabilities == dual.plan.probabilities
        assert read.value == dual.value

    space = MetricMeasureSpace(3, [(0, 1, 1.0), (1, 2, 1.0)], [1.0, 1.0, 0.0])
    ghost = DiscreteMeasure(((2, 1.0),))
    zero = content_from_multipliers(
        space, [ghost], solve_modulus_explicit(space, [ghost], 2.0), 2.0
    )
    assert zero.value == 0.0 and zero.plan is None and zero.no_admissible_plan
    assert zero.excluded == (0,)

    fam = [DiscreteMeasure(((0, 1.0),)), DiscreteMeasure.zero()]
    inf = content_from_multipliers(space, fam, solve_modulus_explicit(space, fam, 2.0), 2.0)
    assert math.isinf(inf.value)
    assert inf.plan.probabilities == (0.0, 1.0)


def test_content_from_multipliers_needs_multipliers():
    # The primal oracle's solutions carry no multipliers to read a plan off.
    inst = generate_random_instance(seed=0, n_points=7, n_measures=4)
    measures = inst.families["random"].measures
    primal = solve_modulus_primal(inst.space, measures, 2.0)
    with pytest.raises(ValueError, match="multipliers"):
        content_from_multipliers(inst.space, measures, primal, 2.0)


def test_optimality_converse_flags_cheaper_admissible_density():
    # Feed an alternative density that still integrates to 1 against the
    # charged measures; its energy must not beat the modulus.
    inst = generate_random_instance(seed=4, n_points=8, n_measures=4)
    measures = inst.families["random"].measures
    p = 2.0
    primal = solve_modulus_explicit(inst.space, measures, p, gap_tol=1e-11)
    dual = solve_content(inst.space, measures, 2.0)
    rep = check_optimality_conditions(inst.space, primal, dual, p, f_alt=primal.f)
    assert rep.converse_ok
    assert rep.converse_value == pytest.approx(primal.value, rel=1e-6)

    # A density that fails to integrate to one makes the converse vacuous.
    rep2 = check_optimality_conditions(
        inst.space, primal, dual, p, f_alt=np.zeros(inst.space.n_points)
    )
    assert rep2.converse_ok
    assert rep2.converse_value == 0.0


def test_content_scaling_of_measures():
    # Scaling every measure by c scales barycenters by c, hence the
    # content by 1/c, matching Mod(c mu) = Mod / c^p at the root.
    space = interval_space(8)
    fam = [restriction(space, range(4)), restriction(space, range(4, 8))]
    for c in (0.5, 3.0):
        scaled = [mu.scaled(c) for mu in fam]
        base = solve_content(space, fam, 2.0)
        after = solve_content(space, scaled, 2.0)
        assert after.value == pytest.approx(base.value / c, rel=1e-9)


def test_weak_duality_for_arbitrary_plans():
    # For any admissible density and any plan, <f, bar> >= 1 fails only
    # if f is infeasible; here f is optimal so every plan gives
    # 1 <= <f, bar> <= c_q ||f||_p.
    rng = np.random.default_rng(17)
    for trial in range(8):
        inst = generate_random_instance(seed=60 + trial, n_points=7, n_measures=4)
        measures = inst.families["random"].measures
        p = 2.0
        primal = solve_modulus_explicit(inst.space, measures, p, gap_tol=1e-10)
        if not (0 < primal.value < math.inf):
            continue
        w = rng.uniform(0.1, 1.0, len(measures))
        plan = build_measure_plan(inst.space, measures, w / w.sum(), 2.0)
        f = primal.f
        msk = inst.space.positive_mask
        m = inst.space.measure
        lhs = float(
            sum(
                wi * mu.integrate(f)
                for wi, mu in zip(plan.probabilities, plan.support)
            )
        )
        norm_p = float(np.dot(m[msk], f[msk] ** p)) ** (1.0 / p)
        assert lhs >= 1.0 - 1e-9
        assert lhs <= plan.c_q * norm_p + 1e-9


def test_content_of_curve_family_rejects_bad_curves():
    space = interval_space(4)
    with pytest.raises(ValueError, match="empty"):
        content_of_curve_family(space, [], 2.0)
    still = ParametricCurve((1, 1), (0.0, 1.0))
    with pytest.raises(ValueError, match="constant"):
        content_of_curve_family(space, [still], 2.0)


def test_content_of_curve_family_matches_measure_content():
    space = interval_space(5)
    curves = [
        ParametricCurve((0, 1, 2), (0.0, 0.5, 1.0)),
        ParametricCurve((2, 3, 4), (0.0, 0.5, 1.0)),
    ]
    sol, measures = content_of_curve_family(space, curves, 2.0)
    direct = solve_content(space, list(measures), 2.0)
    assert sol.value == pytest.approx(direct.value, rel=1e-10)
    assert len(measures) == 2


def test_content_read_off_certifies_former_dual_ascent_stall():
    # n=200, k=800, p=3 on instance seed 1 used to stall at a gap of 0.2.
    inst = generate_random_instance(1, n_points=200, n_measures=800)
    measures = inst.families["random"].measures
    p = 3.0
    primal = solve_modulus_explicit(inst.space, measures, p)
    assert primal.gap <= 1e-9
    dual = solve_content(inst.space, measures, p / (p - 1.0))
    assert check_duality(inst.space, primal, dual, p).ok
    assert check_optimality_conditions(inst.space, primal, dual, p).ok


def test_reported_bracket_holds_when_recomputed():
    # dual_value is content^p of the plan and value the energy of an
    # admissible density, so an independently solved content sits inside.
    for seed, p in ((5, 1.5), (6, 2.0), (7, 3.0)):
        inst = generate_random_instance(seed, n_points=12, n_measures=9)
        measures = inst.families["random"].measures
        sol = solve_modulus_explicit(inst.space, measures, p, gap_tol=1e-12)
        content = solve_content(inst.space, measures, p / (p - 1.0)).value
        assert sol.dual_value <= sol.value
        assert sol.gap >= (sol.value - sol.dual_value) / sol.value
        assert min(mu.integrate(sol.f) for mu in measures) >= 1.0 - 1e-12
        assert (sol.value - content**p) / sol.value <= sol.gap + 1e-15


def test_solvers_raise_instead_of_returning_unconverged():
    # A duplicated measure and a dominated one: one step from the uniform
    # plan is far from optimal, so both solvers must refuse to answer.
    space = interval_space(6)
    fam = [
        restriction(space, range(3)),
        restriction(space, range(3)),
        restriction(space, range(6)),
        restriction(space, range(3, 6)),
        restriction(space, range(2, 5)),
    ]
    with pytest.raises(SolverError, match="after 1 iterations"):
        solve_modulus_explicit(space, fam, 3.0, max_iter=1)
    with pytest.raises(SolverError, match="after 1 iterations"):
        solve_content(space, fam, 1.5, max_iter=1)
    sol = solve_modulus_explicit(space, fam, 3.0)
    assert solve_content(space, fam, 1.5).value ** 3 == pytest.approx(sol.value, rel=1e-9)
