"""Modulus solvers: explicit families, path families, cross-validation."""

import math

import numpy as np
import pytest

from modcap.duality import solve_content
from modcap.errors import InvalidInstanceError, SolverError
from modcap.families import path_line_measure
from modcap.instance import generate_random_instance
from modcap.modulus import (
    brute_force_lattice,
    mod_properties_check,
    saturated_subfamily,
    shortest_weighted_path,
    solve_modulus_explicit,
    solve_modulus_paths,
    solve_modulus_primal,
)
from modcap.space import DiscreteMeasure, MetricMeasureSpace


def interval_space(n=10):
    return MetricMeasureSpace(
        n, [(i, i + 1, 1.0 / n) for i in range(n - 1)], np.full(n, 1.0 / n)
    )


def restriction(space, points):
    return DiscreteMeasure(tuple((i, float(space.measure[i])) for i in points))


def test_single_atom_family_in_closed_form():
    # One measure a * delta_x forces f(x) = 1/a, so the modulus is
    # m_x / a^p exactly.
    space = MetricMeasureSpace(2, [(0, 1, 1.0)], [0.3, 0.7])
    for a, p in ((0.5, 2.0), (2.0, 1.5), (0.25, 3.0)):
        sol = solve_modulus_explicit(space, [DiscreteMeasure(((1, a),))], p)
        assert sol.value == pytest.approx(0.7 / a**p, rel=1e-12)
        assert sol.f[1] == pytest.approx(1.0 / a, rel=1e-12)


def test_empty_family_has_zero_modulus():
    space = interval_space(4)
    sol = solve_modulus_explicit(space, [], 2.0)
    assert sol.value == 0.0
    assert sol.empty_family
    assert np.all(sol.f == 0.0)


def test_zero_measure_forces_infinite_modulus():
    space = interval_space(4)
    sol = solve_modulus_explicit(
        space, [restriction(space, range(2)), DiscreteMeasure.zero()], 2.0
    )
    assert math.isinf(sol.value)
    assert sol.f is None


@pytest.mark.parametrize("point", [4, 9, -1])
def test_measure_outside_the_space_is_rejected(point):
    space = interval_space(4)
    if point < 0:
        # a negative id never becomes a measure the solvers could see
        with pytest.raises(InvalidInstanceError, match=f"negative point id {point}"):
            DiscreteMeasure(((point, 1.0),))
        return
    family = [restriction(space, range(2)), DiscreteMeasure(((point, 1.0),))]
    for solve in (
        solve_modulus_explicit, solve_content, solve_modulus_primal, brute_force_lattice
    ):
        with pytest.raises(ValueError, match=f"measure 1 charges point {point} "):
            solve(space, family, 2.0)


def test_null_supported_measures_are_dropped():
    space = MetricMeasureSpace(3, [(0, 1, 1.0), (1, 2, 1.0)], [1.0, 1.0, 0.0])
    ghost = DiscreteMeasure(((2, 5.0),))
    real = DiscreteMeasure(((0, 1.0),))
    for solve in (solve_modulus_explicit, solve_modulus_primal):
        sol = solve(space, [real, ghost], 2.0)
        assert sol.dropped == (1,)
        assert sol.value == pytest.approx(1.0)
    lower, upper = brute_force_lattice(space, [real, ghost], 2.0)
    assert lower <= 1.0 <= upper


def test_interval_two_halves_instance():
    space = interval_space(10)
    measures = [
        restriction(space, range(5)),
        restriction(space, range(5, 10)),
        restriction(space, range(10)),
    ]
    for p in (1.5, 2.0, 3.0):
        sol = solve_modulus_explicit(space, measures, p, gap_tol=1e-12)
        assert sol.value == pytest.approx(2.0**p, rel=1e-10)
        assert np.abs(sol.f - 2.0).max() < 1e-8
        sat = saturated_subfamily(sol, measures)
        assert sat.indices == (0, 1)
        assert sat.includes_all_active


def test_kkt_density_multiplier_identity():
    """At optimality p m f^(p-1) matches the multiplier combination."""
    for seed in range(8):
        inst = generate_random_instance(seed, n_points=7, n_measures=4)
        measures = inst.families["random"].measures
        p = (1.5, 2.0, 3.0)[seed % 3]
        sol = solve_modulus_explicit(inst.space, measures, p, gap_tol=1e-11)
        lhs = p * inst.space.measure * sol.f ** (p - 1.0)
        rhs = np.zeros(inst.space.n_points)
        for lam, mu in zip(sol.multipliers, measures):
            rhs += lam * mu.to_array(inst.space.n_points)
        msk = inst.space.positive_mask
        assert np.abs(lhs[msk] - rhs[msk]).max() < 1e-7 * max(1.0, lhs.max())


def test_solution_is_feasible_and_complementary():
    for seed in range(8):
        inst = generate_random_instance(100 + seed, n_points=9, n_measures=5)
        measures = inst.families["random"].measures
        sol = solve_modulus_explicit(inst.space, measures, 2.0, gap_tol=1e-11)
        integrals = [mu.integrate(sol.f) for mu in measures]
        assert min(integrals) >= 1.0 - 1e-9
        for lam, val in zip(sol.multipliers, integrals):
            if lam > 1e-8 * max(sol.multipliers.max(), 1.0):
                assert abs(val - 1.0) < 1e-7


def test_modulus_scales_like_measure_power():
    inst = generate_random_instance(3, n_points=6, n_measures=3)
    measures = inst.families["random"].measures
    p = 2.5
    base = solve_modulus_explicit(inst.space, measures, p, gap_tol=1e-12).value
    scaled = solve_modulus_explicit(
        inst.space, [mu.scaled(2.0) for mu in measures], p, gap_tol=1e-12
    ).value
    assert scaled == pytest.approx(base / 2.0**p, rel=1e-9)


def test_rejects_bad_exponent():
    space = interval_space(3)
    mu = restriction(space, range(3))
    for p in (1.0, 0.5, math.inf):
        with pytest.raises(ValueError):
            solve_modulus_explicit(space, [mu], p)


def test_monotone_subadditive_properties():
    for seed in range(6):
        inst = generate_random_instance(40 + seed, n_points=8, n_measures=6)
        measures = inst.families["random"].measures
        rep = mod_properties_check(
            inst.space, measures[:3], measures[3:], (1.5, 2.0, 3.0)[seed % 3]
        )
        assert rep.all_ok, rep


def test_primal_matches_dual_solver():
    for seed in range(10):
        inst = generate_random_instance(seed, n_points=5 + seed % 4, n_measures=3)
        measures = inst.families["random"].measures
        p = (1.5, 2.0, 2.5, 3.0)[seed % 4]
        dual = solve_modulus_explicit(inst.space, measures, p, gap_tol=1e-11)
        prim = solve_modulus_primal(inst.space, measures, p)
        assert prim.value == pytest.approx(dual.value, rel=1e-8, abs=1e-10)
        assert np.abs(prim.f - dual.f).max() < 1e-5 * max(1.0, dual.f.max())


def test_brute_force_brackets_the_optimum():
    for seed in range(4):
        inst = generate_random_instance(200 + seed, n_points=4, n_measures=3)
        measures = inst.families["random"].measures
        p = (1.5, 2.0, 3.0)[seed % 3]
        sol = solve_modulus_explicit(inst.space, measures, p, gap_tol=1e-11)
        lo, hi = brute_force_lattice(inst.space, measures, p)
        assert lo - 1e-12 <= sol.value <= hi + 1e-12


def test_shortest_path_breaks_ties_lexicographically():
    # Two equal-cost routes from 0 to 3; the smaller node sequence wins.
    space = MetricMeasureSpace(
        4, [(0, 1, 1.0), (1, 3, 1.0), (0, 2, 1.0), (2, 3, 1.0)], np.ones(4)
    )
    path, cost = shortest_weighted_path(space, np.ones(4), [0], [3])
    assert path == (0, 1, 3)
    assert cost == pytest.approx(2.0)


def test_hop_bound_cuts_long_routes():
    space = MetricMeasureSpace(
        4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 10.0)], np.ones(4)
    )
    free = shortest_weighted_path(space, np.ones(4), [0], [3])
    assert free[0] == (0, 1, 2, 3)
    capped = shortest_weighted_path(space, np.ones(4), [0], [3], max_hops=1)
    assert capped[0] == (0, 3)
    assert shortest_weighted_path(space, np.ones(4), [0], [3], max_hops=0) is None


def accumulated_cost(space, f, path):
    """Integral of f along the path, summed edge by edge from its start."""
    cost = 0.0
    for u, v in zip(path, path[1:]):
        cost += space.edge_length(u, v) * (f[u] + f[v]) / 2
    return cost


def random_oracle_case(rng):
    """A 3x3..5x5 grid, f with zeros, repeats and inf, few endpoints."""
    from modcap.space import build_grid_space

    nx, ny = (int(k) for k in rng.integers(3, 6, size=2))
    space = build_grid_space(nx, ny)
    f = rng.choice([0.0, 0.5, 1.0, 1.5, 2.0, math.inf], size=nx * ny,
                   p=[0.25, 0.2, 0.2, 0.15, 0.1, 0.1])
    points = rng.permutation(nx * ny)
    n_src, n_tgt = int(rng.integers(1, 3)), int(rng.integers(1, 4))
    source = tuple(int(x) for x in points[:n_src])
    # Targets may overlap the sources.
    target = tuple(int(x) for x in points[n_src - 1 : n_src - 1 + n_tgt])
    return space, f, source, target


def cheapest_enumerated(space, f, source, target, max_hops=None):
    """Least accumulated cost over the enumerated family, or None if empty."""
    from modcap.families import MeasureFamily, enumerate_family

    fam = MeasureFamily("t", "paths", source=source, target=target, max_hops=max_hops)
    paths = enumerate_family(space, fam).paths
    return min((accumulated_cost(space, f, path) for path in paths), default=None)


def test_enumeration_limit_caps_paths_only():
    from modcap.curves import ParametricCurve
    from modcap.families import MeasureFamily, enumerate_family
    from modcap.space import DiscreteMeasure, build_grid_space, grid_node

    space = build_grid_space(3, 3)
    measures = tuple(DiscreteMeasure.from_dict({x: 1.0}) for x in range(3))
    curves = {
        f"c{y}": ParametricCurve((grid_node(3, 0, y), grid_node(3, 1, y)), (0.0, 1.0))
        for y in range(3)
    }
    families = [
        MeasureFamily("e", "explicit", measures=measures),
        MeasureFamily("c", "curves", curve_names=tuple(curves)),
    ]
    for fam in families:
        enum = enumerate_family(space, fam, limit=2, curves_by_name=curves)
        assert len(enum.measures) == 3 and not enum.truncated

    left = tuple(grid_node(3, 0, y) for y in range(3))
    right = tuple(grid_node(3, 2, y) for y in range(3))
    paths = MeasureFamily("lr", "paths", source=left, target=right)
    enum = enumerate_family(space, paths, limit=2)
    assert len(enum.paths) == len(enum.measures) == 2 and enum.truncated


def assert_simple_path(space, f, path, cost, source, target):
    assert path[0] in source and path[-1] in target
    assert len(set(path)) == len(path)
    assert all(space.has_edge(u, v) for u, v in zip(path, path[1:]))
    assert accumulated_cost(space, f, path) == cost


@pytest.mark.parametrize("max_hops", [None, 2, 5])
def test_oracle_is_exact_against_enumeration(max_hops):
    from modcap.modulus import _cheapest_paths

    rng = np.random.default_rng([11, max_hops or 0])
    for _ in range(25):
        space, f, source, target = random_oracle_case(rng)
        best = cheapest_enumerated(space, f, source, target, max_hops)
        found = shortest_weighted_path(space, f, source, target, max_hops)
        if best is None:
            assert found is None
            continue
        path, cost = found
        assert cost == best
        assert_simple_path(space, f, path, cost, source, target)
        assert not set(path[:-1]) & set(target)

        per_target = _cheapest_paths(space, f, source, target, max_hops)
        assert [c for c, _ in per_target] == sorted(c for c, _ in per_target)
        reached = {}
        for t in sorted(set(target)):
            best_t = cheapest_enumerated(space, f, source, (t,), max_hops)
            if best_t is not None:
                reached[t] = best_t
        assert {p[-1]: c for c, p in per_target} == reached
        for c, p in per_target:
            assert_simple_path(space, f, p, c, source, target)
        assert per_target[0][0] == cost


def test_path_line_measure_is_the_j_map_of_the_path():
    from modcap.curves import ParametricCurve, j_map

    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(4, 12))
        edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
        edges |= {tuple(sorted(map(int, rng.choice(n, 2, replace=False))))
                  for _ in range(n)}
        space = MetricMeasureSpace(
            n, [(u, v, float(rng.uniform(0.05, 2.0))) for u, v in edges], np.ones(n)
        )
        path = [int(rng.integers(n))]
        while True:
            step = [v for v, _ in space.neighbors(path[-1]) if v not in path]
            if not step or rng.random() < 0.1:
                break
            path.append(int(rng.choice(step)))
        path = tuple(path)
        times = (0.0, 1.0) if len(path) == 1 else tuple(
            i / (len(path) - 1) for i in range(len(path))
        )
        assert path_line_measure(space, path).items == j_map(
            space, ParametricCurve(path, times)
        ).items


@pytest.mark.parametrize("zero_mass", [False, True])
def test_constraint_generation_matches_enumeration_on_random_grid(zero_mass):
    from modcap.families import MeasureFamily, enumerate_family
    from modcap.space import build_grid_space, grid_node

    rng = np.random.default_rng([4, zero_mass])
    weights = rng.uniform(0.1, 1.0, size=16)
    if zero_mass:
        weights[grid_node(4, 1, 2)] = 0.0
    space = build_grid_space(4, 4, weights)
    left = tuple(grid_node(4, 0, y) for y in range(4))
    right = tuple(grid_node(4, 3, y) for y in range(4))
    fam = enumerate_family(
        space, MeasureFamily("lr", "paths", source=left, target=right)
    )
    for p in (1.1, 1.5, 2.0, 3.0, 12.0):
        full = solve_modulus_explicit(space, fam.measures, p, gap_tol=1e-11)
        cg = solve_modulus_paths(space, left, right, p, gap_tol=1e-11, feas_tol=1e-11)
        assert cg.value == pytest.approx(full.value, rel=1e-9)


def test_grid16_certifies_in_few_rounds():
    # The 16x16 benchmark grid: one path per round needed 61 rounds.
    from modcap.space import build_grid_space, grid_node

    weights = np.random.default_rng([7, 16]).uniform(0.1, 1.0, size=256)
    space = build_grid_space(16, 16, weights)
    left = [grid_node(16, 0, y) for y in range(16)]
    right = [grid_node(16, 15, y) for y in range(16)]
    sol = solve_modulus_paths(space, left, right, 2.0)
    assert sol.outer_iterations < 40
    assert shortest_weighted_path(space, sol.f, left, right)[1] >= 1.0 - 1e-9


def test_path_modulus_single_route():
    space = MetricMeasureSpace(
        3, [(0, 1, 0.5), (1, 2, 0.5)], [0.2, 0.3, 0.5]
    )
    sol = solve_modulus_paths(space, [0], [2], 2.0)
    direct = solve_modulus_explicit(
        space, [path_line_measure(space, (0, 1, 2))], 2.0, gap_tol=1e-9
    )
    assert sol.value == pytest.approx(direct.value, rel=1e-9)
    assert sol.paths == ((0, 1, 2),)


def test_path_weights_must_be_nonnegative_numbers():
    # inf blocks a point; a negative or NaN weight is rejected.
    space = interval_space(3)
    for bad in ([-1.0, 0.0, 0.0], [math.nan, 0.0, 0.0]):
        with pytest.raises(ValueError, match="nonnegative"):
            shortest_weighted_path(space, bad, [0], [2])
    assert shortest_weighted_path(space, [0.0, math.inf, 0.0], [0], [2]) == (
        (0, 1, 2), math.inf
    )


def test_path_modulus_disconnected_is_empty():
    space = MetricMeasureSpace(4, [(0, 1, 1.0), (2, 3, 1.0)], np.ones(4))
    sol = solve_modulus_paths(space, [0], [3], 2.0)
    assert sol.empty_family
    assert sol.value == 0.0


def test_constraint_generation_matches_enumeration():
    # On a 2x3 grid the left-right simple paths are few enough to list.
    from modcap.families import MeasureFamily, enumerate_family
    from modcap.space import build_grid_space, grid_node

    space = build_grid_space(3, 2)
    left = [grid_node(3, 0, y) for y in range(2)]
    right = [grid_node(3, 2, y) for y in range(2)]
    fam = enumerate_family(
        space,
        MeasureFamily("lr", "paths", source=tuple(left), target=tuple(right)),
    )
    full = solve_modulus_explicit(space, fam.measures, 2.0, gap_tol=1e-11)
    cg = solve_modulus_paths(space, left, right, 2.0, gap_tol=1e-11)
    assert cg.value == pytest.approx(full.value, rel=1e-8)
    assert len(cg.paths) <= len(fam.measures)


def test_path_modulus_with_zero_mass_endpoint():
    # Paths through the massless corner cost nothing, so the oracle must
    # route around it, and f must still block them once returned.
    from modcap.families import MeasureFamily, enumerate_family
    from modcap.space import build_grid_space, grid_node

    weights = np.ones(9)
    weights[grid_node(3, 0, 0)] = 0.0
    space = build_grid_space(3, 3, weights)
    left = [grid_node(3, 0, y) for y in range(3)]
    right = [grid_node(3, 2, y) for y in range(3)]
    fam = enumerate_family(
        space,
        MeasureFamily("lr", "paths", source=tuple(left), target=tuple(right)),
    )
    full = solve_modulus_explicit(space, fam.measures, 2.0, gap_tol=1e-11)
    assert full.dropped
    cg = solve_modulus_paths(space, left, right, 2.0, gap_tol=1e-11)
    assert cg.value == pytest.approx(full.value, rel=1e-9)
    assert all(grid_node(3, 0, 0) not in path for path in cg.paths)
    assert shortest_weighted_path(space, cg.f, left, right)[1] >= 1.0 - 1e-9


@pytest.mark.parametrize("p", [1.1, 2.0, 3.0, 12.0])
def test_path_family_blocked_by_zero_mass_column_is_null(p):
    from modcap.space import build_grid_space, grid_node

    weights = np.ones(9)
    weights[[grid_node(3, 1, y) for y in range(3)]] = 0.0
    space = build_grid_space(3, 3, weights)
    left = [grid_node(3, 0, y) for y in range(3)]
    right = [grid_node(3, 2, y) for y in range(3)]
    sol = solve_modulus_paths(space, left, right, p)
    assert sol.value == 0.0
    assert not sol.empty_family
    assert shortest_weighted_path(space, sol.f, left, right)[1] >= 1.0


def test_barrier_fallback_certifies_when_face_polish_fails(monkeypatch):
    import modcap.modulus as mod
    from modcap.modulus import _constraint_matrix, _PlanProblem

    inst = generate_random_instance(3, n_points=20, n_measures=30)
    measures = inst.families["random"].measures
    ref = solve_modulus_explicit(inst.space, measures, 3.0, gap_tol=1e-12)

    # The barrier path alone gets close from the uniform plan ...
    prob = _PlanProblem(inst.space, _constraint_matrix(inst.space, measures)[0], 3.0)
    w, steps = prob.barrier(np.full(len(measures), 1.0 / len(measures)), 0.0, 10000)
    assert 0 < steps < 10000
    assert prob.evaluate(w)[2] <= 1e-8

    # ... and when the first-order phase hands over at once with a failed
    # polish, barrier plus polish on its support certify the solve.
    monkeypatch.setattr(mod, "_FIRST_POLISH", 1)
    monkeypatch.setattr(mod, "_FIRST_ORDER_CAP", 1)
    polish = _PlanProblem.face_newton
    calls = []

    def polish_after_barrier(self, w):
        calls.append(len(calls))
        return polish(self, w) if len(calls) > 1 else None

    monkeypatch.setattr(_PlanProblem, "face_newton", polish_after_barrier)
    sol = solve_modulus_explicit(inst.space, measures, 3.0, gap_tol=1e-13)
    assert len(calls) == 2
    assert sol.iterations > 1
    assert sol.gap <= 1e-12
    assert sol.value == pytest.approx(ref.value, rel=1e-10)


def test_path_bracket_holds_for_the_whole_family():
    # A loose feas_tol ends constraint generation while some path still
    # integrates f to less than 1.  f is then divided by the family's
    # minimum, so that value, dual_value and gap bracket the modulus of
    # the whole family and not only of the working paths.
    from modcap.families import MeasureFamily, enumerate_family
    from modcap.space import build_grid_space, grid_node

    rng = np.random.default_rng([1, 4])
    space = build_grid_space(4, 4, rng.uniform(0.1, 1.0, 16))
    left = tuple(grid_node(4, 0, y) for y in range(4))
    right = tuple(grid_node(4, 3, y) for y in range(4))
    sol = solve_modulus_paths(space, left, right, 2.0, feas_tol=0.1)
    assert shortest_weighted_path(space, sol.f, left, right)[1] >= 1.0 - 1e-12
    assert sol.value == pytest.approx(float(np.dot(space.measure, sol.f**2)), rel=1e-12)
    fam = enumerate_family(space, MeasureFamily("lr", "paths", source=left, target=right))
    exact = solve_modulus_explicit(space, fam.measures, 2.0, gap_tol=1e-12).value
    lower, gap = sol.dual_value, sol.gap
    assert lower <= exact * (1 + 1e-12) and exact <= sol.value * (1 + 1e-12)
    assert gap >= (sol.value - lower) / sol.value


@pytest.mark.parametrize("seed, p", [(0, 2.0), (0, 3.0), (1, 2.0), (1, 3.0), (0, 1.1)])
def test_face_polish_returns_kkt_points(monkeypatch, seed, p):
    # Every plan the polish hands back satisfies the simplex KKT
    # conditions: G_i = phi on the support and G_i >= phi off it, with
    # G = grad phi / q and phi = w . G.
    from modcap.modulus import _PlanProblem

    polish, returned = _PlanProblem.face_newton, []

    def recorded(self, w):
        out = polish(self, w)
        if out is not None:
            phi, G, _ = self.evaluate(out)
            returned.append((out > 0, G / phi - 1.0))
        return out

    monkeypatch.setattr(_PlanProblem, "face_newton", recorded)
    inst = generate_random_instance(seed, n_points=200, n_measures=800)
    solve_modulus_explicit(inst.space, inst.families["random"].measures, p)
    assert returned
    for support, rel in returned:
        assert np.abs(rel[support]).max() <= 1e-9
        assert rel[~support].min(initial=0.0) >= -1e-9


@pytest.mark.parametrize(
    "seed, shape, p",
    [
        (748, dict(n_points=9, n_measures=28, sparsity=0.5808231501795296), 1.1),
        (11, dict(n_points=16, n_measures=8), 12.0),
    ],
)
def test_barrier_certifies_at_both_ends_of_p(seed, shape, p):
    # At p = 1.1 and p = 12 these seeded families (found by a search over
    # seeds) defeat the face polish, so the solve reaches the barrier on
    # its own.  The certified bracket must agree with the primal solver.
    from modcap.modulus import _constraint_matrix, _PlanProblem

    class BarrierCount(_PlanProblem):
        calls = 0

        def barrier(self, *args):
            self.calls += 1
            return super().barrier(*args)

    inst = generate_random_instance(seed, **shape)
    measures = inst.families["random"].measures
    k = len(measures)
    prob = BarrierCount(inst.space, _constraint_matrix(inst.space, measures)[0], p)
    prob.solve(np.full(k, 1.0 / k), 1e-9, 100000)
    assert prob.calls == 1
    sol = solve_modulus_explicit(inst.space, measures, p)
    assert sol.gap <= 1e-9
    primal = solve_modulus_primal(inst.space, measures, p).value
    assert primal >= sol.dual_value * (1.0 - 1e-12)
    assert primal == pytest.approx(sol.value, rel=1e-6)


def average(a, b):
    acc = dict(a.items)
    for i, w in b.items:
        acc[i] = acc.get(i, 0.0) + w
    return DiscreteMeasure.from_dict({i: w / 2 for i, w in acc.items()})


def degenerate_case(name, p):
    """The solve of a degenerate family, and oracle brackets of its modulus."""
    from modcap.space import build_grid_space, grid_node

    if name in ("duplicates", "average"):
        inst = generate_random_instance(7, n_points=4, n_measures=4)
        space, base = inst.space, list(inst.families["random"].measures)
        extra = [base[0], base[2]] if name == "duplicates" else [average(*base[:2])]
        family = base + extra
        # The base family implies every added constraint: same modulus.
        ref = solve_modulus_explicit(space, base, p)
        oracles = [brute_force_lattice(space, family, p), (ref.dual_value, ref.value)]
        return lambda: solve_modulus_explicit(space, family, p), oracles
    if name == "more_measures_than_points":
        inst = generate_random_instance(5, n_points=3, n_measures=60)
        space, family = inst.space, inst.families["random"].measures
        oracles = [brute_force_lattice(space, family, p)]
        return lambda: solve_modulus_explicit(space, family, p), oracles
    if name == "grid_rows_and_columns":
        # The rows sum to the columns.  Permuting rows, permuting columns
        # and transposing leave the family unchanged and move any point to
        # any other, so the unique optimal f is constant: f = 5.
        space = build_grid_space(5, 5)
        lines = [[grid_node(5, x, y) for x in range(5)] for y in range(5)]
        columns = [list(pts) for pts in zip(*lines)]
        family = [restriction(space, pts) for pts in lines + columns]
        return lambda: solve_modulus_explicit(space, family, p), [(5.0**p, 5.0**p)]
    # Left-right paths on a uniform k x k grid.  The k rows tie, and the
    # optimal f for the rows alone depends on the column only, so every
    # path, which crosses each column gap, integrates it to at least 1:
    # the modulus is that of the disjoint rows, k ||mu / m||_q^(-p) with
    # mu one row's line measure (h = 1 / (k-1) per point, h/2 at its ends).
    k = int(name.removeprefix("paths"))
    space = build_grid_space(k, k)
    left = [grid_node(k, 0, y) for y in range(k)]
    right = [grid_node(k, k - 1, y) for y in range(k)]
    density = np.full(k, k**2 / (k - 1))
    density[[0, -1]] /= 2
    exact = k * float(np.sum(density ** (p / (p - 1)) / k**2)) ** (1 - p)
    return lambda: solve_modulus_paths(space, left, right, p), [(exact, exact)]


@pytest.mark.parametrize("p", [1.1, 2.0, 3.0, 12.0])
@pytest.mark.parametrize(
    "name",
    [
        "duplicates",
        "average",
        "more_measures_than_points",
        "grid_rows_and_columns",
        "paths6",
        "paths10",
    ],
)
def test_degenerate_family_is_certified_or_refused(name, p):
    # Rank-deficient constraint sets and many tied paths: the solve either
    # certifies a bracket that meets every oracle's, or raises SolverError.
    solve, oracles = degenerate_case(name, p)
    try:
        sol = solve()
    except SolverError:
        return
    assert sol.gap <= 1e-9
    for lower, upper in oracles:
        assert lower <= sol.value * (1 + 1e-12)
        assert sol.dual_value <= upper * (1 + 1e-12)
