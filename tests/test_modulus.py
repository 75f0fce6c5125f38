"""Modulus solvers: explicit families, path families, cross-validation."""

import math

import numpy as np
import pytest

from modcap.duality import solve_content
from modcap.errors import InvalidInstanceError, SolverError
from modcap.families import path_line_measure
from modcap.instance import generate_random_instance
from modcap.modulus import (
    _solve_modulus_primal,
    brute_force_lattice,
    saturated_subfamily,
    shortest_weighted_path,
    solve_modulus_explicit,
    solve_modulus_paths,
)
from modcap.space import DiscreteMeasure, MetricMeasureSpace, build_grid_space


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
        space, [restriction(space, range(2)), DiscreteMeasure(())], 2.0
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
        solve_modulus_explicit, solve_content, _solve_modulus_primal, brute_force_lattice
    ):
        with pytest.raises(ValueError, match=f"measure 1 charges point {point} "):
            solve(space, family, 2.0)


def test_null_supported_measures_are_dropped():
    space = MetricMeasureSpace(3, [(0, 1, 1.0), (1, 2, 1.0)], [1.0, 1.0, 0.0])
    ghost = DiscreteMeasure(((2, 5.0),))
    real = DiscreteMeasure(((0, 1.0),))
    sol = solve_modulus_explicit(space, [real, ghost], 2.0)
    assert sol.dropped == (1,)
    assert sol.value == pytest.approx(1.0)
    assert _solve_modulus_primal(space, [real, ghost], 2.0)[0] == pytest.approx(1.0)
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
        inst.space,
        [DiscreteMeasure(tuple((i, 2.0 * w) for i, w in mu.items)) for mu in measures],
        p,
        gap_tol=1e-12,
    ).value
    assert scaled == pytest.approx(base / 2.0**p, rel=1e-9)


def test_rejects_bad_exponent():
    space = interval_space(3)
    mu = restriction(space, range(3))
    for p in (1.0, 0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="p > 1"):
            solve_modulus_explicit(space, [mu], p)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_rejects_tolerances_that_cannot_be_met(tol):
    # NaN compares false with every gap, so a solve would stop at once
    # and report an uncertified bracket; -1 and inf are no targets either.
    from modcap.curves import ParametricCurve
    from modcap.duality import check_duality, check_optimality_conditions
    from modcap.gradients import check_upper_gradient

    space = interval_space(3)
    fam = [restriction(space, range(3))]
    sol = solve_modulus_explicit(space, fam, 2.0)
    content = solve_content(space, fam, 2.0)
    curve = ParametricCurve((0, 2), (0.0, 1.0))
    calls = [
        lambda: solve_modulus_explicit(space, fam, 2.0, gap_tol=tol),
        lambda: solve_content(space, fam, 2.0, tol=tol),
        lambda: solve_modulus_paths(space, [0], [2], 2.0, gap_tol=tol),
        lambda: check_duality(space, sol, content, 2.0, tol=tol),
        lambda: check_optimality_conditions(space, sol, content, 2.0, tol=tol),
        lambda: check_upper_gradient(space, np.zeros(3), np.zeros(3), [curve], tol),
    ]
    for call in calls:
        with pytest.raises(InvalidInstanceError, match="tolerance must be finite"):
            call()


def test_rejects_iteration_caps_below_one():
    space = interval_space(3)
    fam = [restriction(space, range(3))]
    for call in (
        lambda: solve_modulus_explicit(space, fam, 2.0, max_iter=0),
        lambda: solve_content(space, fam, 2.0, max_iter=0),
        lambda: solve_modulus_paths(space, [0], [2], 2.0, max_outer=0),
    ):
        with pytest.raises(InvalidInstanceError, match="at least 1, got 0"):
            call()
    # A fractional cap raised TypeError from range (paths) or ran as is.
    for cap in (2.5, math.nan):
        for call in (
            lambda: solve_modulus_explicit(space, fam, 2.0, max_iter=cap),
            lambda: solve_content(space, fam, 2.0, max_iter=cap),
            lambda: solve_modulus_paths(space, [0], [2], 2.0, max_outer=cap),
        ):
            with pytest.raises(InvalidInstanceError, match="cap must be an integer"):
                call()
    # A zero tolerance is a valid, if exacting, target.
    assert solve_modulus_explicit(space, fam, 2.0, gap_tol=0.0).gap <= 1e-14


def outer_measure_checked(space, family_a, family_b, p):
    """Mod_p(A), after checking Fuglede's outer-measure properties to 1e-7
    relative: A and B against A + B (monotone), A + B against Mod_p(A) +
    Mod_p(B) (subadditive), and the nested chain A, A + half of B, A + B."""

    def mod(family):
        return solve_modulus_explicit(space, family, p).value

    mod_a, mod_b = mod(family_a), mod(family_b)
    mod_half = mod([*family_a, *family_b[: (len(family_b) + 1) // 2]])
    mod_u = mod([*family_a, *family_b])
    slack = 1e-7 * max(1.0, *(v for v in (mod_a, mod_b, mod_u) if math.isfinite(v)))
    assert mod_a <= mod_u + slack and mod_b <= mod_u + slack
    assert mod_u <= mod_a + mod_b + slack
    assert mod_a <= mod_half + slack and mod_half <= mod_u + slack
    return mod_a


def test_monotone_subadditive_properties():
    for seed in range(6):
        inst = generate_random_instance(40 + seed, n_points=8, n_measures=6)
        measures = list(inst.families["random"].measures)
        outer_measure_checked(inst.space, measures[:3], measures[3:], (1.5, 2.0, 3.0)[seed % 3])


def test_null_family_scaling_is_checked():
    # A measure on a zero-mass point is met for free, so family A is null
    # and so are its rescalings.
    space = MetricMeasureSpace(3, [(0, 1, 1.0), (1, 2, 1.0)], [0.0, 0.5, 0.5])
    family_a = [DiscreteMeasure(((0, 1.0), (1, 0.5)))]
    family_b = [DiscreteMeasure(((1, 1.0), (2, 1.0)))]
    assert outer_measure_checked(space, family_a, family_b, 2.0) == 0.0
    scaled = [
        [DiscreteMeasure(tuple((i, c * w) for i, w in mu.items)) for mu in family_a]
        for c in (0.5, 2)
    ]
    assert [solve_modulus_explicit(space, fam, 2.0).value for fam in scaled] == [0.0, 0.0]


def test_primal_matches_dual_solver():
    for seed in range(10):
        inst = generate_random_instance(seed, n_points=5 + seed % 4, n_measures=3)
        measures = inst.families["random"].measures
        p = (1.5, 2.0, 2.5, 3.0)[seed % 4]
        dual = solve_modulus_explicit(inst.space, measures, p, gap_tol=1e-11)
        value, f = _solve_modulus_primal(inst.space, measures, p)
        assert value == pytest.approx(dual.value, rel=1e-8, abs=1e-10)
        assert np.abs(f - dual.f).max() < 1e-5 * max(1.0, dual.f.max())


def energy_ball(e, p, root):
    """Radius in L^p(m) about the optimal f of an admissible f whose energy
    is (1 + e) Mod, root = Mod^(1/p) or more.  Its midpoint with the optimum
    is admissible, so has energy >= Mod; Clarkson's inequality (p >= 2)
    or the 2-uniform convexity of L^p (1 < p <= 2, Ball, Carlen & Lieb
    1994) then bound half their distance."""
    if p >= 2:
        return 2.0 * (e / 2.0) ** (1.0 / p) * root
    return root * math.sqrt(2.0 * ((1.0 + e) ** (2.0 / p) - 1.0) / (p - 1.0))


@pytest.mark.parametrize("p", [1.1, 2.0, 3.0, 4.0, 8.0, 12.0])
def test_both_solvers_densities_lie_in_their_energy_balls(p):
    # The bracket pins f only to a ball, wide at large p; both solvers' f
    # lie in their balls about the one optimum, so within the sum of the
    # radii of each other.  The barycenters f^(p-1) / energy agree to 1e-6
    # relative in L^q(m) at p >= 2.  At p < 2, f -> f^(p-1) is only Hölder
    # (|a^s - b^s| <= |a - b|^s for s = p - 1 <= 1): at p = 1.1 a point
    # where the plan's f is 1e-11 and the oracle's 0 moves the barycenter by
    # up to 8% here, within ((r_dual + r_primal) / root)^(p-1) plus the
    # energies' relative gap.
    from modcap.modulus import _ROUNDING

    q, worst = p / (p - 1.0), 0.0
    for s in range(60):
        inst = generate_random_instance(
            1000 + s, n_points=4 + s % 31, n_measures=1 + (7 * s) % 41, n_null_points=s % 4
        )
        measures, msk = inst.families["random"].measures, inst.space.positive_mask
        m = inst.space.measure[msk]
        dual = solve_modulus_explicit(inst.space, measures, p)
        _, f = _solve_modulus_primal(inst.space, measures, p)
        fd, fp = dual.f[msk], f[msk]
        low = dual.dual_value * (1.0 - _ROUNDING * p)  # the bracket's rounding allowance
        energies = float(m @ fd**p), float(m @ fp**p)
        root = dual.value ** (1.0 / p)
        radii = sum(energy_ball(energy / low - 1.0, p, root) for energy in energies)
        dist = float(m @ np.abs(fd - fp) ** p) ** (1.0 / p)
        assert dist <= radii
        worst = max(worst, dist / radii)
        bd, bp = fd ** (p - 1.0) / energies[0], fp ** (p - 1.0) / energies[1]
        rel = float(m @ np.abs(bd - bp) ** q) ** (1.0 / q) / float(m @ bd**q) ** (1.0 / q)
        if p >= 2.0:
            assert rel <= 1e-6
        else:
            skew = abs(energies[0] - energies[1]) / min(energies)
            assert rel <= (radii / root) ** (p - 1.0) + skew
    assert worst > 1e-6  # the distances are seen, not all zero


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


@pytest.mark.parametrize("max_hops", [None, 5])
def test_equal_cost_routes_tie_by_fewest_hops(max_hops):
    # 0-1-2-3 and 0-4-3 cost the same; the longer route has the smaller
    # ids, so an id-only tie rule would return it.  Both branches return
    # the route with fewer hops, at zero density and at equal positive cost.
    from modcap.modulus import _cheapest_paths

    space = MetricMeasureSpace(
        5,
        [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 1.0), (0, 4, 1.0), (4, 3, 1.0)],
        np.ones(5),
    )
    for f, cost in ((np.zeros(5), 0.0), (np.ones(5), 2.0)):
        assert shortest_weighted_path(space, f, [0], [3], max_hops) == ((0, 4, 3), cost)
        assert _cheapest_paths(space, f, [0], [2, 3], max_hops) == [
            (cost / 2, (0, 1, 2)), (cost, (0, 4, 3))
        ]
    # At zero density every left-right path of a grid costs 0; each row
    # gets its straight path, not a branch of one shared tree.
    from modcap.space import build_grid_space, grid_node

    grid = build_grid_space(5, 5)
    left = [grid_node(5, 0, y) for y in range(5)]
    right = [grid_node(5, 4, y) for y in range(5)]
    rows = [tuple(grid_node(5, x, y) for x in range(5)) for y in range(5)]
    found = _cheapest_paths(grid, np.zeros(25), left, right, max_hops)
    assert found == [(0.0, row) for row in rows]


def test_hop_bound_cuts_long_routes():
    space = MetricMeasureSpace(
        4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 10.0)], np.ones(4)
    )
    free = shortest_weighted_path(space, np.ones(4), [0], [3])
    assert free[0] == (0, 1, 2, 3)
    capped = shortest_weighted_path(space, np.ones(4), [0], [3], max_hops=1)
    assert capped[0] == (0, 3)

    # A hop bound is an integer >= 1, as in a path family.
    grid = build_grid_space(3, 3)
    for bad, message in ((2.5, "an integer"), (0, "at least 1"), (-1, "at least 1")):
        with pytest.raises(InvalidInstanceError, match=f"max_hops must be {message}"):
            shortest_weighted_path(space, np.ones(4), [0], [3], max_hops=bad)
        with pytest.raises(InvalidInstanceError, match=f"max_hops must be {message}"):
            solve_modulus_paths(grid, [0, 3, 6], [2, 5, 8], 2.0, max_hops=bad)


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
    """Least (accumulated cost, edge count) over the enumerated family, or None."""
    from modcap.families import MeasureFamily, enumerate_family

    fam = MeasureFamily("t", "paths", source=source, target=target, max_hops=max_hops)
    paths = enumerate_family(space, fam).paths
    return min(
        ((accumulated_cost(space, f, path), len(path) - 1) for path in paths),
        default=None,
    )


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
        # The cheapest path, and among the cheapest one with the fewest edges.
        path, cost = found
        assert (cost, len(path) - 1) == best
        assert_simple_path(space, f, path, cost, source, target)
        assert not set(path[:-1]) & set(target)

        per_target = _cheapest_paths(space, f, source, target, max_hops)
        order = [(c, len(p), p[-1]) for c, p in per_target]
        assert order == sorted(order)  # by cost, then hops, then id
        reached = {}
        for t in sorted(set(target)):
            best_t = cheapest_enumerated(space, f, source, (t,), max_hops)
            if best_t is not None:
                reached[t] = best_t
        assert {p[-1]: (c, len(p) - 1) for c, p in per_target} == reached
        for c, p in per_target:
            assert_simple_path(space, f, p, c, source, target)
        assert per_target[0][0] == cost


def reference_cheapest_paths(space, f, source, target, max_hops=None, bound=None):
    """``_cheapest_paths`` as it was with a tuple-keyed Dijkstra: each point's
    (cost, hops) pair in one list of tuples, None before it is reached."""
    import heapq

    half = (0.5 * np.asarray(f, dtype=float)).tolist()
    targets, sources = set(target), sorted(set(source))
    if max_hops is not None:
        best = {s: (0.0, (s,)) for s in sources}
        frontier = sources
        for _ in range(max_hops):
            nxt = {}
            for u in frontier:
                du, pu = best[u]
                for v, ell in space.neighbors(u):
                    cost = du + ell * (half[u] + half[v])
                    cur = nxt.get(v, best.get(v))
                    if cur is None or cost < cur[0]:
                        nxt[v] = (cost, pu + (v,))
            best.update(nxt)
            frontier = sorted(nxt)
        found = sorted(
            (cost, len(path), t, path) for t, (cost, path) in best.items()
            if t in targets and (bound is None or cost < bound)
        )
        return [(cost, path) for cost, _, _, path in found]
    n = space.n_points
    dist, pred, done = [None] * n, [-1] * n, bytearray(n)
    for s in sources:
        dist[s] = (0.0, 0)
    heap = [(0.0, 0, s) for s in sources]
    out, left = [], len(targets)
    while heap:
        d, k, u = heapq.heappop(heap)
        if done[u]:
            continue
        if bound is not None and d >= bound:
            break
        done[u] = 1
        if u in targets:
            path = [u]
            while pred[path[-1]] >= 0:
                path.append(pred[path[-1]])
            out.append((d, tuple(reversed(path))))
            left -= 1
            if not left:
                break
        hu, k = half[u], k + 1
        for v, ell in space.neighbors(u):
            if not done[v]:
                cost = d + ell * (hu + half[v])
                old = dist[v]
                if old is None or (cost, k) < old:
                    dist[v], pred[v] = (cost, k), u
                    heapq.heappush(heap, (cost, k, v))
    return out


@pytest.mark.parametrize("max_hops", [None, 3, 8])
def test_oracle_matches_the_tuple_keyed_dijkstra(max_hops):
    # The oracle keeps each point's cost and hops in two lists; on random
    # graphs with many exact ties (few lengths, f with zeros and repeats),
    # blocked points (inf) and several endpoints, it returns the list of the
    # tuple-keyed pass, with and without a bound: targets at infinite cost
    # included when there is none.
    from modcap.modulus import _cheapest_paths

    rng = np.random.default_rng([13, max_hops or 0])
    inf_targets = 0
    for _ in range(60):
        n = int(rng.integers(2, 40))
        edges = {(int(rng.integers(0, i)), i) for i in range(1, n) if rng.random() < 0.9}
        edges |= {tuple(sorted(map(int, rng.choice(n, 2, replace=False))))
                  for _ in range(int(rng.integers(0, 2 * n)))}
        lengths = rng.choice([0.25, 0.5, 1.0], size=len(edges))
        space = MetricMeasureSpace(
            n, [(u, v, float(ell)) for (u, v), ell in zip(sorted(edges), lengths)], np.ones(n)
        )
        f = rng.choice([0.0, 0.25, 0.5, 1.0, math.inf], size=n, p=[0.3, 0.2, 0.2, 0.2, 0.1])
        points = rng.permutation(n)
        source = [int(x) for x in points[: int(rng.integers(1, 4))]]
        target = [int(x) for x in points[-int(rng.integers(1, min(n, 6) + 1)) :]]
        for bound in (None, 1.0):
            got = _cheapest_paths(space, f, source, target, max_hops, bound=bound)
            assert got == reference_cheapest_paths(space, f, source, target, max_hops, bound)
            inf_targets += any(math.isinf(c) for c, _ in got)
    assert inf_targets > 0


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
        cg = solve_modulus_paths(space, left, right, p, gap_tol=1e-11)
        assert cg.value == pytest.approx(full.value, rel=1e-9)


def test_grid16_certifies_in_few_rounds():
    # The 16x16 benchmark grid: one path per round needed 61 rounds, and an
    # oracle that broke cost ties by id alone 26.
    from modcap.space import build_grid_space, grid_node

    weights = np.random.default_rng([7, 16]).uniform(0.1, 1.0, size=256)
    space = build_grid_space(16, 16, weights)
    left = [grid_node(16, 0, y) for y in range(16)]
    right = [grid_node(16, 15, y) for y in range(16)]
    sol = solve_modulus_paths(space, left, right, 2.0)
    assert sol.outer_iterations <= 15
    assert shortest_weighted_path(space, sol.f, left, right)[1] >= 1.0 - 1e-9
    # Rounds after the first start from a Newton polish of the previous
    # plan; 16 gradient steps per round before it (400 in all).
    assert sol.iterations <= 16


@pytest.mark.parametrize("p", [1.1, 2.0, 3.0, 12.0])
@pytest.mark.parametrize("k", [6, 10, 16])
def test_uniform_grid_certifies_in_two_rounds(k, p):
    # The first plan's f is 0 off its one path, so the oracle's zero-cost
    # ties decide the second round: fewest hops gives every row's straight
    # path at once, and those k disjoint rows are optimal.  Breaking the
    # ties by id alone added one row per round, k rounds in all.
    solve, [(exact, _)], _ = degenerate_case(f"paths{k}", p)
    sol = solve()
    assert sol.outer_iterations == 2
    assert sol.gap <= 1e-9
    assert sol.dual_value <= exact * (1 + 1e-12) and exact <= sol.value * (1 + 1e-12)


@pytest.mark.parametrize("n_null", [0, 1])
def test_path_rows_match_the_constraint_matrix_builder(n_null):
    # The path solver builds all rows of a round with one scatter; they
    # must equal, bit for bit, the rows built from each path's line
    # measure and the half-edge lengths summed per point in step order,
    # and no oracle path is dropped.
    from modcap.families import _path_rows
    from modcap.modulus import _cheapest_paths, _constraint_matrix

    for seed in range(4):
        space = generate_random_instance(seed, n_points=40, n_null_points=n_null).space
        null = space.measure == 0
        assert null.sum() == n_null
        rng = np.random.default_rng([seed, n_null])
        f = np.where(null, np.inf, rng.uniform(0.0, 2.0, space.n_points))
        source = np.flatnonzero(~null)[:3]
        paths = [
            path for cost, path in _cheapest_paths(space, f, source, range(space.n_points))
            if len(path) > 1 and cost < math.inf
        ]
        assert len(paths) > 30
        rows = _path_rows(space, paths)
        U, kept, dropped, has_zero = _constraint_matrix(
            space, [path_line_measure(space, path) for path in paths]
        )
        assert (kept, dropped, has_zero) == (list(range(len(paths))), (), False)
        assert U.shape == (len(paths), space.n_points - n_null)
        assert not rows[:, null].any()
        assert rows[:, ~null].tobytes() == U.tobytes()
        ref = np.zeros_like(rows)
        for r, path in enumerate(paths):
            for a, b in zip(path, path[1:]):
                half = 0.5 * space.edge_length(a, b)
                ref[r, a] += half
                ref[r, b] += half
        assert rows.tobytes() == ref.tobytes()


def test_non_adjacent_path_names_the_pair():
    from modcap.families import _path_rows

    space = interval_space(5)
    assert path_line_measure(space, (2,)).items == ()
    for path in ((0, 1, 3, 4), (0, 1, 1)):
        pair = f"points {path[1]} and {path[2]} are not adjacent"
        with pytest.raises(InvalidInstanceError, match=pair):
            path_line_measure(space, path)
    # Every node is checked, a lone one too, before any edge lookup.
    for path in ((0, 1, 7), (4, 3, -1), (0, 1, 10**30)):
        node = f"node {path[2]} is not a point of the space"
        with pytest.raises(InvalidInstanceError, match=node):
            path_line_measure(space, path)
    grid = build_grid_space(3, 3)
    assert path_line_measure(grid, (2,)).items == ()
    for bad in (12, -2):
        with pytest.raises(InvalidInstanceError, match=f"node {bad} is not a point"):
            path_line_measure(grid, (bad,))
    # The step (0, 11) has the key 0 * 9 + 11 of the grid edge (1, 2).
    with pytest.raises(InvalidInstanceError, match="node 11 is not a point"):
        path_line_measure(grid, (0, 11))
    # The first bad step or node, in order, is named.
    with pytest.raises(InvalidInstanceError, match=r"points 2 and 0 are not adjacent"):
        _path_rows(space, [(0, 1, 2), (3, 2, 0), (4, 2)])
    with pytest.raises(InvalidInstanceError, match=r"points 1 and 3 are not adjacent"):
        _path_rows(space, [(0, 1), (1, 3, 9), (12,)])


def test_fixed_hessian_at_p2_is_a_cached_gram(monkeypatch):
    # At p = 2 the Hessian of phi is 2 U diag(1/m) U^T for every w.  Each
    # call returns a fresh bordered system [[H, 1], [1^T, 0]] whose H is an
    # exactly symmetric slice of a Gram matrix that grows with the rows
    # asked for; a path round's ``renew`` keeps the block of the rows that
    # stay.
    from modcap.modulus import _constraint_matrix, _PlanProblem

    inst = generate_random_instance(2, n_points=60, n_measures=90, n_null_points=2)
    measures = inst.families["random"].measures
    U, kept, _, _ = _constraint_matrix(inst.space, measures)
    prob = _PlanProblem(inst.space, U, 2.0)
    scale = np.sqrt(2.0 / prob.mpos)
    rng = np.random.default_rng(0)
    k = len(kept)
    masks = [rng.random(k) < 0.2]
    masks.append(masks[0] | (rng.random(k) < 0.3))  # grow
    masks.append(masks[1] & (rng.random(k) < 0.5))  # shrink
    masks.append(masks[2] | (rng.random(k) < 0.6))  # grow again
    masks.append(np.ones(k, bool))
    for rows in masks:
        V = U[rows] * scale
        ref = V @ V.T
        n = len(ref)
        kkt = [prob.hessian(rows, prob.potential(rng.dirichlet(np.ones(k)))[2]) for _ in range(2)]
        for K in kkt:
            Hw = K[:n, :n]
            assert np.abs(Hw - ref).max() <= 1e-13 * np.abs(ref).max()
            assert np.array_equal(Hw, Hw.T)
            assert np.all(K[n, :n] == 1.0) and np.all(K[:n, n] == 1.0) and K[n, n] == 0.0
        assert np.array_equal(kkt[0], kkt[1])
        kkt[0][np.diag_indices(n)] += 1.0  # as face_newton shifts it
        assert np.array_equal(prob.hessian(rows, None), kkt[1])

    # One problem serves a whole path solve: each round's ``renew`` keeps
    # the Gram block of the rows that stay, which is the Gram of those
    # rows of the renewed U.
    from modcap.space import build_grid_space, grid_node

    space = build_grid_space(10, 10, rng.uniform(0.1, 1.0, 100))
    scale = np.sqrt(2.0 / space.measure)
    init, renew, built, carried = _PlanProblem.__init__, _PlanProblem.renew, [], []

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    def recorded(self, keep, rows):
        renew(self, keep, rows)
        carried.append((self.U, self._known, self._gram))

    monkeypatch.setattr(_PlanProblem, "__init__", counted)
    monkeypatch.setattr(_PlanProblem, "renew", recorded)
    left = [grid_node(10, 0, y) for y in range(10)]
    right = [grid_node(10, 9, y) for y in range(10)]
    sol = solve_modulus_paths(space, left, right, 2.0)
    assert len(built) == 1
    assert len(carried) == sol.outer_iterations - 1 > 3
    assert sum(len(rows) for _, rows, _ in carried) > 0
    for U, rows, block in carried:
        V = U[rows] * scale
        ref = V @ V.T
        assert np.abs(block - ref).max(initial=0.0) <= 1e-13 * np.abs(ref).max(initial=0.0)
        assert np.array_equal(block, block.T)


def test_renew_and_hessians_match_their_plain_numpy_builds(monkeypatch):
    # ``renew`` gathers U's kept rows and the kept Gram block by 1-D takes,
    # and a p != 2 Hessian is built from the barycenter h that ``potential``
    # returned at the plan: each is array_equal to its plain numpy build
    # (np.compress and np.ix_; h and the Hessian recomputed from the plan w).
    from modcap.modulus import _constraint_matrix, _PlanProblem
    from modcap.space import grid_node

    rng = np.random.default_rng(8)
    space = build_grid_space(12, 12, rng.uniform(0.1, 1.0, 144))
    left = [grid_node(12, 0, y) for y in range(12)]
    right = [grid_node(12, 11, y) for y in range(12)]
    renew, potential = _PlanProblem.renew, _PlanProblem.potential
    bracket, hessian = _PlanProblem.bracket, _PlanProblem.hessian
    renewed, plan_of, accepted, checked = [], {}, [], []

    def renew_recorded(self, keep, rows):
        U, pos, gram = self.U, self._pos.copy(), self._gram
        renew(self, keep, rows)
        at = pos[keep]
        assert np.array_equal(self._gram, gram[np.ix_(at[at >= 0], at[at >= 0])])
        plain = np.compress(space.positive_mask, rows, axis=1)
        assert np.array_equal(self.U, np.concatenate([np.compress(keep, U, axis=0), plain]))
        renewed.append((keep.all(), (at >= 0).sum()))

    def potential_recorded(self, w):
        out = potential(self, w)
        for a in out[1:]:  # f and h, kept alive so that their ids stay their own
            plan_of[id(a)] = (w.copy(), a)
        return out

    def bracket_recorded(self, phi, f):  # called at the points a search accepts
        accepted.append(plan_of[id(f)][0])
        return bracket(self, phi, f)

    def hessian_checked(self, rows, h):
        kkt = hessian(self, rows, h)
        w, carried = plan_of[id(h)]
        assert carried is h and np.array_equal(w, accepted[-1])  # the current plan
        if self.q != 2.0:
            q, hw = self.q, (w @ self.U) / self.mpos
            coef = q * (q - 1.0) * np.maximum(hw, 1e-12 * hw.max()) ** (q - 2.0) / self.mpos
            Ur = self.U[rows] * np.sqrt(coef)
            n = len(Ur)
            assert np.array_equal(kkt[:n, :n], Ur @ Ur.T)
            checked.append(n)
        return kkt

    monkeypatch.setattr(_PlanProblem, "renew", renew_recorded)
    monkeypatch.setattr(_PlanProblem, "potential", potential_recorded)
    monkeypatch.setattr(_PlanProblem, "bracket", bracket_recorded)
    monkeypatch.setattr(_PlanProblem, "hessian", hessian_checked)
    solve_modulus_paths(space, left, right, 2.0)
    assert len(renewed) > 3
    assert not all(kept for kept, _ in renewed) and any(known for _, known in renewed)
    solve_modulus_paths(space, left, right, 3.0)
    inst = generate_random_instance(3, n_points=40, n_measures=60)
    measures = inst.families["random"].measures
    solve_modulus_explicit(inst.space, measures, 3.0)
    U = _constraint_matrix(inst.space, measures)[0]
    _PlanProblem(inst.space, U, 3.0).barrier(np.full(len(U), 1.0 / len(U)), 0.0, 30)
    assert len(checked) > 30 and max(checked) == len(U)


def test_constraint_matrix_rows_match_dense_measures():
    # Each kept row is the measure's dense array on the positive-mass
    # points; a measure charging a zero-mass point is dropped, one with no
    # pairs is the zero measure, and a point outside the space is named.
    from modcap.modulus import _constraint_matrix

    for seed in range(6):
        inst = generate_random_instance(
            seed, n_points=25, n_measures=12, n_null_points=seed % 3
        )
        space = inst.space
        measures = list(inst.families["random"].measures)
        null_points = np.flatnonzero(space.measure == 0)
        if null_points.size:
            measures.insert(3, DiscreteMeasure(((0, 0.5), (int(null_points[0]), 1.0))))
        measures.insert(5, DiscreteMeasure(()))
        U, kept, dropped, has_zero = _constraint_matrix(space, measures)
        assert has_zero
        assert dropped == ((3,) if null_points.size else ())
        assert kept == [i for i in range(len(measures)) if i not in (5, *dropped)]
        assert U.shape == (len(kept), int(space.positive_mask.sum()))
        for row, i in zip(U, kept):
            dense = measures[i].to_array(space.n_points)[space.positive_mask]
            assert row.tobytes() == dense.tobytes()

    space = interval_space(4)
    assert _constraint_matrix(space, [])[1:] == ([], (), False)
    assert _constraint_matrix(space, [])[0].shape == (0, 4)
    for bad in (4, 10**30):  # a negative id never becomes a measure
        family = [
            DiscreteMeasure(((0, 1.0),)), DiscreteMeasure(()),
            DiscreteMeasure(((1, 1.0), (bad, 2.0))),
        ]
        with pytest.raises(InvalidInstanceError, match=f"measure 2 charges point {bad} "):
            _constraint_matrix(space, family)


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
    # One weight per point, and endpoints inside the space: a negative id
    # must not index from the end, an outside target is not unreachable.
    ones = np.ones(3)
    for src, tgt in (([-1], [0]), ([0], [5]), ([5], [0])):
        with pytest.raises(ValueError, match="not a point of the space"):
            shortest_weighted_path(space, ones, src, tgt)
    with pytest.raises(ValueError, match="one entry per point"):
        shortest_weighted_path(space, np.ones(2), [0], [2])
    # Endpoint ids are integers: a float id is refused, not used as an
    # index or truncated, and numpy integers come back as plain ints.
    from modcap.space import build_grid_space

    chain = build_grid_space(3, 1)
    for src, tgt in (([1.0], [0]), ([0], [1.5]), ([0], [2.0])):
        with pytest.raises(ValueError, match="not an integer point id"):
            shortest_weighted_path(chain, ones, src, tgt)
    for hops in (None, 2):
        path, _ = shortest_weighted_path(chain, ones, [np.int64(0)], [np.int64(2)], hops)
        assert path == (0, 1, 2) and all(type(pt) is int for pt in path)


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
    U = _constraint_matrix(inst.space, measures)[0]
    prob = _PlanProblem(inst.space, U, 3.0)
    w, steps, at = prob.barrier(np.full(len(measures), 1.0 / len(measures)), 0.0, 10000)
    assert 0 < steps < 10000
    assert at[2] == prob.evaluate(w)[2] <= 1e-8

    # ... and when the first-order phase hands over at once with a failed
    # polish, barrier plus polish on its support certify the solve.
    monkeypatch.setattr(mod, "_FIRST_POLISH", 1)
    polish = _PlanProblem.face_newton
    calls = []

    def polish_after_barrier(self, w, *at):
        calls.append(len(calls))
        return polish(self, w, *at) if len(calls) > 1 else (w, *at)

    monkeypatch.setattr(_PlanProblem, "face_newton", polish_after_barrier)
    sol = solve_modulus_explicit(inst.space, measures, 3.0, gap_tol=1e-13)
    assert len(calls) == 2
    assert sol.iterations > 1
    assert sol.gap <= 1e-12
    assert sol.value == pytest.approx(ref.value, rel=1e-10)


def test_path_solve_raises_at_the_round_cap():
    from modcap.space import build_grid_space, grid_node

    space = build_grid_space(4, 4)
    left = [grid_node(4, 0, y) for y in range(4)]
    right = [grid_node(4, 3, y) for y in range(4)]
    with pytest.raises(SolverError, match="within 1 rounds"):
        solve_modulus_paths(space, left, right, 2.0, max_outer=1)
    assert solve_modulus_paths(space, left, right, 2.0).outer_iterations > 1


def test_path_bracket_holds_for_the_whole_family():
    # A loose gap_tol ends constraint generation while some path still
    # integrates f to less than 1 (here about 0.93).  f is then divided by
    # the family's minimum, so that value, dual_value and gap bracket the
    # modulus of the whole family and not only of the working paths.
    from modcap.families import MeasureFamily, enumerate_family
    from modcap.space import build_grid_space, grid_node

    rng = np.random.default_rng([1, 4])
    space = build_grid_space(4, 4, rng.uniform(0.1, 1.0, 16))
    left = tuple(grid_node(4, 0, y) for y in range(4))
    right = tuple(grid_node(4, 3, y) for y in range(4))
    sol = solve_modulus_paths(space, left, right, 2.0, gap_tol=0.3)
    assert shortest_weighted_path(space, sol.f, left, right)[1] >= 1.0 - 1e-12
    # The division happened: every working path integrates f to more than 1.
    working = min(path_line_measure(space, pth).integrate(sol.f) for pth in sol.paths)
    assert working >= 1.05
    assert sol.value == pytest.approx(float(np.dot(space.measure, sol.f**2)), rel=1e-12)
    fam = enumerate_family(space, MeasureFamily("lr", "paths", source=left, target=right))
    exact = solve_modulus_explicit(space, fam.measures, 2.0, gap_tol=1e-12).value
    lower, gap = sol.dual_value, sol.gap
    assert lower <= exact * (1 + 1e-12) and exact <= sol.value * (1 + 1e-12)
    assert 0.05 <= (sol.value - lower) / sol.value <= min(gap, 0.3)


@pytest.mark.parametrize("gap_tol", [1e-2, 1e-6, 1e-9])
@pytest.mark.parametrize("p", [1.1, 2.0, 3.0, 12.0])
def test_path_solve_meets_gap_tol_or_raises(gap_tol, p):
    # gap_tol is the whole contract of a path solve: the bracket's relative
    # width is at most gap_tol and f is admissible for every path, or the
    # solve raises SolverError.
    from modcap.space import build_grid_space, grid_node

    for seed, side in ((0, 4), (1, 5), (2, 6)):
        rng = np.random.default_rng([seed, side])
        space = build_grid_space(side, side, rng.uniform(0.1, 1.0, side * side))
        left = [grid_node(side, 0, y) for y in range(side)]
        right = [grid_node(side, side - 1, y) for y in range(side)]
        try:
            sol = solve_modulus_paths(space, left, right, p, gap_tol=gap_tol)
        except SolverError:
            continue
        assert (sol.value - sol.dual_value) / sol.value <= gap_tol
        assert shortest_weighted_path(space, sol.f, left, right)[1] >= 1.0 - 1e-12


@pytest.mark.parametrize("seed, p", [(0, 2.0), (0, 3.0), (1, 2.0), (1, 3.0), (0, 1.1)])
def test_face_polish_returns_kkt_points(monkeypatch, seed, p):
    # Every plan the polish hands back satisfies the simplex KKT
    # conditions: G_i = phi on the support and G_i >= phi off it, with
    # G = grad phi / q and phi = w . G.
    from modcap.modulus import _PlanProblem

    polish, returned = _PlanProblem.face_newton, []

    def recorded(self, w, *at):
        out = polish(self, w, *at)
        phi, G = self.evaluate(out[0])[:2]
        returned.append((out[0] > 0, G / phi - 1.0))
        return out

    monkeypatch.setattr(_PlanProblem, "face_newton", recorded)
    inst = generate_random_instance(seed, n_points=200, n_measures=800)
    solve_modulus_explicit(inst.space, inst.families["random"].measures, p)
    assert returned
    for support, rel in returned:
        assert np.abs(rel[support]).max() <= 1e-9
        assert rel[~support].min(initial=0.0) >= -1e-9


def test_face_newton_evaluates_no_start_plan(monkeypatch):
    # The polish starts from the evaluate(w) its caller holds: in each call
    # its first Newton system is built before any potential or bracket, and
    # bracket runs at most once per Newton system (at the point the arc
    # search accepts).  The tuple it hands back is evaluate's at its plan.
    from modcap.modulus import _PlanProblem
    from modcap.space import grid_node

    log, calls = [], []  # events of the current polish; one count per polish

    def logged(name):
        method = getattr(_PlanProblem, name)

        def wrapper(self, *args):
            log.append(name)
            return method(self, *args)

        return wrapper

    polish = _PlanProblem.face_newton

    def recorded(self, w, *at):
        log.clear()
        out = polish(self, w, *at)
        calls.append(log.copy())
        assert log[0] == "hessian"
        assert log.count("bracket") <= log.count("hessian")
        phi, G, gap, h = self.evaluate(out[0])
        assert (out[1], out[3]) == (phi, gap)
        assert np.array_equal(out[2], G) and np.array_equal(out[4], h)
        return out

    for name in ("potential", "bracket", "hessian"):
        monkeypatch.setattr(_PlanProblem, name, logged(name))
    monkeypatch.setattr(_PlanProblem, "face_newton", recorded)
    for seed, p in ((0, 2.0), (1, 3.0), (2, 8.0)):
        inst = generate_random_instance(seed, n_points=60, n_measures=120)
        solve_modulus_explicit(inst.space, inst.families["random"].measures, p)
    space = build_grid_space(8, 8, np.random.default_rng(3).uniform(0.1, 1.0, 64))
    left = [grid_node(8, 0, y) for y in range(8)]
    right = [grid_node(8, 7, y) for y in range(8)]
    assert solve_modulus_paths(space, left, right, 2.0).outer_iterations > 2
    assert len(calls) > 5


def barrier_calls(inst, p):
    """Barrier entries of the plan solve of inst's family at p, from the uniform plan."""
    from modcap.modulus import _constraint_matrix, _PlanProblem

    class BarrierCount(_PlanProblem):
        calls = 0

        def barrier(self, *args):
            self.calls += 1
            return super().barrier(*args)

    measures = inst.families["random"].measures
    k = len(measures)
    U = _constraint_matrix(inst.space, measures)[0]
    prob = BarrierCount(inst.space, U, p)
    prob.solve(np.full(k, 1.0 / k), 1e-9, 100000)
    return prob.calls


@pytest.mark.parametrize(
    "seed, shape, p",
    [
        (2, dict(n_points=22, n_measures=32), 8.0),
        (0, dict(n_points=34, n_measures=38, sparsity=0.3428080423874833), 12.0),
    ],
)
def test_barrier_certifies_at_both_ends_of_p(seed, shape, p):
    # At p = 8 and p = 12 these seeded families (found by a search over
    # seeds) defeat the face polish, so the solve reaches the barrier on
    # its own.  The certified bracket must agree with the primal solver.
    inst = generate_random_instance(seed, **shape)
    measures = inst.families["random"].measures
    assert barrier_calls(inst, p) == 1
    sol = solve_modulus_explicit(inst.space, measures, p)
    assert sol.gap <= 1e-9
    primal = _solve_modulus_primal(inst.space, measures, p)[0]
    assert primal >= sol.dual_value * (1.0 - 1e-12)
    assert primal == pytest.approx(sol.value, rel=1e-6)


def test_face_polish_keeps_its_least_gap_iterate():
    # At p = 8 the polish of this family reaches a gap of about 1e-12, then
    # cycles between two faces until the revisit rule gives up.  It hands
    # back its least-gap iterate, which certifies without the barrier.
    inst = generate_random_instance(7, n_points=31, n_measures=44, sparsity=0.25809005854230316)
    measures = inst.families["random"].measures
    assert barrier_calls(inst, 8.0) == 0
    sol = solve_modulus_explicit(inst.space, measures, 8.0)
    assert sol.gap <= 1e-9
    primal = _solve_modulus_primal(inst.space, measures, 8.0)[0]
    assert primal == pytest.approx(sol.value, rel=1e-6)


@pytest.mark.parametrize(
    "seed, shape, p",
    [
        (748, dict(n_points=9, n_measures=28, sparsity=0.5808231501795296), 1.1),
        (11, dict(n_points=16, n_measures=8), 12.0),
        (24, dict(n_points=5, n_measures=6, sparsity=0.849379732888058), 1.1),
        (0, dict(n_points=34, n_measures=38, sparsity=0.3428080423874833), 3.0),
    ],
)
def test_face_polish_certifies_when_it_revisits_a_face_at_lower_phi(seed, shape, p):
    # Each of these families makes the polish return to a support it left,
    # at a lower phi than when it left it.  Giving up there sent them to the
    # barrier; the polish now goes on and certifies them alone.
    inst = generate_random_instance(seed, **shape)
    measures = inst.families["random"].measures
    assert barrier_calls(inst, p) == 0
    sol = solve_modulus_explicit(inst.space, measures, p)
    assert sol.gap <= 1e-9
    primal = _solve_modulus_primal(inst.space, measures, p)[0]
    assert primal == pytest.approx(sol.value, rel=1e-6)


@pytest.mark.parametrize(
    "seed, shape, value",
    [
        (1006, dict(n_points=10, n_measures=2, n_null_points=2), 0.6416762843205124),
        (1031, dict(n_points=4, n_measures=13, n_null_points=3), 3.4727208836877947),
    ],
)
def test_simplex_projection_of_huge_gradients(seed, shape, value):
    # At p = 1.01 the first gradient step projects entries near -2e21,
    # where u[0] - 1 rounds to u[0]; the projection shifts by max(v) first.
    inst = generate_random_instance(seed, **shape)
    measures = inst.families["random"].measures
    sol = solve_modulus_explicit(inst.space, measures, 1.01)
    assert sol.gap <= 1e-9
    assert sol.value == pytest.approx(value, rel=1e-12)
    primal = _solve_modulus_primal(inst.space, measures, 1.01)[0]
    assert primal == pytest.approx(sol.value, rel=1e-12)


def average(a, b):
    acc = dict(a.items)
    for i, w in b.items:
        acc[i] = acc.get(i, 0.0) + w
    return DiscreteMeasure.from_dict({i: w / 2 for i, w in acc.items()})


def degenerate_case(name, p):
    """The solve of a degenerate family, oracle brackets of its modulus,
    and the primal oracle's value (None for a path family)."""
    from modcap.space import build_grid_space, grid_node

    if name in ("duplicates", "average"):
        inst = generate_random_instance(7, n_points=4, n_measures=4)
        space, base = inst.space, list(inst.families["random"].measures)
        extra = [base[0], base[2]] if name == "duplicates" else [average(*base[:2])]
        family = base + extra
        # The base family implies every added constraint: same modulus.
        ref = solve_modulus_explicit(space, base, p)
        oracles = [brute_force_lattice(space, family, p), (ref.dual_value, ref.value)]
        return explicit_case(space, family, p, oracles)
    if name == "more_measures_than_points":
        inst = generate_random_instance(5, n_points=3, n_measures=60)
        space, family = inst.space, inst.families["random"].measures
        return explicit_case(space, family, p, [brute_force_lattice(space, family, p)])
    if name == "grid_rows_and_columns":
        # The rows sum to the columns.  Permuting rows, permuting columns
        # and transposing leave the family unchanged and move any point to
        # any other, so the unique optimal f is constant: f = 5.
        space = build_grid_space(5, 5)
        lines = [[grid_node(5, x, y) for x in range(5)] for y in range(5)]
        columns = [list(pts) for pts in zip(*lines)]
        family = [restriction(space, pts) for pts in lines + columns]
        return explicit_case(space, family, p, [(5.0**p, 5.0**p)])
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
    return lambda: solve_modulus_paths(space, left, right, p), [(exact, exact)], None


def explicit_case(space, family, p, oracles):
    return (
        lambda: solve_modulus_explicit(space, family, p),
        oracles,
        lambda: _solve_modulus_primal(space, family, p)[0],
    )


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
    # certifies a bracket that meets every oracle's, and on an explicit
    # family the primal oracle's value, or raises SolverError.
    solve, oracles, primal = degenerate_case(name, p)
    try:
        sol = solve()
    except SolverError:
        return
    assert sol.gap <= 1e-9
    for lower, upper in oracles:
        assert lower <= sol.value * (1 + 1e-12)
        assert sol.dual_value <= upper * (1 + 1e-12)
    if primal is not None:
        assert primal() == pytest.approx(sol.value, rel=1e-6)


@pytest.mark.parametrize("p", [1.1, 2.0, 12.0])
@pytest.mark.parametrize("seed", range(40))
def test_seeded_family_is_certified_or_refused(seed, p):
    # Random families on at most 4 positive-mass points, some with
    # zero-mass points, at both ends of p: the solve either certifies a
    # bracket that meets the lattice bracket and the primal oracle's
    # value, or raises SolverError.
    n_points = 3 + seed % 4
    inst = generate_random_instance(
        seed,
        n_points=n_points,
        n_measures=1 + (5 * seed) % 9,
        n_null_points=max(0, n_points - 4),
    )
    measures = inst.families["random"].measures
    try:
        sol = solve_modulus_explicit(inst.space, measures, p)
    except SolverError:
        return
    lower, upper = brute_force_lattice(inst.space, measures, p)
    assert sol.gap <= 1e-9
    assert lower <= sol.value * (1 + 1e-12)
    assert sol.dual_value <= upper * (1 + 1e-12)
    assert _solve_modulus_primal(inst.space, measures, p)[0] == pytest.approx(
        sol.value, rel=1e-6
    )


def oracle_families():
    """Random families of 4-20 points, half of them with a zero-mass
    point, then a family with duplicated measures and the average of two,
    and a 12-point family: at the ends of p each has defeated an oracle
    that stepped along the energy gradient."""
    for s in range(24):
        inst = generate_random_instance(
            500 + s,
            n_points=4 + s % 17,
            n_measures=3 + (5 * s) % 23,
            n_null_points=s % 2,
        )
        yield inst.space, inst.families["random"].measures
    inst = generate_random_instance(7, n_points=5, n_measures=4)
    base = list(inst.families["random"].measures)
    yield inst.space, base + [base[0], base[2], average(*base[:2])]
    inst = generate_random_instance(3, n_points=12, n_measures=6)
    yield inst.space, inst.families["random"].measures


@pytest.mark.parametrize("p", [1.05, 1.1, 5.0, 8.0, 12.0])
def test_primal_oracle_meets_the_certified_bracket(p):
    # At the ends of p the plan solve's weights and the density span many
    # orders of magnitude; the primal oracle's value must still reach the
    # certified lower end, to rounding, and lie within 1e-6 of the upper.
    for space, family in oracle_families():
        sol = solve_modulus_explicit(space, family, p)
        value = _solve_modulus_primal(space, family, p)[0]
        assert value >= sol.dual_value * (1 - 1e-12)
        assert value == pytest.approx(sol.value, rel=1e-6)


def test_lattice_refuses_five_points_before_allocating():
    import tracemalloc

    inst = generate_random_instance(1, n_points=6, n_measures=2, n_null_points=1)
    measures = inst.families["random"].measures
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInstanceError, match="at most 4 positive-mass points, got 5"):
            brute_force_lattice(inst.space, measures, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Its 21^5-point lattice would take about 500 MB.
    assert peak < 1e6
