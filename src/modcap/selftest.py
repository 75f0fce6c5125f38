"""Built-in acceptance suite: nine numbered end-to-end checks.

Each criterion builds its own instances, runs the relevant solvers, and
returns a pass/fail record with a one-line detail string.  The CLI
``selftest`` command and the acceptance tests both run these.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .curves import (
    ParametricCurve,
    constant_speed_reparam,
    curve_energy,
    curve_length,
    edge_multiplicity,
    j_map,
    m_map,
    metric_speed,
)
from .duality import _lq_norm, check_duality, check_optimality_conditions, content_from_multipliers
from .errors import InvalidInstanceError
from .families import MeasureFamily, enumerate_family
from .gradients import (
    check_upper_gradient,
    equivalence_experiment,
    modulus_of_violating_family,
)
from .instance import generate_random_instance, random_walk_curve
from .modulus import (
    _ROUNDING,
    _solve_modulus_primal,
    brute_force_lattice,
    saturated_subfamily,
    solve_modulus_explicit,
    solve_modulus_paths,
)
from .plans import (
    CurvePlan,
    bridge_inequality,
    improve_barycenter,
    stretch_average,
    testplan_check,
)
from .space import (
    DiscreteMeasure,
    MetricMeasureSpace,
    build_grid_space,
    grid_node,
    trapezoid_grid_weights,
)

__all__ = ["CriterionResult", "CRITERIA", "run_selftest"]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number} {mark}: {self.title} ({self.detail})"


def _finish(
    number: int, title: str, fails: list[str], detail: str, t0: float
) -> CriterionResult:
    if fails:
        detail = "; ".join(fails[:4]) + (f"; +{len(fails) - 4} more" if len(fails) > 4 else "")
    return CriterionResult(number, title, not fails, detail, time.perf_counter() - t0)


def criterion_interval_halves() -> CriterionResult:
    """Unit-interval family {left half, right half, whole}: value 2^p, f = 2."""
    t0 = time.perf_counter()
    n = 200
    space = MetricMeasureSpace(
        n, [(i, i + 1, 1.0 / n) for i in range(n - 1)], np.full(n, 1.0 / n)
    )
    m = space.measure
    half = n // 2
    measures = [
        DiscreteMeasure(tuple((i, float(m[i])) for i in range(half))),
        DiscreteMeasure(tuple((i, float(m[i])) for i in range(half, n))),
        DiscreteMeasure(tuple((i, float(m[i])) for i in range(n))),
    ]
    fails: list[str] = []
    worst_val = worst_f = slowest = 0.0
    for p in (1.5, 2.0, 3.0):
        tp = time.perf_counter()
        sol = solve_modulus_explicit(space, measures, p, gap_tol=1e-11)
        dt = time.perf_counter() - tp
        slowest = max(slowest, dt)
        rel = abs(sol.value - 2.0**p) / 2.0**p
        dev = float(np.abs(sol.f - 2.0).max())
        worst_val = max(worst_val, rel)
        worst_f = max(worst_f, dev)
        if rel > 1e-6:
            fails.append(f"p={p}: value off by {rel:.2e}")
        if dev > 1e-4:
            fails.append(f"p={p}: sup|f-2| = {dev:.2e}")
        sat = saturated_subfamily(sol, measures).indices
        if sat != (0, 1):
            fails.append(f"p={p}: saturated set {sat}, expected halves only")
        if dt >= 1.0:
            fails.append(f"p={p}: solve took {dt:.2f}s, budget 1s")
    detail = (
        f"max value error {worst_val:.1e}, max |f-2| {worst_f:.1e}, "
        f"slowest p {slowest * 1e3:.0f} ms"
    )
    return _finish(1, "two-halves interval family", fails, detail, t0)


def criterion_duality_random() -> CriterionResult:
    """Value identity, slackness, and barycenter identity on 50 seeds."""
    t0 = time.perf_counter()
    fails: list[str] = []
    worst_val = worst_slack = worst_bary = 0.0
    for s in range(50):
        n = 10 + (7 * s) % 41
        k = 3 + (5 * s) % 18
        p = 2.0 if s % 2 == 0 else 3.0
        inst = generate_random_instance(s, n_points=n, n_measures=k)
        space = inst.space
        measures = inst.families["random"].measures
        sol = solve_modulus_explicit(space, measures, p, gap_tol=1e-11)
        content = content_from_multipliers(space, measures, sol, p / (p - 1.0))
        cert = check_duality(space, sol, content, p)
        opt = check_optimality_conditions(space, sol, content, p)
        worst_val = max(worst_val, cert.rel_gap)
        worst_slack = max(worst_slack, opt.saturation_max_dev)
        worst_bary = max(worst_bary, opt.barycenter_max_dev)
        if not cert.ok:
            fails.append(f"seed {s}: |Mod^(1/p) - C| = {cert.rel_gap:.2e}")
        if opt.violated:
            fails.append(f"seed {s}: {', '.join(opt.violated)} violated")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        fails.append(f"suite took {elapsed:.1f}s, budget 60s")
    detail = (
        f"50 seeds: worst value gap {worst_val:.1e}, slack {worst_slack:.1e}, "
        f"barycenter dev {worst_bary:.1e}, {elapsed:.1f}s"
    )
    return _finish(2, "duality identity on random instances", fails, detail, t0)


def criterion_vertical_columns() -> CriterionResult:
    """Column family on k-by-k grids: unit modulus, marginal constant k."""
    t0 = time.perf_counter()
    fails: list[str] = []
    trend: list[tuple[int, float]] = []
    for k in (8, 16, 32):
        space = build_grid_space(k, k)
        cols = [
            DiscreteMeasure(tuple((grid_node(k, x, y), 1.0 / k) for y in range(k)))
            for x in range(k)
        ]
        for p in (1.5, 2.0, 3.0):
            sol = solve_modulus_explicit(space, cols, p, gap_tol=1e-11)
            if abs(sol.value - 1.0) > 1e-9:
                fails.append(f"k={k} p={p}: modulus {sol.value!r} is not 1")
        curves = tuple(
            ParametricCurve(
                tuple(grid_node(k, x, y) for y in range(k)),
                tuple(y / (k - 1) for y in range(k)),
            )
            for x in range(k)
        )
        plan = CurvePlan(curves, tuple(1.0 / k for _ in range(k)))
        rep = testplan_check(space, plan)
        if rep.c_min != float(k):
            fails.append(f"k={k}: marginal constant {rep.c_min!r}, expected {k} exactly")
        trend.append((k, rep.c_min))
    ratios = {c / k for k, c in trend}
    if ratios != {1.0}:
        fails.append(f"marginal constant is not proportional to k: {trend}")
    detail = "modulus 1 at every (k, p); " + ", ".join(
        f"C_min(k={k})={c:g}" for k, c in trend
    )
    return _finish(3, "vertical columns stay unit modulus while C_min grows", fails, detail, t0)


def _grid_capacity(k: int) -> float:
    """Connecting capacity of the k-by-k finite-volume grid, p = 2.

    Minimizes the conductance-weighted Dirichlet energy with u = 0 on
    the left column and u = 1 on the right column; the interior
    harmonic system is solved directly as one linear solve.
    """
    h = 1.0 / (k - 1)
    w1 = np.full(k, h)
    w1[0] *= 0.5
    w1[-1] *= 0.5
    # conductances: horizontal edge in row y gets w1[y]/h, vertical edge
    # in column x gets w1[x]/h.
    free = [(x, y) for y in range(k) for x in range(1, k - 1)]
    index = {pt: i for i, pt in enumerate(free)}
    nfree = len(free)
    A = np.zeros((nfree, nfree))
    b = np.zeros(nfree)

    def fixed_value(x: int) -> float | None:
        if x == 0:
            return 0.0
        if x == k - 1:
            return 1.0
        return None

    for (x, y), i in index.items():
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nx, ny = x + dx, y + dy
            if not (0 <= nx < k and 0 <= ny < k):
                continue
            cond = (w1[y] if dy == 0 else w1[x]) / h
            A[i, i] += cond
            fv = fixed_value(nx)
            if fv is None:
                A[i, index[(nx, ny)]] -= cond
            else:
                b[i] += cond * fv
    u = np.zeros((k, k))
    u[:, k - 1] = 1.0
    sol = np.linalg.solve(A, b)
    for (x, y), i in index.items():
        u[y, x] = sol[i]
    energy = 0.0
    for y in range(k):
        for x in range(k - 1):
            energy += w1[y] / h * (u[y, x + 1] - u[y, x]) ** 2
    for x in range(k):
        for y in range(k - 1):
            energy += w1[x] / h * (u[y + 1, x] - u[y, x]) ** 2
    return float(energy)


def criterion_capacity_crosscheck() -> CriterionResult:
    """Left-right path modulus against an independent harmonic solve."""
    t0 = time.perf_counter()
    fails: list[str] = []
    details: list[str] = []
    for k in (8, 16):
        space = build_grid_space(k, k, trapezoid_grid_weights(k, k))
        source = [grid_node(k, 0, y) for y in range(k)]
        target = [grid_node(k, k - 1, y) for y in range(k)]
        sol = solve_modulus_paths(space, source, target, 2.0, gap_tol=1e-10)
        cap = _grid_capacity(k)
        rel = abs(sol.value - cap) / max(cap, 1e-30)
        details.append(
            f"k={k}: modulus {sol.value:.9f} vs capacity {cap:.9f} "
            f"({len(sol.paths)} paths generated)"
        )
        if rel > 1e-4:
            fails.append(f"k={k}: relative gap {rel:.2e} exceeds 1e-4")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        fails.append(f"took {elapsed:.1f}s, budget 10s")
    return _finish(4, "connecting capacity cross-check", fails, "; ".join(details), t0)


def criterion_solver_agreement() -> CriterionResult:
    """Dual vs primal solver agreement plus brute-force bracketing.

    Values and barycenters f^(p-1) / Mod at each seed's p and at p = 5, 8, 12;
    densities to 1e-5 at p <= 3, and at p > 3, where the bracket pins f far
    more loosely, within the sum of the two solvers' Clarkson balls.
    """
    t0 = time.perf_counter()
    fails: list[str] = []
    worst_dv = worst_df = worst_db = worst_ball = 0.0
    for s in range(40):
        n = 5 + s % 8
        k = 2 + (3 * s) % 7
        inst = generate_random_instance(s, n_points=n, n_measures=k)
        measures = inst.families["random"].measures
        for p in ((1.5, 2.0, 2.5, 3.0)[s % 4], 5.0, 8.0, 12.0):
            dual = solve_modulus_explicit(inst.space, measures, p, gap_tol=1e-11)
            prim_value, prim_f = _solve_modulus_primal(inst.space, measures, p)
            dv = abs(dual.value - prim_value) / max(1.0, dual.value)
            bary, q = dual.f ** (p - 1.0) / dual.value, p / (p - 1.0)
            dev = np.abs(bary - prim_f ** (p - 1.0) / prim_value)
            db = _lq_norm(inst.space, dev, q) / _lq_norm(inst.space, bary, q)
            worst_dv, worst_db = max(worst_dv, dv), max(worst_db, db)
            if dv > 1e-6:
                fails.append(f"seed {s} p={p}: value deviation {dv:.2e}")
            if db > 1e-6:
                fails.append(f"seed {s} p={p}: barycenter deviation {db:.2e}")
            if p > 3.0:  # Clarkson: energy (1 + e) Mod puts f within 2 (e/2)^(1/p) Mod^(1/p) of f*
                low = dual.dual_value * (1.0 - _ROUNDING * p)
                excess = (max(v / low - 1.0, 0.0) for v in (dual.value, prim_value))
                radii = sum(2.0 * (e / 2.0) ** (1.0 / p) for e in excess) * dual.value ** (1.0 / p)
                ball = _lq_norm(inst.space, np.abs(dual.f - prim_f), p) / radii
                worst_ball = max(worst_ball, ball)
                if ball > 1.0:
                    fails.append(f"seed {s} p={p}: density outside its balls ({ball:.2f})")
                continue
            df = float(np.abs(dual.f - prim_f).max()) / max(1.0, float(np.abs(dual.f).max()))
            worst_df = max(worst_df, df)
            if df > 1e-5:
                fails.append(f"seed {s}: density deviation {df:.2e}")
    brackets = 0
    for s in range(10):
        n, k = (4, 3) if s % 2 == 0 else (3, 2)
        p = (1.5, 2.0, 3.0)[s % 3]
        inst = generate_random_instance(200 + s, n_points=n, n_measures=k)
        measures = inst.families["random"].measures
        sol = solve_modulus_explicit(inst.space, measures, p, gap_tol=1e-11)
        lo, hi = brute_force_lattice(inst.space, measures, p)
        if not (lo - 1e-12 <= sol.value <= hi + 1e-12):
            fails.append(
                f"seed {200 + s}: value {sol.value:.8f} outside [{lo:.8f}, {hi:.8f}]"
            )
        else:
            brackets += 1
    detail = (
        f"40 seeds: worst value dev {worst_dv:.1e}, barycenter dev {worst_db:.1e}, "
        f"density dev {worst_df:.1e}, ball ratio {worst_ball:.2f}; "
        f"{brackets}/10 lattice brackets hold"
    )
    return _finish(5, "independent solvers agree", fails, detail, t0)


def criterion_curve_calculus() -> CriterionResult:
    """Line/occupation measure identities on 1000 random walks."""
    t0 = time.perf_counter()
    space = build_grid_space(6, 6)
    rng = np.random.default_rng(606)
    fails: list[str] = []
    occupation_moved = 0
    for i in range(1000):
        c = random_walk_curve(space, rng, int(rng.integers(1, 13)))
        ell = curve_length(space, c)
        jm = j_map(space, c)
        if abs(jm.total - ell) > 1e-12 * max(1.0, ell):
            fails.append(f"walk {i}: line-measure mass {jm.total!r} vs length {ell!r}")
        rebuilt: dict[int, float] = {}
        for (u, v), count in edge_multiplicity(space, c).items():
            mass = count * space.edge_length(u, v)
            rebuilt[u] = rebuilt.get(u, 0.0) + 0.5 * mass
            rebuilt[v] = rebuilt.get(v, 0.0) + 0.5 * mass
        if DiscreteMeasure.from_dict(rebuilt).items != jm.items:
            fails.append(f"walk {i}: line measure differs from multiplicity formula")
        rep = constant_speed_reparam(space, c)
        jr = j_map(space, rep)
        if jr.items != jm.items:
            fails.append(f"walk {i}: line measure changed under reparameterization")
        dev = float(
            np.abs(
                m_map(space, c).to_array(space.n_points)
                - m_map(space, rep).to_array(space.n_points)
            ).max()
        )
        if dev > 1e-6:
            occupation_moved += 1
        e = curve_energy(space, c, 2.0)
        scale = max(1.0, ell * ell)
        if e < ell * ell - 1e-12 * scale:
            fails.append(f"walk {i}: energy {e!r} below squared length {ell * ell!r}")
        er = curve_energy(space, rep, 2.0)
        if abs(er - ell * ell) > 1e-9 * scale:
            fails.append(f"walk {i}: constant-speed energy misses equality by {abs(er - ell * ell):.2e}")
        if abs(e - ell * ell) <= 1e-9 * scale:
            sp = metric_speed(space, c)
            if float(sp.max() - sp.min()) > 1e-4 * max(1.0, ell):
                fails.append(f"walk {i}: energy equality without constant speed")
    if occupation_moved == 0:
        fails.append("occupation measure never changed under reparameterization")
    detail = (
        f"1000 walks: identities hold, occupation measure moved on "
        f"{occupation_moved} of them"
    )
    return _finish(6, "curve calculus identities", fails, detail, t0)


def _seeded_plan(
    space, rng: np.random.Generator, n_curves: int, max_steps: int = 8
) -> CurvePlan:
    curves = []
    while len(curves) < n_curves:
        c = random_walk_curve(space, rng, int(rng.integers(2, max_steps + 1)))
        if len(set(c.nodes)) == 1:
            continue
        curves.append(c)
    w = rng.uniform(0.2, 1.0, size=n_curves)
    w = w / w.sum()
    return CurvePlan(tuple(curves), tuple(float(x) for x in w))


def criterion_barycenter_improvement() -> CriterionResult:
    """Time-changed plans gain the 1/z barycenter bound and the energy bridge."""
    t0 = time.perf_counter()
    space = build_grid_space(5, 5)
    fails: list[str] = []
    worst_sup = worst_z = 0.0
    for s in range(20):
        rng = np.random.default_rng(700 + s)
        plan = _seeded_plan(space, rng, 3 + s % 4)
        q = (1.5, 2.0, 3.0)[s % 3]
        eps = (0.05, 0.1, 0.25)[s % 3]
        res = improve_barycenter(space, plan, q, eps)
        excess = res.new_barycenter_sup - 1.0 / res.z
        worst_sup = max(worst_sup, excess)
        if not res.barycenter_ok:
            fails.append(f"seed {s}: barycenter exceeds 1/z by {excess:.2e}")
        zslack = res.z - 1.0 / eps
        worst_z = max(worst_z, zslack)
        if zslack > 1e-12:
            fails.append(f"seed {s}: z exceeds 1/eps by {zslack:.2e}")
        for tag, pl in (("input", plan), ("output", res.plan)):
            br = bridge_inequality(space, pl, q)
            if not br.ok:
                fails.append(
                    f"seed {s}: {tag} plan breaks the energy bridge "
                    f"({br.c_q:.6f} > {br.rhs:.6f})"
                )
    detail = (
        f"20 plans: worst barycenter excess {worst_sup:.1e}, "
        f"worst z slack {worst_z:.1e}, all bridges hold"
    )
    return _finish(7, "barycenter-improving reparameterization", fails, detail, t0)


def criterion_stretch_certificate() -> CriterionResult:
    """Stretch-average marginal bound with halving quadrature term."""
    t0 = time.perf_counter()
    space = build_grid_space(4, 4)
    fails: list[str] = []
    worst_ratio_err = 0.0
    for s in range(10):
        rng = np.random.default_rng(800 + s)
        plan = _seeded_plan(space, rng, 2 + s % 3, max_steps=5)
        r64 = stretch_average(space, plan, 0.25, 64)
        r128 = stretch_average(space, plan, 0.25, 128)
        if not r64.marginal_ok:
            fails.append(f"seed {s}: n_tau=64 marginal breaks its bound")
        if not r128.marginal_ok:
            fails.append(f"seed {s}: n_tau=128 marginal breaks its bound")
        if r64.correction <= 0:
            fails.append(f"seed {s}: vanishing quadrature correction")
            continue
        err = abs(r128.correction - 0.5 * r64.correction) / r64.correction
        worst_ratio_err = max(worst_ratio_err, err)
        if err > 1e-12:
            fails.append(
                f"seed {s}: correction ratio {r128.correction / r64.correction!r} "
                f"is not one half"
            )
    detail = (
        f"10 plans: both certificates hold, halving error {worst_ratio_err:.1e}"
    )
    return _finish(8, "stretch-average marginal certificate", fails, detail, t0)


def criterion_gradient_checks() -> CriterionResult:
    """Calibrated pairs, step pairs, and the negligibility implication."""
    t0 = time.perf_counter()
    fails: list[str] = []

    # Calibrated pair on a chain: f = position, g = 1 integrates exactly.
    n = 12
    chain = build_grid_space(n, 1)
    f_pos = chain.coords[:, 0].copy()
    ones = np.ones(n)
    curves = [
        ParametricCurve(tuple(range(i, j + 1)), tuple(np.linspace(0.0, 1.0, j - i + 1)))
        for i in range(n)
        for j in range(i + 1, n)
    ]
    rng = np.random.default_rng(900)
    curves += [random_walk_curve(chain, rng, int(rng.integers(1, 15))) for _ in range(200)]
    rep = check_upper_gradient(chain, f_pos, ones, curves)
    if rep.n_violations:
        fails.append(f"calibrated pair: {rep.n_violations} violations")

    # Step pair on a 3x3 grid: every left-right path violates, so the
    # violating family is the connecting family and the two solvers
    # must agree.
    k = 3
    grid = build_grid_space(k, k)
    left = [grid_node(k, 0, y) for y in range(k)]
    right = [grid_node(k, k - 1, y) for y in range(k)]
    fam = enumerate_family(
        grid, MeasureFamily("lr", "paths", source=tuple(left), target=tuple(right))
    )
    step_curves = [
        ParametricCurve(path, tuple(np.linspace(0.0, 1.0, len(path))))
        for path in fam.paths
    ]
    f_step = np.where(grid.coords[:, 0] >= 1.0, 1.0, 0.0)
    viol = modulus_of_violating_family(
        grid, f_step, np.zeros(k * k), step_curves, 2.0
    )
    if viol.n_violations != len(step_curves):
        fails.append(
            f"step pair: {viol.n_violations} of {len(step_curves)} paths violate"
        )
    cg = solve_modulus_paths(grid, left, right, 2.0)
    dev = abs(viol.modulus_of_violations - cg.value) / max(1.0, cg.value)
    if dev > 1e-6:
        fails.append(f"step pair: family moduli differ by {dev:.2e}")

    # Slope-calibrated random pairs: the violating family is null, so
    # every test plan must give the violators probability zero.
    implication_seeds = 0
    for s in range(10):
        space = build_grid_space(4, 4)
        rng = np.random.default_rng(910 + s)
        fv = rng.uniform(0.0, 1.0, space.n_points)
        g = np.zeros(space.n_points)
        for u in range(space.n_points):
            g[u] = max(
                abs(fv[u] - fv[v]) / ell for v, ell in space.neighbors(u)
            )
        walk_curves = [
            random_walk_curve(space, rng, int(rng.integers(1, 9))) for _ in range(100)
        ]
        plans = [_seeded_plan(space, rng, 3) for _ in range(2)]
        record = equivalence_experiment(space, fv, g, walk_curves, plans, 2.0)
        if record.modulus_of_violations > 1e-10:
            fails.append(f"seed {s}: slope pair has violating modulus")
        if not record.implication_ok:
            fails.append(f"seed {s}: negligibility implication broken")
        else:
            implication_seeds += 1
    detail = (
        f"calibrated clean, step-family moduli agree to {dev:.1e}, "
        f"implication holds on {implication_seeds}/10 seeds"
    )
    return _finish(9, "upper-gradient checks", fails, detail, t0)


CRITERIA = (
    criterion_interval_halves,
    criterion_duality_random,
    criterion_vertical_columns,
    criterion_capacity_crosscheck,
    criterion_solver_agreement,
    criterion_curve_calculus,
    criterion_barycenter_improvement,
    criterion_stretch_certificate,
    criterion_gradient_checks,
)


def run_selftest(numbers: tuple[int, ...] | None = None) -> tuple[CriterionResult, ...]:
    """Run the acceptance criteria (all, or a chosen subset) in order."""
    chosen = numbers or tuple(range(1, len(CRITERIA) + 1))
    out = []
    for num in chosen:
        if not 1 <= num <= len(CRITERIA):
            raise InvalidInstanceError(f"no criterion numbered {num}")
        out.append(CRITERIA[num - 1]())
    return tuple(out)
