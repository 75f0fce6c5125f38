"""Workloads of the modcap benchmark: inputs, ops and output checks.

There are two workloads.  ``modulus`` holds the ops of two kinds,
``explicit`` and ``paths``, in one round; ``plans`` holds the ops of the
kind ``plans``.  An op's key starts with its kind.

Each kind is a fixed pool of base inputs built with modcap's own
generators from fixed seeds, so the pool always holds the known hard
cases (the k=800, p=3 stall on instance seed 1, the 32x32 p=2 path
stall and the zero-mass grid).  Every input is loaded from its document
form with ``instance_from_dict``, the load path of the CLI.

The workload seed orders the ops of a round.  On ``plans`` it also
relabels the inputs: a seeded permutation of the point ids.  That leaves
every marginal constant unchanged to the last bit, so one stored
reference per base op checks the outputs on any seed.  ``explicit`` and
``paths`` ops keep their base labels: their solvers' trajectories are
chaotic in the labels (a relabelling turned the 2 s 24x24 p=2 path
solve into a 12 s stall, stretched the 32x32 stall from 35 s to 118 s,
and moved explicit iteration counts by a factor of three), so a
relabelled input would measure a different problem on every seed.

Grids of the three kinds:

* ``explicit``: ``generate_random_instance(s, n_points=200, n_measures=k)``
  for instance seeds s = 0, 1, k in {200, 800}, p in {2, 3}: 8 ops.
  An op is the ``modcap duality`` pipeline.
* ``paths``: left-right path families on k x k grids, k in {16, 24, 32},
  p in {2, 3}, point masses uniform in [0.1, 1]; plus one 12 x 12 grid
  with three zero-mass points at p = 2: 7 ops.  An op is
  ``solve_modulus_paths``.
* ``plans``: random-walk curve plans (2 to 4 curves) on 4x4 and 8x8
  grids, 4 plans per grid, each at n_tau in {64, 128}: 16 ops.  An op
  is stretch_average, check_w1p_pair on the stretched plan, then
  improve_barycenter and bridge_inequality on the result.

``explicit`` and ``paths`` share one workload because both spend nearly
all their time in the modulus engine, and because each run of the paths
kind lasts most of a minute (the 32x32 stall): on a shared two-core
machine a run needs that long for its timings to settle, and three
workloads of such runs would not fit the benchmark's time budget.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import modcap as mc

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Output tolerances of the checks.
CERT_TOL = 1e-6  # relative gap of Mod^(1/p) against the content
MODULUS_REL_TOL = 1e-6  # stored reference moduli and the paths bracket
ADMISSIBLE_TOL = 1e-9  # shortest path integral of f must reach 1 - this
EXACT_SUP_REL_TOL = 1e-12  # stored exact_sup (c_min is compared exactly)

EXPLICIT_SEEDS = range(2)
EXPLICIT_KS = (200, 800)
EXPLICIT_N_POINTS = 200
PS = (2.0, 3.0)

PATH_GRIDS = (16, 24, 32)
PATH_MASS_SEED = 7
ZERO_MASS_GRID = 12
ZERO_MASS_POINTS = 3

PLAN_SIDES = (4, 8)
PLANS_PER_SIDE = 4
PLAN_SEED = 11
PLAN_MAX_STEPS = {4: 5, 8: 10}
N_TAUS = (64, 128)
STRETCH_EPS = 0.25
IMPROVE_EPS = 0.1
PLAN_Q = 2.0


@dataclass
class Op:
    """One user-level request.

    ``run`` is the timed user pipeline; ``check`` inspects its output
    outside the timed region and returns None or the reason it failed.
    """

    key: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def load_reference() -> dict[str, Any]:
    return json.loads(REFERENCE_FILE.read_text())


# ---------------------------------------------------------------- inputs


def _relabel(doc: dict[str, Any], rng: np.random.Generator) -> dict[str, Any]:
    """Plans instance document with its point ids permuted."""
    n = doc["space"]["n_points"]
    pid = [int(x) for x in rng.permutation(n)]

    def per_point(values):
        out = [None] * n
        for i, v in enumerate(values):
            out[pid[i]] = v
        return out

    space = doc["space"]
    out = dict(doc)
    out["space"] = {
        "n_points": n,
        "edges": [[pid[u], pid[v], ell] for u, v, ell in space["edges"]],
        "measure": per_point(space["measure"]),
        "coords": per_point(space["coords"]),
    }
    out["curves"] = {
        name: {"nodes": [pid[i] for i in c["nodes"]], "times": c["times"]}
        for name, c in doc["curves"].items()
    }
    out["columns"] = {k: per_point(v) for k, v in doc["columns"].items()}
    return out


def _load(base: "mc.Instance", rng: np.random.Generator | None) -> "mc.Instance":
    doc = mc.instance.instance_to_dict(base)
    if rng is not None:
        doc = _relabel(doc, rng)
    return mc.instance.instance_from_dict(doc)


def _explicit_bases():
    for s in EXPLICIT_SEEDS:
        for k in EXPLICIT_KS:
            inst = mc.instance.generate_random_instance(
                s, n_points=EXPLICIT_N_POINTS, n_measures=k
            )
            yield f"k{k}/s{s}", inst, PS


def _grid_instance(side: int, weights: np.ndarray, name: str) -> "mc.Instance":
    space = mc.space.build_grid_space(side, side, weights)
    left = tuple(mc.space.grid_node(side, 0, y) for y in range(side))
    right = tuple(mc.space.grid_node(side, side - 1, y) for y in range(side))
    fam = mc.families.MeasureFamily("lr", "paths", source=left, target=right)
    return mc.instance.Instance(name, space, {"lr": fam})


def _path_bases():
    for side in PATH_GRIDS:
        rng = np.random.default_rng([PATH_MASS_SEED, side])
        weights = rng.uniform(0.1, 1.0, size=side * side)
        yield f"grid{side}", _grid_instance(side, weights, f"grid{side}"), PS
    side = ZERO_MASS_GRID
    rng = np.random.default_rng([PATH_MASS_SEED, side])
    weights = rng.uniform(0.1, 1.0, size=side * side)
    weights[rng.choice(side * side, size=ZERO_MASS_POINTS, replace=False)] = 0.0
    yield f"zero{side}", _grid_instance(side, weights, f"zero{side}"), (2.0,)


def _random_plan(space, rng: np.random.Generator, n_curves: int, max_steps: int):
    curves = []
    while len(curves) < n_curves:
        c = mc.instance.random_walk_curve(space, rng, int(rng.integers(2, max_steps + 1)))
        if not c.is_constant():
            curves.append(c)
    w = rng.uniform(0.2, 1.0, size=n_curves)
    return curves, [float(x) for x in w / w.sum()]


def _plan_bases():
    for side in PLAN_SIDES:
        space = mc.space.build_grid_space(side, side)
        rng = np.random.default_rng([PLAN_SEED, side])
        # Slope-calibrated pair: g is the steepest slope of f at each
        # point, so (f, g) is an upper-gradient pair along every curve.
        f = rng.uniform(0.0, 1.0, space.n_points)
        g = np.array(
            [max(abs(f[u] - f[v]) / ell for v, ell in space.neighbors(u))
             for u in range(space.n_points)]
        )
        curves: dict[str, Any] = {}
        plans = {}
        for j in range(PLANS_PER_SIDE):
            cs, probs = _random_plan(space, rng, 2 + j % 3, PLAN_MAX_STEPS[side])
            names = tuple(f"p{j}c{i}" for i in range(len(cs)))
            curves.update(zip(names, cs))
            plans[f"plan{j}"] = mc.instance.NamedPlan(
                names, mc.plans.CurvePlan(tuple(cs), tuple(probs))
            )
        inst = mc.instance.Instance(
            f"walks{side}", space, curves=curves, plans=plans,
            columns={"f": f, "g": g},
        )
        yield f"grid{side}", inst, N_TAUS


BASES = {"explicit": _explicit_bases, "paths": _path_bases, "plans": _plan_bases}
KINDS = {"modulus": ("explicit", "paths"), "plans": ("plans",)}


# ------------------------------------------------------------------- ops


def _rel_dev(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref) if ref else abs(value)


def _explicit_op(key, inst, p, ref):
    space = inst.space
    measures = inst.families["random"].measures

    def run():
        sol = mc.modulus.solve_modulus_explicit(space, measures, p)
        content = mc.duality.solve_content(space, measures, p / (p - 1.0))
        cert = mc.duality.check_duality(space, sol, content, p, tol=CERT_TOL)
        opt = mc.duality.check_optimality_conditions(
            space, sol, content, p, tol=CERT_TOL
        )
        return sol, cert, opt

    def check(out):
        sol, cert, opt = out
        if not cert.ok:
            return f"duality certificate failed (rel gap {cert.rel_gap:.2e})"
        if not opt.ok:
            return f"optimality conditions violated: {opt.violated}"
        if not cert.rel_gap <= CERT_TOL:
            return f"relative gap {cert.rel_gap:.2e}"
        if ref is not None and not _rel_dev(sol.value, ref) <= MODULUS_REL_TOL:
            return f"modulus {sol.value!r} differs from reference {ref!r}"
        return None

    return Op(key, run, check)


def _path_op(key, inst, p, ref):
    space = inst.space
    fam = inst.families["lr"]
    src, tgt = fam.source, fam.target

    def run():
        return mc.modulus.solve_modulus_paths(space, src, tgt, p)

    def check(psol):
        # Weak-duality bracket: the best plan on the final working set
        # bounds the modulus from below; f admissible for every path
        # (shortest f-path >= 1) bounds it from above by its p-energy.
        value = psol.value
        found = mc.modulus.shortest_weighted_path(space, psol.f, src, tgt)
        if found is None or not found[1] >= 1.0 - ADMISSIBLE_TOL:
            return "density is not admissible for the whole family"
        measures = [mc.families.path_line_measure(space, pth) for pth in psol.paths]
        content = mc.duality.solve_content(space, measures, p / (p - 1.0))
        upper = value / (1.0 - ADMISSIBLE_TOL) ** p
        lower = content.value**p
        if not (lower <= upper * (1 + 1e-12) and upper - lower <= MODULUS_REL_TOL * upper):
            return f"bracket [{lower!r}, {upper!r}] does not pin the modulus"
        if ref is not None and not _rel_dev(value, ref) <= MODULUS_REL_TOL:
            return f"modulus {value!r} differs from reference {ref!r}"
        return None

    return Op(key, run, check)


def _plan_op(key, inst, plan, n_tau, ref):
    space = inst.space
    f, g = inst.columns["f"], inst.columns["g"]

    def run():
        res = mc.plans.stretch_average(space, plan, STRETCH_EPS, n_tau)
        w1p = mc.gradients.check_w1p_pair(space, f, g, [res.plan])
        imp = mc.plans.improve_barycenter(space, res.plan, PLAN_Q, IMPROVE_EPS)
        bridge = mc.plans.bridge_inequality(space, imp.plan, PLAN_Q)
        return res, w1p, imp, bridge

    def check(out):
        res, w1p, imp, bridge = out
        for name, ok in (
            ("marginal_ok", res.marginal_ok),
            ("barycenter_ok", imp.barycenter_ok),
            ("bridge ok", bridge.ok),
            ("w1p passed", w1p.passed),
        ):
            if not ok:
                return f"{name} is false"
        if ref is not None:
            if res.output_c_min != ref["output_c_min"]:
                return f"output_c_min {res.output_c_min!r} != reference {ref['output_c_min']!r}"
            if not _rel_dev(res.exact_sup, ref["exact_sup"]) <= EXACT_SUP_REL_TOL:
                return f"exact_sup {res.exact_sup!r} != reference {ref['exact_sup']!r}"
        return None

    return Op(key, run, check)


def build_ops(
    workload: str, seed: int | None, reference: dict[str, Any] | None
) -> list[Op]:
    """Generate, relabel and load the inputs; return the ops in seed order.

    ``seed=None`` keeps the base labels and order (used for references).
    """
    rng = None if seed is None else np.random.default_rng(seed)
    reference = reference or {}
    ops: list[Op] = []
    for kind in KINDS[workload]:
        for base_key, base, params in BASES[kind]():
            inst = _load(base, rng if kind == "plans" else None)
            if kind == "plans":
                for plan_name in sorted(inst.plans):
                    plan = inst.plans[plan_name].plan
                    for n_tau in params:
                        key = f"plans/{base_key}/{plan_name}/ntau{n_tau}"
                        ops.append(_plan_op(key, inst, plan, n_tau, reference.get(key)))
                continue
            make = _explicit_op if kind == "explicit" else _path_op
            for p in params:
                key = f"{kind}/{base_key}/p{p:g}"
                ops.append(make(key, inst, p, reference.get(key)))
    if rng is not None:
        ops = [ops[i] for i in rng.permutation(len(ops))]
    return ops


def reference_value(key: str, out: Any) -> Any:
    """The output a reference stores for the op ``key``."""
    kind = key.split("/", 1)[0]
    if kind == "explicit":
        return out[0].value
    if kind == "paths":
        return out.value
    return {"exact_sup": out[0].exact_sup, "output_c_min": out[0].output_c_min}
