"""Command-line entry point.

Commands: ``solve``, ``duality``, ``curve resample|jmap|mmap|mult``,
``plan check|improve|stretch``, ``grad check``, ``gen``, ``selftest``.
Exit codes: 0 success, 2 invalid input, 3 solver non-convergence,
4 failed certificate, 5 internal error.  The seed is echoed in every
output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import traceback
from dataclasses import replace
from typing import Mapping, Sequence, TypeVar

import numpy as np

from .curves import (
    ParametricCurve,
    constant_speed_reparam,
    curve_length,
    edge_multiplicity,
    j_map,
    m_map,
)
from .duality import check_duality, check_optimality_conditions, content_from_multipliers
from .errors import InvalidInstanceError, ModcapError, SolverError
from .families import MeasureFamily, enumerate_family, path_line_measure
from .gradients import check_w1p_pair, modulus_of_violating_family
from .instance import (
    Instance,
    NamedPlan,
    ResultRecord,
    emit_results,
    generate_random_instance,
    instance_to_dict,
    load_instance,
    save_instance,
)
from .modulus import (
    ModulusSolution,
    _check_p,
    solve_modulus_explicit,
    solve_modulus_paths,
)
from .plans import CurvePlan, improve_barycenter, stretch_average, testplan_check
from .selftest import run_selftest
from .space import DiscreteMeasure

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3
EXIT_CERT_FAILED = 4
EXIT_INTERNAL = 5

_T = TypeVar("_T")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidInstanceError(message)


def _load(args: argparse.Namespace) -> Instance:
    _require(args.instance is not None, "this command needs --instance")
    return load_instance(args.instance)


def _pick(table: Mapping[str, _T], name: str | None, what: str, flag: str) -> tuple[str, _T]:
    """The entry called name, or the only entry when no name was given."""
    whats = what[:-1] + "ies" if what.endswith("y") else what + "s"
    _require(bool(table), f"instance has no {whats}")
    if name is None:
        _require(
            len(table) == 1,
            f"instance has {whats} {sorted(table)}; pick one with {flag}",
        )
        name = next(iter(table))
    _require(name in table, f"no {what} named {name!r}; instance has {sorted(table)}")
    return name, table[name]


def _family_curves(inst: Instance, fam: MeasureFamily) -> list[ParametricCurve]:
    if fam.kind == "curves":
        return [inst.curves[n] for n in fam.curve_names]
    if fam.kind == "paths":
        enum = enumerate_family(inst.space, fam, curves_by_name=inst.curves)
        if enum.truncated:
            print(f"warning: family truncated to {len(enum.paths)} paths")
        return [
            ParametricCurve(path, tuple(np.linspace(0.0, 1.0, len(path))))
            for path in enum.paths
        ]
    raise InvalidInstanceError(
        "this command needs a family of curves or paths, not explicit measures"
    )


def _conjugate(args: argparse.Namespace) -> float:
    if args.q is not None:
        return _check_p(args.q, "q")
    p = _check_p(args.p)
    return p / (p - 1.0)


def _emit(args: argparse.Namespace, record: ResultRecord) -> None:
    if args.out:
        emit_results([record], args.out, format=args.format)
        print(f"wrote {args.out}")


def _solve(
    args: argparse.Namespace, inst: Instance, fam: MeasureFamily
) -> tuple[ModulusSolution, Sequence[DiscreteMeasure]]:
    """Modulus of the family and the measures that certify it."""
    if fam.kind == "paths":
        sol = solve_modulus_paths(
            inst.space,
            fam.source,
            fam.target,
            args.p,
            fam.max_hops,
            gap_tol=args.tol,
            max_outer=args.max_iter,
        )
        print(f"generated paths: {len(sol.paths)}")
        # f is divided by the least path integral when that is below 1, so it
        # integrates to at least 1 on every path: the certificate on the final
        # working paths brackets the modulus of the whole family, unenumerated.
        return sol, [path_line_measure(inst.space, path) for path in sol.paths]
    measures = enumerate_family(inst.space, fam, curves_by_name=inst.curves).measures
    sol = solve_modulus_explicit(
        inst.space, measures, args.p, gap_tol=args.tol, max_iter=args.max_iter
    )
    return sol, measures


def cmd_solve(args: argparse.Namespace) -> int:
    inst = _load(args)
    fam_name, fam = _pick(inst.families, args.family, "family", "--family")
    t0 = time.perf_counter()
    sol, _ = _solve(args, inst, fam)
    wall_ms = (time.perf_counter() - t0) * 1e3
    print(f"instance: {inst.name}  family: {fam_name}  p: {args.p}  seed: {args.seed}")
    print(f"modulus: {sol.value!r}")
    print(f"dual value: {sol.dual_value!r}  relative gap: {sol.gap:.3e}")
    print(f"iterations: {sol.iterations}  wall: {wall_ms:.1f} ms")
    if sol.dropped:
        print(f"measures dropped as null-supported: {list(sol.dropped)}")
    _emit(
        args,
        ResultRecord(
            inst.name, fam_name, args.p, sol.value, sol.dual_value,
            sol.gap, sol.iterations, wall_ms, args.seed,
        ),
    )
    return EXIT_OK


def cmd_duality(args: argparse.Namespace) -> int:
    inst = _load(args)
    fam_name, fam = _pick(inst.families, args.family, "family", "--family")
    t0 = time.perf_counter()
    sol, measures = _solve(args, inst, fam)
    content = content_from_multipliers(inst.space, measures, sol, args.p / (args.p - 1.0))
    cert = check_duality(inst.space, sol, content, args.p, tol=args.cert_tol)
    opt = check_optimality_conditions(inst.space, sol, content, args.p, tol=args.cert_tol)
    wall_ms = (time.perf_counter() - t0) * 1e3
    print(f"instance: {inst.name}  family: {fam_name}  p: {args.p}  seed: {args.seed}")
    print(f"modulus: {cert.modulus!r}  content: {cert.content!r}")
    print(f"modulus^(1/p): {cert.modulus_root!r}  relative gap: {cert.rel_gap:.3e}")
    print(
        f"weak duality chain: 1 <= {cert.weak_lhs:.9f} <= {cert.weak_rhs:.9f} "
        f"({'ok' if cert.weak_ok else 'BROKEN'})"
    )
    print(
        f"optimality: saturation dev {opt.saturation_max_dev:.2e}, "
        f"barycenter dev {opt.barycenter_max_dev:.2e}"
    )
    _emit(
        args,
        ResultRecord(
            inst.name, fam_name, args.p, cert.modulus, cert.content,
            cert.rel_gap, sol.iterations, wall_ms, args.seed,
        ),
    )
    if not (cert.ok and opt.ok):
        print("duality certificate FAILED")
        return EXIT_CERT_FAILED
    print("duality certificate ok")
    return EXIT_OK


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def _save_variant(
    args: argparse.Namespace,
    inst: Instance,
    *,
    curves: dict[str, ParametricCurve] | None = None,
    family: MeasureFamily | None = None,
    plan: tuple[str, CurvePlan] | None = None,
) -> None:
    """Save (or print) the instance, with any named curves, family or plan added.

    A plan (name, CurvePlan) brings its curves along, named name.0,
    name.1, ...
    """
    curves = {**inst.curves, **(curves or {})}
    families = dict(inst.families)
    plans = dict(inst.plans)
    if family is not None:
        families[family.name] = family
    if plan is not None:
        name, cplan = plan
        names = tuple(f"{name}.{i}" for i in range(len(cplan.curves)))
        curves.update(zip(names, cplan.curves))
        plans[name] = NamedPlan(names, cplan)
    variant = replace(inst, families=families, curves=curves, plans=plans)
    if args.out:
        save_instance(variant, args.out)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(instance_to_dict(variant), indent=2, sort_keys=True))


def cmd_curve(args: argparse.Namespace) -> int:
    inst = _load(args)
    _, curve = _pick(inst.curves, args.curve, "curve", "--curve")
    print(f"instance: {inst.name}  curve: {args.curve}  seed: {args.seed}")
    if args.action == "resample":
        rep = constant_speed_reparam(inst.space, curve)
        print(f"length: {curve_length(inst.space, rep)!r}  nodes: {list(rep.nodes)}")
        _save_variant(args, inst, curves={f"{args.curve}.resampled": rep})
        return EXIT_OK
    if args.action in ("jmap", "mmap"):
        mu = (j_map if args.action == "jmap" else m_map)(inst.space, curve)
        print(f"total mass: {mu.total!r}")
        print(json.dumps({str(i): w for i, w in mu.items}, indent=2))
        if args.out:
            fam = MeasureFamily(
                f"{args.curve}.{args.action}", "explicit", measures=(mu,)
            )
            _save_variant(args, inst, family=fam)
        return EXIT_OK
    mult = edge_multiplicity(inst.space, curve)
    doc = {
        "curve": args.curve,
        "length": curve_length(inst.space, curve),
        "multiplicity": [[u, v, k] for (u, v), k in sorted(mult.items())],
        "seed": args.seed,
    }
    print(json.dumps(doc, indent=2))
    if args.out:
        _write_json(args.out, doc)
    return EXIT_OK


def cmd_plan(args: argparse.Namespace) -> int:
    inst = _load(args)
    name, named = _pick(inst.plans, args.plan, "plan", "--plan")
    plan = named.plan
    print(f"instance: {inst.name}  plan: {name}  seed: {args.seed}")
    if args.action == "check":
        rep = testplan_check(inst.space, plan)
        print(f"test plan: {rep.is_test_plan}  marginal constant: {rep.c_min!r}")
        print(f"worst time: {rep.worst_time!r}  worst point: {rep.worst_point}")
        if args.out:
            _write_json(
                args.out,
                {
                    "plan": name,
                    "is_test_plan": rep.is_test_plan,
                    "c_min": "inf" if math.isinf(rep.c_min) else rep.c_min,
                    "worst_time": rep.worst_time,
                    "worst_point": rep.worst_point,
                    "seed": args.seed,
                },
            )
        return EXIT_OK

    if args.action == "improve":
        q = _conjugate(args)
        res = improve_barycenter(inst.space, plan, q, args.eps)
        print(f"q: {q}  eps: {args.eps}")
        print(f"z: {res.z!r} (bound 1/eps = {1.0 / args.eps!r})")
        print(
            f"new barycenter sup: {res.new_barycenter_sup!r} "
            f"(bound 1/z = {1.0 / res.z!r})"
        )
        print(f"energy: {res.energy_new!r}  closed-form bound: {res.energy_formula!r}")
        _save_variant(args, inst, plan=(f"{name}.improved", res.plan))
        if not res.barycenter_ok:
            print("barycenter certificate FAILED")
            return EXIT_CERT_FAILED
        return EXIT_OK

    res = stretch_average(inst.space, plan, args.eps, args.n_tau)
    print(f"eps: {args.eps}  n_tau: {args.n_tau}")
    print(f"input marginal bound C: {res.c_in!r}")
    print(f"certified bound C(1+eps)/eps: {res.bound!r} + correction {res.correction!r}")
    print(f"exact averaged marginal sup: {res.exact_sup!r}")
    print(f"output plan marginal constant: {res.output_c_min!r}")
    _save_variant(args, inst, plan=(f"{name}.stretch", res.plan))
    if not res.marginal_ok:
        print("marginal certificate FAILED")
        return EXIT_CERT_FAILED
    return EXIT_OK


def cmd_grad(args: argparse.Namespace) -> int:
    inst = _load(args)
    _, f = _pick(inst.columns, args.f, "column", "--f")
    _, g = _pick(inst.columns, args.g, "column", "--g")
    fam_name, fam = _pick(inst.families, args.family, "family", "--family")
    curves = _family_curves(inst, fam)
    rep = modulus_of_violating_family(inst.space, f, g, curves, args.p, tol=args.tol)
    print(f"instance: {inst.name}  family: {fam_name}  seed: {args.seed}")
    print(f"curves checked: {rep.n_curves}  violations: {rep.n_violations}")
    print(f"worst residual: {rep.worst_residual!r}")
    print(f"modulus of violating family: {rep.modulus_of_violations!r}")
    code = EXIT_OK
    if args.plans:
        plans = [_pick(inst.plans, p, "plan", "--plans")[1].plan for p in args.plans]
        w1p = check_w1p_pair(inst.space, f, g, plans, args.tol)
        for pname, entry in zip(args.plans, w1p.per_plan):
            print(
                f"plan {pname}: test plan {entry.is_test_plan}, "
                f"marginal constant {entry.c_min!r}, "
                f"violating probability {entry.violating_probability!r}"
            )
        for w in w1p.warnings:
            print(f"warning: {w}")
        if not w1p.passed:
            print("test-plan certificate FAILED")
            code = EXIT_CERT_FAILED
    return code


def cmd_gen(args: argparse.Namespace) -> int:
    inst = generate_random_instance(
        args.seed,
        n_points=args.n_points,
        n_measures=args.n_measures,
        sparsity=args.sparsity,
    )
    print(
        f"generated: {inst.name}  points: {inst.space.n_points}  "
        f"measures: {len(inst.families['random'].measures)}  seed: {args.seed}"
    )
    _save_variant(args, inst)
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace) -> int:
    numbers = None
    if args.criteria:
        try:
            numbers = tuple(int(tok) for tok in args.criteria.split(","))
        except ValueError:
            raise InvalidInstanceError(
                f"--criteria: expected comma-separated integers, got {args.criteria!r}"
            ) from None
    results = run_selftest(numbers)
    for res in results:
        print(res.line(), f"[{res.seconds:.2f}s]")
    print(f"seed: {args.seed}")
    failed = [r.number for r in results if not r.passed]
    if failed:
        print(f"FAILED criteria: {failed}")
        return EXIT_CERT_FAILED
    print(f"all {len(results)} criteria passed")
    return EXIT_OK


_FLAGS = {
    "--instance": dict(help="path to an instance JSON file"),
    "--p": dict(type=float, default=2.0, help="modulus exponent (> 1)"),
    "--tol": dict(type=float, default=1e-9, help="solver tolerance"),
    "--max-iter": dict(
        type=int, default=100000,
        help="cap on gradient and barrier steps (explicit families) or rounds (path families)",
    ),
    "--seed": dict(type=int, default=0, help="seed echoed in output"),
    "--out": dict(help="output file path"),
    "--format": dict(
        choices=("csv", "ndjson"), default="csv", help="result record format for --out"
    ),
    "--plan": dict(help="plan name (defaults to the only one)"),
    "--q": dict(type=float, help="energy exponent (default p/(p-1))"),
    "--eps": dict(type=float, default=0.25),
    "--n-tau": dict(type=int, default=64),
}
_SOLVE_FLAGS = ("--instance", "--p", "--tol", "--max-iter", "--seed", "--out", "--format")
_PLAN_FLAGS = ("--instance", "--seed", "--out", "--plan")
# The flags each plan action reads besides _PLAN_FLAGS.
_PLAN_ACTIONS = {
    "check": (),
    "improve": ("--p", "--q", "--eps"),
    "stretch": ("--eps", "--n-tau"),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="modcap",
        description="p-modulus, plan duality, and curve-plan tooling "
        "on finite metric measure spaces",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    # No abbreviations: plan check would read --p as its --plan.
    def command(name, func, flags, help, group=sub):
        parser = group.add_parser(name, help=help, allow_abbrev=False)
        for flag in flags:
            parser.add_argument(flag, **_FLAGS[flag])
        parser.set_defaults(func=func)
        return parser

    sp = command("solve", cmd_solve, _SOLVE_FLAGS, "modulus of a family")
    sp.add_argument("--family", help="family name (defaults to the only one)")

    dp = command("duality", cmd_duality, _SOLVE_FLAGS, "modulus-content certificate")
    dp.add_argument("--family")
    dp.add_argument("--cert-tol", type=float, default=1e-6)

    cp = command("curve", cmd_curve, ("--instance", "--seed", "--out"), "curve calculus")
    cp.add_argument("action", choices=("resample", "jmap", "mmap", "mult"))
    cp.add_argument("--curve", required=True, help="curve name in the instance")

    plan = sub.add_parser("plan", help="curve-plan operations")
    actions = plan.add_subparsers(dest="action", required=True)
    for action, flags in _PLAN_ACTIONS.items():
        command(action, cmd_plan, (*_PLAN_FLAGS, *flags), f"plan {action}", actions)

    gp = command(
        "grad", cmd_grad, ("--instance", "--p", "--tol", "--seed"), "upper-gradient checks"
    )
    gp.add_argument("action", choices=("check",))
    gp.add_argument("--f", required=True, help="column holding the function")
    gp.add_argument("--g", required=True, help="column holding the gradient candidate")
    gp.add_argument("--family", help="curve or path family to check against")
    gp.add_argument("--plans", nargs="*", default=(), help="plan names to audit")

    ggp = command("gen", cmd_gen, ("--seed", "--out"), "generate a random instance")
    ggp.add_argument("--n-points", type=int, default=30)
    ggp.add_argument("--n-measures", type=int, default=8)
    ggp.add_argument("--sparsity", type=float, default=0.25)

    st = command("selftest", cmd_selftest, ("--seed",), "run the acceptance suite")
    st.add_argument("--criteria", help="comma-separated criterion numbers")
    return ap


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SolverError as exc:
        print(f"solver failed to converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except ModcapError as exc:  # any other ValueError is an internal error
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:
        return _internal_error(exc)


def _internal_error(exc: Exception) -> int:
    traceback.print_exc(file=sys.stderr)
    print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
