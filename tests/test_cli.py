"""End-to-end command-line checks through main(argv)."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from modcap.cli import main
from modcap.instance import load_instance

DATA = Path(__file__).parent / "data"
DEMO = str(DATA / "chain_demo.json")


@pytest.fixture
def gen_instance(tmp_path):
    path = tmp_path / "gen.json"
    code = main(["gen", "--seed", "5", "--n-points", "12", "--n-measures", "5",
                 "--out", str(path)])
    assert code == 0
    return str(path)


def test_gen_then_solve_then_duality(gen_instance, tmp_path, capsys):
    out_csv = tmp_path / "res.csv"
    code = main(["solve", "--instance", gen_instance, "--seed", "11",
                 "--out", str(out_csv)])
    assert code == 0
    text = capsys.readouterr().out
    assert "modulus:" in text
    assert "seed: 11" in text
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0].startswith("instance,family,p,")
    assert len(lines) == 2
    assert lines[1].split(",")[-1] == "11"

    code = main(["duality", "--instance", gen_instance])
    assert code == 0
    assert "duality certificate ok" in capsys.readouterr().out


def test_solve_path_family_reports_enumeration(capsys):
    code = main(["solve", "--instance", DEMO, "--family", "lr"])
    assert code == 0
    text = capsys.readouterr().out
    assert "generated paths: 1" in text
    # The sole route projects to the line measure (1/4, 1/2, 1/2, 1/4);
    # with one constraint Mod_2 = 1 / sum(mu^2 / m) = 1 / 2.5.
    assert "modulus: 0.4" in text


def test_invalid_inputs_exit_2(tmp_path, capsys, gen_instance):
    assert main(["solve", "--instance", str(tmp_path / "ghost.json")]) == 2
    assert "not found" in capsys.readouterr().err

    assert main(["solve", "--instance", DEMO, "--family", "nope"]) == 2
    assert "no family named 'nope'" in capsys.readouterr().err

    assert main(["solve", "--instance", DEMO, "--family", "lr", "--p", "1.0"]) == 2
    assert main(["solve"]) == 2
    capsys.readouterr()
    assert main(["curve", "mult", "--instance", DEMO, "--curve", "ghost"]) == 2
    assert "no curve named 'ghost'" in capsys.readouterr().err
    # int(nan) would raise a bare ValueError inside the generator.
    assert main(["gen", "--sparsity", "nan"]) == 2
    assert "sparsity must be finite" in capsys.readouterr().err
    # Tolerances no solve or check can meet, and an empty iteration cap.
    for argv in (
        ["solve", "--tol", "nan"],
        ["solve", "--tol", "inf"],
        ["solve", "--tol", "-1"],
        ["duality", "--cert-tol", "nan"],
    ):
        assert main([*argv, "--instance", gen_instance]) == 2
        assert "tolerance must be finite and >= 0" in capsys.readouterr().err
    assert main(["solve", "--max-iter", "0", "--instance", gen_instance]) == 2
    assert "iteration cap must be at least 1" in capsys.readouterr().err
    assert main(["grad", "check", "--instance", DEMO, "--family", "traced",
                 "--f", "pos", "--g", "zero", "--tol", "nan"]) == 2
    assert "tolerance must be finite and >= 0" in capsys.readouterr().err
    assert main(["solve", "--tol", "0", "--instance", gen_instance]) == 0
    capsys.readouterr()
    # An infinite q raised ZeroDivisionError (exit 5) in the energy bound.
    for flag, value in (("--q", "inf"), ("--q", "nan"), ("--q", "1"), ("--p", "inf")):
        assert main(["plan", "improve", "--instance", DEMO, flag, value]) == 2
        assert f"{flag[2:]} > 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [b"{", b"\xff\xfe not utf-8", b'{"space": ' + b"1" * 5000 + b"}"],
    ids=["truncated", "not-utf8", "huge-integer"],
)
def test_unreadable_instance_exits_2(tmp_path, capsys, content):
    # json.loads raises a bare ValueError (or a subclass) for each of these.
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["solve", "--instance", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("criteria", ["x", "1,,2", "0", "10"])
def test_bad_selftest_criteria_exit_2(capsys, criteria):
    assert main(["selftest", "--criteria", criteria]) == 2
    err = capsys.readouterr().err
    assert "invalid input" in err and "internal error" not in err


def test_unconverged_solver_exits_3(gen_instance, capsys):
    code = main(["solve", "--instance", gen_instance, "--max-iter", "1"])
    assert code == 3
    assert "failed to converge" in capsys.readouterr().err


def test_path_round_cap_exits_3(grid6_instance, capsys):
    # --max-iter caps the constraint-generation rounds of a path family.
    assert main(["solve", "--instance", grid6_instance, "--max-iter", "1"]) == 3
    assert "within 1 rounds" in capsys.readouterr().err


def test_unreachable_certificate_exits_4(gen_instance, capsys):
    code = main(["duality", "--instance", gen_instance, "--cert-tol", "1e-18"])
    assert code == 4
    assert "duality certificate FAILED" in capsys.readouterr().out


def test_large_p_reproducer_certifies(tmp_path, capsys):
    # At p = 8 this family's plan once left weight 1.07e-6 on a measure with
    # slack 2.35e-6 at a closed bracket; a fixed charge threshold of 1e-6 then
    # failed the certificate (exit 4).
    path = str(tmp_path / "repro.json")
    argv = ["gen", "--seed", "2016", "--n-points", "20", "--n-measures", "16", "--out", path]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(["duality", "--instance", path, "--p", "8"]) == 0
    assert "duality certificate ok" in capsys.readouterr().out


@pytest.mark.parametrize("s, p", [(283, "5"), (27, "8"), (173, "8"), (59, "12"), (111, "12")])
def test_sweep_families_certify_at_large_p(tmp_path, capsys, s, p):
    # Families of the sweep generate_random_instance(2000 + s, ...) whose
    # plans leave weight above 1e-6 on measures that miss saturation by more
    # than 1e-6: the slackness sum still lies within the bracket width.
    from modcap.instance import generate_random_instance, save_instance

    inst = generate_random_instance(
        2000 + s, n_points=4 + s % 61, n_measures=1 + (7 * s) % 97, n_null_points=s % 4
    )
    save_instance(inst, tmp_path / "sweep.json")
    assert main(["duality", "--instance", str(tmp_path / "sweep.json"), "--p", p]) == 0
    assert "duality certificate ok" in capsys.readouterr().out


def test_curve_actions(tmp_path, capsys):
    assert main(["curve", "mult", "--instance", DEMO, "--curve", "c0"]) == 0
    doc = json.loads(capsys.readouterr().out.split("seed: 0\n", 1)[1])
    assert doc["multiplicity"] == [[0, 1, 1], [1, 2, 1], [2, 3, 1]]
    assert doc["length"] == pytest.approx(1.5)
    mult = tmp_path / "mult.json"
    assert main(["curve", "mult", "--instance", DEMO, "--curve", "c0",
                 "--out", str(mult)]) == 0
    assert json.loads(mult.read_text()) == doc
    assert f"wrote {mult}" in capsys.readouterr().out

    out = tmp_path / "resampled.json"
    assert main(["curve", "resample", "--instance", DEMO, "--curve", "c0",
                 "--out", str(out)]) == 0
    variant = load_instance(out)
    assert "c0.resampled" in variant.curves
    assert variant.curves["c0.resampled"].times == (0.0, 1 / 3, 2 / 3, 1.0)

    assert main(["curve", "jmap", "--instance", DEMO, "--curve", "c1",
                 "--out", str(out)]) == 0
    variant = load_instance(out)
    fam = variant.families["c1.jmap"]
    assert fam.kind == "explicit" and len(fam.measures) == 1
    capsys.readouterr()


def test_plan_actions(tmp_path, capsys):
    assert main(["plan", "check", "--instance", DEMO]) == 0
    assert "test plan: True" in capsys.readouterr().out
    report = tmp_path / "check.json"
    assert main(["plan", "check", "--instance", DEMO, "--out", str(report)]) == 0
    assert json.loads(report.read_text()) == {
        "plan": "pl", "is_test_plan": True, "c_min": 3.2,
        "worst_time": 0.5, "worst_point": 2, "seed": 0,
    }
    capsys.readouterr()

    assert main(["plan", "improve", "--instance", DEMO, "--q", "3"]) == 0
    assert "q: 3.0  eps: 0.25" in capsys.readouterr().out
    # eps**q underflows to 0, which raised ZeroDivisionError (exit 5).
    assert main(["plan", "improve", "--instance", DEMO, "--eps", "1e-120", "--q", "3"]) == 0
    assert "closed-form bound: inf" in capsys.readouterr().out
    # The new plan's energy overflows a float, which raised OverflowError (exit 5).
    assert main(["plan", "improve", "--instance", DEMO, "--q", "1e6"]) == 0
    assert "energy: inf  closed-form bound: inf" in capsys.readouterr().out

    out = tmp_path / "improved.json"
    assert main(["plan", "improve", "--instance", DEMO, "--eps", "0.1",
                 "--out", str(out)]) == 0
    variant = load_instance(out)
    assert "pl.improved" in variant.plans
    capsys.readouterr()

    assert main(["plan", "stretch", "--instance", DEMO, "--eps", "0.25",
                 "--n-tau", "8", "--out", str(out)]) == 0
    variant = load_instance(out)
    assert "pl.stretch" in variant.plans
    assert "exact averaged marginal sup" in capsys.readouterr().out


def test_grad_check_flags_charged_violations(capsys):
    # pos jumps along both demo curves while the zero column never
    # pays, so the plan charges violators with probability one.
    code = main(["grad", "check", "--instance", DEMO, "--family", "traced",
                 "--f", "pos", "--g", "zero", "--plans", "pl"])
    assert code == 4
    text = capsys.readouterr().out
    assert "violations: 2" in text
    assert "worst residual: 3.0\n" in text
    assert "violating probability 1.0" in text
    assert "test-plan certificate FAILED" in text

    # A generous gradient passes and exits cleanly.
    code = main(["grad", "check", "--instance", DEMO, "--family", "traced",
                 "--f", "zero", "--g", "one", "--plans", "pl"])
    assert code == 0
    assert "violations: 0" in capsys.readouterr().out


# Each command rejects the shared flags its cmd_* never reads.
UNREAD_FLAGS = [
    *(("curve", f) for f in ("--p", "--tol", "--max-iter", "--format")),
    *(("plan", f)
      for f in ("--tol", "--max-iter", "--format", "--p", "--q", "--eps", "--n-tau")),
    *(("plan stretch", f) for f in ("--p", "--q")),
    *(("grad", f) for f in ("--max-iter", "--out", "--format")),
    *(("gen", f) for f in ("--instance", "--p", "--tol", "--max-iter", "--format")),
    *(("selftest", f)
      for f in ("--instance", "--p", "--tol", "--max-iter", "--out", "--format")),
]


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
def test_unread_flags_exit_2(tmp_path, capsys, command, flag):
    argv = {
        "curve": ["curve", "mult", "--instance", DEMO, "--curve", "c0"],
        "plan": ["plan", "check", "--instance", DEMO],
        "plan stretch": ["plan", "stretch", "--instance", DEMO],
        "grad": ["grad", "check", "--instance", DEMO, "--family", "traced",
                 "--f", "zero", "--g", "one"],
        "gen": ["gen", "--n-points", "6", "--n-measures", "2"],
        "selftest": ["selftest", "--criteria", "1"],
    }[command]
    value = {"--instance": DEMO, "--out": str(tmp_path / "out"),
             "--format": "ndjson"}.get(flag, "3")
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_selftest_subset_runs(capsys):
    assert main(["selftest", "--criteria", "1"]) == 0
    text = capsys.readouterr().out
    assert "criterion 1 PASS" in text
    assert "all 1 criteria passed" in text


@pytest.fixture
def grid6_instance(tmp_path):
    # Far more than the enumeration limit of 100000 simple left-right
    # paths, so only constraint generation can certify this family.
    from modcap.families import MeasureFamily
    from modcap.instance import Instance, save_instance
    from modcap.space import build_grid_space, grid_node

    space = build_grid_space(6, 6)
    left = tuple(grid_node(6, 0, y) for y in range(6))
    right = tuple(grid_node(6, 5, y) for y in range(6))
    inst = Instance(
        "grid6", space, {"lr": MeasureFamily("lr", "paths", source=left, target=right)},
        columns={"zero": np.zeros(36), "one": np.ones(36)},
    )
    path = tmp_path / "grid6.json"
    save_instance(inst, path)
    return str(path)


def test_duality_on_path_family_skips_enumeration(grid6_instance, monkeypatch, capsys):
    import modcap.cli as cli
    from modcap.modulus import solve_modulus_paths

    def no_enumeration(*args, **kwargs):
        raise AssertionError("duality enumerated the path family")

    monkeypatch.setattr(cli, "enumerate_family", no_enumeration)
    assert main(["duality", "--instance", grid6_instance]) == 0
    text = capsys.readouterr().out
    inst = load_instance(grid6_instance)
    fam = inst.families["lr"]
    expected = solve_modulus_paths(inst.space, fam.source, fam.target, 2.0).value
    assert f"modulus: {expected!r}" in text
    assert "duality certificate ok" in text


@pytest.mark.parametrize("fixture", ["gen_instance", "grid6_instance"])
def test_duality_reads_content_off_the_modulus_solve(request, monkeypatch, capsys, fixture):
    import modcap.duality

    def second_solve(*args, **kwargs):
        raise AssertionError("duality solved the plan problem twice")

    monkeypatch.setattr(modcap.duality, "solve_modulus_explicit", second_solve)
    assert main(["duality", "--instance", request.getfixturevalue(fixture)]) == 0
    assert "duality certificate ok" in capsys.readouterr().out


def test_truncated_path_family_warns(grid6_instance, monkeypatch, capsys):
    import modcap.cli as cli

    enumerate_family = cli.enumerate_family
    monkeypatch.setattr(
        cli, "enumerate_family",
        lambda space, fam, **kw: enumerate_family(space, fam, limit=3, **kw),
    )
    assert main(["grad", "check", "--instance", grid6_instance,
                 "--f", "zero", "--g", "one"]) == 0
    text = capsys.readouterr().out
    assert "warning: family truncated to 3 paths" in text
    assert "curves checked: 3" in text


@pytest.mark.parametrize("error", [np.linalg.LinAlgError, ValueError, RuntimeError])
def test_internal_errors_exit_5(gen_instance, monkeypatch, capsys, error):
    import modcap.cli as cli

    def broken(*args, **kwargs):
        raise error("Singular matrix")

    monkeypatch.setattr(cli, "solve_modulus_explicit", broken)
    assert main(["solve", "--instance", gen_instance]) == 5
    err = capsys.readouterr().err
    assert "internal error" in err and "invalid input" not in err


@pytest.mark.parametrize(
    "argv, result, failed, message",
    [
        (["plan", "improve", "--instance", DEMO, "--eps", "0.1"],
         "improve_barycenter", "barycenter_ok", "barycenter certificate FAILED"),
        (["plan", "stretch", "--instance", DEMO, "--eps", "0.25", "--n-tau", "8"],
         "stretch_average", "marginal_ok", "marginal certificate FAILED"),
    ],
    ids=["improve", "stretch"],
)
def test_failed_plan_certificate_exits_4(monkeypatch, capsys, argv, result, failed, message):
    import modcap.cli as cli

    command = getattr(cli, result)
    monkeypatch.setattr(
        cli, result,
        lambda *args: dataclasses.replace(command(*args), **{failed: False}),
    )
    assert main(argv) == 4
    assert message in capsys.readouterr().out


def test_failed_selftest_criterion_exits_4(monkeypatch, capsys):
    import modcap.cli as cli

    run_selftest = cli.run_selftest
    monkeypatch.setattr(
        cli, "run_selftest",
        lambda numbers: [dataclasses.replace(r, passed=False) for r in run_selftest(numbers)],
    )
    assert main(["selftest", "--criteria", "1"]) == 4
    text = capsys.readouterr().out
    assert "FAILED criteria: [1]" in text
    assert "criteria passed" not in text


def test_unwritable_output_exits_2(gen_instance, tmp_path, capsys):
    missing = tmp_path / "missing" / "res.csv"
    assert main(["solve", "--instance", gen_instance, "--out", str(missing)]) == 2
    err = capsys.readouterr().err
    assert "io error" in err and "internal error" not in err
    assert not missing.parent.exists()


def write_instance(tmp_path, space, families, **sections):
    path = tmp_path / "null.json"
    doc = {"name": "null", "space": space, "families": families, **sections}
    path.write_text(json.dumps(doc))
    return str(path)


def test_grad_check_refuses_explicit_family(tmp_path, capsys):
    space = {"n_points": 2, "edges": [[0, 1, 1.0]], "measure": [1.0, 1.0]}
    family = {"kind": "explicit", "measures": [[[0, 1.0]]]}
    inst = write_instance(
        tmp_path, space, {"fam": family}, columns={"f": [0.0, 1.0], "g": [1.0, 1.0]}
    )
    assert main(["grad", "check", "--instance", inst, "--f", "f", "--g", "g"]) == 2
    err = capsys.readouterr().err
    assert "needs a family of curves or paths, not explicit measures" in err


@pytest.mark.parametrize(
    "space, family",
    [
        # The endpoints lie in different components.
        (
            {"n_points": 4, "edges": [[0, 1, 1.0], [2, 3, 1.0]],
             "measure": [1.0, 1.0, 1.0, 1.0]},
            {"kind": "paths", "source": [0], "target": [3]},
        ),
        # The only path crosses a zero-mass point.
        (
            {"n_points": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]],
             "measure": [1.0, 0.0, 1.0]},
            {"kind": "paths", "source": [0], "target": [2]},
        ),
        # Every measure charges a zero-mass point.
        (
            {"n_points": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]],
             "measure": [1.0, 0.0, 1.0]},
            {"kind": "explicit", "measures": [[[1, 1.0]], [[0, 0.5], [1, 0.5]]]},
        ),
    ],
    ids=["disconnected", "zero-mass-path", "zero-mass-measures"],
)
def test_duality_certifies_modulus_zero(tmp_path, capsys, space, family):
    inst = write_instance(tmp_path, space, {"fam": family})
    assert main(["duality", "--instance", inst]) == 0
    text = capsys.readouterr().out
    assert "modulus: 0.0  content: 0.0" in text
    assert "duality certificate ok" in text


@pytest.mark.parametrize(
    "space, family",
    [
        # The family holds the zero measure.
        (
            {"n_points": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]],
             "measure": [1.0, 1.0, 1.0]},
            {"kind": "explicit", "measures": [[[0, 1.0]], []]},
        ),
        # A source that is also a target gives a one-point path.
        (
            {"n_points": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]],
             "measure": [1.0, 1.0, 1.0]},
            {"kind": "paths", "source": [0], "target": [0, 2]},
        ),
    ],
    ids=["zero-measure", "one-point-path"],
)
def test_duality_certifies_infinite_modulus(tmp_path, capsys, space, family):
    inst = write_instance(tmp_path, space, {"fam": family})
    assert main(["duality", "--instance", inst]) == 0
    text = capsys.readouterr().out
    assert "modulus: inf  content: inf" in text
    assert "duality certificate ok" in text


@pytest.mark.parametrize(
    "field, value, where",
    [
        ("edge", [0, 1.7, 1.0], "space.edges[0]"),
        ("n_points", True, "space.n_points"),
        ("measure", [[0.9, 1.0]], "families['fam'].measures[0][0]"),
        ("source", [0.5], "families['fam'].source"),
        ("source", ["a"], "families['fam'].source"),
        ("target", [2.0], "families['fam'].target"),
        ("max_hops", 2.5, "families['fam'].max_hops"),
        ("nodes", [0.2, 1, 2.9], "curves['c'].nodes"),
    ],
    ids=["edge", "n_points", "measure", "source-float", "source-string",
         "target-float", "max_hops", "nodes"],
)
def test_non_integer_ids_exit_2(tmp_path, capsys, field, value, where):
    space = {"n_points": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]],
             "measure": [1.0, 1.0, 1.0]}
    family = {"kind": "paths", "source": [0], "target": [2]}
    curve = {"nodes": [0, 1, 2]}
    if field == "edge":
        space["edges"] = [value]
    elif field == "n_points":
        space["n_points"] = value
    elif field == "measure":
        family = {"kind": "explicit", "measures": [value]}
    elif field == "nodes":
        curve["nodes"] = value
    else:
        family[field] = value
    path = tmp_path / "ids.json"
    doc = {"name": "ids", "space": space, "families": {"fam": family},
           "curves": {"c": curve}}
    path.write_text(json.dumps(doc))
    assert main(["duality", "--instance", str(path)]) == 2
    assert f"invalid input: {where}: expected an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, value, where",
    [
        (("families", "fam", "source"), 0, "families['fam'].source"),
        (("space", "edges"), 5, "space.edges"),
        (("space", "coords"), 5, "space.coords"),
        (("families", "ex", "measures"), 5, "families['ex'].measures"),
        (("families", "cv", "curve_names"), 5, "families['cv'].curve_names"),
        (("curves", "c", "nodes"), 5, "curves['c'].nodes"),
        (("curves", "c", "times"), 3, "curves['c'].times"),
        (("plans", "pl", "probs"), 1.0, "plans['pl'].probs"),
        (("families",), 5, "families"),
        (("plans", "pl", "curves"), "c", "plans['pl'].curves"),
        (("space", "measure"), [1, True, 1], "space.measure"),
        (("plans", "pl", "probs"), [float("nan")], "plans['pl'].probs"),
        (("space", "edges", 0, 2), "x", "space.edges[0]"),
        (("space", "edges", 0), [0, 1], "space.edges[0]"),
        (("space", "edges", 0, 1), 99, "space.edges[0]"),
        (("families", "fam", "kind"), "bogus", "families['fam'].kind"),
        (("name",), 5, "name"),
    ],
    ids=["source-int", "edges-int", "coords-int", "measures-int", "curve_names-int",
         "nodes-int", "times-int", "probs-float", "families-int", "plan-curves-string",
         "measure-bool", "probs-nan", "edge-length-string", "edge-two-entries",
         "edge-off-the-space", "kind-bogus", "name-int"],
)
def test_malformed_fields_exit_2(tmp_path, capsys, path, value, where):
    doc = {
        "name": "fields",
        "space": {"n_points": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]],
                  "measure": [1.0, 1.0, 1.0]},
        "families": {
            "fam": {"kind": "paths", "source": [0], "target": [2]},
            "ex": {"kind": "explicit", "measures": [[[0, 1.0]]]},
            "cv": {"kind": "curves", "curve_names": ["c"]},
        },
        "curves": {"c": {"nodes": [0, 1, 2]}},
        "plans": {"pl": {"curves": ["c"], "probs": [1.0]}},
    }
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    inst = tmp_path / "fields.json"
    inst.write_text(json.dumps(doc))  # a NaN is written as the NaN token
    assert main(["duality", "--instance", str(inst), "--family", "fam"]) == 2
    assert f"invalid input: {where}:" in capsys.readouterr().err


@pytest.mark.parametrize("nodes", [[-1], [7, 7]], ids=["negative", "plateau-outside"])
def test_curve_node_outside_the_space_exits_2(tmp_path, capsys, nodes):
    path = tmp_path / "bad_node.json"
    doc = {
        "name": "bad_node",
        "space": {"n_points": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]],
                  "measure": [1.0, 1.0, 1.0]},
        "curves": {"a": {"nodes": nodes}},
        "plans": {"pl": {"curves": ["a"], "probs": [1.0]}},
    }
    path.write_text(json.dumps(doc))
    assert main(["plan", "check", "--instance", str(path)]) == 2
    assert "invalid input: curves['a']:" in capsys.readouterr().err


def test_plan_stretch_of_breakpoints_an_ulp_apart_exits_0(tmp_path, capsys):
    # Two breakpoints one ulp apart collided in a stretch window, and the
    # valid plan was reported as invalid input (exit 2).
    import math

    from modcap.curves import ParametricCurve
    from modcap.instance import Instance, NamedPlan, save_instance
    from modcap.plans import CurvePlan
    from modcap.space import build_grid_space

    t = float.fromhex("0x1.a4b11fbee8d2ep-1")
    c = ParametricCurve((0, 1, 2, 3), (0.0, t, math.nextafter(t, 1.0), 1.0))
    path = tmp_path / "ulps.json"
    save_instance(Instance("ulps", build_grid_space(4, 1), curves={"c": c},
                           plans={"p": NamedPlan(("c",), CurvePlan((c,), (1.0,)))}), path)
    out = tmp_path / "stretched.json"
    assert main(["plan", "stretch", "--instance", str(path), "--eps", "0.40160970597833545",
                 "--n-tau", "3", "--out", str(out)]) == 0
    assert "p.stretch" in load_instance(out).plans
    capsys.readouterr()


def test_subnormal_point_mass_exits_cleanly(tmp_path, capsys):
    # A positive mass below the float range made the marginal densities
    # overflow: plan check failed on numpy's warning under
    # PYTHONWARNINGS=error (exit 5), and plan improve divided 0 by 0
    # (ZeroDivisionError, exit 5).
    import warnings

    from modcap.curves import ParametricCurve
    from modcap.instance import Instance, NamedPlan, save_instance
    from modcap.plans import CurvePlan
    from modcap.space import build_grid_space

    c = ParametricCurve((0, 1), (0.0, 1.0))
    path = tmp_path / "subnormal.json"
    save_instance(Instance("subnormal", build_grid_space(2, 2, [1, 1e-320, 1, 1]),
                           curves={"c": c},
                           plans={"p": NamedPlan(("c",), CurvePlan((c,), (1.0,)))}), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["plan", "check", "--instance", str(path)]) == 0
        assert "marginal constant: inf" in capsys.readouterr().out
        assert main(["plan", "stretch", "--instance", str(path)]) == 0
        capsys.readouterr()
        assert main(["plan", "improve", "--instance", str(path)]) == 2
        err = capsys.readouterr().err
        assert "barycenter is infinite at point 1 (mass 9.99989e-321)" in err and "internal error" not in err


def test_subnormal_segment_duration_exits_cleanly(capsys):
    # The curve of chain_tiny_step.json steps in 1e-310: plan check read a
    # marginal constant of 0.0, and under PYTHONWARNINGS=error plan check
    # and plan improve failed on numpy's overflow warning (exit 5).
    import warnings

    tiny = str(DATA / "chain_tiny_step.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["plan", "check", "--instance", tiny]) == 0
        assert "marginal constant: 3.0\n" in capsys.readouterr().out
        assert main(["plan", "improve", "--instance", tiny]) == 0
        capsys.readouterr()


def grid8_paths():
    """The instance stored in data/grid8_paths.json: left-right paths on an
    8x8 grid with seeded point masses."""
    from modcap.families import MeasureFamily
    from modcap.instance import Instance
    from modcap.space import build_grid_space, grid_node

    weights = np.random.default_rng([8, 8]).uniform(0.1, 1.0, size=64)
    left = tuple(grid_node(8, 0, y) for y in range(8))
    right = tuple(grid_node(8, 7, y) for y in range(8))
    fam = MeasureFamily("lr", "paths", source=left, target=right)
    return Instance("grid8_paths", build_grid_space(8, 8, weights), {"lr": fam})


def test_grid8_path_instance_solves_and_certifies(tmp_path, capsys):
    # The stored path instance is exactly its recipe, and both solve
    # commands run the path oracle on it to a certified answer.
    from modcap.instance import save_instance

    save_instance(grid8_paths(), tmp_path / "grid8_paths.json")
    stored = DATA / "grid8_paths.json"
    assert (tmp_path / "grid8_paths.json").read_bytes() == stored.read_bytes()
    for p in ("2", "3"):
        assert main(["solve", "--instance", str(stored), "--p", p]) == 0
        text = capsys.readouterr().out
        assert "generated paths:" in text and "modulus:" in text
        assert main(["duality", "--instance", str(stored), "--p", p]) == 0
        assert "duality certificate ok" in capsys.readouterr().out
