"""End-to-end command-line checks through main(argv)."""

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


def test_invalid_inputs_exit_2(tmp_path, capsys):
    assert main(["solve", "--instance", str(tmp_path / "ghost.json")]) == 2
    assert "not found" in capsys.readouterr().err

    assert main(["solve", "--instance", DEMO, "--family", "nope"]) == 2
    assert "no family named 'nope'" in capsys.readouterr().err

    assert main(["solve", "--instance", DEMO, "--family", "lr", "--p", "1.0"]) == 2
    assert main(["solve"]) == 2
    capsys.readouterr()
    assert main(["curve", "mult", "--instance", DEMO, "--curve", "ghost"]) == 2
    assert "no curve named 'ghost'" in capsys.readouterr().err


def test_unconverged_solver_exits_3(gen_instance, capsys):
    code = main(["solve", "--instance", gen_instance, "--max-iter", "1"])
    assert code == 3
    assert "failed to converge" in capsys.readouterr().err


def test_unreachable_certificate_exits_4(gen_instance, capsys):
    code = main(["duality", "--instance", gen_instance, "--cert-tol", "1e-18"])
    assert code == 4
    assert "duality certificate FAILED" in capsys.readouterr().out


def test_curve_actions(tmp_path, capsys):
    assert main(["curve", "mult", "--instance", DEMO, "--curve", "c0"]) == 0
    doc = json.loads(capsys.readouterr().out.split("seed: 0\n", 1)[1])
    assert doc["multiplicity"] == [[0, 1, 1], [1, 2, 1], [2, 3, 1]]
    assert doc["length"] == pytest.approx(1.5)

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


@pytest.mark.parametrize("error", [np.linalg.LinAlgError, RuntimeError])
def test_internal_errors_exit_5(gen_instance, monkeypatch, capsys, error):
    import modcap.cli as cli

    def broken(*args, **kwargs):
        raise error("Singular matrix")

    monkeypatch.setattr(cli, "solve_modulus_explicit", broken)
    assert main(["solve", "--instance", gen_instance]) == 5
    err = capsys.readouterr().err
    assert "internal error" in err and "invalid input" not in err


def write_instance(tmp_path, space, families):
    path = tmp_path / "null.json"
    doc = {"name": "null", "space": space, "families": families}
    path.write_text(json.dumps(doc))
    return str(path)


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
    ],
    ids=["source-int", "edges-int", "coords-int", "measures-int", "curve_names-int",
         "nodes-int", "times-int", "probs-float", "families-int", "plan-curves-string",
         "measure-bool", "probs-nan", "edge-length-string"],
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
