"""Instance files: parsing, validation messages, canonical round-trips."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from modcap.errors import InvalidInstanceError
from modcap.families import MeasureFamily, enumerate_family
from modcap.instance import (
    GENERATOR_POINT_CAP,
    ResultRecord,
    emit_results,
    generate_random_instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
)

DATA = Path(__file__).parent / "data"


def minimal_doc():
    return {
        "name": "tiny",
        "space": {"n_points": 2, "edges": [[0, 1, 1.0]], "measure": [1.0, 1.0]},
    }


def test_minimal_instance_loads():
    inst = instance_from_dict(minimal_doc())
    assert inst.name == "tiny"
    assert inst.space.n_points == 2
    assert inst.families == {} and inst.curves == {} and inst.plans == {}


def test_shipped_instances_load():
    two = load_instance(DATA / "two_point.json")
    assert two.families["atoms"].kind == "explicit"
    demo = load_instance(DATA / "chain_demo.json")
    assert set(demo.families) == {"lr", "traced"}
    assert demo.plans["pl"].curve_names == ("c0", "c1")
    assert demo.columns["pos"].tolist() == [0.0, 1.0, 2.0, 3.0]


def test_unknown_keys_name_their_field():
    doc = minimal_doc()
    doc["spurious"] = 1
    with pytest.raises(InvalidInstanceError, match="unknown key 'spurious'"):
        instance_from_dict(doc)

    doc = minimal_doc()
    doc["space"]["extra"] = True
    with pytest.raises(InvalidInstanceError, match="space: unknown key 'extra'"):
        instance_from_dict(doc)

    doc = minimal_doc()
    doc["families"] = {"f": {"kind": "explicit", "typo": []}}
    with pytest.raises(InvalidInstanceError, match=r"families\['f'\]"):
        instance_from_dict(doc)

    doc = minimal_doc()
    del doc["space"]["measure"]
    with pytest.raises(InvalidInstanceError, match="space: missing key 'measure'"):
        instance_from_dict(doc)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda sp: MeasureFamily("x", "bogus"), "unknown kind 'bogus'"),
        (lambda sp: MeasureFamily("x", "paths", target=(1,)), "nonempty source"),
        (lambda sp: MeasureFamily("x", "paths", source=(0,)), "nonempty source"),
        (
            lambda sp: MeasureFamily("x", "paths", source=(0,), target=(1,), max_hops=0),
            "max_hops must be positive",
        ),
        (lambda sp: MeasureFamily("x", "curves", curve_map="Q"), "'J' or 'M'"),
        (
            lambda sp: enumerate_family(
                sp, MeasureFamily("x", "paths", source=(0,), target=(1,)), limit=0
            ),
            "limit must be positive",
        ),
        (
            lambda sp: enumerate_family(
                sp, MeasureFamily("x", "curves", curve_names=("c",))
            ),
            "unknown curve 'c'",
        ),
    ],
    ids=["kind", "no-source", "no-target", "max-hops", "curve-map", "limit", "curve-name"],
)
def test_malformed_families_are_rejected(make, message):
    space = instance_from_dict(minimal_doc()).space
    with pytest.raises(InvalidInstanceError, match=message):
        make(space)


def test_negative_measure_weight_names_the_point():
    doc = minimal_doc()
    doc["families"] = {
        "f": {"kind": "explicit", "measures": [[[1, -2.0]]]}
    }
    with pytest.raises(InvalidInstanceError, match=r"measures\[0\].*point 1"):
        instance_from_dict(doc)


def test_non_adjacent_curve_names_the_pair():
    doc = minimal_doc()
    doc["space"] = {
        "n_points": 3,
        "edges": [[0, 1, 1.0]],
        "measure": [1.0, 1.0, 1.0],
    }
    doc["curves"] = {"c": {"nodes": [0, 1, 2], "times": [0.0, 0.5, 1.0]}}
    with pytest.raises(InvalidInstanceError, match=r"curves\['c'\]: points 1 and 2 are not adjacent"):
        instance_from_dict(doc)


def test_first_bad_curve_in_file_order_is_named():
    # The curves' walks are read in one pass; a fault names the first bad
    # curve in file order, whether its fault is in its walk or its fields.
    doc = minimal_doc()
    doc["space"] = {"n_points": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]], "measure": [1.0] * 3}
    ok = {"nodes": [0, 1, 2]}
    off = {"nodes": [0, 1, 5]}  # node 5 is off the space
    jump = {"nodes": [2, 1, 0, 2]}  # 0 and 2 are not adjacent
    shape = {"nodes": [0, 1], "times": [0.0, 0.0]}
    cases = [
        ({"a": ok, "b": off, "c": jump}, r"curves\['b'\]: node 5 is not a point"),
        ({"a": ok, "b": jump, "c": off}, r"curves\['b'\]: points 0 and 2 are not adjacent"),
        ({"a": jump, "b": shape}, r"curves\['a'\]: points 0 and 2"),
        ({"a": ok, "b": shape, "c": off}, r"curves\['b'\]: curve times must start at 0"),
        ({"a": ok, "b": {"times": [0.0]}, "c": jump}, r"curves\['b'\]: missing key 'nodes'"),
    ]
    for curves, message in cases:
        doc["curves"] = curves
        with pytest.raises(InvalidInstanceError, match=message):
            instance_from_dict(doc)
    doc["curves"] = {"a": ok, "b": {"nodes": [2, 2, 1]}}
    assert instance_from_dict(doc).curves["b"].nodes == (2, 2, 1)


def test_plan_referencing_missing_curve_is_rejected():
    doc = minimal_doc()
    doc["curves"] = {"c": {"nodes": [0, 1], "times": [0.0, 1.0]}}
    doc["plans"] = {"pl": {"curves": ["ghost"], "probs": [1.0]}}
    with pytest.raises(InvalidInstanceError, match="unknown curve name 'ghost'"):
        instance_from_dict(doc)


def test_column_length_and_finiteness_checks():
    doc = minimal_doc()
    doc["columns"] = {"f": [1.0]}
    with pytest.raises(InvalidInstanceError, match="expected 2 per-point"):
        instance_from_dict(doc)
    doc["columns"] = {"f": [1.0, math.nan]}
    with pytest.raises(InvalidInstanceError, match="finite"):
        instance_from_dict(doc)


def test_curve_times_default_to_uniform():
    doc = minimal_doc()
    doc["curves"] = {"c": {"nodes": [0, 1, 0]}}
    inst = instance_from_dict(doc)
    assert inst.curves["c"].times == (0.0, 0.5, 1.0)


def test_shipped_instances_are_byte_stable(tmp_path):
    for name in ("two_point.json", "chain_demo.json", "chain_tiny_step.json"):
        src = DATA / name
        inst = load_instance(src)
        out = tmp_path / name
        save_instance(inst, out)
        assert out.read_bytes() == src.read_bytes()


def test_chain_zero_is_chain_demo_with_a_zero_mass_point(tmp_path):
    # The CI plan check on it runs the marginal kernel's m = 0 branch.
    doc = instance_to_dict(load_instance(DATA / "chain_demo.json"))
    doc["space"]["measure"] = [0.25, 0.0, 0.5, 0.25]
    doc["name"] = "chain_zero"
    out = tmp_path / "chain_zero.json"
    save_instance(instance_from_dict(doc), out)
    assert out.read_bytes() == (DATA / "chain_zero.json").read_bytes()


def test_round_trip_preserves_document(tmp_path):
    inst = load_instance(DATA / "chain_demo.json")
    doc = instance_to_dict(inst)
    again = instance_from_dict(doc, name="chain_demo")
    assert instance_to_dict(again) == doc
    path = tmp_path / "again.json"
    save_instance(again, path)
    assert json.loads(path.read_text()) == doc


def test_generator_is_deterministic_and_seed_sensitive():
    a = generate_random_instance(seed=12, n_points=9, n_measures=4)
    b = generate_random_instance(seed=12, n_points=9, n_measures=4)
    c = generate_random_instance(seed=13, n_points=9, n_measures=4)
    assert instance_to_dict(a) == instance_to_dict(b)
    assert instance_to_dict(a) != instance_to_dict(c)


def test_generator_round_trips_through_json(tmp_path):
    inst = generate_random_instance(seed=3, n_points=8, n_measures=3)
    path = tmp_path / "gen.json"
    save_instance(inst, path)
    again = load_instance(path)
    assert instance_to_dict(again) == instance_to_dict(inst)
    save_instance(again, tmp_path / "twice.json")
    assert (tmp_path / "twice.json").read_bytes() == path.read_bytes()


def test_generator_guardrails():
    with pytest.raises(ValueError, match="capped"):
        generate_random_instance(seed=0, n_points=GENERATOR_POINT_CAP + 1)
    with pytest.raises(ValueError, match="at least 2"):
        generate_random_instance(seed=0, n_points=1)
    with pytest.raises(ValueError, match="n_null_points"):
        generate_random_instance(seed=0, n_points=5, n_null_points=5)


def test_generator_null_points_stay_unsupported():
    inst = generate_random_instance(seed=6, n_points=10, n_null_points=3)
    space = inst.space
    assert int((space.measure == 0).sum()) == 3
    for mu in inst.families["random"].measures:
        for idx, _ in mu.items:
            assert space.measure[idx] > 0


def records():
    return [
        ResultRecord("a", "fam", 2.0, 1.5, 1.5, 0.0, 12, 3.25, 0),
        ResultRecord("b", "fam", 3.0, math.inf, math.inf, 0.0, 0, 0.5, 7),
    ]


def test_emit_results_csv(tmp_path):
    path = tmp_path / "out.csv"
    emit_results(records(), path, "csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "instance,family,p,value,dual_value,gap,iters,wall_ms,seed"
    assert len(lines) == 3
    assert lines[2].split(",")[3] == "inf"
    many = [records()[0]] * 100
    emit_results(many, path, "csv")
    assert len(path.read_text().strip().splitlines()) == 101


def test_emit_results_ndjson(tmp_path):
    path = tmp_path / "out.ndjson"
    emit_results(records(), path, "ndjson")
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["instance"] == "a"
    assert first["seed"] == "0"
    assert json.loads(lines[1])["value"] == "inf"
    with pytest.raises(ValueError, match="unknown result format"):
        emit_results(records(), path, "yaml")
