"""Each public name is listed once, in its module's ``__all__``, and is used
by the package or the benchmark."""

import ast
import importlib
from pathlib import Path

import modcap
import test_tracing_names

ROOT = Path(__file__).resolve().parents[1]
# Thin wrappers kept public though nothing in the package calls them.
KEPT_UNUSED = {"q_energy", "plan_lipschitz", "constant_curve"}

MODULES = (
    "curves", "duality", "errors", "families", "gradients",
    "instance", "modulus", "plans", "space",
)


def module_lists():
    return {
        name: importlib.import_module(f"modcap.{name}").__all__ for name in MODULES
    }


def test_module_lists_resolve():
    for mod_name, names in module_lists().items():
        module = importlib.import_module(f"modcap.{mod_name}")
        for name in names:
            assert hasattr(module, name), f"modcap.{mod_name}.{name}"


def test_no_name_in_two_module_lists():
    owner = {}
    for mod_name, names in module_lists().items():
        for name in names:
            assert name not in owner, f"{name} in {owner.get(name)} and {mod_name}"
            owner[name] = mod_name


def test_package_list_is_the_module_lists():
    names = [name for names in module_lists().values() for name in names]
    assert len(modcap.__all__) == len(set(modcap.__all__))
    assert sorted(modcap.__all__) == sorted(names)
    assert "bridge_inequality" in modcap.__all__
    for name in modcap.__all__:
        assert hasattr(modcap, name), name


def test_submodules_stay_package_attributes():
    for name in MODULES:
        assert getattr(modcap, name) is importlib.import_module(f"modcap.{name}")


def referenced_names(paths):
    """Every name a file reads, the attribute names it reads, and the names it
    imports, over the given files."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def test_every_public_name_is_used_outside_the_tests():
    src = (ROOT / "src" / "modcap").glob("*.py")
    used = referenced_names(
        [path for path in src if path.name != "__init__.py"]
        + list((ROOT / "benchmark").glob("*.py"))
    )
    for table in test_tracing_names.traced_tables().values():
        for funcs in table.values():
            used.update(funcs)
    unused = sorted(set(modcap.__all__) - used - KEPT_UNUSED)
    assert not unused, f"public names only the tests reach: {unused}"
    assert KEPT_UNUSED <= set(modcap.__all__) - used, "drop used names from KEPT_UNUSED"
