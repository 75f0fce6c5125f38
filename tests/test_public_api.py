"""Each public name is listed once, in its module's ``__all__``."""

import importlib

import modcap

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
