"""The benchmark tracer rebinds modcap functions by name; they must exist."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def traced_tables():
    """SPANS and LEAVES of the tracer, read from its source."""
    tables = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANS", "LEAVES"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def test_traced_names_are_modcap_attributes():
    tables = traced_tables()
    assert set(tables) == {"SPANS", "LEAVES"}
    for table in tables.values():
        for mod_name, funcs in table.items():
            module = importlib.import_module(f"modcap.{mod_name}")
            for fn in funcs:
                assert callable(getattr(module, fn, None)), f"modcap.{mod_name}.{fn}"
