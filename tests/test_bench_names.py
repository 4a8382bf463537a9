"""The benchmark's tracer wraps package names it finds by module and
attribute; a rename or an inlined function would silently zero its spans."""

import ast
import importlib
from pathlib import Path

SHIM = Path(__file__).resolve().parents[1] / "bench" / "shim.py"


def _shim_tables():
    tables = {}
    for node in ast.parse(SHIM.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("FUNCTIONS", "METHODS"):
                tables[name] = ast.literal_eval(node.value)
    return tables["FUNCTIONS"], tables["METHODS"]


def test_traced_names_resolve_in_the_package():
    functions, methods = _shim_tables()
    assert functions and methods
    for span, (module, attr) in functions.items():
        mod = importlib.import_module("eqschubert." + module)
        assert callable(getattr(mod, attr, None)), span
    for span, (module, cls_name, attrs) in methods.items():
        cls = getattr(importlib.import_module("eqschubert." + module), cls_name)
        for attr in attrs:
            assert callable(vars(cls).get(attr)), (span, attr)
