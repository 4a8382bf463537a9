"""The benchmark's tracer wraps package names it finds by module and
attribute; a rename or an inlined function would silently zero its spans."""

import ast
import importlib
import json
from pathlib import Path

import pytest

from conftest import invoke

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


def test_verify_suites_call_the_traced_sites(gr24, monkeypatch):
    # the tracer counts quantum.circ.calls and the equivariant.elr_table
    # span at these names, so the suites must reach their work through them
    import eqschubert.equivariant as equivariant_mod
    import eqschubert.quantum as quantum_mod
    import eqschubert.suites as suites_mod

    calls = {"circ": 0, "elr_table": 0}
    circ, elr_table = quantum_mod.EQTable.circ, equivariant_mod.elr_table

    def counted_circ(self, elem, t):
        calls["circ"] += 1
        return circ(self, elem, t)

    def counted_elr_table(ctx):
        calls["elr_table"] += 1
        return elr_table(ctx)

    monkeypatch.setattr(quantum_mod.EQTable, "circ", counted_circ)
    # every binding site, as the tracer rebinds them
    for mod in (equivariant_mod, suites_mod):
        monkeypatch.setattr(mod, "elr_table", counted_elr_table)
    assert suites_mod.verify_algebra(gr24)["passed"]
    # one circ per distinct (unordered pair, class): 21 pairs times 6 classes
    assert calls["circ"] == 21 * 6
    assert suites_mod.verify_specialization(gr24)["passed"]
    assert calls["elr_table"] == 1


@pytest.mark.parametrize("k, n", [(2, 4), (3, 6)])
def test_a_cold_export_is_counted_as_the_tracer_counts_it(tmp_path, monkeypatch, k, n):
    # the tracer counts render.rows as len() of what table_entries returns
    # and render.payload_bytes as len() of what table_json returns, right
    # after each call and before the export is written
    import eqschubert.render as render_mod

    lengths = {"table_entries": [], "table_json": []}
    for name, counts in lengths.items():

        def counted(*args, _fn=getattr(render_mod, name), _counts=counts):
            result = _fn(*args)
            _counts.append(len(result))
            return result

        monkeypatch.setattr(render_mod, name, counted)
    out = tmp_path / "t.json"
    args = ["table", "--k", str(k), "--n", str(n), "--no-cache", "--out", str(out)]
    assert invoke(args).exit_code == 0
    data = out.read_bytes()
    (rows,), (size,) = lengths["table_entries"], lengths["table_json"]
    assert rows == len(json.loads(data)["entries"]) > 0
    assert size == len(data)
