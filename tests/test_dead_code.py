"""No dead imports or helpers in the package, found with ``ast`` alone."""

import ast
import re
from pathlib import Path

import eqschubert

SRC = Path(eqschubert.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))


def _bound_name(alias):
    return alias.asname or alias.name.split(".")[0]


def _is_click_command(node):
    for deco in node.decorator_list:
        func = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(func, ast.Attribute) and func.attr in ("command", "group"):
            return True
    return False


def test_every_import_is_used():
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if _bound_name(alias) not in loaded:
                        unused.append("%s: %s" % (path.name, _bound_name(alias)))
    assert unused == []


def test_every_top_level_definition_has_a_user():
    # a user is the public name map, a click command decorator, the
    # interpreter (module hooks such as __getattr__), or any other line of
    # the package that names the definition
    lines = [
        (path.name, number, line)
        for path in MODULES
        for number, line in enumerate(path.read_text().splitlines(), 1)
    ]
    unused = []
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name in eqschubert._EXPORTS or _is_click_command(node):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            word = re.compile(r"\b%s\b" % re.escape(node.name))
            if not any(
                word.search(line)
                for name, number, line in lines
                if (name, number) != (path.name, node.lineno)
            ):
                unused.append("%s: %s" % (path.name, node.name))
    assert unused == []
