"""No dead imports or helpers in the package, found with ``ast`` alone,
and no public name that README's "Library entry points" does not document."""

import ast
import re
from collections import Counter
from pathlib import Path

import eqschubert

SRC = Path(eqschubert.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))
README = Path(__file__).resolve().parents[1] / "README.md"


def _entry_points():
    """The text of README's "Library entry points" section."""
    text = README.read_text()
    start = text.index("\n## Library entry points\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end != -1 else len(text)]


def test_the_exports_are_the_documented_entry_points():
    # a public name is a list item of the section that opens with it
    documented = re.findall(r"^- `(\w+)", _entry_points(), re.MULTILINE)
    assert len(documented) == len(set(documented))
    assert set(documented) == set(eqschubert._EXPORTS)


def test_the_entry_points_example_runs():
    (example,) = re.findall(r"```python\n(.*?)```", _entry_points(), re.DOTALL)
    exec(compile(example, str(README), "exec"), {})


def _bound_name(alias):
    return alias.asname or alias.name.split(".")[0]


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


def _references(tree):
    """How often code in ``tree`` refers to each name: loaded or stored
    names, attribute names and names imported by ``from ... import``.
    Docstrings and comments are not code, so a mention there counts for
    nothing."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_every_top_level_definition_has_a_user():
    # a user is the public name map, the interpreter (module hooks such as
    # __getattr__), or code of the package outside the definition itself
    # that refers to it by name
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    references = sum(map(_references, trees.values()), Counter())
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name in eqschubert._EXPORTS:
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if references[node.name] <= _references(node)[node.name]:
                unused.append("%s: %s" % (name, node.name))
    assert unused == []


# the internals of the y -> x lane batch: ``polyring._x_columns`` and
# ``polyring._lane_groups`` are its interface, and only ``polyring`` sizes,
# masks or converts lanes
LANE_INTERNALS = {"_lane_bytes", "_lane_mask", "_y_to_x_lanes"}


def test_only_polyring_reaches_the_lane_internals():
    reached = []
    for path in MODULES:
        if path.name == "polyring.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            reached += ["%s: %s" % (path.name, name) for name in sorted(names & LANE_INTERNALS)]
    assert reached == []


# methods that no code of the package calls by name but that are kept, with
# the reason; nothing else may be
KEPT_METHODS = {
    # bench/shim.py's METHODS wraps it by name to count and time products
    "RationalExpression.mul",
}


# non-dunder method names that more than one class defines, with the reason;
# the method check matches names bare, so a name shared by two classes counts
# a call of either as a call of both, and nothing else may share one
SHARED_METHOD_NAMES = {
    # Polynomial and RationalExpression are both values the engine tests
    # for zero, and both are called
    "is_zero",
}


def test_no_method_name_is_shared_unless_listed():
    owners = Counter()
    for path in MODULES:
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef):
                owners.update(
                    {
                        node.name
                        for node in cls.body
                        if isinstance(node, ast.FunctionDef)
                        and not (node.name.startswith("__") and node.name.endswith("__"))
                    }
                )
    assert {name for name, count in owners.items() if count > 1} == SHARED_METHOD_NAMES


def _unused_methods(trees):
    """``file: Class.method`` for each method of a class in ``trees`` (name
    to parsed module), public or private, that no code outside its own
    body refers to by name; dunder methods are the interpreter's."""
    references = sum(map(_references, trees.values()), Counter())
    unused = []
    for name, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef):
                    continue
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                if references[node.name] <= _references(node)[node.name]:
                    unused.append("%s: %s.%s" % (name, cls.name, node.name))
    return unused


def test_every_private_method_has_a_user():
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    assert [m for m in _unused_methods(trees) if m.split(".")[-1].startswith("_")] == []


def test_every_public_method_has_a_user_or_is_kept():
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    public = [m for m in _unused_methods(trees) if not m.split(".")[-1].startswith("_")]
    assert {m.split(": ")[1] for m in public} == KEPT_METHODS
    assert len(public) == len(KEPT_METHODS)


def test_a_private_method_called_only_by_itself_is_dead():
    source = (
        "class A:\n"
        "    def _dead(self, n):\n"
        "        return self._dead(n - 1) if n else 0\n"
        "    def _live(self):\n"
        "        return 1\n"
        "    def __len__(self):\n"
        "        return self._live()\n"
    )
    assert _unused_methods({"a.py": ast.parse(source)}) == ["a.py: A._dead"]


def test_a_public_method_called_only_by_itself_is_dead():
    source = (
        "class A:\n"
        "    def dead(self, n):\n"
        "        return self.dead(n - 1) if n else 0\n"
        "    def live(self):\n"
        "        return 1\n"
        "    def __len__(self):\n"
        "        return self.live()\n"
    )
    assert _unused_methods({"a.py": ast.parse(source)}) == ["a.py: A.dead"]
