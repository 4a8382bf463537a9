"""No dead imports or helpers in the package, found with ``ast`` alone."""

import ast
from collections import Counter
from pathlib import Path

import eqschubert

SRC = Path(eqschubert.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))


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


# methods that no code of the package calls by name but that are kept, with
# the reason; nothing else may be
KEPT_METHODS = {
    # bench/shim.py's METHODS wraps it by name to count and time products
    "RationalExpression.mul",
}


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
