"""Every function of the package that no command calls is listed, with its
reason.

A fixed command set runs through ``cli.main``, with README's "Library entry
points" example, in a fresh interpreter under a call-only profiler set
before ``import eqschubert``.  The package keeps caches (``lru_cache``s and
``grass._STORES``) that an earlier test could have filled, so only a fresh
interpreter shows what the commands call.  A function is named
``module.qualname``, nested functions included; lambdas and comprehensions
are left out.  The functions never called must be exactly the keys of
``UNREACHED``: a newly dead function fails the test, and so does an entry
whose function now runs.

Run this file as a script to print the functions no command calls, each
with its ``UNREACHED`` reason or ``(unlisted)``, and every entry whose
function now runs::

    python tests/test_reach.py
"""

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
from inspect import CO_OPTIMIZED
from pathlib import Path
from types import CodeType

REPO = Path(__file__).resolve().parents[1]
PACKAGE = "eqschubert"

# the commands traced, each run once in this order: a cold export through a
# temporary cache and three reads of it, every suite, every other command
COMMANDS = [
    ["table", "--k", "2", "--n", "4", "--cache-dir", "{tmp}"],
    ["table", "--k", "2", "--n", "4", "--cache-dir", "{tmp}"],
    ["table", "--k", "2", "--n", "4", "--cache-dir", "{tmp}", "--format", "csv"],
    ["table", "--k", "2", "--n", "4", "--no-cache", "--format", "csv", "--out", "{tmp}/t.csv"],
    ["verify", "--k", "2", "--n", "4"],
    ["verify", "--k", "2", "--n", "4", "--format", "json"],
    ["restrictions", "--k", "2", "--n", "4", "--out", "{tmp}/r.json"],
    ["restrictions", "--k", "2", "--n", "4", "--family", "opposite"],
    ["multiply", "--k", "2", "--n", "4", "--u", "[2, 1]", "--v", "[1]"],
    ["multiply", "--k", "2", "--n", "4", "--u", "[1, 1]", "--v", "[2]", "--format", "json"],
]

# function -> why no command calls it
ERROR = "error path"
DISPLAY = "display: only a developer's repr() calls it"
BENCH = "bench-only: bench/shim.py calls it, until the benchmark reads a recorder"
LIBRARY = "library entry point that no command calls"
UNREACHED = {
    "__init__.__dir__": LIBRARY + ": dir(eqschubert)",
    "cli._ClosedStdout.flush": ERROR + ": a command started with stdout closed",
    "cli._ClosedStdout.write": ERROR + ": a command started with stdout closed",
    "cli._fail": ERROR + ": exit 3",
    "cli._terminated": ERROR + ": SIGHUP or SIGTERM",
    "equivariant.FixedPoint.__eq__": LIBRARY + ": dict lookups match fixed points by identity",
    "equivariant.FixedPoint.__repr__": DISPLAY,
    "grass.GrassContext.__repr__": DISPLAY,
    "grass.Partition.__repr__": DISPLAY,
    "grass._frozen": ERROR + ": assigning to an immutable value",
    "grass.forget": LIBRARY,
    "polyring.Polynomial.__repr__": DISPLAY,
    "polyring.RationalExpression.__repr__": DISPLAY,
    "polyring.RationalExpression.mul": BENCH,
    "quantum.EQTable._named": ERROR + ": TableSolveError names the failing key",
    "quantum.QModuleElement.__repr__": DISPLAY,
    "quantum.eq_chevalley": LIBRARY,
    "render._Payload.__len__": BENCH,
    "render._Rows.__len__": BENCH,
    "suites._where": ERROR + ": a violation names where it is",
}

ANONYMOUS = {"<lambda>", "<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


def _functions(code, prefix=""):
    """``(qualname, code)`` of each function nested in ``code``, lambdas and
    comprehensions left out; a class body is no function (its code is not
    ``CO_OPTIMIZED``), but the methods in it are."""
    for const in code.co_consts:
        if isinstance(const, CodeType) and const.co_name not in ANONYMOUS:
            name = prefix + const.co_name
            if const.co_flags & CO_OPTIMIZED:
                yield name, const
                yield from _functions(const, name + ".<locals>.")
            else:
                yield from _functions(const, name + ".")


def never_called():
    """Run ``COMMANDS`` and README's example in this interpreter, which must
    not have imported the package yet, and return the ``module.qualname`` of
    every package function they never call."""
    assert PACKAGE not in sys.modules, "the package is already imported"
    called = set()

    def profile(frame, event, arg):
        called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        from eqschubert.cli import main

        text = (REPO / "README.md").read_text()
        section = text[text.index("\n## Library entry points\n") :]
        example = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
        with tempfile.TemporaryDirectory() as tmp:
            for argv in COMMANDS:
                with contextlib.redirect_stdout(io.StringIO()):
                    try:
                        main([arg.replace("{tmp}", tmp) for arg in argv])
                    except SystemExit as exc:
                        raise AssertionError("%s exited %s" % (argv, exc.code))
            exec(compile(example, "README.md", "exec"), {})
    finally:
        sys.setprofile(None)

    package = Path(sys.modules[PACKAGE].__file__).parent
    # a function's name and first line tell it from every other in its file
    ran = {(code.co_filename, code.co_firstlineno, code.co_name) for code in called}
    missing = set()
    for path in sorted(package.glob("*.py")):
        for name, code in _functions(compile(path.read_text(), str(path), "exec")):
            if (str(path), code.co_firstlineno, code.co_name) not in ran:
                missing.add("%s.%s" % (path.stem, name))
    return missing


def _never_called_under(path):
    """``never_called()`` in a fresh interpreter, on the package found in
    the directory ``path``."""
    proc = subprocess.run(
        [sys.executable, __file__, "--json", str(path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def _package_dir():
    # imported here: run as a script, this file imports the package only
    # once the profiler is set
    import eqschubert

    return Path(eqschubert.__file__).resolve().parent


def test_no_command_calls_exactly_the_listed_functions():
    missing = _never_called_under(_package_dir().parent)
    assert sorted(missing - set(UNREACHED)) == [], "newly unreached: list or delete them"
    assert sorted(set(UNREACHED) - missing) == [], "listed but called: drop the entries"


def test_a_planted_function_that_no_command_calls_is_found(tmp_path):
    # a copy of the package with a function, and one nested in it, that
    # nothing calls
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(_package_dir(), tmp_path / PACKAGE, ignore=ignore)
    with open(tmp_path / PACKAGE / "polyring.py", "a") as fh:
        fh.write("\n\ndef _planted():\n    def inner():\n        pass\n\n    return inner\n")
    assert _never_called_under(tmp_path) == set(UNREACHED) | {
        "polyring._planted",
        "polyring._planted.<locals>.inner",
    }


def _report(missing):
    for name in sorted(missing | set(UNREACHED)):
        if name not in missing:
            print("%s: called, but listed as %r" % (name, UNREACHED[name]))
        else:
            print("%s: %s" % (name, UNREACHED.get(name, "(unlisted)")))


if __name__ == "__main__":
    # ``--json PATH``: trace the package found under PATH and print the
    # names as JSON; with no arguments, trace the package under src/
    as_json = sys.argv[1:2] == ["--json"]
    sys.path.insert(0, sys.argv[2] if as_json else str(REPO / "src"))
    found = never_called()
    if as_json:
        print(json.dumps(sorted(found)))
    else:
        _report(found)
