"""A warm cache read must not pay for importing the engine, and the CLI must
not pay for libraries its start-up never uses."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import invoke

SRC = Path(__file__).resolve().parents[1] / "src"

ENGINE = ("quantum", "equivariant", "oracles", "suites", "polyring", "render")

CHECK = """
import json, sys

def engine_loaded():
    return sorted(m for m in %r if "eqschubert." + m in sys.modules)

import eqschubert.cli
after_import = engine_loaded()
eqschubert.cli.main(sys.argv[1:])
after_read = engine_loaded()

import eqschubert
suites = sorted(eqschubert.suites.SUITES)
names = {}
exec("from eqschubert import *", names)
unbound = sorted(set(eqschubert.__all__) - set(names))
print(json.dumps([after_import, after_read, suites, unbound]), file=sys.stderr)
""" % (ENGINE,)

# which of ``sys.argv[2:]`` importing the module ``sys.argv[1]`` loads
NEWLY_LOADED = """
import importlib, json, sys

before = set(sys.modules)
importlib.import_module(sys.argv[1])
print(json.dumps(sorted(set(sys.argv[2:]) & (set(sys.modules) - before))))
"""


def _python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def _warm_read(cache_dir, fmt):
    """The package modules of ``ENGINE`` loaded after importing the CLI and
    after a warm Gr(2,4) read in ``fmt``, which must write the cold bytes."""
    args = ["table", "--k", "2", "--n", "4", "--format", fmt, "--cache-dir", str(cache_dir)]
    cold = invoke(args)
    assert cold.exit_code == 0 and len(os.listdir(cache_dir)) == 1
    proc = _python("-c", CHECK, *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == cold.output
    after_import, after_read, suites, unbound = json.loads(proc.stderr.splitlines()[-1])
    assert suites == ["axioms", "duality", "gkm", "positivity", "specialization", "tbasis"]
    assert unbound == []
    return after_import, after_read


def test_warm_json_read_imports_no_engine_module(tmp_path):
    assert _warm_read(tmp_path, "json") == ([], [])


def test_warm_csv_read_imports_only_the_renderer(tmp_path):
    # the CSV renderer reads every row of the cached payload as text, so
    # it never needs the polynomial ring
    assert _warm_read(tmp_path, "csv") == ([], ["render"])


@pytest.mark.parametrize(
    "module, banned",
    [
        (
            "eqschubert.cli",
            ("click", "inspect", "dataclasses", "typing", "gzip", "tempfile", "hashlib", "signal"),
        ),
        ("eqschubert.quantum", ("inspect", "dataclasses")),
        ("eqschubert.equivariant", ("inspect", "dataclasses")),
        ("eqschubert.render", ("inspect", "dataclasses")),
        ("eqschubert.suites", ("inspect", "dataclasses")),
    ],
)
def test_import_loads_no_heavy_library(module, banned):
    # a module the interpreter's own start-up already loaded costs nothing
    proc = _python("-c", NEWLY_LOADED, module, *banned)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
