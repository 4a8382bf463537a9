"""A warm cache read must not pay for importing the engine."""

import json
import os
import subprocess
import sys
from pathlib import Path

from click.testing import CliRunner

from eqschubert.cli import cli

SRC = Path(__file__).resolve().parents[1] / "src"

ENGINE = ("quantum", "equivariant", "oracles", "suites", "polyring", "render")

CHECK = """
import json, sys

def engine_loaded():
    return sorted(m for m in %r if "eqschubert." + m in sys.modules)

import eqschubert.cli
after_import = engine_loaded()
eqschubert.cli.cli.main(sys.argv[1:], standalone_mode=False)
after_read = engine_loaded()

import eqschubert
suites = sorted(eqschubert.suites.SUITES)
names = {}
exec("from eqschubert import *", names)
unbound = sorted(set(eqschubert.__all__) - set(names))
print(json.dumps([after_import, after_read, suites, unbound]), file=sys.stderr)
""" % (ENGINE,)


def test_warm_json_read_imports_no_engine_module(tmp_path):
    args = ["table", "--k", "1", "--n", "2", "--cache-dir", str(tmp_path)]
    cold = CliRunner().invoke(cli, args)
    assert cold.exit_code == 0 and len(os.listdir(tmp_path)) == 1
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHECK, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == cold.output
    after_import, after_read, suites, unbound = json.loads(proc.stderr.splitlines()[-1])
    assert after_import == [] and after_read == []
    assert suites == ["axioms", "duality", "gkm", "positivity", "specialization", "tbasis"]
    assert unbound == []
