"""The exit-code contract on drawn command lines.

Each argv is drawn from the command grammar, with junk tokens mixed in
anywhere. k and n stay at most 5, so no drawn run starts a large build. A
run happens in a fresh temporary working directory, and every path it can
name is relative (junk holds no path separator), so whatever it writes
stays there. Every run must exit 0, 2 or 3, or 1 only for a failing check,
and never raise out of ``main`` or print a traceback. Every suite passes
on a correct engine, so the one failing check a run can meet is a stale
fixture file.
"""

import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import invoke

COMMANDS = ["table", "multiply", "verify", "restrictions", "fixtures"]
SUITES = ["positivity", "axioms", "duality", "gkm", "tbasis", "specialization"]


def _bounded(token):
    """False for a token that parses as an int above 5, so junk after
    ``--k`` or ``--n`` never starts a large build."""
    try:
        return int(token) <= 5
    except ValueError:
        return True


# text a real command line can hold: no NUL, no lone surrogate, no path separator
junk_text = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00/\\"), max_size=8
).filter(_bounded)
junk = st.one_of(
    junk_text,
    st.sampled_from(
        ["-", "--", "-h", "--k", "--n", "--bogus", "--k=2", "--n=", "[", "[1,", "[[1]]",
         "[1.0]", "[true]", "[-1]", "[3,1]", "nan", "-1", "0", "1e3", " 2", "٣", "1_0"]
    ),
)
small = st.integers(-1, 5).map(str)
partition = st.one_of(
    st.lists(st.integers(0, 3), max_size=3).map(lambda parts: sorted(parts, reverse=True)),
    st.lists(st.integers(-1, 5), max_size=4),
).map(lambda parts: "[%s]" % ",".join(map(str, parts)))
out = st.sampled_from(["-", "out.json", "missing/out.json", ""])
# the value of each option; None for a flag
VALUES = {
    "--d-max": st.one_of(small, st.just("99")),
    "--format": st.sampled_from(["json", "csv", "text"]),
    "--out": out,
    "--cache-dir": st.sampled_from(["cache", "out.json", ""]),
    "--no-cache": None,
    "--u": st.one_of(partition, junk),
    "--v": st.one_of(partition, junk),
    "--suite": st.sampled_from(SUITES + ["bogus"]),
    "--family": st.sampled_from(["schubert", "opposite", "other"]),
    "--regen": None,
    "--path": st.sampled_from(["fixtures.json", "out.json", "missing/f.json", ""]),
}
OPTIONS = {
    "table": ["--d-max", "--format", "--out", "--cache-dir", "--no-cache"],
    "multiply": ["--u", "--v", "--format"],
    "verify": ["--suite", "--d-max", "--format"],
    "restrictions": ["--family", "--out"],
    "fixtures": ["--regen", "--path"],
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(COMMANDS))
    argv = [command]
    if command != "fixtures":
        if draw(st.integers(0, 4)):
            k = draw(st.integers(1, 4))
            argv += ["--k", str(k), "--n", str(draw(st.integers(k + 1, 5)))]
        else:
            argv += ["--k", draw(small), "--n", draw(small)]
    if command == "multiply" and draw(st.integers(0, 4)):
        argv += ["--u", draw(partition), "--v", draw(partition)]
    names = draw(st.lists(st.sampled_from(OPTIONS[command]), max_size=4))
    if not draw(st.integers(0, 5)):
        names.append(draw(st.sampled_from(sorted(VALUES))))  # another command's option
    for name in names:
        argv.append(name)
        if VALUES[name] is not None:
            argv.append(draw(VALUES[name]))
    if not draw(st.integers(0, 2)):
        for _ in range(draw(st.integers(1, 2))):
            argv.insert(draw(st.integers(0, len(argv))), draw(junk))
    return argv


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(command_lines())
def test_every_drawn_command_line_keeps_the_exit_code_contract(monkeypatch, argv):
    monkeypatch.delenv("EQSCHUBERT_CACHE_DIR", raising=False)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            with open("out.json", "w") as fh:
                fh.write("{}\n")
            result = invoke(argv)
        finally:
            os.chdir(home)
    assert result.exit_code in (0, 1, 2, 3), (argv, result.output)
    if result.exit_code == 1:
        assert "is stale" in result.stderr, (argv, result.output)
    assert "Traceback" not in result.output, (argv, result.output)
