"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 internal or
cache error.

The engine and the renderers are imported inside the commands that use them,
so a warm cache read loads neither.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys

import click

from .cache import load as cache_load
from .cache import store as cache_store
from .errors import (
    CacheError,
    ContextError,
    ExpansionError,
    NonPolynomialError,
    TableSolveError,
)
from .grass import GrassContext, default_d_max

DEFAULT_FIXTURE_PATH = os.path.join("fixtures", "oracle_fixtures.json")
EMIT_SLICE = 1 << 20


def _context(k, n):
    try:
        return GrassContext(k, n)
    except ContextError as exc:
        raise click.UsageError(str(exc))


def _fail(message):
    """Report an internal or cache error on one line and exit 3."""
    click.echo(message, err=True)
    sys.exit(3)


def _emit(text, out):
    """Write ``text`` to stdout or, through a temporary file, to ``out``, in
    slices of ``EMIT_SLICE`` characters, so no encoded copy of the whole
    text is ever made."""
    slices = range(0, len(text), EMIT_SLICE)
    if out == "-":
        for i in slices:
            click.echo(text[i : i + EMIT_SLICE], nl=False)
        return
    tmp = out + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for i in slices:
                fh.write(text[i : i + EMIT_SLICE])
        os.replace(tmp, out)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        _fail("cannot write %s: %s" % (out, exc))


class _Group(click.Group):
    """Reports a defect the engine detects as an internal error: exit 3."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (TableSolveError, NonPolynomialError, ExpansionError) as exc:
            _fail("internal error: %s" % exc)


@click.group(cls=_Group)
def cli():
    """Exact equivariant quantum Schubert calculus on Gr(k,n)."""


@cli.command()
@click.option("--k", required=True, type=int)
@click.option("--n", required=True, type=int)
@click.option("--d-max", type=int, default=None, help="Cap on exported q-powers.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--out", default="-", help="Output file, or - for stdout.")
@click.option(
    "--cache-dir",
    envvar="EQSCHUBERT_CACHE_DIR",
    default=None,
    help="Directory for the table cache (env EQSCHUBERT_CACHE_DIR).",
)
@click.option("--no-cache", is_flag=True, default=False)
def table(k, n, d_max, fmt, out, cache_dir, no_cache):
    """Compute and export the full structure-constant table."""
    ctx = _context(k, n)
    if d_max is None:
        d_max = default_d_max(ctx)
    if d_max < 0:
        raise click.UsageError("--d-max must be nonnegative")
    use_cache = cache_dir and not no_cache
    payload = None
    if use_cache:
        try:
            payload = cache_load(cache_dir, k, n, d_max)
        except CacheError as exc:
            _fail("cache error: %s" % exc)
    if payload is None:
        from .render import table_json

        payload = table_json(ctx, d_max)
        if use_cache:
            try:
                cache_store(cache_dir, k, n, d_max, payload)
            except OSError as exc:
                _fail("cache error: %s" % exc)
    if fmt == "csv":
        from .render import CSV_ERRORS, table_csv

        try:
            payload = table_csv(payload, k, n, d_max)
        except CSV_ERRORS as exc:
            _fail("cache error: %s" % exc)
    _emit(payload, out)


@cli.command("multiply")
@click.option("--k", required=True, type=int)
@click.option("--n", required=True, type=int)
@click.option("--u", "u_text", required=True, help="Partition as a JSON array.")
@click.option("--v", "v_text", required=True, help="Partition as a JSON array.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def multiply_cmd(k, n, u_text, v_text, fmt):
    """Print the product of two basis classes."""
    from .quantum import multiply
    from .render import partition_argument, qelem_json, qelem_text

    ctx = _context(k, n)
    try:
        u = partition_argument(ctx, u_text)
        v = partition_argument(ctx, v_text)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    elem = multiply(u, v)
    click.echo(qelem_text(elem) if fmt == "text" else qelem_json(elem))


@cli.command()
@click.option("--k", required=True, type=int)
@click.option("--n", required=True, type=int)
@click.option(
    "--suite",
    "suite_names",
    multiple=True,
    help="Suites to run; defaults to all.",
)
@click.option("--d-max", type=int, default=None)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def verify(k, n, suite_names, d_max, fmt):
    """Run verification suites; exit 0 only if every check passes."""
    from .render import canonical_json
    from .suites import SUITES

    ctx = _context(k, n)
    if d_max is not None and d_max < 0:
        raise click.UsageError("--d-max must be nonnegative")
    # a suite named twice runs once; the reports are sorted below anyway
    names = list(dict.fromkeys(suite_names)) or sorted(SUITES)
    for name in names:
        if name not in SUITES:
            raise click.UsageError(
                "unknown suite %r (known: %s)" % (name, ", ".join(sorted(SUITES)))
            )
    reports = [SUITES[name](ctx, d_max) for name in names]
    reports.sort(key=lambda rep: rep["suite"])
    if fmt == "json":
        click.echo(canonical_json(reports))
    else:
        for rep in reports:
            status = "pass" if rep["passed"] else "FAIL"
            detail = ", ".join(
                "%s=%s" % (key, rep[key])
                for key in sorted(rep)
                if key.endswith("checked") or key == "d_max"
            )
            click.echo(
                "%-14s %s%s" % (rep["suite"], status, " (%s)" % detail if detail else "")
            )
            for violation in rep["violations"]:
                click.echo("  violation: %s" % json.dumps(violation, sort_keys=True))
    if not all(rep["passed"] for rep in reports):
        sys.exit(1)


@cli.command()
@click.option("--k", required=True, type=int)
@click.option("--n", required=True, type=int)
@click.option(
    "--family", type=click.Choice(["schubert", "opposite"]), default="schubert"
)
@click.option("--out", default="-")
def restrictions(k, n, family, out):
    """Export the fixed-point restriction table as JSON."""
    from .render import restriction_table_json

    ctx = _context(k, n)
    _emit(restriction_table_json(ctx, family), out)


@cli.command()
@click.option("--regen", is_flag=True, default=False, help="Rewrite the fixture file.")
@click.option("--path", default=DEFAULT_FIXTURE_PATH, show_default=True)
def fixtures(regen, path):
    """Check (or with --regen, rewrite) the oracle-stamped fixture file."""
    from .oracles import build_fixtures

    fresh = json.dumps(build_fixtures(), sort_keys=True, indent=1) + "\n"
    if regen:
        try:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        except OSError as exc:
            _fail("cannot write %s: %s" % (path, exc))
        _emit(fresh, path)
        click.echo("wrote %s" % path)
        return
    try:
        with open(path, "r", encoding="utf-8") as fh:
            on_disk = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        _fail("cannot read %s: %s" % (path, exc))
    if on_disk != fresh:
        click.echo("fixture file %s is stale; rerun with --regen" % path, err=True)
        sys.exit(1)
    click.echo("fixtures match")


def main():
    cli()


if __name__ == "__main__":
    main()
