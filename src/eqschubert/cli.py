"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 internal or
cache error; 128 + the signal's number when SIGINT, SIGHUP or SIGTERM stops
a command (130, 129, 143).

Users re-export tables from the cache far more often than they build them,
and a warm re-export is mostly interpreter start and the imports of this
module. So the module imports only what that path runs: ``json``, the cache
module with its ``zlib`` (not ``gzip``, nor ``tempfile``; ``hashlib`` only
when a cache file is read or written), ``_signal``, the built-in core of
``signal`` (which builds its enums on import, about 1.3 ms), and the
standard library's ``argparse``, which needs neither ``inspect`` nor
``typing``. The engine and the renderers are imported inside the commands
that use them, so a warm JSON read loads neither, and a warm CSV read loads
the renderer alone.
"""

from __future__ import annotations

import _signal
import argparse
import contextlib
import errno
import json
import os
import sys

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

# a failed check of the engine's own arithmetic, or a limit of the interpreter
INTERNAL_ERRORS = (
    TableSolveError,
    NonPolynomialError,
    ExpansionError,
    MemoryError,
    RecursionError,
    OverflowError,
)
EMIT_SLICE = 1 << 20
# the signals a command raises as SIGINT is raised, with the names it reports
CONVERTED_SIGNALS = {_signal.SIGHUP: "SIGHUP", _signal.SIGTERM: "SIGTERM"}


class _UsageError(Exception):
    """A bad argument found after parsing, reported as a parse error: exit 2."""


def _context(k, n):
    try:
        return GrassContext(k, n)
    except ContextError as exc:
        raise _UsageError(str(exc))


class _ClosedStdout:
    """``sys.stdout`` while a command runs with fd 1 closed at start-up,
    where the interpreter sets it to None: a write fails as a write to a
    closed descriptor does, so it exits 3 like any other stdout failure."""

    def write(self, text):
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))

    def flush(self):
        pass


def _terminated(signum, frame):
    """Raise SIGHUP or SIGTERM as SIGINT is raised, so every write's
    cleanup runs."""
    raise KeyboardInterrupt(signum)


def _fail(message):
    """Report an internal or cache error on one line and exit 3."""
    print(message, file=sys.stderr)
    sys.exit(3)


def _emit(payload, out):
    """Write ``payload`` to stdout or to ``out``.  A string (a warm JSON
    read) goes in slices of ``EMIT_SLICE`` characters, so no encoded
    copy of the whole text is ever made; any other payload is a streamed
    export, an iterable of text chunks, each written as it is formatted.
    A symbolic link is followed to its target, which is written, so the
    link stays a link.  A target that exists and is no regular file (a
    FIFO, a device) is written in place; any other goes through a temporary
    file beside it, named for this process, so two exports to one ``out``
    do not collide.  A write that fails for any reason, an interrupt or a
    ``MemoryError`` while a chunk is formatted included, removes that file;
    an ``OSError`` exits 3 here, any other error goes on unchanged."""
    chunks = payload
    if isinstance(payload, str):
        chunks = (payload[i : i + EMIT_SLICE] for i in range(0, len(payload), EMIT_SLICE))
    if out == "-":
        for chunk in chunks:
            sys.stdout.write(chunk)
        return
    target = os.path.realpath(out)
    in_place = os.path.exists(target) and not os.path.isfile(target)
    tmp = target if in_place else "%s.%d.tmp" % (target, os.getpid())
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for chunk in chunks:
                fh.write(chunk)
        if not in_place:
            os.replace(tmp, target)
    except BaseException as exc:
        if not in_place:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        if not isinstance(exc, OSError):
            raise
        _fail("cannot write %s: %s" % (out, exc))


def table(k, n, d_max, fmt, out, cache_dir, no_cache):
    """Compute and export the full structure-constant table."""
    ctx = _context(k, n)
    if d_max is None:
        d_max = default_d_max(ctx)
    if d_max < 0:
        raise _UsageError("--d-max must be nonnegative")
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
        from .render import table_csv

        try:
            payload = table_csv(str(payload), k, n, d_max)
        except ValueError as exc:
            _fail("cache error: %s" % exc)
    _emit(payload, out)


def multiply_cmd(k, n, u_text, v_text, fmt):
    """Print the product of two basis classes."""
    from .quantum import multiply
    from .render import partition_argument, qelem_json, qelem_text

    ctx = _context(k, n)
    try:
        u = partition_argument(ctx, u_text)
        v = partition_argument(ctx, v_text)
    except ValueError as exc:
        raise _UsageError(str(exc))
    elem = multiply(u, v)
    print(qelem_text(elem) if fmt == "text" else qelem_json(elem))


def verify(k, n, suite_names, d_max, fmt):
    """Run verification suites; exit 0 only if every check passes."""
    from .render import canonical_json
    from .suites import SUITES

    ctx = _context(k, n)
    if d_max is not None and d_max < 0:
        raise _UsageError("--d-max must be nonnegative")
    # a suite named twice runs once; the reports are sorted below anyway
    names = list(dict.fromkeys(suite_names or ())) or sorted(SUITES)
    for name in names:
        if name not in SUITES:
            raise _UsageError(
                "unknown suite %r (known: %s)" % (name, ", ".join(sorted(SUITES)))
            )
    reports = [SUITES[name](ctx, d_max) for name in names]
    reports.sort(key=lambda rep: rep["suite"])
    if fmt == "json":
        print(canonical_json(reports))
    else:
        for rep in reports:
            status = "pass" if rep["passed"] else "FAIL"
            detail = ", ".join(
                "%s=%s" % (key, rep[key])
                for key in sorted(rep)
                if key.endswith("checked") or key == "d_max"
            )
            print("%-14s %s%s" % (rep["suite"], status, " (%s)" % detail if detail else ""))
            for violation in rep["violations"]:
                print("  violation: %s" % json.dumps(violation, sort_keys=True))
    if not all(rep["passed"] for rep in reports):
        sys.exit(1)


def restrictions(k, n, family, out):
    """Export the fixed-point restriction table as JSON."""
    from .render import restriction_table_json

    ctx = _context(k, n)
    _emit(restriction_table_json(ctx, family), out)


# command name -> the function its parsed options are passed to, by keyword
COMMANDS = {
    "table": table,
    "multiply": multiply_cmd,
    "verify": verify,
    "restrictions": restrictions,
}


def _parser():
    """The top-level parser and, by command name, each command's parser.

    No parser accepts an abbreviated option, and every parse error exits 2.
    """
    parser = argparse.ArgumentParser(
        prog="eqschubert",
        description="Exact equivariant quantum Schubert calculus on Gr(k,n).",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    subs = {
        name: commands.add_parser(
            name, help=fn.__doc__, description=fn.__doc__, allow_abbrev=False
        )
        for name, fn in COMMANDS.items()
    }
    for sub in subs.values():
        sub.add_argument("--k", type=int, required=True)
        sub.add_argument("--n", type=int, required=True)

    add = subs["table"].add_argument
    add("--d-max", type=int, metavar="D", help="Cap on exported q-powers.")
    add("--format", dest="fmt", choices=("json", "csv"), default="json")
    add("--out", default="-", metavar="FILE", help="Output file, or - for stdout.")
    add(
        "--cache-dir",
        default=os.environ.get("EQSCHUBERT_CACHE_DIR"),
        metavar="DIR",
        help="Directory for the table cache (env EQSCHUBERT_CACHE_DIR).",
    )
    add("--no-cache", action="store_true")

    add = subs["multiply"].add_argument
    add("--u", dest="u_text", required=True, metavar="PARTITION", help="As a JSON array.")
    add("--v", dest="v_text", required=True, metavar="PARTITION", help="As a JSON array.")
    add("--format", dest="fmt", choices=("text", "json"), default="text")

    add = subs["verify"].add_argument
    add(
        "--suite",
        dest="suite_names",
        action="append",
        metavar="NAME",
        help="Suite to run, repeatable; defaults to all.",
    )
    add("--d-max", type=int, metavar="D")
    add("--format", dest="fmt", choices=("text", "json"), default="text")

    add = subs["restrictions"].add_argument
    add("--family", choices=("schubert", "opposite"), default="schubert")
    add("--out", default="-", metavar="FILE")
    return parser, subs


def main(argv=None):
    """Run the command named in ``argv`` (default ``sys.argv[1:]``)."""
    parser, subs = _parser()
    options = vars(parser.parse_args(argv))
    name = options.pop("command")
    closed = sys.stdout is None  # fd 1 was closed at start-up
    if closed:
        sys.stdout = _ClosedStdout()
    previous = {}
    for signum in CONVERTED_SIGNALS:
        # a signal ignored at start (under nohup, say) stays ignored
        if _signal.getsignal(signum) != _signal.SIG_IGN:
            previous[signum] = _signal.signal(signum, _terminated)
    try:
        try:
            COMMANDS[name](**options)
        finally:
            sys.stdout.flush()
    except _UsageError as exc:
        subs[name].error(str(exc))
    except INTERNAL_ERRORS as exc:
        _fail("internal error: %s" % (str(exc) or type(exc).__name__))
    except OSError as exc:
        # Every command maps its own file and cache errors to exit 3, so this
        # one came from writing stdout.  stdout goes to the null device, so
        # the interpreter's own flush at exit has nothing left to fail on.
        if not closed:
            with contextlib.suppress(OSError):
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _fail("cannot write <stdout>: %s" % exc)
    except KeyboardInterrupt as exc:
        signum = exc.args[0] if exc.args else _signal.SIGINT
        print("interrupted by %s" % CONVERTED_SIGNALS.get(signum, "SIGINT"), file=sys.stderr)
        sys.exit(128 + signum)
    finally:
        for signum, handler in previous.items():
            _signal.signal(signum, handler)
        if closed:
            sys.stdout = None


if __name__ == "__main__":
    main()
