"""The eqschubert benchmark: closed-loop workloads against the CLI.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation is one fresh ``python -m eqschubert.cli`` process, run from
``src/`` of this checkout with ``EQSCHUBERT_CACHE_DIR`` removed from its
environment.  One client drives them in a closed loop, so exactly one child
process is alive at a time.  Each output's bytes are checked against the
digests recorded at the seed commit (``expected.json``); a nonzero exit, a
digest mismatch or a wrong verify verdict counts as a failed operation.

Workloads (a pass is the fixed set of operations below; a run repeats whole
passes while the next one is predicted to end within ``--seconds``):

* ``table_cold``: cold JSON exports of Gr(2,5), Gr(3,6), Gr(2,7) and Gr(3,7),
  in an order shuffled by the seed.  The engine path: quantum difference
  steps and block solves, the polynomial kernel, and the localization
  restrictions behind the divisor diagonals.
* ``verify_gr36``: one cold ``verify --k 3 --n 6`` with all suites.  The
  check path: suites, localization tables, oracles, element/circ.
* ``cache_reexport``: set-up fills a fresh cache with cold exports of Gr(3,6)
  and Gr(2,7) (the writes); a pass is, per context, several warm JSON
  re-exports and one CSV re-export, shuffled by the seed (cache reads and
  the CSV renderer).

The run pins itself and its children to one core, beside a thread that
meters that core's speed (``speed.py``).  Times are reference seconds: an
operation's child CPU time scaled by the core's speed while it ran, so that
the host's drift in speed cancels.  Only ``wall_s`` and ``setup_wall_s``
are wall-clock times.

With ``--trace 0`` the last line carries the end-to-end metrics; the line
before it lists every end-to-end figure of the workload with its unit,
the environment, and per-operation medians.  With ``--trace 1`` the run
makes one untraced and one traced cycle (set-up writes plus one pass) and
reports per-layer metrics from the traced one (see ``shim.py``).

The run exits with status 2, printing no result, when the checkout has no
``src/eqschubert`` or it cannot be imported.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import spans
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SHIM = BENCH / "shim.py"
WORK = ROOT / ".bench_work"

# A run must end within 180 s; operations past this budget are killed.
BUDGET_S = 170.0
LADDER = ((2, 5), (3, 6), (2, 7), (3, 7))
# Gr(2,5) is too short to time within a tenth; it counts only in pass_s.
EXPORT_METRICS = {(3, 6): "export_gr36_s", (2, 7): "export_gr27_s", (3, 7): "export_gr37_s"}
VERIFY = (3, 6)
REEXPORT = ((3, 6), (2, 7))
READS_PER_CONTEXT = 16
SETUP_REPEATS = 9
FILL_REPEATS = 3
TAIL_BEYOND = 10

WORKLOADS = ("table_cold", "verify_gr36", "cache_reexport")


@functools.lru_cache(maxsize=None)
def expected():
    """Digests and verify transcripts recorded at the seed commit."""
    with open(BENCH / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the digest its output must have."""

    label: str
    args: tuple
    expect: str
    to_file: bool = True


def table_op(k, n, fmt="json", cache_dir=None):
    args = ("table", "--k", str(k), "--n", str(n), "--format", fmt)
    if cache_dir is not None:
        args += ("--cache-dir", str(cache_dir))
    return Op("%s %d,%d" % (fmt, k, n), args, expected()[fmt]["%d,%d" % (k, n)])


def verify_op(k, n):
    transcript = "".join(line + "\n" for line in expected()["verify"]["%d,%d" % (k, n)])
    return Op(
        "verify %d,%d" % (k, n),
        ("verify", "--k", str(k), "--n", str(n)),
        sha256(transcript.encode("utf-8")),
        to_file=False,
    )


def child_env():
    env = dict(os.environ)
    env.pop("EQSCHUBERT_CACHE_DIR", None)
    env["PYTHONPATH"] = str(SRC)
    return env


class Timing(namedtuple("Timing", "wall ref")):
    """Wall seconds and reference seconds (see ``speed.py``) of some work."""

    __slots__ = ()

    def __add__(self, other):
        return Timing(self.wall + other.wall, self.ref + other.ref)


NO_TIME = Timing(0.0, 0.0)


def children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class OutOfTime(Exception):
    """The run's time budget ended inside an operation."""


class Runner:
    """Runs operations one at a time, checks their outputs and times them.

    An operation's reference time is its CPU time scaled by the ``meter``'s
    reading over the operation; without a meter it is the CPU time."""

    def __init__(self, workdir, deadline, meter=None):
        self.workdir = Path(workdir)
        self.deadline = deadline
        self.meter = meter
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def _spawn(self, cmd):
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise OutOfTime()
        cpu = children_cpu()
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd,
                env=self.env,
                cwd=self.workdir,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise OutOfTime()
        end = time.perf_counter()
        ref = children_cpu() - cpu
        if self.meter is not None:
            ref *= self.meter.scale(start, end)
        return Timing(end - start, ref), proc

    def start_time(self):
        """Timing of a bare interpreter start plus ``import eqschubert.cli``."""
        timing, proc = self._spawn([sys.executable, "-c", "import eqschubert.cli"])
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr.decode("utf-8", "replace").strip())
        return timing

    def run(self, op, spans_path=None):
        """Run ``op`` and return its Timing; failures are counted."""
        out = self.workdir / "out"
        args = list(op.args) + (["--out", str(out)] if op.to_file else [])
        if spans_path is None:
            cmd = [sys.executable, "-m", "eqschubert.cli", *args]
        else:
            op_id = "%s#%d" % (op.label, self.attempted)
            cmd = [sys.executable, str(SHIM), str(spans_path), op_id, *args]
        self.attempted += 1
        try:
            timing, proc = self._spawn(cmd)
        except OutOfTime:
            self._fail(op, "killed at the end of the time budget")
            raise
        if op.to_file:
            try:
                data = out.read_bytes()
                out.unlink()
            except OSError:
                data = None
        else:
            data = proc.stdout
        if proc.returncode != 0:
            stderr = proc.stderr[-300:].decode("utf-8", "replace")
            self._fail(op, "exit %d: %s" % (proc.returncode, stderr))
        elif data is None or sha256(data) != op.expect:
            self._fail(op, "output digest mismatch")
        return timing

    def _fail(self, op, why):
        self.failed += 1
        self.failures.append({"op": op.label, "why": why})


# -- workloads -----------------------------------------------------------------


def run_ops(runner, ops, spans_dir=None):
    """Run ``ops`` in order, traced into ``spans_dir`` when given; returns
    their summed Timing and the span files written."""
    total, files = NO_TIME, []
    for op in ops:
        path = None
        if spans_dir is not None:
            path = Path(spans_dir) / ("%d.spans" % runner.attempted)
            files.append(path)
        total += runner.run(op, path)
    return total, files


class Workload:
    """Set-up, pass construction and metrics for one named workload."""

    def __init__(self, name, runner, rng):
        self.name = name
        self.runner = runner
        self.rng = rng
        self.cache_dir = None
        self.fill_s = []

    def setup(self):
        """Time the interpreter start and, for cache_reexport, the writes;
        returns the medians as a Timing."""
        self.runner.start_time()  # compiles the package's bytecode
        starts = [self.runner.start_time() for _ in range(SETUP_REPEATS)]
        setup = median_timing(starts)
        if self.name == "cache_reexport":
            for _ in range(FILL_REPEATS):
                self.new_cache()
            setup += median_timing(self.fill_s)
        return setup, starts

    def new_cache(self, spans_dir=None):
        """Fill a fresh cache directory with cold exports, dropping the
        previous one; returns the span files written when traced."""
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir)
        self.cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=self.runner.workdir))
        ops = [table_op(k, n, cache_dir=self.cache_dir) for k, n in REEXPORT]
        elapsed, files = run_ops(self.runner, ops, spans_dir)
        self.fill_s.append(elapsed)
        return files

    def make_pass(self):
        if self.name == "table_cold":
            ops = [table_op(k, n) for k, n in LADDER]
        elif self.name == "verify_gr36":
            ops = [verify_op(*VERIFY)]
        else:
            ops = []
            for k, n in REEXPORT:
                ops += [table_op(k, n, cache_dir=self.cache_dir)] * READS_PER_CONTEXT
                ops.append(table_op(k, n, "csv", cache_dir=self.cache_dir))
        self.rng.shuffle(ops)
        return ops


def median_timing(timings):
    return Timing(
        statistics.median(t.wall for t in timings), statistics.median(t.ref for t in timings)
    )


def run_passes(workload, seconds):
    """Whole passes while the next is predicted to end within ``seconds``.

    Returns a list of passes, each a list of (op, Timing)."""
    passes = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        ops = workload.make_pass()
        passes.append([(op, workload.runner.run(op)) for op in ops])
        now = time.perf_counter()
        if now - begin + (now - start) > seconds:
            return passes


def tail(values, beyond=TAIL_BEYOND):
    """(percentile, value): the highest whole percentile with at least
    ``beyond`` samples above it, by nearest rank; None with too few."""
    n = len(values)
    if n <= beyond:
        return None
    pct = (100 * (n - beyond)) // n
    rank = max(1, -(-pct * n // 100))
    return pct, sorted(values)[rank - 1]


def end_to_end(name, passes, setup, runner):
    """Every end-to-end figure of a trace-0 run, keyed by metric name.

    Times are reference seconds, apart from ``wall_s`` and ``setup_wall_s``."""
    pass_t = [sum((t for _, t in p), NO_TIME) for p in passes]
    out = {
        "pass_s": (statistics.median(t.ref for t in pass_t), "s"),
        "setup_s": (setup.ref, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, "MB"),
        "wall_s": (statistics.median(t.wall for t in pass_t), "s"),
        "setup_wall_s": (setup.wall, "s"),
        "failed_ops_ratio": (runner.failed / runner.attempted, "ratio"),
    }
    by_label = {}
    for p in passes:
        for op, t in p:
            by_label.setdefault(op.label, []).append(t.ref)
    if name == "table_cold":
        for k, n in LADDER:
            if (k, n) in EXPORT_METRICS:
                times = by_label["json %d,%d" % (k, n)]
                out[EXPORT_METRICS[k, n]] = (statistics.median(times), "s")
    if name == "cache_reexport":
        reads = [t.ref for p in passes for op, t in p if op.label.startswith("json")]
        out["read_p50_s"] = (statistics.median(reads), "s")
        tail_pct = tail(reads)
        if tail_pct is not None:
            pct, value = tail_pct
            out["read_tail_s"] = (value, "s", {"percentile": pct, "samples": len(reads)})
        csv_s = [sum(t.ref for op, t in p if op.label.startswith("csv")) for p in passes]
        out["csv_s"] = (statistics.median(csv_s), "s")
    ops = {
        label: {"median_s": statistics.median(ts), "samples": len(ts)}
        for label, ts in sorted(by_label.items())
    }
    return out, {"passes": len(passes), "pass_t": [list(t) for t in pass_t], "ops": ops}


# -- traced runs -----------------------------------------------------------------


def traced_cycle(workload, spans_dir=None):
    """Set-up writes (cache_reexport) and one pass, traced when ``spans_dir``
    is given; returns the summed Timing of its operations and the span files."""
    total, files = NO_TIME, []
    if workload.name == "cache_reexport":
        files = workload.new_cache(spans_dir)
        total = workload.fill_s[-1]
    elapsed, pass_files = run_ops(workload.runner, workload.make_pass(), spans_dir)
    return total + elapsed, files + pass_files


def merge_spans(files):
    """Per-name calls and self/total time, counters and import times."""
    by_name, counters, imports = {}, {}, []
    for path in files:
        header, agg = spans.summarize(path)
        path.unlink()
        imports.append(header["import_s"])
        for key, value in header["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for name, stats in agg.items():
            acc = by_name.setdefault(name, {"calls": 0, "self_ns": 0, "total_ns": 0})
            for field in acc:
                acc[field] += stats[field]
    return by_name, counters, imports


SUITE_NAMES = ("positivity", "axioms", "duality", "gkm", "tbasis", "specialization")


def per_layer(by_name, counters, imports, overhead):
    """Every per-layer metric, keyed by name, as (value, unit)."""

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    def self_s(name):
        return by_name.get(name, {}).get("self_ns", 0) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    def count(name):
        return counters.get(name, 0)

    out = {}

    def timed(name, with_calls=True):
        if with_calls:
            out[name + ".calls"] = (calls(name), "count")
        out[name + ".self_s"] = (self_s(name), "s")

    timed("polyring.divide_exact")
    out["polyring.divide_exact.fail_ratio"] = (
        ratio(count("polyring.divide_exact.failed"), calls("polyring.divide_exact")),
        "ratio",
    )
    out["polyring.divide_exact.linear_share"] = (
        ratio(count("polyring.divide_exact.linear"), calls("polyring.divide_exact")),
        "ratio",
    )
    timed("polyring.mul")
    out["polyring.mul.term_products"] = (count("polyring.mul.term_products"), "count")
    for name in ("polyring.add", "polyring.rational", "polyring.substitute"):
        timed(name)
    timed("equivariant.restrict")
    out["equivariant.restriction_entries"] = (count("equivariant.restriction_entries"), "count")
    timed("equivariant.elr")
    timed("equivariant.elr_table", with_calls=False)
    timed("equivariant.integrate")
    timed("equivariant.pairing")
    timed("equivariant.gkm", with_calls=False)
    coefficient_spans = ("quantum.coefficient", "quantum.diff_step", "quantum.block")
    out["quantum.coefficient.calls"] = (sum(calls(n) for n in coefficient_spans), "count")
    out["quantum.coefficients_solved"] = (count("quantum.coefficients_solved"), "count")
    out["quantum.memo_hit_ratio"] = (
        ratio(count("quantum.memo_hits"), count("quantum.keyed")),
        "ratio",
    )
    out["quantum.diff_step.count"] = (calls("quantum.diff_step"), "count")
    out["quantum.diff_step.self_s"] = (self_s("quantum.diff_step"), "s")
    out["quantum.block.count"] = (calls("quantum.block"), "count")
    out["quantum.block.self_s"] = (self_s("quantum.block"), "s")
    for name in ("quantum.chevalley", "quantum.element", "quantum.circ"):
        timed(name)
    for name in ("render.table_entries", "render.serialize", "render.table_csv"):
        timed(name, with_calls=False)
    out["render.poly_text.calls"] = (calls("render.poly_text"), "count")
    out["render.rows"] = (count("render.rows"), "count")
    out["render.payload_bytes"] = (count("render.payload_bytes"), "bytes")
    timed("cache.load")
    out["cache.hit_ratio"] = (ratio(count("cache.hits"), calls("cache.load")), "ratio")
    timed("cache.store", with_calls=False)
    out["cache.bytes_read"] = (count("cache.bytes_read"), "bytes")
    out["cache.bytes_written"] = (count("cache.bytes_written"), "bytes")
    for suite in SUITE_NAMES:
        name = "suites." + suite
        timed(name, with_calls=False)
        out[name + ".total_s"] = (by_name.get(name, {}).get("total_ns", 0) / 1e9, "s")
    timed("oracles.rimhook")
    timed("grass")
    out["cli.import_s"] = (statistics.median(imports) if imports else 0.0, "s")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


# -- entry point -----------------------------------------------------------------


def environment():
    info = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "git_commit": None,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        info["git_commit"] = proc.stdout.strip() or None
    return info


def loadavg():
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def metric_json(figures):
    out = {}
    for name, figure in figures.items():
        entry = {"value": figure[0], "unit": figure[1]}
        if len(figure) > 2:
            entry.update(figure[2])
        out[name] = entry
    return out


def load_config():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        config = json.load(fh)
    return [m["name"] for m in config["end_to_end"]], [m["name"] for m in config["per_layer"]]


def measure(args, workdir):
    """Run one workload pinned to one core beside a speed meter; returns
    (detail line, result line)."""
    env = environment()  # before the pin, which narrows nproc to 1
    mask = speed.pin_one_core()
    env["pinned_cores"] = sorted(os.sched_getaffinity(0))
    try:
        with speed.Meter() as meter:
            return measure_pinned(args, workdir, meter, env)
    finally:
        speed.restore(mask)


def measure_pinned(args, workdir, meter, env):
    runner = Runner(workdir, time.monotonic() + BUDGET_S, meter)
    workload = Workload(args.workload, runner, random.Random(args.seed))
    end_to_end_names, per_layer_names = load_config()
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "loadavg_start": loadavg(),
    }
    complete = True
    try:
        if args.trace:
            runner.start_time()  # compiles the package's bytecode
            plain_s, _ = traced_cycle(workload)
            spans_dir = Path(tempfile.mkdtemp(prefix="spans-", dir=workdir))
            traced_s, files = traced_cycle(workload, spans_dir)
            by_name, counters, imports = merge_spans(files)
            figures = per_layer(by_name, counters, imports, traced_s.ref / plain_s.ref)
            detail["counters"] = counters
            detail["untraced_s"] = plain_s.ref
            detail["traced_s"] = traced_s.ref
            wanted = per_layer_names
        else:
            setup, starts = workload.setup()
            passes = run_passes(workload, args.seconds)
            figures, detail["passes"] = end_to_end(args.workload, passes, setup, runner)
            detail["start_t"] = [list(t) for t in starts]
            detail["fill_t"] = [list(t) for t in workload.fill_s]
            wanted = end_to_end_names
    except OutOfTime:
        complete = False
        figures, wanted = {}, []
    detail["loadavg_end"] = loadavg()
    detail["speed"] = {
        "samples": len(meter.costs),
        "median_kernel_ns": statistics.median(meter.costs) if meter.costs else None,
    }
    detail["failures"] = runner.failures
    detail["metrics"] = metric_json(figures)
    result = {
        "correct": complete and runner.failed == 0,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": metric_json({name: figures[name] for name in wanted if name in figures}),
    }
    return detail, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "eqschubert" / "cli.py").is_file():
        print("no eqschubert sources under %s" % SRC, file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        detail, result = measure(args, workdir)
    except RuntimeError as exc:
        print("cannot start eqschubert: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
