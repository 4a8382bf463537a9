"""Self-tests of the benchmark on Gr(1,2) and Gr(2,4).

Run from the root of a source checkout:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import argparse
import json
import sys
from array import array
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
    CONFIG = json.load(fh)

SMALL = {
    "LADDER": ((1, 2), (2, 4)),
    "EXPORT_METRICS": {(2, 4): "export_gr24_s"},
    "VERIFY": (2, 4),
    "REEXPORT": ((1, 2), (2, 4)),
    "READS_PER_CONTEXT": 2,
    "SETUP_REPEATS": 1,
    "FILL_REPEATS": 1,
}

# layer metric -> the workload that must exercise it
EXERCISED = {
    "table_cold": [
        "polyring.divide_exact.calls",
        "polyring.mul.calls",
        "polyring.mul.term_products",
        "polyring.add.calls",
        "polyring.rational.calls",
        "equivariant.restrict.calls",
        "equivariant.restriction_entries",
        "equivariant.elr.calls",
        "equivariant.integrate.calls",
        "quantum.coefficient.calls",
        "quantum.coefficients_solved",
        "quantum.diff_step.count",
        "quantum.block.count",
        "quantum.chevalley.calls",
        "quantum.element.calls",
        "render.table_entries.self_s",
        "render.serialize.self_s",
        "render.rows",
        "render.payload_bytes",
        "grass.calls",
        "cli.import_s",
    ],
    "verify_gr36": [
        "polyring.substitute.calls",
        "equivariant.elr_table.self_s",
        "equivariant.pairing.calls",
        "equivariant.gkm.self_s",
        "quantum.circ.calls",
        "oracles.rimhook.calls",
    ]
    + ["suites.%s.total_s" % name for name in run.SUITE_NAMES],
    "cache_reexport": [
        "cache.load.calls",
        "cache.load.self_s",
        "cache.hit_ratio",
        "cache.store.self_s",
        "cache.bytes_read",
        "cache.bytes_written",
        "render.table_csv.self_s",
        "render.poly_text.calls",
    ],
}


@pytest.fixture
def small(monkeypatch):
    for name, value in SMALL.items():
        monkeypatch.setattr(run, name, value)


def measure(workload, seed=1, trace=0, tmp_path=None):
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0.1, trace=trace)
    workdir = tmp_path / ("%s-%d-%d" % (workload, seed, trace))
    workdir.mkdir()
    return run.measure(args, workdir)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_end_to_end_metric_has_its_unit(small, tmp_path, workload):
    detail, result = measure(workload, tmp_path=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in CONFIG["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
    figures = detail["metrics"]
    assert figures["failed_ops_ratio"] == {"value": 0.0, "unit": "ratio"}
    if workload == "table_cold":
        assert figures["export_gr24_s"]["unit"] == "s"
    if workload == "cache_reexport":
        for name in ("read_p50_s", "csv_s"):
            assert figures[name]["unit"] == "s"


def test_read_tail_records_its_percentile(small, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "READS_PER_CONTEXT", 6)
    detail, _ = measure("cache_reexport", tmp_path=tmp_path)
    tail = detail["metrics"]["read_tail_s"]
    assert tail["unit"] == "s" and tail["samples"] == 12 and tail["percentile"] == 16


def test_tail_has_ten_samples_beyond():
    values = list(range(1, 101))
    assert run.tail(values) == (90, 90)
    assert run.tail(values[:10]) is None


def test_tampered_output_is_a_failed_operation(tmp_path):
    runner = run.Runner(tmp_path, run.time.monotonic() + 60)
    good = run.table_op(2, 4)
    # --d-max 1 drops the q^2 rows, so the bytes differ from the recorded export
    tampered = run.Op(good.label, good.args + ("--d-max", "1"), good.expect)
    runner.run(good)
    runner.run(tampered)
    assert (runner.attempted, runner.failed) == (2, 1)
    assert runner.failures == [{"op": "json 2,4", "why": "output digest mismatch"}]


def test_wrong_verify_verdict_is_a_failed_operation(tmp_path):
    runner = run.Runner(tmp_path, run.time.monotonic() + 60)
    good = run.verify_op(2, 4)
    runner.run(good)
    # one suite prints one line, not the recorded six
    only_gkm = good.args + ("--suite", "gkm")
    runner.run(run.Op(good.label, only_gkm, good.expect, to_file=False))
    assert (runner.attempted, runner.failed) == (2, 1)


@pytest.mark.parametrize(
    "op",
    [run.table_op(1, 2), run.table_op(2, 4), run.table_op(2, 4, "csv"), run.verify_op(2, 4)],
    ids=lambda op: op.label,
)
def test_tracing_leaves_the_bytes_unchanged(tmp_path, op):
    runner = run.Runner(tmp_path, run.time.monotonic() + 60)
    path = tmp_path / "op.spans"
    runner.run(op, path)
    assert runner.failures == []
    header, agg = spans.summarize(path)
    assert agg["cli.main"]["calls"] == 1 and header["spans"] > 1


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_each_layer_is_exercised_and_counts_repeat(small, tmp_path, workload):
    _, first = measure(workload, seed=1, trace=1, tmp_path=tmp_path)
    _, second = measure(workload, seed=2, trace=1, tmp_path=tmp_path)
    assert first["correct"] and second["correct"]
    units = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
    assert {name: m["unit"] for name, m in first["metrics"].items()} == units
    for name in EXERCISED[workload]:
        assert first["metrics"][name]["value"] > 0, name
    for name, metric in first["metrics"].items():
        if metric["unit"] in ("count", "bytes"):
            assert second["metrics"][name]["value"] == metric["value"], name
    assert first["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_self_time_on_a_synthetic_tree():
    # root [0,100] has children a [10,30] and b [40,90]; b has child c [50,60]
    starts = array("q", [0, 10, 40, 50])
    ends = array("q", [100, 30, 90, 60])
    parents = array("q", [-1, 0, 0, 2])
    assert spans.self_times(starts, ends, parents) == [30, 20, 40, 10]


def test_span_file_round_trip(tmp_path):
    rec = spans.Recorder()
    leaf = rec.wrap(lambda x: x + 1, "leaf")
    node = rec.wrap(
        lambda x: leaf(x) + leaf(x), "node", note=lambda args, result: rec.count("notes")
    )
    assert node(1) == 4
    path = tmp_path / "t.spans"
    rec.dump(path, "op-7", {"import_s": 0.5})
    read = spans.read_spans(path)
    assert [(s.name, s.parent, s.op) for s in read] == [
        ("node", -1, "op-7"),
        ("leaf", 0, "op-7"),
        ("leaf", 0, "op-7"),
    ]
    header, agg = spans.summarize(path)
    assert header["counters"] == {"notes": 1} and header["import_s"] == 0.5
    node_self = (read[0].end - read[0].start) - sum(s.end - s.start for s in read[1:])
    node_total = read[0].end - read[0].start
    assert agg["node"] == {"calls": 1, "self_ns": node_self, "total_ns": node_total}
    assert agg["leaf"]["calls"] == 2


def test_meter_scales_by_the_speed_over_the_interval():
    meter = speed.Meter()
    ref = speed.REFERENCE_NS
    # 20 samples 0.1 s apart: full speed for the first ten, half speed after
    meter.times = [0.1 * i for i in range(20)]
    meter.costs = [ref] * 10 + [2 * ref] * 10
    assert meter.scale(0.0, 0.95) == 1.0
    assert meter.scale(1.0, 1.95) == 0.5
    # an interval holding fewer than MIN_SAMPLES takes those nearest its middle
    assert meter.scale(0.42, 0.43) == 1.0
    # the lowest and highest tenth of the speeds are dropped
    meter.costs[3] = ref // 100
    assert meter.scale(0.0, 0.95) == 1.0


def test_runner_reports_wall_and_reference_time(tmp_path):
    with speed.Meter() as meter:
        runner = run.Runner(tmp_path, run.time.monotonic() + 60, meter)
        timing = runner.start_time()
    assert timing.wall > 0 and timing.ref > 0 and meter.costs
