import contextlib
import gc
import gzip
import hashlib
import json
import os
import re
import stat
import subprocess
import sys
import time
import types
import weakref
import zlib
from collections import Counter

import pytest

import eqschubert.cache as cache_mod
import eqschubert.cli as cli_mod
import eqschubert.equivariant as equivariant_mod
import eqschubert.grass as grass_mod
import eqschubert.polyring as polyring_mod
import eqschubert.quantum as quantum_mod
import eqschubert.render as render_mod
import eqschubert.suites as suites_mod
from eqschubert import GrassContext, enumerate_classes, forget, point_of
from eqschubert.errors import ExpansionError, NonPolynomialError, TableSolveError
from eqschubert.render import canonical_json, table_json
from eqschubert.version import ENGINE_VERSION

from conftest import captured_output, invoke, make_cache_file, poly_from_json, read_cache_file

# sha256 of exports recorded in bench/expected.json; export bytes must not change.
# Gr(2,5) and Gr(3,6) run q-degree >= 1 blocks through the exact block solve.
SEED_SHA256 = {
    ("csv", 1, 2): "2717ef48948483894c3965031b8cd6bc656bf9c694cb73aa3d14b6fb259808f9",
    ("csv", 2, 4): "b307a738b56dd505eb22664ce01d0b482f445d929000353198db3817f9b6344d",
    ("json", 2, 5): "1d36fc6940b2506f6418de686220386e74bd88adb084f32eb7474f3a73f7bd8c",
    ("json", 3, 6): "82e960725a9f500e6890f1610a014d2162bfe48f88daa92ef1d9cf0455f298d0",
    ("json", 2, 7): "26fb918386d8c6707697e08da6c2b640644e4fff4584de750fe75d12a9dcf585",
}

# sha256 of the other canonical JSON outputs, on Gr(2,4) unless named.
OUTPUT_SHA256 = [
    pytest.param(
        ("restrictions", "--family", "schubert"),
        "81f7083509463305b8430ba1efeebb8abf0a3e98d6bc7ee68121824b8175bef0",
        id="restrictions-schubert",
    ),
    pytest.param(
        ("restrictions", "--family", "opposite"),
        "c1a10caa8f789ceb56a4c39726029f71906dadeffea27e4be293fa948da643b2",
        id="restrictions-opposite",
    ),
    pytest.param(
        ("restrictions", "--k", "3", "--n", "6", "--family", "schubert"),
        "1a2f2f0b691fb139c6929932fd06a82c3226ac6601975f359d5745d53d63baf5",
        id="restrictions-schubert-gr36",
    ),
    pytest.param(
        ("restrictions", "--k", "3", "--n", "6", "--family", "opposite"),
        "6ea1d96f500870f48d9933342ada405e43570bd2a5e560de7cb64a306aef84ae",
        id="restrictions-opposite-gr36",
    ),
    pytest.param(
        ("multiply", "--u", "[2,1]", "--v", "[2,1]", "--format", "json"),
        "6d38db9863190c620e3443cd85e76657cfbf502272dabb2ed657ebe2db1e79e1",
        id="multiply",
    ),
    pytest.param(
        ("verify", "--format", "json"),
        "01e393def2355c0a356a721c8e5aeabdef882859e57c7c6409ecd553693dfcc1",
        id="verify",
    ),
]


def run(*args):
    return invoke(args)


def test_table_smoke_p1():
    result = run("table", "--k", "1", "--n", "2")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["k"] == 1 and payload["n"] == 2
    # P^1 keeps its q-term: the divisor square has a d=1 row
    assert any(row["d"] == 1 for row in payload["entries"])


def test_table_smoke_gr24_json_and_csv():
    as_json = run("table", "--k", "2", "--n", "4")
    assert as_json.exit_code == 0
    payload = json.loads(as_json.output)
    assert all(set(row) == {"u", "v", "w", "d", "poly"} for row in payload["entries"])
    as_csv = run("table", "--k", "2", "--n", "4", "--format", "csv")
    assert as_csv.exit_code == 0
    lines = as_csv.output.splitlines()
    assert lines[0] == "u,v,w,d,poly"
    assert len(lines) == len(payload["entries"]) + 1


@pytest.mark.parametrize("fmt, k, n", sorted(SEED_SHA256))
def test_table_csv_bytes_match_seed(fmt, k, n):
    result = run("table", "--k", str(k), "--n", str(n), "--format", fmt)
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == SEED_SHA256[(fmt, k, n)]


@pytest.mark.parametrize("args, digest", OUTPUT_SHA256)
def test_json_output_bytes_match_seed(args, digest):
    context = () if "--k" in args else ("--k", "2", "--n", "4")
    result = run(args[0], *context, *args[1:])
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


def test_verify_gr25_json_matches_seed():
    # Gr(2,5) has 10 classes, so its 1,000 triples check associativity
    # exhaustively
    result = run("verify", "--k", "2", "--n", "5", "--format", "json")
    assert result.exit_code == 0
    assert (
        hashlib.sha256(result.stdout_bytes).hexdigest()
        == "63b0b7c8adbe85e43b5e909b70166ed7735066636b61ee50b236849d2fce5661"
    )


BENCH_EXPECTED = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "expected.json")


@pytest.mark.parametrize("k, n", [(2, 4), (3, 6)])
def test_verify_text_matches_the_benchmark_transcript(k, n):
    # the benchmark counts a verify whose lines differ from these as failed
    with open(BENCH_EXPECTED, encoding="utf-8") as fh:
        lines = json.load(fh)["verify"]["%d,%d" % (k, n)]
    result = run("verify", "--k", str(k), "--n", str(n))
    assert (result.exit_code, result.stderr) == (0, "")
    assert result.stdout == "".join(line + "\n" for line in lines)


def test_forget_drops_one_context_and_keeps_the_others(cold_state):
    # a library process that is done with Gr(3,6) frees its tables alone
    gr36, gr25 = GrassContext(3, 6), GrassContext(2, 5)
    assert run("verify", "--k", "3", "--n", "6").exit_code == 0
    assert run("table", "--k", "2", "--n", "5", "--no-cache").exit_code == 0
    kept = dict(grass_mod._STORES[gr25])
    tables = [
        weakref.ref(quantum_mod.eq_table(gr36)),
        weakref.ref(equivariant_mod.restriction_table(gr36, "schubert")),
    ]
    forget(gr36)
    gc.collect()
    assert gr36 not in grass_mod._STORES
    assert [table() for table in tables] == [None, None]
    assert grass_mod._STORES[gr25].keys() == kept.keys()
    assert all(grass_mod._STORES[gr25][key] is value for key, value in kept.items())
    with open(BENCH_EXPECTED, encoding="utf-8") as fh:
        digest = json.load(fh)["json"]["3,6"]
    export = run("table", "--k", "3", "--n", "6", "--no-cache")
    assert export.exit_code == 0
    assert _sha256(export.stdout_bytes) == digest


def test_warm_csv_renders_the_cached_payload(tmp_path, monkeypatch):
    args = ("table", "--k", "2", "--n", "4", "--format", "csv", "--cache-dir", str(tmp_path))
    cold = run(*args, "--no-cache")
    assert cold.exit_code == 0 and not os.listdir(tmp_path)
    assert run(*args).exit_code == 0 and len(os.listdir(tmp_path)) == 1

    def recompute(*args, **kwargs):
        raise AssertionError("a warm CSV export must not rebuild the table")

    monkeypatch.setattr(render_mod, "table_json", recompute)
    monkeypatch.setattr(render_mod, "table_entries", recompute)
    warm = run(*args)
    assert warm.exit_code == 0
    assert warm.stdout_bytes == cold.stdout_bytes


def test_table_cache_round_trip(tmp_path):
    cache_dir = str(tmp_path / "cache")
    first = run("table", "--k", "2", "--n", "4", "--cache-dir", cache_dir)
    assert first.exit_code == 0
    files = os.listdir(cache_dir)
    assert len(files) == 1
    second = run("table", "--k", "2", "--n", "4", "--cache-dir", cache_dir)
    assert second.exit_code == 0
    assert first.output == second.output


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


NOT_UTF8 = [b"\xed\xa0\x80", b"\xff"]  # a lone surrogate's bytes; a byte no UTF-8 has


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda header, payload: (header, payload[:-2] + b"]}"),
        lambda header, payload: ([header], payload),
        lambda header, payload: (dict(header, sha256=int(header["sha256"], 16)), payload),
        lambda header, payload: (dict(header, sha256=_sha256(NOT_UTF8[0])), NOT_UTF8[0]),
        lambda header, payload: (dict(header, sha256=_sha256(NOT_UTF8[1])), NOT_UTF8[1]),
        lambda header, payload: ({f: v for f, v in header.items() if f != "sha256"}, payload),
        lambda header, payload: ("header", payload),
    ],
    ids=[
        "bad-checksum",
        "list-envelope",
        "int-sha256",
        "surrogate-payload",
        "non-utf8-payload",
        "no-sha256",
        "string-header",
    ],
)
def test_table_rejects_corrupt_cache(tmp_path, corrupt):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    run_ok = run("table", "--k", "1", "--n", "2", "--cache-dir", str(cache_dir))
    assert run_ok.exit_code == 0
    (path,) = cache_dir.iterdir()
    path.write_bytes(make_cache_file(*corrupt(*read_cache_file(path.read_bytes()))))
    for fmt in ("json", "csv"):
        args = ("table", "--k", "1", "--n", "2", "--format", fmt, "--cache-dir", str(cache_dir))
        result = run(*args)
        assert result.exit_code == 3
        assert result.stderr.startswith("cache error:") and result.stderr.count("\n") == 1
        assert result.stdout == ""


def test_a_header_line_past_the_cap_exits_3(tmp_path):
    args = ("table", "--k", "1", "--n", "2", "--cache-dir", str(tmp_path))
    cold = run(*args)
    assert cold.exit_code == 0
    (path,) = tmp_path.iterdir()
    header, payload = read_cache_file(path.read_bytes())
    line = json.dumps(header).encode()
    # JSON allows the spaces, so only the line's length differs
    padded = line + b" " * (cache_mod.HEADER_CAP - 1 - len(line))
    path.write_bytes(gzip.compress(padded + b"\n" + payload))
    assert run(*args).stdout_bytes == cold.stdout_bytes
    path.write_bytes(gzip.compress(padded + b" \n" + payload))
    result = run(*args)
    assert result.exit_code == 3
    assert result.stderr.startswith("cache error:") and result.stderr.count("\n") == 1
    assert "no header line within %d bytes" % cache_mod.HEADER_CAP in result.stderr
    assert result.stdout == ""


def test_a_version_1_cache_file_is_never_read(tmp_path):
    args = ("table", "--k", "1", "--n", "2", "--cache-dir", str(tmp_path))
    cold = run(*args, "--no-cache")
    assert cold.exit_code == 0
    # the first format: one JSON envelope with the payload as a string; its
    # checksum is valid, so a reader of that format would serve it
    v1 = tmp_path / "eqtable-k1-n2-d1.json.gz"
    forged = "not the table\n"
    envelope = {
        "cache_version": 1,
        "engine_version": ENGINE_VERSION,
        "k": 1,
        "n": 2,
        "d_max": 1,
        "sha256": _sha256(forged.encode()),
        "payload": forged,
    }
    v1_bytes = gzip.compress(json.dumps(envelope, sort_keys=True).encode())
    v1.write_bytes(v1_bytes)
    result = run(*args)
    assert result.exit_code == 0
    assert result.stdout_bytes == cold.stdout_bytes
    v2 = tmp_path / os.path.basename(cache_mod.cache_path("", 1, 2, 1))
    assert sorted(os.listdir(tmp_path)) == sorted([v1.name, v2.name])
    assert v1.read_bytes() == v1_bytes
    assert read_cache_file(v2.read_bytes())[1] == cold.stdout_bytes


@pytest.mark.parametrize(
    "damage",
    [
        lambda raw: raw[:30],
        # a first deflate byte of 0xff declares the reserved block type
        lambda raw: raw[:10] + b"\xff" + raw[11:],
        lambda raw: gzip.compress(b"[" * 200000),
        # a file is one gzip member and nothing after it
        lambda raw: raw + b"junk",
        lambda raw: raw + gzip.compress(b""),
        lambda raw: raw + bytes(512),
    ],
    ids=[
        "truncated",
        "corrupt-deflate",
        "deep-nesting",
        "trailing-junk",
        "second-member",
        "zero-padding",
    ],
)
def test_table_rejects_undecodable_cache(tmp_path, damage):
    cache_dir = tmp_path / "cache"
    assert run("table", "--k", "1", "--n", "2", "--cache-dir", str(cache_dir)).exit_code == 0
    (path,) = cache_dir.iterdir()
    path.write_bytes(damage(path.read_bytes()))
    result = run("table", "--k", "1", "--n", "2", "--cache-dir", str(cache_dir))
    assert result.exit_code == 3
    assert result.stderr.startswith("cache error:") and result.stderr.count("\n") == 1
    assert result.stdout == ""


def test_table_cache_dir_on_a_regular_file_exits_3(tmp_path):
    blocker = tmp_path / "cache"
    blocker.write_text("")
    result = run("table", "--k", "1", "--n", "2", "--cache-dir", str(blocker))
    assert result.exit_code == 3
    assert result.stderr.startswith("cache error:") and result.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "existing", [False, True], ids=["missing-directory", "existing-directory"]
)
def test_table_out_into_missing_directory_exits_3(tmp_path, existing):
    if existing:
        out = tmp_path / "taken"
        out.mkdir()
    else:
        out = tmp_path / "missing" / "table.json"
    result = run("table", "--k", "1", "--n", "2", "--out", str(out))
    assert result.exit_code == 3
    assert result.stderr.startswith("cannot write ") and result.stderr.count("\n") == 1
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize(
    "payload",
    [
        '["not a table"]',
        '{"d_max":2,"entries":[{"d":0,"poly":[{"c":"1","e":[-1]}],"u":[],"v":[],"w":[]}],'
        '"k":2,"n":4,"variables":1}\n',
        '{"d_max":2,"entries":[{"d":0,"poly":[{"c":"1","e":[40000]}],"u":[],"v":[],"w":[]}],'
        '"k":2,"n":4,"variables":1}\n',
        "[" * 100000 + "]" * 100000,
    ],
    ids=["non-table", "negative-exponent", "exponent-past-cap", "deep-nesting"],
)
def test_table_csv_of_a_cached_non_table_exits_3(tmp_path, payload):
    cache_mod.store(str(tmp_path), 2, 4, 2, payload)
    args = ("table", "--k", "2", "--n", "4", "--cache-dir", str(tmp_path))
    result = run(*args, "--format", "csv")
    assert result.exit_code == 3
    assert result.stderr.startswith("cache error:") and result.stderr.count("\n") == 1
    # JSON emits a checksum-valid payload as is
    assert run(*args).stdout == payload


@pytest.mark.parametrize(
    "key", [(2, 4, 2), (1, 3, 1), (1, 2, 0)], ids=["k-and-n", "n", "d_max"]
)
def test_table_csv_of_a_payload_cached_under_another_key_exits_3(tmp_path, key):
    payload = str(table_json(GrassContext(1, 2)))
    cache_mod.store(str(tmp_path), *key, payload)
    k, n, d_max = key
    args = ("table", "--k", str(k), "--n", str(n), "--d-max", str(d_max))
    args += ("--cache-dir", str(tmp_path))
    result = run(*args, "--format", "csv")
    assert result.exit_code == 3
    assert result.stderr.startswith("cache error:") and result.stderr.count("\n") == 1
    assert result.stdout == ""
    # JSON keeps its contract: a checksum-valid payload is emitted as is
    assert run(*args).stdout == payload


def _malformed_gr12_payloads():
    """Every proper prefix of the Gr(1,2) payload; whole payloads that are
    no table: trailing garbage, no ``variables``, ``entries`` that is not a
    list, and rows that are not objects; and the table re-laid out as JSON
    that is not canonical: a space after a comma, ``variables`` first, a
    repeated ``variables``, no final newline, and ``d_max`` as a string."""
    payload = str(table_json(GrassContext(1, 2)))
    body = payload.rstrip("\n")
    table = json.loads(body)
    variants = [
        payload + "x",
        payload + "{}",
        {key: value for key, value in table.items() if key != "variables"},
        dict(table, entries={}),
        dict(table, entries="rows"),
        dict(table, entries=[1]),
        dict(table, entries=table["entries"] + [[]]),
    ]
    relaid = [
        payload.replace(",", ", ", 1),
        json.dumps({"variables": table["variables"], **table}, separators=(",", ":")) + "\n",
        body[:-1] + ',"variables":%d}\n' % table["variables"],
        body,
        payload.replace('"d_max":1', '"d_max":"1"'),
    ]
    return (
        [body[:i] for i in range(len(body))]
        + [v if isinstance(v, str) else canonical_json(v) + "\n" for v in variants]
        + relaid
    )


def test_table_csv_of_a_malformed_cached_payload_exits_3(tmp_path):
    args = ("table", "--k", "1", "--n", "2", "--cache-dir", str(tmp_path), "--format", "csv")
    for payload in _malformed_gr12_payloads():
        cache_mod.store(str(tmp_path), 1, 2, 1, payload)
        result = run(*args)
        assert result.exit_code == 3, payload
        assert result.stderr.startswith("cache error:") and result.stderr.count("\n") == 1
        assert result.stdout == ""


def _relaid_gr24_payload(relay):
    """The Gr(2,4) payload with one row laid out as JSON that is equal to it
    but not canonical: a space inside the first ``"v":[1]``, or the terms of
    the first polynomial with two or more in reverse order."""
    payload = str(table_json(GrassContext(2, 4)))
    if relay == "space-in-v":
        return payload.replace('"v":[1]', '"v":[ 1]', 1)
    rows = json.loads(payload)["entries"]
    row = next(row for row in rows if len(row["poly"]) > 1)
    reversed_row = canonical_json(dict(row, poly=row["poly"][::-1]))
    return payload.replace(canonical_json(row), reversed_row, 1)


@pytest.mark.parametrize("relay", ["space-in-v", "reversed-terms"])
def test_table_csv_of_a_cached_row_that_is_not_canonical_text_exits_3(tmp_path, relay):
    # the row parses to the canonical one, but only what table_json writes
    # is read: the CSV export is a cache error, and the file stays
    payload = _relaid_gr24_payload(relay)
    assert payload != str(table_json(GrassContext(2, 4)))
    cache_mod.store(str(tmp_path), 2, 4, 2, payload)
    (path,) = tmp_path.iterdir()
    data = path.read_bytes()
    args = ("table", "--k", "2", "--n", "4", "--cache-dir", str(tmp_path))
    result = run(*args, "--format", "csv")
    assert result.exit_code == 3
    assert result.stderr.startswith("cache error: row at character ")
    assert result.stderr.endswith(" is not canonical\n")
    assert result.stderr.count("\n") == 1
    assert result.stdout == ""
    assert path.read_bytes() == data
    # JSON emits a checksum-valid payload as is
    result = run(*args)
    assert result.exit_code == 0
    assert result.stdout == payload


def test_cache_file_bytes_match_seed(tmp_path):
    result = run("table", "--k", "2", "--n", "4", "--cache-dir", str(tmp_path))
    assert result.exit_code == 0
    (path,) = tmp_path.iterdir()
    assert path.name == "eqtable-k2-n4-d2.v2.gz"
    data = path.read_bytes()
    header, payload = read_cache_file(data)
    assert payload == result.stdout_bytes
    assert gzip.decompress(data) == canonical_json(header).encode() + b"\n" + payload
    # zlib's default level; the gzip header's OS byte is zlib's (3, Unix)
    assert _sha256(data) == "107edeb5dabc90647a5d44ced31b1b2f4caedb6767bcd4f853bfc3b4c62f9bb1"


def _refuse(*args):
    raise OSError("refused")


@contextlib.contextmanager
def _open_refusing_writes(path, mode):
    # the temporary file is created; writing to it fails
    with open(path, mode):
        yield types.SimpleNamespace(write=_refuse)


@pytest.mark.parametrize(
    "owner, attr, fake",
    [(os, "replace", _refuse), (cache_mod, "open", _open_refusing_writes)],
    ids=["rename", "write"],
)
def test_failed_cache_store_exits_3_and_leaves_no_tmp(tmp_path, monkeypatch, owner, attr, fake):
    monkeypatch.setattr(owner, attr, fake, raising=False)
    result = run("table", "--k", "1", "--n", "2", "--cache-dir", str(tmp_path))
    assert result.exit_code == 3
    assert result.stderr == "cache error: refused\n"
    assert result.stdout == ""
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("target", ["cache", "out"])
def test_two_exports_writing_one_file_at_once_both_succeed(tmp_path, monkeypatch, target):
    # a second export of the table, in a process of its own, writes and
    # renames its file while the first is about to rename its own
    args = ["table", "--k", "1", "--n", "2"]
    if target == "cache":
        args += ["--cache-dir", str(tmp_path)]
    else:
        args += ["--out", str(tmp_path / "t.json")]
    real_replace = os.replace
    seconds = []

    def replace_after_a_second_export(src, dst):
        if not seconds:
            seconds.append(
                subprocess.run(
                    [sys.executable, "-m", "eqschubert.cli", *args],
                    capture_output=True,
                    text=True,
                    env=dict(os.environ, PYTHONPATH=SRC_DIR),
                    timeout=300,
                )
            )
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_after_a_second_export)
    first = run(*args)
    assert first.exit_code == 0, first.stderr
    (second,) = seconds
    assert second.returncode == 0, second.stderr
    assert not list(tmp_path.rglob("*.tmp"))
    (path,) = tmp_path.iterdir()
    expected = run("table", "--k", "1", "--n", "2").stdout_bytes
    if target == "cache":
        assert read_cache_file(path.read_bytes())[1] == expected
        assert run(*args).stdout_bytes == expected
    else:
        assert path.read_bytes() == expected


@pytest.mark.parametrize(
    "field, value",
    [("k", True), ("n", 2.0), ("d_max", 1.0), ("cache_version", 2.0)],
    ids=["bool-k", "float-n", "float-d_max", "float-cache_version"],
)
def test_a_cache_key_of_the_wrong_type_is_a_miss(tmp_path, field, value):
    # JSON true and 1.0 compare equal to 1 in Python, but name no table
    args = ("table", "--k", "1", "--n", "2", "--d-max", "1", "--cache-dir", str(tmp_path))
    cold = run(*args, "--no-cache")
    assert cold.exit_code == 0
    cache_mod.store(str(tmp_path), 1, 2, 1, "not the table\n")
    (path,) = tmp_path.iterdir()
    header, payload = read_cache_file(path.read_bytes())
    header[field] = value
    path.write_bytes(make_cache_file(header, payload))
    result = run(*args)
    assert result.exit_code == 0
    assert result.stdout_bytes == cold.stdout_bytes
    header, payload = read_cache_file(path.read_bytes())
    assert header[field] == value and type(header[field]) is int
    assert payload == cold.stdout_bytes


def test_table_ignores_stale_cache(tmp_path):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    args = ("table", "--k", "1", "--n", "2", "--cache-dir", str(cache_dir))
    cold = run(*args)
    assert cold.exit_code == 0
    (path,) = cache_dir.iterdir()
    header, _ = read_cache_file(path.read_bytes())
    forged = b"not the table\n"
    header.update(engine_version="0.0.0-older", sha256=_sha256(forged))
    path.write_bytes(make_cache_file(header, forged))
    result = run(*args)
    assert result.exit_code == 0
    assert result.stdout_bytes == cold.stdout_bytes
    assert read_cache_file(path.read_bytes())[1] == cold.stdout_bytes


def test_usage_errors_exit_2():
    assert run("table", "--k", "3", "--n", "2").exit_code == 2
    assert run("multiply", "--k", "2", "--n", "4", "--u", "[3]", "--v", "[]").exit_code == 2
    assert run("multiply", "--k", "2", "--n", "4", "--u", "nope", "--v", "[]").exit_code == 2
    assert run("multiply", "--k", "2", "--n", "4", "--u", "[true]", "--v", "[]").exit_code == 2
    assert run("multiply", "--k", "2", "--n", "4", "--u", "[" * 100000, "--v", "[1]").exit_code == 2
    assert run("verify", "--k", "2", "--n", "4", "--suite", "bogus").exit_code == 2
    assert run(
        "verify", "--k", "2", "--n", "4", "--suite", "positivity", "--suite", "tbasis",
        "--d-max", "-1",
    ).exit_code == 2


@pytest.mark.parametrize("command", ["", *cli_mod.COMMANDS])
def test_help_exits_0(command):
    result = run(*command.split(), "--help")
    assert result.exit_code == 0 and result.stderr == ""
    assert result.stdout.startswith("usage: eqschubert " + command)


@pytest.mark.parametrize(
    "args",
    [
        (),
        ("tabel", "--k", "2", "--n", "4"),
        ("table", "--n", "4"),
        ("table", "--k", "2", "--n", "4", "--format", "xml"),
        ("table", "--k", "x", "--n", "4"),
        ("table", "--k", "1", "--n", "2", "--cache", "DIR"),
    ],
    ids=["no-command", "unknown-command", "missing-k", "bad-format", "non-integer-k",
         "abbreviated-option"],
)
def test_parse_errors_exit_2_without_a_traceback(tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    result = run(*args)
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr.startswith("usage: eqschubert") and "Traceback" not in result.stderr
    assert os.listdir(tmp_path) == []


def test_cache_dir_defaults_to_the_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("EQSCHUBERT_CACHE_DIR", str(tmp_path))
    args = ("table", "--k", "1", "--n", "2")
    assert run(*args, "--no-cache").exit_code == 0 and os.listdir(tmp_path) == []
    assert run(*args).exit_code == 0 and len(os.listdir(tmp_path)) == 1
    other = tmp_path / "other"
    assert run(*args, "--cache-dir", str(other)).exit_code == 0
    assert len(os.listdir(other)) == 1 and len(os.listdir(tmp_path)) == 2


def _readme_synopsis():
    """The options of each command in the README ``CLI`` code block."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = fh.read().split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    options = {}
    for line in block.splitlines():
        words = line.split()
        if words[0] == "eqschubert":
            command = options[words[1]] = set()
        command.update(re.findall(r"--[a-z-]+", line))
    return options


def _command_options():
    """The options each command's parser declares, ``--help`` aside."""
    _, parsers = cli_mod._parser()
    return {
        name: {
            opt
            for action in parser._actions
            if action.dest != "help"
            for opt in action.option_strings
        }
        for name, parser in parsers.items()
    }


def test_readme_synopsis_lists_each_command_option():
    synopsis = _readme_synopsis()
    assert sorted(synopsis) == sorted(cli_mod.COMMANDS)
    for name, options in _command_options().items():
        assert synopsis[name] == options, name


def test_multiply_text_rendering():
    result = run("multiply", "--k", "2", "--n", "4", "--u", "[1]", "--v", "[1]")
    assert result.exit_code == 0
    assert result.output.strip() == "(x2)*s[1] + s[2] + s[1,1]"
    unit = run("multiply", "--k", "2", "--n", "4", "--u", "[]", "--v", "[2,1]")
    assert unit.output.strip() == "s[2,1]"
    point = run("multiply", "--k", "1", "--n", "2", "--u", "[1]", "--v", "[1]")
    assert point.output.strip() == "(x1)*s[1] + q*s[]"


def test_multiply_json_rendering(gr24):
    result = run(
        "multiply", "--k", "2", "--n", "4", "--u", "[2,2]", "--v", "[2,2]",
        "--format", "json",
    )
    rows = json.loads(result.output)
    by_key = {(tuple(r["w"]), r["d"]): r["poly"] for r in rows}
    assert poly_from_json(by_key[((), 2)], gr24.r).constant_term() == 1


def test_verify_single_suite_passes():
    result = run("verify", "--k", "2", "--n", "4", "--suite", "duality")
    assert result.exit_code == 0
    assert "duality" in result.output and "pass" in result.output


def test_verify_runs_a_repeated_suite_once(monkeypatch):
    calls = []
    gkm = suites_mod.SUITES["gkm"]

    def counted(ctx, d_max):
        calls.append(ctx)
        return gkm(ctx, d_max)

    monkeypatch.setitem(suites_mod.SUITES, "gkm", counted)
    args = ("verify", "--k", "1", "--n", "2", "--suite", "gkm", "--suite", "duality")
    text = run(*args, "--suite", "gkm")
    assert text.exit_code == 0
    assert [line.split()[0] for line in text.output.splitlines()] == ["duality", "gkm"]
    assert text.output == run(*args).output
    reports = json.loads(run(*args, "--suite", "gkm", "--format", "json").output)
    assert [rep["suite"] for rep in reports] == ["duality", "gkm"]
    assert len(calls) == 3


def test_verify_positivity_ignores_a_d_max_past_the_grading():
    start = time.perf_counter()
    args = ("--k", "1", "--n", "2", "--suite", "positivity", "--d-max", "100000000")
    result = run("verify", *args)
    assert result.exit_code == 0
    assert "checked=6" in result.output
    assert time.perf_counter() - start < 10


def test_verify_all_suites_p1_json():
    result = run("verify", "--k", "1", "--n", "2", "--format", "json")
    assert result.exit_code == 0
    reports = json.loads(result.output)
    assert {rep["suite"] for rep in reports} == {
        "axioms", "duality", "gkm", "positivity", "specialization", "tbasis",
    }
    assert all(rep["passed"] for rep in reports)


def test_a_cold_verify_plans_each_linear_form_once(cold_state, monkeypatch):
    # divide_exact and the quantum table take their plans from one bounded
    # cache, so a cold verify plans each distinct divisor once, though the
    # divisors come back many times each
    plan = polyring_mod.linear_plan
    seen = Counter()

    def recorded(divisor):
        seen[divisor] += 1
        return plan(divisor)

    monkeypatch.setattr(polyring_mod, "linear_plan", recorded)
    monkeypatch.setattr(quantum_mod, "linear_plan", recorded)
    plan.cache_clear()
    try:
        result = run("verify", "--k", "3", "--n", "6")
        info = plan.cache_info()
    finally:
        plan.cache_clear()
    assert result.exit_code == 0, result.output
    assert info.misses == info.currsize == len(seen)
    assert sum(seen.values()) > 10 * len(seen)


def test_verify_workers_flag():
    result = run("verify", "--k", "2", "--n", "4", "--suite", "duality", "--workers", "2")
    assert result.exit_code == 2


def test_verify_failure_exits_1(monkeypatch):
    def failing(ctx, d_max):
        return {"suite": "duality", "passed": False, "violations": [{"u": [], "v": []}]}

    monkeypatch.setitem(suites_mod.SUITES, "duality", failing)
    result = run("verify", "--k", "2", "--n", "4", "--suite", "duality")
    assert result.exit_code == 1
    assert "FAIL" in result.output


def _raising(error):
    def fail(*args, **kwargs):
        raise error("forced failure")

    return fail


# (CLI arguments, object, attribute, error): patching the attribute to raise
# the error stands for a defect deep inside the command.
INTERNAL_FAILURES = [
    pytest.param(
        ("table", "--k", "2", "--n", "4", "--no-cache"),
        quantum_mod.EQTable,
        "element",
        TableSolveError,
        id="table",
    ),
    pytest.param(
        ("multiply", "--k", "2", "--n", "4", "--u", "[1]", "--v", "[1]"),
        quantum_mod,
        "multiply",
        NonPolynomialError,
        id="multiply",
    ),
    pytest.param(
        ("verify", "--k", "2", "--n", "4", "--suite", "duality"),
        suites_mod.SUITES,
        "duality",
        ExpansionError,
        id="verify",
    ),
    pytest.param(
        ("restrictions", "--k", "2", "--n", "4"),
        render_mod,
        "restriction_table_json",
        NonPolynomialError,
        id="restrictions",
    ),
]


@pytest.mark.parametrize("args, owner, attr, error", INTERNAL_FAILURES)
def test_internal_errors_exit_3(monkeypatch, args, owner, attr, error):
    if isinstance(owner, dict):
        monkeypatch.setitem(owner, attr, _raising(error))
    else:
        monkeypatch.setattr(owner, attr, _raising(error))
    result = run(*args)
    assert result.exit_code == 3
    assert result.stderr == "internal error: forced failure\n"
    assert result.stdout == ""


@pytest.mark.parametrize(
    "error, message",
    [
        (MemoryError(), "MemoryError"),
        (RecursionError("maximum recursion depth exceeded"), "maximum recursion depth exceeded"),
        (OverflowError("int too large"), "int too large"),
    ],
    ids=["memory", "recursion", "overflow"],
)
@pytest.mark.parametrize("where", ["cache", "suite"])
def test_interpreter_limits_exit_3_on_one_line(tmp_path, monkeypatch, where, error, message):
    # exit 1 means a failed verification; running out of memory, recursion
    # depth or int range is an internal error with one line, no traceback
    def fail(*args, **kwargs):
        raise error

    if where == "cache":
        monkeypatch.setattr(cli_mod, "cache_load", fail)
        args = ("table", "--k", "2", "--n", "4", "--cache-dir", str(tmp_path))
    else:
        monkeypatch.setitem(suites_mod.SUITES, "duality", fail)
        args = ("verify", "--k", "2", "--n", "4", "--suite", "duality")
    result = run(*args)
    assert (result.exit_code, result.stdout) == (3, "")
    assert result.stderr == "internal error: %s\n" % message


class _SlicedOnce(str):
    """A payload whose second slice cannot be made: the write fails with
    ``MemoryError`` after its first slice is on disk."""

    def __getitem__(self, key):
        if isinstance(key, slice) and key.start:
            raise MemoryError
        return str.__getitem__(self, key)


def _compressobj_failing_on_the_payload(*args, _real=zlib.compressobj, **kwargs):
    # the header line deflates; the payload's first chunk runs out of memory
    deflate = _real(*args, **kwargs)
    calls = []

    def compress(data):
        calls.append(data)
        if len(calls) > 1:
            raise MemoryError
        return deflate.compress(data)

    return types.SimpleNamespace(compress=compress, flush=deflate.flush)


@pytest.mark.parametrize("target", ["out", "cache"])
def test_a_write_that_runs_out_of_memory_exits_3_and_leaves_no_tmp(tmp_path, monkeypatch, target):
    # a streamed export formats its rows inside the write, so any error, not
    # only an OSError, must remove the temporary file before it goes on
    if target == "out":
        text = _SlicedOnce("x" * (cli_mod.EMIT_SLICE + 1))
        monkeypatch.setattr(render_mod, "table_json", lambda ctx, d_max: text)
        args = ("table", "--k", "1", "--n", "2", "--no-cache", "--out", str(tmp_path / "t.json"))
    else:
        monkeypatch.setattr(zlib, "compressobj", _compressobj_failing_on_the_payload)
        args = ("table", "--k", "1", "--n", "2", "--cache-dir", str(tmp_path))
    result = run(*args)
    assert (result.exit_code, result.stdout) == (3, "")
    assert result.stderr == "internal error: MemoryError\n"
    assert not list(tmp_path.iterdir())


# a child export that signals itself from inside a payload chunk once a
# temporary file is in the directory sys.argv[2]; SIGINT is handled as in
# an interactive shell, and SIGHUP and SIGTERM have their default action
# unless sys.argv[3] is "ignored", whatever the parent's disposition
SIGNALLING_EXPORT = """
import os, pathlib, signal, sys
import eqschubert.render as render
from eqschubert.cli import main

chunks, signum = render._Payload.__iter__, getattr(signal, sys.argv[1])

def signalling(self):
    for chunk in chunks(self):
        if any(pathlib.Path(sys.argv[2]).glob("*.tmp")):
            os.kill(os.getpid(), signum)
        yield chunk

render._Payload.__iter__ = signalling
signal.signal(signal.SIGINT, signal.default_int_handler)
for other in (signal.SIGHUP, signal.SIGTERM):
    signal.signal(other, signal.SIG_IGN if sys.argv[3] == "ignored" else signal.SIG_DFL)
main(sys.argv[4:])
"""


def _signalled_export(tmp_path, signame, disposition, args):
    return subprocess.run(
        [sys.executable, "-c", SIGNALLING_EXPORT, signame, str(tmp_path), disposition, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC_DIR),
        timeout=300,
    )


@pytest.mark.parametrize(
    "signame, status", [("SIGTERM", 143), ("SIGINT", 130), ("SIGHUP", 129)]
)
@pytest.mark.parametrize("target", ["out", "cache"])
def test_a_signalled_export_exits_on_one_line_and_leaves_no_tmp(tmp_path, target, signame, status):
    # the signal arrives while the export writes its temporary file: the
    # file is removed, and the process exits 128 + the signal's number
    args = ["table", "--k", "2", "--n", "4"]
    if target == "out":
        args += ["--no-cache", "--out", str(tmp_path / "t.json")]
    else:
        args += ["--cache-dir", str(tmp_path)]
    child = _signalled_export(tmp_path, signame, "default", args)
    assert (child.returncode, child.stdout) == (status, ""), child.stderr
    assert child.stderr == "interrupted by %s\n" % signame
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("signame", ["SIGHUP", "SIGTERM"])
def test_a_signal_ignored_at_start_stays_ignored(tmp_path, signame):
    # under nohup an export that is sent SIGHUP finishes and writes its file
    out = tmp_path / "t.json"
    args = ["table", "--k", "2", "--n", "4", "--no-cache", "--out", str(out)]
    child = _signalled_export(tmp_path, signame, "ignored", args)
    assert (child.returncode, child.stdout, child.stderr) == (0, "", "")
    assert [p.name for p in tmp_path.iterdir()] == ["t.json"]
    assert out.read_bytes() == run("table", "--k", "2", "--n", "4").stdout_bytes


@pytest.mark.parametrize("k, n", [(2, 5), (3, 6), (2, 7)])
def test_the_chunks_of_a_streamed_table_join_to_the_pinned_bytes(tmp_path, k, n):
    payload = table_json(GrassContext(k, n))
    chunks = list(payload)
    # the Gr(2,7) rows span more than one chunk
    assert len(chunks) > 3 or (k, n) != (2, 7)
    text = "".join(chunks)
    assert text == str(payload) and len(text) == len(payload)
    assert _sha256(text.encode()) == SEED_SHA256[("json", k, n)]
    # the cache file does not depend on the chunking
    streamed = cache_mod.store(str(tmp_path / "streamed"), k, n, 9, payload)
    whole = cache_mod.store(str(tmp_path / "whole"), k, n, 9, text)
    assert open(streamed, "rb").read() == open(whole, "rb").read()


@pytest.mark.parametrize(
    "args, digest", [p.values for p in OUTPUT_SHA256 if p.values[0][0] == "restrictions"]
)
def test_the_chunks_of_a_streamed_restriction_export_join_to_the_pinned_bytes(args, digest):
    ctx = GrassContext(3, 6) if "--k" in args else GrassContext(2, 4)
    text = "".join(render_mod.restriction_table_json(ctx, args[-1]))
    assert _sha256(text.encode()) == digest


def _corrupt_block(monkeypatch, corruption):
    """Corrupt what the block solves read.  ``rows`` doubles the second read
    of each divisor c_t - c_a (its ``linear_plan``) by a block of target t (in t's first block,
    the back-substitution's read), ``relation`` doubles every such read, and
    ``weight`` doubles the pin W = sigma(t)|t."""
    if corruption == "weight":
        own = quantum_mod.own_restriction
        monkeypatch.setattr(quantum_mod, "own_restriction", lambda p: own(p) + own(p))
        return
    gap = quantum_mod.EQTable._gap
    seen = set()

    def corrupted(self, iw, ia):
        plan = gap(self, iw, ia)
        # while a block of target t runs, only it reads the divisors (t, a)
        if all(t != iw for t, _ in self._blocks_running):
            return plan
        if corruption == "rows" and (iw, ia) not in seen:
            seen.add((iw, ia))
            return plan
        lead, lc, tail, shift = plan  # the plan of the doubled divisor
        return lead, 2 * lc, tuple((k, 2 * c) for k, c in tail), shift

    monkeypatch.setattr(quantum_mod.EQTable, "_gap", corrupted)


@pytest.mark.parametrize(
    "corruption, reason",
    [
        ("rows", "inexact block row"),
        ("relation", "inexact block row"),
        ("weight", "disagrees with its anchor row"),
    ],
    ids=["rows", "relation", "weight"],
)
def test_corrupted_block_rows_exit_3(cold_state, monkeypatch, corruption, reason):
    # the corrupted table must not outlive the test in the shared memo
    _corrupt_block(monkeypatch, corruption)
    result = run("table", "--k", "2", "--n", "4", "--no-cache")
    assert result.exit_code == 3
    assert result.stderr.startswith("internal error: ") and reason in result.stderr
    assert result.stderr.count("\n") == 1
    assert result.stdout == ""


def test_corrupted_own_point_restriction_exits_3(gr24, cold_state, monkeypatch):
    # The engine's table is walked first, so only elr_table reads the
    # corrupted entry: with sigma((1))|(1) doubled, the numerators at that
    # point no longer divide by its weights one by one.
    classes = enumerate_classes(gr24)
    table = quantum_mod.eq_table(gr24)
    for u in classes:
        for v in classes:
            table.element(u, v)
    entries = equivariant_mod.restriction_table(gr24, "schubert").entries
    key = (classes[1].parts, point_of(classes[1]).subset)
    monkeypatch.setitem(entries, key, entries[key] + entries[key])
    result = run("verify", "--k", "2", "--n", "4", "--suite", "specialization")
    assert result.exit_code == 3
    assert result.stderr.startswith("internal error: ")
    assert "inexact restriction expansion" in result.stderr
    assert result.stderr.count("\n") == 1
    assert result.stdout == ""


def test_a_doubled_restriction_seed_exits_3(cold_state, monkeypatch):
    # every restriction at a point is a multiple of the seed sigma(m)|m, so
    # doubling it doubles the unit row, which the walk checks
    own = equivariant_mod.own_restriction
    monkeypatch.setattr(equivariant_mod, "own_restriction", lambda p: own(p) + own(p))
    result = run("restrictions", "--k", "2", "--n", "4")
    assert result.exit_code == 3
    assert result.stderr.startswith("internal error: ") and "unit" in result.stderr
    assert result.stderr.count("\n") == 1
    assert result.stdout == ""


@pytest.mark.parametrize(
    "args, kind",
    [
        (("table", "--k", "1", "--n", "2", "--out"), "fifo"),
        (("table", "--k", "1", "--n", "2", "--out"), "symlink"),
        (("fixtures", "--regen", "--path"), "fifo"),
    ],
    ids=["table-fifo", "table-symlink", "fixtures-fifo"],
)
def test_output_onto_a_non_regular_file_is_written_in_place(tmp_path, args, kind):
    # a target that exists and is not a regular file is written through, not
    # replaced by a renamed temporary file
    out = tmp_path / "out"
    if args[0] == "table":
        expected = run("table", "--k", "1", "--n", "2").stdout_bytes
    else:
        with open(FIXTURE_FILE, "rb") as fh:
            expected = fh.read()
    reader = None
    if kind == "fifo":
        os.mkfifo(out)
        # opened first, without blocking, so the writer's open cannot hang;
        # both payloads fit the pipe buffer
        reader = os.open(out, os.O_RDONLY | os.O_NONBLOCK)
    else:
        out.symlink_to(os.devnull)
    try:
        result = run(*args, str(out))
        received = b"" if reader is None else os.read(reader, 1 << 16)
    finally:
        if reader is not None:
            os.close(reader)
    assert result.exit_code == 0, result.stderr
    if kind == "fifo":
        assert received == expected
        assert stat.S_ISFIFO(os.lstat(out).st_mode)
    else:
        assert out.is_symlink() and os.readlink(out) == os.devnull
    assert list(tmp_path.glob("*.tmp")) == []


@pytest.mark.parametrize(
    "args",
    [("table", "--k", "1", "--n", "2", "--out"), ("fixtures", "--regen", "--path")],
    ids=["table", "fixtures"],
)
@pytest.mark.parametrize("dangling", [False, True], ids=["target", "dangling"])
def test_output_through_a_symlink_writes_its_target(tmp_path, args, dangling):
    # the link is followed: its target gets the bytes, renamed over it from a
    # temporary file beside it, and the link itself is left a link
    if args[0] == "table":
        expected = run("table", "--k", "1", "--n", "2").stdout_bytes
    else:
        with open(FIXTURE_FILE, "rb") as fh:
            expected = fh.read()
    target = tmp_path / "target.json"
    if not dangling:
        target.write_bytes(b"old bytes\n")
    link = tmp_path / "link.json"
    link.symlink_to(target.name)
    result = run(*args, str(link))
    assert result.exit_code == 0, result.stderr
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_bytes() == expected
    assert list(tmp_path.glob("*.tmp")) == []


def test_a_wrong_divisor_diagonal_exits_3(gr24, cold_state, monkeypatch):
    # the closed-form diagonal c_a is held against the localization constant
    # elr(sigma(1), a, a); a planted wrong elr is caught there
    elr = quantum_mod.elr
    monkeypatch.setattr(quantum_mod, "elr", lambda u, v, w: elr(u, v, w) + elr(u, v, w))
    classes = enumerate_classes(gr24)
    with pytest.raises(TableSolveError, match="disagrees with elr"):
        quantum_mod.EQTable(gr24).chevalley_terms(classes[1])
    result = run("table", "--k", "2", "--n", "4", "--no-cache")
    assert result.exit_code == 3
    assert result.stderr.startswith("internal error: ") and result.stderr.count("\n") == 1
    assert result.stdout == ""


def test_emit_writes_slices_byte_for_byte(tmp_path):
    size = cli_mod.EMIT_SLICE * 5 // 2
    text = ("[0,1]é\n" * size)[:size]
    out = tmp_path / "out.json"
    cli_mod._emit(text, str(out))
    assert out.read_bytes() == text.encode("utf-8")
    assert list(tmp_path.glob("*.tmp")) == []
    with captured_output() as (stdout, _):
        cli_mod._emit(text, "-")
    written = stdout.getvalue()
    assert written == text.encode("utf-8")


SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(cli_mod.__file__)))
FIXTURE_FILE = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures", "oracle_fixtures.json")

# stands for the directory of the ``warm_cache`` fixture
WARM = "<warm cache>"

# one run of each command that writes to stdout, and warm table reads
STDOUT_COMMANDS = [
    pytest.param(("table", "--k", "2", "--n", "4", "--no-cache"), id="table"),
    pytest.param(("table", "--k", "2", "--n", "4", "--cache-dir", WARM), id="table-warm-json"),
    pytest.param(
        ("table", "--k", "2", "--n", "4", "--format", "csv", "--cache-dir", WARM),
        id="table-warm-csv",
    ),
    pytest.param(("restrictions", "--k", "2", "--n", "4"), id="restrictions"),
    pytest.param(("verify", "--k", "2", "--n", "4", "--suite", "gkm"), id="verify"),
    pytest.param(
        ("multiply", "--k", "2", "--n", "4", "--u", "[1]", "--v", "[1]"), id="multiply"
    ),
    pytest.param(("fixtures", "--path", FIXTURE_FILE), id="fixtures"),
]


def _close_stdout():
    os.close(1)


@contextlib.contextmanager
def _unwritable_stdout(kind):
    """The ``subprocess`` arguments of a child stdout every write to fails
    on: ``/dev/full`` (ENOSPC), the write end of a pipe whose read end is
    closed (EPIPE), or fd 1 closed before the child starts, as ``>&-``
    does, so its ``sys.stdout`` is None."""
    if kind == "closed":
        yield {"preexec_fn": _close_stdout}
        return
    if kind == "full":
        fd = os.open("/dev/full", os.O_WRONLY)
    else:
        read_end, fd = os.pipe()
        os.close(read_end)
    try:
        yield {"stdout": fd}
    finally:
        os.close(fd)


def _stamps(directory):
    return sorted((p.name, p.stat().st_ino, p.stat().st_mtime_ns) for p in directory.iterdir())


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A cache directory holding the Gr(2,4) table."""
    cache_dir = tmp_path_factory.mktemp("warm")
    assert run("table", "--k", "2", "--n", "4", "--cache-dir", str(cache_dir)).exit_code == 0
    return cache_dir


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("kind", ["full", "closed-pipe", "closed"])
@pytest.mark.parametrize("args", STDOUT_COMMANDS)
def test_unwritable_stdout_exits_3_on_one_line(args, kind, warm_cache):
    files = _stamps(warm_cache)
    args = [str(warm_cache) if arg == WARM else arg for arg in args]
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    with _unwritable_stdout(kind) as stdout:
        child = subprocess.run(
            [sys.executable, "-m", "eqschubert.cli", *args],
            stderr=subprocess.PIPE,
            env=env,
            timeout=300,
            **stdout,
        )
    stderr = child.stderr.decode()
    assert child.returncode == 3, stderr
    assert stderr.startswith("cannot write <stdout>: ") and stderr.count("\n") == 1, stderr
    # the warm runs read the cache file and wrote no new one
    assert _stamps(warm_cache) == files


def test_closed_stdout_is_no_error_when_nothing_goes_to_it(tmp_path):
    out = tmp_path / "t.json"
    child = subprocess.run(
        [sys.executable, "-m", "eqschubert.cli", "table", "--k", "1", "--n", "2", "--out", str(out)],
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=SRC_DIR),
        preexec_fn=_close_stdout,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr.decode()
    assert child.stderr == b""
    assert out.read_text() == run("table", "--k", "1", "--n", "2").stdout


def test_restrictions_export(gr24):
    result = run("restrictions", "--k", "2", "--n", "4")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["family"] == "schubert"
    assert len(payload["entries"]) == 36
    unit_rows = [r for r in payload["entries"] if r["class"] == []]
    assert all(
        poly_from_json(r["poly"], gr24.r).constant_term() == 1 for r in unit_rows
    )


def test_fixtures_check_mode(tmp_path):
    path = tmp_path / "fx.json"
    assert run("fixtures", "--regen", "--path", str(path)).exit_code == 0
    assert run("fixtures", "--path", str(path)).exit_code == 0
    path.write_text(path.read_text() + " ")
    assert run("fixtures", "--path", str(path)).exit_code == 1


def test_fixtures_regen_into_unwritable_path_exits_3(tmp_path):
    blocker = tmp_path / "F"
    blocker.write_text("")
    result = run("fixtures", "--regen", "--path", str(blocker / "fx.json"))
    assert result.exit_code == 3
    assert result.stderr.startswith("cannot write ") and result.stderr.count("\n") == 1


def test_fixtures_check_of_a_non_utf8_file_exits_3(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe")
    result = run("fixtures", "--path", str(path))
    assert result.exit_code == 3
    assert result.stderr.startswith("cannot read ") and result.stderr.count("\n") == 1
