"""The exit-code contract on damaged cache files.

A real cache file of Gr(1,2) or Gr(2,4) is truncated, has bits flipped, or
is re-gzipped with a header line of odd fields and types, its payload
perhaps made no UTF-8. Every run must exit 0 or 3 with no traceback, and an
exit 0 must write the cold export's bytes. Payloads forged into other valid
UTF-8 with a recomputed checksum are left out: the checksum guards against
corruption, not forgery.
"""

import functools
import hashlib
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import eqschubert.cache as cache_mod
from eqschubert import GrassContext
from eqschubert.grass import default_d_max

from conftest import invoke, make_cache_file, read_cache_file

CONTEXTS = [(1, 2), (2, 4)]
FIELDS = ["cache_version", "engine_version", "k", "n", "d_max", "sha256"]
CHECKED = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _args(k, n, fmt):
    return ["table", "--k", str(k), "--n", str(n), "--format", fmt]


@functools.lru_cache(maxsize=None)
def cold_export(k, n, fmt):
    result = invoke(_args(k, n, fmt) + ["--no-cache"])
    assert result.exit_code == 0
    return result.stdout_bytes


@functools.lru_cache(maxsize=None)
def cache_file(k, n):
    """The bytes of the cache file a cold export of Gr(k,n) writes."""
    with tempfile.TemporaryDirectory() as cache_dir:
        assert invoke(_args(k, n, "json") + ["--cache-dir", cache_dir]).exit_code == 0
        (name,) = os.listdir(cache_dir)
        with open(os.path.join(cache_dir, name), "rb") as fh:
            return fh.read()


def read_from(k, n, fmt, blob):
    """Run the export against a cache directory holding ``blob`` as the
    file of Gr(k,n) and check the contract."""
    with tempfile.TemporaryDirectory() as cache_dir:
        path = cache_mod.cache_path(cache_dir, k, n, default_d_max(GrassContext(k, n)))
        with open(path, "wb") as fh:
            fh.write(blob)
        result = invoke(_args(k, n, fmt) + ["--cache-dir", cache_dir])
    assert result.exit_code in (0, 3), result.output
    assert "Traceback" not in result.output
    if result.exit_code == 0:
        assert result.stdout_bytes == cold_export(k, n, fmt)
    else:
        assert result.stdout == ""
        assert result.stderr.startswith("cache error: ") and result.stderr.count("\n") == 1


contexts = st.sampled_from(CONTEXTS)
formats = st.sampled_from(["json", "csv"])
# JSON values of every type, nested, with lone surrogates among the strings
odd_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        # equal to a key's int in Python, but not an int
        st.sampled_from([True, 1.0, 2.0, 4.0]),
        st.integers(-3, 3),
        st.integers(),
        st.floats(allow_nan=False),
        st.sampled_from(["", "1", "\ud800", "x\udfff", "1.0.0"]),
        st.text(max_size=4),
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@CHECKED
@given(contexts, formats, st.data())
def test_a_truncated_cache_file(context, fmt, data):
    blob = cache_file(*context)
    cut = data.draw(st.integers(0, len(blob) - 1))
    read_from(*context, fmt, blob[:cut])


@CHECKED
@given(contexts, formats, st.data())
def test_a_cache_file_with_flipped_bits(context, fmt, data):
    blob = bytearray(cache_file(*context))
    bits = data.draw(st.lists(st.integers(0, 8 * len(blob) - 1), min_size=1, max_size=4))
    for bit in bits:
        blob[bit // 8] ^= 1 << (bit % 8)
    read_from(*context, fmt, bytes(blob))


@CHECKED
@given(contexts, formats, st.data())
def test_a_cache_header_with_odd_fields(context, fmt, data):
    header, payload = read_cache_file(cache_file(*context))
    if data.draw(st.booleans()):
        # a byte no UTF-8 text has, under a checksum that matches it
        at = data.draw(st.integers(0, len(payload)))
        payload = payload[:at] + b"\xff" + payload[at:]
        header["sha256"] = hashlib.sha256(payload).hexdigest()
    if data.draw(st.booleans()):
        for field in data.draw(st.lists(st.sampled_from(FIELDS), min_size=1, max_size=3)):
            if data.draw(st.booleans()):
                header[field] = data.draw(odd_values)
            else:
                header.pop(field, None)
    else:
        header = data.draw(odd_values)
    read_from(*context, fmt, make_cache_file(header, payload))
