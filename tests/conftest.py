import contextlib
import gzip
import heapq
import io
import json
import sys
from types import SimpleNamespace

import pytest

from eqschubert import GrassContext, Partition, Polynomial, forget
from eqschubert.cli import main


@pytest.fixture(scope="session")
def gr24():
    return GrassContext(2, 4)


@pytest.fixture(scope="session")
def gr12():
    return GrassContext(1, 2)


@pytest.fixture(scope="session")
def gr25():
    return GrassContext(2, 5)


@pytest.fixture(scope="session")
def gr36():
    return GrassContext(3, 6)


@pytest.fixture
def cold_state():
    """Every context's state dropped before and after a test that wants a
    cold build or plants a fault, so no corrupted value outlives it."""
    forget()
    yield
    forget()


def part(ctx, *parts):
    return Partition(tuple(parts), ctx)


def from_exponents(nvars, items):
    """The polynomial over ``nvars`` variables with these ``(exponents,
    coefficient)`` items, repeated exponents summed and zero terms dropped."""
    from eqschubert.polyring import _pack

    terms = {}
    for exps, c in items:
        assert len(exps) == nvars, "exponent vector has wrong length"
        key = _pack(exps)
        terms[key] = terms.get(key, 0) + c
    return Polynomial(nvars, {key: c for key, c in terms.items() if c})


def poly_from_json(terms, nvars):
    """The polynomial of a JSON term list ``[{"c": "C", "e": [...]}, ...]``."""
    return from_exponents(nvars, ((tuple(t["e"]), int(t["c"])) for t in terms))


def divide_heap(dividend, divisor):
    """Monagan-Pearce division ("Sparse polynomial division using a heap",
    JSC 2011) by any nonzero divisor: the exact quotient, or None.  The
    package divides by monomials and linear forms only; this general path
    is the reference the tests hold both against."""
    from eqschubert.polyring import _guard_mask

    dlead = max(divisor.terms)
    dlc = divisor.terms[dlead]
    guard = _guard_mask(dividend.nvars)
    dtail = [(k, c) for k, c in divisor.terms.items() if k != dlead]
    work = dict(dividend.terms)
    heap = [-k for k in work]
    heapq.heapify(heap)
    quotient = {}
    while heap:
        k = -heapq.heappop(heap)
        c = work.get(k)
        if not c:
            continue
        # a lane of k below the divisor's clears its guard bit
        if ((k | guard) - dlead) & guard != guard or c % dlc:
            return None
        qk = k - dlead
        qc = c // dlc
        quotient[qk] = qc
        del work[k]
        for tk, tc in dtail:
            nk = qk + tk
            nc = work.get(nk, 0) - qc * tc
            if nc:
                if nk not in work:
                    heapq.heappush(heap, -nk)
                work[nk] = nc
            elif nk in work:
                del work[nk]
    return Polynomial(dividend.nvars, quotient) if not work else None


def max_key_degree(p):
    """The maximum degree of ``p``'s monomials, 0 when ``p`` is zero: with
    the variable count, the lane group of a value."""
    from eqschubert.polyring import _key_degree

    return max(map(_key_degree, p.terms), default=0)


def lane_group_ids(values, *anchors):
    """The sorted ids of the distinct objects of ``values`` in the lane
    groups of ``anchors``, for values over one variable count, whose lane
    group is their maximum key degree."""
    degrees = set(map(max_key_degree, anchors))
    return sorted({id(c) for c in values if max_key_degree(c) in degrees})


def in_lane(p, j, size):
    """``p`` with each coefficient moved into lane j of a packed group whose
    lanes are ``size`` bytes wide."""
    return Polynomial(p.nvars, {k: c << (8 * size * j) for k, c in p.terms.items()})


@contextlib.contextmanager
def captured_output():
    """Swap ``sys.stdout`` and ``sys.stderr`` for UTF-8 text streams and
    yield the two byte buffers under them; the text is in the buffers once
    the block ends."""
    buffers = io.BytesIO(), io.BytesIO()
    streams = [io.TextIOWrapper(buf, encoding="utf-8") for buf in buffers]
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = streams
    try:
        yield buffers
    finally:
        sys.stdout, sys.stderr = saved
        for stream in streams:
            stream.detach()


def invoke(argv):
    """Run the CLI in this process: ``exit_code``, the ``stdout`` and
    ``stderr`` text, ``stdout_bytes``, and ``output``, the two texts
    together."""
    with captured_output() as (out, err):
        try:
            main(list(argv))
            exit_code = 0
        except SystemExit as exc:
            exit_code = 0 if exc.code is None else exc.code
    stdout, stderr = out.getvalue().decode("utf-8"), err.getvalue().decode("utf-8")
    return SimpleNamespace(
        exit_code=exit_code,
        stdout=stdout,
        stderr=stderr,
        stdout_bytes=out.getvalue(),
        output=stdout + stderr,
    )


def read_cache_file(data):
    """The header object and the payload bytes of a cache file's bytes."""
    line, payload = gzip.decompress(data).split(b"\n", 1)
    return json.loads(line), payload


def make_cache_file(header, payload):
    """The bytes of a cache file with ``header`` (any JSON value) as its
    header line and the bytes ``payload`` after it."""
    return gzip.compress(json.dumps(header).encode() + b"\n" + payload)


def of_first_degree(items):
    """The ``(exponents, coefficient)`` items of the first one's degree:
    the terms of a homogeneous value."""
    return [(e, c) for e, c in items if sum(e) == sum(items[0][0])]


def homogeneous_of_degree(p, d):
    """True if every monomial of ``p`` has degree ``d`` (vacuously when zero)."""
    return all(sum(exps) == d for exps, _ in p.canonical_terms())
