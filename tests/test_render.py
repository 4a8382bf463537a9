import json

import pytest

from eqschubert import GrassContext, Polynomial, multiply
from eqschubert.render import (
    partition_argument,
    poly_from_json,
    poly_json,
    poly_text,
    qelem_text,
    table_entries,
    table_json,
)

from conftest import part


def x(i):
    return Polynomial.variable(3, i)


def test_poly_text():
    assert poly_text(Polynomial.zero(3)) == "0"
    assert poly_text(Polynomial.const(3, -7)) == "-7"
    assert poly_text(x(1) ** 2 * x(2) * 2 + x(3) - 1) == "2*x1^2*x2 + x3 - 1"
    assert poly_text(-x(1) + x(2)) == "-x1 + x2"
    assert poly_text(x(1), symbol="T") == "T1"


def test_poly_text_graded_lex_order():
    p = x(3) + x(1) * x(2) + x(1)
    assert poly_text(p) == "x1*x2 + x1 + x3"


def test_poly_json_round_trip():
    p = 5 * x(1) ** 3 - 2 * x(2) * x(3) + 11
    obj = poly_json(p)
    assert all(isinstance(t["c"], str) for t in obj)
    assert poly_from_json(obj, 3) == p


def test_qelem_text(gr24):
    elem = multiply(part(gr24, 1), part(gr24, 1))
    assert qelem_text(elem) == "(x2)*s[1] + s[2] + s[1,1]"
    elem = multiply(part(gr24, 1), part(gr24, 2, 1))
    assert qelem_text(elem) == "(x1 + x2 + x3)*s[2,1] + s[2,2] + q*s[]"


def test_partition_argument(gr24):
    assert partition_argument(gr24, "[2,1]") == part(gr24, 2, 1)
    assert partition_argument(gr24, "[]") == part(gr24)
    with pytest.raises(ValueError):
        partition_argument(gr24, "[true]")


@pytest.mark.parametrize("k, n", [(1, 2), (2, 4)])
def test_table_json_joins_canonical_rows(k, n):
    ctx = GrassContext(k, n)
    rows = table_entries(ctx)
    assert rows and all(type(row) is str for row in rows)
    payload = table_json(ctx)
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    assert encode(json.loads(payload)) + "\n" == payload
    assert [encode(row) for row in json.loads(payload)["entries"]] == rows
