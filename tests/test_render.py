import csv
import io
import json
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eqschubert.cli as cli_mod
import eqschubert.equivariant as equivariant_mod
import eqschubert.polyring as polyring_mod
import eqschubert.quantum as quantum_mod
import eqschubert.render as render_mod

from eqschubert import GrassContext, Polynomial, QModuleElement, enumerate_classes, multiply
from eqschubert.grass import default_d_max
from eqschubert.polyring import _key_degree, _x_columns, y_to_x
from eqschubert.render import (
    canonical_json,
    partition_argument,
    poly_json,
    poly_text,
    qelem_json,
    qelem_text,
    table_csv,
    table_entries,
    table_json,
)

from conftest import from_exponents, of_first_degree, part, poly_from_json


def x(i):
    return Polynomial.variable(3, i)


def test_poly_text():
    def text(p):
        return poly_text(p.canonical_terms())

    assert text(Polynomial.zero(3)) == "0"
    assert text(Polynomial.const(3, -7)) == "-7"
    assert text(x(1) ** 2 * x(2) * 2 + x(3) - 1) == "2*x1^2*x2 + x3 - 1"
    assert text(-x(1) + x(2)) == "-x1 + x2"


def test_poly_text_graded_lex_order():
    p = x(3) + x(1) * x(2) + x(1)
    assert poly_text(p.canonical_terms()) == "x1*x2 + x1 + x3"


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


@pytest.mark.parametrize("k, n", [(1, 2), (2, 4), (2, 5)])
def test_table_json_joins_canonical_rows(k, n):
    ctx = GrassContext(k, n)
    rows = list(table_entries(ctx))
    assert rows and all(type(row) is str for row in rows)
    payload = str(table_json(ctx))
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    assert encode(json.loads(payload)) + "\n" == payload
    assert [encode(row) for row in json.loads(payload)["entries"]] == rows


# one context per number of variables, 1 to 6
ENCODER_CONTEXTS = [GrassContext(k, n) for k, n in ((1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7))]


@st.composite
def table_rows(draw):
    """A context and rows (u, v, w, d, poly) over its classes and variables.

    Polynomials are homogeneous, may be zero, and take negative
    coefficients and coefficients wider than 64 bits."""
    ctx = draw(st.sampled_from(ENCODER_CONTEXTS))
    classes = st.sampled_from([p.parts for p in enumerate_classes(ctx)])
    coefficient = st.one_of(st.integers(-9, 9), st.integers(-(2**80), 2**80))
    term = st.tuples(st.lists(st.integers(0, 3), min_size=ctx.r, max_size=ctx.r), coefficient)
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        if rows and draw(st.booleans()):
            # the table holds equal coefficients as one object
            poly = draw(st.sampled_from(rows))[4]
        else:
            items = of_first_degree(draw(st.lists(term, max_size=6)))
            poly = from_exponents(ctx.r, ((tuple(e), c) for e, c in items))
        u, v, w = draw(classes), draw(classes), draw(classes)
        rows.append((u, v, w, draw(st.integers(0, 3)), poly))
    return ctx, rows


@pytest.mark.parametrize("k, n", [(2, 5), (3, 6)])
def test_table_entries_convert_each_value_object_once(k, n, monkeypatch):
    ctx = GrassContext(k, n)
    rows = list(quantum_mod.eq_table(ctx).rows(default_d_max(ctx)))
    values = [c for *_, c in rows]
    objects = {id(c) for c in values}
    assert len(objects) < len(rows)
    batches, converted, written = [], [], []
    columns, terms_text = polyring_mod._x_columns, render_mod._terms_text

    def recorded(items):
        for column, positions in items:
            converted.append(positions)
            yield column, positions

    def counted(polys):
        batches.append(polys)
        for nvars, keys, items in columns(polys):
            yield nvars, keys, recorded(items)

    def counting(coefficients, fragments):
        written.append(fragments)
        return terms_text(coefficients, fragments)

    monkeypatch.setattr(polyring_mod, "_x_columns", counted)
    monkeypatch.setattr(render_mod, "_terms_text", counting)
    entries = table_entries(ctx)
    # one batch of every row's value, repeats included
    assert len(batches) == 1 and len(batches[0]) == len(rows)
    assert all(a is b for a, b in zip(batches[0], values))
    # each distinct object is converted once, with all its positions, and
    # its text is written once
    assert len(converted) == len(written) == len(objects)
    assert sorted(i for positions in converted for i in positions) == list(range(len(rows)))
    assert {id(values[positions[0]]) for positions in converted} == objects
    assert all(values[i] is values[positions[0]] for positions in converted for i in positions)
    assert list(entries) == [
        canonical_json(
            {"u": list(u), "v": list(v), "w": list(w), "d": d, "poly": poly_json(y_to_x(c))}
        )
        for u, v, w, d, c in rows
    ]


def test_a_lane_export_builds_no_x_polynomial(gr36, monkeypatch):
    # every Gr(3,6) value takes the lane path, whose texts are written from
    # the digit columns and one fragment maker: no per-value conversion or
    # reference encoding, and no polynomial but the one packed term map of
    # each lane group's chain
    values = [c for *_, c in quantum_mod.eq_table(gr36).rows(default_d_max(gr36))]
    groups = {max(map(polyring_mod._key_degree, c.terms), default=0) for c in values}
    built, makers = [], []
    init, make = Polynomial.__init__, render_mod._key_fragments

    def per_value(p):
        raise AssertionError("a Gr(3,6) value went value by value")

    def counted(self, nvars, terms):
        built.append(len(terms))
        init(self, nvars, terms)

    def counted_maker(nvars):
        makers.append(nvars)
        return make(nvars)

    monkeypatch.setattr(polyring_mod, "y_to_x", per_value)
    monkeypatch.setattr(render_mod, "poly_json", per_value)
    monkeypatch.setattr(render_mod, "_key_fragments", counted_maker)
    monkeypatch.setattr(Polynomial, "__init__", counted)
    entries = table_entries(gr36)
    monkeypatch.undo()
    assert len(built) == len(groups)
    assert makers == [gr36.r]
    texts = ['"poly":%s,"u":' % canonical_json(poly_json(y_to_x(c))) for c in values]
    assert all(text in row for row, text in zip(entries, texts))


def test_a_cold_export_builds_no_opposite_table(cold_state, monkeypatch):
    # the divisor-diagonal check elr(sigma(1), a, a) restricts the opposite
    # class only where its integrand can be nonzero, so a cold export builds
    # the Schubert restriction table alone; the check still runs, and
    # integrates over its one point p = a, once per diagonal
    ctx = GrassContext(2, 5)
    classes = enumerate_classes(ctx)
    families, checked, integrals = [], [], []
    build, elr, integrate = (
        equivariant_mod.RestrictionTable.__init__,
        quantum_mod.elr,
        equivariant_mod.integrate,
    )

    def recording_build(self, ctx, family):
        families.append(family)
        build(self, ctx, family)

    def recording_elr(u, v, w):
        checked.append((u.parts, v.parts, w.parts))
        return elr(u, v, w)

    def recording_integrate(ctx, values):
        integrals.append(len(values))
        return integrate(ctx, values)

    monkeypatch.setattr(equivariant_mod.RestrictionTable, "__init__", recording_build)
    monkeypatch.setattr(quantum_mod, "elr", recording_elr)
    monkeypatch.setattr(equivariant_mod, "integrate", recording_integrate)
    table_json(ctx)
    assert families == ["schubert"]
    # the walk reads the diagonal of every nonempty class, each checked once
    assert sorted(checked) == sorted(((1,), a.parts, a.parts) for a in classes[1:])
    assert integrals == [1] * len(checked)


def test_an_export_never_holds_the_joined_payload(cold_state, tmp_path):
    # the rows are formatted as they are written, so beyond the engine's
    # memo an export holds the distinct values' texts and one chunk: on
    # Gr(3,7) about 1.06 times the payload, where holding every row string
    # and then their join took about 2.05 times
    ctx = GrassContext(3, 7)
    out = tmp_path / "t.json"
    # the memo is built first, so only the export's own memory is traced
    list(quantum_mod.eq_table(ctx).rows(default_d_max(ctx)))
    tracemalloc.start()
    try:
        cli_mod._emit(table_json(ctx), str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size > 10**7
    assert peak < 1.5 * out.stat().st_size


def test_lane_images_hold_their_keys_in_descending_order(gr36):
    # every Gr(3,6) value takes the lane path, whose keys come in the
    # order the encoder writes them: graded-lex descending, and, as each
    # group holds one degree, descending as ints
    values = [c for *_, c in quantum_mod.eq_table(gr36).rows(default_d_max(gr36))]
    groups = list(_x_columns(values))
    assert groups
    for _, keys, _ in groups:
        assert keys == sorted(keys, reverse=True)
        assert keys == sorted(keys, key=lambda k: (_key_degree(k), k), reverse=True)


@st.composite
def value_lists(draw):
    """A variable count and a list of homogeneous polynomials over it, with
    repeated objects and zeros, and perhaps one value wide enough to take
    the per-value path."""
    nvars = draw(st.integers(1, 6))
    exps = st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars).map(tuple)
    out = []
    for _ in range(draw(st.integers(1, 8))):
        if out and draw(st.booleans()):
            out.append(draw(st.sampled_from(out)))
            continue
        items = draw(st.lists(st.tuples(exps, st.integers(-9, 9)), max_size=6))
        out.append(from_exponents(nvars, of_first_degree(items)))
    if draw(st.booleans()):
        items = [(draw(exps), draw(st.integers(2**64, 2**80)))]
        items += draw(st.lists(st.tuples(exps, st.integers(-9, 9)), max_size=3))
        wide = from_exponents(nvars, of_first_degree(items))
        out.insert(draw(st.integers(0, len(out))), wide)
    return nvars, out


@settings(max_examples=200, deadline=None)
@given(value_lists())
def test_lane_texts_match_the_encoder(case):
    nvars, values = case
    texts = [None] * len(values)
    for i, text in render_mod._x_texts(values, nvars):
        assert texts[i] is None
        texts[i] = text
    assert texts == [canonical_json(poly_json(y_to_x(p))) for p in values]


@given(table_rows())
def test_key_fragment_encoder_matches_canonical_json(case):
    ctx, rows = case
    # the table's rows are in y; each exported row is its image in x
    expected = [
        canonical_json(
            {"u": list(u), "v": list(v), "w": list(w), "d": d, "poly": poly_json(y_to_x(c))}
        )
        for u, v, w, d, c in rows
    ]
    with pytest.MonkeyPatch.context() as mp:
        table = SimpleNamespace(rows=lambda d_max: iter(rows))
        mp.setattr(quantum_mod, "eq_table", lambda ctx: table)
        assert list(table_entries(ctx, 0)) == expected
    elem = QModuleElement(ctx, {(w, d): c for u, v, w, d, c in rows})
    assert qelem_json(elem) == canonical_json(
        [{"w": list(w), "d": d, "poly": poly_json(c)} for (w, d), c in elem.canonical_items()]
    )


def reference_table_csv(payload):
    """``table_csv`` as it was before it read the payload row by row: the
    whole payload parsed with ``json.loads``."""
    table = json.loads(payload)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["u", "v", "w", "d", "poly"])
    for row in table["entries"]:
        writer.writerow(
            [
                canonical_json(row["u"]),
                canonical_json(row["v"]),
                canonical_json(row["w"]),
                row["d"],
                poly_text(poly_from_json(row["poly"], table["variables"]).canonical_terms()),
            ]
        )
    return buf.getvalue()


@st.composite
def table_payloads(draw):
    """Table payload text as any JSON writer might lay it out.

    Members and row keys come in any order, with JSON whitespace around
    every token; terms are unsorted, repeated, or have zero coefficients.
    Some payloads repeat ``entries`` or ``variables``, the earlier value
    (possibly one that is no table at all) being overridden by the later,
    so ``json.loads`` reads every payload as a table.
    """
    nvars = draw(st.integers(0, 3))
    exps = st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars)
    term = st.fixed_dictionaries({"c": st.integers(-3, 3).map(str), "e": exps})
    part = st.lists(st.integers(0, 3), max_size=3)
    row = st.fixed_dictionaries(
        {"d": st.integers(0, 2), "poly": st.lists(term, max_size=4), "u": part, "v": part, "w": part}
    )
    rows = [dict(draw(st.permutations(list(r.items())))) for r in draw(st.lists(row, max_size=4))]
    members = [("entries", rows), ("variables", nvars), ("d_max", 1), ("k", 1), ("n", 2)]
    members = draw(st.permutations(members))
    overridden = st.one_of(st.lists(row, max_size=2), st.just([1, {"poly": 5}]), st.just(-1))
    members = draw(st.lists(st.tuples(st.sampled_from(["entries", "variables"]), overridden), max_size=2)) + members
    space = st.text(alphabet=" \t\n\r", max_size=2)
    separators = (draw(space) + "," + draw(space), draw(space) + ":" + draw(space))
    dump = json.JSONEncoder(separators=separators).encode
    body = separators[0].join(dump(key) + separators[1] + dump(value) for key, value in members)
    return draw(space) + "{" + draw(space) + body + draw(space) + "}" + draw(space)


def _canonical_polys(table):
    """True if every polynomial of ``table`` is in canonical form: terms
    sorted, none zero, no exponent vector twice."""
    return all(
        row["poly"] == poly_json(poly_from_json(row["poly"], table["variables"]))
        for row in table["entries"]
    )


@settings(max_examples=300, deadline=None)
@given(table_payloads())
def test_table_csv_matches_the_whole_payload_parse(payload):
    # every payload the strategy draws parses to a table; its canonical
    # re-encoding is read only when it is what table_json writes for
    # Gr(1,2): one variable and every polynomial in canonical form
    table = json.loads(payload)
    canonical = canonical_json(table) + "\n"
    if table["variables"] == 1 and _canonical_polys(table):
        assert table_csv(canonical, 1, 2, 1) == reference_table_csv(canonical)
    else:
        with pytest.raises(ValueError):
            table_csv(canonical, 1, 2, 1)


@settings(max_examples=200, deadline=None)
@given(table_payloads())
def test_table_csv_reads_canonical_rows_as_text(payload):
    # with every polynomial in canonical form, and n one more than the
    # variable count, the payload is what table_json writes for its key
    table = json.loads(payload)
    for row in table["entries"]:
        row["poly"] = poly_json(poly_from_json(row["poly"], table["variables"]))
    table["n"] = table["variables"] + 1
    canonical = canonical_json(table) + "\n"
    assert table_csv(canonical, 1, table["n"], 1) == reference_table_csv(canonical)


def test_table_csv_reads_a_real_table_as_text(gr24):
    payload = str(table_json(gr24))
    assert table_csv(payload, 2, 4, default_d_max(gr24)) == reference_table_csv(payload)


# the characters of table JSON text
JSON_CHARACTERS = ' ,:[]{}"-0123456789cdeknpuvwy'


@st.composite
def edited_payloads(draw):
    """A Gr(1,2) table payload in the canonical layout, with one
    polynomial perhaps re-laid (terms reversed, the last repeated, a zero
    term added, a vector of another length, a coefficient no canonical
    payload writes) and up to three one-character edits, half of them at
    a bracket, brace or separator: a character of table JSON inserted,
    deleted or replaced."""
    exps = st.lists(st.integers(0, 3), min_size=1, max_size=1).map(tuple)
    terms = st.lists(st.tuples(exps, st.integers(-3, 3)), min_size=1, max_size=3)
    part = st.lists(st.integers(0, 3), max_size=2)
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        poly = poly_json(from_exponents(1, draw(terms)))
        u, v, w = draw(part), draw(part), draw(part)
        rows.append({"d": draw(st.integers(0, 2)), "poly": poly, "u": u, "v": v, "w": w})
    row = draw(st.sampled_from(rows))
    poly = row["poly"]
    relay = draw(st.sampled_from(["none", "reverse", "repeat", "zero", "vector", "coefficient"]))
    if relay == "reverse":
        row["poly"] = poly[::-1]
    elif relay == "repeat":
        row["poly"] = poly + poly[-1:]
    elif relay == "zero":
        row["poly"] = poly + [{"c": "0", "e": [0]}]
    elif relay == "vector" and poly:
        poly[-1]["e"] = draw(st.sampled_from([[], [0, 0]]))
    elif relay == "coefficient" and poly:
        poly[0]["c"] = draw(st.sampled_from(["01", "-0", "+1", " 1", "1.0"]))
    table = {"d_max": 1, "entries": rows, "k": 1, "n": 2, "variables": 1}
    payload = canonical_json(table) + "\n"
    for _ in range(draw(st.integers(0, 3))):
        marks = [i for i, c in enumerate(payload) if c in "[]{},:"]
        i = draw(st.one_of(st.integers(0, len(payload) - 1), st.sampled_from(marks)))
        c = draw(st.sampled_from(JSON_CHARACTERS))
        inserted, deleted = payload[:i] + c + payload[i:], payload[:i] + payload[i + 1 :]
        payload = draw(st.sampled_from([inserted, deleted, payload[:i] + c + payload[i + 1 :]]))
    return payload


@settings(max_examples=500, deadline=None)
@given(st.one_of(edited_payloads(), table_payloads()))
def test_table_csv_accepts_only_canonical_text(payload):
    # a payload table_csv reads is the canonical text of its own parse,
    # each polynomial in canonical form: exactly what table_json writes;
    # any other payload, edited or in another JSON layout, raises
    # ValueError and nothing else
    try:
        rendered = table_csv(payload, 1, 2, 1)
    except ValueError:
        return
    table = json.loads(payload)
    assert _canonical_polys(table)
    assert payload == canonical_json(table) + "\n"
    assert rendered == reference_table_csv(payload)


def test_render_keeps_the_packing_cap_of_polyring():
    assert render_mod._MAX_EXPONENT == polyring_mod._MAX_EXPONENT


def gr12_payload(rows, variables="1"):
    """A canonical Gr(1,2) envelope around the row text ``rows``."""
    return '{"d_max":1,"entries":[%s],"k":1,"n":2,"variables":%s}\n' % (rows, variables)


@pytest.mark.parametrize(
    "payload",
    [
        gr12_payload('{"d":0,"poly":[{"c":"1","e":[0,0]}],"u":[],"v":[],"w":[]}'),
        gr12_payload('{"d":0,"poly":[],"u":[],"v":[],"w":[]} '),
        gr12_payload('{"d":0,"poly":[],"u":[],"v":[],"w":[]}', "-1"),
        gr12_payload('{"d":0,"poly":[],"u":[],"v":[],"w":[]}', '"1"'),
        gr12_payload('{"d":0,"poly":[]}'),
        '{"d_max":1,"entries":{},"k":1,"n":2,"variables":1}\n',
        gr12_payload('{"d":0,"poly":[],"u":[],"v":[],"w":[]},'),
        # in canonical order, with only the middle vector of another length
        gr12_payload(
            '{"d":0,"poly":[{"c":"1","e":[2]},{"c":"1","e":[0,1]},{"c":"1","e":[0]}],'
            '"u":[],"v":[],"w":[]}'
        ),
        gr12_payload(
            '{"d":0,"poly":[{"c":"1","e":[1]}],"u":[],"v":[],"w":[]},'
            '{"d":0,"poly":[{"c":"1","e":[1,0]}],"u":[],"v":[],"w":[]},'
            '{"d":0,"poly":[{"c":"1","e":[0]}],"u":[],"v":[],"w":[]}'
        ),
    ],
    ids=[
        "variables-mismatch",
        "space-after-rows",
        "negative-variables",
        "string-variables",
        "missing-u",
        "entries-dict",
        "trailing-comma",
        "ragged-vectors",
        "ragged-rows",
    ],
)
def test_table_csv_rejects_what_no_table_has(payload):
    with pytest.raises(ValueError):
        table_csv(payload, 1, 2, 1)


@pytest.mark.parametrize(
    "row",
    [
        '{"d":true,"poly":[],"u":[],"v":[],"w":[]}',
        '{"d":-0,"poly":[],"u":[],"v":[],"w":[]}',
        '{"d":0,"poly":[],"u":[1.0],"v":[],"w":[]}',
        '{"d":0,"poly":[],"u":[],"v":[ ],"w":[]}',
        '{"d":0,"poly":[],"u":[],"v":[],"w":["1"]}',
        '{"d":0,"poly":[{"c":"01","e":[1]}],"u":[],"v":[],"w":[]}',
        '{"d":0,"poly":[{"c":" -1","e":[1]}],"u":[],"v":[],"w":[]}',
    ],
)
def test_table_csv_rejects_odd_row_values(row):
    # after a canonical row, in the canonical layout, values no canonical
    # row holds, though the whole payload parses to a table
    first = '{"d":0,"poly":[{"c":"2","e":[1]}],"u":[1],"v":[],"w":[1]}'
    payload = gr12_payload(first + "," + row)
    assert json.loads(payload)["entries"][1]
    message = "row at character %d is not canonical" % payload.index(row)
    with pytest.raises(ValueError, match=message):
        table_csv(payload, 1, 2, 1)


@pytest.mark.parametrize("key", [(2, 4, 2), (1, 3, 1), (1, 2, 0)])
def test_table_csv_rejects_a_payload_of_another_table(key):
    payload = gr12_payload('{"d":0,"poly":[{"c":"1","e":[0]}],"u":[],"v":[],"w":[]}')
    assert table_csv(payload, 1, 2, 1).startswith("u,v,w,d,poly\n")
    with pytest.raises(ValueError, match="not the canonical table of Gr"):
        table_csv(payload, *key)
