"""Canonical text, JSON and CSV renderings.

Monomials always print in graded-lex descending order and coefficients
serialize as decimal strings, so every export is byte-stable for a fixed
input and code version. The JSON form of every export is canonical: sorted
keys, no whitespace. ``canonical_json`` encodes the envelopes and reports;
the rows and polynomial terms of the JSON exports come from the key-fragment
encoder (``_term_encoder``), which writes the same bytes straight from the
packed monomial keys. A Tier-1 test pins the two byte for byte. The CSV
export reads only that canonical table JSON back; any other payload is an
error.

Every export is in the simple roots x. The table and restriction exports
read the engine's tables, which are in the torus-character coordinates y,
and pass all their polynomials, repeats included, to the one batch
conversion ``polyring.y_to_x_stream``, one shear chain per degree; the
module elements that ``qelem_text`` and ``qelem_json`` render come from
``quantum.multiply``, already in x, and are rendered as given. Each
distinct value is encoded once, and its text lives only across its rows.
"""

from __future__ import annotations

import csv
import io
import json
from functools import lru_cache

from .errors import DimensionMismatchError
from .grass import Partition, default_d_max, enumerate_classes
from .polyring import Polynomial, _lanes, y_to_x_stream

canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@lru_cache(maxsize=1 << 16)
def _monomial_text(exps):
    """``x1^2*x2`` for the exponents ``(2, 1)``; the unit monomial is ``""``."""
    return "*".join(
        "x%d%s" % (i + 1, "^%d" % e if e > 1 else "")
        for i, e in enumerate(exps)
        if e
    )


def poly_text(p):
    """Human-readable polynomial, e.g. ``2*x1^2*x2 + x3 - 1``."""
    items = p.canonical_terms()
    if not items:
        return "0"
    chunks = []
    for exps, c in items:
        body = _monomial_text(exps)
        mag = abs(c)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = "%d*%s" % (mag, body)
        chunks.append(("- " if c < 0 else "+ ") + text)
    first = chunks[0]
    out = ("-" + first[2:]) if first.startswith("- ") else first[2:]
    return " ".join([out] + chunks[1:])


def poly_json(p):
    """List of {"e": exponents, "c": coefficient-as-string} terms."""
    return [{"e": list(exps), "c": str(c)} for exps, c in p.canonical_terms()]


def poly_from_json(obj, nvars):
    return Polynomial.from_exponents(nvars, ((tuple(t["e"]), int(t["c"])) for t in obj))


def _term_encoder(nvars):
    """``encode(p)``: the text of ``canonical_json(poly_json(p))`` for any
    polynomial ``p`` over ``nvars`` variables, built from its packed keys.

    Each distinct key's ``","e":[...]}`` fragment is built once per encoder,
    with the key's degree cached beside it. Packed keys compare as exponent
    vectors, so when all terms share one degree the descending key order is
    the graded-lex order of ``canonical_terms``; otherwise the terms are
    sorted by (degree, key), which is that order too.
    """
    unpack, size = _lanes(nvars), 2 * nvars
    fragments, degrees = {}, {}

    def encode(p):
        terms = p.terms
        if not terms:
            return "[]"
        for k in [k for k in terms if k not in fragments]:
            exps = unpack(k.to_bytes(size, "big"))
            fragments[k] = '","e":[%s]}' % ",".join(map(str, exps))
            degrees[k] = sum(exps)
        keys = sorted(terms, reverse=True)
        if len(set(map(degrees.__getitem__, keys))) > 1:
            keys.sort(key=lambda k: (degrees[k], k), reverse=True)
        return '[{"c":"' + ',{"c":"'.join([str(terms[k]) + fragments[k] for k in keys]) + "]"

    return encode


def _encoded(values, encode):
    """Yield ``(i, encode(y_to_x(values[i])))`` for every position i, in
    stream order: each object's image is encoded once, when it changes."""
    image = text = None
    for i, x in y_to_x_stream(values):
        if x is not image:
            image, text = x, encode(x)
        yield i, text


def _join_entries(envelope, rows):
    """The canonical text of ``envelope`` with the encoded ``rows`` as its
    ``entries`` list, plus a newline.

    The envelope's other values hold no empty list. Its two halves go onto
    the first and last row strings, so the one join is the only copy of the
    payload beyond its rows.
    """
    head, tail = canonical_json(dict(envelope, entries=[])).split("[]")
    rows = rows or [""]
    rows[0] = head + "[" + rows[0]
    rows[-1] += "]" + tail + "\n"
    return ",".join(rows)


def qelem_text(elem):
    """Render a module element like ``s[2] + s[1,1] + (x2)*s[1] + q*s[]``."""
    items = elem.canonical_items()
    if not items:
        return "0"
    pieces = []
    for (w, d), c in items:
        label = "s[%s]" % ",".join(str(p) for p in w)
        q = "" if d == 0 else ("q" if d == 1 else "q^%d" % d)
        if c == 1:
            coeff = ""
        else:
            coeff = "(%s)" % poly_text(c)
        body = "*".join(x for x in (q, coeff, label) if x)
        pieces.append(body)
    return " + ".join(pieces)


def qelem_json(elem):
    """Canonical JSON list of the ``{"w", "d", "poly"}`` terms of an element."""
    encode = _term_encoder(elem.ctx.r)
    return "[%s]" % ",".join(
        '{"d":%d,"poly":%s,"w":%s}' % (d, encode(c), canonical_json(list(w)))
        for (w, d), c in elem.canonical_items()
    )


_ROW = '{"d":%d,"poly":%s,"u":%s,"v":%s,"w":%s}'


def table_entries(ctx, d_max=None):
    """Canonical JSON export rows for the full product table, one string per row.

    One row per nonzero coefficient, pairs listed once with u <= v in the
    class order, sorted by (u, v, d, w). Each row is one format of its
    cached partition arrays and its terms in x as ``_term_encoder`` writes
    them. ``EQTable._store`` keeps equal coefficients as one object, and
    makes each homogeneous. The rows' values go as they stand through
    ``_encoded``, so each distinct value is converted and encoded once and
    no x copy of the table is kept. The conversion keeps the degree, so the
    terms always take the encoder's one-degree path: sorted by packed key,
    which is graded-lex order within one degree.
    """
    from .quantum import eq_table

    if d_max is None:
        d_max = default_d_max(ctx)
    arrays = {p.parts: canonical_json(list(p.parts)) for p in enumerate_classes(ctx)}
    rows = list(eq_table(ctx).rows(d_max))
    entries = [None] * len(rows)
    for i, text in _encoded([row[4] for row in rows], _term_encoder(ctx.r)):
        u, v, w, d, _ = rows[i]
        entries[i] = _ROW % (d, text, arrays[u], arrays[v], arrays[w])
    return entries


def table_json(ctx, d_max=None):
    """The canonical table payload, the one source of every table export:
    the rows of ``table_entries`` joined into the encoded envelope."""
    if d_max is None:
        d_max = default_d_max(ctx)
    envelope = {"k": ctx.k, "n": ctx.n, "d_max": d_max, "variables": ctx.r}
    return _join_entries(envelope, table_entries(ctx, d_max))


_decode = json.JSONDecoder().raw_decode
# every error ``table_csv`` raises on a payload that is not canonical table JSON
CSV_ERRORS = (ValueError, KeyError, TypeError, OverflowError, RecursionError)
_ENTRIES = '"entries":['


def table_csv(payload, k, n, d_max):
    """CSV rendering of the entries of the canonical table payload string of
    Gr(k,n) to q-degree ``d_max``.

    Only what ``table_json`` writes is read, the mirror of ``_join_entries``:
    the rows after ``"entries":[`` are decoded one at a time, each written as
    its CSV line before the next is read, so the parsed table is never built.
    The rest, the shell, must be the canonical text of an envelope with
    exactly the keys ``d_max``, ``entries`` (empty), ``k``, ``n`` and
    ``variables``, each count a nonnegative int, plus a newline; that also
    proves the ``entries`` found is the top-level member. ``variables`` comes
    after the rows, so each polynomial is built over the length of the first
    exponent vector, which ``Polynomial.from_exponents`` checks every later
    vector against and which must equal ``variables``. The envelope's ``k``,
    ``n`` and ``d_max`` must be the ones asked for. Anything else raises one
    of ``CSV_ERRORS``.
    """
    body = payload.find(_ENTRIES)
    if body < 0:
        raise ValueError("no entries list")
    body += len(_ENTRIES)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["u", "v", "w", "d", "poly"])
    nvars = None
    i = body
    more = payload[i : i + 1] != "]"
    while more:
        row, i = _decode(payload, i)
        poly = row["poly"]
        if nvars is None and poly:
            nvars = len(poly[0]["e"])
        writer.writerow(
            [
                canonical_json(row["u"]),
                canonical_json(row["v"]),
                canonical_json(row["w"]),
                row["d"],
                poly_text(poly_from_json(poly, nvars or 0)),
            ]
        )
        more = payload[i : i + 1] == ","
        i += more
    shell = payload[:body] + payload[i:]
    envelope = json.loads(shell)
    if (
        type(envelope) is not dict
        or sorted(envelope) != ["d_max", "entries", "k", "n", "variables"]
        or envelope["entries"] != []
        or not all(type(v) is int and v >= 0 for key, v in envelope.items() if key != "entries")
        or canonical_json(envelope) + "\n" != shell
    ):
        raise ValueError("not canonical table JSON")
    if (envelope["k"], envelope["n"], envelope["d_max"]) != (k, n, d_max):
        raise ValueError(
            "payload is the table of Gr(%d,%d) to d_max %d, not of Gr(%d,%d) to d_max %d"
            % (envelope["k"], envelope["n"], envelope["d_max"], k, n, d_max)
        )
    if nvars not in (None, envelope["variables"]):
        raise DimensionMismatchError("exponent vector has wrong length")
    return buf.getvalue()


def restriction_table_json(ctx, family="schubert"):
    """The canonical restriction export of one family, in x."""
    from .equivariant import fixed_points, restriction_table

    table = restriction_table(ctx, family)
    points = [(pt, canonical_json(list(pt.subset))) for pt in fixed_points(ctx)]
    classes = [(p, canonical_json(list(p.parts))) for p in enumerate_classes(ctx)]
    values = [table.restriction(p, pt) for p, _ in classes for pt, _ in points]
    labels = [(parts, text) for _, parts in classes for _, text in points]
    rows = [None] * len(values)
    for i, text in _encoded(values, _term_encoder(ctx.r)):
        rows[i] = '{"class":%s,"point":%s,"poly":%s}' % (*labels[i], text)
    return _join_entries({"k": ctx.k, "n": ctx.n, "family": family}, rows)


def partition_argument(ctx, text):
    """Parse a partition given as a JSON array, e.g. ``[2,1]``."""
    try:
        parts = json.loads(text)
    except RecursionError:
        raise ValueError("partition is nested too deeply")
    if not isinstance(parts, list) or not all(type(p) is int for p in parts):
        raise ValueError("expected a JSON array of integers")
    return Partition(tuple(parts), ctx)
