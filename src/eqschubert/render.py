"""Canonical text, JSON and CSV renderings.

Monomials always print in graded-lex descending order and coefficients
serialize as decimal strings, so every export is byte-stable for a fixed
input and code version. The JSON form of every export is canonical: sorted
keys, no whitespace. ``canonical_json`` encodes the envelopes and reports;
the rows and polynomial terms of the JSON exports come from the key-fragment
encoder (``_term_encoder``), which writes the same bytes straight from the
packed monomial keys. A Tier-1 test pins the two byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
import re

from .errors import DimensionMismatchError
from .grass import Partition, default_d_max, enumerate_classes
from .polyring import Polynomial, _lanes

canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def poly_text(p, symbol="x"):
    """Human-readable polynomial, e.g. ``2*x1^2*x2 + x3 - 1``."""
    items = p.canonical_terms()
    if not items:
        return "0"
    chunks = []
    for exps, c in items:
        factors = [
            "%s%d%s" % (symbol, i + 1, "^%d" % e if e > 1 else "")
            for i, e in enumerate(exps)
            if e
        ]
        body = "*".join(factors)
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


def qelem_text(elem, symbol="x"):
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
            coeff = "(%s)" % poly_text(c, symbol)
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


def table_entries(ctx, d_max=None):
    """Canonical JSON export rows for the full product table, one string per row.

    One row per nonzero coefficient, pairs listed once with u <= v in the
    class order, sorted by (u, v, d, w). Each row is one format of its
    cached partition arrays and its terms as ``_term_encoder`` writes them.
    ``EQTable._store`` makes every table coefficient homogeneous, so the
    terms always take the encoder's one-degree path: sorted by packed key,
    which is graded-lex order within one degree.
    """
    from .quantum import eq_table

    if d_max is None:
        d_max = default_d_max(ctx)
    encode = _term_encoder(ctx.r)
    arrays = {p.parts: canonical_json(list(p.parts)) for p in enumerate_classes(ctx)}
    return [
        '{"d":%d,"poly":%s,"u":%s,"v":%s,"w":%s}'
        % (d, encode(c), arrays[u], arrays[v], arrays[w])
        for u, v, w, d, c in eq_table(ctx).rows(d_max)
    ]


def table_json(ctx, d_max=None):
    """The canonical table payload, the one source of every table export:
    the rows of ``table_entries`` joined into the encoded envelope."""
    if d_max is None:
        d_max = default_d_max(ctx)
    envelope = {"k": ctx.k, "n": ctx.n, "d_max": d_max, "variables": ctx.r}
    return _join_entries(envelope, table_entries(ctx, d_max))


_decode = json.JSONDecoder().raw_decode
_space = re.compile(r"[ \t\n\r]*").match
# every error ``table_csv`` raises on a malformed payload
CSV_ERRORS = (ValueError, KeyError, TypeError, OverflowError, RecursionError)


def _after(s, i, chars):
    """The index past the JSON whitespace at ``s[i]`` and the one character
    of ``chars`` that must follow it, and that character."""
    i = _space(s, i).end()
    c = s[i : i + 1]
    if not c or c not in chars:
        raise ValueError("expected one of %r at character %d" % (chars, i))
    return i + 1, c


def _walk(s, i, brackets, visit):
    """Walk the JSON array or object (``brackets`` is ``"[]"`` or ``"{}"``)
    at ``s[i]``. ``visit(j)`` reads the item or member that starts at
    ``s[j]`` and returns the index past it. Returns the index past the
    closing bracket."""
    i, _ = _after(s, i, brackets[0])
    j = _space(s, i).end()
    if s[j : j + 1] == brackets[1]:
        return j + 1
    while True:
        i, c = _after(s, visit(_space(s, i).end()), "," + brackets[1])
        if c == brackets[1]:
            return i


class _CsvRows:
    """The CSV text of one ``entries`` array, written as its rows are read.

    A canonical payload puts ``variables`` after ``entries``, so a row's
    polynomial is built over ``nvars``, the length of the first exponent
    vector met; ``Polynomial.from_exponents`` checks every later vector
    against it, and ``table_csv`` checks it against ``variables``.
    The first failing row is kept in ``error``, not raised: a later
    ``entries`` member would replace this one.
    """

    def __init__(self, payload):
        self.payload = payload
        self.buf = io.StringIO()
        self.writer = csv.writer(self.buf, lineterminator="\n")
        self.writer.writerow(["u", "v", "w", "d", "poly"])
        self.rows = 0
        self.nvars = None
        self.error = None

    def read(self, i):
        """Decode the row at ``payload[i]``, write its line, and return the
        index past it."""
        row, i = _decode(self.payload, i)
        self.rows += 1
        if self.error is not None:
            return i
        try:
            fields = [
                canonical_json(row["u"]),
                canonical_json(row["v"]),
                canonical_json(row["w"]),
                row["d"],
            ]
            poly = row["poly"]
            if self.nvars is None and poly:
                self.nvars = len(poly[0]["e"])
            fields.append(poly_text(poly_from_json(poly, self.nvars or 0)))
            self.writer.writerow(fields)
        except CSV_ERRORS as exc:
            self.error = exc
        return i


def table_csv(payload):
    """CSV rendering of the entries of a canonical table payload string.

    The payload is read as ``json.loads`` reads it: members in any order,
    the last of a repeated key winning, whitespace wherever JSON allows it.
    But the ``entries`` rows are decoded one at a time, each written as its
    CSV line before the next is read, so the parsed table is never built.
    A malformed payload raises one of ``CSV_ERRORS``.
    """
    members = {}

    def member(i):
        if payload[i : i + 1] != '"':
            raise ValueError("expected a member name at character %d" % i)
        key, i = _decode(payload, i)
        i = _space(payload, _after(payload, i, ":")[0]).end()
        if key == "entries" and payload[i : i + 1] == "[":
            members[key] = _CsvRows(payload)
            return _walk(payload, i, "[]", members[key].read)
        members[key], i = _decode(payload, i)
        return i

    end = _walk(payload, 0, "{}", member)
    if _space(payload, end).end() != len(payload):
        raise ValueError("extra data at character %d" % end)
    entries = members["entries"]
    if not isinstance(entries, _CsvRows):
        raise ValueError("entries is not a list")
    if entries.rows:
        if entries.error is not None:
            raise entries.error
        nvars = members["variables"]
        if type(nvars) is not int or nvars < 0:
            raise ValueError("variables is not a nonnegative integer: %r" % (nvars,))
        if entries.nvars not in (None, nvars):
            raise DimensionMismatchError("exponent vector has wrong length")
    return entries.buf.getvalue()


def restriction_table_json(ctx, family="schubert"):
    from .equivariant import fixed_points, restriction_table

    table = restriction_table(ctx, family)
    encode = _term_encoder(ctx.r)
    points = [(pt, canonical_json(list(pt.subset))) for pt in fixed_points(ctx)]
    rows = [
        '{"class":%s,"point":%s,"poly":%s}'
        % (canonical_json(list(p.parts)), text, encode(table.restriction(p, pt)))
        for p in enumerate_classes(ctx)
        for pt, text in points
    ]
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
