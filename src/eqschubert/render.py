"""Canonical text, JSON and CSV renderings.

Monomials always print in graded-lex descending order and coefficients
serialize as decimal strings, so every export is byte-stable for a fixed
input and code version. The JSON form of every export is canonical: sorted
keys, no whitespace. ``canonical_json`` encodes the envelopes and reports;
the rows and polynomial terms of the JSON exports are written from the
packed monomial keys' cached ``","e":[...]}`` fragments (``_term_encoder``)
with the same bytes. A Tier-1 test pins the two byte for byte. The CSV
export reads back, as text, only the canonical table JSON the program
writes; any other payload is an error. So a warm CSV re-export never
imports ``polyring``, which the module imports only inside the functions
that build exports.

Every export is in the simple roots x. The table and restriction exports
read the engine's tables, which are in the torus-character coordinates y,
and pass all their polynomials, repeats included, to the one batch
conversion ``polyring._x_columns``, one shear chain per degree; each
distinct value's text is written once straight from its column of lane
digits (``_x_texts``), with no x polynomial built. The export keeps each
row's fields, those texts shared by all the rows of their value, and
streams: ``_Payload`` formats the rows in export order, in chunks of
about ``CHUNK`` characters, as each pass over it writes them, so no list
of row strings and no joined payload is ever built. The module elements
that ``qelem_text`` and ``qelem_json`` render come from
``quantum.multiply``, already in x, and are rendered as given.
"""

from __future__ import annotations

import csv
import io
import json
from functools import lru_cache
from itertools import compress
from operator import add

from .grass import Partition, default_d_max, enumerate_classes

canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@lru_cache(maxsize=1 << 16)
def _monomial_text(exps):
    """``x1^2*x2`` for the exponents ``(2, 1)``; the unit monomial is ``""``."""
    return "*".join(
        "x%d%s" % (i + 1, "^%d" % e if e > 1 else "")
        for i, e in enumerate(exps)
        if e
    )


def poly_text(items):
    """Human-readable polynomial, e.g. ``2*x1^2*x2 + x3 - 1``, from its
    ``(exponents, coefficient)`` items in the order of
    ``Polynomial.canonical_terms``."""
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


def _terms_text(coefficients, fragments):
    """The JSON text of the terms with these nonzero ``coefficients`` and,
    aligned with them, these key fragments; ``[]`` for no terms."""
    body = ',{"c":"'.join(map(add, map(str, coefficients), fragments))
    return '[{"c":"' + body + "]" if body else "[]"


def _term_encoder(nvars):
    """``(encode, fragment)`` over ``nvars`` variables: ``fragment(k)`` is
    the ``","e":[...]}`` text of the packed key k, built once per encoder,
    and ``encode(p)`` is the text of ``canonical_json(poly_json(p))`` for
    any polynomial ``p``.  Packed keys compare as exponent vectors, so
    (degree, key) order is the graded-lex order of ``canonical_terms``."""
    from .polyring import _key_degree, _lanes

    unpack, size = _lanes(nvars), 2 * nvars
    fragments = {}

    def fragment(k):
        text = fragments.get(k)
        if text is None:
            exps = unpack(k.to_bytes(size, "big"))
            text = fragments[k] = '","e":[%s]}' % ",".join(map(str, exps))
        return text

    def encode(p):
        keys = sorted(p.terms, key=lambda k: (_key_degree(k), k), reverse=True)
        return _terms_text(map(p.terms.__getitem__, keys), map(fragment, keys))

    return encode, fragment


def _x_texts(values, nvars):
    """Yield ``(i, encode(y_to_x(values[i])))`` for every position i, in
    stream order, each distinct object's text made once.  A lane column of
    ``polyring._x_columns`` is written straight from its nonzero digits and
    the fragments of its group's keys, listed once per group; a per-value
    image is encoded."""
    from .polyring import _x_columns

    encode, fragment = _term_encoder(nvars)
    for _, keys, items in _x_columns(values):
        fragments = None if keys is None else list(map(fragment, keys))
        for column, positions in items:
            if keys is None:
                text = encode(column)
            else:
                text = _terms_text(compress(column, column), compress(fragments, column))
            for i in positions:
                yield i, text


# characters of formatted rows per chunk of a streamed export
CHUNK = 1 << 18


class _Rows:
    """The export rows ``form % fields`` for the tuples of ``fields``, in
    order, formatted anew on each pass and never held; ``len()`` is the
    row count."""

    def __init__(self, form, fields):
        self.form, self.fields = form, fields

    def __len__(self):
        return len(self.fields)

    def __iter__(self):
        return map(self.form.__mod__, self.fields)


class _Payload:
    """The canonical text of ``envelope`` with ``rows`` as its ``entries``
    list, plus a newline, as a re-iterable of text chunks.

    The envelope's other values hold no empty list. ``head`` is the text
    up to and with the ``[`` of the rows, ``tail`` the text from their
    ``]`` on. Each pass formats the rows anew and joins about ``CHUNK``
    characters of them per chunk, so neither the rows' strings nor the
    whole text is ever held. ``len()`` is the text's length, counted over
    one pass; ``str()`` is the text.
    """

    def __init__(self, envelope, rows):
        head, tail = canonical_json(dict(envelope, entries=[])).split("[]")
        self.head, self.tail = head + "[", "]" + tail + "\n"
        self.rows = rows

    def __iter__(self):
        yield self.head
        batch, size = [], 0
        for row in self.rows:
            batch.append(row)
            size += len(row)
            if size >= CHUNK:
                yield ",".join(batch)
                # the next chunk starts with the comma before its first row
                batch, size = [""], 0
        yield ",".join(batch)
        yield self.tail

    def __len__(self):
        return sum(map(len, self))

    def __str__(self):
        return "".join(self)


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
            coeff = "(%s)" % poly_text(c.canonical_terms())
        body = "*".join(x for x in (q, coeff, label) if x)
        pieces.append(body)
    return " + ".join(pieces)


def qelem_json(elem):
    """Canonical JSON list of the ``{"w", "d", "poly"}`` terms of an element."""
    encode, _ = _term_encoder(elem.ctx.r)
    return "[%s]" % ",".join(
        '{"d":%d,"poly":%s,"w":%s}' % (d, encode(c), canonical_json(list(w)))
        for (w, d), c in elem.canonical_items()
    )


_ROW = '{"d":%d,"poly":%s,"u":%s,"v":%s,"w":%s}'


def _table_envelope(k, n, d_max, variables):
    """The members of a table payload other than its ``entries``."""
    return {"k": k, "n": n, "d_max": d_max, "variables": variables}


def table_entries(ctx, d_max=None):
    """Canonical JSON export rows for the full product table, formatted as
    they are iterated; ``len()`` is the row count.

    One row per nonzero coefficient, pairs listed once with u <= v in the
    class order, sorted by (u, v, d, w). Each row is one format of its
    cached partition arrays and its terms in x. ``EQTable._store`` keeps
    equal coefficients as one object, and makes each homogeneous. The rows'
    values go as they stand through ``_x_texts``, so each distinct value is
    converted and written once, its text shared by all its rows, and no x
    copy of the table is kept.
    """
    from .quantum import eq_table

    if d_max is None:
        d_max = default_d_max(ctx)
    arrays = {p.parts: canonical_json(list(p.parts)) for p in enumerate_classes(ctx)}
    rows = list(eq_table(ctx).rows(d_max))
    fields = [None] * len(rows)
    for i, text in _x_texts([row[4] for row in rows], ctx.r):
        u, v, w, d, _ = rows[i]
        fields[i] = (d, text, arrays[u], arrays[v], arrays[w])
    return _Rows(_ROW, fields)


def table_json(ctx, d_max=None):
    """The canonical table payload, the one source of every table export:
    the rows of ``table_entries`` streamed into the encoded envelope."""
    if d_max is None:
        d_max = default_d_max(ctx)
    return _Payload(_table_envelope(ctx.k, ctx.n, d_max, ctx.r), table_entries(ctx, d_max))


# ``polyring``'s packing cap on one exponent, kept here so that a warm CSV
# re-export does not import the engine; a Tier-1 test pins the two equal
_MAX_EXPONENT = (1 << 15) - 1


def _is_int(text):
    """True if ``text`` is an int as canonical JSON writes it."""
    digits = text[1:] if text[:1] == "-" else text
    return digits.isascii() and digits.isdigit() and (digits[0] != "0" or text == "0")


def _canonical_rows(nvars):
    """``read(payload, i)``: the row of canonical table JSON over ``nvars``
    variables that starts at ``i``, as ``(end, u, v, w, d, poly)``, or None.

    A row is read only when it is ``{"d":D,"poly":P,"u":U,"v":V,"w":W}``
    with D a canonical int, U, V and W canonical int lists, and P canonical
    polynomial text: terms ``{"c":"C","e":[...]}`` with C a nonzero int and
    ``nvars`` exponents of at most ``_MAX_EXPONENT``, in strictly descending
    graded-lex order. Such a row is exactly the text ``canonical_json``
    writes for what ``json`` decodes from it. Then D, U, V and W are their
    own CSV text, and ``poly`` is ``poly_text`` of P's terms, made once per
    distinct P.
    """
    checked = set()  # int and int-list texts found canonical
    monomials = {}  # exponent-list text -> (degree, exponents), or False
    # hash of a canonical polynomial's text -> (where that text first
    # starts, its length, its CSV text); the payload holds the text, so the
    # memo keeps no copy of it
    polys = {}

    def ints(text):
        if text in checked:
            return True
        body = text[1:-1]
        if text[:1] + text[-1:] == "[]" and (not body or all(map(_is_int, body.split(",")))):
            checked.add(text)
            return True
        return False

    def monomial(text):
        parts = text.split(",") if text else []
        if len(parts) != nvars or not all(map(_is_int, parts)):
            return False
        exps = tuple(map(int, parts))
        if not all(0 <= e <= _MAX_EXPONENT for e in exps):
            return False
        return sum(exps), exps

    def poly(text):
        if text == "[]":
            return "0"
        if not (text.startswith('[{"c":"') and text.endswith("]}]") and text.isascii()):
            return None
        items, last = [], (float("inf"),)
        for term in text[7:-3].split(']},{"c":"'):
            c, sep, e = term.partition('","e":[')
            if not sep:
                return None
            key = monomials.get(e)
            if key is None:
                key = monomials[e] = monomial(e)
            coeff = _is_int(c) and int(c)
            if not (key and coeff and key < last):
                return None
            last = key
            items.append((key[1], coeff))
        return poly_text(items)

    def read(payload, i):
        if not payload.startswith('{"d":', i):
            return None
        cuts = [i + 5]
        for mark in (',"poly":', ',"u":', ',"v":', ',"w":', "}"):
            at = payload.find(mark, cuts[-1])
            if at < 0:
                return None
            cuts += [at, at + len(mark)]
        d, p, u, v, w = (payload[a:b] for a, b in zip(cuts[::2], cuts[1::2]))
        if not (_is_int(d) and ints(u) and ints(v) and ints(w)):
            return None
        start, length, text = polys.get(hash(p), (0, -1, None))
        if length != len(p) or not payload.startswith(p, start):
            text = poly(p)
            if text is None:
                return None
            polys.setdefault(hash(p), (cuts[2], len(p), text))
        return cuts[-1], u, v, w, d, text

    return read


def table_csv(payload, k, n, d_max):
    """CSV rendering of the entries of the canonical table payload string of
    Gr(k,n) to q-degree ``d_max``.

    Only the text ``table_json`` writes for that key is read, the mirror of
    ``_Payload``: the payload must start with the head and end with the tail
    of that table's envelope, and every row between them must be one that
    ``_canonical_rows`` reads, each written as its CSV line before the next
    is read, so the parsed table is never built. Anything else raises
    ``ValueError``.
    """
    shell = _Payload(_table_envelope(k, n, d_max, n - 1), ())
    if not (payload.startswith(shell.head) and payload.endswith(shell.tail)):
        raise ValueError(
            "payload is not the canonical table of Gr(%d,%d) to d_max %d" % (k, n, d_max)
        )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["u", "v", "w", "d", "poly"])
    read = _canonical_rows(n - 1)
    end = len(payload) - len(shell.tail)
    i = len(shell.head)
    more = i < end
    while more:
        row = read(payload, i)
        if row is None:
            break
        i, *fields = row
        writer.writerow(fields)
        more = payload[i : i + 1] == ","
        i += more
    if more or i != end:
        raise ValueError("row at character %d is not canonical" % i)
    return buf.getvalue()


def restriction_table_json(ctx, family="schubert"):
    """The canonical restriction export of one family, in x, streamed as
    ``table_json`` streams the table."""
    from .equivariant import fixed_points, restriction_table

    table = restriction_table(ctx, family)
    points = [(pt, canonical_json(list(pt.subset))) for pt in fixed_points(ctx)]
    classes = [(p, canonical_json(list(p.parts))) for p in enumerate_classes(ctx)]
    values = [table.restriction(p, pt) for p, _ in classes for pt, _ in points]
    labels = [(parts, text) for _, parts in classes for _, text in points]
    fields = [None] * len(values)
    for i, text in _x_texts(values, ctx.r):
        fields[i] = (*labels[i], text)
    rows = _Rows('{"class":%s,"point":%s,"poly":%s}', fields)
    return _Payload({"k": ctx.k, "n": ctx.n, "family": family}, rows)


def partition_argument(ctx, text):
    """Parse a partition given as a JSON array, e.g. ``[2,1]``."""
    try:
        parts = json.loads(text)
    except RecursionError:
        raise ValueError("partition is nested too deeply")
    if not isinstance(parts, list) or not all(type(p) is int for p in parts):
        raise ValueError("expected a JSON array of integers")
    return Partition(tuple(parts), ctx)
