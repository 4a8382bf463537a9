"""Slow, independent brute-force oracles that only the tests run.

Classical structure constants come from exhaustive Littlewood-Richardson
tableau enumeration, and equivariant ones (at q-degree 0) from multiplying
factorial Schur polynomials and expanding the product back into that basis
by triangularity (Knutson-Tao, math/0112150).  The engines are never
consulted.  The package keeps only the oracle that ``verify`` runs,
``eqschubert.oracles.quantum_lr_rimhook``.

The expansions are memoized in their context's store
(``grass._per_context``), so ``forget`` drops them with the engine's
tables.
"""

from eqschubert.errors import ExpansionError
from eqschubert.grass import Partition, _per_context
from eqschubert.oracles import _lr_coefficient
from eqschubert.polyring import Polynomial

# -- classical Littlewood-Richardson by tableau enumeration -------------------


def lr_tableau(u, v, w):
    """The number of LR skew tableaux of shape w/u with content v.

    Accepts Partitions or raw parts tuples, whose trailing zeros are
    dropped as ``Partition`` drops them.  For box partitions this is the
    Grassmannian structure constant: products land on box shapes only, and
    coefficients of wider shapes are simply discarded at Grassmannian level.
    """
    return _lr_coefficient(*map(_parts, (u, v, w)))


def _parts(p):
    """The parts of a Partition, or a raw tuple with its trailing zeros
    dropped."""
    if isinstance(p, Partition):
        return p.parts
    parts = tuple(p)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


# -- equivariant structure constants by factorial Schur expansion -------------


def _ssyt(shape, max_entry):
    """Semistandard tableaux of a (possibly wide) shape with bounded entries."""
    rows = len(shape)
    if rows > max_entry and any(shape):
        return
    tableau = [[0] * shape[i] for i in range(rows)]

    def fill(i, j):
        if i == rows:
            yield tuple(tuple(r) for r in tableau)
            return
        ni, nj = (i, j + 1) if j + 1 < shape[i] else (i + 1, 0)
        low = 1
        if j > 0:
            low = max(low, tableau[i][j - 1])
        if i > 0 and j < shape[i - 1]:
            low = max(low, tableau[i - 1][j] + 1)
        for a in range(low, max_entry + 1):
            tableau[i][j] = a
            yield from fill(ni, nj)
        tableau[i][j] = 0

    if rows == 0 or shape[0] == 0:
        yield ()
        return
    yield from fill(0, 0)


@_per_context
def _b_forms_x(ctx):
    """b_j = x_1 + ... + x_{j-1} for j = 1..n, in the simple roots x: the
    oracle builds its own, so it shares no coordinates with the engine."""
    r = ctx.r
    out = [Polynomial.zero(r)]
    for j in range(1, ctx.n):
        out.append(out[-1] + Polynomial.variable(r, j))
    return tuple(out)


def _b_extended(ctx, j):
    """Shift parameters; indices past n repeat b_n, which never affects
    in-box structure constants (wide basis elements vanish at every box
    evaluation point regardless of the extension)."""
    return _b_forms_x(ctx)[min(j, ctx.n) - 1]


@_per_context
def factorial_schur_zpoly(ctx, shape):
    """The factorial Schur polynomial of a shape with at most k rows, as a
    map from z-exponent vectors to coefficient polynomials in x."""
    k = ctx.k
    zero_exp = (0,) * k
    total = {}
    for tableau in _ssyt(shape, k):
        term = {zero_exp: Polynomial.const(ctx.r, 1)}
        for i, row in enumerate(tableau):
            for j, entry in enumerate(row):
                shift = _b_extended(ctx, entry + j - i)
                nxt = {}
                for ze, coeff in term.items():
                    bumped = ze[: entry - 1] + (ze[entry - 1] + 1,) + ze[entry:]
                    _zadd(nxt, bumped, coeff)
                    _zadd(nxt, ze, coeff * shift * -1)
                term = nxt
        for ze, coeff in term.items():
            _zadd(total, ze, coeff)
    return total


def _zadd(acc, ze, coeff):
    prev = acc.get(ze)
    c = coeff if prev is None else prev + coeff
    if c.is_zero:
        acc.pop(ze, None)
    else:
        acc[ze] = c


def _zmul(a, b):
    out = {}
    for za, ca in a.items():
        for zb, cb in b.items():
            key = tuple(x + y for x, y in zip(za, zb))
            _zadd(out, key, ca * cb)
    return out


@_per_context
def fs_product_expansion(ctx, u, v):
    """Structure constants of a product in the factorial Schur basis.

    Expands by triangularity: the leading z-monomial of each basis element
    is its shape with unit coefficient, so repeatedly stripping the leading
    monomial of the product terminates.  Keys include wide shapes; the
    in-box ones are the Grassmannian constants.
    """
    product = _zmul(factorial_schur_zpoly(ctx, u), factorial_schur_zpoly(ctx, v))
    out = {}
    while product:
        lead = max(product, key=lambda e: (sum(e), e))
        if any(lead[i] < lead[i + 1] for i in range(len(lead) - 1)):
            raise ExpansionError("non-partition leading term %r" % (lead,))
        coeff = product[lead]
        shape = _parts(lead)
        out[shape] = coeff
        for ze, c in factorial_schur_zpoly(ctx, shape).items():
            _zadd(product, ze, coeff * c * -1)
    return out


def elr_factorial_schur(u, v, w):
    """Equivariant structure constant via factorial Schur expansion."""
    ctx = u.ctx
    expansion = fs_product_expansion(ctx, u.parts, v.parts)
    return expansion.get(w.parts, Polynomial.zero(ctx.r))
