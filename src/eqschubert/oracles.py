"""Slow, independent brute-force computations used to pin expected values.

Everything here favors transparency over speed: classical structure
constants come from exhaustive Littlewood-Richardson tableau enumeration,
quantum ones from expanding the unrestricted product and reducing by
n-rim-hooks, and equivariant ones from multiplying factorial Schur
polynomials and expanding the product back into that basis by
triangularity.  The engines are never consulted.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ExpansionError
from .grass import Partition, _per_context, remove_rim_hooks
from .polyring import Polynomial

# -- classical Littlewood-Richardson by tableau enumeration -------------------


def lr_tableau(u, v, w):
    """The number of LR skew tableaux of shape w/u with content v.

    Accepts Partitions or raw parts tuples.  For box partitions this is the
    Grassmannian structure constant: products land on box shapes only, and
    coefficients of wider shapes are simply discarded at Grassmannian level.
    """
    ut = u.parts if isinstance(u, Partition) else tuple(u)
    vt = v.parts if isinstance(v, Partition) else tuple(v)
    wt = w.parts if isinstance(w, Partition) else tuple(w)
    return _lr_coefficient(ut, vt, wt)


def _lr_coefficient(u, v, w):
    if sum(u) + sum(v) != sum(w):
        return 0
    if len(w) < len(u) or any(w[i] < u[i] for i in range(len(u))):
        return 0
    rows = len(w)
    u = u + (0,) * (rows - len(u))
    if not v:
        return 1
    # Cells of w/u in reverse reading order: rows top to bottom, each row
    # right to left, so the lattice condition is checkable as we go.
    cells = [(i, j) for i in range(rows) for j in range(w[i] - 1, u[i] - 1, -1)]
    nv = len(v)
    counts = [0] * (nv + 1)
    filling = {}

    def place(pos):
        if pos == len(cells):
            return 1
        i, j = cells[pos]
        # neighbors already placed: the cell to the right, the cell above;
        # cells inside u never enter the filling, so get() handles the edge
        right = filling.get((i, j + 1))
        above = filling.get((i - 1, j))
        total = 0
        for a in range(1, min(i + 1, nv) + 1):
            if counts[a] >= v[a - 1]:
                continue
            if a > 1 and counts[a] >= counts[a - 1]:
                continue
            if right is not None and a > right:
                continue
            if above is not None and a <= above:
                continue
            counts[a] += 1
            filling[(i, j)] = a
            total += place(pos + 1)
            del filling[(i, j)]
            counts[a] -= 1
        return total

    return place(0)


def _partitions_of(total, max_parts, max_first):
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(total, max_first), 0, -1):
        for rest in _partitions_of(total - first, max_parts - 1, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def wide_lr_expansion(u, v, k):
    """Expansion of the product over all shapes with at most k rows."""
    total = sum(u) + sum(v)
    out = {}
    first_bound = (u[0] if u else 0) + (v[0] if v else 0)
    for shape in _partitions_of(total, k, max(first_bound, 0)):
        c = _lr_coefficient(u, v, shape)
        if c:
            out[shape] = c
    return out


# -- quantum structure constants by rim-hook reduction ------------------------


@_per_context
def rim_reduce(ctx, shape):
    """Reduce a wide shape into the box by removing n-rim-hooks.

    Returns (box shape, sign, number of hooks) or None when the reduction
    dies.  Every removal order is explored and must agree; the final shape is
    an n-core, so a shape already inside the box is returned unchanged.
    """
    if (not shape or shape[0] <= ctx.width) and len(shape) <= ctx.k:
        return (shape, 1, 0)
    outcomes = []
    for new_shape, sign in remove_rim_hooks(shape, ctx):
        sub = rim_reduce(ctx, new_shape)
        outcomes.append(None if sub is None else (sub[0], sign * sub[1], sub[2] + 1))
    if not outcomes:
        return None
    if any(o != outcomes[0] for o in outcomes[1:]):
        raise ExpansionError("rim-hook reduction of %r diverged" % (shape,))
    return outcomes[0]


def quantum_lr_rimhook(u, v, w, d):
    """Quantum structure constant at q-degree d via rim-hook reduction."""
    ctx = u.ctx
    if u.size + v.size != w.size + d * ctx.n:
        return 0
    total = 0
    for shape, c in wide_lr_expansion(u.parts, v.parts, ctx.k).items():
        reduced = rim_reduce(ctx, shape)
        if reduced is not None and reduced[0] == w.parts and reduced[2] == d:
            total += reduced[1] * c
    return total


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
        shape = lead
        while shape and shape[-1] == 0:
            shape = shape[:-1]
        out[shape] = coeff
        for ze, c in factorial_schur_zpoly(ctx, shape).items():
            _zadd(product, ze, coeff * c * -1)
    return out


def elr_factorial_schur(u, v, w):
    """Equivariant structure constant via factorial Schur expansion."""
    ctx = u.ctx
    expansion = fs_product_expansion(ctx, u.parts, v.parts)
    return expansion.get(w.parts, Polynomial.zero(ctx.r))


def build_fixtures():
    """Oracle-stamped values for the small contexts, used as checked-in
    regression data.  Regenerate with ``eqschubert fixtures --regen``."""
    from .grass import GrassContext, default_d_max, enumerate_classes
    from .render import poly_json

    out = {}
    for k, n in ((1, 2), (2, 4)):
        ctx = GrassContext(k, n)
        label = "Gr(%d,%d)" % (k, n)
        classes = enumerate_classes(ctx)
        classical = []
        quantum = []
        equivariant = []
        for u in classes:
            for v in classes:
                if u.sort_key > v.sort_key:
                    continue
                for w in classes:
                    c = lr_tableau(u, v, w)
                    if c:
                        classical.append(
                            {"u": list(u.parts), "v": list(v.parts),
                             "w": list(w.parts), "value": c}
                        )
                    for d in range(1, default_d_max(ctx) + 1):
                        q = quantum_lr_rimhook(u, v, w, d)
                        if q:
                            quantum.append(
                                {"u": list(u.parts), "v": list(v.parts),
                                 "w": list(w.parts), "d": d, "value": q}
                            )
                    poly = elr_factorial_schur(u, v, w)
                    if not poly.is_zero:
                        equivariant.append(
                            {"u": list(u.parts), "v": list(v.parts),
                             "w": list(w.parts), "poly": poly_json(poly)}
                        )
        out[label] = {
            "classical_lr": classical,
            "quantum_lr": quantum,
            "equivariant_lr": equivariant,
        }
    return out
