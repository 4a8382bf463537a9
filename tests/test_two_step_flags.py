"""Quantum equals classical on two-step flags: a route to the mixed terms
that shares no code with the quantum recursion.

The degree-d three-point invariants of Gr(k,n) are classical integrals over
the two-step flag variety Y_d = Fl(k-d, k+d; n), clamped to Fl(0, n; n) as
d grows (Buch-Kresch-Tamvakis, "Gromov-Witten invariants on
Grassmannians", J. Amer. Math. Soc. 2003; equivariantly Buch-Mihalcea,
"Quantum K-theory of Grassmannians", Duke Math. J. 2011).  With Z_d =
Fl(k-d, k, k+d; n) and its projections to Y_d and Gr(k,n), the pushforward
F_u of sigma(u) restricts at the fixed point A < C of Y_d to

    F_u|(A, C) = sum over k-sets A < B < C of sigma(u)|B / e(B),

e(B) the product of b_a - b_b over a in B - A and b in C - B, and

    C[u, v, w, d] = sum over (A, C) of F_u F_v F~_(w dual) / e_Y(A, C),

with F~ the pushforward of the opposite class and e_Y the product of
b_a - b_b over a in an earlier block of (A, C - A, rest) than b.  Every sum
is an exact Atiyah-Bott sum of ``RationalExpression`` values in the engine
coordinates y, checked against the table's own y values.
"""

from functools import lru_cache
from itertools import combinations

import pytest

from eqschubert import GrassContext, Polynomial
from eqschubert.equivariant import FixedPoint, b_difference, restrict_schubert
from eqschubert.grass import default_d_max, enumerate_classes
from eqschubert.polyring import RationalExpression
from eqschubert.quantum import eq_table


def _weights(ctx, earlier, later):
    """The forms b_a - b_b, a in ``earlier`` and b in ``later``."""
    return [b_difference(ctx, a, b) for a in earlier for b in later]


def _atiyah_bott(ctx, items):
    """The polynomial sum of value / (product of forms) over ``items``."""
    acc = RationalExpression(Polynomial.zero(ctx.r))
    for value, forms in items:
        if not value.is_zero:
            acc = acc.add(RationalExpression(value, forms).reduced())
    return acc.expect_polynomial()


def _flag_points(ctx, d):
    """The fixed points (A, C) of Y_d, A inside C, as sorted tuples."""
    outer = range(1, ctx.n + 1)
    small, large = max(ctx.k - d, 0), min(ctx.k + d, ctx.n)
    for c in combinations(outer, large):
        for a in combinations(c, small):
            yield a, c


def _pushforwards(ctx, d, family):
    """F_u|(A, C) of every class u of ``family`` at every point of Y_d."""
    out = {}
    for a, c in _flag_points(ctx, d):
        fibre = [
            tuple(sorted(a + extra))
            for extra in combinations([i for i in c if i not in a], ctx.k - len(a))
        ]
        for u in enumerate_classes(ctx):
            items = [
                (
                    restrict_schubert(u, FixedPoint(b, ctx), family),
                    _weights(ctx, set(b) - set(a), set(c) - set(b)),
                )
                for b in fibre
            ]
            out[(u.parts, a, c)] = _atiyah_bott(ctx, items)
    return out


def two_step_constant(ctx, d, u, v, w, schubert, opposite):
    """C[u, v, w, d] in y as the Y_d integral of F_u F_v F~_(w dual)."""
    items = []
    rest = range(1, ctx.n + 1)
    for a, c in _flag_points(ctx, d):
        middle = [i for i in c if i not in a]
        outside = [i for i in rest if i not in c]
        forms = (
            _weights(ctx, a, middle) + _weights(ctx, a, outside) + _weights(ctx, middle, outside)
        )
        value = (
            schubert[(u.parts, a, c)]
            * schubert[(v.parts, a, c)]
            * opposite[(w.dual().parts, a, c)]
        )
        items.append((value, forms))
    return _atiyah_bott(ctx, items)


@lru_cache(maxsize=None)
def two_step_values(ctx):
    """C[u, v, w, d] by the two-step route for every key with d >= 1, u <= v
    in the class order and a nonnegative grading, keyed by class parts
    and d."""
    classes = enumerate_classes(ctx)
    out = {}
    for d in range(1, default_d_max(ctx) + 1):
        schubert = _pushforwards(ctx, d, "schubert")
        opposite = _pushforwards(ctx, d, "opposite")
        for i, u in enumerate(classes):
            for v in classes[i:]:
                for w in classes:
                    if u.size + v.size - w.size - d * ctx.n >= 0:
                        out[(u.parts, v.parts, w.parts, d)] = two_step_constant(
                            ctx, d, u, v, w, schubert, opposite
                        )
    return out


def mixed_mismatches(ctx, engine):
    """The keys of ``two_step_values`` whose value in ``engine`` (a map from
    class parts and d to a polynomial in y; missing keys are zero) differs,
    and the number of keys compared."""
    route = two_step_values(ctx)
    zero = Polynomial.zero(ctx.r)
    return [key for key, c in route.items() if engine.get(key, zero) != c], len(route)


def _engine_values(ctx):
    """Every nonzero d >= 1 coefficient of the table, in y."""
    table = eq_table(ctx)
    classes = enumerate_classes(ctx)
    out = {}
    for i, u in enumerate(classes):
        for v in classes[i:]:
            for d in range(1, default_d_max(ctx) + 1):
                for w in classes:
                    c = table.coefficient(u, v, w, d)
                    if not c.is_zero:
                        out[(u.parts, v.parts, w.parts, d)] = c
    return out


@pytest.mark.parametrize("k, n, keys", [(2, 4, 35), (2, 5, 183)])
def test_quantum_equals_classical_on_two_step_flags(k, n, keys):
    ctx = GrassContext(k, n)
    assert mixed_mismatches(ctx, _engine_values(ctx)) == ([], keys)


def test_a_planted_mixed_coefficient_is_the_one_mismatch(gr25):
    engine = _engine_values(gr25)
    # a mixed term: q-degree at least one and a positive x-degree
    key = min(k for k, c in engine.items() if c.degree() > 0)
    engine[key] = engine[key] + Polynomial.variable(gr25.r, 1)
    assert mixed_mismatches(gr25, engine) == ([key], 183)
