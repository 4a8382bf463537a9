"""Torus-fixed-point localization on Gr(k,n).

Conventions, pinned once and verified by the test suite through the unit,
GKM, duality, and positivity checks:

* Fixed points are k-subsets of {1..n}.  The partition ``a`` corresponds to
  the subset {a_{k+1-i} + i : i = 1..k} (its staircase), the first k values
  of its Grassmannian permutation in ``grass``.
* Every torus weight in sight is a difference of the b's, with
  ``b_j = x_1 + ... + x_{j-1}`` in the simple roots x (so b_1 = 0).  This
  module computes in the torus characters themselves, the engine
  coordinates ``y_j = b_{j+1}`` (j = 1..n-1), where every tangent weight
  has at most two terms; ``_b_forms`` is the one place that choice is made.
  ``restrict_schubert``, ``restriction_table``, ``tangent_weights``,
  ``own_restriction``, ``integrate``, ``elr_table`` and ``gkm_violations``
  work in y.  ``elr`` and ``pairing`` return x, converted by
  ``polyring.y_to_x``.
* The restriction of the class of ``a`` to the fixed point S of ``m``
  vanishes unless ``a`` is contained in ``m``; the nonzero ones come from one
  walk down the Chevalley graph per point, seeded at S by the product of the
  positive tangent weights (``own_restriction``).  The test suite pins every
  value to the factorial Schur tableau formula of its oracles.
* The tangent weights at the subset S are { b_a - b_b : a in S, b not in S };
  pushing forward to a point divides by their product.
* The opposite family is the first one composed with the substitution
  x_j -> -x_{n-j}, which is y_j -> y_{n-1-j} - y_{n-1} (y_0 = 0,
  ``polyring.w0_involution``), and the complementary relabeling of fixed
  points.
"""

from __future__ import annotations

from math import prod

from .errors import NonPolynomialError
from .grass import (
    _frozen,
    _per_context,
    add_box_shapes,
    enumerate_classes,
    partition_from_permutation,
    shared_context,
    to_grassmannian_permutation,
)
from .polyring import (
    Polynomial,
    RationalExpression,
    _cancel,
    _normalize_linear,
    _rational,
    add_product_into,
    finish_terms,
    shared_zero,
    w0_involution,
    y_to_x,
)


class FixedPoint:
    """A torus-fixed point: a coordinate k-subset of {1..n}."""

    __slots__ = ("subset", "ctx")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, subset, ctx):
        s = tuple(subset)
        if not all(type(i) is int for i in s):
            raise ValueError("subset %r has a member that is not an int" % (s,))
        s = tuple(sorted(s))
        object.__setattr__(self, "subset", s)
        object.__setattr__(self, "ctx", ctx)
        if len(s) != ctx.k or len(set(s)) != ctx.k:
            raise ValueError("subset %r is not a k-set" % (s,))
        if s and (s[0] < 1 or s[-1] > ctx.n):
            raise ValueError("subset %r out of range" % (s,))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.subset == other.subset and self.ctx == other.ctx

    def __hash__(self):
        return hash((self.subset, self.ctx))

    def __repr__(self):
        return "FixedPoint(%s)" % (list(self.subset),)


def point_of(p):
    """The fixed point attached to a partition (staircase dictionary): the
    first k values of its Grassmannian permutation."""
    return FixedPoint(to_grassmannian_permutation(p)[: p.ctx.k], p.ctx)


@_per_context
def fixed_points(ctx):
    """All fixed points, ordered like the classes they index."""
    return tuple(point_of(p) for p in enumerate_classes(ctx))


@_per_context
def _b_forms(ctx):
    """b_1 = 0 and b_{j+1} = y_j for j = 1..n-1, the engine coordinates, as
    polynomials over r vars."""
    r = ctx.r
    return (Polynomial.zero(r),) + tuple(Polynomial.variable(r, j) for j in range(1, ctx.n))


@_per_context
def _shared_form(ctx, form):
    """The context's one object equal to ``form``, so equal forms hit caches by identity."""
    return form


def b_difference(ctx, a, b):
    """b_a - b_b, in the engine coordinates y, as a ``_shared_form``."""
    forms = _b_forms(ctx)
    return _shared_form(ctx, forms[a - 1] - forms[b - 1])


def _tangent_pairs(ctx, subset):
    """The pairs (a, b), a in ``subset`` and b outside it, in the order of
    the tangent weights b_a - b_b."""
    return [(a, b) for a in subset for b in range(1, ctx.n + 1) if b not in subset]


def tangent_weights(point):
    """The k(n-k) weights of the tangent space at ``point``, in y.

    The weight attached to (a in S, b outside S) is b_a - b_b; the point
    class restricted to the top fixed point is exactly the product of the
    weights there, which fixes the sign convention.
    """
    return [b_difference(point.ctx, a, b) for a, b in _tangent_pairs(point.ctx, point.subset)]


@_per_context
def _euler_factors(point):
    """The tangent Euler class at ``point`` normalized as a
    ``RationalExpression`` denominator, once per point: (map of positive
    primitive linear forms to multiplicity, sign), from
    ``polyring._normalize_linear`` of each tangent weight in turn."""
    factors, sign = {}, 1
    for form in tangent_weights(point):
        form, s = _normalize_linear(form)
        form = _shared_form(point.ctx, form)
        factors[form] = factors.get(form, 0) + 1
        sign *= s
    return factors, sign


@_per_context
def divisor_restriction(ctx, subset):
    """c_S = sigma(1)|S = sum of b_{s_i} - b_i over the ascending subset S, in
    y (Knutson-Tao); at the point of a it is the Chevalley diagonal c_a."""
    terms = (b_difference(ctx, s, i) for i, s in enumerate(subset, 1))
    return sum(terms, Polynomial.zero(ctx.r))


@_per_context
def _restrictions_at(ctx, subset):
    """Every nonzero sigma(a)|S at the fixed point S of m, keyed by parts.

    A walk down the Chevalley graph from sigma(m)|S = ``own_restriction(m)``:
    restricting sigma(1) sigma(a) = sum of sigma(a+) + c_a sigma(a) to S
    gives sigma(a)|S = (sum of sigma(a+)|S) / (c_S - c_a) for each a inside
    m, one exact division.  The unit row (1) and divisor row (c_S) check it.
    """
    m = partition_from_permutation(ctx, subset)
    c_s = divisor_restriction(ctx, subset)
    values = {m.parts: own_restriction(m)}
    for a in reversed(enumerate_classes(ctx)):
        if a.parts in values or not m.contains(a):
            continue
        above = [values[up.parts] for up in add_box_shapes(a) if up.parts in values]
        gap = _shared_form(ctx, c_s - divisor_restriction(ctx, point_of(a).subset))
        values[a.parts] = sum(above, Polynomial.zero(ctx.r)).divide_exact(gap)
        if values[a.parts] is None:
            raise NonPolynomialError("inexact Chevalley step at %r for %r" % (subset, a.parts))
    if values[()] != Polynomial.const(ctx.r, 1) or values.get((1,), c_s) != c_s:
        raise NonPolynomialError("walk at %r fails its unit or divisor row" % (subset,))
    return values


def restrict_schubert(p, point, family="schubert"):
    """Restriction of a basis class (or its opposite) to a fixed point, in y."""
    if family not in ("schubert", "opposite"):
        raise ValueError("family must be 'schubert' or 'opposite'")
    ctx, subset = p.ctx, point.subset
    if family == "opposite":
        subset = point_of(partition_from_permutation(ctx, subset).dual()).subset
    value = _restrictions_at(ctx, subset).get(p.parts, shared_zero(ctx.r))
    # a zero stays the shared zero
    return w0_involution(value) if family == "opposite" and value.terms else value


class RestrictionTable:
    """All restrictions of one family over one context, in y."""

    def __init__(self, ctx, family):
        self.ctx = ctx
        self.family = family
        self.entries = {
            (p.parts, pt.subset): restrict_schubert(p, pt, family)
            for p in enumerate_classes(ctx)
            for pt in fixed_points(ctx)
        }

    def restriction(self, p, point):
        return self.entries[(p.parts, point.subset)]


@_per_context
def restriction_table(ctx, family):
    return RestrictionTable(ctx, family)


# -- localization ------------------------------------------------------------


def integrate(ctx, factors):
    """Equivariant push-forward to a point of a class given by restrictions.

    ``factors`` maps a fixed point to the tuple of polynomials in y whose
    product is the class's restriction there; a point that is left out
    restricts to zero.  The result is in y.  It is the Atiyah-Bott sum of
    the restrictions over the tangent Euler classes, accumulated pairwise
    in the canonical fixed-point order; it must clear to a polynomial or
    the input table was inconsistent.

    Each point's Euler class comes normalized from ``_euler_factors``, and
    its forms are divided out of the factors one factor at a time before
    the factors are multiplied.  A positive primitive linear form is prime
    in Z[y], so it divides the product exactly as often as it divides the
    factors together: each point's term is the reduced term of the product,
    found by dividing the smaller factors.
    """
    acc = RationalExpression(shared_zero(ctx.r))
    for point in fixed_points(ctx):
        parts = factors.get(point)
        if parts is None or any(part.is_zero for part in parts):
            continue
        left, sign = _euler_factors(point)
        reduced = []
        for part in parts:
            rest = {}
            reduced.append(_cancel(part, left.items(), rest))
            left = rest
        value = prod(reduced[1:], start=reduced[0])
        acc = acc.add(_rational(-value if sign < 0 else value, left))
    return acc.expect_polynomial()


def pairing(u, v):
    """Push-forward of (class of u) * (opposite class of v), in x.

    sigma(u)|p vanishes unless u is contained in p, and sigma~(v)|p unless
    p is contained in v dual, so only the points of that interval are
    restricted and integrated.
    """
    ctx = shared_context(u, v)
    sigma = restriction_table(ctx, "schubert")
    tilde = restriction_table(ctx, "opposite")
    vd = v.dual()
    factors = {
        pt: (sigma.restriction(u, pt), tilde.restriction(v, pt))
        for p, pt in zip(enumerate_classes(ctx), fixed_points(ctx))
        if p.contains(u) and vd.contains(p)
    }
    return y_to_x(integrate(ctx, factors))


@_per_context
def elr(u, v, w):
    """Equivariant structure constant of sigma(u)*sigma(v) on sigma(w).

    Integrates sigma(u) sigma(v) sigma~(w dual) over the fixed locus; the
    result, in x, is homogeneous of degree |u|+|v|-|w| and vanishes when
    that degree is negative.  Memoized per (u, v, w), so the plain and the
    mirrored quantum tables share each divisor-diagonal check.

    The integrand is nonzero at the point of p exactly when u and v are
    contained in p and p in w, so only the points of that interval are
    restricted, each as its three factors, and no opposite table is built:
    for elr(sigma(1), a, a) one point, p = a, contributes.
    """
    ctx = shared_context(u, v, w)
    if u.size + v.size < w.size:
        return shared_zero(ctx.r)
    sigma = restriction_table(ctx, "schubert")
    wd = w.dual()
    factors = {
        pt: (
            sigma.restriction(u, pt),
            sigma.restriction(v, pt),
            restrict_schubert(wd, pt, "opposite"),
        )
        for p, pt in zip(enumerate_classes(ctx), fixed_points(ctx))
        if w.contains(p) and p.contains(u) and p.contains(v)
    }
    return y_to_x(integrate(ctx, factors))


def _own_weights(ctx, subset):
    """The tangent weights b_a - b_b with b < a, the positive ones: their
    product is the restriction of the point's class to the point itself."""
    return [b_difference(ctx, a, b) for a, b in _tangent_pairs(ctx, subset) if a > b]


@_per_context
def own_restriction(p):
    """sigma(p)|p in y, the product of the ``_own_weights`` of p's point."""
    one = Polynomial.const(p.ctx.r, 1)
    return prod(_own_weights(p.ctx, point_of(p).subset), start=one)


@_per_context
def elr_table(ctx):
    """All nonzero ELR coefficients keyed by (u.parts, v.parts, w.parts), in y.

    Keys are canonical: u <= v in the class order.  Restrictions are upper
    triangular (sigma(x)|w = 0 unless x is contained in w; sigma(w)|w != 0),
    so walking the fixed points in class order gives each coefficient of
    sigma(u) sigma(v) by one exact division:
    c_w = (sigma(u)|w sigma(v)|w - sum of c_x sigma(x)|w over x found) / sigma(w)|w.
    The numerator folds into one term map by ``polyring.add_product_into``
    and becomes a polynomial once, by ``finish_terms``.  The divisor
    sigma(w)|w is ``own_restriction(w)``, the value the restriction walk
    seeds w's point with: the product of the linear forms ``_own_weights``
    of that point, so the division runs form by form on the linear path.
    """
    classes = enumerate_classes(ctx)
    points = [pt.subset for pt in fixed_points(ctx)]
    sigma = restriction_table(ctx, "schubert").entries
    weights = {w.parts: _own_weights(ctx, pt) for w, pt in zip(classes, points)}
    out = {}
    for i, u in enumerate(classes):
        for v in classes[i:]:
            found = []
            for w, pt in zip(classes, points):
                if w.size > u.size + v.size:
                    break
                # every x found so far contains u and v, so vanishes where they do
                a, b = sigma[(u.parts, pt)], sigma[(v.parts, pt)]
                if a.is_zero or b.is_zero:
                    continue
                terms = {}
                add_product_into(terms, a, b)
                for x, c in found:
                    add_product_into(terms, c, sigma[(x, pt)], -1)
                c = finish_terms(ctx.r, terms)
                if c.is_zero:
                    continue
                key = (u.parts, v.parts, w.parts)
                for f in weights[w.parts]:
                    c = c.divide_exact(f)
                    if c is None:
                        raise NonPolynomialError(
                            "inexact restriction expansion at %r" % (key,)
                        )
                found.append((w.parts, c))
                out[key] = c
    return out


# -- GKM consistency ----------------------------------------------------------


def gkm_edges(ctx):
    """Pairs of fixed points differing by one transposition, with the
    primitive weight of the connecting invariant curve."""
    points = fixed_points(ctx)
    out = []
    for i, p in enumerate(points):
        for q in points[i + 1 :]:
            diff = set(p.subset) ^ set(q.subset)
            if len(diff) == 2:
                a, b = sorted(diff)
                out.append((p, q, b_difference(ctx, b, a)))
    return out


def gkm_violations(ctx, family):
    """Edges where a restriction difference is not divisible by the weight,
    both in y."""
    table = restriction_table(ctx, family)
    edges = gkm_edges(ctx)
    bad = []
    for p in enumerate_classes(ctx):
        for pt1, pt2, weight in edges:
            diff = table.restriction(p, pt1) - table.restriction(p, pt2)
            if diff.is_zero:
                continue
            if diff.divide_exact(weight) is None:
                bad.append((p.parts, pt1.subset, pt2.subset))
    return bad
