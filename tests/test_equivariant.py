from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqschubert import (
    FixedPoint,
    GrassContext,
    NonPolynomialError,
    Polynomial,
    elr,
    enumerate_classes,
    fixed_points,
    integrate,
    pairing,
    point_of,
    restrict_schubert,
    restriction_table,
    tangent_weights,
)
import eqschubert.equivariant as equivariant_mod
import eqschubert.quantum as quantum_mod
import eqschubert.render as render_mod
from eqschubert.equivariant import (
    _euler_factors,
    _own_weights,
    b_difference,
    divisor_restriction,
    elr_table,
    gkm_violations,
)
from eqschubert.grass import partition_from_permutation
from eqschubert.polyring import (
    RationalExpression,
    _normalize_linear,
    _rational,
    add_product_into,
    finish_terms,
    shared_zero,
    y_to_x,
)
from eqschubert.suites import verify_specialization

from conftest import divide_heap, homogeneous_of_degree, part
from reference_oracles import _b_forms_x, factorial_schur_zpoly, lr_tableau


def x(ctx, i):
    return Polynomial.variable(ctx.r, i)


def test_fixed_point_dictionary(gr24):
    assert point_of(part(gr24)).subset == (1, 2)
    assert point_of(part(gr24, 2, 2)).subset == (3, 4)
    assert point_of(part(gr24, 2, 1)).subset == (2, 4)
    for p in enumerate_classes(gr24):
        assert partition_from_permutation(gr24, point_of(p).subset) == p
    # a repeated member, or one that is not an int (a bool is not one)
    for subset in ((1, 1), (1.5, 2), (True, 2), (1, 2.0), ("a", "b"), (1, "b"), (None, 2)):
        with pytest.raises(ValueError):
            FixedPoint(subset, gr24)


def test_fixed_point_is_a_value(gr24, gr25):
    a, b = FixedPoint((3, 1), gr24), FixedPoint([1, 3], gr24)
    assert a == b and hash(a) == hash(b) and a.subset == (1, 3)
    assert a != FixedPoint((1, 3), gr25) and a != FixedPoint((1, 2), gr24)
    assert a != (1, 3) and a != ((1, 3), gr24)
    assert repr(a) == "FixedPoint([1, 3])"
    with pytest.raises(AttributeError):
        a.subset = (1, 2)
    with pytest.raises(AttributeError):
        a.ctx = gr25
    assert a.subset == (1, 3) and a.ctx is gr24


def test_tangent_weights_p1(gr12):
    w1 = tangent_weights(FixedPoint((1,), gr12))
    w2 = tangent_weights(FixedPoint((2,), gr12))
    assert w1 == [-x(gr12, 1)]
    assert w2 == [x(gr12, 1)]


def test_tangent_weight_count(gr24, gr36):
    for ctx in (gr24, gr36):
        for pt in fixed_points(ctx):
            weights = tangent_weights(pt)
            assert len(weights) == ctx.dim
            assert all(homogeneous_of_degree(w, 1) for w in weights)


def test_unit_restricts_to_one(gr12, gr24, gr25):
    for ctx in (gr12, gr24, gr25):
        unit = part(ctx)
        for pt in fixed_points(ctx):
            assert restrict_schubert(unit, pt) == Polynomial.const(ctx.r, 1)


def test_restriction_support(gr24, gr25, gr36):
    for ctx in (gr24, gr25, gr36):
        for p in enumerate_classes(ctx):
            for pt in fixed_points(ctx):
                value = restrict_schubert(p, pt)
                if not partition_from_permutation(ctx, pt.subset).contains(p):
                    assert value.is_zero
                else:
                    assert not value.is_zero
                    assert homogeneous_of_degree(value, p.size)


def test_restrictions_match_the_factorial_schur_oracle():
    # sigma(a)|S is the factorial Schur polynomial of a, from its tableau
    # formula in reference_oracles, at z = (b_s for s in S), in x
    for k in (1, 2, 3):
        for n in range(k + 1, 7):
            ctx = GrassContext(k, n)
            b = _b_forms_x(ctx)
            one = Polynomial.const(ctx.r, 1)
            for p in enumerate_classes(ctx):
                zpoly = factorial_schur_zpoly(ctx, p.parts)
                for pt in fixed_points(ctx):
                    z = [b[s - 1] for s in pt.subset]
                    expected = Polynomial.zero(ctx.r)
                    for exps, coeff in zpoly.items():
                        expected = expected + coeff * prod(map(pow, z, exps), start=one)
                    assert y_to_x(restrict_schubert(p, pt)) == expected, (p, pt)


def test_divisor_closed_form_is_the_chevalley_diagonal(gr25, gr36):
    # c_S = sum of b_{s_i} - b_i against the Atiyah-Bott sum of
    # sigma(1) sigma(a) on sigma(a)
    for ctx in (gr25, gr36):
        one_box = part(ctx, 1)
        for a in enumerate_classes(ctx):
            c_s = divisor_restriction(ctx, point_of(a).subset)
            assert y_to_x(c_s) == elr(one_box, a, a)


def test_inexact_chevalley_division_raises(gr24, cold_state, monkeypatch):
    monkeypatch.setattr(Polynomial, "divide_exact", lambda self, divisor: None)
    with pytest.raises(NonPolynomialError, match="inexact Chevalley step"):
        restrict_schubert(part(gr24, 1), FixedPoint((2, 4), gr24))


def test_a_doubled_seed_fails_the_unit_row(gr24, cold_state, monkeypatch):
    own = equivariant_mod.own_restriction
    monkeypatch.setattr(equivariant_mod, "own_restriction", lambda p: own(p) + own(p))
    with pytest.raises(NonPolynomialError, match="unit or divisor row"):
        restrict_schubert(part(gr24, 1), FixedPoint((2, 4), gr24))


def test_restriction_at_own_point_is_normal_weight_product(gr12, gr24):
    # The class of a fixed point restricts there to the product of the
    # normal directions; for the top point those are all tangent weights.
    one = part(gr12, 1)
    assert restrict_schubert(one, point_of(one)) == x(gr12, 1)
    for ctx in (gr12, gr24):
        top = part(ctx).dual()
        pt = point_of(top)
        product = Polynomial.const(ctx.r, 1)
        for w in tangent_weights(pt):
            product = product * w
        assert restrict_schubert(top, pt) == product


def test_own_point_restriction_is_the_weight_product(gr24, gr25, gr36):
    # elr_table divides by these forms one at a time
    for ctx in (gr24, gr25, gr36):
        for p in enumerate_classes(ctx):
            pt = point_of(p)
            forms = _own_weights(ctx, pt.subset)
            assert len(forms) == p.size
            product = Polynomial.const(ctx.r, 1)
            for f in forms:
                assert f.degree() == 1
                product = product * f
            assert restrict_schubert(p, pt) == product


def test_known_restriction_values(gr24):
    # restrictions are in y; y_to_x is a ring isomorphism, so pinning the
    # x images pins the values
    # s(2,1) at its own staircase point {2,4}: x1*x3*(x1+x2+x3).
    value = restrict_schubert(part(gr24, 2, 1), point_of(part(gr24, 2, 1)))
    assert y_to_x(value) == x(gr24, 1) * x(gr24, 3) * (x(gr24, 1) + x(gr24, 2) + x(gr24, 3))
    # the divisor class at the top point: x1 + 2*x2 + x3
    value = restrict_schubert(part(gr24, 1), point_of(part(gr24, 2, 2)))
    assert y_to_x(value) == x(gr24, 1) + 2 * x(gr24, 2) + x(gr24, 3)


def test_opposite_family_support(gr24):
    table = restriction_table(gr24, "opposite")
    for p in enumerate_classes(gr24):
        for pt in fixed_points(gr24):
            value = table.restriction(p, pt)
            if partition_from_permutation(gr24, pt.subset).dual().contains(p):
                assert not value.is_zero
            else:
                assert value.is_zero


def test_gkm_consistency_small(gr12, gr24):
    for ctx in (gr12, gr24):
        assert gkm_violations(ctx, "schubert") == []
        assert gkm_violations(ctx, "opposite") == []


def test_restriction_table_takes_its_family(gr24):
    # a default family would make restriction_table(ctx) a second store
    # key, and a second build, of the Schubert table
    with pytest.raises(TypeError):
        restriction_table(gr24)
    assert restriction_table(gr24, "schubert") is restriction_table(gr24, "schubert")
    # and so do the readers of a table
    with pytest.raises(TypeError):
        gkm_violations(gr24)
    with pytest.raises(TypeError):
        render_mod.restriction_table_json(gr24)


@pytest.mark.parametrize("k, n", [(2, 4), (3, 6)])
def test_opposite_zeros_are_the_shared_zero(k, n):
    # the involution of a zero is a zero, so it is not run on one
    ctx = GrassContext(k, n)
    zeros = [v for v in restriction_table(ctx, "opposite").entries.values() if v.is_zero]
    assert zeros and all(v is shared_zero(ctx.r) for v in zeros)


def test_integrate_point_class(gr24):
    table = restriction_table(gr24, "schubert")
    top = part(gr24, 2, 2)
    values = {pt: (table.restriction(top, pt),) for pt in fixed_points(gr24)}
    assert integrate(gr24, values) == Polynomial.const(gr24.r, 1)


def test_integrate_unit_vanishes(gr24, gr12):
    for ctx in (gr24, gr12):
        one = Polynomial.const(ctx.r, 1)
        assert integrate(ctx, dict.fromkeys(fixed_points(ctx), (one,))).is_zero


def test_integrate_rejects_inconsistent_table(gr12):
    values = {
        FixedPoint((1,), gr12): (Polynomial.const(gr12.r, 1),),
        FixedPoint((2,), gr12): (Polynomial.const(gr12.r, 2),),
    }
    with pytest.raises(NonPolynomialError):
        integrate(gr12, values)


def test_integrate_sigma_times_opposite(gr12):
    sigma = restriction_table(gr12, "schubert")
    tilde = restriction_table(gr12, "opposite")
    one = part(gr12, 1)
    values = {
        pt: (sigma.restriction(one, pt) * tilde.restriction(one, pt),)
        for pt in fixed_points(gr12)
    }
    assert integrate(gr12, values).is_zero


def test_pairing_examples(gr24, gr12):
    one = Polynomial.const(gr24.r, 1)
    assert pairing(part(gr24, 1), part(gr24, 2, 1)) == one
    assert pairing(part(gr24, 1), part(gr24, 1, 1)).is_zero
    assert pairing(part(gr12), part(gr12, 1)) == Polynomial.const(gr12.r, 1)


def test_pairing_delta(gr24):
    one = Polynomial.const(gr24.r, 1)
    for u in enumerate_classes(gr24):
        for v in enumerate_classes(gr24):
            expected = one if u == v.dual() else Polynomial.zero(gr24.r)
            assert pairing(u, v) == expected


def test_elr_examples(gr24):
    assert elr(part(gr24, 1), part(gr24, 1), part(gr24, 2)) == Polynomial.const(
        gr24.r, 1
    )
    # the diagonal divisor coefficient, pinned by the expansion oracle
    assert elr(part(gr24, 1), part(gr24, 1), part(gr24, 1)) == x(gr24, 2)


def _every_point_elr(u, v, w):
    """elr as the plain Atiyah-Bott sum: all three restrictions multiplied
    at every fixed point."""
    ctx = u.ctx
    sigma = restriction_table(ctx, "schubert")
    values = {
        pt: (
            sigma.restriction(u, pt)
            * sigma.restriction(v, pt)
            * restrict_schubert(w.dual(), pt, "opposite"),
        )
        for pt in fixed_points(ctx)
    }
    return y_to_x(integrate(ctx, values))


@pytest.mark.parametrize("k, n", [(2, 4), (2, 5)])
def test_elr_restricts_only_on_its_interval(k, n, cold_state, monkeypatch):
    ctx = GrassContext(k, n)
    classes = enumerate_classes(ctx)
    restriction_table(ctx, "schubert")
    restricted = []
    restrict = equivariant_mod.restrict_schubert

    def recorded(p, point, family="schubert"):
        restricted.append((p, point))
        return restrict(p, point, family)

    monkeypatch.setattr(equivariant_mod, "restrict_schubert", recorded)
    # elr is memoized, so cold_state's cold memo makes every call restrict
    for u in classes:
        for v in classes:
            for w in classes:
                del restricted[:]
                value = elr(u, v, w)
                # the opposite class of w is restricted exactly on the
                # points p with u, v inside p and p inside w
                interval = [
                    point_of(p)
                    for p in classes
                    if w.contains(p) and p.contains(u) and p.contains(v)
                ]
                if u.size + v.size < w.size:
                    interval = []
                assert restricted == [(w.dual(), pt) for pt in interval]
                assert value == _every_point_elr(u, v, w), (u, v, w)


@pytest.mark.parametrize("k, n", [(2, 4), (2, 5), (3, 5), (2, 6), (3, 6)])
def test_euler_factors_are_the_normalized_tangent_weights(k, n):
    for point in fixed_points(GrassContext(k, n)):
        factors, sign = _euler_factors(point)
        normalized = [_normalize_linear(f) for f in tangent_weights(point)]
        assert list(factors.items()) == [(f, 1) for f, _ in normalized]
        assert sign == prod(s for _, s in normalized)


def test_elr_unit(gr24):
    for v in enumerate_classes(gr24):
        for w in enumerate_classes(gr24):
            value = elr(part(gr24), v, w)
            if v == w:
                assert value == Polynomial.const(gr24.r, 1)
            else:
                assert value.is_zero


def test_elr_grading_positivity_and_classical_limit(gr24):
    for u in enumerate_classes(gr24):
        for v in enumerate_classes(gr24):
            for w in enumerate_classes(gr24):
                value = elr(u, v, w)
                assert homogeneous_of_degree(value, u.size + v.size - w.size)
                assert min(value.terms.values(), default=0) >= 0
                assert value.constant_term() == lr_tableau(u, v, w)


def test_elr_table_matches_atiyah_bott_per_triple(gr12, gr24, gr25):
    # the triangular expansion, in y, against the per-triple localization
    # sum, which elr returns in x
    for ctx in (gr12, gr24, gr25):
        classes = enumerate_classes(ctx)
        expected = {}
        for i, u in enumerate(classes):
            for v in classes[i:]:
                for w in classes:
                    value = elr(u, v, w)
                    if not value.is_zero:
                        expected[(u.parts, v.parts, w.parts)] = value
        assert {key: y_to_x(c) for key, c in elr_table(ctx).items()} == expected


def plain_elr_table(ctx):
    """``elr_table`` without its own-weight divisors: each numerator is
    divided by the restriction sigma(w)|w as one polynomial, by the tests'
    heap division, where ``elr_table`` divides by the linear forms
    ``_own_weights`` one by one."""
    classes = enumerate_classes(ctx)
    points = [pt.subset for pt in fixed_points(ctx)]
    sigma = restriction_table(ctx, "schubert").entries
    out = {}
    for i, u in enumerate(classes):
        for v in classes[i:]:
            found = []
            for w, pt in zip(classes, points):
                if w.size > u.size + v.size:
                    break
                a, b = sigma[(u.parts, pt)], sigma[(v.parts, pt)]
                if a.is_zero or b.is_zero:
                    continue
                rest = {}
                add_product_into(rest, a, b)
                for y, c in found:
                    add_product_into(rest, c, sigma[(y, pt)], -1)
                c = finish_terms(ctx.r, rest)
                if not c.is_zero:
                    c = divide_heap(c, sigma[(w.parts, pt)])
                    found.append((w.parts, c))
                    out[(u.parts, v.parts, w.parts)] = c
    return out


def test_elr_table_matches_the_plain_triangular_expansion(gr12, gr24, gr25, gr36):
    for ctx in (gr12, gr24, gr25, gr36):
        assert elr_table(ctx) == plain_elr_table(ctx)


def test_a_corrupted_restriction_fails_the_specialization(gr25, cold_state, monkeypatch):
    # The engine's table is walked first, so only elr_table reads the
    # corrupted entry.  Adding the top class's own restriction keeps every
    # division exact, so the top coefficients come out wrong, not inexact.
    classes = enumerate_classes(gr25)
    table = quantum_mod.eq_table(gr25)
    for u in classes:
        for v in classes:
            table.element(u, v)
    top = classes[-1]
    pt = point_of(top).subset
    entries = restriction_table(gr25, "schubert").entries
    key = (part(gr25, 3, 1).parts, pt)
    assert pt != point_of(part(gr25, 3, 1)).subset and not entries[key].is_zero
    monkeypatch.setitem(entries, key, entries[key] + entries[(top.parts, pt)])
    report = verify_specialization(gr25)
    assert not report["passed"]
    assert {v["kind"] for v in report["violations"]} == {"equivariant"}
    assert all(v["w"] == list(top.parts) for v in report["violations"])


def test_edge_weights_are_b_differences(gr24):
    weights = tangent_weights(point_of(part(gr24, 2, 1)))
    assert b_difference(gr24, 2, 1) in weights
    assert b_difference(gr24, 3, 4) not in weights


def _product_then_reduce(ctx, factors):
    """integrate by multiplying each point's factors out first and then
    reducing the product by the point's normalized Euler class, the route
    the factor-wise one replaced."""
    acc = RationalExpression(Polynomial.zero(ctx.r))
    for point in fixed_points(ctx):
        if point not in factors:
            continue
        value = prod(factors[point], start=Polynomial.const(ctx.r, 1))
        if value.is_zero:
            continue
        forms, sign = _euler_factors(point)
        acc = acc.add(_rational(sign * value, forms).reduced())
    return acc.expect_polynomial()


def _outcome(route, ctx, factors):
    try:
        return route(ctx, factors)
    except NonPolynomialError as exc:
        return ("NonPolynomialError", str(exc))


FACTOR_CONTEXTS = [GrassContext(2, 4), GrassContext(2, 5), GrassContext(3, 6)]
FAMILIES = ("schubert", "opposite")


@st.composite
def factor_tables(draw):
    """A context and, per fixed point, a tuple of restrictions: the same
    one to three classes at every point, some points left out and up to two
    factors replaced, so both consistent and inconsistent tables come up."""
    ctx = draw(st.sampled_from(FACTOR_CONTEXTS))
    classes, points = enumerate_classes(ctx), fixed_points(ctx)
    picks = st.tuples(st.sampled_from(classes), st.sampled_from(FAMILIES))
    chosen = draw(st.lists(picks, min_size=1, max_size=3))
    left_out = draw(st.sets(st.sampled_from(points), max_size=2))
    plants = draw(
        st.lists(
            st.tuples(st.sampled_from(points), st.integers(0, len(chosen) - 1), picks),
            max_size=2,
        )
    )

    def value(pick, pt):
        c, family = pick
        return restriction_table(ctx, family).restriction(c, pt)

    table = {pt: [value(pick, pt) for pick in chosen] for pt in points if pt not in left_out}
    for pt, i, pick in plants:
        if pt in table:
            table[pt][i] = value(pick, pt)
    return ctx, {pt: tuple(values) for pt, values in table.items()}


@settings(max_examples=150, deadline=None)
@given(factor_tables())
def test_integrate_factor_by_factor_matches_the_product_route(drawn):
    ctx, factors = drawn
    got = _outcome(integrate, ctx, factors)
    assert got == _outcome(_product_then_reduce, ctx, factors)


@pytest.mark.parametrize("k, n", [(2, 4), (2, 5)])
def test_pairing_restricts_only_on_its_support(k, n, monkeypatch):
    ctx = GrassContext(k, n)
    classes = enumerate_classes(ctx)
    sigma = restriction_table(ctx, "schubert").entries
    tilde = restriction_table(ctx, "opposite").entries
    restricted = []
    restriction = equivariant_mod.RestrictionTable.restriction

    def recorded(self, p, point):
        restricted.append((self.family, p, point))
        return restriction(self, p, point)

    monkeypatch.setattr(equivariant_mod.RestrictionTable, "restriction", recorded)
    for u in classes:
        for v in classes:
            every_point = {
                pt: (sigma[(u.parts, pt.subset)] * tilde[(v.parts, pt.subset)],)
                for pt in fixed_points(ctx)
            }
            expected = y_to_x(integrate(ctx, every_point))
            del restricted[:]
            assert pairing(u, v) == expected, (u, v)
            # both classes are restricted exactly on the points p with u
            # inside p and p inside v dual
            support = [point_of(p) for p in classes if p.contains(u) and v.dual().contains(p)]
            assert restricted == [
                (family, c, pt) for pt in support for family, c in zip(FAMILIES, (u, v))
            ]
