import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqschubert import (
    DimensionMismatchError,
    NonPolynomialError,
    Polynomial,
    RationalExpression,
    express_in_T_differences,
    is_x_nonnegative,
    to_T_variables,
)

NVARS = 3


def x(i, nvars=NVARS):
    return Polynomial.variable(nvars, i)


def polys(nvars=NVARS, max_terms=5, max_exp=3, max_coeff=9):
    term = st.tuples(
        st.lists(st.integers(0, max_exp), min_size=nvars, max_size=nvars),
        st.integers(-max_coeff, max_coeff),
    )
    return st.lists(term, max_size=max_terms).map(
        lambda items: Polynomial.from_exponents(nvars, ((tuple(e), c) for e, c in items))
    )


def test_add_examples():
    assert x(1) + (-x(1)) == Polynomial.zero(NVARS)
    assert (x(1) + x(2)) + x(2) == x(1) + 2 * x(2)
    with pytest.raises(DimensionMismatchError):
        x(1) + Polynomial.variable(2, 1)


def test_mul_examples():
    assert x(1) * x(2) == Polynomial.from_exponents(NVARS, [((1, 1, 0), 1)])
    assert (x(1) + x(2)) * (x(1) - x(2)) == x(1) ** 2 - x(2) ** 2
    assert Polynomial.zero(NVARS) * (x(1) + 5) == Polynomial.zero(NVARS)


def test_is_x_nonnegative():
    assert is_x_nonnegative(2 * x(1) * x(2) + x(3))
    assert not is_x_nonnegative(x(1) - x(2))
    assert is_x_nonnegative(Polynomial.zero(NVARS))


@settings(max_examples=150, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=80, deadline=None)
@given(polys(), polys())
def test_nonnegativity_closed_under_product(a, b):
    pos_a = Polynomial(a.nvars, {k: abs(c) for k, c in a.terms.items()})
    pos_b = Polynomial(b.nvars, {k: abs(c) for k, c in b.terms.items()})
    assert is_x_nonnegative(pos_a * pos_b)


def test_homogeneity_tracking():
    p = x(1) * x(2) + x(3) ** 2
    assert p.is_homogeneous() and p.is_homogeneous_of_degree(2)
    assert not (p + x(1)).is_homogeneous()
    assert Polynomial.zero(NVARS).is_homogeneous_of_degree(7)


def test_divide_exact():
    p = (x(1) + x(2)) * (x(2) + 2 * x(3)) * 3
    assert p.divide_exact(x(1) + x(2)) == 3 * (x(2) + 2 * x(3))
    assert p.divide_exact(3) == (x(1) + x(2)) * (x(2) + 2 * x(3))
    assert p.divide_exact(x(1) + x(3)) is None
    assert p.divide_exact(2) is None


def test_to_T_examples():
    T = lambda i: Polynomial.variable(4, i)
    assert to_T_variables(x(1), 4) == T(1) - T(2)
    assert to_T_variables(x(1) + x(2), 4) == T(1) - T(3)
    assert to_T_variables(x(1) * x(2), 4) == (T(1) - T(2)) * (T(2) - T(3))
    with pytest.raises(DimensionMismatchError):
        to_T_variables(x(1), 3)


def test_express_examples():
    T = lambda i: Polynomial.variable(4, i)
    assert express_in_T_differences(T(1) - T(2)) == x(1)
    assert express_in_T_differences(T(1)) is None
    assert (
        express_in_T_differences((T(1) - T(2)) ** 2 + (T(2) - T(3)))
        == x(1) ** 2 + x(2)
    )


@settings(max_examples=100, deadline=None)
@given(polys(), polys())
def test_to_T_is_ring_homomorphism(a, b):
    m = NVARS + 1
    assert to_T_variables(a * b, m) == to_T_variables(a, m) * to_T_variables(b, m)
    assert to_T_variables(a + b, m) == to_T_variables(a, m) + to_T_variables(b, m)


@settings(max_examples=100, deadline=None)
@given(polys())
def test_express_round_trip(p):
    assert express_in_T_differences(to_T_variables(p, NVARS + 1)) == p


def test_rational_examples():
    one = Polynomial.const(NVARS, 1)
    a = RationalExpression(one, (x(1),))
    b = RationalExpression(one, (-x(1),))
    assert a.add(b).is_zero
    c = RationalExpression(x(1), (x(2),))
    d = RationalExpression(x(2), (x(1),))
    assert c.mul(d).expect_polynomial() == one
    e = RationalExpression(x(1) * x(2), (x(1),)).reduced()
    assert e.numerator == x(2) and not e.factors
    # repeated factors are one map entry with a multiplicity
    f = RationalExpression(x(1) ** 2 * x(2), (x(1), x(1))).reduced()
    assert f.numerator == x(2) and not f.factors
    g = a.add(RationalExpression(one, (x(1), x(1))))
    assert g.numerator == x(1) + 1 and g.factors == {x(1): 2}
    h = a.mul(RationalExpression(one, (2 * x(1),)))
    assert h.numerator == one and h.scale == 2 and h.factors == {x(1): 2}


def test_expect_polynomial():
    assert RationalExpression(x(1) ** 2, (x(1),)).expect_polynomial() == x(1)
    with pytest.raises(NonPolynomialError):
        RationalExpression(Polynomial.const(NVARS, 1), (x(1),)).expect_polynomial()
    with pytest.raises(NonPolynomialError):
        RationalExpression(x(1), (), 2).expect_polynomial()


def test_denominator_normalization():
    # 2*(x2 - x1) in the denominator becomes a positive primitive factor
    # with the sign and content folded into the scalar.
    form = 2 * x(2) - 2 * x(1)
    r = RationalExpression(Polynomial.const(NVARS, 4), (form,))
    assert r.scale == 2
    assert r.factors == {x(1) - x(2): 1}
    assert r.numerator == Polynomial.const(NVARS, -4)
