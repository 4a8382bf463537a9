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
    assert p.is_homogeneous_of_degree(2)
    assert not any((p + x(1)).is_homogeneous_of_degree(d) for d in (1, 2))
    assert Polynomial.zero(NVARS).is_homogeneous_of_degree(7)


def test_divide_exact():
    p = (x(1) + x(2)) * (x(2) + 2 * x(3)) * 3
    assert p.divide_exact(x(1) + x(2)) == 3 * (x(2) + 2 * x(3))
    assert p.divide_exact(3) == (x(1) + x(2)) * (x(2) + 2 * x(3))
    assert p.divide_exact(x(1) + x(3)) is None
    assert p.divide_exact(2) is None


def test_exponents_stay_below_the_guard_bit():
    top = 2**15 - 1
    assert Polynomial.from_exponents(1, [((top,), 1)]).coefficient((top,)) == 1
    with pytest.raises(OverflowError):
        Polynomial.from_exponents(1, [((2**15,), 1)])


def test_products_stay_below_the_guard_bit():
    x1 = Polynomial.variable(1, 1)
    half = x1 ** 2**14
    with pytest.raises(OverflowError):
        half * half
    with pytest.raises(OverflowError):
        half**2
    with pytest.raises(OverflowError):
        x(3) ** 2**15
    top = x1 ** (2**15 - 1)
    assert top.divide_exact(x1) == x1 ** (2**15 - 2)
    assert (x1 ** 2**14 * x1 ** (2**14 - 1)) == top


def linear_forms(nvars=NVARS):
    return st.lists(st.integers(-3, 3), min_size=nvars, max_size=nvars).filter(any).map(
        lambda coeffs: Polynomial.linear(nvars, coeffs)
    )


@settings(max_examples=150, deadline=None)
@given(polys(), polys().filter(lambda b: not b.is_zero), linear_forms())
def test_divide_exact_against_products(a, b, ell):
    assert (a * b).divide_exact(b) == a
    assert (a * ell + 1).divide_exact(ell) is None


def test_divide_exact_at_the_lane_edges():
    top = 2**15 - 1
    p = Polynomial.from_exponents(2, [((top, 1), 3), ((top - 1, 2), 3)])
    x1, x2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
    assert p.divide_exact(x1 + x2) == Polynomial.from_exponents(2, [((top - 1, 1), 3)])
    assert p.divide_exact(x1**top) is None
    assert (p * x2).divide_exact(p) == x2
    # x2**3 has a zero lane where the divisor's leading monomial x1 has a one
    assert (x2**3).divide_exact(x1 + x2) is None
    assert (x(2) ** 2 * x(3)).divide_exact(x(1)) is None


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


def linear_factors():
    # a small pool, so that operands share factors and cancel against each other
    pool = [x(1), x(2), x(1) - x(2), x(1) + x(2) + x(3), -2 * x(3), 3 * x(2) - 3 * x(1)]
    return st.lists(st.sampled_from(pool), max_size=3)


def rationals():
    numerator = st.builds(
        lambda p, fs, c: p * c if not fs else p * fs[0] * c,
        polys(max_terms=3, max_exp=2),
        linear_factors(),
        st.integers(1, 6),
    )
    return st.builds(
        lambda num, fs, s: RationalExpression(num, fs, s).reduced(),
        numerator,
        linear_factors(),
        st.sampled_from([1, 2, 3, 4, 6]),
    )


@settings(max_examples=150, deadline=None)
@given(rationals(), rationals())
def test_mul_matches_the_full_reduction(a, b):
    everything = [f for r in (b, a) for f, m in r.factors.items() for _ in range(m)]
    full = RationalExpression(
        a.numerator * b.numerator, everything, a.scale * b.scale
    ).reduced()
    product = a.mul(b)
    assert product.numerator == full.numerator
    assert product.scale == full.scale
    # the same multiplicities in the same, argument-first, order
    assert list(product.factors.items()) == list(full.factors.items())


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
