import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eqschubert.polyring as polyring

from eqschubert import (
    DimensionMismatchError,
    NonPolynomialError,
    Polynomial,
    to_T_variables,
)
from eqschubert.polyring import (
    RationalExpression,
    w0_involution,
    y_to_x,
    _key_degree,
    _lane_bytes,
    _pack,
    _shear,
    _shear_chain,
    _unpack,
    _x_columns,
    add_into,
    add_product_into,
    divide_linear,
    finish_terms,
    linear_plan,
)
from eqschubert.render import _x_texts

from conftest import divide_heap, from_exponents, homogeneous_of_degree, of_first_degree

NVARS = 3


def x(i, nvars=NVARS):
    return Polynomial.variable(nvars, i)


def polys(nvars=NVARS, max_terms=5, max_exp=3, max_coeff=9):
    term = st.tuples(
        st.lists(st.integers(0, max_exp), min_size=nvars, max_size=nvars),
        st.integers(-max_coeff, max_coeff),
    )
    return st.lists(term, max_size=max_terms).map(
        lambda items: from_exponents(nvars, ((tuple(e), c) for e, c in items))
    )


def test_add_examples():
    assert x(1) + (-x(1)) == Polynomial.zero(NVARS)
    assert (x(1) + x(2)) + x(2) == x(1) + 2 * x(2)
    with pytest.raises(DimensionMismatchError):
        x(1) + Polynomial.variable(2, 1)
    # an int operand is a constant
    p, one = x(1) - 2 * x(2), Polynomial.const(NVARS, 1)
    assert p + 1 == 1 + p == p + one
    assert p - 1 == p - one


def test_mul_examples():
    assert x(1) * x(2) == from_exponents(NVARS, [((1, 1, 0), 1)])
    assert (x(1) + x(2)) * (x(1) - x(2)) == x(1) ** 2 - x(2) ** 2
    assert Polynomial.zero(NVARS) * (x(1) + 5) == Polynomial.zero(NVARS)
    p = x(1) - 2 * x(2)
    assert 3 * p == p * 3 == p + p + p
    assert p * 0 == 0 * p == Polynomial.zero(NVARS)


@settings(max_examples=150, deadline=None)
@given(st.integers(-(2**70), 2**70), polys())
def test_a_polynomial_equal_to_an_int_hashes_as_it(c, p):
    # a constant equals its int, zero included, so sets and dicts find it by
    # that int; an equal copy of any polynomial hashes as the original
    const = Polynomial.const(NVARS, c)
    assert const == c and hash(const) == hash(c)
    assert len({const, c}) == 1 and {c: "c"}.get(const) == "c"
    assert hash(Polynomial(NVARS, dict(p.terms))) == hash(p)


@settings(max_examples=150, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize(
    "expression",
    ["p + 1.5", "1.5 + p", "p - 1.5", "1.5 - p", "p * 0.5", "0.5 * p", "p + '1'", "p * None"]
    # a bool is no int operand
    + ["p + True", "True + p", "p - True", "p * True", "False * p"]
    # an int is taken on the right of - only
    + ["1 - p"],
)
def test_an_operand_of_another_type_raises_type_error(expression):
    with pytest.raises(TypeError):
        eval(expression, {"p": x(1) + 2 * x(3)})


@pytest.mark.parametrize(
    "value",
    [1.5, 2.0, True, False, "1", None],
    ids=["float", "integral-float", "true", "false", "str", "none"],
)
def test_const_and_variable_take_an_int_only(value):
    # a float coefficient was stored, and variable(3, 1.5) was the constant 1
    with pytest.raises(TypeError):
        Polynomial.const(NVARS, value)
    with pytest.raises(TypeError):
        Polynomial.variable(NVARS, value)


@settings(max_examples=80, deadline=None)
@given(polys(), polys())
def test_nonnegativity_closed_under_product(a, b):
    pos_a = Polynomial(a.nvars, {k: abs(c) for k, c in a.terms.items()})
    pos_b = Polynomial(b.nvars, {k: abs(c) for k, c in b.terms.items()})
    assert min((pos_a * pos_b).terms.values(), default=0) >= 0


def test_homogeneity_tracking():
    p = x(1) * x(2) + x(3) ** 2
    assert homogeneous_of_degree(p, 2)
    assert not any(homogeneous_of_degree(p + x(1), d) for d in (1, 2))
    assert homogeneous_of_degree(Polynomial.zero(NVARS), 7)


def test_divide_exact():
    p = (x(1) + x(2)) * (x(2) + 2 * x(3)) * 3
    assert p.divide_exact(x(1) + x(2)) == 3 * (x(2) + 2 * x(3))
    assert p.divide_exact(Polynomial.const(NVARS, 3)) == (x(1) + x(2)) * (x(2) + 2 * x(3))
    assert p.divide_exact(x(1) + x(3)) is None
    assert p.divide_exact(Polynomial.const(NVARS, 2)) is None
    assert p.divide_exact(Polynomial.const(NVARS, -3) * x(2)) is None
    # the lead coefficient 2 does not divide 3, though the floor quotient
    # would leave no remainder
    assert (3 * x(1) + 2 * x(2)).divide_exact(2 * x(1) + 2 * x(2)) is None
    assert (p * x(2)).divide_exact(-3 * x(2)) == -p.divide_exact(Polynomial.const(NVARS, 3))


def test_divide_exact_takes_a_monomial_or_a_linear_form():
    # the engine's divisors are tangent weights and gaps c_w - c_a, divided
    # one form at a time; any other divisor is refused, not divided
    p = (x(1) + x(2)) * (x(1) * x(3) + x(2))
    for dividend in (p, Polynomial.zero(NVARS)):
        for divisor in (x(1) * x(3) + x(2), x(1) + 1, x(1) ** 2 - x(2) ** 2):
            with pytest.raises(ValueError):
                dividend.divide_exact(divisor)
        for divisor in (3, 1, 1.5, None):
            with pytest.raises(TypeError):
                dividend.divide_exact(divisor)
        with pytest.raises(ZeroDivisionError):
            dividend.divide_exact(Polynomial.zero(NVARS))
    assert Polynomial.zero(NVARS).divide_exact(x(1) - x(2)) == 0
    assert Polynomial.zero(NVARS).divide_exact(x(2)) == 0


def test_exponents_stay_below_the_guard_bit():
    top = 2**15 - 1
    assert from_exponents(1, [((top,), 1)]).terms == {_pack((top,)): 1}
    with pytest.raises(OverflowError):
        from_exponents(1, [((2**15,), 1)])


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


def test_fused_products_stay_below_the_guard_bit():
    half = Polynomial.variable(1, 1) ** 2**14
    terms = {}
    add_product_into(terms, half, half)
    with pytest.raises(OverflowError):
        finish_terms(1, terms)
    # a product that reaches the cap exactly is a polynomial
    terms = {}
    add_product_into(terms, half, Polynomial.variable(1, 1) ** (2**14 - 1), -1)
    assert finish_terms(1, terms) == -Polynomial.variable(1, 1) ** (2**15 - 1)
    # past the cap in any one lane, also when a later product of the sum
    # passes it and an earlier one does not
    for nvars in (1, 2, 5):
        for i in range(1, nvars + 1):
            x = Polynomial.variable(nvars, i)
            a, b = x ** 2**14, x ** (2**14 - 1)
            for pairs in ([(a, a, 1)], [(b, b, 1), (a, x ** (2**14 + 1), -1)]):
                terms = {}
                for p, q, sign in pairs:
                    add_product_into(terms, p, q, sign)
                with pytest.raises(OverflowError):
                    finish_terms(nvars, terms)


@settings(max_examples=150, deadline=None)
@given(polys(), polys(), polys(), st.sampled_from([1, -1]))
@example(x(1) + x(2), x(1) - x(2), x(1) + x(2), -1)
def test_add_product_into_matches_add_into_of_the_product(start, a, b, sign):
    fused = dict(start.terms)
    add_product_into(fused, a, b, sign)
    plain = dict(start.terms)
    add_into(plain, a * b, sign)
    assert finish_terms(NVARS, fused) == Polynomial(NVARS, plain)


def linear(nvars, coeffs):
    """The linear form sum(coeffs[i] * x_{i+1})."""
    return sum((c * x(i + 1, nvars) for i, c in enumerate(coeffs)), Polynomial.zero(nvars))


def linear_forms(nvars=NVARS):
    return st.lists(st.integers(-3, 3), min_size=nvars, max_size=nvars).filter(any).map(
        lambda coeffs: linear(nvars, coeffs)
    )


def monomials(nvars=NVARS, max_exp=3, max_coeff=9):
    return st.builds(
        lambda e, c: from_exponents(nvars, [(tuple(e), c)]),
        st.lists(st.integers(0, max_exp), min_size=nvars, max_size=nvars),
        st.integers(1, max_coeff) | st.integers(-max_coeff, -1),
    )


@settings(max_examples=150, deadline=None)
@given(polys(), st.one_of(monomials(), linear_forms()), linear_forms())
@example(3 * x(1) - x(2), Polynomial.const(NVARS, -2), x(1) - x(3))
def test_divide_exact_against_products(a, b, ell):
    assert (a * b).divide_exact(b) == a
    assert (a * ell + 1).divide_exact(ell) is None
    ((key, c), *_) = b.terms.items()
    if len(b.terms) == 1 and abs(c) > 1:
        # a term whose coefficient the divisor's does not divide
        assert (a * b + Polynomial(NVARS, {key: 1})).divide_exact(b) is None
    if len(b.terms) == 1 and key:
        # a term whose key does not clear the divisor's
        assert (a * b + 1).divide_exact(b) is None


def test_divide_exact_at_the_lane_edges():
    top = 2**15 - 1
    p = from_exponents(2, [((top, 1), 3), ((top - 1, 2), 3)])
    x1, x2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
    assert p.divide_exact(x1 + x2) == from_exponents(2, [((top - 1, 1), 3)])
    assert p.divide_exact(x1**top) is None
    assert (p * x2).divide_exact(x1 ** (top - 1) * x2**2) == 3 * (x1 + x2)
    assert (p * x2).divide_exact(x1**top * x2**3) is None
    # x2**3 has a zero lane where the divisor's leading monomial x1 has a one
    assert (x2**3).divide_exact(x1 + x2) is None
    assert (x(2) ** 2 * x(3)).divide_exact(x(1)) is None


def offset_linear_forms(nvars=4):
    # lead variable x_j with j >= 2: x_1..x_{j-1} ride along as passengers
    def form(j, lead, rest):
        return linear(nvars, [0] * (j - 1) + [lead] + rest)

    return st.integers(2, nvars).flatmap(
        lambda j: st.builds(
            form,
            st.just(j),
            st.sampled_from([-3, -2, -1, 1, 2, 3]),
            st.lists(st.integers(-3, 3), min_size=nvars - j, max_size=nvars - j),
        )
    )


@settings(max_examples=200, deadline=None)
@given(polys(nvars=4), offset_linear_forms(), polys(nvars=4, max_terms=2))
@example(
    (x(1, 4) + 2 * x(3, 4)) ** 2,
    2 * x(2, 4) - 3 * x(4, 4),
    Polynomial.zero(4),
)
def test_linear_division_matches_the_heap(a, ell, m):
    product = a * ell
    assert product.divide_exact(ell) == a
    if not product.is_zero:
        assert divide_linear(4, ((product, 1),), linear_plan(ell)) == a
    # the kernels take a nonzero dividend
    dividend = product + m
    if not dividend.is_zero:
        expected = divide_heap(dividend, ell)
        assert dividend.divide_exact(ell) == expected
        assert divide_linear(4, ((dividend, 1),), linear_plan(ell)) == expected


def planned_forms(nvars=4):
    # lead x_j for any j, lead coefficient +-1 or |lc| > 1, a tail of 0..3 terms
    def form(j, lead, rest):
        return linear(nvars, [0] * (j - 1) + [lead] + rest)

    return st.integers(1, nvars).flatmap(
        lambda j: st.builds(
            form,
            st.just(j),
            st.sampled_from([-3, -2, -1, 1, 2, 3]),
            st.lists(st.integers(-2, 2), min_size=nvars - j, max_size=nvars - j),
        )
    )


@st.composite
def signed_lists(draw, nvars=4):
    """(parts, ell, quotient): signed parts that sum to quotient * ell plus a
    drawn remainder (quotient None unless the remainder is zero), their
    terms spread over parts that cancel each other in part."""
    ell = draw(planned_forms(nvars))
    a = draw(polys(nvars=nvars))
    rest = draw(polys(nvars=nvars, max_terms=2))
    extras = draw(st.lists(st.tuples(polys(nvars=nvars), st.sampled_from([1, -1])), max_size=3))
    total = a * ell + rest
    last = draw(st.sampled_from([1, -1]))
    for p, sign in extras:
        total = total - p * sign
    parts = extras + [(total * last, last)]
    if draw(st.booleans()):
        # a part and its cancelling twin
        parts += [(a, 1), (a, -1)]
    return parts, ell, a if rest.is_zero else None


@settings(max_examples=300, deadline=None)
@given(signed_lists())
@example(([(x(1, 4) + x(2, 4), 1), (x(1, 4) + x(2, 4), -1)], x(1, 4) - x(2, 4), None))
@example(([(x(1, 4) ** 2, -1), (x(2, 4) ** 2, 1)], -x(1, 4) - x(2, 4), x(1, 4) - x(2, 4)))
@example(([(2 * x(1, 4) * x(3, 4), 1), (x(3, 4), 1)], 2 * x(1, 4) + x(3, 4), None))
def test_the_planned_kernel_divides_a_signed_list_as_the_heap_divides_its_sum(case):
    parts, ell, quotient = case
    total = sum((p * sign for p, sign in parts), Polynomial.zero(4))
    got = divide_linear(4, parts, linear_plan(ell))
    assert got == divide_heap(total, ell)
    if quotient is not None:
        assert got == quotient
    assert total.divide_exact(ell) == got


def test_a_linear_plan_is_only_made_of_a_linear_form():
    assert linear_plan(x(1) ** 2 + x(2)) is None
    assert linear_plan(x(1) + 1) is None
    lead, lc, tail, shift = linear_plan(2 * x(2) - 3 * x(3) - x(1))
    # x_1 leads: the highest lanes, the key 1 << shift
    assert (lead, lc, shift) == (1 << 32, -1, 32)
    assert sorted(tail) == sorted((2 * x(2) - 3 * x(3)).terms.items())


def edge_monomials(nvars=2):
    top = 2**15 - 1
    lane = st.sampled_from([0, 1, 2, top - 1, top])
    return st.builds(
        lambda e, c: from_exponents(nvars, [(tuple(e), c)]),
        st.lists(lane, min_size=nvars, max_size=nvars),
        st.sampled_from([-3, -2, -1, 1, 2, 3]),
    )


@settings(max_examples=150, deadline=None)
@given(st.lists(edge_monomials(), min_size=1, max_size=4), edge_monomials())
def test_monomial_division_at_the_lane_edges_matches_the_heap(parts, mono):
    dividend = sum(parts, Polynomial.zero(2))
    if not dividend.is_zero:
        assert dividend.divide_exact(mono) == divide_heap(dividend, mono)
    # the terms with small exponents, times a monomial near the cap
    low = Polynomial(
        2, {k: c for k, c in dividend.terms.items() if max(_unpack(k, 2)) <= 2}
    )
    cap = from_exponents(2, [((2**15 - 3, 2**15 - 3), -2)])
    assert (low * cap).divide_exact(cap) == low


def test_a_square_plus_a_variable_is_not_linear(monkeypatch):
    # x1**2 has a power-of-two key too, but not one lane's unit, so the form
    # is refused and never reaches the linear kernel
    def refuse(nvars, parts, plan):
        raise AssertionError("divided by a nonlinear form as if linear")

    monkeypatch.setattr(polyring, "divide_linear", refuse)
    f = x(1) ** 2 + x(2)
    q = x(1) * x(3) - 2 * x(2) + 5
    assert linear_plan(f) is None
    for dividend in (q * f, q * f + x(3)):
        with pytest.raises(ValueError):
            dividend.divide_exact(f)


TOP = 2**15 - 1


@pytest.mark.parametrize("exps", [(), (0,), (TOP,), (0, 0, 0), (TOP, 0, TOP), (5, TOP)])
def test_lane_unpacking_round_trips(exps):
    assert _unpack(_pack(exps), len(exps)) == exps
    assert _key_degree(_pack(exps)) == sum(exps)


def _old_key_degree(key):
    d = 0
    while key:
        d += key & 0xFFFF
        key >>= 16
    return d


@settings(max_examples=100, deadline=None)
@given(polys(max_terms=8))
@example(x(1) ** 3 + x(2) * x(3) - 4 * x(3) ** 2 + x(1) - 7 + 2 * x(2) ** 3)
def test_canonical_terms_keep_the_graded_lex_order(p):
    keys = sorted(p.terms, key=lambda k: (-_old_key_degree(k), -k))
    assert p.canonical_terms() == [(_unpack(k, NVARS), p.terms[k]) for k in keys]


def _power_product_substitute(p, images, out_nvars):
    """Substitution as a sum of power products, one per term: the form the
    Horner substitution replaced, kept as its reference."""
    powers = {}

    def power(i, e):
        q = powers.get((i, e))
        if q is None:
            q = images[i] ** e
            powers[(i, e)] = q
        return q

    acc = Polynomial.zero(out_nvars)
    for key, c in p.terms.items():
        exps = _unpack(key, p.nvars)
        term = Polynomial.const(out_nvars, c)
        for i, e in enumerate(exps):
            if e:
                term = term * power(i, e)
        acc = acc + term
    return acc


def images(nvars=2):
    # zero, constant, linear and non-linear images alike
    return st.lists(
        st.one_of(
            st.just(Polynomial.zero(nvars)),
            st.integers(-3, 3).map(lambda c: Polynomial.const(nvars, c)),
            polys(nvars=nvars, max_terms=3, max_exp=2, max_coeff=4),
        ),
        min_size=NVARS,
        max_size=NVARS,
    )


def y(i):
    return Polynomial.variable(2, i)


@settings(max_examples=200, deadline=None)
@given(polys(max_terms=8), images())
@example(Polynomial.zero(NVARS), [y(1), y(2), y(1) + y(2)])
@example(Polynomial.const(NVARS, -5), [y(1), Polynomial.zero(2), y(2) ** 2])
# a zero image
@example(
    x(1) ** 3 * x(3) + 2 * x(2) * x(3) ** 2 - x(1) + 4,
    [y(1) - y(2), y(2), Polynomial.zero(2)],
)
# non-linear images, with terms that share and skip exponents of x1
@example(
    x(1) ** 3 + x(1) ** 3 * x(2) - 3 * x(1) * x(3) ** 2 + x(2) ** 2 + 7,
    [y(1) ** 2 - y(2), 3 * y(1) * y(2) + 1, Polynomial.const(2, -2)],
)
def test_horner_substitution_matches_power_products(p, imgs):
    assert p.substitute(imgs, 2) == _power_product_substitute(p, imgs, 2)


def test_substitute_checks_image_dimensions():
    with pytest.raises(DimensionMismatchError):
        x(1).substitute([y(1), y(2)], 2)
    with pytest.raises(DimensionMismatchError):
        x(1).substitute([y(1), y(2), x(1)], 2)


def test_to_T_examples():
    T = lambda i: Polynomial.variable(4, i)
    assert to_T_variables(x(1), 4) == T(1) - T(2)
    assert to_T_variables(x(1) + x(2), 4) == T(1) - T(3)
    assert to_T_variables(x(1) * x(2), 4) == (T(1) - T(2)) * (T(2) - T(3))
    with pytest.raises(DimensionMismatchError):
        to_T_variables(x(1), 3)


@settings(max_examples=100, deadline=None)
@given(polys(), polys())
def test_to_T_is_ring_homomorphism(a, b):
    m = NVARS + 1
    assert to_T_variables(a * b, m) == to_T_variables(a, m) * to_T_variables(b, m)
    assert to_T_variables(a + b, m) == to_T_variables(a, m) + to_T_variables(b, m)


def partial_sums(nvars):
    """x_1 + ... + x_j for j = 1..nvars: the images of the y_j."""
    return [linear(nvars, [1] * j + [0] * (nvars - j)) for j in range(1, nvars + 1)]


@st.composite
def polys_over_any_nvars(draw):
    nvars = draw(st.sampled_from([1, 2, 3, 5, 6]))
    return draw(polys(nvars=nvars, max_terms=6, max_exp=4, max_coeff=2**70))


@settings(max_examples=200, deadline=None)
@given(polys_over_any_nvars())
@example(Polynomial.zero(3))
@example(Polynomial.const(3, -4))
def test_y_to_x_is_the_partial_sum_substitution(p):
    assert y_to_x(p) == p.substitute(partial_sums(p.nvars), p.nvars)


def test_shear_chain_refuses_an_unknown_conversion():
    with pytest.raises(ValueError):
        _shear_chain(3, "x_to_y")


@pytest.mark.parametrize("nvars", [2, 3, 5])
def test_coordinate_changes_stay_below_the_guard_bit(nvars):
    top = 2**15 - 1

    def monomial(a, b):
        return from_exponents(nvars, [((a, b) + (0,) * (nvars - 2), 1)])

    x1, x2 = Polynomial.variable(nvars, 1), Polynomial.variable(nvars, 2)
    # a result that reaches the cap exactly is a polynomial: y_1**(top-1) * y_2
    # maps to x_1**(top-1) * (x_1 + x_2)
    assert y_to_x(monomial(top - 1, 1)) == x1 ** (top - 1) * (x1 + x2)
    # y_1**a * y_2**b maps to x_1**a * (x_1 + x_2)**b, which holds a first
    # lane of a + b
    for a, b in ((top, 1), (top - 2, 3)):
        with pytest.raises(OverflowError):
            y_to_x(monomial(a, b))


def converted(polys):
    """The x images ``_x_columns(polys)`` gives, by position, once its
    contract is checked: each distinct object comes once, with all its
    positions.  Every group, a value past 63 bits included, hands out keys
    of one degree in descending order, so graded-lex, and a column per
    object with one digit per key; its image is its nonzero digits in key
    order, and its verdict ``min(column, default=0) >= 0`` is that of its
    image's coefficients."""
    out = [None] * len(polys)
    objects = set()
    for nvars, keys, items in _x_columns(polys):
        assert keys == sorted(keys, reverse=True)
        assert len(set(map(_key_degree, keys))) <= 1
        for column, positions in items:
            # one item per distinct object, with every position of it
            assert len({id(polys[i]) for i in positions}) == 1
            assert id(polys[positions[0]]) not in objects
            objects.add(id(polys[positions[0]]))
            assert len(column) == len(keys)
            image = Polynomial(nvars, {k: c for k, c in zip(keys, column) if c})
            assert (min(column, default=0) >= 0) == (min(image.terms.values(), default=0) >= 0)
            for i in positions:
                assert out[i] is None
                out[i] = image
    assert all(image is not None for image in out)
    return out


@pytest.mark.parametrize("k, n", [(2, 5), (3, 6), (2, 7)])
def test_y_to_x_many_matches_y_to_x_on_every_table_value(k, n):
    # every row's value as the suites pass them, repeats and the table's
    # one shared zero included
    from eqschubert import GrassContext, default_d_max, eq_table

    ctx = GrassContext(k, n)
    table = eq_table(ctx)
    values = [c for row in table.rows(default_d_max(ctx)) for c in (row[4], table._zero)]
    assert len({id(p) for p in values}) < len(values)
    assert converted(values) == [y_to_x(p) for p in values]


@st.composite
def poly_lists(draw):
    """Lists of homogeneous polynomials over 1 to 6 variables, with
    negative coefficients and coefficients wider than 64 bits, zero
    polynomials and repeated objects."""
    out = []
    for _ in range(draw(st.integers(0, 8))):
        if out and draw(st.booleans()):
            out.append(draw(st.sampled_from(out)))
            continue
        nvars = draw(st.integers(1, 6))
        coefficient = st.one_of(st.integers(-9, 9), st.integers(-(2**80), 2**80))
        exps = st.lists(st.integers(0, 4), min_size=nvars, max_size=nvars)
        items = of_first_degree(draw(st.lists(st.tuples(exps, coefficient), max_size=6)))
        out.append(from_exponents(nvars, ((tuple(e), c) for e, c in items)))
    return out


ZERO = Polynomial.zero(3)


@settings(max_examples=200, deadline=None)
@given(poly_lists())
@example([])
# an all-zero group, which has no keys
@example([ZERO, Polynomial.zero(3)])
# one zero object and one nonzero object, each at several positions
@example([ZERO, x(1), ZERO, -(x(2) ** 2), x(1), ZERO])
# a group past 63 bits, beside a lane group of the same degree over more variables
@example([x(2) ** 4 - 2**70 * x(3) ** 4, -x(1) ** 4, Polynomial.variable(4, 4) ** 4])
def test_x_columns_keep_their_contract(polys):
    # the images come in key order, so a column's nonzero digits are its
    # image's coefficients in its group's key order
    images = {id(p): y_to_x(p) for p in polys}
    assert converted(polys) == [images[id(p)] for p in polys]


def test_a_value_of_two_degrees_is_refused():
    # a group holds one degree, so its keys' descending order is graded-lex;
    # a value whose first key is of lower degree than its last has no group
    mixed = x(1) - 5 * x(2) ** 3 * x(3)
    for values in ([mixed], [x(2) ** 4, mixed, x(3) ** 4]):
        with pytest.raises(ValueError):
            list(_x_columns(values))
        with pytest.raises(ValueError):
            list(_x_texts(values, NVARS))


def test_lane_bytes_is_the_narrowest_signed_lane():
    assert [_lane_bytes(b) for b in (0, 127, 128, 2**15 - 1, 2**15)] == [1, 1, 2, 2, 4]
    assert [_lane_bytes(b) for b in (2**31 - 1, 2**31, 2**63 - 1)] == [4, 8, 8]
    assert _lane_bytes(2**63) is None


def test_y_to_x_many_past_63_bits_converts_value_by_value(monkeypatch):
    # the bound |p|_1 * nvars**deg: y_2**62 over 2 variables bounds at 2**62
    # and takes 8-byte lanes; y_2**63 passes 63 bits through nvars**deg
    # alone, and 2**80 * y_2 through its coefficient alone; a repeated
    # object is converted once
    y1, y2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
    wide_twice = y2**63
    one_by_one = []

    def counted(p):
        one_by_one.append(p)
        return y_to_x(p)

    monkeypatch.setattr(polyring, "y_to_x", counted)
    cases = [
        ([y2**62, -(y2**62), y1**62], []),
        ([Polynomial.const(2, 2**63 - 1), Polynomial.const(2, -(2**63) + 1)], []),
        ([y2**63, -(y1**63)], [0, 1]),
        ([2**80 * y2 + y1, y1 - y2], [0, 1]),
        ([y2**63, y1 * y2, 2**80 * y2], [0, 2]),
        ([wide_twice, y1, wide_twice], [0]),
    ]
    for polys, wide in cases:
        one_by_one.clear()
        assert converted(polys) == [y_to_x(p) for p in polys]
        assert one_by_one == [polys[i] for i in wide]


@pytest.mark.parametrize("nvars", [2, 3, 5])
def test_y_to_x_many_raises_at_the_exponent_cap_as_y_to_x_does(nvars):
    top = 2**15 - 1

    def monomial(a, b):
        return from_exponents(nvars, [((a, b) + (0,) * (nvars - 2), 1)])

    small = Polynomial.variable(nvars, nvars)
    reaches = monomial(top - 1, 1)
    assert converted([small, reaches]) == [y_to_x(small), y_to_x(reaches)]
    for a, b in ((top, 1), (top - 2, 3)):
        with pytest.raises(OverflowError):
            converted([small, monomial(a, b), small])


polys_over_one_to_six = st.integers(1, 6).flatmap(
    lambda nvars: polys(nvars=nvars, max_terms=6, max_exp=4, max_coeff=2**70)
)


@settings(max_examples=200, deadline=None)
@given(polys_over_one_to_six)
@example(Polynomial.zero(2))
@example(Polynomial.const(1, -4))
def test_to_T_variables_is_the_difference_substitution(p):
    m = p.nvars + 1
    T = [Polynomial.variable(m, j) for j in range(1, m + 1)]
    assert to_T_variables(p, m) == p.substitute([T[j] - T[j + 1] for j in range(m - 1)], m)


@settings(max_examples=200, deadline=None)
@given(polys_over_one_to_six)
def test_w0_involution_is_the_opposite_substitution(p):
    r = p.nvars
    ys = [Polynomial.zero(r)] + [Polynomial.variable(r, j) for j in range(1, r + 1)]
    images = [ys[r - j] - ys[r] for j in range(1, r + 1)]
    assert w0_involution(p) == p.substitute(images, r)
    assert w0_involution(w0_involution(p)) == p


@pytest.mark.parametrize("nvars", [2, 3, 5])
def test_T_and_w0_shears_stay_below_the_guard_bit(nvars):
    top = 2**15 - 1

    def monomial(m, a, b):
        # v_1**a * v_m**b over m variables
        return from_exponents(m, [((a,) + (0,) * (m - 2) + (b,), 1)])

    # An x monomial near the cap expands into about 2**15 binomials of up to
    # 2**15 bits, so the to_T chain is run on keys whose lane T_m, which no
    # shear of the chain expands, is preset: v_{m-1} * v_m**b has the image
    # (v_{m-1} - v_m) * v_m**b.
    m = nvars + 1
    tm, tm1 = Polynomial.variable(m, m), Polynomial.variable(m, m - 1)
    lane = 1 << polyring._SHIFT
    assert _shear(m, {lane + top - 1: 1}, "to_T") == (tm1 - tm) * tm ** (top - 1)
    with pytest.raises(OverflowError):
        _shear(m, {lane + top: 1}, "to_T")
    # the w0 involution never expands lane r: y_1 * y_r**b maps to
    # (y_{r-1} - y_r) * (-y_r)**b
    yr, yr1 = Polynomial.variable(nvars, nvars), Polynomial.variable(nvars, nvars - 1)
    assert w0_involution(monomial(nvars, 1, top - 1)) == (yr1 - yr) * (-yr) ** (top - 1)
    with pytest.raises(OverflowError):
        w0_involution(monomial(nvars, 1, top))


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
    h = a.mul(RationalExpression(one, (-x(1),)))
    assert h.numerator == -one and h.factors == {x(1): 2}
    # a denominator factor is a primitive linear form
    with pytest.raises(ValueError):
        RationalExpression(one, (2 * x(1),))
    with pytest.raises(ValueError):
        RationalExpression(one, (one,))


def linear_factors():
    # a small pool, so that operands share factors and cancel against each other
    pool = [x(1), x(2), x(1) - x(2), x(1) + x(2) + x(3), -x(3), x(2) - x(1)]
    return st.lists(st.sampled_from(pool), max_size=3)


def rationals():
    numerator = st.builds(
        lambda p, fs, c: p * c if not fs else p * fs[0] * c,
        polys(max_terms=3, max_exp=2),
        linear_factors(),
        st.integers(1, 6),
    )
    return st.builds(
        lambda num, fs: RationalExpression(num, fs).reduced(), numerator, linear_factors()
    )


@settings(max_examples=150, deadline=None)
@given(rationals(), rationals())
def test_mul_matches_the_full_reduction(a, b):
    everything = [f for r in (b, a) for f, m in r.factors.items() for _ in range(m)]
    full = RationalExpression(a.numerator * b.numerator, everything).reduced()
    product = a.mul(b)
    assert product.numerator == full.numerator
    # the same multiplicities in the same, argument-first, order
    assert list(product.factors.items()) == list(full.factors.items())


def _full_sum(a, b):
    """The sum as the full reduction of the common-denominator fraction."""
    union = dict(b.factors)
    for f, m in a.factors.items():
        union[f] = max(m, union.get(f, 0))
    num_a, num_b = a.numerator, b.numerator
    for f, m in union.items():
        num_a = num_a * f ** (m - a.factors.get(f, 0))
        num_b = num_b * f ** (m - b.factors.get(f, 0))
    everything = [f for f, m in union.items() for _ in range(m)]
    return RationalExpression(num_a + num_b, everything).reduced()


def _reduced(num, forms):
    return RationalExpression(num, forms).reduced()


@settings(max_examples=150, deadline=None)
@given(rationals(), rationals())
# x1: equal multiplicities; x2: unequal; x3, x1 - x2: on one side only
@example(
    _reduced(x(3) + 1, (x(1), x(2), x(2), x(3))),
    _reduced(x(2) - x(3), (x(1), x(2), x(1) - x(2))),
)
# the sum cancels the shared form x1
@example(_reduced(x(2), (x(1),)), _reduced(x(1) - x(2), (x(1),)))
def test_add_matches_the_full_reduction(a, b):
    full = _full_sum(a, b)
    total = a.add(b)
    assert total.numerator == full.numerator
    assert list(total.factors.items()) == list(full.factors.items())


def test_expect_polynomial():
    assert RationalExpression(x(1) ** 2, (x(1),)).expect_polynomial() == x(1)
    with pytest.raises(NonPolynomialError):
        RationalExpression(Polynomial.const(NVARS, 1), (x(1),)).expect_polynomial()


def test_denominator_normalization():
    # x2 - x1 in the denominator becomes the positive factor x1 - x2 with
    # its sign folded into the numerator; a form with content is refused.
    r = RationalExpression(Polynomial.const(NVARS, 4), (x(2) - x(1),))
    assert r.factors == {x(1) - x(2): 1}
    assert r.numerator == Polynomial.const(NVARS, -4)
    with pytest.raises(ValueError):
        RationalExpression(Polynomial.const(NVARS, 4), (2 * x(2) - 2 * x(1),))
