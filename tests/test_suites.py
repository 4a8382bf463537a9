"""Every verification suite lives in ``suites`` and reports in one shape."""

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eqschubert.equivariant as equivariant_mod
import eqschubert.polyring as polyring_mod
import eqschubert.quantum as quantum_mod
import eqschubert.suites as suites_mod
from eqschubert.errors import NonPolynomialError
from eqschubert.grass import default_d_max, enumerate_classes
from eqschubert.polyring import Polynomial, to_T_variables, y_to_x
from eqschubert.suites import SUITES

from conftest import from_exponents, in_lane, lane_group_ids, max_key_degree, part

REPORT_KEYS = {"suite", "context", "violations", "passed"}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_reports_have_one_shape(gr12, gr24, name):
    for ctx in (gr12, gr24):
        report = SUITES[name](ctx, None)
        assert report["suite"] == name
        assert report["context"] == {"k": ctx.k, "n": ctx.n}
        assert report["passed"] is True and report["violations"] == []
        counts = set(report) - REPORT_KEYS
        assert REPORT_KEYS <= set(report)
        assert all(key == "d_max" or key.endswith("checked") for key in counts)
        assert all(type(report[key]) is int for key in counts)


def test_the_engine_defines_no_suite():
    assert [name for name in vars(quantum_mod) if name.startswith("verify")] == []


def test_axioms_compute_each_associativity_side_once(gr25, monkeypatch):
    # Gr(2,5) checks all 1,000 triples; their 2,000 sides circ(element(a, b), c)
    # have 55 unordered pairs times 10 classes distinct keys
    sides = []
    circ = quantum_mod.EQTable.circ

    def counted(self, elem, t):
        sides.append((id(elem), t))
        return circ(self, elem, t)

    monkeypatch.setattr(quantum_mod.EQTable, "circ", counted)
    report = suites_mod.verify_algebra(gr25)
    assert report["passed"] and report["associativity_checked"] == 1000
    # each pair's element is one kept object, so its id names the pair
    assert len(sides) == len(set(sides)) == 55 * 10


def _planted_table(ctx, key=None):
    """``(table, key)``: a walked table of ``ctx`` with its coefficient under
    ``key`` doubled, by default its last nonzero coefficient of two classes
    past the divisor, and its products dropped so that they are rebuilt
    from it."""
    table = quantum_mod.EQTable(ctx)
    classes = enumerate_classes(ctx)
    for u in classes:
        for v in classes:
            table.element(u, v)
    if key is None:
        key = max(k for k, c in table._coeff.items() if k[0] > 1 and c.terms)
    table._coeff[key] = table._coeff[key] + table._coeff[key]
    table._elements.clear()
    return table, key


def _laws(report, law):
    """The violations of one law in an ``axioms`` report."""
    return [f for f in report["violations"] if f["law"] == law]


def test_a_planted_coefficient_fails_associativity_as_a_plain_loop_does(gr25, monkeypatch):
    planted, _ = _planted_table(gr25)
    monkeypatch.setattr(suites_mod, "eq_table", lambda ctx: planted)
    report = suites_mod.verify_algebra(gr25)
    classes = enumerate_classes(gr25)
    expected = [
        {"u": list(u.parts), "v": list(v.parts), "w": list(w.parts), "law": "associativity"}
        for u in classes
        for v in classes
        for w in classes
        if planted.circ(planted.element(u, v), w) != planted.circ(planted.element(v, w), u)
    ]
    assert expected
    assert _laws(report, "associativity") == expected


def test_a_planted_coefficient_fails_commutativity_at_its_pair(gr25, cold_state, monkeypatch):
    # the mirrored table recomputes every product, so the one pair whose
    # product holds the doubled entry fails, and no other
    planted, (iu, iv, _, _) = _planted_table(gr25)
    monkeypatch.setattr(suites_mod, "eq_table", lambda ctx: planted)
    report = suites_mod.verify_algebra(gr25)
    classes = enumerate_classes(gr25)
    u, v = classes[iu].parts, classes[iv].parts
    assert _laws(report, "commutativity") == [
        {"u": list(u), "v": list(v), "law": "commutativity"}
    ]
    assert _laws(report, "unit") == []


def test_a_doubled_unit_entry_fails_the_unit_law_at_its_class(gr25, cold_state, monkeypatch):
    # sigma([]) * sigma(v) holds 2 sigma(v), not sigma(v)
    v = enumerate_classes(gr25).index(part(gr25, 2, 1))
    planted, _ = _planted_table(gr25, (0, v, v, 0))
    monkeypatch.setattr(suites_mod, "eq_table", lambda ctx: planted)
    report = suites_mod.verify_algebra(gr25)
    assert _laws(report, "unit") == [{"v": [2, 1], "law": "unit"}]


def _double_a_restriction(ctx, family, parts, monkeypatch):
    """Double the first nonzero restriction of the class ``parts`` in the
    ``family`` table of ``ctx``.  Its degree is below the number of edges
    at its point, so some edge weight no longer divides a difference."""
    entries = equivariant_mod.restriction_table(ctx, family).entries
    key = next(k for k, c in entries.items() if k[0] == parts and c.terms)
    monkeypatch.setitem(entries, key, entries[key] + entries[key])


@pytest.mark.parametrize("family", ["schubert", "opposite"])
def test_a_doubled_restriction_fails_gkm_at_its_family_and_class(
    gr25, cold_state, monkeypatch, family
):
    _double_a_restriction(gr25, family, (2, 1), monkeypatch)
    report = suites_mod.verify_gkm(gr25)
    assert report["violations"]
    assert {(f["family"], tuple(f["class"])) for f in report["violations"]} == {
        (family, (2, 1))
    }


def test_an_engine_error_raises_out_of_a_suite(gr25, cold_state, monkeypatch):
    # a doubled opposite restriction leaves the Atiyah-Bott sums of the
    # pairing with a denominator: an engine error, not a violation
    _double_a_restriction(gr25, "opposite", (2, 1), monkeypatch)
    with pytest.raises(NonPolynomialError):
        suites_mod.verify_duality(gr25)


def test_tbasis_runs_each_route_once_per_lane_group(gr36, monkeypatch):
    # each lane group of the Gr(3,6) values (10) is packed once, and the
    # y -> T substitution and the y -> x -> T shear chains each run once on
    # it, not once per distinct value (610): so no value goes value by
    # value, and the suite still passes
    values = [c for *_, c in quantum_mod.eq_table(gr36).rows(default_d_max(gr36))]
    groups = {max_key_degree(c) for c in values}
    distinct = {id(c) for c in values}
    assert (len(groups), len(distinct)) == (10, 610)
    substituted, chains, packs = [], [], []
    substitute, shear = Polynomial.substitute, polyring_mod._shear
    packed_lanes = polyring_mod._packed_lanes

    def recording_substitute(self, images, out_nvars):
        substituted.append(self)
        return substitute(self, images, out_nvars)

    def recording_shear(nvars, terms, conversion):
        chains.append(conversion)
        return shear(nvars, terms, conversion)

    def recording_packed_lanes(objects, size):
        packs.append(objects)
        return packed_lanes(objects, size)

    monkeypatch.setattr(Polynomial, "substitute", recording_substitute)
    monkeypatch.setattr(polyring_mod, "_shear", recording_shear)
    for module in (polyring_mod, suites_mod):
        monkeypatch.setattr(module, "_packed_lanes", recording_packed_lanes)
    report = suites_mod.verify_tbasis(gr36)
    assert report["passed"] and report["checked"] == len(values)
    assert len(substituted) == chains.count("to_T") == chains.count("y_to_x") == len(groups)
    # one pack per lane group, which together hold each distinct value once
    assert len(packs) == len(groups)
    assert sorted(id(c) for objects in packs for c in objects) == sorted(distinct)


@st.composite
def monomials(draw, nvars, d):
    """Exponent tuples over ``nvars`` variables of degree ``d``."""
    exps, left = [], d
    for _ in range(nvars - 1):
        exps.append(draw(st.integers(0, left)))
        left -= exps[-1]
    return tuple(exps) + (left,)


@st.composite
def value_lists(draw, huge=False):
    """``(m, values, planted)``: homogeneous y polynomials over m - 1
    variables, of degree 0 to 3 and coefficients up to 2**9, with zeros,
    repeated objects and equal copies, and one of their objects to plant a
    fault in.  With ``huge``, one value has a coefficient past 63 bits, so
    its group's lane bound does too."""
    m = draw(st.integers(2, 4))
    r = m - 1
    pool = [Polynomial.zero(r)]
    for _ in range(draw(st.integers(1, 5))):
        d = draw(st.integers(0, 3))
        coefficient = st.one_of(st.integers(-9, 9), st.integers(-(2**9), 2**9))
        items = draw(st.lists(st.tuples(monomials(r, d), coefficient), max_size=4))
        pool.append(from_exponents(r, items))
    if huge:
        exps = draw(monomials(r, draw(st.integers(0, 3))))
        big = draw(st.sampled_from([2**70, -(2**70)]))
        pool.append(from_exponents(r, [(exps, big)]))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))
    values = [
        Polynomial(r, dict(pool[i].terms)) if draw(st.booleans()) else pool[i] for i in picks
    ]
    if huge:
        values.append(pool[-1])
    return m, values, draw(st.sampled_from(values))


def _reference(values, m, planted=None):
    """The positions i where ``to_T_variables(y_to_x(c), m)``, or T_1 for
    the object ``planted``, differs from ``c.substitute(weights, m)``,
    c = ``values[i]``: the check value by value.  No value maps to T_1, a
    form in which the T_{j+1} cancel, so every position of ``planted``
    fails."""
    weights = [Polynomial.variable(m, 1) - Polynomial.variable(m, j + 1) for j in range(1, m)]
    return {
        i
        for i, c in enumerate(values)
        if (Polynomial.variable(m, 1) if c is planted else to_T_variables(y_to_x(c), m))
        != c.substitute(weights, m)
    }


def _lane_route(values, m, planted=None):
    """``(positions, per_value)``: what ``_tbasis_failing`` flags when the T
    image of the object ``planted``, one of ``values``, is T_1 (in its lane,
    on the packed path), and the objects it converted value by value."""
    assert planted is None or any(c is planted for c in values)
    packed_lanes = suites_mod._packed_lanes
    packed, images, per_value = [], [], []

    def recorded(objects, size):
        terms = packed_lanes(objects, size)
        packed.append((terms, objects, size))
        return terms

    def converted(c):
        x = y_to_x(c)
        if packed and c.terms is packed[-1][0]:
            images.append(x)
        else:
            per_value.append(c)
        return x

    def corrupted(x, m):
        image, plant = to_T_variables(x, m), Polynomial.variable(m, 1)
        if images and x is images[-1]:
            _, objects, size = packed[-1]
            for j, c in enumerate(objects):
                if c is planted:
                    image = image + in_lane(plant - to_T_variables(y_to_x(c), m), j, size)
        elif per_value and per_value[-1] is planted:
            image = plant
        return image

    with mock.patch.multiple(
        suites_mod, _packed_lanes=recorded, to_T_variables=corrupted, y_to_x=converted
    ):
        return suites_mod._tbasis_failing(values, m), per_value


@settings(max_examples=150, deadline=None)
@given(value_lists())
def test_the_lane_route_passes_what_the_per_value_check_passes(case):
    m, values, _ = case
    flagged, per_value = _lane_route(values, m)
    assert flagged == _reference(values, m) == set()
    assert per_value == []


# 127 * y_1**3 maps to 127 * (T_1 - T_2)**3, whose coefficients reach 381:
# past a lane proven for its x image alone, inside one proven for T
EDGE = from_exponents(1, [((3,), 127)])
NEG = -EDGE


@settings(max_examples=150, deadline=None)
@given(value_lists())
@example((2, [EDGE, Polynomial.zero(1), EDGE], EDGE))
@example((2, [Polynomial.zero(1), EDGE, NEG], NEG))
def test_the_lane_route_flags_one_planted_lane(case):
    # the planted lane fails its group's packed check, so that group, and
    # it alone, is rechecked value by value, each of its distinct objects once
    m, values, planted = case
    flagged, per_value = _lane_route(values, m, planted)
    assert flagged == _reference(values, m, planted)
    assert flagged == {i for i, c in enumerate(values) if c is planted}
    assert sorted(map(id, per_value)) == lane_group_ids(values, planted)


@settings(max_examples=150, deadline=None)
@given(value_lists(huge=True))
def test_a_group_past_63_bits_goes_value_by_value(case):
    # the group of the huge value (the last) and that of the planted value
    # are checked value by value, each of their distinct objects once
    m, values, planted = case
    flagged, per_value = _lane_route(values, m, planted)
    assert flagged == _reference(values, m, planted)
    assert flagged == {i for i, c in enumerate(values) if c is planted}
    assert sorted(map(id, per_value)) == lane_group_ids(values, values[-1], planted)
