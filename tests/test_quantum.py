import ast
import random
from collections import Counter
from itertools import zip_longest
from pathlib import Path

import pytest

import eqschubert.equivariant as equivariant_mod
import eqschubert.quantum as quantum_mod
from eqschubert import (
    DimensionMismatchError,
    Partition,
    Polynomial,
    QModuleElement,
    elr,
    enumerate_classes,
    eq_chevalley,
    eq_table,
    eqlr,
    multiply,
    pairing,
    quantum_lr_rimhook,
    verify_algebra,
    verify_positivity,
)
from eqschubert.equivariant import own_restriction, point_of, restriction_table
from eqschubert.grass import add_box_shapes, default_d_max
from eqschubert.quantum import EQTable

from conftest import (
    from_exponents,
    homogeneous_of_degree,
    in_lane,
    lane_group_ids,
    max_key_degree,
    part,
)
from reference_oracles import lr_tableau


def x(ctx, i):
    return Polynomial.variable(ctx.r, i)


def one(ctx):
    return Polynomial.const(ctx.r, 1)


def test_chevalley_unit(gr24):
    assert eq_chevalley(part(gr24)) == QModuleElement.basis(part(gr24, 1))


def test_chevalley_divisor(gr24):
    elem = eq_chevalley(part(gr24, 1))
    assert elem.terms == {
        ((2,), 0): one(gr24),
        ((1, 1), 0): one(gr24),
        ((1,), 0): x(gr24, 2),
    }


def test_chevalley_point_class(gr24):
    elem = eq_chevalley(part(gr24, 2, 2))
    diag = elr(part(gr24, 1), part(gr24, 2, 2), part(gr24, 2, 2))
    assert elem.terms == {((2, 2), 0): diag, ((1,), 1): one(gr24)}
    assert diag == x(gr24, 1) + 2 * x(gr24, 2) + x(gr24, 3)


def test_chevalley_p1(gr12):
    elem = eq_chevalley(part(gr12, 1))
    assert elem.terms == {((1,), 0): x(gr12, 1), ((), 1): one(gr12)}


def test_chevalley_d0_column_matches_localization(gr24, gr25):
    for ctx in (gr24, gr25):
        divisor = part(ctx, 1)
        for v in enumerate_classes(ctx):
            elem = eq_chevalley(v)
            for w in enumerate_classes(ctx):
                assert elem.get(w, 0) == elr(divisor, v, w)


def test_block_pin_is_the_localized_chevalley_rule(gr25, gr36):
    # The block solve pins X_t with W = sigma(t)|t: B_a = sigma(a)|t / W
    # solves the relation's homogeneous part because, in y and with c_z the
    # engine's own diagonal, (c_t - c_v) sigma(v)|t = sum sigma(v+)|t.
    violations = []
    for ctx in (gr25, gr36):
        table = eq_table(ctx)
        classes = enumerate_classes(ctx)
        sigma = restriction_table(ctx, "schubert").entries
        zero = Polynomial.zero(ctx.r)
        diag = [table.chevalley_terms(p).get((p.parts, 0), zero) for p in classes]
        for t, c_t in zip(classes, diag):
            pt = point_of(t).subset
            weight = own_restriction(t)
            if sigma[(t.parts, pt)] != weight:
                violations.append(("own point", t.parts))
            if table.coefficient(t, t, t, 0) != weight:
                violations.append(("C[t,t,t,0]", t.parts))
            for v, c_v in zip(classes, diag):
                ups = sum((sigma[(m.parts, pt)] for m in add_box_shapes(v)), zero)
                if (c_t - c_v) * sigma[(v.parts, pt)] != ups:
                    violations.append(("chevalley", t.parts, v.parts))
    assert violations == []


def test_quantum_uses_no_rational_expression():
    tree = ast.parse(Path(quantum_mod.__file__).read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    assert "RationalExpression" not in used


def test_circ_on_basis_classes(gr24):
    table = eq_table(gr24)
    for u in enumerate_classes(gr24):
        for v in enumerate_classes(gr24):
            product = table.element(u, v)
            assert table.circ(QModuleElement.basis(u), v) == product
            raised = {(w, d + 1): c for (w, d), c in product.terms.items()}
            assert table.circ(QModuleElement.basis(u, d=1), v) == QModuleElement(
                gr24, raised
            )


def test_circ_products_stay_below_the_guard_bit(gr12, monkeypatch):
    half = x(gr12, 1) ** 2**14
    point = part(gr12, 1)
    elem = QModuleElement(gr12, {(point.parts, 0): half})
    monkeypatch.setattr(EQTable, "element", lambda self, u, v: elem)
    with pytest.raises(OverflowError):
        EQTable(gr12).circ(elem, point)


def plain_circ(table, elem, t):
    """``EQTable.circ`` summed with ``Polynomial.__mul__`` and ``__add__``,
    one product at a time, independent of the fused kernel ``circ`` uses."""
    sums = {}
    for (parts, e), c in elem.terms.items():
        for (w, d), c2 in table.element(Partition(parts, table.ctx), t).terms.items():
            key = (w, d + e)
            sums[key] = sums[key] + c * c2 if key in sums else c * c2
    return QModuleElement(table.ctx, sums)


def test_circ_matches_the_plain_product_sum(gr25):
    table = eq_table(gr25)
    classes = enumerate_classes(gr25)
    for u in classes:
        for v in classes:
            elem = table.element(u, v)
            for t in classes:
                assert table.circ(elem, t) == plain_circ(table, elem, t)


def test_a_raised_non_special_coefficient_breaks_associativity(gr25, monkeypatch):
    table = eq_table(gr25)
    classes = enumerate_classes(gr25)
    for u in classes:
        for v in classes:
            table.element(u, v)
    # neither factor a special class sigma_i, a one-row partition
    non_special = sorted(
        key
        for key, value in table._coeff.items()
        if not value.is_zero and min(len(classes[i].parts) for i in key[:2]) > 1
    )
    for key in random.Random(1).sample(non_special, 2):
        with monkeypatch.context() as patch:
            patch.setitem(table._coeff, key, table._coeff[key] + 1)
            # the warmed products are kept; a fresh memo rebuilds them
            # from the corrupted coefficient
            patch.setattr(table, "_elements", {})
            report = verify_algebra(gr25)
        assert not report["passed"]
        assert any(v["law"] == "associativity" for v in report["violations"]), key
    assert verify_algebra(gr25)["passed"]


def test_classes_of_two_contexts_are_refused(gr24, gr25):
    # each entry point reads the table of its first class's context, so a
    # class of another context would get an answer of the wrong Grassmannian
    a, b = Partition((1,), gr24), Partition((1,), gr25)
    calls = [
        (multiply, (a, b)),
        (multiply, (b, a)),
        (eqlr, (a, a, b, 0)),
        (eqlr, (b, a, b, 0)),
        (elr, (a, a, b)),
        (elr, (a, b, a)),
        (pairing, (a, b)),
        (pairing, (b, a)),
    ]
    for entry, args in calls:
        with pytest.raises(DimensionMismatchError):
            entry(*args)


def test_multiply_unit(gr24):
    for v in enumerate_classes(gr24):
        assert multiply(part(gr24), v) == QModuleElement.basis(v)


def test_multiply_divisor_is_chevalley(gr24, gr25):
    for ctx in (gr24, gr25):
        for v in enumerate_classes(ctx):
            assert multiply(part(ctx, 1), v) == eq_chevalley(v)


def test_multiply_against_chevalley_example(gr24):
    assert multiply(part(gr24, 1), part(gr24, 2, 2)) == eq_chevalley(part(gr24, 2, 2))


def test_multiply_21_squared(gr24):
    elem = multiply(part(gr24, 2, 1), part(gr24, 2, 1))
    x0 = {key: c.constant_term() for key, c in elem.terms.items() if c.constant_term()}
    assert x0 == {((2,), 1): 1, ((1, 1), 1): 1}
    # a q-term on s(2,1) itself would have negative degree, so none appears
    assert elem.get(part(gr24, 2, 1), 1).is_zero


def test_point_class_square(gr24):
    # classically the square of the point class is pure q^2; equivariantly
    # it keeps a q^0 term equal to the tangent Euler class times the point
    elem = multiply(part(gr24, 2, 2), part(gr24, 2, 2))
    x0 = {key: c.constant_term() for key, c in elem.terms.items() if c.constant_term()}
    assert x0 == {((), 2): 1}
    top = part(gr24, 2, 2)
    from eqschubert import restrict_schubert
    from eqschubert.equivariant import point_of
    from eqschubert.polyring import y_to_x

    # the restriction is in y, the product in x
    euler = restrict_schubert(top, point_of(top))
    q0 = {w: c for (w, d), c in elem.terms.items() if d == 0}
    assert q0 == {top.parts: y_to_x(euler)}


def test_eqlr_point_class_gw_count(gr24):
    # degree 8 - 4 - 4 = 0, so this is a plain curve count, and it matches
    # the rim-hook oracle (here: zero, the full product sits at d = 2)
    top = part(gr24, 2, 2)
    value = eqlr(top, top, top, 1)
    assert value.constant_term() == quantum_lr_rimhook(top, top, top, 1) == 0
    assert value.is_zero


def test_specialize_x0_divisor_times_point(gr24):
    elem = multiply(part(gr24, 1), part(gr24, 2, 2))
    x0 = {key: c.constant_term() for key, c in elem.terms.items() if c.constant_term()}
    assert x0 == {((1,), 1): 1}


def test_eqlr_degenerate(gr24):
    for v in enumerate_classes(gr24):
        for w in enumerate_classes(gr24):
            value = eqlr(part(gr24), v, w, 0)
            assert value == (one(gr24) if v == w else Polynomial.zero(gr24.r))
    # negative grading forces zero
    assert eqlr(part(gr24, 1), part(gr24, 1), part(gr24, 2, 2), 0).is_zero
    assert eqlr(part(gr24, 1), part(gr24, 1), part(gr24), 1).is_zero


def test_grading_and_finiteness(gr24):
    for u in enumerate_classes(gr24):
        for v in enumerate_classes(gr24):
            elem = multiply(u, v)
            for (w, d), c in elem.terms.items():
                assert homogeneous_of_degree(c, u.size + v.size - sum(w) - d * gr24.n)
                assert d * gr24.n <= u.size + v.size


def test_specialize_q0_matches_localization(gr24):
    for u in enumerate_classes(gr24):
        for v in enumerate_classes(gr24):
            elem = multiply(u, v)
            for w in enumerate_classes(gr24):
                assert elem.get(w, 0) == elr(u, v, w)


def test_specialize_x0_matches_rim_hooks(gr24):
    for u in enumerate_classes(gr24):
        for v in enumerate_classes(gr24):
            elem = multiply(u, v)
            for w in enumerate_classes(gr24):
                for d in range((u.size + v.size) // gr24.n + 1):
                    assert elem.get(w, d).constant_term() == quantum_lr_rimhook(
                        u, v, w, d
                    )


def test_specialization_square_commutes(gr24):
    # x -> 0 then q -> 0 (and the other order) recovers classical numbers
    for u in enumerate_classes(gr24):
        for v in enumerate_classes(gr24):
            elem = multiply(u, v)
            x0 = {key: c.constant_term() for key, c in elem.terms.items()}
            q0 = {w: c for (w, d), c in elem.terms.items() if d == 0}
            zero = Polynomial.zero(gr24.r)
            for w in enumerate_classes(gr24):
                classical = lr_tableau(u, v, w)
                assert x0.get((w.parts, 0), 0) == classical
                assert q0.get(w.parts, zero).constant_term() == classical


def test_verify_positivity_reports(gr24):
    report = verify_positivity(gr24)
    assert report["passed"] and not report["violations"]
    assert report["d_max"] == default_d_max(gr24) == 2
    assert report["checked"] > 0


def test_verify_positivity_detects_injected_violation(gr24, monkeypatch):
    table = eq_table(gr24)
    coefficient = table.coefficient

    def corrupted(u, v, w, d):
        value = coefficient(u, v, w, d)
        if (u.parts, v.parts, w.parts, d) == ((1,), (1,), (1,), 0):
            return -value
        return value

    monkeypatch.setattr(table, "coefficient", corrupted)
    report = verify_positivity(gr24)
    assert not report["passed"]
    assert report["violations"] == [{"u": [1], "v": [1], "w": [1], "d": 0}]


def test_verify_positivity_passes_a_table_of_zeros(gr24, monkeypatch):
    # every value zero: its lane group has no keys, so every column is empty
    table = eq_table(gr24)
    zero = Polynomial.zero(gr24.r)
    monkeypatch.setattr(table, "coefficient", lambda u, v, w, d: zero)
    report = verify_positivity(gr24)
    assert report["passed"] and report["checked"] > 0


def test_verify_positivity_checks_a_value_past_63_bits_alone(gr24, monkeypatch):
    # a coefficient past 63 bits sends its lane group value by value, where
    # the planted negative value is still a violation
    import eqschubert.polyring as polyring_mod

    table = eq_table(gr24)
    coefficient, y_to_x = table.coefficient, polyring_mod.y_to_x
    planted, one_by_one = [], []

    def corrupted(u, v, w, d):
        value = coefficient(u, v, w, d)
        if (u.parts, v.parts, w.parts, d) == ((1,), (1,), (1,), 0):
            planted.append(value * -(2**70))
            return planted[-1]
        return value

    def counted(p):
        one_by_one.append(p)
        return y_to_x(p)

    monkeypatch.setattr(table, "coefficient", corrupted)
    monkeypatch.setattr(polyring_mod, "y_to_x", counted)
    report = verify_positivity(gr24)
    assert report["violations"] == [{"u": [1], "v": [1], "w": [1], "d": 0}]
    assert any(p is planted[0] for p in one_by_one)


def test_verify_positivity_reports_every_key_of_a_bad_shared_value(gr25, monkeypatch):
    # a negative x coefficient planted in the column of one value object
    # that several keys share: each of those keys is a violation, in key
    # order
    import eqschubert.suites as suites_mod
    from eqschubert.polyring import _x_columns

    clean = verify_positivity(gr25)
    assert clean["passed"]
    rows = list(eq_table(gr25).rows(default_d_max(gr25)))
    uses = Counter(id(row[4]) for row in rows if row[4].degree() > 0)
    planted = next(row[4] for row in rows if id(row[4]) == uses.most_common(1)[0][0])
    batches = []

    def negated(values, items):
        for column, positions in items:
            if values[positions[0]] is planted:
                column = [-c for c in column]
            yield column, positions

    def corrupted(values):
        # the columns' contract holds: one column per object, with all its
        # positions
        batches.append(values)
        for nvars, keys, items in _x_columns(values):
            yield nvars, keys, negated(values, items)

    monkeypatch.setattr(suites_mod, "_x_columns", corrupted)
    report = verify_positivity(gr25)
    # one batch of every key's value, repeats included
    assert len(batches) == 1 and len(batches[0]) == clean["checked"]
    assert sum(c is planted for c in batches[0]) == uses[id(planted)]
    assert report["checked"] == clean["checked"]
    # the suite's key order: pairs as the rows give them, then w, then d
    order = {p.parts: i for i, p in enumerate(enumerate_classes(gr25))}
    keys = sorted(
        ((u, v, w, d) for u, v, w, d, c in rows if c is planted),
        key=lambda key: (order[key[0]], order[key[1]], order[key[2]], key[3]),
    )
    assert len(keys) == uses[id(planted)] > 1
    assert report["violations"] == [
        {"u": list(u), "v": list(v), "w": list(w), "d": d} for u, v, w, d in keys
    ]


def test_verify_algebra_small(gr12, gr24):
    for ctx in (gr12, gr24):
        report = verify_algebra(ctx)
        assert report["passed"]
        assert report["associativity_checked"] == len(enumerate_classes(ctx)) ** 3


def test_table_recomputation_is_identical(gr24):
    # a fresh table object reproduces the memoized one entry for entry
    fresh = eq_table.__wrapped__(gr24)
    table = eq_table(gr24)
    for u in enumerate_classes(gr24):
        for v in enumerate_classes(gr24):
            assert fresh.element(u, v) == table.element(u, v)


def test_element_keeps_one_product_per_pair(gr25):
    table = EQTable(gr25)
    mirrored = EQTable(gr25, mirrored=True)
    classes = enumerate_classes(gr25)
    for i, u in enumerate(classes):
        for v in classes[i:]:
            elem = table.element(u, v)
            assert table.element(v, u) is elem
            # the mirrored table recomputes the product on its own
            other = mirrored.element(u, v)
            assert other == elem and other is not elem
    assert len(table._elements) == len(classes) * (len(classes) + 1) // 2


def test_rows_keep_no_element(gr25):
    table = eq_table.__wrapped__(gr25)
    assert list(table.rows(default_d_max(gr25)))
    assert table._elements == {}


def test_rows_ask_the_public_coefficient_for_every_key(gr24, monkeypatch):
    # the per-layer trace classifies solves, steps and blocks from the
    # public calls, so every exported key must pass through one
    asked = Counter()
    plain = EQTable.coefficient

    def counted(self, u, v, w, d):
        asked[(u.parts, v.parts, w.parts, d)] += 1
        return plain(self, u, v, w, d)

    monkeypatch.setattr(EQTable, "coefficient", counted)
    rows = list(EQTable(gr24).rows(default_d_max(gr24)))
    assert rows and set(asked.values()) == {1}
    assert {(u, v, w, d) for u, v, w, d, _ in rows} <= set(asked)


def test_warmed_rows_walk_builds_no_partition(gr36, monkeypatch):
    from eqschubert import Partition
    from eqschubert.quantum import EQTable

    table = EQTable(gr36)
    for a in enumerate_classes(gr36):
        table.chevalley_terms(a)
    built = []
    check = Partition.__init__

    def counted(self, parts, ctx):
        built.append(parts)
        check(self, parts, ctx)

    monkeypatch.setattr(Partition, "__init__", counted)
    rows = list(table.rows(default_d_max(gr36)))
    assert rows and built == []


def test_warmed_rows_walk_shares_keys_and_zero(gr36):
    # equal monomials in different memo entries are one int object, and
    # every zero entry is the table's one zero
    from eqschubert.quantum import EQTable

    table = EQTable(gr36)
    for a in enumerate_classes(gr36):
        table.chevalley_terms(a)
    assert list(table.rows(default_d_max(gr36)))
    values = list(table._coeff.values())
    keys = [k for p in values for k in p.terms]
    assert len({id(k) for k in keys}) == len(set(keys))
    zeros = [p for p in values if p.is_zero]
    assert zeros and all(p is table._zero for p in zeros)
    # equal nonzero values are one polynomial object
    nonzero = [p for p in values if not p.is_zero]
    assert len({id(p) for p in nonzero}) == len(set(nonzero)) < len(nonzero)


def test_mirrored_table_holds_its_own_values(gr25):
    # the commutativity check recomputes every value, so the mirrored
    # table interns into its own dict and shares no value object
    table, mirrored = EQTable(gr25), EQTable(gr25, mirrored=True)
    d_max = default_d_max(gr25)
    assert list(table.rows(d_max)) == list(mirrored.rows(d_max))
    shared = [
        (value, mirrored._coeff[key])
        for key, value in table._coeff.items()
        if key in mirrored._coeff and not value.is_zero
    ]
    assert shared
    assert all(a == b and a is not b for a, b in shared)


def _contains(w, u):
    return all(a <= b for a, b in zip_longest(u.parts, w.parts, fillvalue=0))


@pytest.mark.parametrize("k, n", [(2, 4), (2, 5), (3, 6)])
def test_zeros_forced_by_containment_match_the_full_recursion(k, n):
    # C[u,v,w,0] = 0 unless u and v lie inside w; a table whose down-sets
    # hold every class never takes that shortcut, nor restricts a block to
    # the rows inside its target, and must agree on every key
    from eqschubert import GrassContext

    ctx = GrassContext(k, n)
    table, full = EQTable(ctx), EQTable(ctx)
    classes = enumerate_classes(ctx)
    full._inside = [set(range(len(classes)))] * len(classes)
    outside = 0
    for u in classes:
        for v in classes:
            for w in classes:
                for d in range(default_d_max(ctx) + 1):
                    value = full.coefficient(u, v, w, d)
                    assert table.coefficient(u, v, w, d) == value
                    if d == 0 and not (_contains(w, u) and _contains(w, v)):
                        assert value.is_zero
                        outside += 1
    assert outside
    both = table._coeff.keys() & full._coeff.keys()
    assert both and all(table._coeff[key] == full._coeff[key] for key in both)
    assert len(table._coeff) < len(full._coeff)


def test_other_box_shapes():
    # odd boxes and k > n-k exercise the same machinery end to end
    from eqschubert import GrassContext
    from eqschubert.suites import verify_specialization

    for k, n in ((3, 5), (4, 5)):
        ctx = GrassContext(k, n)
        assert verify_positivity(ctx)["passed"]
        assert verify_specialization(ctx)["passed"]
        assert verify_algebra(ctx)["passed"]


def _rows_of(rows, planted):
    """The violations ``tbasis`` reports when every row of ``planted`` fails."""
    return [
        {"u": list(u), "v": list(v), "w": list(w), "d": d}
        for u, v, w, d, c in rows
        if c is planted
    ]


def test_tbasis_fails_an_image_that_does_not_round_trip(gr24, monkeypatch):
    # the T image of the value of the most rows gains T_1, in its lane of its
    # group's packed image and alone when checked value by value, so it no
    # longer equals the engine's entry with each y_j replaced by
    # T_1 - T_{j+1}; to_T_variables runs once per lane group on the x image
    # of the group's one packed polynomial, then once per distinct value of
    # the planted value's group, which is rechecked value by value, and
    # every row of the planted value fails, in row order
    import eqschubert.suites as suites_mod
    from eqschubert.polyring import to_T_variables, y_to_x

    rows = list(eq_table(gr24).rows(default_d_max(gr24)))
    uses = Counter(id(row[4]) for row in rows)
    planted = next(row[4] for row in rows if id(row[4]) == uses.most_common(1)[0][0])
    packed_lanes = suites_mod._packed_lanes
    groups, images, per_value, calls = [], [], [], []

    def recorded(values, size):
        terms = packed_lanes(values, size)
        groups.append((terms, values, size))
        return terms

    def converted(p):
        x = y_to_x(p)
        if groups and p.terms is groups[-1][0]:
            images.append(x)
        else:
            per_value.append(p)
        return x

    def corrupted(x, m):
        calls.append(x)
        image, plant = to_T_variables(x, m), Polynomial.variable(m, 1)
        if images and x is images[-1]:
            _, values, size = groups[-1]
            for j, c in enumerate(values):
                if c is planted:
                    image = image + in_lane(plant, j, size)
        elif per_value[-1] is planted:
            image = image + plant
        return image

    monkeypatch.setattr(suites_mod, "_packed_lanes", recorded)
    monkeypatch.setattr(suites_mod, "y_to_x", converted)
    monkeypatch.setattr(suites_mod, "to_T_variables", corrupted)
    report = suites_mod.verify_tbasis(gr24)
    lane_groups = {max_key_degree(c) for *_, c in rows}
    assert len(images) == len(groups) == len(lane_groups) < len(uses)
    assert sorted(map(id, per_value)) == lane_group_ids([c for *_, c in rows], planted)
    assert len(calls) == len(groups) + len(per_value)
    assert report["checked"] == len(rows)
    expected = _rows_of(rows, planted)
    assert len(expected) == uses[id(planted)] > 1
    assert report["violations"] == expected


def test_tbasis_fails_a_row_left_in_engine_coordinates(gr24, monkeypatch):
    # the one corruption a y -> x boundary invites: a value exported as its y
    # entry, unconverted.  The y -> x shear chain on a group's packed values
    # leaves so the lane of the value of the most rows among those whose x
    # and y forms differ, and so does its conversion alone when its group
    # is rechecked value by value; each of its rows fails
    import eqschubert.suites as suites_mod
    from eqschubert.polyring import y_to_x

    rows = list(eq_table(gr24).rows(default_d_max(gr24)))
    uses = Counter(id(row[4]) for row in rows if y_to_x(row[4]) != row[4])
    planted = next(row[4] for row in rows if id(row[4]) == uses.most_common(1)[0][0])
    packed_lanes = suites_mod._packed_lanes
    batches, per_value = [], []

    def recorded(values, size):
        terms = packed_lanes(values, size)
        batches.append((terms, values, size))
        return terms

    def corrupted(p):
        if batches and p.terms is batches[-1][0]:
            _, values, size = batches[-1]
            left = planted - y_to_x(planted)
            lanes = [in_lane(left, j, size) for j, c in enumerate(values) if c is planted]
            return sum(lanes, y_to_x(p))
        per_value.append(p)
        return planted if p is planted else y_to_x(p)

    monkeypatch.setattr(suites_mod, "_packed_lanes", recorded)
    monkeypatch.setattr(suites_mod, "y_to_x", corrupted)
    report = suites_mod.verify_tbasis(gr24)
    # one batch per lane group, which together hold each distinct value once
    converted = [id(c) for _, values, _ in batches for c in values]
    assert len(batches) == len({max_key_degree(c) for *_, c in rows})
    assert sorted(converted) == sorted({id(row[4]) for row in rows})
    assert sorted(map(id, per_value)) == lane_group_ids([c for *_, c in rows], planted)
    assert report["checked"] == len(rows)
    expected = _rows_of(rows, planted)
    assert len(expected) == uses[id(planted)] > 1
    assert report["violations"] == expected


def _conjugate(p, ctx):
    """The conjugate partition of ``p``, in the (n-k) x k box of ``ctx``."""
    return Partition([sum(1 for a in p.parts if a > j) for j in range(ctx.k)], ctx)


def _reversed_x(p):
    """``p`` with x_1, ..., x_{n-1} replaced by x_{n-1}, ..., x_1."""
    return from_exponents(p.nvars, ((e[::-1], c) for e, c in p.canonical_terms()))


@pytest.mark.parametrize(
    "k, n, keys, differ_unreversed",
    [(1, 3, 81, 3), (2, 4, 648, 30), (2, 5, 4000, 222), (2, 6, 13500, 848)],
)
def test_conjugation_identity(k, n, keys, differ_unreversed):
    # Gr(k,n) = Gr(n-k,n) by V -> V^perp twisted by w0: conjugate partitions
    # and reversed x.  The two sides run different class orders and block
    # solves, and the identity reaches the mixed terms, d >= 1 with positive
    # x-degree.  Every key up to the default d_max, zeros included.
    from eqschubert import GrassContext

    ctx, dual = GrassContext(k, n), GrassContext(n - k, n)
    d_max = default_d_max(ctx)
    assert default_d_max(dual) == d_max
    conj = {p: _conjugate(p, dual) for p in enumerate_classes(ctx)}
    checked = differ = 0
    for u in conj:
        for v in conj:
            for w in conj:
                for d in range(d_max + 1):
                    mine, theirs = eqlr(u, v, w, d), eqlr(conj[u], conj[v], conj[w], d)
                    assert theirs == _reversed_x(mine), (u, v, w, d)
                    checked += 1
                    differ += theirs != mine
    assert (checked, differ) == (keys, differ_unreversed)


def test_the_plain_and_mirrored_tables_share_each_diagonal_check(
    gr25, cold_state, monkeypatch
):
    # both tables check every divisor diagonal c_a against elr(sigma(1), a, a),
    # and elr is memoized per (u, v, w), so the mirrored table reads the
    # integral the plain one made: one Atiyah-Bott sum per nonempty class
    classes = enumerate_classes(gr25)
    checked, integrals = [], []
    elr, integrate = quantum_mod.elr, equivariant_mod.integrate

    def recording_elr(u, v, w):
        checked.append((u.parts, v.parts, w.parts))
        return elr(u, v, w)

    def recording_integrate(ctx, factors):
        integrals.append(ctx)
        return integrate(ctx, factors)

    monkeypatch.setattr(quantum_mod, "elr", recording_elr)
    monkeypatch.setattr(equivariant_mod, "integrate", recording_integrate)
    for mirrored in (False, True):
        table = EQTable(gr25, mirrored=mirrored)
        for u in classes:
            for v in classes:
                table.element(u, v)
    diagonals = [((1,), a.parts, a.parts) for a in classes[1:]]
    assert sorted(checked) == sorted(diagonals * 2)
    assert len(integrals) == len(diagonals)
