import importlib
import pkgutil
from itertools import permutations
from math import comb

import pytest

import eqschubert
from eqschubert import (
    ContextError,
    GrassContext,
    Partition,
    Polynomial,
    enumerate_classes,
    fixed_points,
    integrate,
    point_of,
    restriction_table,
    tangent_weights,
)
from eqschubert.grass import (
    add_box_shapes,
    partition_from_permutation,
    quantum_chevalley_shape,
    remove_rim_hooks,
    to_grassmannian_permutation,
)
from eqschubert.quantum import EQTable

from conftest import homogeneous_of_degree, part

CONTEXTS = [(1, 2), (2, 4), (2, 5), (3, 6)]


def test_context_validation():
    with pytest.raises(ContextError):
        GrassContext(0, 3)
    with pytest.raises(ContextError):
        GrassContext(3, 3)
    with pytest.raises(ContextError):
        GrassContext(4, 2)


def test_a_context_needs_int_k_and_n():
    # a bool or a float would be exported as it is, or fail deep in the engine
    for k, n in [(True, 3), (1, True), (2.0, 4), (2, 4.0), ("2", 4), (None, 2)]:
        with pytest.raises(ContextError):
            GrassContext(k, n)


def test_a_partition_needs_int_parts(gr24):
    # a float part was built and failed later as a KeyError; a bool was kept
    for parts in [(1.5,), (True,), (2, True), (2.0, 1), (1, 0.0), ("1",), (None,)]:
        with pytest.raises(ValueError):
            Partition(parts, gr24)


def test_partition_validation(gr24):
    with pytest.raises(ValueError):
        Partition((3,), gr24)
    with pytest.raises(ValueError):
        Partition((1, 1, 1), gr24)
    with pytest.raises(ValueError):
        Partition((1, 2), gr24)
    assert Partition((2, 1, 0), gr24).parts == (2, 1)


def test_value_classes_compare_hash_and_print_as_values():
    gr24, gr25 = GrassContext(2, 4), GrassContext(2, 5)
    assert GrassContext(2, 4) == gr24 and hash(GrassContext(2, 4)) == hash(gr24)
    assert gr24 != gr25 and gr24 != (2, 4)
    assert repr(gr24) == "GrassContext(k=2, n=4)"
    with pytest.raises(ContextError):
        GrassContext(-1, 2)
    a, b = Partition((2, 1, 0), gr24), Partition((2, 1), gr24)
    assert a == b and hash(a) == hash(b)
    assert a.parts == (2, 1) and a.ctx is gr24
    assert a != Partition((2, 1), gr25) and a != Partition((2,), gr24)
    assert a != (2, 1) and a != ((2, 1), gr24)
    assert len({a, b, Partition((2, 1), GrassContext(2, 4))}) == 1
    assert repr(a) == "Partition([2, 1]; Gr(2,4))"
    assert repr(Partition((), gr24)) == "Partition([]; Gr(2,4))"
    for obj, attr, value in [(gr24, "k", 3), (a, "parts", (1,)), (a, "ctx", gr25)]:
        with pytest.raises(AttributeError):
            setattr(obj, attr, value)
    with pytest.raises(AttributeError):
        gr24.other = 1
    assert (gr24.k, gr24.n, a.parts) == (2, 4, (2, 1))


def test_enumerate_counts_and_order(gr24, gr12, gr36):
    assert [p.parts for p in enumerate_classes(gr24)] == [
        (),
        (1,),
        (2,),
        (1, 1),
        (2, 1),
        (2, 2),
    ]
    assert len(enumerate_classes(gr12)) == 2
    assert len(enumerate_classes(gr36)) == 20
    for k, n in CONTEXTS:
        ctx = GrassContext(k, n)
        classes = enumerate_classes(ctx)
        assert len(classes) == comb(n, k)
        assert len(set(classes)) == len(classes)


def test_dual_examples(gr24, gr36):
    assert part(gr24, 1).dual().parts == (2, 1)
    assert part(gr24).dual().parts == (2, 2)
    assert part(gr36, 3, 1).dual().parts == (3, 2)


def test_dual_involution_and_size():
    for k, n in CONTEXTS:
        ctx = GrassContext(k, n)
        for p in enumerate_classes(ctx):
            assert p.dual().dual() == p
            assert p.size + p.dual().size == ctx.dim


def test_permutation_examples(gr24, gr12):
    assert to_grassmannian_permutation(part(gr24)) == (1, 2, 3, 4)
    assert to_grassmannian_permutation(part(gr24, 2, 2)) == (3, 4, 1, 2)
    assert to_grassmannian_permutation(part(gr12, 1)) == (2, 1)


def test_permutation_against_descent_enumeration():
    # Independent oracle: enumerate every permutation with at most one
    # descent, at position k, and match it to a partition via its code.
    # The fixed-point dictionary of the engine is the first k values.
    for k, n in CONTEXTS:
        ctx = GrassContext(k, n)
        one_descent = []
        for w in permutations(range(1, n + 1)):
            descents = [i for i in range(1, n) if w[i - 1] > w[i]]
            if descents in ([], [k]):
                one_descent.append(w)
        assert len(one_descent) == comb(n, k)
        by_code = {}
        for w in one_descent:
            code = tuple(w[k - i] - (k + 1 - i) for i in range(1, k + 1))
            by_code[code] = w
        for p in enumerate_classes(ctx):
            w = to_grassmannian_permutation(p)
            assert w == by_code[p.padded()]
            assert partition_from_permutation(ctx, w) == p
            subset = point_of(p).subset
            assert subset == w[:k] and partition_from_permutation(ctx, subset) == p


def test_add_box_shapes(gr24, gr36):
    assert {m.parts for m in add_box_shapes(part(gr24, 1))} == {(2,), (1, 1)}
    assert add_box_shapes(part(gr24, 2, 2)) == []
    assert {m.parts for m in add_box_shapes(part(gr36, 2, 1))} == {
        (3, 1),
        (2, 2),
        (2, 1, 1),
    }


def test_add_box_is_one_bigger():
    for k, n in CONTEXTS:
        ctx = GrassContext(k, n)
        classes = set(enumerate_classes(ctx))
        for p in classes:
            for m in add_box_shapes(p):
                assert m in classes
                assert m.size == p.size + 1 and m.contains(p)


def test_quantum_chevalley_shape(gr24):
    assert quantum_chevalley_shape(part(gr24, 2, 2)).parts == (1,)
    assert quantum_chevalley_shape(part(gr24, 2, 1)).parts == ()
    assert quantum_chevalley_shape(part(gr24, 1, 1)) is None
    assert quantum_chevalley_shape(part(gr24, 2)) is None


def test_quantum_chevalley_shape_degree():
    for k, n in CONTEXTS:
        ctx = GrassContext(k, n)
        for p in enumerate_classes(ctx):
            hat = quantum_chevalley_shape(p)
            if hat is not None:
                assert hat.size == p.size - (n - 1) >= 0


def test_engine_graph_inverts_add_box_and_q_shape():
    # the engine reads corner removals and q-parents off its inverted maps;
    # check them against containment and the q-shape, computed independently
    for k, n in CONTEXTS:
        ctx = GrassContext(k, n)
        classes = enumerate_classes(ctx)
        table = EQTable(ctx)
        for i, p in enumerate(classes):
            removals = [
                j for j, m in enumerate(classes) if m.size + 1 == p.size and p.contains(m)
            ]
            assert sorted(table._down[i]) == removals
            hat = quantum_chevalley_shape(p)
            if hat is not None:
                assert classes[table._qparent[classes.index(hat)]] == p
            parent = table._qparent[i]
            if parent is not None:
                assert quantum_chevalley_shape(classes[parent]) == p


def test_remove_rim_hooks(gr24, gr12):
    # Signs follow (-1)**(k - rows spanned), the convention under which the
    # reduced quantum constants come out as nonnegative curve counts.
    assert remove_rim_hooks((2, 1), gr24) == []
    assert remove_rim_hooks((4, 2), gr24) == [((1, 1), 1)]
    assert remove_rim_hooks((3, 3), gr24) == [((2,), 1)]
    assert remove_rim_hooks((4,), gr24) == [((), -1)]
    assert remove_rim_hooks((3, 1), gr24) == [((), 1)]
    assert sorted(remove_rim_hooks((4, 4), gr24)) == [((3, 1), 1), ((4,), -1)]
    assert remove_rim_hooks((2,), gr12) == [((), 1)]


def test_remove_rim_hooks_drops_n_cells(gr36):
    for shape in [(6, 5, 4), (4, 4, 4), (6, 6, 6), (5, 2)]:
        for new, sign in remove_rim_hooks(shape, gr36):
            assert sum(shape) - sum(new) == 6
            assert sign in (-1, 1)


def c1_curve_integral(ctx):
    """Degree of q computed honestly: the first Chern class of the tangent
    bundle integrated over the one-dimensional basis class."""
    width = ctx.width
    curve = Partition((width,) * (ctx.k - 1) + (width - 1,), ctx)
    sigma = restriction_table(ctx, "schubert")
    values = {}
    for pt in fixed_points(ctx):
        c1 = Polynomial.zero(ctx.r)
        for wgt in tangent_weights(pt):
            c1 = c1 + wgt
        values[pt] = (c1 * sigma.restriction(curve, pt),)
    result = integrate(ctx, values)
    assert homogeneous_of_degree(result, 0)
    return result.constant_term()


def test_q_degree_formula_and_oracle():
    for k, n in CONTEXTS:
        ctx = GrassContext(k, n)
        assert c1_curve_integral(ctx) == n


# the caches keyed by no context: a variable count, a linear form or plain
# shapes; every table of a context lives in that context's store
FORM_KEYED_CACHES = {
    "eqschubert.polyring._lanes",
    "eqschubert.polyring._guard_mask",
    "eqschubert.polyring.shared_zero",
    "eqschubert.polyring.linear_plan",
    "eqschubert.polyring._shear_chain",
    "eqschubert.polyring._packer",
    "eqschubert.render._monomial_text",
    "eqschubert.oracles.wide_lr_expansion",
}


def test_only_caches_keyed_by_no_context_are_functools_caches():
    found = set()
    for info in pkgutil.iter_modules(eqschubert.__path__):
        module = importlib.import_module("eqschubert." + info.name)
        for value in vars(module).values():
            if callable(getattr(value, "cache_info", None)):
                found.add("%s.%s" % (value.__module__, value.__qualname__))
    assert found == FORM_KEYED_CACHES
