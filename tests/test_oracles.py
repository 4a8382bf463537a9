import pytest

import eqschubert.oracles as oracles_mod
from eqschubert import (
    ExpansionError,
    Polynomial,
    elr,
    elr_factorial_schur,
    enumerate_classes,
    lr_tableau,
    quantum_lr_rimhook,
)
from eqschubert.oracles import fs_product_expansion, rim_reduce, wide_lr_expansion

from conftest import homogeneous_of_degree, part


def test_lr_examples(gr24):
    assert lr_tableau(part(gr24, 1), part(gr24, 1), part(gr24, 2)) == 1
    assert lr_tableau(part(gr24, 1), part(gr24, 1), part(gr24, 1, 1)) == 1
    assert lr_tableau(part(gr24, 2), part(gr24, 1, 1), part(gr24, 2, 2)) == 0


def test_lr_unit(gr24):
    for v in enumerate_classes(gr24):
        for w in enumerate_classes(gr24):
            assert lr_tableau(part(gr24), v, w) == (1 if v == w else 0)


def test_lr_wide_shapes():
    # raw-tuple interface for shapes outside the box
    assert lr_tableau((2, 1), (2, 1), (4, 2)) == 1
    assert lr_tableau((2, 1), (2, 1), (3, 3)) == 1
    assert lr_tableau((2, 1), (2, 1), (5, 1)) == 0
    assert lr_tableau((2,), (1, 1), (3, 1)) == 1
    assert lr_tableau((2, 1), (2, 1), (2, 2, 1, 1)) == 1


def test_wide_expansion_degree_count():
    # the full product of two hooks: total multiplicity is multinomial
    expansion = wide_lr_expansion((2, 1), (2, 1), 2)
    assert expansion == {(4, 2): 1, (3, 3): 1}


def test_rim_reduce(gr24, gr12):
    assert rim_reduce(gr24, (2, 1)) == ((2, 1), 1, 0)
    assert rim_reduce(gr24, (4, 2)) == ((1, 1), 1, 1)
    assert rim_reduce(gr24, (3, 3)) == ((2,), 1, 1)
    assert rim_reduce(gr24, (4,)) == ((), -1, 1)
    assert rim_reduce(gr24, (4, 4)) == ((), 1, 2)
    assert rim_reduce(gr24, (4, 1)) is None
    assert rim_reduce(gr12, (2,)) == ((), 1, 1)


def test_diverging_rim_hook_removals_raise(gr24, monkeypatch):
    # two removal orders of (4,) ending in the empty shape with opposite signs
    removals = lambda shape, ctx: [((), 1), ((), -1)]
    monkeypatch.setattr(oracles_mod, "remove_rim_hooks", removals)
    with pytest.raises(ExpansionError):
        rim_reduce.__wrapped__(gr24, (4,))


def test_quantum_lr_examples(gr24):
    assert quantum_lr_rimhook(part(gr24, 1), part(gr24, 2, 2), part(gr24, 1), 1) == 1
    assert quantum_lr_rimhook(part(gr24, 2, 1), part(gr24, 2, 1), part(gr24, 2), 1) == 1
    assert (
        quantum_lr_rimhook(part(gr24, 2, 1), part(gr24, 2, 1), part(gr24, 1, 1), 1) == 1
    )
    # the two degree-one products that distinguish the sign convention
    assert quantum_lr_rimhook(part(gr24, 2), part(gr24, 2), part(gr24), 1) == 0
    assert quantum_lr_rimhook(part(gr24, 2), part(gr24, 1, 1), part(gr24), 1) == 1
    assert quantum_lr_rimhook(part(gr24, 2), part(gr24, 2, 2), part(gr24, 1, 1), 1) == 1
    assert quantum_lr_rimhook(part(gr24, 2), part(gr24, 2, 2), part(gr24, 2), 1) == 0
    assert quantum_lr_rimhook(part(gr24, 2, 2), part(gr24, 2, 2), part(gr24), 2) == 1


def test_quantum_lr_p1(gr12):
    assert quantum_lr_rimhook(part(gr12, 1), part(gr12, 1), part(gr12), 1) == 1


def test_quantum_d0_is_classical(gr24):
    for u in enumerate_classes(gr24):
        for v in enumerate_classes(gr24):
            for w in enumerate_classes(gr24):
                assert quantum_lr_rimhook(u, v, w, 0) == lr_tableau(u, v, w)


def test_quantum_lr_nonnegative(gr24, gr25):
    for ctx in (gr24, gr25):
        for u in enumerate_classes(ctx):
            for v in enumerate_classes(ctx):
                for w in enumerate_classes(ctx):
                    for d in range((u.size + v.size) // ctx.n + 1):
                        assert quantum_lr_rimhook(u, v, w, d) >= 0


def test_fs_oracle_unit_and_classical_limit(gr24):
    for v in enumerate_classes(gr24):
        for w in enumerate_classes(gr24):
            value = elr_factorial_schur(part(gr24), v, w)
            assert value == (
                Polynomial.const(gr24.r, 1) if v == w else Polynomial.zero(gr24.r)
            )
    for u in enumerate_classes(gr24):
        for v in enumerate_classes(gr24):
            for w in enumerate_classes(gr24):
                value = elr_factorial_schur(u, v, w)
                assert value.constant_term() == lr_tableau(u, v, w)


def test_fs_oracle_matches_engine(gr24):
    for u in enumerate_classes(gr24):
        for v in enumerate_classes(gr24):
            for w in enumerate_classes(gr24):
                assert elr_factorial_schur(u, v, w) == elr(u, v, w)


def test_fs_expansion_is_triangular(gr24):
    # the expansion of a product supports only shapes of the right size,
    # with the widest coefficients constant
    expansion = fs_product_expansion(gr24, (2, 1), (2, 1))
    for shape, coeff in expansion.items():
        assert homogeneous_of_degree(coeff, 6 - sum(shape))
