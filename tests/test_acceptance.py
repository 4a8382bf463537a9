"""Acceptance criteria, one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
status lines and timings.  Everything is exact; there are no tolerances to
tune anywhere.
"""

import subprocess
import sys
import time

import pytest

from eqschubert import (
    GrassContext,
    Polynomial,
    elr_factorial_schur,
    elr_table,
    enumerate_classes,
    eq_table,
    lr_tableau,
    multiply,
    pairing,
    quantum_lr_rimhook,
    specialize_q0,
    specialize_x0,
    verify_algebra,
    verify_positivity,
)
from eqschubert.equivariant import gkm_violations
from eqschubert.polyring import to_T_variables, y_to_x

from conftest import homogeneous_of_degree

CONTEXTS = [GrassContext(1, 2), GrassContext(2, 4), GrassContext(2, 5), GrassContext(3, 6)]

TIME_BUDGETS = {(2, 4): 10.0, (3, 6): 600.0}


def _announce(name, detail=""):
    print("ACCEPTANCE %s: PASS%s" % (name, " (%s)" % detail if detail else ""))


def _all_pairs(ctx):
    classes = enumerate_classes(ctx)
    for i, u in enumerate(classes):
        for v in classes[i:]:
            yield u, v


def test_positivity():
    details = []
    for ctx in CONTEXTS:
        start = time.monotonic()
        report = verify_positivity(ctx)
        elapsed = time.monotonic() - start
        assert report["passed"], report["violations"]
        budget = TIME_BUDGETS.get((ctx.k, ctx.n))
        if budget is not None:
            assert elapsed < budget
        details.append(
            "Gr(%d,%d): %d checked, %.2fs" % (ctx.k, ctx.n, report["checked"], elapsed)
        )
    _announce("positivity", "; ".join(details))


def test_specialization_to_equivariant():
    total = 0
    for ctx in CONTEXTS:
        localization = elr_table(ctx)
        zero = Polynomial.zero(ctx.r)
        for u, v in _all_pairs(ctx):
            q0 = specialize_q0(multiply(u, v))
            for w in enumerate_classes(ctx):
                # multiply is in x, the localization table in y
                expected = y_to_x(localization.get((u.parts, v.parts, w.parts), zero))
                assert q0.get(w, zero) == expected, (u.parts, v.parts, w.parts)
                total += 1
    _announce("specialization-equivariant", "%d triples over 4 contexts" % total)


def test_specialization_to_quantum():
    total = 0
    for ctx in CONTEXTS:
        for u, v in _all_pairs(ctx):
            x0 = specialize_x0(multiply(u, v))
            for w in enumerate_classes(ctx):
                for d in range((u.size + v.size) // ctx.n + 1):
                    assert x0.get((w, d), 0) == quantum_lr_rimhook(u, v, w, d), (
                        u.parts,
                        v.parts,
                        w.parts,
                        d,
                    )
                    total += 1
    _announce("specialization-quantum", "%d tuples over 4 contexts" % total)


def test_grading():
    # homogeneity is asserted inside every table build; re-check every
    # stored coefficient here so the criterion is exercised explicitly
    total = 0
    for ctx in CONTEXTS:
        for u, v in _all_pairs(ctx):
            for (w, d), c in multiply(u, v).terms.items():
                assert homogeneous_of_degree(c, u.size + v.size - sum(w) - d * ctx.n)
                assert d * ctx.n <= u.size + v.size
                total += 1
    _announce("grading", "%d stored coefficients" % total)


def test_algebra_axioms():
    details = []
    for ctx in CONTEXTS:
        report = verify_algebra(ctx)
        assert report["passed"], report["violations"][:3]
        exhaustive = len(enumerate_classes(ctx)) ** 3 <= 1000
        if exhaustive:
            assert report["associativity_checked"] == len(enumerate_classes(ctx)) ** 3
        else:
            assert report["associativity_checked"] >= 500
        details.append(
            "Gr(%d,%d): %d triples%s"
            % (
                ctx.k,
                ctx.n,
                report["associativity_checked"],
                "" if exhaustive else " (sampled)",
            )
        )
    _announce("algebra-axioms", "; ".join(details))


def test_duality():
    total = 0
    for ctx in CONTEXTS:
        one = Polynomial.const(ctx.r, 1)
        zero = Polynomial.zero(ctx.r)
        for u in enumerate_classes(ctx):
            for v in enumerate_classes(ctx):
                assert pairing(u, v) == (one if u == v.dual() else zero)
                total += 1
    _announce("duality", "%d pairs over 4 contexts" % total)


def test_gkm_consistency():
    for ctx in CONTEXTS:
        for family in ("schubert", "opposite"):
            assert gkm_violations(ctx, family) == []
    _announce("gkm", "both families, 4 contexts")


def test_T_variable_corollary():
    # the engine's coordinates are the T presentation, y_j = T_1 - T_{j+1},
    # so each exported x coefficient must map by to_T_variables to the
    # engine's own y entry with y_j replaced by T_1 - T_{j+1}
    total = 0
    for ctx in CONTEXTS:
        m = ctx.n
        weights = [Polynomial.variable(m, 1) - Polynomial.variable(m, j + 1) for j in range(1, m)]
        table = eq_table(ctx)
        for u, v in _all_pairs(ctx):
            engine = table.element(u, v).terms
            exported = multiply(u, v).terms
            assert exported.keys() == engine.keys()
            for (w, d), c in exported.items():
                image = to_T_variables(c, m)
                assert image == engine[(w, d)].substitute(weights, m)
                total += 1
    _announce("t-basis-corollary", "%d coefficients mapped to T" % total)


def test_oracle_equivalence():
    fs_checked = 0
    for k, n in ((2, 4), (2, 5), (3, 6)):
        ctx = GrassContext(k, n)
        localization = elr_table(ctx)
        zero = Polynomial.zero(ctx.r)
        for u, v in _all_pairs(ctx):
            for w in enumerate_classes(ctx):
                # the oracle is in x, the localization table in y
                expected = y_to_x(localization.get((u.parts, v.parts, w.parts), zero))
                assert elr_factorial_schur(u, v, w) == expected
                fs_checked += 1
    lr_checked = 0
    for ctx in CONTEXTS:
        for u, v in _all_pairs(ctx):
            x0 = specialize_x0(multiply(u, v))
            for w in enumerate_classes(ctx):
                assert x0.get((w, 0), 0) == lr_tableau(u, v, w)
                lr_checked += 1
                for d in range((u.size + v.size) // ctx.n + 1):
                    assert quantum_lr_rimhook(u, v, w, d) >= 0
    _announce(
        "oracle-equivalence",
        "%d factorial-Schur triples, %d classical triples" % (fs_checked, lr_checked),
    )


def test_determinism():
    outputs = []
    for _ in range(2):
        result = subprocess.run(
            [sys.executable, "-m", "eqschubert.cli", "table", "--k", "2", "--n", "5"],
            capture_output=True,
            check=True,
        )
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0]
    _announce("determinism", "two cold runs, %d bytes each" % len(outputs[0]))


@pytest.fixture(scope="module", autouse=True)
def _warm_small_tables():
    # touching the smallest context first keeps failure output readable
    eq_table(GrassContext(1, 2))
    yield
