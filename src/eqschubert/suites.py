"""Named verification suites shared by the CLI and the test suite.

Each suite returns a JSON-friendly report, built by ``_report``, with a
``passed`` flag and enough detail to locate any violation.  Violations never
raise: a failing suite is a result, and the caller decides the exit status.
An engine error still raises (an inexact localization sum raises
``NonPolynomialError``), and the command line exits 3 on it.
"""

from __future__ import annotations

import random
from collections import Counter

from .equivariant import elr_table, gkm_violations, pairing
from .grass import Partition, default_d_max, enumerate_classes
from .oracles import quantum_lr_rimhook
from .polyring import (
    Polynomial,
    _lane_groups,
    _packed_lanes,
    _x_columns,
    shared_zero,
    to_T_variables,
    y_to_x,
)
from .quantum import EQTable, QModuleElement, eq_table

MAX_TRIPLES = 1000
SAMPLE_SIZE = 500
SAMPLE_SEED = 7


def _report(suite, ctx, violations, **counts):
    """One suite's report: its name, context, violations and verdict, plus
    the suite's own counts (``checked``, ``d_max``, ``*_checked``)."""
    return dict(
        suite=suite,
        context={"k": ctx.k, "n": ctx.n},
        violations=violations,
        passed=not violations,
        **counts,
    )


def _where(**classes):
    """A violation's classes, each named by the list of its parts."""
    return {key: list(p.parts) for key, p in classes.items()}


def verify_positivity(ctx, d_max=None):
    """Check nonnegativity in x of every structure constant up to d_max.

    Each distinct value object is checked once, on its ``_x_columns``
    column of x coefficients, which must hold no negative one.  Every key
    whose value has a negative x coefficient is a violation, in key order."""
    if d_max is None:
        d_max = default_d_max(ctx)
    table = eq_table(ctx)
    classes = enumerate_classes(ctx)
    keys, values = [], []
    for i, u in enumerate(classes):
        for v in classes[i:]:
            for w in classes:
                # the grading leaves no term past q^((|u|+|v|) // n)
                for d in range(min(d_max, (u.size + v.size) // ctx.n) + 1):
                    if u.size + v.size - w.size - d * ctx.n < 0:
                        continue
                    keys.append((u, v, w, d))
                    values.append(table.coefficient(u, v, w, d))
    bad = set()
    for _, _, items in _x_columns(values):
        for column, positions in items:
            # a zero value has no keys, so its column is empty
            if min(column, default=0) < 0:
                bad.update(positions)
    violations = [
        dict(_where(u=u, v=v, w=w), d=d) for i, (u, v, w, d) in enumerate(keys) if i in bad
    ]
    return _report("positivity", ctx, violations, d_max=d_max, checked=len(keys))


def verify_algebra(ctx):
    """Unit, commutativity and associativity of the product.

    Commutativity is checked by recomputing every product with the mirrored
    recursion, on a table of its own that is dropped before the
    associativity check.  Associativity is exhaustive up to ``MAX_TRIPLES`` triples;
    beyond that ``SAMPLE_SIZE`` triples are drawn with seed ``SAMPLE_SEED``.

    Triple (u, v, w) compares (u v) w with (v w) u, so each side is a
    ``circ`` of an unordered pair's product by a class.  Each distinct
    side is computed once: its uses are counted up front, and its result
    is held only until the last triple that needs it.
    """
    classes = enumerate_classes(ctx)
    table = eq_table(ctx)
    mirrored = EQTable(ctx, mirrored=True)
    failures = []
    empty = Partition((), ctx)
    for v in classes:
        if table.element(empty, v) != QModuleElement.basis(v):
            failures.append(dict(_where(v=v), law="unit"))
    comm_checked = 0
    for i, u in enumerate(classes):
        for v in classes[i:]:
            comm_checked += 1
            if table.element(u, v) != mirrored.element(u, v):
                failures.append(dict(_where(u=u, v=v), law="commutativity"))
    del mirrored
    if len(classes) ** 3 <= MAX_TRIPLES:
        triples = [(u, v, w) for u in classes for v in classes for w in classes]
    else:
        rng = random.Random(SAMPLE_SEED)
        triples = [
            (rng.choice(classes), rng.choice(classes), rng.choice(classes))
            for _ in range(SAMPLE_SIZE)
        ]

    def sides(u, v, w):
        """(u v) w and (v w) u, each keyed by its unordered pair and class."""
        return (frozenset((u, v)), w), (frozenset((v, w)), u)

    uses = Counter(key for triple in triples for key in sides(*triple))
    held = {}

    def product(key, a, b, c):
        """circ(element(a, b), c), held until the last triple that uses it."""
        value = held.pop(key, None)
        if value is None:
            value = table.circ(table.element(a, b), c)
        uses[key] -= 1
        if uses[key]:
            held[key] = value
        return value

    for u, v, w in triples:
        left, right = sides(u, v, w)
        if product(left, u, v, w) != product(right, v, w, u):
            failures.append(dict(_where(u=u, v=v, w=w), law="associativity"))
    return _report(
        "axioms",
        ctx,
        failures,
        unit_checked=len(classes),
        commutativity_checked=comm_checked,
        associativity_checked=len(triples),
    )


def verify_duality(ctx):
    """Pairing of every class with every opposite class is a Kronecker delta."""
    classes = enumerate_classes(ctx)
    one = Polynomial.const(ctx.r, 1)
    violations = []
    for u in classes:
        for v in classes:
            expected = one if u == v.dual() else Polynomial.zero(ctx.r)
            if pairing(u, v) != expected:
                violations.append(_where(u=u, v=v))
    return _report("duality", ctx, violations, checked=len(classes) ** 2)


def verify_gkm(ctx):
    """Restriction differences across every edge divide by the edge weight."""
    violations = []
    for family in ("schubert", "opposite"):
        for parts, p1, p2 in gkm_violations(ctx, family):
            violations.append(
                {"family": family, "class": list(parts), "points": [list(p1), list(p2)]}
            )
    return _report("gkm", ctx, violations)


def _tbasis_failing(values, m):
    """The positions i where ``to_T_variables(y_to_x(c), m)`` differs from
    ``c.substitute(weights, m)``, c = ``values[i]`` and weights the images
    T_1 - T_{j+1} of the y_j, each route run once per ``_lane_groups``
    group on its values packed in signed lanes.

    A group's values are packed once (``_packed_lanes``), and both routes
    run on that one packed y polynomial.  They only add coefficients and
    multiply them by integers that do not depend on the coefficients, so
    they are Z-linear, and the packed int each forms at a monomial is the
    sum of its lanes' per-value coefficients there.

    The lane width is proven: every coefficient either route forms for a
    value p of degree d, final or intermediate, is at most
    ``|p|_1 * (2 * nvars)**d`` in absolute value.  Each step adds
    coefficients and multiplies them by binomials and signs, so by the
    triangle inequality a coefficient is at most the one the same steps
    form from the absolute values of p's coefficients with every sign +.
    Those never cancel, so each is at most its step's result at all ones:
    a sum over the terms c * y^a of p of |c| times |a| <= d factors, one
    per variable occurrence, each the number of terms of that variable's
    image at that step.  Under a partial y -> x chain the image of y_j is a
    0/1 sum of at most nvars variables; under a partial x -> T chain after
    it each of those x_i has at most 2 terms (T_i + T_{i+1}), so at most
    ``2 * nvars``; Horner's images T_1 + T_{j+1} have 2, and its powers and
    partial products are sub-sums of their full expansion.  A group's
    lanes hold that bound (``_lane_groups`` with spread 2), so at every
    step a packed int is zero exactly when all its lanes are: the packed
    routes visit the union of the per-value routes' terms, so they meet the
    exponent cap exactly when one of those does, and their images are equal
    exactly when every lane's are.  A group whose images differ, or whose bound
    passes 63 bits, is rechecked value by value: only the per-value check
    names a failing value.
    """
    weights = [Polynomial.variable(m, 1) - Polynomial.variable(m, j + 1) for j in range(1, m)]
    bad = set()
    for nvars, size, group in _lane_groups(values, 2):
        if size is not None:
            packed = Polynomial(nvars, _packed_lanes([c for c, _ in group], size))
            if to_T_variables(y_to_x(packed), m) == packed.substitute(weights, m):
                continue
        for c, positions in group:
            if to_T_variables(y_to_x(c), m) != c.substitute(weights, m):
                bad.update(positions)
    return bad


def verify_tbasis(ctx, d_max=None):
    """Check every exported coefficient against the engine in the T-variables.

    The engine's coordinates are the T presentation: ``y_j = T_1 - T_{j+1}``,
    as ``x_j = T_j - T_{j+1}``.  So each table value ``c``, in y, converted
    to x as the exports convert it, must map by :func:`to_T_variables`
    to ``c`` with each y_j replaced by T_1 - T_{j+1}.  That binds the
    exported x coefficient, the engine's entry and the conversion.  Both
    routes run once per lane group of the distinct values, on the group's
    one packed y polynomial (``_tbasis_failing``); a group that fails is
    rechecked value by value, and every row of a value whose two images
    differ is a violation, in row order.
    """
    if d_max is None:
        d_max = default_d_max(ctx)
    rows = list(eq_table(ctx).rows(d_max))
    bad = _tbasis_failing([row[4] for row in rows], ctx.n)
    violations = [
        {"u": list(u), "v": list(v), "w": list(w), "d": d}
        for i, (u, v, w, d, _) in enumerate(rows)
        if i in bad
    ]
    return _report("tbasis", ctx, violations, checked=len(rows))


def verify_specialization(ctx):
    """Both degenerations of the product table.

    The q = 0 slice must agree with the localization engine's equivariant
    constants as polynomials; the x = 0 slice must agree with the rim-hook
    oracle as integers.
    """
    table = eq_table(ctx)
    localization = elr_table(ctx)
    classes = enumerate_classes(ctx)
    zero = shared_zero(ctx.r)
    checked = 0
    violations = []
    for i, u in enumerate(classes):
        for v in classes[i:]:
            elem = table.element(u, v)
            for w in classes:
                checked += 1
                expected = localization.get((u.parts, v.parts, w.parts), zero)
                if elem.get(w, 0) != expected:
                    violations.append(dict(_where(u=u, v=v, w=w), kind="equivariant"))
                for d in range((u.size + v.size) // ctx.n + 1):
                    checked += 1
                    got = elem.get(w, d).constant_term()
                    if got != quantum_lr_rimhook(u, v, w, d):
                        violations.append(
                            dict(_where(u=u, v=v, w=w), kind="quantum", d=d)
                        )
    return _report("specialization", ctx, violations, checked=checked)


SUITES = {
    "positivity": lambda ctx, d_max: verify_positivity(ctx, d_max),
    "axioms": lambda ctx, d_max: verify_algebra(ctx),
    "duality": lambda ctx, d_max: verify_duality(ctx),
    "gkm": lambda ctx, d_max: verify_gkm(ctx),
    "tbasis": lambda ctx, d_max: verify_tbasis(ctx, d_max),
    "specialization": lambda ctx, d_max: verify_specialization(ctx),
}
