"""Named verification suites shared by the CLI and the test suite.

Each suite returns a JSON-friendly report with a ``passed`` flag and enough
detail to locate any violation.  Violations never raise: a failing suite is a
result, and the caller decides the exit status.
"""

from __future__ import annotations

from .equivariant import elr_table, gkm_violations, pairing
from .grass import default_d_max, enumerate_classes
from .oracles import quantum_lr_rimhook
from .polyring import Polynomial, _from_T_variables, to_T_variables
from .quantum import eq_table, verify_algebra, verify_positivity


def verify_duality(ctx):
    """Pairing of every class with every opposite class is a Kronecker delta."""
    classes = enumerate_classes(ctx)
    one = Polynomial.const(ctx.r, 1)
    checked = 0
    violations = []
    for u in classes:
        for v in classes:
            expected = one if u == v.dual() else Polynomial.zero(ctx.r)
            checked += 1
            if pairing(u, v) != expected:
                violations.append({"u": list(u.parts), "v": list(v.parts)})
    return {
        "suite": "duality",
        "context": {"k": ctx.k, "n": ctx.n},
        "checked": checked,
        "violations": violations,
        "passed": not violations,
    }


def verify_gkm(ctx):
    """Restriction differences across every edge divide by the edge weight."""
    violations = []
    for family in ("schubert", "opposite"):
        for parts, p1, p2 in gkm_violations(ctx, family):
            violations.append(
                {"family": family, "class": list(parts), "points": [list(p1), list(p2)]}
            )
    return {
        "suite": "gkm",
        "context": {"k": ctx.k, "n": ctx.n},
        "violations": violations,
        "passed": not violations,
    }


def verify_tbasis(ctx, d_max=None):
    """Round-trip every coefficient through the T-variable presentation.

    Each coefficient ``c`` maps to its ``image`` in the T-variables and back.
    When the way back returns ``c``, the image's own round trip holds as
    well (``to_T_variables(c) == image``), so two substitutions per
    coefficient give the verdict of :func:`express_in_T_differences`. A row
    whose way back does not return ``c`` is a violation.
    """
    if d_max is None:
        d_max = default_d_max(ctx)
    checked = 0
    violations = []
    for u, v, w, d, c in eq_table(ctx).rows(d_max):
        checked += 1
        image = to_T_variables(c, ctx.n)
        back = _from_T_variables(image)
        if back != c:
            violations.append({"u": list(u), "v": list(v), "w": list(w), "d": d})
    return {
        "suite": "tbasis",
        "context": {"k": ctx.k, "n": ctx.n},
        "checked": checked,
        "violations": violations,
        "passed": not violations,
    }


def verify_specialization(ctx):
    """Both degenerations of the product table.

    The q = 0 slice must agree with the localization engine's equivariant
    constants as polynomials; the x = 0 slice must agree with the rim-hook
    oracle as integers.
    """
    table = eq_table(ctx)
    localization = elr_table(ctx)
    classes = enumerate_classes(ctx)
    checked = 0
    violations = []
    for i, u in enumerate(classes):
        for v in classes[i:]:
            elem = table.element(u, v)
            for w in classes:
                checked += 1
                expected = localization.get(
                    (u.parts, v.parts, w.parts), Polynomial.zero(ctx.r)
                )
                if elem.get(w, 0) != expected:
                    violations.append(
                        {
                            "kind": "equivariant",
                            "u": list(u.parts),
                            "v": list(v.parts),
                            "w": list(w.parts),
                        }
                    )
                for d in range((u.size + v.size) // ctx.n + 1):
                    checked += 1
                    got = elem.get(w, d).constant_term()
                    if got != quantum_lr_rimhook(u, v, w, d):
                        violations.append(
                            {
                                "kind": "quantum",
                                "u": list(u.parts),
                                "v": list(v.parts),
                                "w": list(w.parts),
                                "d": d,
                            }
                        )
    return {
        "suite": "specialization",
        "context": {"k": ctx.k, "n": ctx.n},
        "checked": checked,
        "violations": violations,
        "passed": not violations,
    }


SUITES = {
    "positivity": lambda ctx, d_max: verify_positivity(ctx, d_max),
    "axioms": lambda ctx, d_max: verify_algebra(ctx),
    "duality": lambda ctx, d_max: verify_duality(ctx),
    "gkm": lambda ctx, d_max: verify_gkm(ctx),
    "tbasis": lambda ctx, d_max: verify_tbasis(ctx, d_max),
    "specialization": lambda ctx, d_max: verify_specialization(ctx),
}
