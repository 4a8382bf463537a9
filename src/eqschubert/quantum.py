"""The equivariant quantum product on the Schubert basis of Gr(k,n).

The divisor product is built, not transcribed: its classical part adds one
box in every legal row, its diagonal coefficient is computed by localization,
and its q-term has coefficient exactly one because the grading leaves no room
for a correction (degree 1 + |a| - (|a|-n+1) - n = 0) while the constant term
is pinned against the rim-hook count by the quantum specialization.

Every other structure constant C[u,v,w,d] is forced by commutativity and
associativity with the divisor.  Writing c_z for the diagonal divisor
coefficient, associativity of (divisor, sigma(a), sigma(o)) gives

    (c_w - c_a) C[a,o,w,d] =   sum over a+ in addbox(a) of C[a+,o,w,d]
                             + C[a-hat,o,w,d-1]
                             - sum over w- of C[a,o,w-,d]
                             - C[a,o,qparent(w),d-1]

The diagonal coefficients c_z are pairwise distinct, so whenever the target
differs from both factors this solves one unknown by an exact division, with
references that climb toward the full box or strictly drop (w, d).

When the target equals a factor (w = o, say) the relation couples all the
unknowns X_a = C[a,o,o,d] to each other, so those are solved as one block:
sweeping a downward from the box expresses every X_a as an affine-rational
function of the single symbol X_o, and the known unit row X_empty pins the
symbol.  Block solves only consult strictly smaller blocks, lower q-degrees
and lower targets, so the whole table is well founded.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .equivariant import elr
from .errors import TableSolveError
from .grass import (
    Partition,
    add_box_shapes,
    default_d_max,
    enumerate_classes,
    quantum_chevalley_parent,
    quantum_chevalley_shape,
)
from .polyring import Polynomial, RationalExpression, is_x_nonnegative


class QModuleElement:
    """Finite combination of q^d * sigma(w) with polynomial coefficients."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms=None):
        self.ctx = ctx
        self.terms = {key: c for key, c in (terms or {}).items() if not c.is_zero}

    @classmethod
    def basis(cls, p, d=0):
        return cls(p.ctx, {(p.parts, d): Polynomial.const(p.ctx.r, 1)})

    def get(self, w, d):
        key = (w.parts if isinstance(w, Partition) else tuple(w), d)
        return self.terms.get(key, Polynomial.zero(self.ctx.r))

    def canonical_items(self):
        """Terms sorted by q-power then class order."""

        def key(item):
            (w, d), _ = item
            return (d, Partition(w, self.ctx).sort_key)

        return sorted(self.terms.items(), key=key)

    def __eq__(self, other):
        return (
            isinstance(other, QModuleElement)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __repr__(self):
        from .render import qelem_text

        return "QModuleElement(%s)" % qelem_text(self)


class EQTable:
    """Memoized table of all structure constants for one context.

    ``mirrored`` flips which factor the difference relation reduces; the
    mirrored table must coincide with the plain one, which is how
    commutativity is verified as a computation rather than a tautology.
    """

    def __init__(self, ctx, mirrored=False):
        self.ctx = ctx
        self.mirrored = mirrored
        self._chev = {}
        self._coeff = {}
        self._blocks_done = set()
        self._blocks_running = set()
        self._zero = Polynomial.zero(ctx.r)
        self._one = Polynomial.const(ctx.r, 1)

    # -- the divisor product --------------------------------------------------

    def chevalley_terms(self, a):
        """sigma(1) * sigma(a) as a term map (parts, d) -> coefficient."""
        cached = self._chev.get(a.parts)
        if cached is not None:
            return cached
        terms = {(m.parts, 0): self._one for m in add_box_shapes(a)}
        one_box = Partition((1,), self.ctx)
        diag = elr(one_box, a, a)
        if not (diag.is_zero or diag.is_homogeneous_of_degree(1)):
            raise TableSolveError("divisor diagonal for %r is not linear" % (a.parts,))
        if not diag.is_zero:
            terms[(a.parts, 0)] = diag
        qshape = quantum_chevalley_shape(a)
        if qshape is not None:
            terms[(qshape.parts, 1)] = self._one
        self._chev[a.parts] = terms
        return terms

    def chevalley_diagonal(self, a):
        return self.chevalley_terms(a).get((a.parts, 0), self._zero)

    # -- structure constants ----------------------------------------------------

    def coefficient(self, u, v, w, d):
        """The polynomial on q^d sigma(w) in sigma(u) * sigma(v)."""
        ctx = self.ctx
        if d < 0:
            return self._zero
        degree = u.size + v.size - w.size - d * ctx.n
        if degree < 0:
            return self._zero
        if u.sort_key > v.sort_key:
            u, v = v, u
        key = (u.parts, v.parts, w.parts, d)
        cached = self._coeff.get(key)
        if cached is not None:
            return cached
        if not u.parts:
            value = self._one if (v.parts == w.parts and d == 0) else self._zero
        elif u.parts == (1,):
            value = self.chevalley_terms(v).get((w.parts, d), self._zero)
        elif w == u or w == v:
            self._solve_block(w, d)
            value = self._coeff[key]
        else:
            value = self._difference_step(u, v, w, d)
        self._store(key, value, degree)
        return value

    def _store(self, key, value, degree):
        if not value.is_homogeneous_of_degree(degree):
            raise TableSolveError(
                "coefficient %r is not homogeneous of degree %d" % (key, degree)
            )
        self._coeff[key] = value

    def _known_tail(self, a, o, w, d):
        """The reference terms of the difference relation that never touch
        the unknowns of the current step: lower q-degree and lower targets."""
        tail = self._zero
        ahat = quantum_chevalley_shape(a)
        if ahat is not None:
            tail = tail + self.coefficient(ahat, o, w, d - 1)
        for wm in _corner_removals(w):
            tail = tail - self.coefficient(a, o, wm, d)
        qp = quantum_chevalley_parent(w)
        if qp is not None and d >= 1:
            tail = tail - self.coefficient(a, o, qp, d - 1)
        return tail

    def _difference_step(self, u, v, w, d):
        """Solve the associativity relation for one off-diagonal target."""
        a, o = (v, u) if self.mirrored else (u, v)
        rhs = self._known_tail(a, o, w, d)
        for up in add_box_shapes(a):
            rhs = rhs + self.coefficient(up, o, w, d)
        divisor = self.chevalley_diagonal(w) - self.chevalley_diagonal(a)
        if divisor.is_zero:
            raise TableSolveError("vanishing divisor difference")
        value = rhs.divide_exact(divisor)
        if value is None:
            raise TableSolveError(
                "inexact division for %r" % ((u.parts, v.parts, w.parts, d),)
            )
        return value

    def _solve_block(self, t, d):
        """Solve all C[a,t,t,d] at once.

        Every X_a is expressed as A_a + B_a * X_t with factored-rational
        A, B by sweeping a from the box downward; the unit row then pins
        X_t, and the divisor row is left over as a consistency check.
        """
        block_key = (t.parts, d)
        if block_key in self._blocks_done:
            return
        if block_key in self._blocks_running:
            raise TableSolveError("re-entered block %r" % (block_key,))
        self._blocks_running.add(block_key)
        try:
            self._solve_block_inner(t, d)
        finally:
            self._blocks_running.discard(block_key)
        self._blocks_done.add(block_key)

    def _solve_block_inner(self, t, d):
        ctx = self.ctx
        zero_r = RationalExpression(self._zero)
        one_r = RationalExpression(self._one)
        classes = sorted(enumerate_classes(ctx), key=lambda p: p.sort_key, reverse=True)
        affine = {t.parts: (zero_r, one_r)}
        c_t = self.chevalley_diagonal(t)
        for a in classes:
            if a == t:
                continue
            # No grading shortcut here: rows whose value is forced to zero
            # still carry their relation downward, and for d >= 1 the unit
            # row below them is the only thing that pins X_t.
            sum_a, sum_b = zero_r, zero_r
            for up in add_box_shapes(a):
                pa, pb = affine[up.parts]
                sum_a = sum_a.add(pa)
                sum_b = sum_b.add(pb)
            sum_a = sum_a.add(RationalExpression(self._known_tail(a, t, t, d)))
            ell = c_t - self.chevalley_diagonal(a)
            if ell.is_zero:
                raise TableSolveError("coincident divisor diagonals")
            inv = RationalExpression(self._one, (ell,))
            affine[a.parts] = (sum_a.mul(inv), sum_b.mul(inv))
        anchor = self._one if d == 0 else self._zero
        a0, b0 = affine[()]
        residual = RationalExpression(anchor).add(a0.neg())
        if b0.is_zero:
            raise TableSolveError("singular block %r" % ((t.parts, d),))
        num = residual.numerator * b0.scale
        for f, m in b0.factors.items():
            num = num * f**m
        den = b0.numerator * residual.scale
        for f, m in residual.factors.items():
            den = den * f**m
        x_t = num.divide_exact(den)
        if x_t is None:
            raise TableSolveError("inexact block solve %r" % ((t.parts, d),))
        x_t_r = RationalExpression(x_t)
        for a in classes:
            value = (
                x_t
                if a == t
                else affine[a.parts][0].add(affine[a.parts][1].mul(x_t_r)).expect_polynomial()
            )
            if not a.parts:
                expected = anchor
            elif a.parts == (1,):
                expected = self.chevalley_terms(t).get((t.parts, d), self._zero)
            else:
                expected = None
            if expected is not None:
                if value != expected:
                    raise TableSolveError(
                        "block %r disagrees with its anchor row" % ((t.parts, d),)
                    )
                continue
            lo, hi = sorted((a, t), key=lambda p: p.sort_key)
            self._store((lo.parts, hi.parts, t.parts, d), value, a.size - d * ctx.n)

    # -- assembled products --------------------------------------------------------

    def element(self, u, v):
        """The full product sigma(u) * sigma(v)."""
        ctx = self.ctx
        terms = {}
        for dd in range((u.size + v.size) // ctx.n + 1):
            for w in enumerate_classes(ctx):
                if w.size + dd * ctx.n > u.size + v.size:
                    continue
                c = self.coefficient(u, v, w, dd)
                if not c.is_zero:
                    terms[(w.parts, dd)] = c
        return QModuleElement(ctx, terms)

    def rows(self, d_max):
        """Every nonzero (u, v, w, d, poly) with d <= d_max, partitions as
        parts tuples, in export order: pairs once with u <= v in the class
        order, then by d, then w in the class order."""
        classes = enumerate_classes(self.ctx)
        for i, u in enumerate(classes):
            for v in classes[i:]:
                for (w, d), c in self.element(u, v).canonical_items():
                    if d <= d_max:
                        yield u.parts, v.parts, w, d, c

    def circ(self, elem, t):
        """Multiply a module element by a basis class."""
        terms = {}
        for (z, e), c in elem.terms.items():
            for (w, d), c2 in self.element(Partition(z, self.ctx), t).terms.items():
                key = (w, d + e)
                terms[key] = terms[key] + c * c2 if key in terms else c * c2
        return QModuleElement(self.ctx, terms)


@lru_cache(maxsize=None)
def eq_table(ctx, mirrored=False):
    return EQTable(ctx, mirrored)


def eq_chevalley(p):
    """The divisor product sigma(1) * sigma(p)."""
    return QModuleElement(p.ctx, eq_table(p.ctx).chevalley_terms(p))


def multiply(u, v):
    """The equivariant quantum product of two basis classes."""
    return eq_table(u.ctx).element(u, v)


def eqlr(u, v, w, d):
    """Single structure constant; zero whenever the grading is negative."""
    return eq_table(u.ctx).coefficient(u, v, w, d)


def specialize_q0(elem):
    """Drop all positive q-powers; the equivariant limit."""
    ctx = elem.ctx
    return {Partition(w, ctx): c for (w, d), c in elem.terms.items() if d == 0}


def specialize_x0(elem):
    """Set every x to zero; the quantum limit as integers."""
    out = {}
    for (w, d), c in elem.terms.items():
        value = c.evaluate_at_zero()
        if value:
            out[(Partition(w, elem.ctx), d)] = value
    return out


def _corner_removals(p):
    """All partitions obtained by removing one box of p."""
    padded = p.padded()
    out = []
    for i in range(p.ctx.k):
        if padded[i] > 0 and (i == p.ctx.k - 1 or padded[i] > padded[i + 1]):
            shrunk = list(padded)
            shrunk[i] -= 1
            out.append(Partition(tuple(shrunk), p.ctx))
    return out


# -- verification reports ---------------------------------------------------------


def verify_positivity(ctx, d_max=None, coefficient_fn=None):
    """Check nonnegativity of every structure constant up to d_max."""
    if d_max is None:
        d_max = default_d_max(ctx)
    if coefficient_fn is None:
        coefficient_fn = eq_table(ctx).coefficient
    classes = enumerate_classes(ctx)
    checked = 0
    violations = []
    for i, u in enumerate(classes):
        for v in classes[i:]:
            for w in classes:
                for d in range(d_max + 1):
                    if u.size + v.size - w.size - d * ctx.n < 0:
                        continue
                    c = coefficient_fn(u, v, w, d)
                    checked += 1
                    if not is_x_nonnegative(c):
                        violations.append(
                            {
                                "u": list(u.parts),
                                "v": list(v.parts),
                                "w": list(w.parts),
                                "d": d,
                            }
                        )
    return {
        "suite": "positivity",
        "context": {"k": ctx.k, "n": ctx.n},
        "d_max": d_max,
        "checked": checked,
        "violations": violations,
        "passed": not violations,
    }


def verify_algebra(ctx, max_triples=1000, sample_size=500, seed=7):
    """Unit, commutativity and associativity of the product.

    Commutativity is checked by recomputing every product with the mirrored
    recursion.  Associativity is exhaustive when the number of triples is at
    most ``max_triples`` and uniformly sampled otherwise.
    """
    classes = enumerate_classes(ctx)
    table = eq_table(ctx)
    mirrored = eq_table(ctx, mirrored=True)
    failures = []
    unit_checked = 0
    empty = Partition((), ctx)
    for v in classes:
        unit_checked += 1
        if table.element(empty, v) != QModuleElement.basis(v):
            failures.append({"law": "unit", "v": list(v.parts)})
    comm_checked = 0
    for i, u in enumerate(classes):
        for v in classes[i:]:
            comm_checked += 1
            if table.element(u, v) != mirrored.element(u, v):
                failures.append(
                    {"law": "commutativity", "u": list(u.parts), "v": list(v.parts)}
                )
    total = len(classes) ** 3
    if total <= max_triples:
        triples = [(u, v, w) for u in classes for v in classes for w in classes]
    else:
        rng = random.Random(seed)
        triples = [
            (rng.choice(classes), rng.choice(classes), rng.choice(classes))
            for _ in range(sample_size)
        ]
    for u, v, w in triples:
        left = table.circ(table.element(u, v), w)
        right = table.circ(table.element(v, w), u)
        if left != right:
            failures.append(
                {
                    "law": "associativity",
                    "u": list(u.parts),
                    "v": list(v.parts),
                    "w": list(w.parts),
                }
            )
    return {
        "suite": "axioms",
        "context": {"k": ctx.k, "n": ctx.n},
        "unit_checked": unit_checked,
        "commutativity_checked": comm_checked,
        "associativity_checked": len(triples),
        "violations": failures,
        "passed": not failures,
    }
