"""The equivariant quantum product on the Schubert basis of Gr(k,n).

The divisor product is built, not transcribed: its classical part adds one
box in every legal row, its diagonal coefficient is the closed form of
sigma(1)|a (Knutson-Tao), checked against localization, and its q-term
has coefficient exactly one because the grading leaves no room for a
correction (degree 1 + |a| - (|a|-n+1) - n = 0) while the constant term
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
references that climb toward the full box or strictly drop (w, d).  At
d = 0 no step is needed unless both factors lie inside the target: since
sigma(u)|w = 0 unless u is inside w, C[u,v,w,0] vanishes otherwise.

When the target equals a factor (w = o, say) the relation couples all the
unknowns X_a = C[a,o,o,d] to each other, so those are solved as one block.
Its solutions are X_a = A_a + B_a X_o, and since the localized Chevalley
rule (c_o - c_a) sigma(a)|o = sum of sigma(a+)|o (Knutson-Tao) solves its
homogeneous part, B_a = sigma(a)|o / W with W = sigma(o)|o, the product of
the positive tangent weights at o's point (``equivariant.own_restriction``).
So from the box downward the rows a not inside o, which never see X_o, and
the polynomials P_a = W X_a - sigma(a)|o X_o of the rows inside o (P_o = 0)
each take one exact division, and the unit row pins
X_o = W X_empty - P_empty.  The rows inside o then follow from the
relation, one exact division each, and the unit and divisor rows check
them, and with them W, against the localization diagonal.  Block solves
only consult strictly smaller blocks, lower q-degrees and lower targets, so
the whole table is well founded.

Every division is by a gap c_w - c_a, a linear form.  The table keeps one
``polyring.linear_plan`` per gap and hands ``polyring.divide_linear`` the
nonzero references of each relation as signed values, so no right-hand
side is summed before it is divided.

The recursion runs on class positions in ``enumerate_classes`` order over
one graph per context, built by ``EQTable``: the add-box edges a -> a+ and
the q-edge a -> a-hat, with the inverses w -> w- and w -> qparent(w) read
off by inverting those two maps.  Only the public methods take partitions.

``EQTable`` computes in the engine coordinates y of ``equivariant``, the
torus characters, where its memo is far sparser than in the simple roots x
(on Gr(3,7), 93,204 terms against 454,865).  ``eqlr``, ``multiply`` and
``eq_chevalley`` return x, converted by ``polyring.y_to_x``.
"""

from __future__ import annotations

from .equivariant import _shared_form, divisor_restriction, elr, own_restriction, point_of
from .errors import TableSolveError
from .grass import (
    Partition,
    _per_context,
    add_box_shapes,
    enumerate_classes,
    quantum_chevalley_shape,
    shared_context,
)
from .polyring import (
    Polynomial,
    _key_degree,
    add_into,
    add_product_into,
    divide_linear,
    finish_terms,
    linear_plan,
    shared_zero,
    y_to_x,
)


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
        return self.terms.get((w.parts, d), shared_zero(self.ctx.r))

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
    """Memoized table of all structure constants for one context, in y.

    ``mirrored`` flips which factor the difference relation reduces; the
    mirrored table must coincide with the plain one, which is how
    commutativity is verified as a computation rather than a tautology.
    Each table keeps its own products (``element``) and its own equal
    values (``_store``), so the mirrored one recomputes every product and
    every value it is asked for.
    """

    def __init__(self, ctx, mirrored=False):
        self.ctx = ctx
        self.mirrored = mirrored
        self._classes = classes = enumerate_classes(ctx)
        self._index = index = {p.parts: i for i, p in enumerate(classes)}
        self._size = [p.size for p in classes]
        self._up = [[index[m.parts] for m in add_box_shapes(p)] for p in classes]
        hats = [quantum_chevalley_shape(p) for p in classes]
        self._qshape = [None if h is None else index[h.parts] for h in hats]
        self._down = [[] for _ in classes]
        self._qparent = [None] * len(classes)
        for i in reversed(range(len(classes))):
            for j in self._up[i]:
                self._down[j].append(i)
            if self._qshape[i] is not None:
                self._qparent[self._qshape[i]] = i
        # _inside[w]: the positions of the classes contained in w
        self._inside = []
        for i in range(len(classes)):
            self._inside.append({i}.union(*(self._inside[j] for j in self._down[i])))
        self._chev = {}
        self._coeff = {}
        self._values = {}
        self._elements = {}
        self._keys = {}
        self._gaps = {}
        self._blocks_running = set()
        self._zero = shared_zero(ctx.r)
        self._one = Polynomial.const(ctx.r, 1)

    # -- the divisor product --------------------------------------------------

    def chevalley_terms(self, a):
        """sigma(1) * sigma(a) as a term map (parts, d) -> coefficient.

        The diagonal c_a is ``divisor_restriction`` at a's point, as in the
        restriction walk; ``TableSolveError`` unless its x image is
        ``elr(sigma(1), a, a)``.
        """
        cached = self._chev.get(a.parts)
        if cached is not None:
            return cached
        classes, i = self._classes, self._index[a.parts]
        terms = {(classes[j].parts, 0): self._one for j in self._up[i]}
        diag = divisor_restriction(self.ctx, point_of(a).subset)
        if y_to_x(diag) != elr(classes[1], a, a):
            raise TableSolveError("divisor diagonal for %r disagrees with elr" % (a.parts,))
        if not diag.is_zero:
            terms[(a.parts, 0)] = diag
        if self._qshape[i] is not None:
            terms[(classes[self._qshape[i]].parts, 1)] = self._one
        self._chev[a.parts] = terms
        return terms

    # -- structure constants ----------------------------------------------------

    def coefficient(self, u, v, w, d):
        """The polynomial on q^d sigma(w) in sigma(u) * sigma(v)."""
        index = self._index
        return self._coefficient(index[u.parts], index[v.parts], index[w.parts], d)

    def _coefficient(self, iu, iv, iw, d):
        if d < 0:
            return self._zero
        size = self._size
        degree = size[iu] + size[iv] - size[iw] - d * self.ctx.n
        if degree < 0:
            return self._zero
        if d == 0 and not (iu in self._inside[iw] and iv in self._inside[iw]):
            return self._zero  # sigma(u)|w = 0 unless u is inside w
        if iu > iv:
            iu, iv = iv, iu
        key = (iu, iv, iw, d)
        cached = self._coeff.get(key)
        if cached is not None:
            return cached
        # positions 0 and 1 hold the unit and the divisor; c_z is C[1,z,z,0]
        if iu == 0:
            value = self._one if (iv == iw and d == 0) else self._zero
        elif iu == 1:
            terms = self.chevalley_terms(self._classes[iv])
            value = terms.get((self._classes[iw].parts, d), self._zero)
        elif iw == iu or iw == iv:
            self._solve_block(iw, d)
            return self._coeff[key]
        else:
            value = self._difference_step(iu, iv, iw, d)
        return self._store(key, value, degree)

    def _named(self, key):
        """A key of class positions with each class named by its parts."""
        return tuple(self._classes[i].parts for i in key[:-1]) + key[-1:]

    def _store(self, key, value, degree):
        """Memoize ``value`` under ``key`` and return the stored copy.

        One pass over the terms checks that every monomial has ``degree``
        and rebuilds the polynomial on the table's shared key objects
        (``_keys`` maps a key to its first-seen object and its degree), so
        equal monomials in different entries are one int.  Equal values are
        one polynomial too: ``_values`` maps each to its first-seen copy,
        so an export converts each distinct value once.  Every zero is
        stored as the one ``_zero``.
        """
        if not value.terms:
            self._coeff[key] = self._zero
            return self._zero
        shared = self._keys
        terms = {}
        for k, c in value.terms.items():
            entry = shared.get(k)
            if entry is None:
                entry = shared[k] = (k, _key_degree(k))
            if entry[1] != degree:
                raise TableSolveError(
                    "coefficient %r is not homogeneous of degree %d"
                    % (self._named(key), degree)
                )
            terms[entry[0]] = c
        value = Polynomial(value.nvars, terms)
        value = self._coeff[key] = self._values.setdefault(value, value)
        return value

    def _gap(self, iw, ia):
        """The ``linear_plan`` of the divisor c_w - c_a of the relation,
        built and checked once per pair.  Each c_z is stored homogeneous of
        degree one, so the difference is a linear form."""
        plan = self._gaps.get((iw, ia))
        if plan is None:
            gap = self._coefficient(1, iw, iw, 0) - self._coefficient(1, ia, ia, 0)
            if gap.is_zero:
                raise TableSolveError("vanishing divisor difference")
            plan = self._gaps[(iw, ia)] = linear_plan(_shared_form(self.ctx, gap))
        return plan

    def _known_tail(self, ia, io, iw, d):
        """The nonzero reference terms of the difference relation that never
        touch the unknowns of the current step: lower q-degree and lower
        targets.  They come as a fresh list of ``(value, sign)``, for the
        caller to extend and hand to ``divide_linear``."""
        refs = []
        ahat = self._qshape[ia]
        if ahat is not None:
            refs.append((self._coefficient(ahat, io, iw, d - 1), 1))
        for wm in self._down[iw]:
            refs.append((self._coefficient(ia, io, wm, d), -1))
        qp = self._qparent[iw]
        if qp is not None and d >= 1:
            refs.append((self._coefficient(ia, io, qp, d - 1), -1))
        return [ref for ref in refs if ref[0].terms]

    def _difference_step(self, iu, iv, iw, d):
        """Solve the associativity relation for one off-diagonal target."""
        ia, io = (iv, iu) if self.mirrored else (iu, iv)
        refs = self._known_tail(ia, io, iw, d)
        for up in self._up[ia]:
            value = self._coefficient(up, io, iw, d)
            if value.terms:
                refs.append((value, 1))
        plan = self._gap(iw, ia)
        if not refs:
            return self._zero
        value = divide_linear(self.ctx.r, refs, plan)
        if value is None:
            raise TableSolveError(
                "inexact division for %r" % (self._named((iu, iv, iw, d)),)
            )
        return value

    def _solve_block(self, it, d):
        """Solve all C[a,t,t,d] at once, pinned by W = sigma(t)|t (see the
        module docstring), storing every row; the memo keeps it from
        running twice."""
        key = (it, d)
        if key in self._blocks_running:
            raise TableSolveError("re-entered block %r" % (self._named(key),))
        self._blocks_running.add(key)
        try:
            self._solve_block_inner(key)
        finally:
            self._blocks_running.discard(key)

    def _solve_block_inner(self, key):
        it, d = key
        r = self.ctx.r
        inside = self._inside[it]
        weight = own_restriction(self._classes[it])
        rows, known, pinned = {}, {}, {it: self._zero}
        for ia in range(len(self._classes) - 1, -1, -1):
            if ia == it:
                continue
            # No grading shortcut here: rows whose value is forced to zero
            # still carry their relation downward, and for d >= 1 the unit
            # row below them is the only thing that pins X_t.
            acc, refs = {}, self._known_tail(ia, it, it, d)
            for up in self._up[ia]:
                if up not in inside:
                    if rows[up].terms:
                        refs.append((rows[up], 1))
                elif self._down[up][-1] == ia:  # P_up has no reader below ia
                    add_into(acc, pinned.pop(up))
                else:
                    add_into(acc, pinned[up])
            if ia not in inside:
                rows[ia] = self._block_row(key, ia, refs)
                continue
            known[ia] = refs
            tail = {}  # summed first: W times the sum takes far fewer products
            for value, sign in refs:
                add_into(tail, value, sign)
            add_product_into(acc, weight, Polynomial(r, tail))
            dividend = ((finish_terms(r, acc), 1),)
            pinned[ia] = divide_linear(r, dividend, self._gap(it, ia))
            if pinned[ia] is None:
                raise TableSolveError("inexact block solve %r" % (self._named(key),))
        x_t = (weight if d == 0 else self._zero) - pinned[0]
        rows[it] = self._store((it, it, it, d), x_t, self._size[it] - d * self.ctx.n)
        for ia in sorted(inside - {it}, reverse=True):
            refs = known[ia]
            for up in self._up[ia]:
                if up in inside and rows[up].terms:
                    refs.append((rows[up], 1))
            rows[ia] = self._block_row(key, ia, refs)

    def _block_row(self, key, ia, refs):
        """X_a = (sum X_a+ + tail_a) / (c_t - c_a) in the block ``key``, its
        nonzero references ``refs`` as ``(value, sign)``, stored, or checked
        if a is the unit or the divisor."""
        it, d = key
        row = (min(ia, it), max(ia, it), it, d)
        value = divide_linear(self.ctx.r, refs, self._gap(it, ia))
        if value is None:
            raise TableSolveError("inexact block row %r" % (self._named(row),))
        if ia > 1:
            return self._store(row, value, self._size[ia] - d * self.ctx.n)
        if ia == 0:
            expected = self._one if d == 0 else self._zero
        else:
            expected = self._coefficient(1, it, it, d)
        if value != expected:
            raise TableSolveError(
                "block %r disagrees with its anchor row" % (self._named(key),)
            )
        return value

    # -- assembled products --------------------------------------------------------

    def element(self, u, v, keep=True):
        """The full product sigma(u) * sigma(v), its terms in export order:
        by q-power, then the class order.

        The table keeps one element per unordered pair of classes, so
        ``element(u, v) is element(v, u)``.  With ``keep`` false a product
        not kept yet is built and returned but not kept: a walk that asks
        for each pair once holds no element.  Each product is built from
        the public ``coefficient``, one call per target and q-power, so a
        wrapper of ``coefficient`` sees every key a product needs.
        """
        iu, iv = self._index[u.parts], self._index[v.parts]
        key = (iu, iv) if iu <= iv else (iv, iu)
        elem = self._elements.get(key)
        if elem is not None:
            return elem
        n = self.ctx.n
        total = u.size + v.size
        terms = {}
        for dd in range(total // n + 1):
            for w, size in zip(self._classes, self._size):
                if size + dd * n > total:
                    break
                c = self.coefficient(u, v, w, dd)
                if not c.is_zero:
                    terms[(w.parts, dd)] = c
        elem = QModuleElement(self.ctx, terms)
        if keep:
            self._elements[key] = elem
        return elem

    def rows(self, d_max):
        """Every nonzero (u, v, w, d, poly) with d <= d_max, partitions as
        parts tuples, in export order: pairs once with u <= v in the class
        order, then by d, then w in the class order.  It visits each pair
        once, so it keeps no element it builds."""
        classes = self._classes
        for i, u in enumerate(classes):
            for v in classes[i:]:
                for (w, d), c in self.element(u, v, keep=False).terms.items():
                    if d <= d_max:
                        yield u.parts, v.parts, w, d, c

    def circ(self, elem, t):
        """Multiply a module element by a basis class.

        The products of each target (w, d) fold into one term map by
        ``polyring.add_product_into``, and each map becomes a polynomial
        once, by ``finish_terms``.
        """
        sums = {}
        for (parts, e), c in elem.terms.items():
            z = self._classes[self._index[parts]]
            for (w, d), c2 in self.element(z, t).terms.items():
                acc = sums.get((w, d + e))
                if acc is None:
                    acc = sums[(w, d + e)] = {}
                add_product_into(acc, c, c2)
        r = self.ctx.r
        return QModuleElement(
            self.ctx, {key: finish_terms(r, acc) for key, acc in sums.items()}
        )


@_per_context
def eq_table(ctx):
    return EQTable(ctx)


def _in_x(ctx, terms):
    """The module element of a term map in y, its coefficients mapped to x."""
    return QModuleElement(ctx, {key: y_to_x(c) for key, c in terms.items()})


def eq_chevalley(p):
    """The divisor product sigma(1) * sigma(p), in x."""
    return _in_x(p.ctx, eq_table(p.ctx).chevalley_terms(p))


def multiply(u, v):
    """The equivariant quantum product of two basis classes, in x."""
    ctx = shared_context(u, v)
    return _in_x(ctx, eq_table(ctx).element(u, v).terms)


def eqlr(u, v, w, d):
    """Single structure constant, in x; zero whenever the grading is negative."""
    return y_to_x(eq_table(shared_context(u, v, w)).coefficient(u, v, w, d))

