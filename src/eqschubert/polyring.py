"""Exact multivariate polynomial arithmetic over the integers.

A polynomial is a sparse map from a packed exponent key to a nonzero
arbitrary-precision integer coefficient.  Exponent vectors pack into a single
Python int, sixteen bits per variable with the first variable in the highest
lanes, so comparing keys as integers is exactly lexicographic comparison of
exponent vectors.  Exponents stay below 2**15, so the top bit of every lane
is a guard bit: ``((k | G) - d) & G == G``, with ``G`` the guard bits of all
lanes, holds exactly when every exponent of ``k`` is at least that of ``d``,
which tests monomial divisibility on packed keys in one subtraction.  A key's
big-endian bytes unpack to its exponents in one ``struct`` call.  Every
variable has complex degree one; the degree of a monomial is the sum of its
exponents.

Exact division takes one of three paths by the divisor's shape.  A monomial
divides in one pass over the dividend.  A linear form (every key a single
lane's unit) divides synthetically in its lead variable, bucket by bucket,
with no heap.  Any other divisor takes Monagan-Pearce heap division
("Sparse polynomial division using a heap", JSC 2011), which is the general
path and the reference the tests hold the other two against.  The linear
path is one kernel, ``divide_linear``, that runs on a plan of the divisor
(``linear_plan``: lead key, lead coefficient, tail, lane shift) and takes
its dividend as a list of signed polynomials, folded straight into its
buckets with no sum built first.  Plans are cached by form in a bounded
``lru_cache``, so each distinct divisor is planned once however often
``divide_exact`` meets it; the quantum table keeps one plan per divisor
and hands the kernel the references of each relation as they are.

Sums of products fold into one term map with ``add_product_into``, a fused
multiply-accumulate that builds no polynomial per product and copies no
partial sum; ``finish_terms`` turns the map into a polynomial once.  It is
the package's one multiply-accumulate kernel: the restriction minors,
``EQTable.circ`` and ``elr_table`` sum their products on it.
``substitute`` evaluates by multivariate Horner on the same kernel, so each
step multiplies by one power of an image instead of building a power
product per term.

``y_to_x`` changes from the torus-character coordinates
y_j = x_1 + ... + x_j, in which the engine computes, to the simple roots x,
by a chain of one-variable shears v_j -> v_j + v_{j-1} on packed keys: a
term whose lane j holds b expands by a precomputed row of key offsets and
binomials, and the terms a shear merges are merged before the next one
runs.  Nothing converts back.  Two more conversions run on the same kernel:
``to_T_variables`` (x_j -> T_j - T_{j+1}, shears v_j -> v_j - v_{j+1}) and
the w0 involution ``w0_involution`` (y_j -> y_{n-1-j} - y_{n-1}: a lane
reversal, then shears v_j -> v_j - v_{n-1}).

``_x_columns`` is the one y -> x boundary that the exports and the
``positivity`` suite read, by columns of digits with no x polynomial per
value: Kronecker packing (Harvey, "Faster polynomial multiplication via
multipoint Kronecker substitution", JSC 2009) across values instead of
across monomials.  The values are grouped by variable count and maximum
key degree (``_lane_groups``); in a group, each y monomial gets one int
whose lane j, a signed digit of a fixed width, is value j's coefficient
(``_packed_lanes``), and the unchanged ``_shear`` runs once on those ints.
A shear only adds coefficients and multiplies them by positive binomials,
which are linear maps, so the packed int of each x monomial is exactly the
sum of its lanes' values, and it is zero only where every lane is: the
chain visits the union of the keys the per-value chains visit, and so
fails the exponent cap exactly when one of them does.  The lane width
comes from a proven bound, ``|p|_1 * nvars**d`` for a value p of maximum
key degree d, which no x coefficient exceeds; a group whose bound passes
63 bits converts value by value.  Only a value of degree past 2**15 can
pass the cap, and over two or more variables its bound passes 63 bits, so
the packed chain never meets the cap.  The ``tbasis`` suite packs the same
groups in lanes of its own proven width and runs its per-value check once
on each group's packed polynomial; a group that fails is rechecked value by
value.

Rational expressions keep the denominator factored as a multiset of positive
primitive linear forms (a map from form to multiplicity).  Localization sums
then cancel denominators factor by factor; nothing is ever divided out
silently.
"""

from __future__ import annotations

import heapq
import struct
from array import array
from functools import lru_cache, reduce
from math import comb, gcd
from operator import or_

from .errors import DimensionMismatchError, NonPolynomialError

_SHIFT = 16
_LANE = (1 << _SHIFT) - 1
_MAX_EXPONENT = (1 << (_SHIFT - 1)) - 1


def _pack(exponents):
    key = 0
    for e in exponents:
        if e < 0 or e > _MAX_EXPONENT:
            raise OverflowError("exponent %r outside packing range" % (e,))
        key = (key << _SHIFT) | e
    return key


@lru_cache(maxsize=None)
def _lanes(nvars):
    """The unpacker of a key's big-endian bytes into its ``nvars`` lanes."""
    return struct.Struct(">%dH" % nvars).unpack


def _unpack(key, nvars):
    return _lanes(nvars)(key.to_bytes(2 * nvars, "big"))


@lru_cache(maxsize=None)
def _guard_mask(nvars):
    """The guard (top) bit of every one of ``nvars`` lanes."""
    return sum(1 << (_SHIFT * i + _SHIFT - 1) for i in range(nvars))


def _key_degree(key):
    return sum(_unpack(key, (key.bit_length() + _SHIFT - 1) // _SHIFT))


class Polynomial:
    """Immutable sparse polynomial with integer coefficients.

    ``terms`` maps packed exponent keys to nonzero coefficients.  Instances
    are treated as immutable values; all operations return new objects.
    """

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars, terms):
        self.nvars = nvars
        self.terms = terms
        self._hash = None

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {0: c} if c else {})

    @classmethod
    def variable(cls, nvars, index):
        """The variable with 1-based ``index``."""
        if not 1 <= index <= nvars:
            raise DimensionMismatchError("variable index %d out of range" % index)
        return cls(nvars, {_pack([1 if i == index - 1 else 0 for i in range(nvars)]): 1})

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max(map(_key_degree, self.terms)) if self.terms else -1

    def constant_term(self):
        return self.terms.get(0, 0)

    def content(self):
        g = 0
        for c in self.terms.values():
            g = gcd(g, c)
        return g

    def canonical_terms(self):
        """(exponent tuple, coefficient) pairs in graded-lex descending order."""
        unpack, size = _lanes(self.nvars), 2 * self.nvars
        rows = []
        for k, c in self.terms.items():
            exps = unpack(k.to_bytes(size, "big"))
            rows.append((sum(exps), exps, c))
        # (degree, exponents) is unique per term, so c is never compared
        rows.sort(reverse=True)
        return [(exps, c) for _, exps, c in rows]

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise DimensionMismatchError(
                "polynomials over %d and %d variables" % (self.nvars, other.nvars)
            )

    def __add__(self, other):
        if isinstance(other, int):
            other = Polynomial.const(self.nvars, other)
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for k, c in b.items():
            c2 = out.get(k, 0) + c
            if c2:
                out[k] = c2
            else:
                del out[k]
        return Polynomial(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.nvars, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = Polynomial.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return Polynomial.zero(self.nvars)
            return Polynomial(self.nvars, {k: c * other for k, c in self.terms.items()})
        self._check(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return Polynomial.zero(self.nvars)
        if len(a) > len(b):
            a, b = b, a
        out = {}
        get = out.get
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = ka + kb
                c = get(k, 0) + ca * cb
                if c:
                    out[k] = c
                else:
                    del out[k]
        # factor lanes stay below 2**15: a lane past the cap sets only its guard bit
        if reduce(or_, out, 0) & _guard_mask(self.nvars):
            raise OverflowError("product exponent above %d" % _MAX_EXPONENT)
        return Polynomial(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = Polynomial.const(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == ({0: other} if other else {})
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            terms = self.terms
            # a constant equals its int (``__eq__``), so it hashes as one
            if terms.keys() <= {0}:
                self._hash = hash(terms.get(0, 0))
            else:
                self._hash = hash((self.nvars, tuple(sorted(terms.items()))))
        return self._hash

    def __repr__(self):
        from .render import poly_text

        return "Polynomial(%d, %s)" % (self.nvars, poly_text(self.canonical_terms()))

    # -- structural operations ----------------------------------------------

    def substitute(self, images, out_nvars):
        """Evaluate with variable i replaced by images[i-1] (all over out_nvars).

        Multivariate Horner: the terms are bucketed by the exponent of the
        first variable and each bucket is substituted in the remaining
        ones.  Walking the buckets from the top exponent down, the running
        sum is multiplied once by the image raised to the gap to the next
        bucket, and that bucket's value is folded into the product.
        """
        if len(images) != self.nvars:
            raise DimensionMismatchError("need one image per variable")
        if any(image.nvars != out_nvars for image in images):
            raise DimensionMismatchError("images must be over %d variables" % out_nvars)
        nvars = self.nvars
        powers = {}

        def power(i, e):
            p = powers.get((i, e))
            if p is None:
                p = powers[(i, e)] = images[i] ** e
            return p

        def horner(items, i):
            # items share their exponents of the first i variables
            if i == nvars:
                ((_, c),) = items
                return Polynomial.const(out_nvars, c)
            shift = _SHIFT * (nvars - 1 - i)
            buckets = {}
            for k, c in items:
                e = (k >> shift) & _LANE
                bucket = buckets.get(e)
                if bucket is None:
                    buckets[e] = [(k, c)]
                else:
                    bucket.append((k, c))
            acc = None
            for e in sorted(buckets, reverse=True):
                inner = horner(buckets[e], i + 1)
                if acc is not None:
                    # inner is a fresh value, so its map can take the product
                    add_product_into(inner.terms, acc, power(i, top - e))
                    inner = finish_terms(out_nvars, inner.terms)
                acc, top = inner, e
            return acc * power(i, top) if top else acc

        if not self.terms:
            return Polynomial.zero(out_nvars)
        return horner(list(self.terms.items()), 0)

    def divide_exact(self, divisor):
        """Exact quotient self / divisor over Z, or None when not divisible."""
        if isinstance(divisor, int):
            if divisor == 0:
                raise ZeroDivisionError("division by zero polynomial")
            out = {}
            for k, c in self.terms.items():
                if c % divisor:
                    return None
                out[k] = c // divisor
            return Polynomial(self.nvars, out)
        self._check(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return self
        if len(divisor.terms) == 1:
            return _divide_monomial(self, divisor)
        plan = linear_plan(divisor)
        if plan is not None:
            return divide_linear(self.nvars, ((self, 1),), plan)
        return _divide_heap(self, divisor)


@lru_cache(maxsize=None)
def shared_zero(nvars):
    """The one zero polynomial over ``nvars`` variables that lookups return
    for a missing key, so a miss builds nothing.  Like every polynomial, it
    is never mutated."""
    return Polynomial.zero(nvars)


# -- exact division by a nonzero divisor, each over the dividend's variables --


def _divide_monomial(dividend, divisor):
    """One pass: every key must clear the divisor's key and every
    coefficient its coefficient."""
    ((dkey, dc),) = divisor.terms.items()
    guard = _guard_mask(dividend.nvars)
    out = {}
    for k, c in dividend.terms.items():
        # a lane of k below the divisor's clears its guard bit
        if ((k | guard) - dkey) & guard != guard or c % dc:
            return None
        out[k - dkey] = c // dc
    return Polynomial(dividend.nvars, out)


@lru_cache(maxsize=4096)
def linear_plan(divisor):
    """The plan of a linear form for ``divide_linear``: ``(lead key, lead
    coefficient, tail, lane shift)``, with the tail the other ``(key,
    coefficient)`` pairs and the shift that of the lead variable's lane;
    None unless every key of ``divisor`` is one lane's unit.  Cached by
    form, since the divisors of a run repeat: a cold Gr(3,8) export walk
    plans 1,036 distinct forms and meets them 5,533 times, and the gaps
    c_w - c_a of Gr(4,8) are 1,106 forms, well inside the bound."""
    keys = divisor.terms
    if not all(k & (k - 1) == 0 and (k.bit_length() - 1) % _SHIFT == 0 for k in keys):
        return None
    lead = max(keys)
    tail = tuple((k, c) for k, c in keys.items() if k != lead)
    return lead, keys[lead], tail, lead.bit_length() - 1


def divide_linear(nvars, parts, plan):
    """Exact quotient of the sum of ``sign * p`` over the ``(p, sign)`` of
    ``parts`` (sign is +-1) by the linear form of ``plan`` (``linear_plan``),
    or None when it does not divide: synthetic division in the form's lead
    variable x_j.

    The parts fold straight into buckets by the exponent of x_j, with no
    sum built first.  Walking the buckets from the top, the terms of
    bucket e divided by the lead coefficient are the quotient terms of
    x_j-exponent e-1, and subtracting them times the tail changes bucket
    e-1 only.  The quotient exists exactly when every such division is
    exact and bucket 0 ends up zero.  Zero coefficients stay in the
    buckets and are skipped, as ``add_product_into`` leaves them.
    """
    lead, lc, tail, shift = plan
    buckets = {}
    for p, sign in parts:
        for k, c in p.terms.items():
            e = (k >> shift) & _LANE
            bucket = buckets.get(e)
            if bucket is None:
                buckets[e] = {k: c if sign > 0 else -c}
            elif sign > 0:
                bucket[k] = bucket.get(k, 0) + c
            else:
                bucket[k] = bucket.get(k, 0) - c
    top = max(buckets, default=0)
    bucket = buckets.get(top, {})
    quotient = {}
    for e in range(top, 0, -1):
        below = buckets.get(e - 1)
        if below is None:
            below = {}
        get = below.get
        for k, c in bucket.items():
            if not c:
                continue
            if c % lc:
                return None
            qc = c // lc
            qk = k - lead
            quotient[qk] = qc
            for tk, tc in tail:
                nk = qk + tk
                below[nk] = get(nk, 0) - qc * tc
        bucket = below
    return None if any(bucket.values()) else Polynomial(nvars, quotient)


def _divide_heap(dividend, divisor):
    """Monagan-Pearce division: the general path, and the reference the
    tests hold the other two against."""
    dlead = max(divisor.terms)
    dlc = divisor.terms[dlead]
    guard = _guard_mask(dividend.nvars)
    dtail = [(k, c) for k, c in divisor.terms.items() if k != dlead]
    work = dict(dividend.terms)
    heap = [-k for k in work]
    heapq.heapify(heap)
    quotient = {}
    while heap:
        k = -heapq.heappop(heap)
        c = work.get(k)
        if not c:
            continue
        # a lane of k below the divisor's clears its guard bit
        if ((k | guard) - dlead) & guard != guard or c % dlc:
            return None
        qk = k - dlead
        qc = c // dlc
        quotient[qk] = qc
        del work[k]
        for tk, tc in dtail:
            nk = qk + tk
            nc = work.get(nk, 0) - qc * tc
            if nc:
                if nk not in work:
                    heapq.heappush(heap, -nk)
                work[nk] = nc
            elif nk in work:
                del work[nk]
    return Polynomial(dividend.nvars, quotient) if not work else None


def add_into(terms, p, sign=1):
    """Fold ``sign * p`` into the term map ``terms`` in place (sign is +-1)."""
    get = terms.get
    for k, c in p.terms.items():
        c = get(k, 0) + c if sign > 0 else get(k, 0) - c
        if c:
            terms[k] = c
        else:
            del terms[k]


def add_product_into(terms, a, b, sign=1):
    """Fold ``sign * a * b`` into the term map ``terms`` in place (sign is
    +-1), the fused multiply-accumulate of the kernel.

    The inner loop keeps the zero coefficients it makes; ``finish_terms``
    drops them and checks the exponent cap once per accumulated map, not
    once per product.
    """
    a, b = a.terms, b.terms
    if len(a) > len(b):
        a, b = b, a
    get = terms.get
    for ka, ca in a.items():
        if sign < 0:
            ca = -ca
        for kb, cb in b.items():
            k = ka + kb
            terms[k] = get(k, 0) + ca * cb


def finish_terms(nvars, terms):
    """The polynomial of a term map built by ``add_product_into``: zeros
    dropped, and ``OverflowError`` if a product passed the exponent cap."""
    # factor lanes stay below 2**15: a lane past the cap sets only its guard bit
    if reduce(or_, terms, 0) & _guard_mask(nvars):
        raise OverflowError("product exponent above %d" % _MAX_EXPONENT)
    return Polynomial(nvars, {k: c for k, c in terms.items() if c})


def is_x_nonnegative(p):
    """True iff every stored coefficient is nonnegative."""
    return all(c > 0 for c in p.terms.values()) if p.terms else True


# -- torus-character coordinates ---------------------------------------------


class _ShearRows(dict):
    """b -> the expansion of (v_j + sign * v_i)**b as (key offset,
    coefficient) pairs ``(e * step, sign**e * C(b, e))`` for e = 0..b, where
    ``step`` moves one unit of exponent from lane j onto lane i; built on
    first use, so a conversion computes no binomial per term."""

    def __init__(self, step, sign):
        super().__init__()
        self.step, self.sign = step, sign

    def __missing__(self, b):
        row = self[b] = [(e * self.step, self.sign**e * comb(b, e)) for e in range(b + 1)]
        return row


@lru_cache(maxsize=None)
def _shear_chain(nvars, conversion):
    """(lane shift of v_j, its rows) of each shear v_j -> v_j + sign * v_i
    of ``conversion`` over ``nvars`` variables, in the order they run:

    * ``"y_to_x"``: v_j -> v_j + v_{j-1}, j = nvars down to 2;
    * ``"to_T"``: v_j -> v_j - v_{j+1}, j = nvars-1 down to 1;
    * ``"w0"``: v_j -> v_j - v_nvars, j = 1 up to nvars-1.
    """
    if conversion == "y_to_x":
        moves, sign = [(j, j - 1) for j in range(nvars, 1, -1)], 1
    elif conversion == "to_T":
        moves, sign = [(j, j + 1) for j in range(nvars - 1, 0, -1)], -1
    elif conversion == "w0":
        moves, sign = [(j, nvars) for j in range(1, nvars)], -1
    else:
        raise ValueError("no shear chain named %r" % (conversion,))
    out = []
    for j, i in moves:
        shift = _SHIFT * (nvars - j)
        out.append((shift, _ShearRows((1 << (_SHIFT * (nvars - i))) - (1 << shift), sign)))
    return tuple(out)


def _shear(nvars, terms, conversion):
    """The chain of one-variable shears ``_shear_chain(nvars, conversion)``
    applied to the term map ``terms`` over ``nvars`` variables.

    Each shear expands every term by the row of its lane-j exponent into a
    fresh term map, so the terms the shear merges are merged before the
    next one.  The exponent cap is checked once per shear's result, as
    ``finish_terms`` does: a shear from lanes below 2**15 sums two of them
    into lane i, which stays below 2**16, so a lane past the cap sets only
    its guard bit and no later shear runs on it.
    """
    guard = _guard_mask(nvars)
    for shift, rows in _shear_chain(nvars, conversion):
        out = {}
        get = out.get
        for k, c in terms.items():
            if not c:
                continue
            b = (k >> shift) & _LANE
            if b:
                for offset, m in rows[b]:
                    nk = k + offset
                    out[nk] = get(nk, 0) + c * m
            else:
                out[k] = get(k, 0) + c
        if reduce(or_, out, 0) & guard:
            raise OverflowError("converted exponent above %d" % _MAX_EXPONENT)
        terms = out
    return Polynomial(nvars, {k: c for k, c in terms.items() if c})


def y_to_x(p):
    """Substitute y_j -> x_1 + ... + x_j: from the torus-character
    coordinates the engine computes in to the simple roots x.

    The shears v_j -> v_j + v_{j-1}, taken for j = nvars down to 2, compose
    to this substitution.  ``OverflowError`` if an exponent passes the cap.
    """
    return _shear(p.nvars, p.terms, "y_to_x")


# the signed array typecode of each lane width in bytes
_LANE_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


def _lane_bytes(bound):
    """The narrowest lane, in bytes, whose signed digit holds every integer
    of absolute value at most ``bound``; None when that takes over 63 bits."""
    for size in _LANE_CODES:
        if bound.bit_length() < 8 * size:
            return size
    return None


def _lane_mask(size, m):
    """The top bit of each of ``m`` lanes of ``size`` bytes, as one int."""
    return int.from_bytes((1 << (8 * size - 1)).to_bytes(size, "little") * m, "little")


def _packed_lanes(values, size):
    """The term map whose int at each y monomial holds, as lane j, value j's
    coefficient there: a signed digit of ``size`` bytes.

    The digits are written into one zeroed array, monomial by monomial, and
    each monomial's row of bytes read as one int; XOR with the top bit of
    every lane (``_lane_mask``), then subtracting it turns two's-complement
    digits into the signed sum."""
    code, m = _LANE_CODES[size], len(values)
    row, mask = m * size, _lane_mask(size, m)
    keys = list(set().union(*(p.terms for p in values)))
    index = {k: r * m for r, k in enumerate(keys)}
    lanes = array(code, bytes(len(keys) * row))
    for j, p in enumerate(values):
        for k, c in p.terms.items():
            lanes[index[k] + j] = c
    view = memoryview(lanes).cast("B")
    return {
        k: (int.from_bytes(view[r : r + row], "little") ^ mask) - mask
        for k, r in zip(keys, range(0, len(view), row))
    }


def _y_to_x_lanes(nvars, values, size, mixed):
    """``(keys, columns)``: the x keys of one y -> x shear chain on the
    ``_packed_lanes`` of ``values``, in graded-lex descending order, and an
    iterator of each value's column of x coefficients aligned with them.
    The caller proves that every coefficient the chain forms fits a lane.

    The shear keeps each term's degree, so unless the group is ``mixed``
    (of more than one y degree) the descending key order is graded-lex.
    The x ints are popped from the chain's map into one byte string, whose
    strided views are the columns."""
    code, m = _LANE_CODES[size], len(values)
    row = m * size
    mask = _lane_mask(size, m)
    # the packed y map is a call temporary, freed after the first shear
    images = _shear(nvars, _packed_lanes(values, size), "y_to_x").terms
    keys = sorted(images, reverse=True)
    if mixed:
        keys.sort(key=lambda k: (_key_degree(k), k), reverse=True)
    blob = bytearray(len(keys) * row)
    for r, k in zip(range(0, len(blob), row), keys):
        blob[r : r + row] = ((images.pop(k) + mask) ^ mask).to_bytes(row, "little")
    del images
    digits = memoryview(blob).cast(code)
    return keys, (digits[j::m] for j in range(m))


def _lane_groups(polys):
    """Yield ``(nvars, d, mixed, norm, group)`` per group of the distinct
    objects of ``polys``, by variable count and maximum key degree d, the
    largest first: ``group`` lists ``(p, positions)`` per object, in the
    order of their first positions; ``mixed`` tells whether the group holds
    more than one y degree, and ``norm`` is its largest ``|p|_1``, the sum
    of a value's coefficients' absolute values."""
    members = {}
    for i, p in enumerate(polys):
        members.setdefault(id(p), (p, []))[1].append(i)
    degree = {k: _key_degree(k) for k in set().union(*(p.terms for p, _ in members.values()))}
    groups, mixed = {}, set()
    for p, positions in members.values():
        degrees = set(map(degree.__getitem__, p.terms))
        group = (p.nvars, max(degrees, default=0))
        groups.setdefault(group, []).append((p, positions))
        if len(degrees) > 1:
            mixed.add(group)
    del members, degree
    # the largest chains first, so later groups reuse the memory they free
    for (nvars, d), group in sorted(groups.items(), reverse=True):
        norm = max(sum(map(abs, p.terms.values())) for p, _ in group)
        yield nvars, d, (nvars, d) in mixed, norm, group


def _x_columns(polys):
    """Yield ``(nvars, keys, items)`` per ``_lane_groups`` group of
    ``polys``, with ``items`` yielding ``(column, positions)`` per object:
    the lanes of ``_y_to_x_lanes``, or on the per-value path keys None and
    the image ``y_to_x(p)`` as the column.  So each distinct object is
    converted once.

    Every x coefficient of a value p of maximum key degree d is at most
    ``|p|_1 * nvars**d``: the substitution sends y^a to at most
    ``nvars**|a|`` monomials with coefficient 1.  A group whose bound
    passes 63 bits goes value by value.
    """
    for nvars, d, mixed, norm, group in _lane_groups(polys):
        values = [p for p, _ in group]
        size = _lane_bytes(norm * nvars**d)
        if size is None:
            keys, columns = None, map(y_to_x, values)
        else:
            keys, columns = _y_to_x_lanes(nvars, values, size, mixed)
        yield nvars, keys, zip(columns, (positions for _, positions in group))


@lru_cache(maxsize=None)
def _packer(nvars):
    """The packer of ``nvars`` lanes into a key's big-endian bytes."""
    return struct.Struct(">%dH" % nvars).pack


def w0_involution(p):
    """Substitute y_j -> y_{r-j} - y_r for j < r and y_r -> -y_r, with
    r = nvars: the involution x_j -> -x_{n-j} (n = r + 1) in y.

    Lanes 1..r-1 are reversed and each term is negated by the parity of
    its lane r, which substitutes y_j -> y_{r-j} and y_r -> -y_r; the
    shears v_j -> v_j - v_r into the last lane, j = 1 up to r-1, finish the
    substitution.  ``OverflowError`` if an exponent passes the cap.
    """
    r = p.nvars
    unpack, pack, size = _lanes(r), _packer(r), 2 * r
    terms = {}
    for k, c in p.terms.items():
        lanes = unpack(k.to_bytes(size, "big"))
        last = lanes[-1]
        terms[int.from_bytes(pack(*lanes[-2::-1], last), "big")] = -c if last & 1 else c
    return _shear(r, terms, "w0")


# -- change of generators ---------------------------------------------------


def to_T_variables(p, m):
    """Substitute x_j -> T_j - T_{j+1}, landing in m = nvars+1 variables.

    Each key gains the empty lane T_m, and the shears v_j -> v_j - v_{j+1},
    taken for j = m-1 down to 1, compose to the substitution.
    ``OverflowError`` if an exponent passes the cap.
    """
    if p.nvars != m - 1:
        raise DimensionMismatchError(
            "polynomial over %d variables cannot map to %d T-variables" % (p.nvars, m)
        )
    return _shear(m, {k << _SHIFT: c for k, c in p.terms.items()}, "to_T")


# -- factored rational expressions -------------------------------------------


def _normalize_linear(form):
    """Split a primitive linear form into (positive form, sign)."""
    if form.is_zero:
        raise ZeroDivisionError("zero linear factor")
    if form.degree() != 1:
        raise ValueError("denominator factor is not linear")
    if form.content() != 1:
        raise ValueError("denominator factor is not primitive")
    if form.terms[max(form.terms)] < 0:
        return -form, -1
    return form, 1


class RationalExpression:
    """numerator / (product of f**m over the factor map).

    ``factors`` maps each positive primitive linear form to its
    multiplicity.  Only the constructor normalizes caller input (the sign
    of each form folds into the numerator); every operation builds its
    result from maps that are already normalized.  Instances are treated
    as immutable values.
    """

    __slots__ = ("numerator", "factors")

    def __init__(self, numerator, factors=()):
        norm = {}
        for f in factors:
            f, sign = _normalize_linear(f)
            if sign < 0:
                numerator = -numerator
            norm[f] = norm.get(f, 0) + 1
        self.numerator = numerator
        self.factors = {} if numerator.is_zero else norm

    @property
    def is_zero(self):
        return self.numerator.is_zero

    def __repr__(self):
        return "RationalExpression(%r, factors=%d)" % (
            self.numerator,
            sum(self.factors.values()),
        )

    def add(self, other):
        """The sum, reduced when both operands are (as every result of
        ``add``, ``mul`` and ``reduced`` is).

        Over the common denominator each numerator is multiplied by the
        forms it lacks.  A form whose multiplicity differs between the
        operands thus divides the multiplied numerator of the operand with
        the smaller multiplicity, but not the other one: that is a reduced
        numerator times other forms, and distinct positive primitive linear
        forms are distinct primes of Z[x].  So it cannot divide the sum,
        and only the forms of equal multiplicity on both sides are tried.
        """
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        num_a, num_b = self.numerator, other.numerator
        # The map's order is the order of later trial divisions.  On the
        # Gr(2,5)..Gr(3,7) tables, in the engine coordinates y, the
        # argument's factors first and self's first both take 30,667
        # divide_exact steps.
        union = dict(other.factors)
        for f, m in self.factors.items():
            union[f] = max(m, union.get(f, 0))
        for f, m in union.items():
            for _ in range(m - self.factors.get(f, 0)):
                num_a = num_a * f
            for _ in range(m - other.factors.get(f, 0)):
                num_b = num_b * f
        num = num_a + num_b
        if num.is_zero:
            return _rational(num, {})
        factors = {}
        for f, m in union.items():
            if self.factors.get(f) == other.factors.get(f):
                num = _cancel(num, ((f, m),), factors)
            else:
                factors[f] = m
        return _rational(num, factors)

    def mul(self, other):
        """The product, reduced when both operands are (as every result of
        ``add``, ``mul`` and ``reduced`` is).

        A reduced numerator is divisible by none of its own factors, and a
        positive primitive linear form is prime in Z[x], so a factor divides
        the product of the numerators exactly as often as it divides the
        other operand's numerator.  Dividing each numerator by the other
        operand's factors alone therefore cancels all that the full product
        could.
        """
        if self.is_zero or other.is_zero:
            return _rational(self.numerator * other.numerator, {})
        factors = {}  # argument first, as in add()
        num_a = _cancel(self.numerator, other.factors.items(), factors)
        num_b = _cancel(other.numerator, self.factors.items(), factors)
        return _rational(num_a * num_b, factors)

    def reduced(self):
        """Cancel common linear factors.  A zero has no factors, so it
        comes back as it is."""
        remaining = {}
        num = _cancel(self.numerator, self.factors.items(), remaining)
        return _rational(num, remaining)

    def expect_polynomial(self):
        """The value as a polynomial; errors unless the denominator clears."""
        r = self.reduced()
        if r.factors:
            raise NonPolynomialError(
                "denominator retains %d linear factor(s)" % sum(r.factors.values())
            )
        return r.numerator


def _rational(numerator, factors):
    """A RationalExpression from an already normalized factor map."""
    out = RationalExpression.__new__(RationalExpression)
    out.numerator = numerator
    out.factors = factors
    return out


def _cancel(num, items, out):
    """Divide ``num`` by each form of the (form, multiplicity) ``items`` up
    to its multiplicity and add the multiplicity left over to ``out``;
    return the quotient.  No form divides a nonzero constant, so none is
    tried on one."""
    for f, m in items:
        while m and (len(num.terms) != 1 or 0 not in num.terms):
            q = num.divide_exact(f)
            if q is None:
                break
            num = q
            m -= 1
        if m:
            out[f] = out.get(f, 0) + m
    return num
