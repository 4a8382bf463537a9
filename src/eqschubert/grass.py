"""Indexing combinatorics for the Schubert basis of Gr(k,n).

Basis classes are partitions inside the k x (n-k) box; the class of the
partition ``a`` has codimension |a|, the empty partition is the unit and the
full box is the point class.  The global class order is by size, then by the
parts tuple with larger first parts earlier, so serialized tables are stable.
A context's tables live in its store (``_per_context``) until ``forget``.
"""

from __future__ import annotations

from collections import defaultdict
from functools import wraps

from .errors import ContextError


def _frozen(self, name, value=None):
    """``__setattr__`` and ``__delattr__`` of the immutable value classes."""
    raise AttributeError("cannot change %s.%s" % (type(self).__name__, name))


class GrassContext:
    """The Grassmannian Gr(k,n) of k-planes in n-space."""

    __slots__ = ("k", "n")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, k, n):
        if not 0 < k < n:
            raise ContextError("need 0 < k < n, got k=%r n=%r" % (k, n))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.k == other.k and self.n == other.n

    def __hash__(self):
        return hash((self.k, self.n))

    def __repr__(self):
        return "GrassContext(k=%r, n=%r)" % (self.k, self.n)

    @property
    def r(self):
        """Number of x-variables (rank of the torus)."""
        return self.n - 1

    @property
    def width(self):
        return self.n - self.k

    @property
    def dim(self):
        """Complex dimension k(n-k)."""
        return self.k * (self.n - self.k)


_STORES = defaultdict(dict)  # context -> {(function, arguments): result}


def _per_context(fn):
    """Memoize ``fn`` in the store of its first argument or of that one's ``ctx``."""

    @wraps(fn)
    def cached(*args):
        store = _STORES[args[0] if args[0].__class__ is GrassContext else args[0].ctx]
        value = store.get((cached, args), store)  # a store never holds itself
        if value is store:
            value = store[cached, args] = fn(*args)
        return value

    return cached


def forget(ctx=None):
    """Drop every table kept for ``ctx``, or for every context when None."""
    for key in list(_STORES) if ctx is None else [ctx]:
        _STORES.pop(key, None)


class Partition:
    """A partition in the k x (n-k) box, with trailing zeros normalized away."""

    __slots__ = ("parts", "ctx")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, parts, ctx):
        parts = tuple(parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "ctx", ctx)
        k, w = ctx.k, ctx.width
        if len(parts) > k:
            raise ValueError("partition %r has more than k=%d rows" % (parts, k))
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts %r are not weakly decreasing" % (parts,))
        if any(p < 0 for p in parts):
            raise ValueError("negative part in %r" % (parts,))
        if parts and parts[0] > w:
            raise ValueError("partition %r exceeds box width %d" % (parts, w))

    @property
    def size(self):
        """Codimension of the class."""
        return sum(self.parts)

    @property
    def sort_key(self):
        """Global class order: by size, then larger first parts earlier."""
        return (self.size, tuple(-p for p in self.padded()))

    def padded(self):
        """Parts as a length-k vector including trailing zeros."""
        return self.parts + (0,) * (self.ctx.k - len(self.parts))

    def dual(self):
        """Box complement, the Poincare-dual index."""
        w = self.ctx.width
        return Partition(tuple(w - p for p in reversed(self.padded())), self.ctx)

    def contains(self, other):
        return all(a >= b for a, b in zip(self.padded(), other.padded()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.parts == other.parts and self.ctx == other.ctx

    def __hash__(self):
        return hash((self.parts, self.ctx))

    def __repr__(self):
        return "Partition(%s; Gr(%d,%d))" % (list(self.parts), self.ctx.k, self.ctx.n)


@_per_context
def enumerate_classes(ctx):
    """All box partitions in the canonical class order."""

    def gen(rows_left, width):
        if rows_left == 0:
            yield ()
            return
        for first in range(width, -1, -1):
            if first == 0:
                yield ()
                continue
            for rest in gen(rows_left - 1, first):
                yield (first,) + rest

    classes = [Partition(parts, ctx) for parts in gen(ctx.k, ctx.width)]
    classes.sort(key=lambda p: p.sort_key)
    return tuple(classes)


def add_box_shapes(p):
    """All partitions obtained from ``p`` by adding one box inside the box."""
    k, w = p.ctx.k, p.ctx.width
    padded = p.padded()
    out = []
    for i in range(k):
        if padded[i] < w and (i == 0 or padded[i - 1] > padded[i]):
            grown = list(padded)
            grown[i] += 1
            out.append(Partition(tuple(grown), p.ctx))
    return out


def quantum_chevalley_shape(p):
    """Index of the q-term of the divisor product, when there is one.

    Defined exactly when the first row is full and no row is empty; drops the
    first row and one box from every other row.
    """
    padded = p.padded()
    if padded[0] == p.ctx.width and padded[-1] >= 1:
        return Partition(tuple(q - 1 for q in padded[1:]), p.ctx)
    return None


def to_grassmannian_permutation(p):
    """The one-line permutation with at most one descent, at position k.

    Position j <= k holds parts[k+1-j] + j; the remaining values fill the
    tail in increasing order.  The first k values, sorted, are the fixed
    point subset attached to ``p``.
    """
    k, n = p.ctx.k, p.ctx.n
    padded = p.padded()
    head = [padded[k - j] + j for j in range(1, k + 1)]
    tail = sorted(set(range(1, n + 1)) - set(head))
    return tuple(head + tail)


def partition_from_permutation(ctx, perm):
    """Inverse of :func:`to_grassmannian_permutation`.

    Only the first k values are read, so a fixed-point subset maps to its
    partition too.
    """
    k = ctx.k
    parts = tuple(perm[k - i] - (k + 1 - i) for i in range(1, k + 1))
    return Partition(parts, ctx)


def remove_rim_hooks(shape, ctx):
    """All single removals of an n-rim hook from a wide shape.

    ``shape`` is a weakly decreasing tuple with at most k rows whose entries
    may exceed the box width.  Each removal is returned as (new shape, sign)
    with sign (-1)**(k - rows spanned); applied repeatedly this reduces a
    wide shape into the box or kills it.
    """
    shape = tuple(shape)
    k, n = ctx.k, ctx.n
    if len(shape) > k:
        raise ValueError("shape %r has more than k=%d rows" % (shape, k))
    if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)) or any(
        s < 0 for s in shape
    ):
        raise ValueError("shape %r is not a partition" % (shape,))
    padded = shape + (0,) * (k - len(shape))
    betas = [padded[i] + (k - 1 - i) for i in range(k)]
    beta_set = set(betas)
    out = []
    for i, b in enumerate(betas):
        nb = b - n
        if nb < 0 or nb in beta_set:
            continue
        spanned = sum(1 for other in betas if nb < other < b) + 1
        sign = -1 if (k - spanned) % 2 else 1
        new_betas = sorted((beta_set - {b}) | {nb}, reverse=True)
        new_parts = tuple(nb2 - (k - 1 - j) for j, nb2 in enumerate(new_betas))
        while new_parts and new_parts[-1] == 0:
            new_parts = new_parts[:-1]
        out.append((new_parts, sign))
    return out


def default_d_max(ctx):
    """Largest q-power compatible with the grading for any product."""
    return -(-2 * ctx.dim // ctx.n)
