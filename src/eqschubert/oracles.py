"""The slow, independent oracle that ``verify`` runs.

Quantum structure constants at x = 0 come from expanding the unrestricted
classical product by exhaustive Littlewood-Richardson tableau enumeration
and reducing each wide shape by n-rim-hooks; the ``specialization`` suite
holds the engine against them.  The engines are never consulted.  The
tests' own oracles (the classical tableau count on classes and the
factorial Schur expansion of the equivariant constants) live under
``tests/``.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ExpansionError
from .grass import _per_context, remove_rim_hooks

# -- classical Littlewood-Richardson by tableau enumeration -------------------


def _lr_coefficient(u, v, w):
    if sum(u) + sum(v) != sum(w):
        return 0
    if len(w) < len(u) or any(w[i] < u[i] for i in range(len(u))):
        return 0
    rows = len(w)
    u = u + (0,) * (rows - len(u))
    if not v:
        return 1
    # Cells of w/u in reverse reading order: rows top to bottom, each row
    # right to left, so the lattice condition is checkable as we go.
    cells = [(i, j) for i in range(rows) for j in range(w[i] - 1, u[i] - 1, -1)]
    nv = len(v)
    counts = [0] * (nv + 1)
    filling = {}

    def place(pos):
        if pos == len(cells):
            return 1
        i, j = cells[pos]
        # neighbors already placed: the cell to the right, the cell above;
        # cells inside u never enter the filling, so get() handles the edge
        right = filling.get((i, j + 1))
        above = filling.get((i - 1, j))
        total = 0
        for a in range(1, min(i + 1, nv) + 1):
            if counts[a] >= v[a - 1]:
                continue
            if a > 1 and counts[a] >= counts[a - 1]:
                continue
            if right is not None and a > right:
                continue
            if above is not None and a <= above:
                continue
            counts[a] += 1
            filling[(i, j)] = a
            total += place(pos + 1)
            del filling[(i, j)]
            counts[a] -= 1
        return total

    return place(0)


def _partitions_of(total, max_parts, max_first):
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(total, max_first), 0, -1):
        for rest in _partitions_of(total - first, max_parts - 1, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def wide_lr_expansion(u, v, k):
    """Expansion of the product over all shapes with at most k rows."""
    total = sum(u) + sum(v)
    out = {}
    first_bound = (u[0] if u else 0) + (v[0] if v else 0)
    for shape in _partitions_of(total, k, max(first_bound, 0)):
        c = _lr_coefficient(u, v, shape)
        if c:
            out[shape] = c
    return out


# -- quantum structure constants by rim-hook reduction ------------------------


@_per_context
def rim_reduce(ctx, shape):
    """Reduce a wide shape into the box by removing n-rim-hooks.

    Returns (box shape, sign, number of hooks) or None when the reduction
    dies.  Every removal order is explored and must agree; the final shape is
    an n-core, so a shape already inside the box is returned unchanged.
    """
    if (not shape or shape[0] <= ctx.width) and len(shape) <= ctx.k:
        return (shape, 1, 0)
    outcomes = []
    for new_shape, sign in remove_rim_hooks(shape, ctx):
        sub = rim_reduce(ctx, new_shape)
        outcomes.append(None if sub is None else (sub[0], sign * sub[1], sub[2] + 1))
    if not outcomes:
        return None
    if any(o != outcomes[0] for o in outcomes[1:]):
        raise ExpansionError("rim-hook reduction of %r diverged" % (shape,))
    return outcomes[0]


def quantum_lr_rimhook(u, v, w, d):
    """Quantum structure constant at q-degree d via rim-hook reduction."""
    ctx = u.ctx
    if u.size + v.size != w.size + d * ctx.n:
        return 0
    total = 0
    for shape, c in wide_lr_expansion(u.parts, v.parts, ctx.k).items():
        reduced = rim_reduce(ctx, shape)
        if reduced is not None and reduced[0] == w.parts and reduced[2] == d:
            total += reduced[1] * c
    return total
