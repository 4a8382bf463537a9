"""Exception types shared across the package."""


class ContextError(ValueError):
    """Invalid Grassmannian parameters (need 0 < k < n)."""


class DimensionMismatchError(ValueError):
    """Operands live over different variable sets."""


class NonPolynomialError(ArithmeticError):
    """A localization sum failed to clear its denominator.

    This always indicates an inconsistent restriction table or a bug, never
    a legitimate value.
    """


class ExpansionError(ArithmeticError):
    """A brute-force expansion went wrong: a triangular basis expansion hit a
    non-partition leading term, or two rim-hook removal orders disagreed."""


class TableSolveError(RuntimeError):
    """The multiplication-table recursion hit an unsolvable step."""


class CacheError(RuntimeError):
    """On-disk table cache is unreadable or fails its checksum."""
