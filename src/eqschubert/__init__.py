"""Exact Schubert calculus on Gr(k,n): classical, equivariant, quantum.

Public names and submodules are imported on first access (PEP 562), so a
process that only reads the table cache never loads the engine.
"""

from importlib import import_module

# public name -> the submodule that defines it
_EXPORTS = {
    "CacheError": "errors",
    "ContextError": "errors",
    "DimensionMismatchError": "errors",
    "ExpansionError": "errors",
    "FixedPoint": "equivariant",
    "GrassContext": "grass",
    "NonPolynomialError": "errors",
    "Partition": "grass",
    "Polynomial": "polyring",
    "QModuleElement": "quantum",
    "RationalExpression": "polyring",
    "TableSolveError": "errors",
    "add_box_shapes": "grass",
    "default_d_max": "grass",
    "elr": "equivariant",
    "elr_factorial_schur": "oracles",
    "elr_table": "equivariant",
    "enumerate_classes": "grass",
    "eq_chevalley": "quantum",
    "eq_table": "quantum",
    "eqlr": "quantum",
    "fixed_points": "equivariant",
    "forget": "grass",
    "integrate": "equivariant",
    "is_x_nonnegative": "polyring",
    "lr_tableau": "oracles",
    "multiply": "quantum",
    "pairing": "equivariant",
    "partition_of": "equivariant",
    "point_of": "equivariant",
    "quantum_chevalley_shape": "grass",
    "quantum_lr_rimhook": "oracles",
    "remove_rim_hooks": "grass",
    "restrict_schubert": "equivariant",
    "restriction_table": "equivariant",
    "specialize_q0": "quantum",
    "specialize_x0": "quantum",
    "tangent_weights": "equivariant",
    "to_T_variables": "polyring",
    "to_grassmannian_permutation": "grass",
    "verify_algebra": "suites",
    "verify_positivity": "suites",
    "__version__": "version",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(import_module("." + _EXPORTS[name], __name__), name)
    else:
        try:
            value = import_module("." + name, __name__)
        except ModuleNotFoundError as exc:
            if exc.name != "%s.%s" % (__name__, name):
                raise
            raise AttributeError(
                "module %r has no attribute %r" % (__name__, name)
            ) from None
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
