"""Run the eqschubert CLI with a span around every call into each layer.

Usage: python3 bench/shim.py SPANS_FILE OP_ID CLI_ARG...

The wrappers are installed from outside the package: every binding site of a
traced function is replaced, in the module that defines it and in each module
that imported it (``quantum.elr``, ``suites.elr_table``, ``cli.table_json``,
...), and every class attribute bound to a traced method (``__radd__`` is
``__add__``).  The spans stay in memory and are written to SPANS_FILE when
the CLI exits; the CLI's output bytes and exit code are unchanged.  The
tracer assumes one thread, which holds for the CLI's default ``--workers``.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

from spans import Recorder

# span name -> (module, attribute path) of each traced function
FUNCTIONS = {
    "equivariant.restrict": ("equivariant", "restrict_schubert"),
    "equivariant.restriction_table": ("equivariant", "restriction_table"),
    "equivariant.elr": ("equivariant", "elr"),
    "equivariant.elr_table": ("equivariant", "elr_table"),
    "equivariant.integrate": ("equivariant", "integrate"),
    "equivariant.pairing": ("equivariant", "pairing"),
    "equivariant.gkm": ("equivariant", "gkm_violations"),
    "render.table_entries": ("render", "table_entries"),
    "render.serialize": ("render", "table_json"),
    "render.table_csv": ("render", "table_csv"),
    "render.poly_text": ("render", "poly_text"),
    "cache.load": ("cache", "load"),
    "cache.store": ("cache", "store"),
    "oracles.rimhook": ("oracles", "quantum_lr_rimhook"),
}

# span name -> (module, class, method names); the names share one span name
METHODS = {
    "polyring.add": ("polyring", "Polynomial", ("__add__",)),
    "polyring.mul": ("polyring", "Polynomial", ("__mul__",)),
    "polyring.divide_exact": ("polyring", "Polynomial", ("divide_exact",)),
    "polyring.substitute": ("polyring", "Polynomial", ("substitute",)),
    "polyring.rational": (
        "polyring",
        "RationalExpression",
        ("add", "mul", "reduced", "expect_polynomial"),
    ),
    "quantum.chevalley": ("quantum", "EQTable", ("chevalley_terms",)),
    "quantum.element": ("quantum", "EQTable", ("element",)),
    "quantum.circ": ("quantum", "EQTable", ("circ",)),
}


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "eqschubert" or name.startswith("eqschubert."))
    ]


def _rebind(orig, traced):
    """Replace ``orig`` at every module-level binding site in the package."""
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, traced)


def _rebind_method(cls, orig, traced):
    for attr, value in list(vars(cls).items()):
        if value is orig:
            setattr(cls, attr, traced)


def _notes(rec, package):
    """Counters taken from the arguments and results of traced calls."""
    Polynomial = package.polyring.Polynomial
    cache_path = package.cache.cache_path
    seen_tables = {}

    def mul(args, result):
        a, b = args
        products = len(a.terms) * (1 if isinstance(b, int) else len(b.terms))
        rec.count("polyring.mul.term_products", products)

    def divide(args, result):
        divisor = args[1]
        if result is None:
            rec.count("polyring.divide_exact.failed")
        if isinstance(divisor, Polynomial) and divisor.degree() == 1:
            rec.count("polyring.divide_exact.linear")

    def restriction_table(args, result):
        if id(result) not in seen_tables:
            seen_tables[id(result)] = result
            rec.count("equivariant.restriction_entries", len(result.entries))

    def rows(args, result):
        rec.count("render.rows", len(result))

    def payload(args, result):
        # exports are ASCII, so characters are bytes
        rec.count("render.payload_bytes", len(result))

    def load(args, result):
        path = cache_path(*args)
        if result is not None:
            rec.count("cache.hits")
        if os.path.exists(path):
            rec.count("cache.bytes_read", os.path.getsize(path))

    def store(args, result):
        rec.count("cache.bytes_written", os.path.getsize(result))

    return {
        "polyring.mul": mul,
        "polyring.divide_exact": divide,
        "equivariant.restriction_table": restriction_table,
        "render.table_entries": rows,
        "render.serialize": payload,
        "render.table_csv": payload,
        "cache.load": load,
        "cache.store": store,
    }


def _coefficient_classifier(rec):
    """Name each ``EQTable.coefficient`` call from its public arguments.

    A call whose grading is negative is trivial.  Otherwise its key is
    canonical (smaller factor first).  A repeated key is a memo hit; a
    first-time key with a factor of size 0 or 1 is an anchor row; a
    first-time key whose target equals a factor opens its block (target,
    d) the first time that block is met; any other first-time key is a
    difference step.
    """
    plain = rec.name_id("quantum.coefficient")
    step = rec.name_id("quantum.diff_step")
    block = rec.name_id("quantum.block")
    seen = set()
    blocks = set()

    def classify(args):
        table, u, v, w, d = args
        if d < 0 or u.size + v.size - w.size - d * table.ctx.n < 0:
            return plain
        if u.sort_key > v.sort_key:
            u, v = v, u
        rec.count("quantum.keyed")
        key = (id(table), u.parts, v.parts, w.parts, d)
        if key in seen:
            rec.count("quantum.memo_hits")
            return plain
        seen.add(key)
        rec.count("quantum.coefficients_solved")
        if u.size < 2:
            return plain
        if w == u or w == v:
            block_key = (id(table), w.parts, d)
            if block_key in blocks:
                return plain
            blocks.add(block_key)
            return block
        return step

    return classify


def install(rec):
    """Wrap every traced function and method of the imported package."""
    import eqschubert.cli  # noqa: F401  (imports every layer)

    package = sys.modules["eqschubert"]
    notes = _notes(rec, package)
    for span, (module, attr) in FUNCTIONS.items():
        mod = importlib.import_module("eqschubert." + module)
        orig = getattr(mod, attr)
        _rebind(orig, rec.wrap(orig, span, note=notes.get(span)))
    for span, (module, cls_name, attrs) in METHODS.items():
        cls = getattr(importlib.import_module("eqschubert." + module), cls_name)
        for attr in attrs:
            orig = vars(cls)[attr]
            _rebind_method(cls, orig, rec.wrap(orig, span, note=notes.get(span)))
    table_cls = package.quantum.EQTable
    orig = vars(table_cls)["coefficient"]
    _rebind_method(
        table_cls,
        orig,
        rec.wrap(orig, "quantum.coefficient", classify=_coefficient_classifier(rec)),
    )
    grass = package.grass
    for attr, value in list(vars(grass).items()):
        if (
            callable(value)
            and not isinstance(value, type)
            and not attr.startswith("_")
            and getattr(value, "__module__", None) == grass.__name__
        ):
            _rebind(value, rec.wrap(value, "grass"))
    suites = package.suites.SUITES
    for name, fn in list(suites.items()):
        suites[name] = rec.wrap(fn, "suites." + name)


def main():
    spans_path, op = sys.argv[1], sys.argv[2]
    start = time.perf_counter()
    import eqschubert.cli as cli

    import_s = time.perf_counter() - start
    rec = Recorder()
    install(rec)
    sys.argv = ["eqschubert", *sys.argv[3:]]
    try:
        rec.wrap(cli.main, "cli.main")()
    finally:
        rec.dump(spans_path, op, {"import_s": import_s})


if __name__ == "__main__":
    main()
