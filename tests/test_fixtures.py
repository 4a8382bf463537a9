"""The checked-in oracle fixture file must match a fresh oracle run, byte
for byte.

Run this file as a script to rewrite the file from a fresh run::

    python tests/test_fixtures.py
"""

import json
from pathlib import Path

from eqschubert import GrassContext, default_d_max, enumerate_classes, quantum_lr_rimhook
from eqschubert.render import poly_json

from reference_oracles import elr_factorial_schur, lr_tableau

FIXTURE_PATH = Path(__file__).resolve().parents[1] / "fixtures" / "oracle_fixtures.json"


def build_fixtures():
    """Oracle-stamped values for the small contexts, used as checked-in
    regression data."""
    out = {}
    for k, n in ((1, 2), (2, 4)):
        ctx = GrassContext(k, n)
        label = "Gr(%d,%d)" % (k, n)
        classes = enumerate_classes(ctx)
        classical = []
        quantum = []
        equivariant = []
        for u in classes:
            for v in classes:
                if u.sort_key > v.sort_key:
                    continue
                for w in classes:
                    c = lr_tableau(u, v, w)
                    if c:
                        classical.append(
                            {"u": list(u.parts), "v": list(v.parts),
                             "w": list(w.parts), "value": c}
                        )
                    for d in range(1, default_d_max(ctx) + 1):
                        q = quantum_lr_rimhook(u, v, w, d)
                        if q:
                            quantum.append(
                                {"u": list(u.parts), "v": list(v.parts),
                                 "w": list(w.parts), "d": d, "value": q}
                            )
                    poly = elr_factorial_schur(u, v, w)
                    if not poly.is_zero:
                        equivariant.append(
                            {"u": list(u.parts), "v": list(v.parts),
                             "w": list(w.parts), "poly": poly_json(poly)}
                        )
        out[label] = {
            "classical_lr": classical,
            "quantum_lr": quantum,
            "equivariant_lr": equivariant,
        }
    return out


def fixture_bytes():
    """The bytes of the fixture file of a fresh oracle run."""
    return (json.dumps(build_fixtures(), sort_keys=True, indent=1) + "\n").encode("utf-8")


def test_fixture_file_is_fresh():
    assert FIXTURE_PATH.read_bytes() == fixture_bytes(), "rerun python tests/test_fixtures.py"


def test_fixture_file_spot_values():
    with open(FIXTURE_PATH, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    gr24 = data["Gr(2,4)"]
    classical = {
        (tuple(r["u"]), tuple(r["v"]), tuple(r["w"])): r["value"]
        for r in gr24["classical_lr"]
    }
    assert classical[((1,), (1,), (2,))] == 1
    assert classical[((1,), (1,), (1, 1))] == 1
    quantum = {
        (tuple(r["u"]), tuple(r["v"]), tuple(r["w"]), r["d"]): r["value"]
        for r in gr24["quantum_lr"]
    }
    assert quantum[((1,), (2, 2), (1,), 1)] == 1
    assert quantum[((2,), (1, 1), (), 1)] == 1
    assert ((2,), (2,), (), 1) not in quantum
    assert all(v > 0 for v in quantum.values())


if __name__ == "__main__":
    FIXTURE_PATH.write_bytes(fixture_bytes())
    print("wrote %s" % FIXTURE_PATH)
