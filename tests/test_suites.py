"""Every verification suite lives in ``suites`` and reports in one shape."""

import pytest

import eqschubert.quantum as quantum_mod
from eqschubert.suites import SUITES

REPORT_KEYS = {"suite", "context", "violations", "passed"}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_reports_have_one_shape(gr12, gr24, name):
    for ctx in (gr12, gr24):
        report = SUITES[name](ctx, None)
        assert report["suite"] == name
        assert report["context"] == {"k": ctx.k, "n": ctx.n}
        assert report["passed"] is True and report["violations"] == []
        counts = set(report) - REPORT_KEYS
        assert REPORT_KEYS <= set(report)
        assert all(key == "d_max" or key.endswith("checked") for key in counts)
        assert all(type(report[key]) is int for key in counts)


def test_the_engine_defines_no_suite():
    assert [name for name in vars(quantum_mod) if name.startswith("verify")] == []
