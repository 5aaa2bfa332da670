"""Acceptance suite: every criterion must pass exactly (tolerance zero).

Each test prints one PASS/FAIL line; run with -s to see them streamed,
or rely on the assertion messages.  The same criteria back the CLI verb
`ppv selftest`.
"""

import pytest

from ppv.acceptance import CRITERIA, _result

RUNTIME_BUDGETS = {1: 10.0, 7: 30.0}


@pytest.mark.parametrize(
    "number,name,fn,scaled", CRITERIA, ids=["criterion_%d" % n for n, *_ in CRITERIA]
)
def test_acceptance_criterion(number, name, fn, scaled):
    res = _result(number, name, fn)
    line = "[%s] criterion %d: %s (%.2fs) %s" % (
        "PASS" if res.passed else "FAIL", number, name, res.seconds, res.details,
    )
    print(line)
    assert res.passed, line
    budget = RUNTIME_BUDGETS.get(number)
    if budget is not None:
        assert res.seconds < budget, "criterion %d exceeded %.0fs budget: %.2fs" % (
            number, budget, res.seconds,
        )
