"""End-to-end verification: one test per acceptance criterion.

Each test prints a single PASS/FAIL line with the measured detail, so the
whole table is visible in the pytest output (run with -s or look at the
captured stdout of a failing test).
"""

import pytest

from growthcalc import acceptance, classify


@pytest.mark.parametrize("n", sorted(acceptance.CRITERIA))
def test_criterion(n):
    rep = acceptance.run_one(n)
    status = "PASS" if rep["ok"] else "FAIL"
    print(f"criterion {n:2d} {status}  {rep['name']}: {rep['detail']}")
    assert rep["ok"], f"criterion {n} ({rep['name']}): {rep['detail']}"


def test_catalog_criterion_counts_its_rows(monkeypatch):
    rows = classify.catalog()[:7]
    monkeypatch.setattr(classify, "catalog", lambda: rows)
    assert acceptance.check_catalog_chains()["detail"].startswith("7 rows,")
