import pytest

from domchrom import invariants


@pytest.fixture(autouse=True)
def _no_remembered_report(monkeypatch):
    """Each test starts with no remembered invariant report, so no test sees
    a report that another one computed."""
    monkeypatch.setattr(invariants, "_last_report", None)
