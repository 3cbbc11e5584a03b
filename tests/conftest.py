"""Fixtures shared across the test suite."""

from collections import OrderedDict

import pytest

from repro.sim import table


@pytest.fixture
def cold_memo(monkeypatch):
    """An empty table-template memo, restored afterwards."""
    monkeypatch.setattr(table, "_TEMPLATES", OrderedDict())
    monkeypatch.setattr(table, "_SEEN_ONCE", set())
