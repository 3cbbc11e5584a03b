"""Fixtures shared across the test suite."""

import weakref
from collections import OrderedDict

import pytest

import repro.faults.app  # noqa: F401  (registers every memo the fixture swaps)
import repro.sim.runcache  # noqa: F401
import repro.sim.table  # noqa: F401
import repro.util.memo as memo_module
from repro.util.memo import memos


@pytest.fixture
def cold_memo(monkeypatch):
    """Every registered memo emptied, as in a fresh process, and restored
    afterwards.  Calling the fixture's value empties them again.

    Storage is swapped, never cleared: the memos the rest of the session
    filled come back untouched.
    """
    def empty():
        for memo in memos().values():
            monkeypatch.setattr(memo, "_data", OrderedDict())
            monkeypatch.setattr(memo, "_pins", {})
            monkeypatch.setattr(memo, "evictions", 0)

    empty()
    return empty


@pytest.fixture
def no_memos(monkeypatch):
    """A registry with no memo in it, as in a process that never imported
    one: the tracer gauges only what a test registers itself."""
    monkeypatch.setattr(memo_module, "_REGISTRY", weakref.WeakValueDictionary())
