"""One sweep engine for every public entry point, on shared architectures.

Every public sweep defaults to ``DEFAULT_STRATEGY`` (columnar), so the
API, the CLI and the service cannot quietly run different engines
(``tests/serve/test_service.py`` checks a served sweep end to end).
Architecture lookups return one shared instance per registered name,
which is what lets the solver's ``id(arch)``-keyed memos hit across
fresh sessions.
"""

import inspect

import pytest

import repro.api as api
from repro.arch import armsmt, get_architecture
from repro.arch.registry import _BUILDERS
from repro.experiments.runner import DEFAULT_STRATEGY, Strategy, run_catalog
from repro.serve import ServeClient

SWEEP_ENTRY_POINTS = {
    "run_catalog": run_catalog,
    "Session.sweep": api.Session.sweep,
    "Session.sweep_summary": api.Session.sweep_summary,
    "api.sweep": api.sweep,
    "api.sweep_summary": api.sweep_summary,
    "ServeClient.sweep": ServeClient.sweep,
}


def test_default_strategy_is_columnar():
    assert DEFAULT_STRATEGY is Strategy.COLUMNAR
    assert api.DEFAULT_STRATEGY is DEFAULT_STRATEGY


@pytest.mark.parametrize("name", sorted(SWEEP_ENTRY_POINTS))
def test_entry_point_defaults_to_default_strategy(name):
    default = inspect.signature(SWEEP_ENTRY_POINTS[name]).parameters["strategy"].default
    assert default is DEFAULT_STRATEGY


def test_lookups_share_one_instance():
    assert get_architecture("power7") is get_architecture("POWER7")
    assert api.Session("p7").system.arch is api.Session("power7").system.arch


def test_swapping_a_builder_yields_a_fresh_instance():
    name = "tmp_swapped_arch"
    _BUILDERS[name] = lambda: armsmt(cores_per_chip=2)
    try:
        first = get_architecture(name)
        assert get_architecture(name) is first
        _BUILDERS[name] = lambda: armsmt(cores_per_chip=2)
        second = get_architecture(name)
        assert second is not first
        assert get_architecture(name) is second
    finally:
        del _BUILDERS[name]
