"""Tests for :class:`repro.util.ValidatedStrEnum` and its two public
instantiations (``Strategy``, ``Policy``)."""

import pytest

from repro.experiments.runner import STRATEGIES, Strategy, run_catalog
from repro.fleet import Policy
from repro.util import ValidatedStrEnum


class Color(ValidatedStrEnum):
    RED = "red"
    BLUE = "blue"


class TestValidatedStrEnum:
    def test_members_are_strings(self):
        assert Color.RED == "red"
        assert isinstance(Color.RED, str)
        assert str(Color.BLUE) == "blue"
        assert f"{Color.RED}" == "red"

    def test_options_in_declaration_order(self):
        assert Color.options() == ("red", "blue")

    def test_parse(self):
        assert Color.parse("red") is Color.RED
        assert Color.parse(Color.BLUE) is Color.BLUE
        with pytest.raises(ValueError) as exc:
            Color.parse("green")
        assert "green" in str(exc.value)
        assert "red, blue" in str(exc.value)


class TestStrategyEnum:
    def test_covers_legacy_tuple(self):
        assert Strategy.options() == tuple(STRATEGIES)

    def test_members(self):
        assert Strategy.COLUMNAR == "columnar"
        assert Strategy.parse("surrogate") is Strategy.SURROGATE

    def test_parallel_is_not_a_strategy(self):
        with pytest.raises(ValueError) as exc:
            Strategy.parse("parallel")
        assert "'parallel'" in str(exc.value)
        assert "valid options: columnar, surrogate, batched, serial" in str(exc.value)

    def test_run_catalog_rejects_typo_with_options(self):
        with pytest.raises(ValueError, match="colmnar"):
            run_catalog("p7", strategy="colmnar")

    def test_run_catalog_accepts_enum_member(self):
        from repro.workloads import get_workload
        runs = run_catalog(
            "p7", {"EP": get_workload("EP")},
            strategy=Strategy.COLUMNAR, seed=3)
        assert runs.names() == ("EP",)


class TestPolicyEnumIsValidated(object):
    def test_policy_is_a_validated_enum(self):
        assert issubclass(Policy, ValidatedStrEnum)
        assert Policy.options() == (
            "smtsm", "least_loaded", "round_robin", "random")
