"""Tests for the shared config-from-env helper (:mod:`repro.util.config`)
and the two dataclasses built on it (``ServeConfig``/``FleetConfig``)."""

from dataclasses import dataclass
from typing import Optional

import pytest

from repro.fleet import FleetConfig
from repro.serve import ServeConfig
from repro.util.config import dataclass_from_env, env_str, parse_bool


@dataclass(frozen=True)
class Knobs:
    count: int = 3
    rate: float = 1.5
    label: str = "a"
    flag: bool = False
    limit: Optional[int] = 10


class TestPrimitives:
    def test_parse_bool(self):
        for text in ("1", "true", "Yes", "ON"):
            assert parse_bool(text) is True
        for text in ("0", "false", "No", "off"):
            assert parse_bool(text) is False
        with pytest.raises(ValueError):
            parse_bool("maybe")

    def test_env_str(self):
        env = {"X": "  hello "}
        assert env_str("X", env=env) == "hello"
        assert env_str("MISSING", "fallback", env=env) == "fallback"


class TestDataclassFromEnv:
    def test_no_overrides_returns_base_unchanged(self):
        base = Knobs()
        assert dataclass_from_env(Knobs, "K", env={}, base=base) is base

    def test_typed_coercion(self):
        env = {"K_COUNT": "7", "K_RATE": "2.25", "K_LABEL": "b",
               "K_FLAG": "yes"}
        knobs = dataclass_from_env(Knobs, "K", env=env)
        assert knobs == Knobs(count=7, rate=2.25, label="b", flag=True)

    def test_optional_none_spellings(self):
        for spelling in ("", "none", "NULL"):
            knobs = dataclass_from_env(
                Knobs, "K", env={"K_LIMIT": spelling})
            assert knobs.limit is None
        knobs = dataclass_from_env(Knobs, "K", env={"K_LIMIT": "5"})
        assert knobs.limit == 5

    def test_bad_value_names_the_variable(self):
        with pytest.raises(ValueError, match="K_COUNT"):
            dataclass_from_env(Knobs, "K", env={"K_COUNT": "lots"})


class TestServeConfigFromEnv:
    def test_round_trip(self):
        env = {
            "REPRO_SERVE_PORT": "9321",
            "REPRO_SERVE_MAX_BATCH": "8",
            "REPRO_SERVE_MAX_LINGER_MS": "0.5",
            "REPRO_SERVE_WORKERS": "2",
            "REPRO_SERVE_DEFAULT_DEADLINE_MS": "none",
        }
        config = ServeConfig.from_env(env=env)
        assert config.port == 9321
        assert config.max_batch == 8
        assert config.max_linger_ms == 0.5
        assert config.workers == 2
        assert config.default_deadline_ms is None
        # Untouched fields keep their defaults.
        assert config.host == ServeConfig().host

    def test_legacy_aliases_still_work(self):
        env = {"REPRO_SERVE_MP": "spawn",
               "REPRO_SERVE_CHAOS": "crash=0.5"}
        config = ServeConfig.from_env(env=env)
        assert config.mp_start_method == "spawn"
        assert config.chaos is not None
        assert config.chaos.any_chaos

    def test_empty_chaos_spec_is_none(self):
        config = ServeConfig.from_env(env={"REPRO_SERVE_CHAOS": ""})
        assert config.chaos is None

    def test_base_overridden_not_replaced(self):
        base = ServeConfig(port=1234, max_batch=4)
        config = ServeConfig.from_env(
            base, env={"REPRO_SERVE_MAX_BATCH": "32"})
        assert config.port == 1234
        assert config.max_batch == 32


class TestServeConfigSession:
    @pytest.mark.parametrize("key", ["bogus", "surrogate", "n_chips"])
    def test_unknown_session_key_rejected_at_construction(self, key):
        with pytest.raises(ValueError) as exc:
            ServeConfig(session={"seed": 11, key: 1})
        assert repr(key) in str(exc.value)
        assert "threshold_method" in str(exc.value)

    def test_every_get_session_knob_accepted(self):
        session = {"seed": 3, "work": 1e9, "use_cache": False,
                   "threshold": 0.07, "threshold_method": "gini"}
        assert ServeConfig(session=session).session == session


class TestFleetConfigFromEnv:
    def test_round_trip(self):
        env = {
            "REPRO_FLEET_CHIPS": "16",
            "REPRO_FLEET_JOBS": "800",
            "REPRO_FLEET_POLICY": "least_loaded",
            "REPRO_FLEET_SEVERITY": "0.3",
            "REPRO_FLEET_ARCH_MIX": "power7:1,nehalem:1",
            "REPRO_FLEET_LOAD": "0.9",
        }
        config = FleetConfig.from_env(env=env)
        assert config.chips == 16
        assert config.jobs == 800
        assert config.policy == "least_loaded"
        assert config.severity == 0.3
        assert config.arch_mix == "power7:1,nehalem:1"
        assert config.load == 0.9
        assert config.seed == FleetConfig().seed

    def test_validation_still_applies(self):
        with pytest.raises(ValueError):
            FleetConfig.from_env(env={"REPRO_FLEET_SEVERITY": "2.0"})

    def test_no_env_returns_base(self):
        base = FleetConfig(chips=3)
        assert FleetConfig.from_env(base, env={}) is base
