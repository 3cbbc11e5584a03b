"""Tests for the fleet perf model's shared interval samples."""

import pytest

from repro.faults import FaultyApp, noise_profile
from repro.fleet import FleetConfig, FleetScheduler
from repro.fleet.perfmodel import NodeMeter


@pytest.fixture(scope="module")
def model():
    return FleetScheduler(FleetConfig(chips=2, jobs=10)).model


@pytest.fixture(scope="module")
def workload(model):
    return model.workload_names[0]


class TestSharedSamples:
    def test_one_sample_per_key_across_meters(self, model, workload):
        a = NodeMeter(model, "power7", workload, 4).advance(0.1)
        b = NodeMeter(model, "power7", workload, 4).advance(0.1)
        assert a is b

    def test_sample_is_the_scaled_reference_run(self, model, workload):
        sample = NodeMeter(model, "power7", workload, 2).advance(0.25)
        ref = model.runs["power7"][workload][2]
        scale = 0.25 / ref.times.wall_time_s
        assert list(sample.events.items()) == [
            (name, value * scale) for name, value in ref.events.items()
        ]
        assert sample.smt_level == 2
        assert sample.wall_time_s == 0.25
        assert sample.n_software_threads == ref.n_threads

    def test_level_and_interval_are_part_of_the_key(self, model, workload):
        meter = NodeMeter(model, "power7", workload, 4)
        at_max = meter.advance(0.1)
        assert meter.advance(0.2) is not at_max
        meter.switch_level(1)
        assert meter.advance(0.1).smt_level == 1

    def test_events_are_read_only(self, model, workload):
        sample = NodeMeter(model, "power7", workload, 4).advance(0.1)
        with pytest.raises(TypeError):
            sample.events["CYCLES"] = 0.0

    @pytest.mark.parametrize("seconds", [0.0, -0.1])
    def test_non_positive_interval_rejected(self, model, workload, seconds):
        with pytest.raises(ValueError, match="wall_seconds"):
            NodeMeter(model, "power7", workload, 4).advance(seconds)

    def test_corruption_leaves_the_shared_sample_intact(self, model, workload):
        meter = NodeMeter(model, "power7", workload, 4)
        clean = dict(meter.advance(0.1).events)
        faulty = FaultyApp(meter, noise_profile(1.0), seed=3)
        for _ in range(20):
            faulty.advance(0.1)
        assert faulty.injections.get("noise") == 20
        assert dict(meter.advance(0.1).events) == clean
