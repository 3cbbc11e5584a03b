"""Tests for the PMU and counter samples."""

import numpy as np
import pytest

from repro.arch import nehalem, power7
from repro.arch.classes import InstrClass
from repro.counters.events import port_issue_event
from repro.counters.pmu import CounterSample, Pmu


def base_events(**overrides):
    events = {
        "CYCLES": 1e6,
        "INSTRUCTIONS": 8e5,
        "DISP_HELD_RES": 1e5,
        "LD_CMPL": 2e5,
        "ST_CMPL": 1e5,
        "BR_CMPL": 1e5,
        "FX_CMPL": 2e5,
        "VS_CMPL": 2e5,
        "L1_DMISS": 8e3,
        "L2_MISS": 2e3,
        "L3_MISS": 5e2,
        "BR_MISPRED": 1e3,
    }
    events.update(overrides)
    return events


def make_sample(arch=None, **kwargs):
    arch = arch or power7()
    defaults = dict(
        arch=arch,
        smt_level=4,
        events=base_events(),
        wall_time_s=1.0,
        avg_thread_cpu_s=0.9,
        n_software_threads=32,
    )
    defaults.update(kwargs)
    return CounterSample(**defaults)


class TestPmu:
    def setup_method(self):
        self.pmu = Pmu(power7(), 4)

    def test_add_and_read(self):
        self.pmu.add(1, "CYCLES", 100)
        self.pmu.add(1, "CYCLES", 50)
        assert self.pmu.read(1, "CYCLES") == 150

    def test_unknown_event_raises(self):
        with pytest.raises(KeyError, match="unknown event"):
            self.pmu.add(0, "NOT_AN_EVENT", 1)

    def test_context_bounds(self):
        with pytest.raises(IndexError):
            self.pmu.add(4, "CYCLES", 1)

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            self.pmu.add(0, "CYCLES", -1)

    def test_total_sums_contexts(self):
        for ctx in range(4):
            self.pmu.add(ctx, "INSTRUCTIONS", 10)
        assert self.pmu.total("INSTRUCTIONS") == 40

    def test_aggregate_subset(self):
        self.pmu.add(0, "CYCLES", 5)
        self.pmu.add(3, "CYCLES", 7)
        assert self.pmu.aggregate([0, 1])["CYCLES"] == 5

    def test_reset(self):
        self.pmu.add(0, "CYCLES", 5)
        self.pmu.reset()
        assert self.pmu.total("CYCLES") == 0

    def test_port_events_exist(self):
        self.pmu.add(0, "PORT_ISSUE_LS", 3)
        assert self.pmu.read(0, "PORT_ISSUE_LS") == 3

    def test_snapshot_is_copy(self):
        snap = self.pmu.snapshot()
        snap[0, 0] = 999
        assert self.pmu.snapshot()[0, 0] == 0


class TestCounterSampleValidation:
    def test_missing_required_event(self):
        with pytest.raises(ValueError, match="DISP_HELD_RES"):
            make_sample(events={"CYCLES": 1.0, "INSTRUCTIONS": 1.0})

    def test_nonpositive_wall_time(self):
        with pytest.raises(ValueError, match="wall_time_s"):
            make_sample(wall_time_s=0.0)

    def test_invalid_smt_level(self):
        with pytest.raises(ValueError, match="SMT3"):
            make_sample(smt_level=3)


class TestCounterSampleDerived:
    def test_ipc_cpi_reciprocal(self):
        s = make_sample()
        assert s.ipc * s.cpi == pytest.approx(1.0)

    def test_dispatch_held_fraction(self):
        s = make_sample()
        assert s.dispatch_held_fraction == pytest.approx(0.1)

    def test_dispatch_held_clamped_to_one(self):
        s = make_sample(events=base_events(DISP_HELD_RES=2e6))
        assert s.dispatch_held_fraction == 1.0

    def test_scalability_ratio(self):
        s = make_sample(wall_time_s=2.0, avg_thread_cpu_s=1.0)
        assert s.scalability_ratio == pytest.approx(2.0)

    def test_mpki_values(self):
        s = make_sample()
        assert s.l1_mpki == pytest.approx(10.0)
        assert s.branch_mpki == pytest.approx(1.25)

    def test_vs_fraction(self):
        s = make_sample()
        assert s.vs_fraction == pytest.approx(0.25)

    def test_mix_reconstruction(self):
        s = make_sample()
        mix = s.mix()
        assert mix[InstrClass.LOAD] == pytest.approx(0.25)
        assert mix[InstrClass.VS] == pytest.approx(0.25)

    def test_metric_fractions_class_space(self):
        s = make_sample()
        fracs = s.metric_fractions()
        assert fracs.shape == (5,)
        assert fracs.sum() == pytest.approx(1.0)

    def test_metric_fractions_port_space(self):
        arch = nehalem()
        events = base_events()
        for i, port in enumerate(arch.topology.port_names):
            events[port_issue_event(port)] = 100.0 * (i + 1)
        s = make_sample(arch=arch, smt_level=2, events=events, n_software_threads=8)
        fracs = s.metric_fractions()
        assert fracs.shape == (6,)
        assert fracs[5] == pytest.approx(6 / 21)

    def test_metric_fractions_need_counts(self):
        arch = nehalem()
        s = make_sample(arch=arch, smt_level=2)
        with pytest.raises((ValueError, KeyError)):
            s.metric_fractions()

    def test_with_events_overrides(self):
        s = make_sample()
        s2 = s.with_events({"CYCLES": 2e6})
        assert s2.cycles == 2e6
        assert s2.instructions == s.instructions

    def test_replace_events_equals_a_validated_copy(self):
        s = make_sample()
        events = dict(s.events, CYCLES=3e6)
        s2 = s.replace_events(events)
        assert s2.events is events
        assert s2 == CounterSample(
            arch=s.arch, smt_level=s.smt_level, events=events,
            wall_time_s=s.wall_time_s, avg_thread_cpu_s=s.avg_thread_cpu_s,
            n_software_threads=s.n_software_threads)
        assert s.events["CYCLES"] != 3e6          # the source is untouched

    def test_replace_events_still_requires_the_required_events(self):
        s = make_sample()
        events = {k: v for k, v in s.events.items() if k != "INSTRUCTIONS"}
        with pytest.raises(ValueError, match="INSTRUCTIONS"):
            s.replace_events(events)

    def test_unknown_event_lookup(self):
        with pytest.raises(KeyError, match="NOPE"):
            make_sample().count("NOPE")
