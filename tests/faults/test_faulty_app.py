"""Tests for the seeded fault-injection wrapper."""

import dataclasses
import math
from types import MappingProxyType

import pytest

from repro.arch import power7
from repro.counters.pmu import CounterSample
from repro.faults import PROTECTED_EVENTS, FaultConfig, FaultyApp, noise_profile

pytestmark = pytest.mark.faults


class StationaryApp:
    """Fake app producing exact, rate-proportional counters."""

    def __init__(self, ipc=1.0, freq=1e9):
        self.arch = power7()
        self.freq = freq
        self.ipc = ipc
        self.phase_name = "steady"
        self.smt_level = 4
        self.switched_to = []

    def switch_level(self, level):
        self.switched_to.append(level)
        self.smt_level = level

    def advance(self, wall_seconds):
        cycles = wall_seconds * self.freq
        instrs = cycles * self.ipc
        events = {
            "CYCLES": cycles,
            "INSTRUCTIONS": instrs,
            "DISP_HELD_RES": 0.1 * cycles,
            "LD_CMPL": 0.2 * instrs,
            "ST_CMPL": 0.1 * instrs,
            "BR_CMPL": 0.15 * instrs,
            "FX_CMPL": 0.3 * instrs,
            "VS_CMPL": 0.25 * instrs,
            "L1_DMISS": 0.01 * instrs,
            "L2_MISS": 0.002 * instrs,
            "L3_MISS": 0.0005 * instrs,
            "BR_MISPRED": 0.001 * instrs,
        }
        return CounterSample(
            arch=self.arch,
            smt_level=self.smt_level,
            events=events,
            wall_time_s=wall_seconds,
            avg_thread_cpu_s=wall_seconds * 0.95,
            n_software_threads=32,
        )


SEVERE = FaultConfig(
    noise_rel=0.2, heavy_tail_prob=0.5, heavy_tail_scale=5.0,
    dropout_prob=0.5, stale_prob=0.2,
)


def stream(config, seed=7, n=20):
    app = FaultyApp(StationaryApp(), config, seed=seed)
    return [app.advance(0.1) for _ in range(n)], app


class TestPassthrough:
    def test_clean_config_is_identity(self):
        faulty = FaultyApp(StationaryApp(), FaultConfig(), seed=3)
        exact = StationaryApp().advance(0.1)
        sample = faulty.advance(0.1)
        assert dict(sample.events) == dict(exact.events)
        assert faulty.injections == {}

    def test_phase_name_forwarded(self):
        app = StationaryApp()
        faulty = FaultyApp(app, FaultConfig(), seed=3)
        assert faulty.phase_name == "steady"

    def test_switch_level_forwarded(self):
        app = StationaryApp()
        faulty = FaultyApp(app, FaultConfig(), seed=3)
        faulty.switch_level(2)
        assert app.switched_to == [2]


class TestDeterminism:
    def test_same_seed_same_corruption(self):
        a, _ = stream(SEVERE, seed=7)
        b, _ = stream(SEVERE, seed=7)
        for sa, sb in zip(a, b):
            assert dict(sa.events) == dict(sb.events)

    def test_different_seed_differs(self):
        a, _ = stream(SEVERE, seed=7)
        b, _ = stream(SEVERE, seed=8)
        assert any(
            dict(sa.events) != dict(sb.events) for sa, sb in zip(a, b)
        )


class TestDropout:
    def test_protected_events_always_survive(self):
        samples, app = stream(FaultConfig(dropout_prob=1.0), n=30)
        assert app.injections.get("dropout", 0) > 0
        for sample in samples:
            for name in PROTECTED_EVENTS:
                assert name in sample.events

    def test_drops_whole_groups(self):
        samples, _ = stream(FaultConfig(dropout_prob=1.0), n=30)
        exact = set(StationaryApp().advance(0.1).events)
        assert any(set(s.events) < exact for s in samples)


class TestOtherAxes:
    def test_saturation_clips(self):
        cap = 5e7
        samples, app = stream(FaultConfig(saturation_count=cap))
        assert app.injections.get("saturated", 0) > 0
        for sample in samples:
            assert max(sample.events.values()) <= cap

    def test_stale_returns_previous_interval(self):
        samples, app = stream(FaultConfig(stale_prob=1.0), n=3)
        assert app.injections.get("stale", 0) == 2
        # Every sample after the first repeats the first one.
        assert dict(samples[1].events) == dict(samples[0].events)
        assert dict(samples[2].events) == dict(samples[0].events)

    def test_noise_perturbs_each_event(self):
        samples, _ = stream(FaultConfig(noise_rel=0.1), n=1)
        exact = StationaryApp().advance(0.1)
        assert samples[0].events["CYCLES"] != pytest.approx(
            exact.events["CYCLES"], abs=1e-9
        )

    def test_heavy_tail_inflates_one_counter(self):
        samples, app = stream(
            FaultConfig(heavy_tail_prob=1.0, heavy_tail_scale=50.0), n=10
        )
        assert app.injections.get("heavy_tail", 0) > 0
        exact = StationaryApp().advance(0.1)
        blowups = 0
        for sample in samples:
            inflated = [
                name for name, v in sample.events.items()
                if v > 3.0 * exact.events[name]
            ]
            blowups += len(inflated)
            assert len(inflated) <= 1  # a glitch hits a single event
        assert blowups > 0

    def test_phase_spike_on_transition(self):
        app = StationaryApp()
        faulty = FaultyApp(
            app, FaultConfig(phase_spike_mult=3.0, phase_spike_intervals=1),
            seed=3,
        )
        before = faulty.advance(0.1)
        app.phase_name = "next-phase"
        spiked = faulty.advance(0.1)
        after = faulty.advance(0.1)
        assert spiked.events["DISP_HELD_RES"] == pytest.approx(
            3.0 * before.events["DISP_HELD_RES"]
        )
        assert after.events["DISP_HELD_RES"] == pytest.approx(
            before.events["DISP_HELD_RES"]
        )
        assert faulty.injections.get("phase_spike", 0) == 1

    def test_inner_app_always_advances(self):
        app = StationaryApp()
        seen = []
        original = app.advance

        def tracking(wall):
            seen.append(wall)
            return original(wall)

        app.advance = tracking
        faulty = FaultyApp(app, SEVERE, seed=7)
        for _ in range(5):
            faulty.advance(0.1)
        assert seen == [0.1] * 5


def legacy_advance(app, wall_seconds):
    """The per-event reference for :meth:`FaultyApp.advance`: one scalar
    ``RngStream.jitter`` draw per event, otherwise the same fault steps
    in the same order, on the app's own streams and state."""
    sample = app.inner.advance(wall_seconds)
    cfg = app.config
    if not cfg.any_faults:
        app._last = sample
        return sample

    phase = getattr(app.inner, "phase_name", None)
    if phase != app._last_phase:
        app._last_phase = phase
        if cfg.phase_spike_mult > 1.0 and app._last is not None:
            app._spike_left = cfg.phase_spike_intervals

    events = dict(sample.events)
    if cfg.noise_rel > 0:
        app._record("noise")
        events = {
            name: app._noise.jitter(value, cfg.noise_rel)
            for name, value in events.items()
        }

    if cfg.heavy_tail_prob > 0 and app._tail.random() < cfg.heavy_tail_prob:
        names = sorted(events)
        victim = names[int(app._tail.integers(0, len(names)))]
        sigma = math.log(cfg.heavy_tail_scale)
        factor = math.exp(abs(float(app._tail.normal(0.0, sigma)))) if sigma > 0 else 1.0
        if factor > 1.0:
            app._record("heavy_tail")
            events[victim] = events[victim] * factor

    if app._spike_left > 0:
        app._spike_left -= 1
        app._record("phase_spike")
        for name in ("DISP_HELD_RES", "BR_MISPRED"):
            if name in events:
                events[name] = events[name] * cfg.phase_spike_mult

    if cfg.dropout_prob > 0 and app._drop.random() < cfg.dropout_prob:
        groups = app._groups(sample).groups
        group = groups[int(app._drop.integers(0, len(groups)))]
        removed = [
            name for name in group.events
            if name in events and name not in PROTECTED_EVENTS
        ]
        if removed:
            app._record("dropout")
            for name in removed:
                del events[name]

    corrupted = CounterSample(
        arch=sample.arch,
        smt_level=sample.smt_level,
        events=events,
        wall_time_s=sample.wall_time_s,
        avg_thread_cpu_s=sample.avg_thread_cpu_s,
        n_software_threads=sample.n_software_threads,
    )
    if (
        cfg.stale_prob > 0
        and app._last is not None
        and app._stale.random() < cfg.stale_prob
    ):
        app._record("stale")
        return app._last
    app._last = corrupted
    return corrupted


class TestVectorNoiseOracle:
    """One vector noise draw must reproduce the per-event jitter loop."""

    @pytest.mark.parametrize("severity", [0.1, 0.4, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 7, 11, 2**32 + 5])
    def test_matches_per_event_jitter(self, severity, seed):
        config = noise_profile(severity)
        fast_inner, ref_inner = StationaryApp(), StationaryApp()
        fast = FaultyApp(fast_inner, config, seed=seed)
        ref = FaultyApp(ref_inner, config, seed=seed)
        fast_seen, ref_seen = [], []
        for step in range(20):
            # Phase changes every few intervals so spikes interleave
            # with the other faults.
            fast_inner.phase_name = ref_inner.phase_name = f"phase-{step // 6}"
            got = fast.advance(0.1)
            want = legacy_advance(ref, 0.1)
            assert list(got.events.items()) == list(want.events.items())
            # A stale read hands back the same earlier object on both.
            fast_seen.append(got)
            ref_seen.append(want)
            assert [s is got for s in fast_seen] == [s is want for s in ref_seen]
        assert fast.injections == ref.injections
        assert fast.injections.get("noise") == 20


class TestScheduleCache:
    def test_one_schedule_per_architecture(self, monkeypatch, cold_memo):
        from repro.counters import arch_groups
        from repro.faults import app as app_module

        calls = []
        real = arch_groups.groups_for

        def counting(arch):
            calls.append(arch.name)
            return real(arch)

        monkeypatch.setattr(arch_groups, "groups_for", counting)
        shared, other = power7(), power7()
        apps = []
        for seed, arch in enumerate((shared, shared, shared, other)):
            inner = StationaryApp()
            inner.arch = arch
            apps.append(FaultyApp(inner, FaultConfig(dropout_prob=1.0), seed=seed))
        for app in apps:
            app.advance(0.1)
            assert app.injections["dropout"] == 1
        assert calls == ["POWER7", "POWER7"]      # once per arch object
        assert apps[0]._schedule is apps[1]._schedule is apps[2]._schedule
        assert apps[3]._schedule is not apps[0]._schedule


class FrozenApp(StationaryApp):
    """Hands out one read-only sample, as the fleet perf model does."""

    def __init__(self, sample=None):
        super().__init__()
        if sample is None:
            plain = StationaryApp.advance(self, 0.1)
            sample = dataclasses.replace(
                plain, events=MappingProxyType(dict(plain.events)))
        self.sample = sample

    def advance(self, wall_seconds):
        return self.sample


class TestColumnsCache:
    """Columns of read-only source samples are read once per sample, and
    the memo never changes what ``advance`` returns (its cap is held in
    ``tests/sim/test_memo_bounds.py``)."""

    def test_shared_sample_takes_one_entry(self, cold_memo):
        from repro.faults import app as app_module

        shared = FrozenApp().sample
        for seed in range(5):
            app = FaultyApp(FrozenApp(shared), SEVERE, seed=seed)
            for _ in range(4):
                app.advance(0.1)
        assert list(app_module._COLUMNS._data) == [id(shared)]

    def test_plain_dict_samples_are_not_memoized(self, cold_memo):
        from repro.faults import app as app_module

        app = FaultyApp(StationaryApp(), SEVERE, seed=3)
        for _ in range(10):
            app.advance(0.1)
        assert len(app_module._COLUMNS) == 0

    @pytest.mark.parametrize("seed", [0, 7, 2**32 + 5])
    def test_memoized_columns_corrupt_like_a_plain_sample(self, seed):
        frozen = FaultyApp(FrozenApp(), noise_profile(0.6), seed=seed)
        plain = FaultyApp(StationaryApp(), noise_profile(0.6), seed=seed)
        for _ in range(30):
            got, want = frozen.advance(0.1), plain.advance(0.1)
            assert list(got.events.items()) == list(want.events.items())
        assert frozen.injections == plain.injections
