"""Tests for noise-hardened SMTsm estimation and online control."""

import hashlib
import json
from types import SimpleNamespace

import pytest

from repro.arch import power7
from repro.core.metric import smtsm
from repro.core.predictor import SmtPredictor
from repro.core.robust import (
    HardenedConfig,
    HardenedController,
    drive_online,
    naive_decision,
    robust_smtsm,
)
from repro.counters.perfstat import PerfStat, PerfStatConfig
from repro.counters.pmu import CounterSample
from repro.faults import FaultyApp, noise_profile
from repro.fleet.scheduler import ControllerBank

pytestmark = pytest.mark.faults

ARCH = power7()


def make_sample(disp_frac=0.1, smt_level=4, drop=()):
    """A POWER7 sample whose metric scales with ``disp_frac``."""
    cycles, instrs = 1e8, 1e8
    events = {
        "CYCLES": cycles,
        "INSTRUCTIONS": instrs,
        "DISP_HELD_RES": disp_frac * cycles,
        "LD_CMPL": 0.20 * instrs,
        "ST_CMPL": 0.10 * instrs,
        "BR_CMPL": 0.15 * instrs,
        "FX_CMPL": 0.30 * instrs,
        "VS_CMPL": 0.25 * instrs,
    }
    for name in drop:
        del events[name]
    return CounterSample(
        arch=ARCH,
        smt_level=smt_level,
        events=events,
        wall_time_s=0.1,
        avg_thread_cpu_s=0.095,
        n_software_threads=32,
    )


# Metric values for the two operating points used throughout; the
# predictor threshold sits between them.
LOW = smtsm(make_sample(disp_frac=0.02)).value
HIGH = smtsm(make_sample(disp_frac=0.40)).value
PREDICTOR = SmtPredictor(threshold=(LOW + HIGH) / 2, high_level=4, low_level=1)


def controller(**overrides):
    defaults = dict(ewma_alpha=0.5, hysteresis_rel=0.15,
                    cooldown_intervals=3, warmup_samples=2, probe_every=4)
    defaults.update(overrides)
    return HardenedController({1: PREDICTOR}, HardenedConfig(**defaults))


class TestRobustSmtsm:
    def test_complete_sample_matches_smtsm(self):
        sample = make_sample()
        est = robust_smtsm(sample)
        assert not est.degraded
        assert est.confidence == 1.0
        assert est.missing_events == ()
        assert est.value == pytest.approx(smtsm(sample).value)

    def test_missing_class_degrades_with_confidence(self):
        est = robust_smtsm(make_sample(drop=("VS_CMPL",)))
        assert est.degraded
        assert est.missing_events == ("VS_CMPL",)
        # Confidence is the surviving ideal-vector mass (1 - 2/7).
        assert est.confidence == pytest.approx(1 - 2 / 7, rel=1e-6)
        assert est.value is not None and est.value > 0

    def test_fillin_is_conservative(self):
        # The ideal-share fill-in never manufactures deviation: with the
        # most deviant class unobserved the estimate can only shrink.
        full = robust_smtsm(make_sample()).value
        part = robust_smtsm(make_sample(drop=("VS_CMPL",))).value
        assert part < full

    def test_all_classes_missing_yields_none(self):
        est = robust_smtsm(make_sample(
            drop=("LD_CMPL", "ST_CMPL", "BR_CMPL", "FX_CMPL", "VS_CMPL")
        ))
        assert est.value is None
        assert est.confidence == 0.0
        assert est.degraded


class TestControllerDecisions:
    def test_warmup_blocks_early_switch(self):
        ctrl = controller(warmup_samples=5)
        for _ in range(4):
            decision = ctrl.observe(make_sample(disp_frac=0.40))
            assert decision.switched_to is None
        assert ctrl.level == 4

    def test_sustained_high_metric_switches_down(self):
        ctrl = controller()
        for _ in range(6):
            ctrl.observe(make_sample(disp_frac=0.40))
        assert ctrl.level == 1
        assert ctrl.n_switches == 1

    def test_hysteresis_holds_near_threshold(self):
        # A metric above the threshold but inside the +15% band must not
        # pull the controller off the max level.
        target = PREDICTOR.threshold * 1.10
        disp = 0.40 * target / HIGH
        ctrl = controller()
        for _ in range(10):
            ctrl.observe(make_sample(disp_frac=disp))
        assert ctrl.level == 4
        assert ctrl.n_switches == 0

    def test_cooldown_debounces(self):
        ctrl = controller(cooldown_intervals=5)
        for _ in range(3):
            ctrl.observe(make_sample(disp_frac=0.40))
        assert ctrl.level == 1
        # Cooldown active: blind intervals at the new level cannot
        # immediately probe back up.
        d = ctrl.observe(make_sample(disp_frac=0.02, smt_level=1))
        assert d.switched_to is None
        assert ctrl.level == 1

    def test_single_glitch_never_switches(self):
        ctrl = controller()
        for _ in range(5):
            ctrl.observe(make_sample(disp_frac=0.02))
        # One wildly-high reading: outlier-damped, and the EWMA keeps
        # the smoothed estimate under the threshold.
        d = ctrl.observe(make_sample(disp_frac=0.90))
        assert d.raw > PREDICTOR.threshold
        assert d.smoothed < PREDICTOR.threshold
        assert ctrl.level == 4

    def test_low_confidence_updates_but_never_switches(self):
        drop = ("ST_CMPL", "BR_CMPL", "FX_CMPL", "VS_CMPL")  # keep LD only
        ctrl = controller()
        for _ in range(10):
            d = ctrl.observe(make_sample(disp_frac=0.40, drop=drop))
            assert d.degraded
            assert d.confidence < ctrl.config.min_confidence
        assert ctrl.smoothed is not None
        assert ctrl.level == 4

    def test_unmeasurable_interval_holds_everything(self):
        ctrl = controller()
        d = ctrl.observe(make_sample(
            drop=("LD_CMPL", "ST_CMPL", "BR_CMPL", "FX_CMPL", "VS_CMPL")
        ))
        assert d.raw is None and d.degraded
        assert ctrl.level == 4

    def test_blind_intervals_probe_back_up(self):
        ctrl = controller(cooldown_intervals=0, probe_every=4)
        for _ in range(3):
            ctrl.observe(make_sample(disp_frac=0.40))
        assert ctrl.level == 1
        switches = []
        for _ in range(4):
            d = ctrl.observe(make_sample(disp_frac=0.02, smt_level=1))
            switches.append(d.switched_to)
        assert switches[-1] == 4
        assert ctrl.level == 4

    def test_reset_forgets_estimate(self):
        ctrl = controller()
        ctrl.observe(make_sample(disp_frac=0.40))
        ctrl.reset()
        assert ctrl.smoothed is None


class TestControllerValidation:
    def test_rejects_empty_predictors(self):
        with pytest.raises(ValueError):
            HardenedController({})

    def test_rejects_mismatched_key(self):
        with pytest.raises(ValueError):
            HardenedController({2: PREDICTOR})  # predictor covers low=1

    def test_rejects_disagreeing_max_levels(self):
        other = SmtPredictor(threshold=0.1, high_level=2, low_level=1)
        with pytest.raises(ValueError):
            HardenedController({1: PREDICTOR, 2: other})

    @pytest.mark.parametrize("bad", [
        {"ewma_alpha": 0.0},
        {"hysteresis_rel": 1.0},
        {"cooldown_intervals": -1},
        {"warmup_samples": 0},
        {"outlier_rel": 1.0},
        {"probe_every": 0},
    ])
    def test_config_validation(self, bad):
        with pytest.raises(ValueError):
            HardenedConfig(**bad)


class TestNaiveDecision:
    def test_clean_sample_recommends(self):
        assert naive_decision(make_sample(disp_frac=0.02), {1: PREDICTOR}) == 4
        assert naive_decision(make_sample(disp_frac=0.40), {1: PREDICTOR}) == 1

    def test_missing_events_crash_to_none(self):
        sample = make_sample(drop=("VS_CMPL",))
        assert naive_decision(sample, {1: PREDICTOR}) is None


class SwitchableApp:
    """Stationary app that honours SMT switches (for drive_online)."""

    def __init__(self, disp_frac):
        self.disp_frac = disp_frac
        self.smt_level = 4
        self.switches = []

    def switch_level(self, level):
        self.switches.append(level)
        self.smt_level = level

    def advance(self, wall_seconds):
        return make_sample(disp_frac=self.disp_frac, smt_level=self.smt_level)


class TestDriveOnline:
    def test_loop_applies_switches(self):
        app = SwitchableApp(disp_frac=0.40)
        perf = PerfStat(PerfStatConfig(interval_s=0.05))
        decisions = drive_online(app, perf, controller(), 5)
        assert len(decisions) == 5
        assert app.switches == [1]
        assert app.smt_level == 1

    def test_loop_probes_back_from_blind_level(self):
        # Once the app sits below the max level the metric is blind;
        # after enough blind intervals the loop probes back up.
        app = SwitchableApp(disp_frac=0.40)
        perf = PerfStat(PerfStatConfig(interval_s=0.05))
        drive_online(app, perf, controller(), 12)
        assert app.switches[:2] == [1, 4]

    def test_rejects_zero_intervals(self):
        app = SwitchableApp(disp_frac=0.02)
        perf = PerfStat(PerfStatConfig(interval_s=0.05))
        with pytest.raises(ValueError):
            drive_online(app, perf, controller(), 0)


def hexed(x):
    return None if x is None else float.hex(x)


def noisy_run(disp_frac, severity, seed, n=60):
    """Samples of a fault-injected stationary app, with the controller's
    switches applied to the app as the online loop does."""
    faulty = FaultyApp(SwitchableApp(disp_frac), noise_profile(severity), seed=seed)
    ctrl = controller()
    samples, decisions = [], []
    for _ in range(n):
        sample = faulty.advance(0.05)
        decision = ctrl.observe(sample)
        if decision.switched_to is not None:
            faulty.switch_level(decision.switched_to)
        samples.append(sample)
        decisions.append(decision)
    return samples, decisions, ctrl


def state(ctrl):
    return (ctrl.level, hexed(ctrl.smoothed), ctrl.n_switches, ctrl._n,
            ctrl._cooldown, ctrl._blind)


class TestFold:
    # sha256 of the decision records (floats as float.hex) recorded
    # before the controller gained its object-free fold.  Each run goes
    # through blind intervals, probes, dropout-degraded and outlier
    # readings and about 15 switches.
    @pytest.mark.parametrize("disp_frac, severity, seed, digest", [
        (0.21, 0.6, 3,
         "6d9fdaf4a8badb96cc38dafe78cfbb28bb7f65aeb459f6e54a5e56830ff593ce"),
        (0.21, 0.8, 5,
         "0d97e3075dd4880816b23e283256f90020f14df3cfbe50869fecdb28070586be"),
        (0.25, 1.0, 7,
         "c79377ab86bbb409c35b7a3a91d3cdc98c7b440a6488200681576f67da46afef"),
    ])
    def test_pinned_decisions(self, disp_frac, severity, seed, digest):
        _, decisions, ctrl = noisy_run(disp_frac, severity, seed)
        records = [
            [d.index, d.level, hexed(d.raw), hexed(d.smoothed),
             hexed(d.confidence), d.degraded, d.switched_to]
            for d in decisions
        ]
        assert ctrl.n_switches > 10
        assert any(d.degraded for d in decisions)
        text = json.dumps(records)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("severity, seed", [(0.6, 3), (1.0, 7)])
    def test_bank_and_observe_leave_the_same_state(self, severity, seed):
        samples, _, observed = noisy_run(0.21, severity, seed)
        model = SimpleNamespace(predictors={"power7": {1: PREDICTOR}})
        bank = ControllerBank(model, observed.config)
        for sample in samples:
            assert bank.observe("power7", "w", sample) is None
        assert state(bank.controller("power7", "w")) == state(observed)

    def test_unmeasurable_sample_same_on_both_paths(self):
        blank = make_sample(drop=("LD_CMPL", "ST_CMPL", "BR_CMPL",
                                  "FX_CMPL", "VS_CMPL"))
        folded, observed = controller(), controller()
        for ctrl in (folded, observed):
            ctrl.observe(make_sample(disp_frac=0.40))
        assert folded.fold(blank) == (None, 0.0, True, None)
        decision = observed.observe(blank)
        assert (decision.raw, decision.degraded) == (None, True)
        assert state(folded) == state(observed)


class TestPinnedMetric:
    # float.hex of smtsm()/robust_smtsm() outputs recorded before both
    # read one shared factor helper.
    @pytest.mark.parametrize("disp_frac, expected", [
        (0.02, ["0x1.c1757850d9091p-10", "0x1.4d952f4c0114cp-4",
                "0x1.47ae147ae147bp-6", "0x1.0d79435e50d79p+0"]),
        (0.40, ["0x1.18e96b3287a5bp-5", "0x1.4d952f4c0114cp-4",
                "0x1.999999999999ap-2", "0x1.0d79435e50d79p+0"]),
        (0.13, ["0x1.6d2f71c1b0576p-7", "0x1.4d952f4c0114cp-4",
                "0x1.0a3d70a3d70a4p-3", "0x1.0d79435e50d79p+0"]),
    ])
    def test_smtsm_floats(self, disp_frac, expected):
        result = smtsm(make_sample(disp_frac=disp_frac))
        got = (result.value,) + result.factors()
        assert [float.hex(x) for x in got] == expected
        full = robust_smtsm(make_sample(disp_frac=disp_frac))
        assert float.hex(full.value) == expected[0]

    @pytest.mark.parametrize("disp_frac, drop, value, confidence", [
        (0.40, ("VS_CMPL",), "0x1.d092284cee56dp-6", "0x1.6db6db6db6db6p-1"),
        (0.13, ("LD_CMPL", "FX_CMPL"), "0x1.6a5d85d59b2f6p-8",
         "0x1.2492492492492p-1"),
    ])
    def test_degraded_floats(self, disp_frac, drop, value, confidence):
        est = robust_smtsm(make_sample(disp_frac=disp_frac, drop=drop))
        assert (float.hex(est.value), float.hex(est.confidence)) == (value, confidence)

    def test_negative_dispatch_held_still_rejected(self):
        sample = make_sample(disp_frac=-0.1)
        with pytest.raises(ValueError):
            smtsm(sample)
        with pytest.raises(ValueError, match="dispatch_held"):
            controller().fold(sample)
