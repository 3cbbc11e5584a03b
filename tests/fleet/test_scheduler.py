"""End-to-end tests for the fleet scheduler (:mod:`repro.fleet`).

The reference fleets here are deliberately small (a few chips, a few
hundred jobs) so the whole module stays in tier-1 time; the full-size
policy comparison lives in ``scripts/bench_fleet.py``.
"""

import hashlib
import json

import pytest

from repro.fleet import FleetConfig, FleetScheduler, simulate_fleet


def run(**overrides):
    base = dict(chips=6, jobs=400, seed=11)
    base.update(overrides)
    return simulate_fleet(**base)


class TestSettlement:
    def test_every_job_accounted_for(self):
        result = run(severity=0.3, policy="least_loaded")
        assert result.settled
        assert result.jobs_submitted == (
            result.jobs_completed
            + result.rejected_admission
            + result.rejected_crashed)

    def test_payload_round_trips_json(self):
        result = run(jobs=150)
        payload = json.loads(json.dumps(result.payload()))
        assert payload["jobs_submitted"] == 150
        assert payload["policy"] == "smtsm"
        assert payload["throughput_jobs_s"] > 0


class TestDeterminism:
    def test_identical_seeds_bit_identical_payload(self):
        kwargs = dict(chips=5, jobs=250, seed=17, severity=0.3,
                      arch_mix="power7:2,nehalem:1")
        a = simulate_fleet(**kwargs)
        b = simulate_fleet(**kwargs)
        assert json.dumps(a.payload(), sort_keys=True) == \
            json.dumps(b.payload(), sort_keys=True)

    def test_seed_changes_outcome(self):
        a = run(seed=17)
        b = run(seed=18)
        assert a.payload() != b.payload()

    def test_trace_is_policy_independent(self):
        # All policies must see the same offered load for a seed: the
        # horizon (last arrival) is a pure function of the trace.
        horizons = {run(policy=p).horizon_s
                    for p in ("smtsm", "random", "least_loaded")}
        assert len(horizons) == 1


class TestPolicyRanking:
    @pytest.fixture(scope="class")
    def results(self):
        kwargs = dict(chips=12, jobs=1200, seed=11,
                      arch_mix="power7:3,nehalem:1")
        return {policy: simulate_fleet(policy=policy, **kwargs)
                for policy in ("smtsm", "least_loaded", "random")}

    def test_smtsm_wins_on_throughput(self, results):
        assert (results["smtsm"].throughput_jobs_s
                >= results["least_loaded"].throughput_jobs_s
                >= results["random"].throughput_jobs_s)

    def test_only_smtsm_switches_levels(self, results):
        assert results["smtsm"].smt_switches > 0
        assert results["least_loaded"].smt_switches == 0
        assert results["random"].smt_switches == 0

    def test_smtsm_uses_low_levels_for_some_jobs(self, results):
        levels = results["smtsm"].level_jobs
        assert len(levels) >= 2  # not everything at the max level


class TestMixedFleet:
    def test_arch_mix_expansion(self):
        from collections import Counter
        scheduler = FleetScheduler(FleetConfig(
            chips=9, jobs=10, arch_mix="power7:2,nehalem:1"))
        assert Counter(scheduler.node_archs) == {
            "power7": 6, "nehalem": 3}

    def test_mixed_fleet_runs(self):
        result = run(chips=6, jobs=200, arch_mix="power7:1,nehalem:1")
        assert result.settled
        assert set(result.arch_counts) == {"power7", "nehalem"}

    def test_hetero_chip_expands_to_cluster_nodes(self):
        from collections import Counter
        scheduler = FleetScheduler(FleetConfig(
            chips=6, jobs=10, arch_mix="power7:1,biglittle:1"))
        assert Counter(scheduler.node_archs) == {
            "power7": 2, "biglittle.big": 2, "biglittle.little": 2}

    def test_arm_and_hetero_fleet_runs(self):
        result = run(chips=4, jobs=150, arch_mix="armsmt:1,biglittle:1")
        assert result.settled
        assert set(result.arch_counts) == {
            "armsmt", "biglittle.big", "biglittle.little"}


class TestValidation:
    def test_strategy_must_be_batchable(self):
        with pytest.raises(ValueError, match="mega-batches"):
            simulate_fleet(chips=2, jobs=10, strategy="serial")

    def test_unknown_policy_lists_options(self):
        with pytest.raises(ValueError, match="valid options"):
            simulate_fleet(chips=2, jobs=10, policy="smtms")

    def test_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FleetConfig(chips=0)
        with pytest.raises(ValueError):
            FleetConfig(severity=1.5)
        with pytest.raises(ValueError):
            FleetConfig(arrival="bursty")


class TestFaultInjection:
    def test_crashes_and_losses_at_high_severity(self):
        result = run(jobs=600, severity=0.4, crash_prob=0.02, seed=5)
        assert result.settled
        assert result.node_crashes > 0
        assert result.rejected_crashed > 0

    def test_severity_zero_is_clean(self):
        result = run(severity=0.0, crash_prob=0.0, hang_prob=0.0)
        assert result.node_crashes == 0
        assert result.node_hangs == 0
        assert result.rejected_crashed == 0


class TestPinnedPayloads:
    """sha256 of ``json.dumps(payload, sort_keys=True)`` for three small
    fleets.  A drift in any RNG stream, in the fault-injected telemetry
    path or in the controllers shows up here as a changed digest."""

    @pytest.mark.parametrize("overrides, digest", [
        (dict(arch_mix="power7:3,nehalem:1", policy="smtsm", severity=0.2),
         "86275b2533b82579e6084be2662d09883f8a73a503039b63aea49dd4a4ebfd29"),
        (dict(policy="least_loaded", severity=0.4),
         "ae20fa6fbcdef7097f215ca16fb935bc58285703adfc845266e849c0a2a31038"),
        (dict(arch_mix="power7,armsmt,biglittle", policy="random", severity=0.2),
         "880577963d39963650b87388482659b7ce69c41fc2c99e1eba77644c1750aca2"),
    ])
    def test_payload_digest(self, overrides, digest):
        payload = simulate_fleet(chips=8, jobs=400, **overrides).payload()
        text = json.dumps(payload, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
