"""End-to-end tests for the fleet scheduler (:mod:`repro.fleet`).

The reference fleets here are deliberately small (a few chips, a few
hundred jobs) so the whole module stays in tier-1 time; the full-size
policy comparison lives in ``scripts/bench_fleet.py``.
"""

import hashlib
import heapq
import json

import pytest

from repro.fleet import FleetConfig, FleetScheduler, simulate_fleet
from repro.fleet import scheduler as scheduler_module
from repro.fleet.trace import Job


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


class HeapOrderScheduler(FleetScheduler):
    """The event loop before arrivals left the heap: every arrival is
    pushed up front, so a tie goes to the lower sequence number."""

    ARRIVE = -1

    def _run_events(self, trace):
        for job in trace:
            self._push(job.t_arrival, self.ARRIVE, -1, job)
        while self._heap:
            now, _, kind, node_id, job = heapq.heappop(self._heap)
            self._last_t = now
            if kind == self.ARRIVE:
                self._arrive(job, now)
            elif kind == scheduler_module._COMPLETE:
                self._complete(self.nodes[node_id], job, now)
            else:
                self._refresh_est(self.nodes[node_id], now)


def logging_scheduler(base):
    class Logged(base):
        def __init__(self, config):
            super().__init__(config)
            self.log = []

        def _arrive(self, job, now):
            self.log.append(("arrive", job.job_id, now))
            super()._arrive(job, now)

        def _complete(self, node, job, now):
            self.log.append(("complete", job.job_id, now))
            super()._complete(node, job, now)

    return Logged


class TestEventOrder:
    CONFIG = FleetConfig(chips=1, jobs=4, policy="least_loaded",
                         queue_depth=1, severity=0.0)

    def tie_trace(self):
        """Job 0 runs, job 1 fills the one-slot queue, and job 2 arrives
        at the very instant job 0 completes."""
        probe = FleetScheduler(self.CONFIG)
        workload = probe.workload_names[0]
        service = probe.model.wall_s("power7", workload, probe.nodes[0].max_level)
        done = 1.0 + service
        return done, [
            Job(0, 1.0, workload, 1.0),
            Job(1, 1.0 + 0.5 * service, workload, 1.0),
            Job(2, done, workload, 1.0),
            Job(3, done + 3.0 * service, workload, 1.0),
        ]

    def run(self, monkeypatch, cls, trace):
        monkeypatch.setattr(
            scheduler_module, "generate_trace", lambda *args: list(trace))
        sched = cls(self.CONFIG)
        return sched, sched.run().payload()

    def test_arrival_goes_first_on_a_tie(self, monkeypatch):
        done, trace = self.tie_trace()
        sched, payload = self.run(
            monkeypatch, logging_scheduler(FleetScheduler), trace)
        at_tie = [(kind, job) for kind, job, t in sched.log if t == done]
        assert at_tie == [("arrive", 2), ("complete", 0)]
        # Job 2 found the queue still full, so it was shed.
        assert payload["rejected_admission"] == 1
        assert payload["settled"]

    def test_tie_payload_matches_single_heap_order(self, monkeypatch):
        _, trace = self.tie_trace()
        merged = self.run(monkeypatch, logging_scheduler(FleetScheduler), trace)
        oracle = self.run(monkeypatch, logging_scheduler(HeapOrderScheduler), trace)
        assert merged[0].log == oracle[0].log
        assert merged[1] == oracle[1]

    @pytest.mark.parametrize("overrides", [
        dict(policy="smtsm", severity=0.4, crash_prob=0.02, seed=5),
        dict(policy="round_robin", severity=0.2, arch_mix="power7,armsmt"),
    ])
    def test_random_fleets_match_single_heap_order(self, overrides):
        config = FleetConfig(chips=6, jobs=400, **overrides)
        assert (FleetScheduler(config).run().payload()
                == HeapOrderScheduler(config).run().payload())


class TestBatchSeeding:
    def test_run_streams_seeded_up_front(self):
        scheduler = FleetScheduler(FleetConfig(chips=3, jobs=10, severity=0.2))
        for node in scheduler.nodes:
            streams = node.rng_streams(lifecycle=True, telemetry=True)
            assert len(streams) == 5
            assert all(s._gen is not None for s in streams)

    def test_unused_streams_stay_unseeded(self):
        scheduler = FleetScheduler(FleetConfig(
            chips=3, jobs=10, severity=0.0, policy="least_loaded"))
        for node in scheduler.nodes:
            assert node.rng_streams(lifecycle=True, telemetry=True) == (
                node.fault_rng,)
            assert node.fault_rng._gen is None
