"""The fleet discrete-event loop: arrivals, dispatch, completion, faults.

:func:`simulate_fleet` is the subsystem's entry point.  It

1. expands the arch-mix spec into one node per chip;
2. solves the whole ``arch x workload x level`` space in **one**
   columnar mega-batch (:mod:`repro.fleet.perfmodel`) — the
   event loop itself never touches the chip solver, which is what
   keeps a 1000-chip x 100k-job run tractable;
3. calibrates the arrival rate to ``load x`` the fleet's max-level
   capacity and samples the seeded job trace;
4. runs the event loop: the placement policy picks a node (or sheds),
   jobs run at the policy-chosen SMT level, and every completion on a
   telemetry-driven policy feeds one fault-injected counter sample to
   the per-(arch, workload) :class:`ControllerBank` — the online SMTsm
   path, complete with blind-below-max probing;
5. injects node crashes (queue dropped, restart downtime) and hangs
   (stretched service) at severity-scaled rates.

Settlement is a hard invariant: every submitted job is exactly one of
completed / rejected at admission / lost to a crash, checked before the
result is returned and re-checked by the CI smoke gate.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.robust import HardenedConfig, HardenedController
from repro.faults.model import noise_profile
from repro.fleet.config import FleetConfig, parse_arch_mix
from repro.fleet.node import Node
from repro.fleet.perfmodel import FleetPerfModel, get_perf_model
from repro.fleet.policy import PlacementPolicy, make_policy
from repro.fleet.trace import Job, generate_trace, mean_job_size, mix_weights
from repro.obs import get_tracer
from repro.sim.engine import DEFAULT_WORK
from repro.util.rng import RngStream, seed_streams

__all__ = ["ControllerBank", "FleetResult", "FleetScheduler", "simulate_fleet"]

_COMPLETE, _RESTART = 1, 2


class ControllerBank:
    """Per-(arch, workload) hardened controllers, shared across nodes.

    The fleet's online SMTsm state: every node's (corrupted) completion
    samples for a workload feed one controller, whose current level is
    what telemetry-driven policies run that workload at, anywhere in
    the fleet.  Sharing is what lets the controllers actually warm up —
    a 1000-node fleet sees each (arch, workload) pair constantly even
    though any single node sees it rarely.
    """

    def __init__(
        self,
        model: FleetPerfModel,
        config: Optional[HardenedConfig] = None,
    ):
        self._model = model
        self._config = config
        self._controllers: Dict[Tuple[str, str], HardenedController] = {}

    def controller(self, arch: str, workload: str) -> HardenedController:
        key = (arch, workload)
        ctrl = self._controllers.get(key)
        if ctrl is None:
            ctrl = HardenedController(
                dict(self._model.predictors[arch]), self._config
            )
            self._controllers[key] = ctrl
        return ctrl

    def level(self, arch: str, workload: str) -> int:
        return self.controller(arch, workload).level

    def observe(self, arch: str, workload: str, sample) -> None:
        """Fold one sample into the pair's controller (no decision record)."""
        self.controller(arch, workload).fold(sample)

    @property
    def n_switches(self) -> int:
        return sum(c.n_switches for c in self._controllers.values())


@dataclass(frozen=True)
class FleetResult:
    """Aggregate outcome of one fleet simulation (shape of BENCH_fleet)."""

    config: FleetConfig
    n_nodes: int
    arch_counts: Mapping[str, int]
    jobs_submitted: int
    jobs_completed: int
    rejected_admission: int
    rejected_crashed: int
    horizon_s: float                  # offered-trace duration (last arrival)
    makespan_s: float                 # last event (queues fully drained)
    #: Aggregate throughput is normalized by the *horizon*, not the
    #: makespan: the horizon is identical for every policy under the
    #: same trace, so shedding jobs (which shortens the drain tail)
    #: can never inflate a policy's score.
    throughput_jobs_s: float
    work_throughput: float            # useful instructions per second
    latency_mean_s: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    smt_switches: int                 # node-level transitions actually applied
    controller_switches: int          # controller decisions (incl. probes)
    node_crashes: int
    node_hangs: int
    level_jobs: Mapping[int, int]     # dispatched jobs per SMT level

    @property
    def settled(self) -> bool:
        """Every submitted job is accounted for exactly once."""
        return self.jobs_submitted == (
            self.jobs_completed + self.rejected_admission + self.rejected_crashed
        )

    def payload(self) -> Dict[str, object]:
        """JSON-ready summary; stable key order, no float post-processing
        (bit-identical across runs of the same seed + config)."""
        return {
            "policy": self.config.policy,
            # The one engine the reference space is solved on; kept in
            # the payload so published payloads stay byte-identical.
            "strategy": "columnar",
            "severity": self.config.severity,
            "seed": self.config.seed,
            "chips": self.config.chips,
            "arch_mix": self.config.arch_mix,
            "arch_counts": dict(sorted(self.arch_counts.items())),
            "load": self.config.load,
            "arrival": self.config.arrival,
            "mix": self.config.mix,
            "jobs_submitted": self.jobs_submitted,
            "jobs_completed": self.jobs_completed,
            "rejected_admission": self.rejected_admission,
            "rejected_crashed": self.rejected_crashed,
            "settled": self.settled,
            "horizon_s": self.horizon_s,
            "makespan_s": self.makespan_s,
            "throughput_jobs_s": self.throughput_jobs_s,
            "work_throughput": self.work_throughput,
            "latency_mean_s": self.latency_mean_s,
            "latency_p50_s": self.latency_p50_s,
            "latency_p95_s": self.latency_p95_s,
            "latency_p99_s": self.latency_p99_s,
            "smt_switches": self.smt_switches,
            "controller_switches": self.controller_switches,
            "node_crashes": self.node_crashes,
            "node_hangs": self.node_hangs,
            "level_jobs": {
                str(level): count
                for level, count in sorted(self.level_jobs.items())
            },
        }


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def _expand_arch_mix(spec: str, chips: int) -> List[str]:
    """One arch name per chip, interleaved by the mix weights.

    A heterogeneous chip name in the mix (e.g. ``biglittle``) expands
    to its registered cluster architectures — a big/little node appears
    in the fleet as one node per cluster, each with its own SMT ceiling
    and bandwidth slice, so the placement policy schedules over the
    chip's per-cluster (arch, level) spaces.
    """
    from repro.arch.hetero import expand_node_archs

    entries = parse_arch_mix(spec)
    pattern: List[str] = []
    for name, weight in entries:
        pattern.extend(expand_node_archs(name) * weight)
    return [pattern[i % len(pattern)] for i in range(chips)]


class FleetScheduler:
    """One simulation run: owns nodes, policy, bank, and the event heap.

    The heap holds completions and restarts only; arrivals come from
    the time-sorted trace and are merged in by :meth:`_run_events`.
    """

    def __init__(self, config: FleetConfig):
        self.config = config
        self.workload_names = config.workload_names()
        self.node_archs = _expand_arch_mix(config.arch_mix, config.chips)
        arch_names = tuple(dict.fromkeys(self.node_archs))  # stable unique
        self.model = get_perf_model(arch_names, self.workload_names)

        self.rng = RngStream(config.seed, ("fleet",))
        fault_config = noise_profile(config.severity)
        self.nodes = [
            Node(i, arch, self.model, fault_config, self.rng.child("node", i))
            for i, arch in enumerate(self.node_archs)
        ]
        self.bank = ControllerBank(self.model)
        self.policy: PlacementPolicy = make_policy(
            config.policy, self.rng.child("policy")
        )
        self.policy.bind(self.nodes, config.queue_depth, self.bank)

        self._crash_p = config.crash_prob * config.severity
        self._hang_p = config.hang_prob * config.severity
        # Every stream a node will draw from, seeded in one batch rather
        # than one SeedSequence each on first use (same draws).
        lifecycle = self._crash_p > 0 or self._hang_p > 0
        telemetry = self.policy.uses_telemetry
        seed_streams(
            stream for node in self.nodes
            for stream in node.rng_streams(lifecycle=lifecycle, telemetry=telemetry)
        )

        # Offered load is calibrated against the fleet's *max-level*
        # capacity under the trace's workload mix, so every policy sees
        # the same arrival process and rate.
        weights = mix_weights(config, self.workload_names)
        mean_size = mean_job_size(config)
        capacity = sum(
            1.0 / self.model.mean_service_s(node.arch, weights, mean_size)
            for node in self.nodes
        )
        self.arrival_rate = config.load * capacity

        # Tallies
        self.submitted = 0
        self.completed = 0
        self.rejected = 0
        self.crash_lost = 0
        self.completed_work = 0.0
        self.latencies: List[float] = []
        self.level_jobs: Dict[int, int] = {}
        self._seq = 0
        self._heap: List[Tuple] = []
        self._last_t = 0.0

    # -- event plumbing ------------------------------------------------
    def _push(self, t: float, kind: int, node_id: int, job: Optional[Job]):
        self._seq += 1
        heapq.heappush(self._heap, (t, self._seq, kind, node_id, job))

    def _est_service(self, node: Node, job: Job) -> float:
        level = self.policy.level_for(node, job)
        return job.size * self.model.wall_s(node.arch, job.workload, level)

    def _refresh_est(self, node: Node, now: float) -> None:
        if node.running is not None:
            est = node.busy_until
        else:
            est = max(now, node.down_until)
        for queued in node.queue:
            est += self._est_service(node, queued)
        node.est_free_at = est
        self.policy.touch(node, now)

    # -- event handlers ------------------------------------------------
    def _arrive(self, job: Job, now: float) -> None:
        self.submitted += 1
        node_id = self.policy.place(job, now)
        if node_id is None:
            self.rejected += 1
            return
        node = self.nodes[node_id]
        node.queue.append(job)
        if not node.busy and node.down_until <= now:
            self._dispatch(node, now)
        self._refresh_est(node, now)

    def _dispatch(self, node: Node, now: float) -> None:
        job = node.queue.popleft()
        level = self.policy.level_for(node, job)
        node.apply_level(level)
        service = job.size * self.model.wall_s(node.arch, job.workload, level)
        if self._hang_p > 0 and node.fault_rng.random() < self._hang_p:
            service += self.config.hang_s
            node.n_hangs += 1
        node.running = job
        node.busy_until = now + service
        self.level_jobs[level] = self.level_jobs.get(level, 0) + 1
        self._push(now + service, _COMPLETE, node.node_id, job)

    def _complete(self, node: Node, job: Job, now: float) -> None:
        if node.running is not job:
            return  # the node crashed while this job ran; already counted
        node.running = None
        node.n_completed += 1
        self.completed += 1
        self.completed_work += job.size
        self.latencies.append(now - job.t_arrival)

        if self.policy.uses_telemetry:
            sample = node.measure(job, self.config.measure_interval_s)
            self.bank.observe(node.arch, job.workload, sample)

        if self._crash_p > 0 and node.fault_rng.random() < self._crash_p:
            self.crash_lost += node.crash(now, self.config.restart_s)
            self._push(node.down_until, _RESTART, node.node_id, None)
        elif node.queue:
            self._dispatch(node, now)
        self._refresh_est(node, now)

    # -- the run -------------------------------------------------------
    def _run_events(self, trace: List[Job]) -> None:
        """Drain the time-sorted trace and the event heap in time order.

        An arrival goes first when it ties with the heap's next event:
        the order of one heap in which every arrival was pushed before
        any completion (lower sequence numbers win ties).
        """
        heap = self._heap
        nodes = self.nodes
        n_jobs = len(trace)
        i = 0
        while i < n_jobs or heap:
            if i < n_jobs and (not heap or trace[i].t_arrival <= heap[0][0]):
                job = trace[i]
                i += 1
                self._last_t = job.t_arrival
                self._arrive(job, job.t_arrival)
                continue
            now, _, kind, node_id, job = heapq.heappop(heap)
            self._last_t = now
            if kind == _COMPLETE:
                self._complete(nodes[node_id], job, now)
            else:  # _RESTART: recovered node rejoins the indexes
                self._refresh_est(nodes[node_id], now)

    def run(self) -> FleetResult:
        config = self.config
        trace = generate_trace(
            config, self.workload_names, self.arrival_rate,
            self.rng.child("trace"),
        )
        horizon = trace[-1].t_arrival

        tracer = get_tracer()
        with tracer.span(
            "fleet.simulate",
            chips=config.chips, jobs=config.jobs,
            policy=str(config.policy), severity=config.severity,
        ):
            self._run_events(trace)

        makespan = self._last_t if self._last_t > 0 else 1.0
        horizon = horizon if horizon > 0 else makespan
        latencies = sorted(self.latencies)
        n_complete = self.completed
        arch_counts: Dict[str, int] = {}
        for arch in self.node_archs:
            arch_counts[arch] = arch_counts.get(arch, 0) + 1

        result = FleetResult(
            config=config,
            n_nodes=len(self.nodes),
            arch_counts=arch_counts,
            jobs_submitted=self.submitted,
            jobs_completed=n_complete,
            rejected_admission=self.rejected,
            rejected_crashed=self.crash_lost,
            horizon_s=horizon,
            makespan_s=makespan,
            throughput_jobs_s=n_complete / horizon,
            work_throughput=self.completed_work * DEFAULT_WORK / horizon,
            latency_mean_s=(
                sum(latencies) / n_complete if n_complete else 0.0
            ),
            latency_p50_s=_percentile(latencies, 50.0),
            latency_p95_s=_percentile(latencies, 95.0),
            latency_p99_s=_percentile(latencies, 99.0),
            smt_switches=sum(n.n_smt_switches for n in self.nodes),
            controller_switches=self.bank.n_switches,
            node_crashes=sum(n.n_crashes for n in self.nodes),
            node_hangs=sum(n.n_hangs for n in self.nodes),
            level_jobs=dict(self.level_jobs),
        )
        if not result.settled:
            raise RuntimeError(
                f"fleet settlement broken: submitted={result.jobs_submitted} "
                f"!= completed={result.jobs_completed} + "
                f"rejected={result.rejected_admission} + "
                f"crashed={result.rejected_crashed}"
            )
        tracer.add("fleet.jobs_submitted", result.jobs_submitted)
        tracer.add("fleet.jobs_completed", result.jobs_completed)
        tracer.add("fleet.jobs_rejected", result.rejected_admission)
        tracer.add("fleet.jobs_crash_lost", result.rejected_crashed)
        tracer.add("fleet.smt_switches", result.smt_switches)
        tracer.add("fleet.node_crashes", result.node_crashes)
        tracer.add("fleet.node_hangs", result.node_hangs)
        return result


def simulate_fleet(
    config: Optional[FleetConfig] = None, **overrides
) -> FleetResult:
    """Run one fleet simulation.

    Pass a :class:`FleetConfig`, keyword overrides over one, or
    keywords alone (``simulate_fleet(chips=8, jobs=500)``).
    """
    if config is None:
        config = FleetConfig(**overrides)
    elif overrides:
        config = dataclasses.replace(config, **overrides)
    return FleetScheduler(config).run()
