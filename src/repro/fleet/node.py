"""One node of the simulated fleet: a chip, its queue, its meter.

A node serves one job at a time from a bounded FIFO queue.  What the
scheduler learns about a finished job comes through the node's
:class:`~repro.fleet.perfmodel.NodeMeter` wrapped in a per-node
:class:`~repro.faults.FaultyApp` — so severity-scaled counter noise,
multiplex dropout and stale reads all stand between the true SMTsm and
the level decision, with each node corrupting its stream along its own
deterministic trajectory.  Level decisions themselves live in the
scheduler's per-(arch, workload) controller bank; the node records the
level each job actually ran at and counts real SMT transitions.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.counters.pmu import CounterSample
from repro.faults.app import FaultyApp
from repro.faults.model import FaultConfig
from repro.fleet.perfmodel import FleetPerfModel, NodeMeter
from repro.fleet.trace import Job
from repro.util.rng import RngStream

__all__ = ["Node"]


class Node:
    """Mutable per-chip state owned by the discrete-event loop."""

    __slots__ = (
        "node_id", "arch", "max_level", "level", "queue", "running",
        "busy_until", "down_until", "est_free_at", "meter", "faulty",
        "fault_rng", "n_smt_switches", "n_crashes", "n_hangs",
        "n_completed",
    )

    def __init__(
        self,
        node_id: int,
        arch: str,
        model: FleetPerfModel,
        fault_config: FaultConfig,
        rng: RngStream,
    ):
        self.node_id = node_id
        self.arch = arch
        self.max_level = model.max_level(arch)
        self.level = self.max_level          # level the latest job ran at
        self.queue: Deque[Job] = deque()
        self.running: Optional[Job] = None
        self.busy_until = 0.0
        self.down_until = 0.0                # > now while restarting after a crash
        self.est_free_at = 0.0               # scheduler-maintained backlog estimate
        self.meter = NodeMeter(
            model, arch, model.workload_names[0], self.max_level
        )
        # One persistent FaultyApp per node: the corruption RNG stream
        # advances across jobs, so a node's fault history is one
        # deterministic trajectory rather than a fresh draw per job.
        self.faulty = FaultyApp(
            self.meter, fault_config, rng=rng.child("counters")
        )
        self.fault_rng = rng.child("lifecycle")
        self.n_smt_switches = 0
        self.n_crashes = 0
        self.n_hangs = 0
        self.n_completed = 0

    @property
    def queue_len(self) -> int:
        return len(self.queue)

    @property
    def busy(self) -> bool:
        return self.running is not None

    def accepts(self, queue_depth: int) -> bool:
        return len(self.queue) < queue_depth

    def apply_level(self, level: int) -> None:
        """Set the level the next job runs at, counting real transitions."""
        if level != self.level:
            self.level = level
            self.n_smt_switches += 1

    def rng_streams(
        self, *, lifecycle: bool, telemetry: bool
    ) -> Tuple[RngStream, ...]:
        """The streams a run draws from on this node: ``lifecycle``
        (crash/hang draws) and the counter corruption of :meth:`measure`."""
        own = (self.fault_rng,) if lifecycle else ()
        return own + (self.faulty.rng_streams() if telemetry else ())

    def measure(self, job: Job, interval_s: float) -> CounterSample:
        """One corrupted counter sample for the job that just finished."""
        self.meter.retarget(job.workload, self.level)
        return self.faulty.advance(interval_s)

    def crash(self, now: float, restart_s: float) -> int:
        """Drop all queued/running work; return the number of jobs lost."""
        lost = len(self.queue) + (1 if self.running is not None else 0)
        self.queue.clear()
        self.running = None
        self.busy_until = now
        self.down_until = now + restart_s
        self.est_free_at = self.down_until
        self.level = self.max_level          # fresh boot comes up at max
        self.n_crashes += 1
        return lost
