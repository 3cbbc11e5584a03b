"""Fleet-scale SMTsm placement: a simulated datacenter of SMT chips.

The paper picks the best SMT level for *one* chip; this package asks
the same question at datacenter scale.  A :class:`FleetScheduler`
drives a discrete-event simulation of N chips (mixed POWER7/Nehalem
fleets supported) under a seeded synthetic job trace, consulting noisy
online SMTsm readings per node (through
:class:`~repro.core.robust.HardenedController`, with
:mod:`repro.faults` counter corruption and node crash/hang injection)
to decide both the SMT level *and* the placement of every job.

Layout::

    config     FleetConfig (+ REPRO_FLEET_* env overrides), arch-mix spec
    trace      Job + the seeded synthetic arrival-trace generator
    perfmodel  one columnar mega-batch -> per-(arch, workload,
               level) reference runs, fitted predictors, online meters
    node       Node: queue, SMT level, meter and fault state of one chip
    policy     Policy enum + PlacementPolicy protocol + implementations
    scheduler  the discrete-event loop, ControllerBank, FleetResult,
               simulate_fleet()
"""

from repro.fleet.config import FleetConfig, parse_arch_mix
from repro.fleet.policy import (
    PlacementPolicy,
    Policy,
    list_policies,
    make_policy,
    register_policy,
)
from repro.fleet.scheduler import FleetResult, FleetScheduler, simulate_fleet
from repro.fleet.trace import Job, generate_trace

__all__ = [
    "FleetConfig",
    "FleetResult",
    "FleetScheduler",
    "Job",
    "PlacementPolicy",
    "Policy",
    "generate_trace",
    "list_policies",
    "make_policy",
    "parse_arch_mix",
    "register_policy",
    "simulate_fleet",
]
