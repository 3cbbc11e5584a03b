"""SMT chip-multiprocessor simulator.

Two engines share one semantic model of an out-of-order SMT core:

* :mod:`repro.sim.fast_core` — a vectorized mean-value-analysis engine
  that solves for steady-state per-thread throughput, port utilization
  and dispatch-held fraction in closed form.  Used for full experiment
  sweeps (hundreds of benchmark x SMT-level runs).
* :mod:`repro.sim.cycle_core` — a per-cycle pipeline engine with a real
  dispatch/issue-queue/ROB structure.  Used to validate the fast engine
  and for micro-experiments.

Chip-level composition (shared L3, DRAM bandwidth, NUMA) lives in
:mod:`repro.sim.chip`; the full-system run loop in
:mod:`repro.sim.engine`.  Every public sweep runs on the columnar
engine (:mod:`repro.sim.table`), which solves a whole sweep as
struct-of-arrays operations.  The legacy batched engine
(:class:`repro.sim.fast_core.CoreBatch`,
:func:`repro.sim.chip.solve_chip_batch`,
:func:`repro.sim.engine.simulate_many`) stays selectable with
``strategy="batched"``, and :mod:`repro.sim.runcache` persists
converged runs on disk across sessions.
"""

from repro.sim.stream import MemoryBehavior, StreamParams
from repro.sim.cache import CacheModel, EffectiveMissRates, SharingContext
from repro.sim.memory import BandwidthModel, numa_remote_fraction
from repro.sim.branch import BranchModel
from repro.sim.fast_core import (
    CoreBatch,
    CoreInput,
    CoreOutput,
    solve_core,
    solve_core_batch,
)
from repro.sim.chip import ChipSolution, solve_chip, solve_chip_batch
from repro.sim.results import RunResult
from repro.sim.engine import RunSpec, simulate_many, simulate_run
from repro.sim.runcache import RunCache, run_cache_key

#: Names served from :mod:`repro.sim.cycle_core` on first access
#: (PEP 562): no sweep, serve or fleet path runs the cycle engine, so
#: importing the package does not load it.
_CYCLE_CORE_NAMES = ("CycleCore", "CycleCoreResult", "InstructionGenerator")


def __getattr__(name: str):
    if name in _CYCLE_CORE_NAMES:
        from repro.sim import cycle_core

        return getattr(cycle_core, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "MemoryBehavior",
    "StreamParams",
    "CacheModel",
    "EffectiveMissRates",
    "SharingContext",
    "BandwidthModel",
    "numa_remote_fraction",
    "BranchModel",
    "CoreBatch",
    "CoreInput",
    "CoreOutput",
    "solve_core",
    "solve_core_batch",
    "ChipSolution",
    "solve_chip",
    "solve_chip_batch",
    "RunResult",
    "RunSpec",
    "simulate_many",
    "simulate_run",
    "RunCache",
    "run_cache_key",
    "CycleCore",
    "CycleCoreResult",
    "InstructionGenerator",
]
