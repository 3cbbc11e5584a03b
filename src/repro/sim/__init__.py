"""SMT chip-multiprocessor simulator.

One semantic model of an out-of-order SMT core, solved two ways:

* :func:`repro.sim.engine.simulate_run` — the serial reference.  It
  solves one run at a time through :mod:`repro.sim.fast_core`, a
  mean-value-analysis core model that gives steady-state per-thread
  throughput, port utilization and dispatch-held fraction in closed
  form, inside :mod:`repro.sim.chip`'s shared-L3 / DRAM-bandwidth /
  NUMA fixed point.
* :class:`repro.sim.table.ScenarioTable` — the production solver.
  Every public sweep runs on it: it solves a whole sweep as
  struct-of-arrays operations and is checked against the serial
  reference and the figure goldens by ``repro check``.

The legacy batched engine (:class:`repro.sim.fast_core.CoreBatch`,
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
]
