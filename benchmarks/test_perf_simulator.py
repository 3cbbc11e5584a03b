"""Performance of the simulator itself.

The experiment harness leans on the fast engine being genuinely fast
(a full 28-benchmark x 3-level POWER7 campaign should take ~1 s).
These benchmarks time the hot paths with pytest-benchmark's real
statistics and assert floor throughputs so a performance regression
fails loudly rather than silently doubling every sweep.
"""

from repro.arch import power7
from repro.experiments.systems import p7_system
from repro.sim.chip import solve_chip
from repro.sim.engine import RunSpec, simulate_run
from repro.sim.fast_core import CoreInput, solve_core
from repro.simos import NO_SYNC
from repro.simos.scheduler import place_threads
from repro.workloads import get_workload

EQUAKE = get_workload("Equake")


def test_perf_solve_core(benchmark):
    arch = power7()
    inp = CoreInput(arch, 4, tuple([EQUAKE.stream] * 4), threads_per_chip=32)
    result = benchmark(solve_core, inp)
    assert result.core_ipc > 0
    # The core solver is called O(10^3) times per campaign.
    assert benchmark.stats["mean"] < 0.01


def test_perf_solve_chip(benchmark):
    system = p7_system()
    placement = place_threads(system, 4, 32)
    result = benchmark(solve_chip, placement, EQUAKE.stream)
    assert result.aggregate_ipc > 0
    assert benchmark.stats["mean"] < 0.2


def test_perf_simulate_run(benchmark):
    system = p7_system()
    spec = RunSpec(system, 4, EQUAKE.stream, EQUAKE.sync, seed=1)
    result = benchmark(simulate_run, spec)
    assert result.wall_time_s > 0
    assert benchmark.stats["mean"] < 0.5

