"""Full-system run loop: one application run at one SMT level.

Composes the substrate layers exactly the way §IV's experiments do:

1. the OS places one software thread per available hardware context
   (or any requested count) — :mod:`repro.simos.scheduler`;
2. lock contention converts a thread-count-dependent fraction of each
   thread's cycles into spin-loop instructions, changing the executed
   mix — :mod:`repro.simos.sync`;
3. the chip solver finds steady-state throughput, port pressure,
   dispatch-held and memory contention — :mod:`repro.sim.chip`;
4. wall/CPU times follow from the serial/parallel decomposition —
   :mod:`repro.simos.timebase`;
5. hardware counters accumulate per context — :mod:`repro.counters`.

Run-to-run variance is modelled with a small seeded jitter on times and
counters, so experiment scatter looks like (and stresses the threshold
machinery like) real measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.classes import CLASS_ORDER, SPIN_LOOP_MIX, InstrClass
from repro.counters.events import CLASS_COUNT_EVENTS, port_issue_event
from repro.counters.pmu import Pmu
from repro.obs import get_tracer
from repro.sim.chip import ChipSolution, solve_chip, solve_chip_batch
from repro.sim.fast_core import CoreInput, solve_core, solve_core_batch
from repro.sim.results import RunResult
from repro.sim.stream import StreamParams
from repro.simos.scheduler import Placement, place_threads
from repro.simos.sync import SyncProfile
from repro.simos.system import SystemSpec
from repro.simos.timebase import TimeAccounting, account_run
from repro.util.rng import RngStream
from repro.util.validation import check_fraction, check_positive

#: Default amount of useful work per run; large enough that per-run
#: noise averages out, small enough to keep sweeps fast.
DEFAULT_WORK = 2e10


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to simulate one run."""

    system: SystemSpec
    smt_level: int
    stream: StreamParams           # application stream, before spin pollution
    sync: SyncProfile
    n_threads: Optional[int] = None  # default: one per hardware context
    useful_instructions: float = DEFAULT_WORK
    seed: int = 0
    noise_rel: float = 0.01

    def __post_init__(self):
        self.system.arch.validate_smt_level(self.smt_level)
        check_positive("useful_instructions", self.useful_instructions)
        check_fraction("noise_rel", self.noise_rel)

    def resolved_threads(self) -> int:
        if self.n_threads is not None:
            if self.n_threads < 1:
                raise ValueError(f"n_threads must be >= 1, got {self.n_threads}")
            return self.n_threads
        return self.system.contexts_at(self.smt_level)


#: Spinning can dominate but never fully starve the application.
MAX_SPIN = 0.95
#: Fixed-point sweeps over the spin fraction (mix pollution feeds back
#: into throughput, which feeds back into the spin fraction).
SPIN_ITERATIONS = 3


def simulate_run(spec: RunSpec) -> RunResult:
    """Simulate one application run; see the module docstring for the flow."""
    system = spec.system
    n = spec.resolved_threads()
    placement = place_threads(system, spec.smt_level, n)
    freq = system.arch.cycles_per_second()
    runnable = spec.sync.runnable_fraction(n)

    # --- contended-lock throughput cap -------------------------------
    # The lock holder executes the *application* mix at this SMT level's
    # per-thread speed; its rate bounds how fast work can flow through
    # the critical section (paper §II's scalability bottleneck, and why
    # SMT4 can hurt lock-heavy codes: the holder itself runs slower).
    base_solution = solve_chip(placement, spec.stream)
    holder_rate = float(np.mean(base_solution.per_thread_ipc())) * freq
    lock_cap = spec.sync.lock_throughput_cap(holder_rate, n)

    # --- spin fixed point ---------------------------------------------
    # Spin pollution of the executed stream (paper §II: spinning raises
    # the branch fraction and the deviation from the ideal mix).  The
    # spin fraction has two sources: a direct busy-wait component
    # (barrier-style) and the derived component from the lock cap.
    spin0 = spec.sync.spin_fraction(n)
    spin = spin0
    solution = base_solution
    if spin0 == 0.0 and math.isinf(lock_cap):
        # Sync-free workload: a zero spin fraction blends the mix with
        # weight 0 and an uncapped lock leaves the rate untouched, so
        # every iteration would reproduce the base solution exactly.
        useful_rate = float(np.sum(solution.per_thread_ipc())) * freq * runnable
        get_tracer().add("engine.sync_free_runs")
    else:
        useful_rate = None
        for _ in range(SPIN_ITERATIONS):
            effective_stream = spec.stream.with_mix(
                spec.stream.mix.blend(SPIN_LOOP_MIX, spin)
            )
            solution = solve_chip(placement, effective_stream)
            raw_rate = float(np.sum(solution.per_thread_ipc())) * freq
            available = raw_rate * runnable  # executed instr/s among running threads
            useful_rate = min(available * (1.0 - spin0), lock_cap)
            spin = min(MAX_SPIN, 1.0 - useful_rate / available)
        tracer = get_tracer()
        tracer.add("engine.spin_rounds", SPIN_ITERATIONS)
        tracer.add("engine.spin_iterations", SPIN_ITERATIONS)

    return _finalize_run(spec, n, placement, solution, spin, useful_rate)


def simulate_many(specs: Sequence[RunSpec]) -> List[RunResult]:
    """Simulate many runs, batching the chip solves across specs.

    Semantically equivalent to ``[simulate_run(s) for s in specs]`` (to
    floating-point round-off): the lock cap, spin fixed point, time
    accounting, jitter, and counters follow the exact scalar control
    flow, but every round of chip solves — the base solve and each spin
    iteration — runs through :func:`repro.sim.chip.solve_chip_batch` so
    the whole sweep shares vectorized core evaluations.  Specs are
    grouped by architecture instance (a batch cannot mix architectures);
    results come back in input order.
    """
    specs = list(specs)
    results: List[Optional[RunResult]] = [None] * len(specs)
    groups: Dict[int, List[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault(id(spec.system.arch), []).append(i)
    with get_tracer().span(
        "engine.simulate_many", runs=len(specs), arch_groups=len(groups)
    ):
        for indices in groups.values():
            for i, result in zip(indices, _simulate_group([specs[i] for i in indices])):
                results[i] = result
    return results  # type: ignore[return-value]


def _simulate_group(specs: List[RunSpec]) -> List[RunResult]:
    """Batched run loop for specs sharing one architecture instance."""
    arch = specs[0].system.arch
    freq = arch.cycles_per_second()
    ns = [spec.resolved_threads() for spec in specs]
    placements = [
        place_threads(spec.system, spec.smt_level, n) for spec, n in zip(specs, ns)
    ]

    _warm_serial_rates(arch, [spec.stream for spec in specs])

    base = solve_chip_batch(
        [(pl, spec.stream) for pl, spec in zip(placements, specs)]
    )
    solutions: List[ChipSolution] = list(base)
    runnables: List[float] = []
    lock_caps: List[float] = []
    spin0s: List[float] = []
    spins: List[float] = []
    useful_rates: List[Optional[float]] = []
    loop_idx: List[int] = []
    for i, (spec, n, sol) in enumerate(zip(specs, ns, base)):
        runnable = spec.sync.runnable_fraction(n)
        holder_rate = float(np.mean(sol.per_thread_ipc())) * freq
        lock_cap = spec.sync.lock_throughput_cap(holder_rate, n)
        spin0 = spec.sync.spin_fraction(n)
        runnables.append(runnable)
        lock_caps.append(lock_cap)
        spin0s.append(spin0)
        spins.append(spin0)
        if spin0 == 0.0 and math.isinf(lock_cap):
            useful_rates.append(float(np.sum(sol.per_thread_ipc())) * freq * runnable)
        else:
            useful_rates.append(None)
            loop_idx.append(i)

    tracer = get_tracer()
    if tracer.enabled:
        tracer.add("engine.sync_free_runs", len(specs) - len(loop_idx))
        if loop_idx:
            tracer.add("engine.spin_rounds", SPIN_ITERATIONS)
            tracer.add("engine.spin_iterations", SPIN_ITERATIONS * len(loop_idx))

    if loop_idx:
        for _ in range(SPIN_ITERATIONS):
            jobs = [
                (
                    placements[i],
                    specs[i].stream.with_mix(
                        specs[i].stream.mix.blend(SPIN_LOOP_MIX, spins[i])
                    ),
                )
                for i in loop_idx
            ]
            for i, sol in zip(loop_idx, solve_chip_batch(jobs)):
                solutions[i] = sol
                raw_rate = float(np.sum(sol.per_thread_ipc())) * freq
                available = raw_rate * runnables[i]
                useful = min(available * (1.0 - spin0s[i]), lock_caps[i])
                useful_rates[i] = useful
                spins[i] = min(MAX_SPIN, 1.0 - useful / available)

    return [
        _finalize_run(spec, n, placement, solution, spin, useful_rate)
        for spec, n, placement, solution, spin, useful_rate in zip(
            specs, ns, placements, solutions, spins, useful_rates
        )
    ]


def _finalize_run(
    spec: RunSpec,
    n: int,
    placement: Placement,
    solution: ChipSolution,
    spin: float,
    useful_rate: Optional[float],
) -> RunResult:
    """Time accounting, jitter, and counters for a converged run."""
    system = spec.system
    arch = system.arch
    effective_stream = spec.stream.with_mix(spec.stream.mix.blend(SPIN_LOOP_MIX, spin))
    per_thread_ipc = solution.per_thread_ipc()
    runnable = spec.sync.runnable_fraction(n)

    # Parallel overhead inflates executed work relative to useful work.
    inflation = spec.sync.work_inflation(n)
    serial_rate = _serial_rate(system, spec.stream)
    times = account_run(
        useful_instructions=spec.useful_instructions * inflation,
        parallel_useful_rate=useful_rate,
        serial_rate=serial_rate,
        sync=spec.sync,
        n_threads=n,
    )

    rng = RngStream(spec.seed, ("run", arch.name, spec.smt_level, n))
    times = _jitter_times(times, rng, spec.noise_rel)

    pmu = _fill_counters(
        placement, solution, effective_stream, times, runnable, rng, spec.noise_rel
    )
    events = pmu.aggregate()

    return RunResult(
        arch=arch,
        smt_level=spec.smt_level,
        n_threads=n,
        n_chips=system.n_chips,
        useful_instructions=spec.useful_instructions,
        times=times,
        events=events,
        spin_fraction=spin,
        blocked_fraction=spec.sync.blocked_fraction(n),
        mem_latency_mult=solution.mem_latency_mult,
        mem_utilization=solution.mem_utilization,
        per_thread_ipc=per_thread_ipc,
        dispatch_held_fraction=solution.mean_dispatch_held,
    )


#: Serial rates depend only on (architecture, stream) — not the SMT
#: level — so one entry serves a workload's whole level sweep.  Keys use
#: ``id(arch)`` because architectures hold dict-valued partition tables
#: and are unhashable; the stored arch reference pins the id.  Every
#: insert goes through :func:`_remember_serial_rates`, which holds the
#: memo to ``_SERIAL_RATE_CACHE_MAX`` entries.
_SERIAL_RATE_CACHE: Dict[Tuple[int, StreamParams], Tuple[object, float]] = {}
_SERIAL_RATE_CACHE_MAX = 4096


def _remember_serial_rates(
    arch, rates: Sequence[Tuple[StreamParams, float]]
) -> None:
    """Memoize solved serial rates for ``arch``, keeping the memo bounded.

    A batch that would overflow the cap clears the memo first rather
    than midway: callers read every rate of the batch straight back, and
    a rate recomputed by the scalar solver can differ from the batch
    solver's in the last bits.  For the same reason a single batch
    larger than the cap is kept whole.
    """
    if len(_SERIAL_RATE_CACHE) + len(rates) > _SERIAL_RATE_CACHE_MAX:
        _SERIAL_RATE_CACHE.clear()
    for stream, rate in rates:
        _SERIAL_RATE_CACHE[(id(arch), stream)] = (arch, rate)


def _warm_serial_rates(arch, streams: Sequence[StreamParams]) -> None:
    """Solve and memoize every serial rate of ``streams`` not yet known
    for ``arch``, in one vectorized pass (independent SMT1 solo solves)."""
    pending: Dict[StreamParams, None] = {}
    for stream in streams:
        hit = _SERIAL_RATE_CACHE.get((id(arch), stream))
        if hit is None or hit[0] is not arch:
            pending[stream] = None
    if not pending:
        return
    get_tracer().add("engine.serial_memo_misses", len(pending))
    solo = solve_core_batch([
        CoreInput(arch=arch, smt_level=1, streams=(stream,), threads_per_chip=1)
        for stream in pending
    ])
    freq = arch.cycles_per_second()
    _remember_serial_rates(arch, [
        (stream, float(out.ipc[0]) * freq) for stream, out in zip(pending, solo)
    ])


def _serial_rate(system: SystemSpec, stream: StreamParams) -> float:
    """Single-thread throughput during serial sections (memoized).

    One thread on one otherwise-idle core: the core reverts to SMT1
    mode (paper §II-A) and sees no bandwidth contention.
    """
    arch = system.arch
    key = (id(arch), stream)
    hit = _SERIAL_RATE_CACHE.get(key)
    if hit is not None and hit[0] is arch:
        get_tracer().add("engine.serial_memo_hits")
        return hit[1]
    get_tracer().add("engine.serial_memo_misses")
    out = solve_core(
        CoreInput(
            arch=arch,
            smt_level=1,
            streams=(stream,),
            threads_per_chip=1,
        )
    )
    rate = float(out.ipc[0]) * arch.cycles_per_second()
    _remember_serial_rates(arch, [(stream, rate)])
    return rate


def _jitter_times(times: TimeAccounting, rng: RngStream, noise_rel: float) -> TimeAccounting:
    if noise_rel <= 0:
        return times
    wall_factor = max(0.5, 1.0 + rng.normal(0.0, noise_rel))
    cpu_factor = max(0.5, 1.0 + rng.normal(0.0, noise_rel * 0.5))
    total_cpu = min(
        times.total_cpu_s * wall_factor * cpu_factor,
        times.wall_time_s * wall_factor * times.n_threads,
    )
    return TimeAccounting(
        wall_time_s=times.wall_time_s * wall_factor,
        serial_time_s=times.serial_time_s * wall_factor,
        parallel_time_s=times.parallel_time_s * wall_factor,
        total_cpu_s=total_cpu,
        n_threads=times.n_threads,
    )


def _fill_counters(
    placement: Placement,
    solution: ChipSolution,
    stream: StreamParams,
    times: TimeAccounting,
    runnable: float,
    rng: RngStream,
    noise_rel: float,
) -> Pmu:
    """Accumulate per-context counters from the steady-state solution."""
    arch = placement.system.arch
    freq = arch.cycles_per_second()
    pmu = Pmu(arch, placement.n_threads)
    mix_vec = stream.mix.vector
    port_fracs = arch.topology.routing_matrix @ mix_vec
    par_cycles = times.parallel_time_s * freq * runnable

    def noisy(value: float) -> float:
        return rng.jitter(value, noise_rel) if noise_rel > 0 else value

    ctx = 0
    for occ, core_out in zip(solution.core_occupancy, solution.core_outputs):
        for slot in range(occ):
            ipc = float(core_out.ipc[slot])
            instructions = ipc * par_cycles
            rates = core_out.miss_rates[slot]
            br_frac = mix_vec[InstrClass.BRANCH]
            pmu.add(ctx, "CYCLES", noisy(par_cycles))
            pmu.add(ctx, "INSTRUCTIONS", noisy(instructions))
            pmu.add(
                ctx,
                "DISP_HELD_RES",
                noisy(core_out.dispatch_held_fraction * par_cycles),
            )
            for klass, event in zip(CLASS_ORDER, CLASS_COUNT_EVENTS):
                pmu.add(ctx, event, noisy(instructions * mix_vec[klass]))
            for p, name in enumerate(arch.topology.port_names):
                pmu.add(ctx, port_issue_event(name), noisy(instructions * port_fracs[p]))
            pmu.add(ctx, "L1_DMISS", noisy(instructions * rates.l1_mpki / 1000.0))
            pmu.add(ctx, "L2_MISS", noisy(instructions * rates.l2_mpki / 1000.0))
            pmu.add(ctx, "L3_MISS", noisy(instructions * rates.l3_mpki / 1000.0))
            # BR_CMPL is already covered by the class-count loop above.
            branches = instructions * br_frac
            pmu.add(
                ctx, "BR_MISPRED", noisy(branches * float(core_out.branch_rate[slot]))
            )
            ctx += 1
    assert ctx == placement.n_threads
    return pmu
