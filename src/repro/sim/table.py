"""Columnar ScenarioTable engine: whole-sweep simulation without per-run loops.

The batched engine (:func:`repro.sim.engine.simulate_many`) already
vectorizes the *core solves*, but it still materializes every scenario
as per-run Python objects — a :class:`CoreInput` per occupancy class per
bisection step, a fresh :class:`~repro.arch.classes.Mix` per spin
iteration, and one ``Pmu`` with thousands of scalar ``add`` calls per
run.  This module lowers a whole batch of :class:`RunSpec`\\ s into one
struct-of-arrays **scenario table** instead:

* one *run row* per spec (memory-latency multiplier, spin fraction,
  lock cap, bandwidth capacity, noise, seed);
* one *core row* per (run, core-occupancy class) — breadth-first
  placement yields at most two occupancy classes per run, so the core
  table stays within ``2 x runs`` rows regardless of core counts.

Everything that does not depend on the bandwidth multiplier or the spin
blend — cache pressure, effective miss rates, branch sharing penalties,
issue capability, port routing — is precomputed once into column
arrays.  Each evaluation of the MVA interval core model, the bandwidth
bisection, and the spin/lock fixed point is then a handful of
whole-table numpy operations; converged runs are masked out rather than
re-dispatched.  The arithmetic mirrors the scalar engine operation for
operation, so results agree with :func:`repro.sim.engine.simulate_run`
to floating-point round-off (the differential pillar pins <= 1e-9
relative error).

The table also exposes its converged fixed-point *state*
(:class:`TableState`) so the calibrated surrogate
(:mod:`repro.sim.surrogate`) can train on solver outputs and re-enter
the shared finalization path when it answers a query directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.classes import N_CLASSES, SPIN_LOOP_MIX, InstrClass
from repro.counters.events import CLASS_COUNT_EVENTS, arch_event_names
from repro.obs import get_tracer
from repro.sim import engine as _engine
from repro.sim.branch import SHARING_PENALTY_PER_THREAD
from repro.sim.cache import MAX_PRESSURE_SCALE
from repro.sim.chip import BISECTION_STEPS, TOLERANCE
from repro.sim.engine import MAX_SPIN, SPIN_ITERATIONS, RunSpec
from repro.sim.fast_core import QUEUE_FILL_FACTOR, effective_smt_mode
from repro.sim.memory import MAX_LATENCY_MULT, RHO_CAP, numa_extra_latency
from repro.sim.results import RunResult
from repro.sim.stream import REF_L1_KB, REF_L2_KB, REF_L3_MB_PER_THREAD
from repro.simos.scheduler import place_threads
from repro.simos.timebase import TimeAccounting, account_run
from repro.util.rng import RngStream

__all__ = ["ScenarioTable", "TableState", "simulate_many_columnar"]

_SPIN_VEC = SPIN_LOOP_MIX.vector  # read-only (5,)
_BRANCH = int(InstrClass.BRANCH)


@dataclass
class TableState:
    """Converged fixed-point state of a :class:`ScenarioTable` drive.

    Per-core-row arrays hold the *reported* solution (the base solve for
    sync-free runs, the last spin iteration otherwise); per-run arrays
    hold the converged bandwidth multiplier, traffic, and spin state.
    ``base_mult``/``base_traffic`` record the sync-free base phase — the
    surrogate's training labels.
    """

    x_rows: np.ndarray            # (R,) per-thread IPC of the reported solution
    held_rows: np.ndarray         # (R,) dispatch-held fraction per core row
    mult: np.ndarray              # (J,) converged memory-latency multiplier
    run_traffic: np.ndarray       # (J,) offered DRAM traffic, GB/s
    spin_final: np.ndarray        # (J,) reported spin fraction (after last update)
    w_blend: np.ndarray           # (J,) blend weight of the reported solution
    useful_rate: np.ndarray       # (J,) useful instructions/s in the parallel phase
    base_mult: np.ndarray         # (J,) base-phase multiplier (unblended mix)
    base_traffic: np.ndarray      # (J,) base-phase traffic, GB/s
    sync_free: np.ndarray         # (J,) bool
    spin0: np.ndarray             # (J,) direct busy-wait fraction
    runnable: np.ndarray          # (J,)
    blocked: np.ndarray           # (J,)
    lock_cap: np.ndarray          # (J,)


class _Sol:
    """One whole-table kernel evaluation."""

    __slots__ = ("x", "lam", "held", "long_frac", "traffic_core", "run_traffic", "util")

    def __init__(self, x, lam, held, long_frac, traffic_core, run_traffic, util):
        self.x = x
        self.lam = lam
        self.held = held
        self.long_frac = long_frac
        self.traffic_core = traffic_core
        self.run_traffic = run_traffic
        self.util = util


def _latency_multiplier(traffic: np.ndarray, cap: np.ndarray) -> np.ndarray:
    """Vector mirror of :meth:`BandwidthModel.latency_multiplier`."""
    rho = np.minimum(traffic / cap, RHO_CAP)
    return np.minimum(1.0 / (1.0 - rho ** 3), MAX_LATENCY_MULT)


class _View:
    """Gathered column bundle for a subset of a table's runs.

    The bandwidth bisection and the spin fixed point both operate on run
    subsets (only non-converged / non-sync-free runs); a view gathers
    the relevant core rows once so every kernel evaluation works on
    compact contiguous arrays.
    """

    def __init__(self, table: "ScenarioTable", run_idx: np.ndarray):
        self.table = table
        self.run_idx = run_idx
        rows: List[np.ndarray] = []
        counts = []
        for j in run_idx:
            lo, hi = table.run_row_start[j], table.run_row_start[j + 1]
            rows.append(np.arange(lo, hi))
            counts.append(hi - lo)
        self.rows = (
            np.concatenate(rows) if rows else np.zeros(0, dtype=int)
        )
        counts = np.asarray(counts, dtype=int)
        self.seg = np.concatenate(([0], np.cumsum(counts)))[:-1]
        r = self.rows
        # Gather the per-row constant columns once.
        self.occ = table.row_occ[r]
        self.n_cores = table.row_cores[r]
        self.base_mix = table.row_mix[r]
        self.mem_base = table.row_mem_base[r]
        self.mem_coef = table.row_mem_coef[r]
        self.long_base = table.row_long_base[r]
        self.br_rate = table.row_br_rate[r]
        self.inv_r = table.row_inv_r[r]
        self.disp_w = table.row_disp_w[r]
        self.traffic_bpi = table.row_traffic_bpi[r]
        self.cap = table.run_cap[run_idx]
        self.local_run = np.repeat(np.arange(len(run_idx)), counts)

    def __len__(self) -> int:
        return len(self.run_idx)

    def solve(self, mult: np.ndarray, w: np.ndarray) -> _Sol:
        """Evaluate the MVA core model for every row of the view.

        ``mult``/``w`` are per-run (view-local) memory-latency
        multipliers and spin-blend weights.  Mirrors
        :meth:`repro.sim.fast_core.CoreBatch.solve` specialized to
        homogeneous (SPMD) rows with uniform priorities.
        """
        t = self.table
        tracer = get_tracer()
        if tracer.enabled:
            tracer.add("table.solves")
        mult_r = mult[self.local_run]
        w_r = w[self.local_run]

        # Spin-polluted mix, renormalized exactly like Mix.blend does.
        bm = (1.0 - w_r)[:, None] * self.base_mix + w_r[:, None] * _SPIN_VEC[None, :]
        bm = np.clip(bm, 0.0, None)
        bm = bm / bm.sum(axis=1, keepdims=True)

        br_stall = bm[:, _BRANCH] * self.br_rate * t.branch_penalty
        stall = (self.mem_base + br_stall) + self.mem_coef * mult_r
        x_want = 1.0 / (self.inv_r + stall)

        # Structural limits: port saturation and the shared dispatch width.
        port_vec = bm @ t.routing_t                      # (r, P)
        demand = (self.occ * x_want)[:, None] * port_vec
        with np.errstate(divide="ignore"):
            ratios = np.where(
                demand > 0, t.port_caps[None, :] / np.maximum(demand, 1e-300), np.inf
            )
        lam_port = np.minimum(1.0, ratios.min(axis=1))
        sum_x = self.occ * x_want
        lam_fe = np.minimum(1.0, self.disp_w / np.maximum(sum_x, 1e-12))
        lam = np.minimum(lam_port, lam_fe)

        # Uniform-priority water-fill over identical threads: everyone
        # throttles by lambda unless the share pins at the cap.
        share = (lam * sum_x) / self.occ
        x_constrained = np.where(share >= x_want - 1e-15, x_want, share)
        x = np.where(lam < 1.0, x_constrained, x_want)
        x = np.minimum(x, x_want)

        long_frac = np.clip(x * (self.long_base + self.mem_coef * mult_r), 0.0, 1.0)
        held_queue = (self.occ * long_frac) / self.occ * QUEUE_FILL_FACTOR
        held = np.clip(1.0 - (1.0 - held_queue) * lam, 0.0, 1.0)
        traffic_core = self.occ * (x * self.traffic_bpi)

        run_traffic = np.add.reduceat(
            self.n_cores * (traffic_core * t.bytes_to_gbps), self.seg
        )
        util = run_traffic / self.cap
        return _Sol(x, lam, held, long_frac, traffic_core, run_traffic, util)

    def chip_phase(self, w: np.ndarray) -> Tuple[_Sol, np.ndarray]:
        """Bandwidth bisection for every run of the view, in lockstep.

        Mirrors :func:`repro.sim.chip._solve_chip_batch`: settle runs at
        unit latency, pin saturated runs at the cap, bisect the rest.
        All active brackets halve together, so the loop exits for every
        run at the same step (~14 of the nominal 40).
        """
        m = len(self)
        final_mult = np.ones(m)
        sol = self.solve(final_mult, w)
        undone = sol.util > TOLERANCE
        steps = 0
        if undone.any():
            hi_mult = _latency_multiplier(RHO_CAP * self.cap, self.cap)
            sol_hi = self.solve(np.where(undone, hi_mult, 1.0), w)
            saturated = undone & (sol_hi.util >= RHO_CAP)
            final_mult = np.where(saturated, hi_mult, final_mult)
            active = undone & ~saturated
            lo = np.zeros(m)
            hi = np.full(m, RHO_CAP)
            for _ in range(BISECTION_STEPS):
                if not active.any():
                    break
                steps += 1
                mid = (lo + hi) / 2.0
                step_mult = _latency_multiplier(mid * self.cap, self.cap)
                step_mult = np.where(active, step_mult, final_mult)
                utils = self.solve(step_mult, w).util
                above = utils > mid
                lo = np.where(active & above, mid, lo)
                hi = np.where(active & ~above, mid, hi)
                final_mult = np.where(active, step_mult, final_mult)
                active = active & ~((hi - lo) < TOLERANCE)
        sol = self.solve(final_mult, w)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.add("table.bisection_steps", steps)
        return sol, final_mult

    def thread_ipc_sum(self, sol: _Sol) -> np.ndarray:
        """Per-run sum of per-thread IPC (view-local order)."""
        return np.add.reduceat(self.n_cores * self.occ * sol.x, self.seg)


class ScenarioTable:
    """Struct-of-arrays over every scenario parameter of a spec batch.

    All specs must share one :class:`Architecture` *instance* (group by
    ``id(arch)`` first — :func:`simulate_many_columnar` does).  Build
    once, then :meth:`run` drives the full fixed point and finalization,
    or :meth:`run_with_state` additionally returns the converged
    :class:`TableState` for surrogate calibration.
    """

    def __init__(self, specs: Sequence[RunSpec]):
        specs = list(specs)
        if not specs:
            raise ValueError("ScenarioTable needs at least one RunSpec")
        arch = specs[0].system.arch
        for spec in specs:
            if spec.system.arch is not arch:
                raise ValueError(
                    "all specs in a ScenarioTable must share one Architecture instance"
                )
        self.specs = specs
        self.arch = arch
        self.freq = arch.cycles_per_second()
        self.bytes_to_gbps = self.freq / 1e9
        self.routing_t = np.ascontiguousarray(arch.topology.routing_matrix.T)
        self.port_caps = arch.topology.capacities
        self.branch_penalty = float(arch.branch_penalty)
        self.event_names = self._event_columns()
        self.n_events = len(self.event_names)

        J = len(specs)
        self.n_runs = J
        self.ns = [spec.resolved_threads() for spec in specs]
        self.placements = [
            place_threads(spec.system, spec.smt_level, n)
            for spec, n in zip(specs, self.ns)
        ]
        self.run_cap = np.array(
            [spec.system.mem_bandwidth_gbps() for spec in specs]
        )
        self.run_noise = np.array([spec.noise_rel for spec in specs])
        self.run_n = np.array(self.ns, dtype=float)

        # ---- core rows: one per (run, occupancy class) ---------------
        occ_l: List[int] = []
        cores_l: List[int] = []
        tpc_l: List[int] = []
        extra_l: List[float] = []
        mode_l: List[int] = []
        row_start = [0]
        core_rows: List[int] = []        # per occupied core, placement order
        core_occ: List[int] = []
        core_start = [0]
        ctx_rows: List[int] = []         # per hardware context, placement order
        ctx_start = [0]
        caches = arch.caches
        for j, (spec, placement) in enumerate(zip(specs, self.placements)):
            occupied = [t for t in placement.threads_per_core if t > 0]
            threads_per_chip = max(placement.threads_per_chip())
            extra_lat = numa_extra_latency(
                spec.system.n_chips,
                spec.stream.memory.data_sharing,
                caches.numa_extra_cycles,
            )
            occ_to_row: Dict[int, int] = {}
            for occ in set(occupied):
                occ_to_row[occ] = len(occ_l)
                occ_l.append(occ)
                cores_l.append(occupied.count(occ))
                tpc_l.append(max(threads_per_chip, occ))
                extra_l.append(extra_lat)
                mode_l.append(effective_smt_mode(arch, occ))
            row_start.append(len(occ_l))
            for occ in occupied:
                core_rows.append(occ_to_row[occ])
                core_occ.append(occ)
                ctx_rows.extend([occ_to_row[occ]] * occ)
            core_start.append(len(core_rows))
            ctx_start.append(len(ctx_rows))

        R = len(occ_l)
        self.n_rows = R
        self.run_row_start = np.asarray(row_start, dtype=int)
        self.core_row = np.asarray(core_rows, dtype=int)
        self.core_occ = np.asarray(core_occ, dtype=float)
        self.core_start = np.asarray(core_start, dtype=int)
        self.ctx_row = np.asarray(ctx_rows, dtype=int)
        self.ctx_start = np.asarray(ctx_start, dtype=int)
        self.row_run = np.repeat(
            np.arange(J), np.diff(self.run_row_start)
        )

        occ = np.asarray(occ_l, dtype=float)
        tpc = np.asarray(tpc_l, dtype=float)
        extra = np.asarray(extra_l, dtype=float)
        self.row_occ = occ
        self.row_cores = np.asarray(cores_l, dtype=float)

        # Per-row stream parameters (one stream per run: SPMD threads).
        ilp = np.empty(R)
        mlp = np.empty(R)
        br_base = np.empty(R)
        l1 = np.empty(R)
        l2 = np.empty(R)
        l3 = np.empty(R)
        alpha = np.empty(R)
        d = np.empty(R)
        wb = np.empty(R)
        mix = np.empty((R, N_CLASSES))
        ilp_scale = np.empty(R)
        disp_w = np.empty(R)
        resources_by_mode: Dict[int, Tuple[float, float]] = {}
        for r in range(R):
            spec = specs[self.row_run[r]]
            stream = spec.stream
            mem = stream.memory
            ilp[r] = stream.ilp
            mlp[r] = stream.mlp
            br_base[r] = stream.branch_mispredict_rate
            l1[r] = mem.l1_mpki
            l2[r] = mem.l2_mpki
            l3[r] = mem.l3_mpki
            alpha[r] = mem.locality_alpha
            d[r] = mem.data_sharing
            wb[r] = mem.writeback_factor
            mix[r] = stream.mix.vector
            mode = mode_l[r]
            cached = resources_by_mode.get(mode)
            if cached is None:
                cached = (
                    arch.partition.thread_resources(mode).ilp_scale,
                    arch.partition.core_dispatch_width(mode),
                )
                resources_by_mode[mode] = cached
            ilp_scale[r], disp_w[r] = cached
        self.row_mix = mix
        self.row_disp_w = disp_w

        # ---- mult-independent precompute (mirrors CoreBatch.__init__) -
        # Homogeneous rows: the clipped footprint-heat self-ratio is
        # exactly 1, so each of the occ co-runners contributes (1 - d);
        # the sequential accumulation replicates the padded-axis sum.
        one_minus_d = 1.0 - d
        contrib_sum = np.zeros(R)
        for i in range(int(occ.max())):
            contrib_sum = contrib_sum + np.where(occ > i, one_minus_d, 0.0)
        pressure = 1.0 + contrib_sum - one_minus_d

        inv_max = 1.0 / MAX_PRESSURE_SCALE
        scale_l1 = np.clip(
            (REF_L1_KB / (caches.l1d_kb / pressure)) ** alpha, inv_max, MAX_PRESSURE_SCALE
        )
        scale_l2 = np.clip(
            (REF_L2_KB / (caches.l2_kb / pressure)) ** alpha, inv_max, MAX_PRESSURE_SCALE
        )
        k_chip = 1.0 + (tpc - 1.0) * one_minus_d
        c_l3 = caches.l3_mb * 1024.0 / k_chip
        scale_l3 = np.clip(
            (REF_L3_MB_PER_THREAD * 1024.0 / c_l3) ** alpha, inv_max, MAX_PRESSURE_SCALE
        )
        l1e = l1 * scale_l1
        l2e = np.minimum(l2 * scale_l2, l1e)
        l3e = np.minimum(l3 * scale_l3, l2e)
        self.row_l1e, self.row_l2e, self.row_l3e = l1e, l2e, l3e

        l2hit = l1e - l2e
        l3hit = l2e - l3e
        inv_kmlp = 1.0 / (1000.0 * mlp)
        self.row_mem_coef = l3e * caches.lat_mem * inv_kmlp
        self.row_long_base = (l3hit * caches.lat_l3 + l3e * extra) * inv_kmlp
        self.row_mem_base = (
            l2hit * caches.lat_l2 + l3hit * caches.lat_l3 + l3e * extra
        ) * inv_kmlp

        self.row_br_rate = np.minimum(
            br_base * (1.0 + SHARING_PENALTY_PER_THREAD * (occ - 1.0)), 1.0
        )
        r_cap = np.minimum(ilp * ilp_scale, float(arch.partition.issue_width))
        self.row_inv_r = 1.0 / r_cap
        self.row_traffic_bpi = l3e / 1000.0 * caches.line_bytes * wb

        tracer = get_tracer()
        if tracer.enabled:
            tracer.add("table.tables")
            tracer.add("table.runs", J)
            tracer.add("table.rows", R)

    # -- helpers -------------------------------------------------------

    @classmethod
    def from_specs(cls, specs: Sequence[RunSpec]) -> "ScenarioTable":
        """Build a table from a scenario list (alias of the constructor)."""
        return cls(specs)

    def __len__(self) -> int:
        return self.n_runs

    def _event_columns(self) -> List[str]:
        """Counter columns in the scalar engine's per-context draw order."""
        names = ["CYCLES", "INSTRUCTIONS", "DISP_HELD_RES"]
        names.extend(CLASS_COUNT_EVENTS)
        names.extend(f"PORT_ISSUE_{p}" for p in self.arch.topology.port_names)
        names.extend(["L1_DMISS", "L2_MISS", "L3_MISS", "BR_MISPRED"])
        assert set(names) == set(arch_event_names(self.arch))
        return names

    def view(self, run_idx: Optional[np.ndarray] = None) -> _View:
        if run_idx is None:
            run_idx = np.arange(self.n_runs)
        return _View(self, np.asarray(run_idx, dtype=int))

    # -- the fixed-point driver ----------------------------------------

    def drive(self, run_idx: Optional[np.ndarray] = None) -> TableState:
        """Run the full solver fixed point for the selected runs.

        Returns a :class:`TableState` whose per-row arrays are full-table
        sized (rows outside ``run_idx`` are zero) and whose per-run
        arrays are full-length (entries outside ``run_idx`` are zero).
        """
        if run_idx is None:
            run_idx = np.arange(self.n_runs)
        run_idx = np.asarray(run_idx, dtype=int)
        J = self.n_runs

        x_rows = np.zeros(self.n_rows)
        held_rows = np.zeros(self.n_rows)
        mult = np.zeros(J)
        run_traffic = np.zeros(J)
        spin_final = np.zeros(J)
        w_blend = np.zeros(J)
        useful_rate = np.zeros(J)
        base_mult = np.zeros(J)
        base_traffic = np.zeros(J)
        sync_free = np.zeros(J, dtype=bool)
        spin0_a = np.zeros(J)
        runnable_a = np.zeros(J)
        blocked_a = np.zeros(J)
        lock_cap_a = np.zeros(J)

        view = self.view(run_idx)
        base_sol, base_mults = view.chip_phase(np.zeros(len(view)))
        ipc_sum = view.thread_ipc_sum(base_sol)

        # Per-run sync profile evaluation (cheap Python: a few dataclass
        # method calls per run; everything heavy stays columnar).
        loop_local: List[int] = []
        for pos, j in enumerate(run_idx):
            spec = self.specs[j]
            n = self.ns[j]
            runnable = spec.sync.runnable_fraction(n)
            holder_rate = (ipc_sum[pos] / self.run_n[j]) * self.freq
            lock_cap = spec.sync.lock_throughput_cap(float(holder_rate), n)
            spin0 = spec.sync.spin_fraction(n)
            runnable_a[j] = runnable
            blocked_a[j] = spec.sync.blocked_fraction(n)
            lock_cap_a[j] = lock_cap
            spin0_a[j] = spin0
            base_mult[j] = base_mults[pos]
            base_traffic[j] = base_sol.run_traffic[pos]
            if spin0 == 0.0 and math.isinf(lock_cap):
                sync_free[j] = True
                useful_rate[j] = ipc_sum[pos] * self.freq * runnable
                mult[j] = base_mults[pos]
                run_traffic[j] = base_sol.run_traffic[pos]
                spin_final[j] = spin0
                w_blend[j] = spin0
            else:
                loop_local.append(pos)
                spin_final[j] = spin0

        # Scatter the base solution into the reported rows (overwritten
        # below for runs that enter the spin loop).
        x_rows[view.rows] = base_sol.x
        held_rows[view.rows] = base_sol.held

        tracer = get_tracer()
        if tracer.enabled:
            tracer.add("table.sync_free_runs", len(run_idx) - len(loop_local))
            if loop_local:
                tracer.add("table.spin_iterations", SPIN_ITERATIONS * len(loop_local))

        if loop_local:
            loop_idx = run_idx[np.asarray(loop_local, dtype=int)]
            lview = self.view(loop_idx)
            spins = spin0_a[loop_idx]
            spin0 = spin0_a[loop_idx]
            runnable = runnable_a[loop_idx]
            lock_cap = lock_cap_a[loop_idx]
            sol = None
            mults = None
            for _ in range(SPIN_ITERATIONS):
                blend_w = spins
                sol, mults = lview.chip_phase(blend_w)
                raw_rate = lview.thread_ipc_sum(sol) * self.freq
                available = raw_rate * runnable
                useful = np.minimum(available * (1.0 - spin0), lock_cap)
                spins = np.minimum(MAX_SPIN, 1.0 - useful / available)
            x_rows[lview.rows] = sol.x
            held_rows[lview.rows] = sol.held
            mult[loop_idx] = mults
            run_traffic[loop_idx] = sol.run_traffic
            spin_final[loop_idx] = spins
            w_blend[loop_idx] = blend_w
            useful_rate[loop_idx] = useful

        return TableState(
            x_rows=x_rows,
            held_rows=held_rows,
            mult=mult,
            run_traffic=run_traffic,
            spin_final=spin_final,
            w_blend=w_blend,
            useful_rate=useful_rate,
            base_mult=base_mult,
            base_traffic=base_traffic,
            sync_free=sync_free,
            spin0=spin0_a,
            runnable=runnable_a,
            blocked=blocked_a,
            lock_cap=lock_cap_a,
        )

    # -- finalization --------------------------------------------------

    def finalize(
        self, state: TableState, run_idx: Optional[np.ndarray] = None
    ) -> List[RunResult]:
        """Vectorized time accounting, jitter, and counters.

        Mirrors :func:`repro.sim.engine._finalize_run` for every run of
        ``run_idx`` at once: the only per-run Python work is the seeded
        RNG stream (one ``standard_normal`` block per run, replicating
        the scalar draw order bit-for-bit) and the result dataclasses.
        """
        if run_idx is None:
            run_idx = np.arange(self.n_runs)
        run_idx = np.asarray(run_idx, dtype=int)
        arch = self.arch
        freq = self.freq
        E = self.n_events
        _engine._warm_serial_rates(arch, [self.specs[j].stream for j in run_idx])

        m = len(run_idx)
        # Times + jitter (scalar arithmetic per run mirrors account_run /
        # _jitter_times exactly; the draws come from one block per run).
        times_list: List[TimeAccounting] = []
        z_blocks: List[Optional[np.ndarray]] = []
        for j in run_idx:
            spec = self.specs[j]
            n = self.ns[j]
            inflation = spec.sync.work_inflation(n)
            serial_rate = _engine._serial_rate(spec.system, spec.stream)
            times = account_run(
                useful_instructions=spec.useful_instructions * inflation,
                parallel_useful_rate=float(state.useful_rate[j]),
                serial_rate=serial_rate,
                sync=spec.sync,
                n_threads=n,
            )
            rng = RngStream(spec.seed, ("run", arch.name, spec.smt_level, n))
            if spec.noise_rel > 0:
                z = rng.gen.standard_normal(2 + n * E)
                wall_factor = max(0.5, 1.0 + spec.noise_rel * z[0])
                cpu_factor = max(0.5, 1.0 + (spec.noise_rel * 0.5) * z[1])
                total_cpu = min(
                    times.total_cpu_s * wall_factor * cpu_factor,
                    times.wall_time_s * wall_factor * times.n_threads,
                )
                times = TimeAccounting(
                    wall_time_s=times.wall_time_s * wall_factor,
                    serial_time_s=times.serial_time_s * wall_factor,
                    parallel_time_s=times.parallel_time_s * wall_factor,
                    total_cpu_s=total_cpu,
                    n_threads=times.n_threads,
                )
                z_blocks.append(z[2:])
            else:
                z_blocks.append(None)
            times_list.append(times)

        # Final blended mix (reported spin) and derived port fractions.
        spin = state.spin_final[run_idx]
        base_mix = np.stack([self.specs[j].stream.mix.vector for j in run_idx])
        bm = (1.0 - spin)[:, None] * base_mix + spin[:, None] * _SPIN_VEC[None, :]
        bm = np.clip(bm, 0.0, None)
        bm = bm / bm.sum(axis=1, keepdims=True)
        port_fracs = bm @ self.routing_t                      # (m, P)

        runnable = state.runnable[run_idx]
        par_cycles = (
            np.array([t.parallel_time_s for t in times_list]) * freq * runnable
        )

        # Flattened context axis over the selected runs.
        ctx_sel = np.concatenate(
            [np.arange(self.ctx_start[j], self.ctx_start[j + 1]) for j in run_idx]
        )
        ctx_counts = np.array(
            [self.ctx_start[j + 1] - self.ctx_start[j] for j in run_idx], dtype=int
        )
        ctx_seg = np.concatenate(([0], np.cumsum(ctx_counts)))[:-1]
        ctx_row = self.ctx_row[ctx_sel]
        ctx_run = np.repeat(np.arange(m), ctx_counts)         # view-local

        cyc = par_cycles[ctx_run]
        instr = state.x_rows[ctx_row] * cyc
        V = np.empty((len(ctx_sel), E))
        V[:, 0] = cyc
        V[:, 1] = instr
        V[:, 2] = state.held_rows[ctx_row] * cyc
        V[:, 3:8] = instr[:, None] * bm[ctx_run]
        n_ports = port_fracs.shape[1]
        V[:, 8:8 + n_ports] = instr[:, None] * port_fracs[ctx_run]
        base = 8 + n_ports
        V[:, base + 0] = instr * self.row_l1e[ctx_row] / 1000.0
        V[:, base + 1] = instr * self.row_l2e[ctx_row] / 1000.0
        V[:, base + 2] = instr * self.row_l3e[ctx_row] / 1000.0
        V[:, base + 3] = (instr * bm[ctx_run, _BRANCH]) * self.row_br_rate[ctx_row]

        # Counter jitter: one factor per (context, event), drawn in the
        # scalar per-context order; noise-free runs multiply by exactly 1.
        Z = np.zeros((len(ctx_sel), E))
        for pos in range(m):
            z = z_blocks[pos]
            if z is not None:
                lo, hi = ctx_seg[pos], ctx_seg[pos] + ctx_counts[pos]
                Z[lo:hi] = z.reshape(ctx_counts[pos], E)
        factors = np.maximum(0.05, 1.0 + self.run_noise[run_idx][ctx_run][:, None] * Z)
        V = V * factors
        sums = np.add.reduceat(V, ctx_seg, axis=0)            # (m, E)

        # Occupancy-weighted dispatch-held per run (mirrors np.average).
        core_sel = np.concatenate(
            [np.arange(self.core_start[j], self.core_start[j + 1]) for j in run_idx]
        )
        core_counts = np.array(
            [self.core_start[j + 1] - self.core_start[j] for j in run_idx], dtype=int
        )
        core_seg = np.concatenate(([0], np.cumsum(core_counts)))[:-1]
        held_core = state.held_rows[self.core_row[core_sel]]
        occ_core = self.core_occ[core_sel]
        mdh = (
            np.add.reduceat(held_core * occ_core, core_seg)
            / np.add.reduceat(occ_core, core_seg)
        )

        cap = self.run_cap[run_idx]
        traffic = state.run_traffic[run_idx]
        mem_util = np.minimum(traffic, cap) / cap

        thread_ipc = state.x_rows[ctx_row]
        names = self.event_names
        results: List[RunResult] = []
        for pos, j in enumerate(run_idx):
            spec = self.specs[j]
            lo, hi = ctx_seg[pos], ctx_seg[pos] + ctx_counts[pos]
            events = {name: float(sums[pos, e]) for e, name in enumerate(names)}
            results.append(
                RunResult(
                    arch=arch,
                    smt_level=spec.smt_level,
                    n_threads=self.ns[j],
                    n_chips=spec.system.n_chips,
                    useful_instructions=spec.useful_instructions,
                    times=times_list[pos],
                    events=events,
                    spin_fraction=float(state.spin_final[j]),
                    blocked_fraction=float(state.blocked[j]),
                    mem_latency_mult=float(state.mult[j]),
                    mem_utilization=float(mem_util[pos]),
                    per_thread_ipc=tuple(float(v) for v in thread_ipc[lo:hi]),
                    dispatch_held_fraction=float(mdh[pos]),
                )
            )
        return results

    def run(self, run_idx: Optional[np.ndarray] = None) -> List[RunResult]:
        """Drive the fixed point and finalize, columnar end to end."""
        state = self.drive(run_idx)
        return self.finalize(state, run_idx)

    def run_with_state(self) -> Tuple[List[RunResult], TableState]:
        """Like :meth:`run` over all runs, also returning the state."""
        state = self.drive()
        return self.finalize(state), state


def simulate_many_columnar(specs: Sequence[RunSpec]) -> List[RunResult]:
    """Columnar equivalent of :func:`repro.sim.engine.simulate_many`.

    Groups specs by architecture instance, lowers each group into one
    :class:`ScenarioTable`, and returns results in input order.  Agrees
    with the serial reference to floating-point round-off (<= 1e-9
    relative, pinned by the ``columnar_vs_serial`` differential check).
    """
    specs = list(specs)
    if not specs:
        return []
    results: List[Optional[RunResult]] = [None] * len(specs)
    groups: Dict[int, List[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault(id(spec.system.arch), []).append(i)
    with get_tracer().span(
        "table.simulate_many", runs=len(specs), arch_groups=len(groups)
    ):
        for indices in groups.values():
            table = ScenarioTable([specs[i] for i in indices])
            for i, result in zip(indices, table.run()):
                results[i] = result
    return results  # type: ignore[return-value]
