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

:meth:`ScenarioTable.drive` hands its converged fixed point to
:meth:`ScenarioTable.finalize` as a :class:`TableState`: the reported
per-row solution and the per-run quantities time accounting, jitter
and the counters read.

Callers re-solve the same run layouts at fresh seeds (sweeps, checks,
the fleet perf model, served predicts), so the seed-independent columns
of a table and its converged :class:`TableState` are kept as a
*template* per layout (``_TEMPLATES``) and reused by later tables with
that layout, which then only draw their seeds' noise in ``finalize``;
see :class:`ScenarioTable`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.classes import SPIN_LOOP_MIX, InstrClass
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
from repro.simos.timebase import TimeAccounting, account_runs
from repro.util.rng import RngStream, seed_streams

__all__ = ["ScenarioTable", "TableState", "simulate_many_columnar"]

_SPIN_VEC = SPIN_LOOP_MIX.vector  # read-only (5,)
_BRANCH = int(InstrClass.BRANCH)


@dataclass
class TableState:
    """Converged fixed-point state of a :class:`ScenarioTable` drive.

    Per-core-row arrays hold the *reported* solution (the base solve for
    sync-free runs, the last spin iteration otherwise); per-run arrays
    hold the converged bandwidth multiplier, traffic, and spin state.
    """

    x_rows: np.ndarray            # (R,) per-thread IPC of the reported solution
    held_rows: np.ndarray         # (R,) dispatch-held fraction per core row
    mult: np.ndarray              # (J,) converged memory-latency multiplier
    run_traffic: np.ndarray       # (J,) offered DRAM traffic, GB/s
    spin_final: np.ndarray        # (J,) reported spin fraction (after last update)
    useful_rate: np.ndarray       # (J,) useful instructions/s in the parallel phase
    runnable: np.ndarray          # (J,)
    blocked: np.ndarray           # (J,)


class _Sol:
    """One whole-table kernel evaluation (``held`` is None if util-only)."""

    __slots__ = ("x", "held", "run_traffic", "util")

    def __init__(self, x, held, run_traffic, util):
        self.x = x
        self.held = held
        self.run_traffic = run_traffic
        self.util = util

    def split(self, rows: int, runs: int) -> Tuple["_Sol", "_Sol"]:
        """The solution of the view's first ``runs`` runs (its first
        ``rows`` rows) and that of the rest."""
        return (
            _Sol(self.x[:rows], self.held[:rows], self.run_traffic[:runs], self.util[:runs]),
            _Sol(self.x[rows:], self.held[rows:], self.run_traffic[runs:], self.util[runs:]),
        )


def _latency_multiplier(traffic: np.ndarray, cap: np.ndarray) -> np.ndarray:
    """Vector mirror of :meth:`BandwidthModel.latency_multiplier`."""
    rho = np.minimum(traffic / cap, RHO_CAP)
    return np.minimum(1.0 / (1.0 - rho ** 3), MAX_LATENCY_MULT)


def _spin_blend(base_mix: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Spin-polluted mix rows, renormalized exactly like ``Mix.blend`` does."""
    bm = (1.0 - w)[:, None] * base_mix + w[:, None] * _SPIN_VEC[None, :]
    bm = np.clip(bm, 0.0, None)
    return bm / bm.sum(axis=1, keepdims=True)


def _segments(
    start: np.ndarray, idx: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ranges ``start[i]:start[i + 1]`` for every ``i`` of ``idx``, concatenated.

    Returns ``(positions, counts, offsets)``; range ``k`` occupies
    ``positions[offsets[k]:offsets[k] + counts[k]]``.
    """
    lo = start[idx]
    counts = start[idx + 1] - lo
    offsets = np.cumsum(counts) - counts
    return np.arange(counts.sum()) + np.repeat(lo - offsets, counts), counts, offsets


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
        self.rows, counts, self.seg = _segments(table.run_row_start, run_idx)
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
        self.hi_mult = _latency_multiplier(RHO_CAP * self.cap, self.cap)
        self.local_run = np.repeat(np.arange(len(run_idx)), counts)

    def __len__(self) -> int:
        return len(self.run_idx)

    def blend(self, w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row terms of the spin blend at per-run weights ``w``.

        Returns ``(stall_base, port_vec)``: the multiplier-free stall
        (cache latencies plus the blended branch stall) and the blended
        mix routed onto the issue ports, port-major ``(P, r)`` so the
        per-row minimum over ports reduces across contiguous rows.
        Neither depends on the memory multiplier, so a bisection phase
        computes them once.
        """
        bm = _spin_blend(self.base_mix, w[self.local_run])
        br_stall = bm[:, _BRANCH] * self.br_rate * self.table.branch_penalty
        port_vec = np.ascontiguousarray((bm @ self.table.routing_t).T)
        return self.mem_base + br_stall, port_vec

    def solve(
        self,
        mult: np.ndarray,
        w: Optional[np.ndarray] = None,
        *,
        terms: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        util_only: bool = False,
    ) -> _Sol:
        """Evaluate the MVA core model for every row of the view.

        ``mult``/``w`` are per-run (view-local) memory-latency
        multipliers and spin-blend weights; ``terms`` passes
        :meth:`blend` of ``w`` precomputed instead.  ``util_only``
        skips the dispatch-held column (``held`` is None): the
        bisection probes read only ``util``.  Mirrors
        :meth:`repro.sim.fast_core.CoreBatch.solve` specialized to
        homogeneous (SPMD) rows with uniform priorities.
        """
        t = self.table
        tracer = get_tracer()
        if tracer.enabled:
            tracer.add("table.solves")
        stall_base, port_vec = self.blend(w) if terms is None else terms
        mult_r = mult[self.local_run]
        x_want = 1.0 / (self.inv_r + (stall_base + self.mem_coef * mult_r))

        # Structural limits: port saturation and the shared dispatch width.
        sum_x = self.occ * x_want
        demand = port_vec * sum_x                            # (P, r)
        ratios = np.where(
            demand > 0, t.port_caps / np.maximum(demand, 1e-300), np.inf
        )
        lam_port = np.minimum(1.0, ratios.min(axis=0))
        lam_fe = np.minimum(1.0, self.disp_w / np.maximum(sum_x, 1e-12))
        lam = np.minimum(lam_port, lam_fe)

        # Uniform-priority water-fill over identical threads: everyone
        # throttles by lambda unless the share pins at the cap.
        share = (lam * sum_x) / self.occ
        x_constrained = np.where(share >= x_want - 1e-15, x_want, share)
        x = np.where(lam < 1.0, x_constrained, x_want)
        x = np.minimum(x, x_want)

        traffic_core = self.occ * (x * self.traffic_bpi)
        run_traffic = np.add.reduceat(
            self.n_cores * (traffic_core * t.bytes_to_gbps), self.seg
        )
        util = run_traffic / self.cap
        if util_only:
            return _Sol(x, None, run_traffic, util)
        long_frac = np.clip(x * (self.long_base + self.mem_coef * mult_r), 0.0, 1.0)
        held_queue = (self.occ * long_frac) / self.occ * QUEUE_FILL_FACTOR
        held = np.clip(1.0 - (1.0 - held_queue) * lam, 0.0, 1.0)
        return _Sol(x, held, run_traffic, util)

    def chip_phase(self, w: np.ndarray) -> Tuple[_Sol, np.ndarray]:
        """Bandwidth bisection for every run of the view, in lockstep.

        Mirrors :func:`repro.sim.chip._solve_chip_batch`: settle runs at
        unit latency, pin saturated runs at the cap, bisect the rest.
        All active brackets halve together, so the loop exits for every
        run at the same step (~14 of the nominal 40).  The blend terms
        are computed once for the phase; every probe before the final
        solve is ``util_only``.  The brackets are kept compressed to the
        runs still bisecting (``act``), which shrinks as they close.
        """
        terms = self.blend(w)
        final_mult = np.ones(len(self))
        undone = self.solve(final_mult, terms=terms, util_only=True).util > TOLERANCE
        steps = 0
        if undone.any():
            hi_mult = self.hi_mult
            sol_hi = self.solve(np.where(undone, hi_mult, 1.0), terms=terms, util_only=True)
            saturated = undone & (sol_hi.util >= RHO_CAP)
            final_mult[saturated] = hi_mult[saturated]
            act = np.flatnonzero(undone & ~saturated)
            cap = self.cap[act]
            lo = np.zeros(len(act))
            hi = np.full(len(act), RHO_CAP)
            for _ in range(BISECTION_STEPS):
                if not len(act):
                    break
                steps += 1
                mid = (lo + hi) / 2.0
                final_mult[act] = _latency_multiplier(mid * cap, cap)
                above = self.solve(final_mult, terms=terms, util_only=True).util[act] > mid
                lo = np.where(above, mid, lo)
                hi = np.where(above, hi, mid)
                bisecting = ~((hi - lo) < TOLERANCE)
                if not bisecting.all():
                    act, cap, lo, hi = (a[bisecting] for a in (act, cap, lo, hi))
        sol = self.solve(final_mult, terms=terms)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.add("table.bisection_steps", steps)
        return sol, final_mult

    def thread_ipc_sum(self, sol: _Sol) -> np.ndarray:
        """Per-run sum of per-thread IPC (view-local order)."""
        return np.add.reduceat(self.n_cores * self.occ * sol.x, self.seg)


#: Table templates, keyed by :func:`_template_key`, least recently used
#: first.  A template is the ``vars()`` of a table built with its key:
#: every column that depends on neither a run's seed nor its
#: ``noise_rel``, its arrays read-only; once a table with the key has
#: run, also its converged :class:`TableState` (``"_state"``), which the
#: fixed point computes from those columns alone.  It pins the
#: architecture, streams and sync profiles its key names by ``id``, so no
#: id can be reused while the entry lives.  Serial rates are not in it:
#: they stay in ``engine._SERIAL_RATE_CACHE``.
_TEMPLATES: "OrderedDict[Tuple[int, tuple], Dict[str, Any]]" = OrderedDict()
_TEMPLATE_MAX = 64
#: Hashes of the keys built once and not kept.  A key's template is
#: kept from its second table on, so run layouts that never repeat
#: (most served predict batches) neither take memory nor evict one.
_SEEN_ONCE: set = set()
_SEEN_ONCE_MAX = 4096
_TEMPLATE_LOCK = threading.Lock()


def _template_key(arch, specs: Sequence[RunSpec]) -> Tuple[int, tuple]:
    """``id(arch)`` and, per run, what its seed-independent columns read:
    the stream and sync identities, chips, level, threads and work.

    The threads enter as asked for: ``None`` resolves from the chips and
    the level, which the key holds too.
    """
    return id(arch), tuple([
        (id(spec.stream), id(spec.sync), spec.system.n_chips, spec.smt_level,
         spec.n_threads, spec.useful_instructions)
        for spec in specs
    ])


def _remember(key: Tuple[int, tuple], columns: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """Mark ``columns`` read-only, and keep them as ``key``'s template if
    the key was seen before (evicting the least recently used one).
    Returns the kept template, or ``None``."""
    for value in columns.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    digest = hash(key)
    with _TEMPLATE_LOCK:
        if digest not in _SEEN_ONCE:
            if len(_SEEN_ONCE) >= _SEEN_ONCE_MAX:
                _SEEN_ONCE.clear()
            _SEEN_ONCE.add(digest)
            return None
        _SEEN_ONCE.discard(digest)
        while len(_TEMPLATES) >= _TEMPLATE_MAX:
            _TEMPLATES.popitem(last=False)
        template = _TEMPLATES[key] = dict(columns)
        return template


class ScenarioTable:
    """Struct-of-arrays over every scenario parameter of a spec batch.

    All specs must share one :class:`Architecture` *instance* (group by
    ``id(arch)`` first — :func:`simulate_many_columnar` does).  Construct
    it, then :meth:`run` drives the full fixed point and finalization.

    Everything the table computes that depends on neither a run's seed
    nor its ``noise_rel`` is its *template* (see :func:`_template_key`).
    Once a run layout has been built twice, later tables with it take
    the template's columns, read-only, instead of rebuilding them, and
    :meth:`run` takes the template's converged state instead of driving
    the fixed point again.
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
        key = _template_key(arch, specs)
        with _TEMPLATE_LOCK:
            template = _TEMPLATES.pop(key, None)
            if template is not None:
                _TEMPLATES[key] = template  # reinserted: most recently used last
        tracer = get_tracer()
        if template is None:
            self._build(arch, specs)
            template = _remember(key, vars(self))  # before the per-seed fields below
        else:
            self.__dict__.update(template)
            if tracer.enabled:
                tracer.add("table.template_hits")
        self._template = template
        self.specs = specs
        self.run_noise = np.array([spec.noise_rel for spec in specs])
        if tracer.enabled:
            tracer.add("table.tables")
            tracer.add("table.runs", self.n_runs)
            tracer.add("table.rows", self.n_rows)

    def _build(self, arch, specs: List[RunSpec]) -> None:
        """Compute every seed-independent column of the table."""
        self.arch = arch
        self.freq = arch.cycles_per_second()
        self.bytes_to_gbps = self.freq / 1e9
        self.routing_t = np.ascontiguousarray(arch.topology.routing_matrix.T)
        self.port_caps = arch.topology.capacities[:, None]    # (P, 1)
        self.branch_penalty = float(arch.branch_penalty)
        self.event_names = tuple(self._event_columns())
        self.n_events = len(self.event_names)

        J = len(specs)
        self.n_runs = J
        self.ns = ns = tuple(spec.resolved_threads() for spec in specs)
        self.syncs = syncs = tuple(spec.sync for spec in specs)
        self.run_n = np.array(ns, dtype=float)
        # Distinct stream objects (a catalog sweep reuses each workload's
        # stream at every level) and each run's index into them.
        stream_pos: Dict[int, int] = {}
        self.run_stream = np.array(
            [stream_pos.setdefault(id(spec.stream), len(stream_pos)) for spec in specs],
            dtype=int,
        )
        self.streams = tuple({id(spec.stream): spec.stream for spec in specs}.values())

        # ---- core rows: one per (run, occupancy class) ---------------
        # Placement and the row layout depend only on (chips, level,
        # threads), so each distinct triple is laid out once; the runs
        # then gather their layout's rows with offset index arithmetic.
        layouts: Dict[Tuple[int, int, int], int] = {}
        lay_rows: List[Tuple[int, int, int, float, float]] = []
        lay_cap: List[float] = []
        lay_core: List[int] = []     # local row of each occupied core
        lay_ctx: List[int] = []      # local row of each hardware context
        starts: Tuple[List[int], ...] = ([0], [0], [0])
        resources: Dict[int, Tuple[float, float]] = {}
        extra_by: Dict[Tuple[int, float], float] = {}
        run_layout = []
        run_extra = []
        caches = arch.caches
        for spec, n in zip(specs, ns):
            system = spec.system
            key = (system.n_chips, spec.smt_level, n)
            if key not in layouts:
                layouts[key] = len(layouts)
                placement = place_threads(system, spec.smt_level, n)
                occupied = [t for t in placement.threads_per_core if t > 0]
                threads_per_chip = max(placement.threads_per_chip())
                occ_to_row: Dict[int, int] = {}
                for occ in set(occupied):
                    occ_to_row[occ] = len(occ_to_row)
                    mode = effective_smt_mode(arch, occ)
                    if mode not in resources:
                        resources[mode] = (
                            arch.partition.thread_resources(mode).ilp_scale,
                            arch.partition.core_dispatch_width(mode),
                        )
                    lay_rows.append((occ, occupied.count(occ),
                                     max(threads_per_chip, occ), *resources[mode]))
                lay_cap.append(system.mem_bandwidth_gbps())
                for occ in occupied:
                    lay_core.append(occ_to_row[occ])
                    lay_ctx.extend([occ_to_row[occ]] * occ)
                for start, items in zip(starts, (lay_rows, lay_core, lay_ctx)):
                    start.append(len(items))
            run_layout.append(layouts[key])
            numa = (system.n_chips, spec.stream.memory.data_sharing)
            if numa not in extra_by:
                extra_by[numa] = numa_extra_latency(*numa, caches.numa_extra_cycles)
            run_extra.append(extra_by[numa])
        run_layout_a = np.asarray(run_layout, dtype=int)
        self.run_cap = np.asarray(lay_cap)[run_layout_a]

        def spread(start: List[int], local: Sequence) -> Tuple[np.ndarray, np.ndarray]:
            """Every run's copy of its layout's ``local`` entries, and the
            per-run start offsets into the result."""
            src, counts, _ = _segments(np.asarray(start), run_layout_a)
            return np.asarray(local)[src], np.concatenate(([0], np.cumsum(counts)))

        rows, self.run_row_start = spread(starts[0], lay_rows)
        self.row_run = np.repeat(np.arange(J), np.diff(self.run_row_start))
        core_row, self.core_start = spread(starts[1], lay_core)
        ctx_row, self.ctx_start = spread(starts[2], lay_ctx)
        # Layout-local rows become table rows: add each run's first row.
        row_first = self.run_row_start[:-1]
        self.core_row = core_row + np.repeat(row_first, np.diff(self.core_start))
        self.ctx_row = ctx_row + np.repeat(row_first, np.diff(self.ctx_start))

        occ, self.row_cores, tpc, ilp_scale, disp_w = rows.astype(float).T
        R = len(occ)
        self.n_rows = R
        self.row_occ = occ
        self.row_disp_w = disp_w
        self.core_occ = occ[self.core_row]
        extra = np.asarray(run_extra)[self.row_run]

        # Per-row stream parameters (one stream per run: SPMD threads),
        # read once per distinct stream and gathered by row.
        row_stream = self.run_stream[self.row_run]
        ilp, mlp, br_base, l1, l2, l3, alpha, d, wb = np.array([
            (s.ilp, s.mlp, s.branch_mispredict_rate, s.memory.l1_mpki,
             s.memory.l2_mpki, s.memory.l3_mpki, s.memory.locality_alpha,
             s.memory.data_sharing, s.memory.writeback_factor)
            for s in self.streams
        ])[row_stream].T
        self.row_mix = np.array([s.mix.vector for s in self.streams])[row_stream]

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

        # ---- drive: the per-run sync profile (a few dataclass method
        # calls per run; everything else is whole-array) ---------------
        self.run_runnable = np.array(
            [s.runnable_fraction(n) for s, n in zip(syncs, ns)], dtype=float)
        self.run_blocked = np.array(
            [s.blocked_fraction(n) for s, n in zip(syncs, ns)], dtype=float)
        self.run_spin0 = np.array(
            [s.spin_fraction(n) for s, n in zip(syncs, ns)], dtype=float)
        # A run enters the spin loop iff it spins or holds a contended
        # lock, which its profile tells before the base solve.
        self.pred_idx = np.flatnonzero((self.run_spin0 != 0.0) | np.array(
            [s.lock_serial_fraction > 0.0 for s in syncs], dtype=bool
        ))

        # ---- finalize: work, Amdahl split and the context/core axes ---
        self.run_work = np.array([
            spec.useful_instructions * sync.work_inflation(n)
            for spec, sync, n in zip(specs, syncs, ns)
        ])
        self.run_serial_fraction = np.array([sync.serial_fraction for sync in syncs])
        self.run_mix = self.row_mix[self.run_row_start[:-1]]   # a run's rows share it
        self.ctx_run = np.repeat(np.arange(J), np.diff(self.ctx_start))
        self.ctx_bounds = tuple(self.ctx_start.tolist())
        self.core_occ_sum = np.add.reduceat(self.core_occ, self.core_start[:-1])

    # -- helpers -------------------------------------------------------

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

    def drive(self) -> TableState:
        """Run the full solver fixed point for every run of the table."""
        J = self.n_runs
        syncs = self.syncs
        ns = self.ns
        runnable_a = self.run_runnable
        spin0_a = self.run_spin0

        # The base phase and the first spin iteration (blended at spin0)
        # share one bisection over the runs the sync profiles predict
        # will loop.  Every run's bracket, rows and reduceat segment are
        # its own, so appending the predicted loop runs changes nothing
        # for the others.
        pred_idx = self.pred_idx
        view = self.view(np.concatenate((np.arange(J), pred_idx)))
        sol, mults = view.chip_phase(np.concatenate((np.zeros(J), spin0_a[pred_idx])))
        ipc_all = view.thread_ipc_sum(sol)
        # The base runs come first and cover every row of the table.
        base_sol, first_sol = sol.split(self.n_rows, J)
        ipc_sum = ipc_all[:J]
        first = (first_sol, mults[J:], ipc_all[J:])

        holder_rate = (ipc_sum / self.run_n) * self.freq
        lock_cap_a = np.array([
            s.lock_throughput_cap(h, n)
            for s, h, n in zip(syncs, holder_rate.tolist(), ns)
        ], dtype=float)
        free = (spin0_a == 0.0) & np.isinf(lock_cap_a)
        loop_idx = np.flatnonzero(~free)

        # Report the base solution (overwritten below for runs that
        # enter the spin loop).
        x_rows = base_sol.x.copy()
        held_rows = base_sol.held.copy()
        mult = mults[:J].copy()
        run_traffic = base_sol.run_traffic.copy()
        spin_final = spin0_a.copy()
        useful_rate = ipc_sum * self.freq * runnable_a

        tracer = get_tracer()
        if tracer.enabled:
            tracer.add("table.sync_free_runs", J - len(loop_idx))
            if len(loop_idx):
                tracer.add("table.spin_iterations", SPIN_ITERATIONS * len(loop_idx))

        if len(loop_idx):
            lview = self.view(loop_idx)
            spins = spin0_a[loop_idx]
            spin0 = spin0_a[loop_idx]
            runnable = runnable_a[loop_idx]
            lock_cap = lock_cap_a[loop_idx]
            # A lock cap that overflows to inf makes a predicted run
            # sync-free after all; then iteration 1 is solved afresh.
            if not np.array_equal(loop_idx, pred_idx):
                first = None
            for _ in range(SPIN_ITERATIONS):
                if first is None:
                    sol, mults = lview.chip_phase(spins)
                    ipc = lview.thread_ipc_sum(sol)
                else:
                    sol, mults, ipc = first
                    first = None
                raw_rate = ipc * self.freq
                available = raw_rate * runnable
                useful = np.minimum(available * (1.0 - spin0), lock_cap)
                spins = np.minimum(MAX_SPIN, 1.0 - useful / available)
            x_rows[lview.rows] = sol.x
            held_rows[lview.rows] = sol.held
            mult[loop_idx] = mults
            run_traffic[loop_idx] = sol.run_traffic
            spin_final[loop_idx] = spins
            useful_rate[loop_idx] = useful

        return TableState(
            x_rows=x_rows,
            held_rows=held_rows,
            mult=mult,
            run_traffic=run_traffic,
            spin_final=spin_final,
            useful_rate=useful_rate,
            runnable=runnable_a,
            blocked=self.run_blocked,
        )

    # -- finalization --------------------------------------------------

    def finalize(self, state: TableState) -> List[RunResult]:
        """Vectorized time accounting, jitter, and counters.

        Mirrors :func:`repro.sim.engine._finalize_run` for every run of
        the table at once.  Noise comes from one seeded RNG stream
        per distinct stream key (one ``standard_normal`` block,
        replicating the scalar draw order bit-for-bit; :func:`seed_streams`
        seeds them); the only per-run Python work is the result
        dataclasses, built from ``tolist()`` rows.
        """
        m = self.n_runs
        arch = self.arch
        E = self.n_events
        specs = self.specs
        ns = self.ns
        n = self.run_n

        # Serial rates: one memo lookup per distinct stream.
        _engine._warm_serial_rates(arch, self.streams)
        rates = np.array([
            _engine._serial_rate(specs[0].system, stream) for stream in self.streams
        ], dtype=float)

        runnable = state.runnable
        wall, serial_t, par_t, total_cpu = account_runs(
            useful_instructions=self.run_work,
            parallel_useful_rate=state.useful_rate,
            serial_rate=rates[self.run_stream],
            serial_fraction=self.run_serial_fraction,
            runnable=runnable,
            n_threads=n,
        )

        # Wall/CPU jitter (mirrors _jitter_times); the draws come from
        # one block per noisy run, whose tail jitters the counters.
        # Noise-free runs get factors of exactly 1 and keep their times.
        # Runs with equal (seed, level, threads) share a stream key, so
        # each distinct key is seeded and drawn once (a sweep gives every
        # run one seed: p7's 84 noisy runs read 3 blocks).
        noise = self.run_noise
        noisy = noise > 0
        noisy_pos = np.flatnonzero(noisy).tolist()
        key_pos: Dict[Tuple[int, int, int], int] = {}
        run_key = [
            key_pos.setdefault((specs[pos].seed, specs[pos].smt_level, ns[pos]), len(key_pos))
            for pos in noisy_pos
        ]
        streams = [RngStream(seed, ("run", arch.name, level, nk))
                   for seed, level, nk in key_pos]
        seed_streams(streams)
        blocks = [rng.gen.standard_normal(2 + nk * E)
                  for rng, (_, _, nk) in zip(streams, key_pos)]
        del streams  # their generators would otherwise live through the peak below
        z_head = np.zeros((m, 2))
        if blocks:
            z_head[noisy_pos] = np.array([block[:2] for block in blocks])[run_key]
            z_tail = np.concatenate([blocks[k][2:] for k in run_key])
        del blocks
        wall_factor = np.maximum(0.5, 1.0 + noise * z_head[:, 0])
        cpu_factor = np.maximum(0.5, 1.0 + (noise * 0.5) * z_head[:, 1])
        total_cpu = np.where(noisy, np.minimum(
            total_cpu * wall_factor * cpu_factor, wall * wall_factor * n,
        ), total_cpu)
        wall = wall * wall_factor
        serial_t = serial_t * wall_factor
        par_t = par_t * wall_factor
        times_list = [
            TimeAccounting(w, s, p, c, nj)
            for (w, s, p, c), nj in zip(
                np.column_stack([wall, serial_t, par_t, total_cpu]).tolist(), ns
            )
        ]

        # Final blended mix (reported spin) and derived port fractions.
        bm = _spin_blend(self.run_mix, state.spin_final)
        port_fracs = bm @ self.routing_t                      # (m, P)
        par_cycles = par_t * self.freq * runnable

        # Flattened context axis over every run.
        ctx_row = self.ctx_row
        ctx_run = self.ctx_run

        cyc = par_cycles[ctx_run]
        instr = state.x_rows[ctx_row] * cyc
        V = np.empty((len(ctx_row), E))
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
        Z = np.zeros((len(ctx_row), E))
        if noisy_pos:
            Z[noisy[ctx_run]] = z_tail.reshape(-1, E)
        factors = np.maximum(0.05, 1.0 + noise[ctx_run][:, None] * Z)
        V = V * factors
        sums = np.add.reduceat(V, self.ctx_start[:-1], axis=0)   # (m, E)

        # Occupancy-weighted dispatch-held per run (mirrors np.average).
        held_core = state.held_rows[self.core_row]
        mdh = (
            np.add.reduceat(held_core * self.core_occ, self.core_start[:-1])
            / self.core_occ_sum
        )

        cap = self.run_cap
        mem_util = np.minimum(state.run_traffic, cap) / cap

        names = self.event_names
        thread_ipc = state.x_rows[ctx_row].tolist()
        bounds = self.ctx_bounds
        return [
            RunResult(
                arch=arch,
                smt_level=spec.smt_level,
                n_threads=nj,
                n_chips=spec.system.n_chips,
                useful_instructions=spec.useful_instructions,
                times=times,
                events=dict(zip(names, events)),
                spin_fraction=spin,
                blocked_fraction=blocked,
                mem_latency_mult=mult,
                mem_utilization=util,
                per_thread_ipc=tuple(thread_ipc[bounds[pos]:bounds[pos + 1]]),
                dispatch_held_fraction=held,
            )
            for pos, (spec, nj, times, events, spin, blocked, mult, util, held)
            in enumerate(zip(
                specs, ns, times_list, sums.tolist(),
                state.spin_final.tolist(), state.blocked.tolist(),
                state.mult.tolist(), mem_util.tolist(), mdh.tolist(),
            ))
        ]

    def run(self) -> List[RunResult]:
        """Drive the fixed point and finalize, columnar end to end.

        The fixed point is a function of the template key alone, so a
        kept template also keeps its converged state, read-only: later
        tables with that layout only finalize.
        """
        template = self._template
        state = None if template is None else template.get("_state")
        if state is None:
            state = self.drive()
            if template is not None:
                for value in vars(state).values():
                    value.flags.writeable = False
                with _TEMPLATE_LOCK:
                    state = template.setdefault("_state", state)
        elif get_tracer().enabled:
            get_tracer().add("table.state_hits")
        return self.finalize(state)


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
