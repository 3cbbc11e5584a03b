"""Calibrated surrogate fast path for SMTsm prediction.

The bandwidth bisection dominates solver cost: every phase of every run
spends ~15 lockstep kernel evaluations closing a bracket on the DRAM
utilization fixed point ``u(mult(rho)) == rho``.  This module replaces
the bracket search with a *calibrated warm start*: a ridge regression,
fit offline per ``(architecture, chip count)`` from converged solver
outputs and persisted next to the runcache with a
:func:`repro.check.goldens.model_fingerprint` stamp, predicts the
fixed-point utilization ``rho`` directly from scenario features.  At
query time the prediction is **verified, never trusted**:

* a leverage gate rejects queries outside the calibration envelope
  (classic regression uncertainty: ``h = x (XtX + lI)^-1 xt`` beyond
  the training maximum means extrapolation) before any solving;
* the predicted ``rho`` is checked for self-consistency with one kernel
  evaluation — ``|u(mult(rho)) - rho| <= EPS_RHO`` — and refined with a
  secant step when the residual is above the bound (the fixed-point map
  ``g(rho) = u(rho) - rho`` is strictly decreasing with slope <= -1, so
  the residual *is* a distance bound to the true root);
* runs that do not reach the bound within :data:`MAX_POLISH` kernel
  evaluations fall back to the full table solver
  (:meth:`repro.sim.table.ScenarioTable.drive`), as do leverage
  rejects.

Spin/lock runs replay the engine's exact three-iteration spin
trajectory, warm-starting each phase's utilization from the previous
phase (the blend barely moves ``rho``), so accepted answers track the
solver even when the spin sequence has not converged.  Accepted runs
re-enter the shared vectorized finalization
(:meth:`~repro.sim.table.ScenarioTable.finalize`), so jitter and
counters are produced by the same code path as the full solver; the
``surrogate_vs_solver`` differential pillar pins the end-to-end error.

Cost: a typical all-phases-accepted batch needs ~4-8 whole-table kernel
evaluations instead of the ~51 a bisection-driven batch performs.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import get_tracer
from repro.sim.chip import TOLERANCE
from repro.sim.engine import MAX_SPIN, SPIN_ITERATIONS, RunSpec
from repro.sim.memory import RHO_CAP
from repro.sim.results import RunResult
from repro.sim.table import ScenarioTable, TableState, _latency_multiplier

__all__ = [
    "EPS_RHO",
    "EPS_SPIN",
    "MAX_POLISH",
    "LEVERAGE_SLACK",
    "SurrogateModel",
    "fit_surrogate",
    "load_surrogate",
    "save_surrogate",
    "get_surrogate",
    "surrogate_path",
    "simulate_many_surrogate",
    "clear_surrogate_cache",
]

#: Accept a predicted utilization only when its fixed-point residual
#: ``|u(mult(rho)) - rho|`` is within this bound — the same order as the
#: bisection's own bracket tolerance, so accepted answers are as close
#: to the true fixed point as the full solver's.
EPS_RHO = 1e-4
#: Accepted spin trajectories must reproduce the engine's reported spin
#: fraction to this tolerance (checked implicitly by replaying the exact
#: three-iteration recurrence; kept for documentation and tests).
EPS_SPIN = 2e-3
#: Kernel evaluations per phase before giving up and falling back.
MAX_POLISH = 4
#: Leverage threshold multiplier over the training maximum.
LEVERAGE_SLACK = 2.0

#: Predictions below this try the solver's unit-latency branch first;
#: above ``RHO_SAT`` they probe the saturation pin first.
RHO_MIN = 0.02
RHO_SAT = 0.94

_RIDGE_LAMBDA = 1e-6

#: In-process model cache keyed (arch id, n_chips, fingerprint).
_MODEL_CACHE: Dict[Tuple[int, int, str], "SurrogateModel"] = {}


def _fingerprint() -> str:
    from repro.check.goldens import model_fingerprint

    return model_fingerprint()


def _rho_of_mult(mult: np.ndarray) -> np.ndarray:
    """Invert ``mult = 1 / (1 - rho^3)`` (the bisection's rho space)."""
    return np.cbrt(1.0 - 1.0 / np.maximum(mult, 1.0))


def _features(table: ScenarioTable) -> np.ndarray:
    """Per-run scenario features, aggregated from the table's columns.

    Occupancy-weighted means collapse the (at most two) core-occupancy
    rows of a run; the analytic ``rho_ub`` block (offered utilization at
    unit latency, from the uncontended IPC upper bound) carries most of
    the signal since the fixed point is monotone in it.
    """
    t = table
    seg = t.run_row_start[:-1]
    w = t.row_cores * t.row_occ
    wsum = np.add.reduceat(w, seg)

    def wmean(col: np.ndarray) -> np.ndarray:
        return np.add.reduceat(w * col, seg) / wsum

    br_frac = t.row_mix[:, 2]
    br_stall0 = br_frac * t.row_br_rate * t.branch_penalty
    stall0 = t.row_mem_base + br_stall0
    x_ub = 1.0 / (t.row_inv_r + stall0 + t.row_mem_coef)
    traffic_coef = (
        np.add.reduceat(w * t.row_traffic_bpi * t.bytes_to_gbps, seg) / t.run_cap
    )
    rho_ub = (
        np.add.reduceat(w * (x_ub * t.row_traffic_bpi) * t.bytes_to_gbps, seg)
        / t.run_cap
    )
    knee = 1.0 / (1.0 - np.minimum(rho_ub, 0.95) ** 3)

    levels = np.array([spec.smt_level for spec in t.specs], dtype=float)
    spin0 = np.empty(t.n_runs)
    runnable = np.empty(t.n_runs)
    lock = np.empty(t.n_runs)
    pingpong = np.empty(t.n_runs)
    for j, (spec, n) in enumerate(zip(t.specs, t.ns)):
        sync = spec.sync
        spin0[j] = sync.spin_fraction(n)
        runnable[j] = sync.runnable_fraction(n)
        lock[j] = sync.lock_serial_fraction
        if n > 1:
            pingpong[j] = 1.0 + sync.lock_pingpong_coeff * (n - 1) / (
                n - 1 + sync.lock_pingpong_half
            )
        else:
            pingpong[j] = 1.0

    return np.column_stack(
        [
            levels,
            t.run_n,
            spin0,
            runnable,
            lock,
            pingpong,
            rho_ub,
            rho_ub ** 2,
            rho_ub ** 3,
            knee,
            traffic_coef,
            wmean(t.row_mem_coef),
            wmean(t.row_long_base),
            wmean(stall0),
            wmean(t.row_inv_r),
            wmean(x_ub),
            wmean(br_frac),
        ]
    )


@dataclass
class SurrogateModel:
    """Ridge model predicting the base-phase fixed-point utilization.

    ``a_inv`` is the regularized normal-matrix inverse used both for the
    coefficients and for prediction leverage (the uncertainty estimate
    driving the out-of-calibration fallback).
    """

    arch_name: str
    n_chips: int
    fingerprint: str
    mean: np.ndarray        # (F,)
    std: np.ndarray         # (F,)
    coef: np.ndarray        # (F + 1,) with intercept last
    a_inv: np.ndarray       # (F + 1, F + 1)
    max_leverage: float
    n_train: int

    def _design(self, features: np.ndarray) -> np.ndarray:
        scaled = (features - self.mean) / self.std
        return np.column_stack([scaled, np.ones(len(scaled))])

    def predict_rho(self, features: np.ndarray) -> np.ndarray:
        return np.clip(self._design(features) @ self.coef, 0.0, RHO_CAP)

    def leverage(self, features: np.ndarray) -> np.ndarray:
        x = self._design(features)
        return np.einsum("ij,jk,ik->i", x, self.a_inv, x)

    def in_domain(self, features: np.ndarray) -> np.ndarray:
        return self.leverage(features) <= LEVERAGE_SLACK * self.max_leverage

    def to_json(self) -> Dict:
        return {
            "arch": self.arch_name,
            "n_chips": self.n_chips,
            "fingerprint": self.fingerprint,
            "mean": self.mean.tolist(),
            "std": self.std.tolist(),
            "coef": self.coef.tolist(),
            "a_inv": self.a_inv.tolist(),
            "max_leverage": self.max_leverage,
            "n_train": self.n_train,
        }

    @classmethod
    def from_json(cls, payload: Dict) -> "SurrogateModel":
        return cls(
            arch_name=payload["arch"],
            n_chips=int(payload["n_chips"]),
            fingerprint=payload["fingerprint"],
            mean=np.asarray(payload["mean"], dtype=float),
            std=np.asarray(payload["std"], dtype=float),
            coef=np.asarray(payload["coef"], dtype=float),
            a_inv=np.asarray(payload["a_inv"], dtype=float),
            max_leverage=float(payload["max_leverage"]),
            n_train=int(payload["n_train"]),
        )


def _calibration_specs(arch, n_chips: int) -> List[RunSpec]:
    """Default catalog x SMT levels: the distribution served queries draw
    from.  Noise is irrelevant — the fixed point is noise-free."""
    from repro.simos.system import SystemSpec
    from repro.workloads.catalog import all_workloads

    system = SystemSpec(arch, n_chips)
    specs: List[RunSpec] = []
    for workload in all_workloads().values():
        for level in sorted(arch.smt_levels):
            specs.append(
                RunSpec(
                    system=system,
                    smt_level=level,
                    stream=workload.stream,
                    sync=workload.sync,
                    noise_rel=0.0,
                )
            )
    return specs


def fit_surrogate(arch, n_chips: int = 1) -> SurrogateModel:
    """Calibrate a surrogate from solver outputs on the default catalog."""
    specs = _calibration_specs(arch, n_chips)
    table = ScenarioTable(specs)
    state = table.drive()
    features = _features(table)
    labels = _rho_of_mult(state.base_mult)

    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std[std == 0.0] = 1.0
    x = np.column_stack([(features - mean) / std, np.ones(len(features))])
    a = x.T @ x + _RIDGE_LAMBDA * np.eye(x.shape[1])
    a_inv = np.linalg.inv(a)
    coef = a_inv @ (x.T @ labels)
    leverage = np.einsum("ij,jk,ik->i", x, a_inv, x)

    get_tracer().add("surrogate.fits")
    return SurrogateModel(
        arch_name=arch.name,
        n_chips=n_chips,
        fingerprint=_fingerprint(),
        mean=mean,
        std=std,
        coef=coef,
        a_inv=a_inv,
        max_leverage=float(leverage.max()),
        n_train=len(specs),
    )


def surrogate_path(arch_name: str, n_chips: int, fingerprint: Optional[str] = None) -> str:
    """Where a model is persisted: next to the runcache, fingerprint-stamped."""
    from repro.sim.runcache import default_cache_dir

    fp = fingerprint if fingerprint is not None else _fingerprint()
    return os.path.join(
        default_cache_dir(), "surrogate", f"{arch_name}-x{n_chips}-{fp}.json"
    )


def save_surrogate(model: SurrogateModel) -> str:
    """Atomically persist a fitted model; returns the path."""
    path = surrogate_path(model.arch_name, model.n_chips, model.fingerprint)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(model.to_json(), fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    get_tracer().add("surrogate.saves")
    return path


def load_surrogate(arch_name: str, n_chips: int) -> Optional[SurrogateModel]:
    """Load a persisted model; ``None`` if absent, unreadable, or stale
    (the fingerprint is part of the filename *and* revalidated)."""
    fp = _fingerprint()
    path = surrogate_path(arch_name, n_chips, fp)
    try:
        with open(path) as fh:
            payload = json.load(fh)
        model = SurrogateModel.from_json(payload)
    except (OSError, ValueError, KeyError):
        return None
    if model.fingerprint != fp or model.arch_name != arch_name or model.n_chips != n_chips:
        return None
    get_tracer().add("surrogate.loads")
    return model


def get_surrogate(arch, n_chips: int = 1) -> SurrogateModel:
    """Load-or-fit a model for ``(arch, n_chips)``, memoized in-process."""
    fp = _fingerprint()
    key = (id(arch), n_chips, fp)
    model = _MODEL_CACHE.get(key)
    if model is not None:
        return model
    model = load_surrogate(arch.name, n_chips)
    if model is None:
        model = fit_surrogate(arch, n_chips)
        save_surrogate(model)
    _MODEL_CACHE[key] = model
    return model


def clear_surrogate_cache() -> None:
    """Drop in-process models (tests; fingerprint changes are automatic)."""
    _MODEL_CACHE.clear()


# ---------------------------------------------------------------------------
# Prediction: verified warm starts over the scenario table.
# ---------------------------------------------------------------------------


class _PhaseResult:
    __slots__ = ("ok", "mult", "rho", "x", "held", "traffic", "ipc_sum")

    def __init__(self, m: int, rows: int):
        self.ok = np.zeros(m, dtype=bool)
        self.mult = np.ones(m)
        self.rho = np.zeros(m)
        self.x = np.zeros(rows)
        self.held = np.zeros(rows)
        self.traffic = np.zeros(m)
        self.ipc_sum = np.zeros(m)


def _polish_phase(view, w: np.ndarray, rho_start: np.ndarray) -> _PhaseResult:
    """Verify-and-refine a utilization warm start for every run of a view.

    Mirrors the solver's three bisection outcomes exactly — unit latency
    when offered utilization is within tolerance, the saturation pin
    when demand exceeds capacity at maximum inflation, and an interior
    root otherwise — but reaches them from the warm start with secant
    steps instead of a bracket search.  ``g(rho) = u(rho) - rho`` is
    strictly decreasing with slope <= -1, so ``|g|`` bounds the distance
    to the interior root and acceptance is rigorous, not heuristic.
    """
    m = len(view)
    out = _PhaseResult(m, len(view.rows))
    cap = view.cap
    target = np.clip(rho_start, 0.0, RHO_CAP)
    # Route the extremes through the solver's special branches.
    target = np.where(target < RHO_MIN, 0.0, target)
    target = np.where(target > RHO_SAT, RHO_CAP, target)
    active = np.ones(m, dtype=bool)
    have_prev = np.zeros(m, dtype=bool)
    rho_prev = np.zeros(m)
    g_prev = np.zeros(m)
    tracer = get_tracer()

    for _ in range(MAX_POLISH):
        mult_try = np.where(target <= 0.0, 1.0, _latency_multiplier(target * cap, cap))
        sol = view.solve(np.where(active, mult_try, 1.0), w)
        if tracer.enabled:
            tracer.add("surrogate.polish_solves")
        u = sol.util
        g = u - target
        unit_ok = active & (target <= 0.0) & (u <= TOLERANCE)
        sat_ok = active & (target >= RHO_CAP) & (u >= RHO_CAP)
        root_ok = (
            active
            & (target > 0.0)
            & (target < RHO_CAP)
            & (np.abs(g) <= EPS_RHO)
        )
        newly = unit_ok | sat_ok | root_ok
        if newly.any():
            out.ok |= newly
            out.mult = np.where(newly, mult_try, out.mult)
            out.rho = np.where(newly, target, out.rho)
            out.traffic = np.where(newly, sol.run_traffic, out.traffic)
            ipc = view.thread_ipc_sum(sol)
            out.ipc_sum = np.where(newly, ipc, out.ipc_sum)
            row_new = newly[view.local_run]
            out.x[row_new] = sol.x[row_new]
            out.held[row_new] = sol.held[row_new]
            active &= ~newly
        if not active.any():
            break
        # Secant step where two points exist, else the fixed-point step
        # rho <- u(rho); both clipped back into the bisection's bracket.
        denom = g - g_prev
        safe = have_prev & (np.abs(denom) > 1e-300)
        with np.errstate(divide="ignore", invalid="ignore"):
            secant = target - g * (target - rho_prev) / np.where(safe, denom, 1.0)
        prop = np.where(safe, secant, target + g)
        prop = np.clip(prop, 0.0, RHO_CAP)
        rho_prev = np.where(active, target, rho_prev)
        g_prev = np.where(active, g, g_prev)
        have_prev = have_prev | active
        target = np.where(active, prop, target)
    return out


def simulate_many_surrogate(
    specs: Sequence[RunSpec],
) -> Tuple[List[RunResult], List[bool]]:
    """Simulate runs through the surrogate fast path where it is confident.

    Returns ``(results, accepted)`` in input order; ``accepted[i]`` is
    True when run ``i`` was answered by the fast path (leverage in
    domain and every phase verified within :data:`EPS_RHO`), False when
    it fell back to the full table solver.  Fallback results are
    bit-identical to :func:`repro.sim.table.simulate_many_columnar`.
    """
    specs = list(specs)
    if not specs:
        return [], []
    results: List[Optional[RunResult]] = [None] * len(specs)
    accepted_out = [False] * len(specs)
    groups: Dict[Tuple[int, int], List[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault((id(spec.system.arch), spec.system.n_chips), []).append(i)
    tracer = get_tracer()
    with tracer.span(
        "surrogate.simulate_many", runs=len(specs), arch_groups=len(groups)
    ):
        for indices in groups.values():
            group = [specs[i] for i in indices]
            group_results, group_accepted = _simulate_group(group)
            for i, result, ok in zip(indices, group_results, group_accepted):
                results[i] = result
                accepted_out[i] = ok
    return results, accepted_out  # type: ignore[return-value]


def _simulate_group(specs: List[RunSpec]) -> Tuple[List[RunResult], List[bool]]:
    arch = specs[0].system.arch
    n_chips = specs[0].system.n_chips
    table = ScenarioTable(specs)
    model = get_surrogate(arch, n_chips)
    tracer = get_tracer()

    features = _features(table)
    leverage_ok = model.in_domain(features)
    if tracer.enabled and (~leverage_ok).any():
        tracer.add("surrogate.leverage_rejects", int((~leverage_ok).sum()))
    rho_hat = model.predict_rho(features)

    J = table.n_runs
    accepted = leverage_ok.copy()
    state = TableState(
        x_rows=np.zeros(table.n_rows),
        held_rows=np.zeros(table.n_rows),
        mult=np.zeros(J),
        run_traffic=np.zeros(J),
        spin_final=np.zeros(J),
        w_blend=np.zeros(J),
        useful_rate=np.zeros(J),
        base_mult=np.zeros(J),
        base_traffic=np.zeros(J),
        sync_free=np.zeros(J, dtype=bool),
        spin0=np.zeros(J),
        runnable=np.zeros(J),
        blocked=np.zeros(J),
        lock_cap=np.zeros(J),
    )

    cand = np.flatnonzero(accepted)
    if cand.size:
        view = table.view(cand)
        base = _polish_phase(view, np.zeros(len(view)), rho_hat[cand])
        accepted[cand[~base.ok]] = False
        if tracer.enabled and (~base.ok).any():
            tracer.add("surrogate.residual_rejects", int((~base.ok).sum()))

        ok_local = np.flatnonzero(base.ok)
        loop_local: List[int] = []
        for pos in ok_local:
            j = cand[pos]
            spec = table.specs[j]
            n = table.ns[j]
            holder_rate = (base.ipc_sum[pos] / table.run_n[j]) * table.freq
            lock_cap = spec.sync.lock_throughput_cap(float(holder_rate), n)
            spin0 = spec.sync.spin_fraction(n)
            state.spin0[j] = spin0
            state.runnable[j] = spec.sync.runnable_fraction(n)
            state.blocked[j] = spec.sync.blocked_fraction(n)
            state.lock_cap[j] = lock_cap
            state.base_mult[j] = base.mult[pos]
            state.base_traffic[j] = base.traffic[pos]
            if spin0 == 0.0 and np.isinf(lock_cap):
                state.sync_free[j] = True
                state.useful_rate[j] = base.ipc_sum[pos] * table.freq * state.runnable[j]
                state.mult[j] = base.mult[pos]
                state.run_traffic[j] = base.traffic[pos]
                state.spin_final[j] = spin0
                state.w_blend[j] = spin0
            else:
                loop_local.append(int(pos))
        rows_ok = base.ok[view.local_run]
        state.x_rows[view.rows[rows_ok]] = base.x[rows_ok]
        state.held_rows[view.rows[rows_ok]] = base.held[rows_ok]

        if loop_local:
            # Replay the engine's exact three-iteration spin recurrence,
            # warm-starting each phase's utilization from the previous
            # one; phases that miss the bound demote the run to fallback.
            loop_pos = np.asarray(loop_local, dtype=int)
            loop_idx = cand[loop_pos]
            lview = table.view(loop_idx)
            alive = np.ones(len(loop_idx), dtype=bool)
            spins = state.spin0[loop_idx]
            spin0 = state.spin0[loop_idx]
            runnable = state.runnable[loop_idx]
            lock_cap = state.lock_cap[loop_idx]
            rho_warm = base.rho[loop_pos]
            blend_w = spins
            phase = None
            for _ in range(SPIN_ITERATIONS):
                blend_w = np.where(alive, spins, blend_w)
                phase = _polish_phase(lview, blend_w, rho_warm)
                failed = alive & ~phase.ok
                if failed.any():
                    if tracer.enabled:
                        tracer.add("surrogate.residual_rejects", int(failed.sum()))
                    accepted[loop_idx[failed]] = False
                    alive &= phase.ok
                    if not alive.any():
                        break
                rho_warm = np.where(alive, phase.rho, rho_warm)
                raw_rate = phase.ipc_sum * table.freq
                available = raw_rate * runnable
                with np.errstate(divide="ignore", invalid="ignore"):
                    useful = np.minimum(available * (1.0 - spin0), lock_cap)
                    new_spins = np.minimum(MAX_SPIN, 1.0 - useful / available)
                spins = np.where(alive, new_spins, spins)
            if alive.any():
                idx = loop_idx[alive]
                rows_alive = alive[lview.local_run]
                state.x_rows[lview.rows[rows_alive]] = phase.x[rows_alive]
                state.held_rows[lview.rows[rows_alive]] = phase.held[rows_alive]
                state.mult[idx] = phase.mult[alive]
                state.run_traffic[idx] = phase.traffic[alive]
                state.spin_final[idx] = spins[alive]
                state.w_blend[idx] = blend_w[alive]
                state.useful_rate[idx] = useful[alive]

    hit_idx = np.flatnonzero(accepted)
    miss_idx = np.flatnonzero(~accepted)
    if tracer.enabled:
        tracer.add("surrogate.hits", int(hit_idx.size))
        tracer.add("surrogate.fallbacks", int(miss_idx.size))

    results: List[Optional[RunResult]] = [None] * len(specs)
    if hit_idx.size:
        for j, result in zip(hit_idx, table.finalize(state, hit_idx)):
            results[j] = result
    if miss_idx.size:
        fallback_state = table.drive(miss_idx)
        for j, result in zip(miss_idx, table.finalize(fallback_state, miss_idx)):
            results[j] = result
    return results, [bool(accepted[j]) for j in range(len(specs))]  # type: ignore[return-value]
