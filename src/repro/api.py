"""The stable public facade of the reproduction.

External callers — including the :mod:`repro.serve` prediction service,
whose handlers import *only* this module — get three operations:

* :func:`predict` — "which SMT level should workload W run at on
  architecture A?": simulate one measurement run, evaluate SMTsm
  (Eq. 1) and apply the paper's fitted threshold predictor;
* :func:`sweep` — run a benchmark-catalog slice through the unified
  :func:`repro.experiments.runner.run_catalog` engine;
* :func:`score_counters` — evaluate SMTsm on raw counter readings
  (events + wall/CPU times) without any simulation at all;
* :func:`simulate_fleet` — run the :mod:`repro.fleet` simulated
  datacenter (N chips, a seeded job trace, a placement policy) and
  return its aggregate :class:`~repro.fleet.FleetResult`.

A :class:`Session` pins the shared context (system, seed, work budget,
run cache, threshold) and amortizes it across calls: the fitted
per-architecture predictor and the underlying run cache are reused, and
:meth:`Session.predict_many` pushes any number of concurrent queries
through one columnar :class:`repro.sim.table.ScenarioTable` solve —
the entry point the service's micro-batcher dispatches to.

Everything here is re-exported at top level (``from repro import
Session, predict, ...``); ``docs/api.md`` documents this surface and
``scripts/check_docs.py`` enforces the documentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.metric import SmtsmResult, smtsm, smtsm_from_run
from repro.core.predictor import SmtPredictor
from repro.counters.pmu import CounterSample
from repro.experiments.runner import (
    DEFAULT_STRATEGY,
    CatalogRuns,
    Strategy,
    resolve_system,
    run_catalog,
    scatter_from_runs,
    solve_specs,
)
from repro.fleet import (
    FleetConfig,
    FleetResult,
    Policy,
    list_policies,
)
from repro.fleet import simulate_fleet as _simulate_fleet
from repro.obs import get_tracer
from repro.sim.engine import DEFAULT_WORK, RunSpec
from repro.sim.runcache import RunCache, cache_enabled_by_default
from repro.simos.system import SystemSpec
from repro.workloads import all_workloads, get_workload
from repro.workloads.spec import WorkloadSpec

__all__ = [
    "Session",
    "Prediction",
    "PredictQuery",
    "predict",
    "predict_many",
    "sweep",
    "sweep_summary",
    "score_counters",
    "get_session",
    "FleetConfig",
    "FleetResult",
    "Policy",
    "Strategy",
    "DEFAULT_STRATEGY",
    "list_policies",
    "simulate_fleet",
]

DEFAULT_SEED = 11


@dataclass(frozen=True)
class PredictQuery:
    """One prediction request within a session's batch.

    ``level`` is the *measurement* level SMTsm is evaluated at (default:
    the architecture's maximum); ``seed`` overrides the session seed so
    one batch can mix independent repetitions of the same workload.
    """

    workload: Union[str, WorkloadSpec]
    level: Optional[int] = None
    seed: Optional[int] = None


@dataclass(frozen=True)
class Prediction:
    """The answer to one :func:`predict` query, JSON-ready via :meth:`payload`."""

    workload: str
    arch: str
    n_chips: int
    measure_level: int
    smtsm: float
    mix_deviation: float
    dispatch_held: float
    scalability_ratio: float
    recommended_level: int
    high_level: int
    low_level: int
    threshold: float
    wall_time_s: float
    instructions_per_second: float
    seed: int

    @property
    def prefers_higher(self) -> bool:
        return self.recommended_level == self.high_level

    def payload(self) -> Dict[str, Any]:
        """The prediction as a plain-JSON dict (the wire format)."""
        return {
            "workload": self.workload,
            "arch": self.arch,
            "n_chips": self.n_chips,
            "measure_level": self.measure_level,
            "smtsm": self.smtsm,
            "factors": {
                "mix_deviation": self.mix_deviation,
                "dispatch_held": self.dispatch_held,
                "scalability_ratio": self.scalability_ratio,
            },
            "recommended_level": self.recommended_level,
            "high_level": self.high_level,
            "low_level": self.low_level,
            "threshold": self.threshold,
            "wall_time_s": self.wall_time_s,
            "instructions_per_second": self.instructions_per_second,
            "seed": self.seed,
        }


class Session:
    """Pinned context for a sequence of facade calls.

    Holds the resolved system, default seed and work budget, the
    persistent run cache handle, and the lazily fitted per-level-pair
    threshold predictors.  A session is cheap to create: sessions on
    the same registered architecture share one ``Architecture``
    instance, so the solver's per-architecture memos carry over.  The
    first ``predict`` on a fresh architecture triggers one catalog
    sweep to fit the threshold (cached in-memory and, by default, in
    the on-disk run cache) unless an explicit ``threshold`` pins it.
    """

    def __init__(
        self,
        arch: Union[str, SystemSpec] = "p7",
        *,
        n_chips: Optional[int] = None,
        seed: int = DEFAULT_SEED,
        work: float = DEFAULT_WORK,
        use_cache: Optional[bool] = None,
        threshold: Optional[float] = None,
        threshold_method: str = "gini",
    ):
        self.system = resolve_system(arch, n_chips)
        self.seed = seed
        self.work = work
        if use_cache is None:
            use_cache = cache_enabled_by_default()
        self.use_cache = bool(use_cache)
        self._cache = RunCache() if self.use_cache else None
        self.threshold = threshold
        self.threshold_method = threshold_method
        self._predictors: Dict[Tuple[int, int, int], SmtPredictor] = {}
        self._fit_runs: Optional[CatalogRuns] = None

    # -- internals -----------------------------------------------------

    def _workload(self, workload: Union[str, WorkloadSpec]) -> WorkloadSpec:
        if isinstance(workload, WorkloadSpec):
            return workload
        return get_workload(workload)

    def _level_pair(self) -> Tuple[int, int]:
        levels = sorted(self.system.arch.smt_levels)
        return levels[-1], levels[0]

    def predictor(
        self,
        *,
        measure_level: Optional[int] = None,
        high_level: Optional[int] = None,
        low_level: Optional[int] = None,
    ) -> SmtPredictor:
        """The threshold predictor for one (measure, high, low) triple.

        A fixed session ``threshold`` short-circuits fitting; otherwise
        the predictor is fitted (once per triple) on the architecture's
        default benchmark catalog, exactly the way the paper fits its
        per-machine thresholds.
        """
        default_high, default_low = self._level_pair()
        high = high_level if high_level is not None else default_high
        low = low_level if low_level is not None else default_low
        measure = measure_level if measure_level is not None else high
        if self.threshold is not None:
            return SmtPredictor(
                threshold=self.threshold, high_level=high, low_level=low,
                method="fixed",
            )
        key = (measure, high, low)
        fitted = self._predictors.get(key)
        if fitted is None:
            if self._fit_runs is None:
                self._fit_runs = run_catalog(
                    self.system, seed=self.seed, work=self.work,
                    cache=self._cache, use_cache=self.use_cache,
                )
            fitted = scatter_from_runs(
                self._fit_runs, title=self.system.arch.name,
                measure_level=measure, high_level=high, low_level=low,
            ).fit_predictor(self.threshold_method)
            self._predictors[key] = fitted
        return fitted

    # -- the facade operations ----------------------------------------

    def predict(
        self,
        workload: Union[str, WorkloadSpec],
        *,
        level: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> Prediction:
        """Predict the best SMT level for one workload (one-element batch)."""
        return self.predict_many([PredictQuery(workload, level, seed)])[0]

    def predict_many(
        self, queries: Sequence[Union[PredictQuery, Mapping[str, Any]]]
    ) -> List[Prediction]:
        """Answer many prediction queries through one vectorized batch.

        This is the amortization point the serving layer's micro-batcher
        dispatches to: all measurement runs go through one
        :func:`~repro.experiments.runner.solve_specs` call (one columnar
        :class:`~repro.sim.table.ScenarioTable` solve for the cache
        misses), then are scored and thresholded
        individually.  A failed run re-raises its own exception.
        """
        parsed: List[PredictQuery] = [
            q if isinstance(q, PredictQuery) else PredictQuery(**q)
            for q in queries
        ]
        high, low = self._level_pair()
        tracer = get_tracer()
        with tracer.span("api.predict_many", queries=len(parsed)):
            specs = []
            for q in parsed:
                spec = self._workload(q.workload)
                measure = q.level if q.level is not None else high
                specs.append(RunSpec(
                    system=self.system,
                    smt_level=measure,
                    stream=spec.stream,
                    sync=spec.sync,
                    useful_instructions=self.work,
                    seed=q.seed if q.seed is not None else self.seed,
                ))
            results = solve_specs(specs, cache=self._cache).or_raise()
            predictions = []
            for q, run_spec, result in zip(parsed, specs, results):
                metric = smtsm_from_run(result)
                predictor = self.predictor(
                    measure_level=run_spec.smt_level,
                    high_level=high, low_level=low,
                )
                predictions.append(Prediction(
                    workload=self._workload(q.workload).name,
                    arch=self.system.arch.name,
                    n_chips=self.system.n_chips,
                    measure_level=run_spec.smt_level,
                    smtsm=metric.value,
                    mix_deviation=metric.mix_deviation,
                    dispatch_held=metric.dispatch_held,
                    scalability_ratio=metric.scalability_ratio,
                    recommended_level=predictor.recommend(metric.value),
                    high_level=high,
                    low_level=low,
                    threshold=predictor.threshold,
                    wall_time_s=result.wall_time_s,
                    instructions_per_second=result.performance,
                    seed=run_spec.seed,
                ))
        return predictions

    def sweep(
        self,
        names: Optional[Sequence[str]] = None,
        levels: Optional[Sequence[int]] = None,
        *,
        strategy: str = DEFAULT_STRATEGY,
    ) -> CatalogRuns:
        """Run a catalog slice (all workloads by default) on this system.

        ``strategy`` defaults to :data:`DEFAULT_STRATEGY` (columnar),
        the same engine as :func:`repro.experiments.runner.run_catalog`
        and the CLI.
        """
        catalog = None
        if names is not None:
            specs = all_workloads()
            catalog = {name: specs[name] for name in names}
        return run_catalog(
            self.system, catalog, levels,
            strategy=strategy, seed=self.seed, work=self.work,
            cache=self._cache, use_cache=self.use_cache,
        )

    def sweep_summary(
        self,
        names: Optional[Sequence[str]] = None,
        levels: Optional[Sequence[int]] = None,
        *,
        strategy: str = DEFAULT_STRATEGY,
    ) -> Dict[str, Any]:
        """A :meth:`sweep` rendered as one plain-JSON dict (the wire format)."""
        runs = self.sweep(names, levels, strategy=strategy)
        workloads: Dict[str, Any] = {}
        for name, by_level in runs.runs.items():
            workloads[name] = {
                str(level): {
                    "wall_time_s": result.wall_time_s,
                    "instructions_per_second": result.performance,
                    "smtsm": smtsm_from_run(result).value,
                }
                for level, result in sorted(by_level.items())
            }
        return {
            "arch": self.system.arch.name,
            "n_chips": self.system.n_chips,
            "seed": runs.seed,
            "levels": [int(level) for level in runs.levels()],
            "workloads": workloads,
            "failures": dict(runs.failures),
        }

    def score_counters(
        self,
        events: Mapping[str, float],
        *,
        smt_level: int,
        wall_time_s: float,
        avg_thread_cpu_s: float,
        n_software_threads: int,
    ) -> SmtsmResult:
        """Evaluate SMTsm on raw counter readings (no simulation).

        ``events`` must contain the architecture's metric events plus
        ``CYCLES``/``INSTRUCTIONS``/``DISP_HELD_RES`` — the same
        contract as :class:`repro.counters.CounterSample`.
        """
        sample = CounterSample(
            arch=self.system.arch,
            smt_level=smt_level,
            events=dict(events),
            wall_time_s=wall_time_s,
            avg_thread_cpu_s=avg_thread_cpu_s,
            n_software_threads=n_software_threads,
        )
        return smtsm(sample)


#: Default sessions shared by the module-level convenience functions,
#: keyed by the full session configuration.
_SESSIONS: Dict[Tuple, Session] = {}


def get_session(
    arch: Union[str, SystemSpec] = "p7",
    *,
    n_chips: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    work: float = DEFAULT_WORK,
    use_cache: Optional[bool] = None,
    threshold: Optional[float] = None,
    threshold_method: str = "gini",
) -> Session:
    """A shared :class:`Session` for this configuration (created once)."""
    key = (
        arch if isinstance(arch, str) else (arch.arch.name, arch.n_chips),
        n_chips, seed, work, use_cache, threshold, threshold_method,
    )
    session = _SESSIONS.get(key)
    if session is None:
        session = _SESSIONS[key] = Session(
            arch, n_chips=n_chips, seed=seed, work=work, use_cache=use_cache,
            threshold=threshold, threshold_method=threshold_method,
        )
    return session


def predict(
    workload: Union[str, WorkloadSpec],
    arch: Union[str, SystemSpec] = "p7",
    *,
    level: Optional[int] = None,
    **session_kwargs,
) -> Prediction:
    """Module-level :meth:`Session.predict` on a shared session."""
    return get_session(arch, **session_kwargs).predict(workload, level=level)


def predict_many(
    queries: Sequence[Union[PredictQuery, Mapping[str, Any]]],
    arch: Union[str, SystemSpec] = "p7",
    **session_kwargs,
) -> List[Prediction]:
    """Module-level :meth:`Session.predict_many` on a shared session."""
    return get_session(arch, **session_kwargs).predict_many(queries)


def sweep(
    arch: Union[str, SystemSpec] = "p7",
    names: Optional[Sequence[str]] = None,
    levels: Optional[Sequence[int]] = None,
    *,
    strategy: str = DEFAULT_STRATEGY,
    **session_kwargs,
) -> CatalogRuns:
    """Module-level :meth:`Session.sweep` on a shared session."""
    return get_session(arch, **session_kwargs).sweep(
        names, levels, strategy=strategy
    )


def sweep_summary(
    arch: Union[str, SystemSpec] = "p7",
    names: Optional[Sequence[str]] = None,
    levels: Optional[Sequence[int]] = None,
    *,
    strategy: str = DEFAULT_STRATEGY,
    **session_kwargs,
) -> Dict[str, Any]:
    """Module-level :meth:`Session.sweep_summary` on a shared session."""
    return get_session(arch, **session_kwargs).sweep_summary(
        names, levels, strategy=strategy
    )


def score_counters(
    events: Mapping[str, float],
    arch: Union[str, SystemSpec] = "p7",
    *,
    smt_level: int,
    wall_time_s: float,
    avg_thread_cpu_s: float,
    n_software_threads: int,
    **session_kwargs,
) -> SmtsmResult:
    """Module-level :meth:`Session.score_counters` on a shared session."""
    return get_session(arch, **session_kwargs).score_counters(
        events,
        smt_level=smt_level,
        wall_time_s=wall_time_s,
        avg_thread_cpu_s=avg_thread_cpu_s,
        n_software_threads=n_software_threads,
    )


def simulate_fleet(
    config: Optional[FleetConfig] = None, **overrides
) -> FleetResult:
    """Run the :mod:`repro.fleet` simulated datacenter (docs/fleet.md).

    Accepts a full :class:`FleetConfig`, keyword overrides over one, or
    keywords alone::

        result = simulate_fleet(chips=24, jobs=4000, policy=Policy.SMTSM)
        result.throughput_jobs_s, result.latency_p95_s

    ``policy`` takes a :class:`Policy` member or any registered policy
    name (:func:`list_policies`).  The fleet's per-(arch, workload,
    level) reference space is solved as one columnar mega-batch before
    the event loop starts.
    """
    return _simulate_fleet(config, **overrides)
