"""Shared measurement protocol for the evaluation experiments.

"In all of the experiments conducted, the number of software threads
used is chosen to be the same as the number of available hardware
threads/contexts" (§IV) — so a POWER7 chip runs 8/16/32 threads at
SMT1/2/4, and speedups compare completion of the *same work*.

:func:`run_catalog` executes a benchmark set once per SMT level and
caches the runs; every scatter figure (6, 8-15) is then a cheap
projection: pick the measurement level for the metric and a level pair
for the speedup.

:func:`solve_specs` is the one solve path under every entry point
(``run_catalog``, :mod:`repro.api`, ``repro run``, the hetero
decomposition and the fleet perf model): run-cache lookup, dispatch on
a :class:`Strategy` -- the columnar scenario-table engine (default),
the calibrated surrogate fast path, the legacy vectorized batch engine,
or the scalar reference loop -- per-run salvage, and write-back.
:data:`DEFAULT_STRATEGY` is the one default every public entry point
shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from repro.analysis.success import SuccessSummary, success_summary
from repro.core.metric import SmtsmResult, smtsm_from_run
from repro.obs import get_tracer
from repro.core.predictor import Observation, SmtPredictor
from repro.sim.engine import DEFAULT_WORK, RunSpec, simulate_many, simulate_run
from repro.sim.results import RunResult, speedup
from repro.sim.runcache import RunCache, cache_enabled_by_default
from repro.simos.system import SystemSpec
from repro.util.enums import ValidatedStrEnum
from repro.util.tables import format_table
from repro.workloads.spec import WorkloadSpec

__all__ = [
    "DEFAULT_WORK",  # re-exported; the engine owns the single definition
    "CatalogRuns",
    "DEFAULT_STRATEGY",
    "STRATEGIES",
    "Strategy",
    "resolve_system",
    "run_catalog",
    "ScatterPoint",
    "ScatterResult",
    "scatter_from_runs",
    "Solved",
    "solve_specs",
]


class Strategy(ValidatedStrEnum):
    """Execution strategies :func:`solve_specs` dispatches on.

    Members are their literal strings (``Strategy.COLUMNAR ==
    "columnar"``), so both the typed constants and the historical bare
    strings are valid everywhere a ``strategy=`` parameter appears; a
    typo raises a ``ValueError`` listing the valid options.  All give
    the same answers (to round-off; the surrogate to its verified
    error bound).
    """

    #: The batch as one :class:`repro.sim.table.ScenarioTable` per
    #: architecture, solved with whole-table numpy ops (the default).
    COLUMNAR = "columnar"
    #: :mod:`repro.sim.surrogate` warm starts answer confident runs;
    #: the rest fall back to the columnar solver.
    SURROGATE = "surrogate"
    #: The legacy per-scenario lockstep, :func:`simulate_many`.
    BATCHED = "batched"
    #: The scalar reference: one :func:`simulate_run` per spec, each in
    #: a ``run`` span (``repro stats``' slowest-runs table).
    SERIAL = "serial"


#: The strategies as plain literals (kept for existing callers).
STRATEGIES = Strategy.options()

#: The strategy every public entry point runs unless told otherwise:
#: ``run_catalog``, ``Session.sweep``/``predict_many`` (without
#: ``surrogate=True``), ``api.sweep``, ``repro run``, the serve ops,
#: ``ServeClient.sweep`` and the fleet perf model.
DEFAULT_STRATEGY = Strategy.COLUMNAR

#: Named systems accepted wherever a :class:`SystemSpec` is expected:
#: alias -> (architecture registry name, chip count).
_SYSTEM_ALIASES = {
    "p7": ("power7", 1),
    "power7": ("power7", 1),
    "p7x2": ("power7", 2),
    "nehalem": ("nehalem", 1),
}


def resolve_system(system: Union[str, SystemSpec],
                   n_chips: Optional[int] = None) -> SystemSpec:
    """Resolve a system alias (``"p7"``/``"p7x2"``/``"nehalem"``/any
    registered architecture name) or pass a :class:`SystemSpec` through.

    ``n_chips`` overrides the alias's default chip count; it is an
    error combined with an explicit :class:`SystemSpec` (the spec
    already fixes the chip count).
    """
    if isinstance(system, SystemSpec):
        if n_chips is not None and n_chips != system.n_chips:
            raise ValueError(
                f"n_chips={n_chips} conflicts with SystemSpec(n_chips="
                f"{system.n_chips}); pass one or the other"
            )
        return system
    from repro.arch import get_architecture

    try:
        arch_name, default_chips = _SYSTEM_ALIASES[system]
    except KeyError:
        arch_name, default_chips = system, 1
    return SystemSpec(get_architecture(arch_name), n_chips or default_chips)


def _default_catalog(system: SystemSpec):
    """The paper's benchmark set and levels for a named system."""
    from repro.workloads.catalog import (
        NEHALEM_SET,
        NEHALEM_SMT1_SET,
        all_workloads,
        armsmt_catalog,
        power7_catalog,
    )

    name = system.arch.name.lower()
    if name.startswith("nehalem"):
        specs = all_workloads()
        names = sorted(set(NEHALEM_SET) | set(NEHALEM_SMT1_SET))
        return {n: specs[n] for n in names}, (1, 2)
    if name.startswith("power7"):
        return power7_catalog(), tuple(system.arch.smt_levels)
    if name.startswith("arm"):
        return armsmt_catalog(), tuple(system.arch.smt_levels)
    # Any other registered architecture (custom or hetero-cluster):
    # workload streams are architecture-independent, so the POWER7
    # 28-benchmark catalog swept over the chip's own SMT levels is a
    # sensible default; pass catalog= to narrow it.
    return power7_catalog(), tuple(system.arch.smt_levels)


@dataclass(frozen=True)
class CatalogRuns:
    """All runs of one benchmark set on one system.

    ``failures`` records runs the sweep could not produce (keyed
    ``"name@SMT<level>"`` with the error text); a partially-failed
    sweep reports them here instead of aborting, and downstream
    projections skip the incomplete workloads.
    """

    system: SystemSpec
    runs: Mapping[str, Mapping[int, RunResult]]
    seed: int
    failures: Mapping[str, str] = field(default_factory=dict)

    def levels(self) -> Tuple[int, ...]:
        any_runs = next(iter(self.runs.values()))
        return tuple(sorted(any_runs))

    def names(self) -> Tuple[str, ...]:
        return tuple(self.runs)

    def complete_names(self, levels: Sequence[int]) -> Tuple[str, ...]:
        """Workloads that have a run at every requested level."""
        return tuple(
            name for name, by_level in self.runs.items()
            if all(level in by_level for level in levels)
        )


def _catalog_specs(
    system: SystemSpec,
    catalog: Mapping[str, WorkloadSpec],
    levels: Sequence[int],
    seed: int,
    work: float,
) -> List[Tuple[str, int, RunSpec]]:
    for level in levels:
        system.arch.validate_smt_level(level)
    return [
        (
            name,
            level,
            RunSpec(
                system=system,
                smt_level=level,
                stream=spec.stream,
                sync=spec.sync,
                useful_instructions=work,
                seed=seed,
            ),
        )
        for name, spec in catalog.items()
        for level in levels
    ]


def run_catalog(
    system: Union[str, SystemSpec],
    catalog: Optional[Mapping[str, WorkloadSpec]] = None,
    levels: Optional[Sequence[int]] = None,
    *,
    strategy: str = DEFAULT_STRATEGY,
    n_chips: Optional[int] = None,
    seed: int = 11,
    work: float = DEFAULT_WORK,
    cache: Optional[RunCache] = None,
    use_cache: Optional[bool] = None,
) -> CatalogRuns:
    """Run every workload at every requested SMT level — one entry point.

    ``system`` is a :class:`SystemSpec` or a named alias (``"p7"``,
    ``"p7x2"``, ``"nehalem"``, or any registered architecture name,
    with ``n_chips`` overriding the alias's chip count).  ``catalog``
    defaults to the paper's benchmark set for the system's architecture
    (Table I for POWER7, the Fig. 10/12 set for Nehalem), ``levels`` to
    the architecture's SMT levels.

    ``strategy`` picks the engine (:class:`Strategy`).  The runs go
    through :func:`solve_specs`, which owns the run-cache rule and the
    failure policy.  ``use_cache``/``cache`` pick the cache: for every
    strategy except serial the default honours the ``REPRO_RUNCACHE``
    environment switch; the serial strategy is the uncached reference
    path unless a ``cache`` is passed explicitly.
    A run that fails does not abort the sweep: it lands in
    :attr:`CatalogRuns.failures` (``"Type: message"``) and projections
    skip the incomplete workload.

    Telemetry: one ``runner.run_catalog`` span covers the sweep
    (attrs: system, run count, strategy, cache hits/misses), with
    nested ``cache_lookup`` and ``simulate`` phases; the run cache
    itself accumulates ``runcache.hits`` / ``runcache.misses``.
    """
    strategy = Strategy.parse(strategy)
    system = resolve_system(system, n_chips)
    if catalog is None:
        catalog, default_levels = _default_catalog(system)
        if levels is None:
            levels = default_levels
    if levels is None:
        levels = system.arch.smt_levels
    keyed = _catalog_specs(system, catalog, levels, seed, work)
    if use_cache is None:
        use_cache = cache is not None or (
            strategy is not Strategy.SERIAL and cache_enabled_by_default()
        )
    cache = (RunCache() if cache is None else cache) if use_cache else None

    with get_tracer().span(
        "runner.run_catalog",
        system=f"{system.arch.name} x{system.n_chips}",
        runs=len(keyed),
        strategy=strategy.value,
        cached=cache is not None,
    ) as sweep:
        solved = solve_specs(
            [spec for _, _, spec in keyed],
            strategy=strategy,
            cache=cache,
            names=[name for name, _, _ in keyed],
        )
        sweep.set(cache_hits=solved.cache_hits,
                  cache_misses=len(keyed) - solved.cache_hits)
        if solved.errors:
            sweep.set(failed_runs=len(solved.errors))

    all_runs: Dict[str, Dict[int, RunResult]] = {}
    failures: Dict[str, str] = {}
    for i, ((name, level, _), result) in enumerate(zip(keyed, solved.results)):
        if result is None:
            exc = solved.errors[i]
            failures[f"{name}@SMT{level}"] = f"{type(exc).__name__}: {exc}"
        else:
            all_runs.setdefault(name, {})[level] = result
    return CatalogRuns(system=system, runs=all_runs, seed=seed, failures=failures)


class Solved(NamedTuple):
    """What :func:`solve_specs` returns, aligned with its input specs."""

    #: One result per spec; ``None`` where the run failed.
    results: List[Optional[RunResult]]
    #: Spec index -> the exception that run raised.
    errors: Dict[int, Exception]
    #: How many specs the run cache answered.
    cache_hits: int

    def or_raise(self) -> List[RunResult]:
        """The results, re-raising the first failed run's own exception."""
        if self.errors:
            raise self.errors[min(self.errors)]
        return self.results  # type: ignore[return-value]


def solve_specs(
    specs: Sequence[RunSpec],
    *,
    strategy: str = DEFAULT_STRATEGY,
    cache: Optional[RunCache] = None,
    names: Optional[Sequence[str]] = None,
) -> Solved:
    """Answer run specs: the one solve path behind every entry point.

    ``run_catalog``, :class:`repro.api.Session`, ``repro run``, the
    hetero decomposition and the fleet perf model all come here, so the
    cache rule, the engine choice and the failure policy live once:

    * with a ``cache``, hits skip simulation (a ``cache_lookup`` span)
      and solved runs are written back, except surrogate-accepted
      answers: they are approximate, the cache stores exact output;
    * misses go to the ``strategy``'s engine in a ``simulate`` span
      (serial: a nested ``run`` span per spec, ``workload`` from
      ``names``);
    * a batch that raises is salvaged run by run through
      :func:`simulate_run` (counted in ``runner.batch_salvaged``); each
      failure's exception lands in :attr:`Solved.errors` and the
      ``runner.failed_runs`` counter.

    Engines are looked up at call time so instrumentation can wrap
    them by name.
    """
    strategy = Strategy.parse(strategy)
    tracer = get_tracer()
    results: List[Optional[RunResult]] = [None] * len(specs)
    if cache is not None:
        with tracer.span("cache_lookup", runs=len(specs)):
            for i, spec in enumerate(specs):
                results[i] = cache.get(spec)
        missing = [i for i, result in enumerate(results) if result is None]
    else:
        missing = list(range(len(specs)))
    errors: Dict[int, Exception] = {}

    def salvage(i: int) -> Optional[RunResult]:
        try:
            return simulate_run(specs[i])
        except Exception as exc:
            errors[i] = exc
            tracer.add("runner.failed_runs")
            return None

    if missing:
        with tracer.span("simulate", runs=len(missing)):
            todo = [specs[i] for i in missing]
            approximate: Sequence[bool] = [False] * len(todo)
            if strategy is Strategy.SERIAL:
                fresh = []
                for i in missing:
                    with tracer.span("run", workload=names[i] if names else None,
                                     level=specs[i].smt_level):
                        fresh.append(salvage(i))
            else:
                try:
                    if strategy is Strategy.SURROGATE:
                        from repro.sim.surrogate import simulate_many_surrogate

                        fresh, approximate = simulate_many_surrogate(todo)
                    elif strategy is Strategy.COLUMNAR:
                        from repro.sim.table import simulate_many_columnar

                        fresh = simulate_many_columnar(todo)
                    else:
                        fresh = simulate_many(todo)
                except Exception:
                    # One bad spec must not sink the batch.
                    tracer.add("runner.batch_salvaged")
                    fresh = [salvage(i) for i in missing]
            for i, result, skip in zip(missing, fresh, approximate):
                results[i] = result
                if cache is not None and result is not None and not skip:
                    cache.put(specs[i], result)
    return Solved(results, errors, len(specs) - len(missing))


@dataclass(frozen=True)
class ScatterPoint:
    """One benchmark in a speedup-vs-metric figure."""

    name: str
    metric: float
    speedup: float
    metric_detail: SmtsmResult

    def observation(self) -> Observation:
        return Observation(name=self.name, metric=self.metric, speedup=self.speedup)


@dataclass(frozen=True)
class ScatterResult:
    """A full speedup-vs-metric experiment (one paper scatter figure)."""

    title: str
    system_name: str
    measure_level: int
    high_level: int
    low_level: int
    points: Tuple[ScatterPoint, ...]
    #: Workloads dropped because their catalog runs were incomplete
    #: (partially-failed sweep) or their metric could not be evaluated.
    skipped: Tuple[str, ...] = ()

    def observations(self) -> List[Observation]:
        return [p.observation() for p in self.points]

    def metrics(self) -> List[float]:
        return [p.metric for p in self.points]

    def speedups(self) -> List[float]:
        return [p.speedup for p in self.points]

    def fit_predictor(self, method: str = "gini") -> SmtPredictor:
        return SmtPredictor.fit(
            self.observations(),
            high_level=self.high_level,
            low_level=self.low_level,
            method=method,
        )

    def success(self, threshold: Optional[float] = None,
                method: str = "gini") -> SuccessSummary:
        """Prediction outcome at a fixed threshold or a fitted one."""
        if threshold is None:
            predictor = self.fit_predictor(method)
        else:
            predictor = SmtPredictor(
                threshold=threshold,
                high_level=self.high_level,
                low_level=self.low_level,
                method="fixed",
            )
        return success_summary(predictor, self.observations())

    def render(self, threshold: Optional[float] = None) -> str:
        """The figure as rows (sorted by metric), plus the summary."""
        rows = [
            [p.name, p.metric, p.speedup, "higher" if p.speedup >= 1 else "lower"]
            for p in sorted(self.points, key=lambda p: p.metric)
        ]
        table = format_table(
            ["benchmark", f"SMTsm@SMT{self.measure_level}",
             f"SMT{self.high_level}/SMT{self.low_level} speedup", "prefers"],
            rows,
            title=self.title,
        )
        summary = self.success(threshold)
        lines = [
            table,
            "",
            f"threshold = {summary.threshold:.4f}  "
            f"success = {summary.n_correct}/{summary.n_total} "
            f"({100 * summary.success_rate:.0f}%)",
        ]
        if summary.misses:
            lines.append(f"mispredicted: {', '.join(summary.misses)}")
        if self.skipped:
            lines.append(f"skipped (incomplete runs): {', '.join(self.skipped)}")
        return "\n".join(lines)


def scatter_from_runs(
    catalog_runs: CatalogRuns,
    *,
    title: str,
    measure_level: int,
    high_level: int,
    low_level: int,
    names: Optional[Iterable[str]] = None,
) -> ScatterResult:
    """Project cached runs into one speedup-vs-metric figure.

    Workloads whose runs are incomplete (a partially-failed sweep left
    holes at one of the requested levels) or whose metric cannot be
    evaluated are *skipped and reported* — listed in
    :attr:`ScatterResult.skipped` and counted in the
    ``runner.scatter_skipped`` obs counter — rather than aborting the
    figure with a bare ``KeyError``.  Asking for a name the catalog
    never contained is still a programming error and raises.
    """
    if high_level <= low_level:
        raise ValueError(f"high_level {high_level} must exceed low_level {low_level}")
    tracer = get_tracer()
    points: List[ScatterPoint] = []
    skipped: List[str] = []
    if names is not None:
        selected = list(names)
    else:
        # A workload every one of whose runs failed is absent from
        # ``runs`` entirely; surface it in the skip report rather than
        # letting it vanish from the figure silently.
        all_failed = {
            key.split("@SMT", 1)[0] for key in catalog_runs.failures
        } - set(catalog_runs.runs)
        selected = list(catalog_runs.runs) + sorted(all_failed)
    for name in selected:
        try:
            runs = catalog_runs.runs[name]
        except KeyError:
            if names is not None and not any(
                key.startswith(f"{name}@SMT") for key in catalog_runs.failures
            ):
                raise KeyError(f"workload {name!r} not in catalog runs") from None
            skipped.append(name)
            tracer.add("runner.scatter_skipped")
            continue
        try:
            metric = smtsm_from_run(runs[measure_level])
            point = ScatterPoint(
                name=name,
                metric=metric.value,
                speedup=speedup(runs[high_level], runs[low_level]),
                metric_detail=metric,
            )
        except (KeyError, ValueError):
            skipped.append(name)
            tracer.add("runner.scatter_skipped")
            continue
        points.append(point)
    if not points:
        raise ValueError(
            f"no complete workloads to plot (skipped: {', '.join(skipped) or 'none'})"
        )
    return ScatterResult(
        title=title,
        system_name=f"{catalog_runs.system.arch.name} x{catalog_runs.system.n_chips}",
        measure_level=measure_level,
        high_level=high_level,
        low_level=low_level,
        points=tuple(points),
        skipped=tuple(skipped),
    )
