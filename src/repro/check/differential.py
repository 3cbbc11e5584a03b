"""Differential testing: every fast path must match the reference path.

The repository keeps several ways to execute a sweep
(``run_catalog(strategy="columnar"|"surrogate"|"batched"|"serial")``),
a persistent run cache, and a batched prediction facade — the exact
paths are documented as "semantically equivalent to floating-point
round-off" and the surrogate as "within its calibrated error bound or
not at all".  This pillar *executes* those claims
McKeeman-style: run identical scenario sets down every path, compare
field by field at :data:`REL_TOL` (exact paths) or
:data:`SURROGATE_REL_TOL` (surrogate-accepted rows), and when a
divergence appears, shrink the batch with a ddmin-style minimizer so
the report carries the smallest scenario set that still reproduces it
(batched solvers can diverge only in the *company* of other scenarios —
the lockstep bisection couples their trajectories).
"""

from __future__ import annotations

import tempfile
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.check.report import PillarReport, Violation
from repro.experiments.runner import resolve_system
from repro.obs import get_tracer
from repro.sim.engine import DEFAULT_WORK, RunSpec, simulate_many, simulate_run
from repro.sim.results import RunResult
from repro.sim.runcache import RunCache

#: The documented equivalence bound for the fast paths.
REL_TOL = 1e-9

#: The documented error bound for surrogate-accepted answers.  Rows the
#: surrogate refuses (leverage or residual reject) fall back to the full
#: columnar solver and are held to :data:`REL_TOL` instead.
SURROGATE_REL_TOL = 1e-2

#: Default scenario set: a CPU-bound kernel, an irregular memory-bound
#: graph code, a bandwidth-hungry streaming code, and a lock-contended
#: commercial workload — together they exercise the sync-free short
#: circuit, the spin fixed point, the bandwidth bisection, and the
#: water-filling throttle.
DEFAULT_WORKLOADS = ("EP", "SSCA2", "Fluidanimate", "SPECjbb_contention")


def _scalar_fields(result: RunResult) -> Dict[str, float]:
    times = result.times
    return {
        "wall_time_s": times.wall_time_s,
        "serial_time_s": times.serial_time_s,
        "parallel_time_s": times.parallel_time_s,
        "total_cpu_s": times.total_cpu_s,
        "performance": result.performance,
        "spin_fraction": result.spin_fraction,
        "blocked_fraction": result.blocked_fraction,
        "mem_latency_mult": result.mem_latency_mult,
        "mem_utilization": result.mem_utilization,
        "dispatch_held_fraction": result.dispatch_held_fraction,
    }


def compare_runs(a: RunResult, b: RunResult,
                 rel_tol: float = REL_TOL) -> List[Tuple[str, float]]:
    """Field-by-field comparison; returns ``(field, rel_error)`` pairs
    exceeding ``rel_tol`` (empty list = equivalent)."""

    def rel(x: float, y: float) -> float:
        scale = max(abs(x), abs(y))
        return 0.0 if scale == 0.0 else abs(x - y) / scale

    diffs: List[Tuple[str, float]] = []
    fa, fb = _scalar_fields(a), _scalar_fields(b)
    for field in fa:
        err = rel(fa[field], fb[field])
        if err > rel_tol:
            diffs.append((field, err))
    if len(a.per_thread_ipc) != len(b.per_thread_ipc):
        diffs.append(("per_thread_ipc.shape", float("inf")))
    else:
        ipc_a = np.asarray(a.per_thread_ipc)
        ipc_b = np.asarray(b.per_thread_ipc)
        scale = np.maximum(np.abs(ipc_a), np.abs(ipc_b))
        err_vec = np.where(scale > 0, np.abs(ipc_a - ipc_b) / np.maximum(scale, 1e-300), 0.0)
        if err_vec.size and float(err_vec.max()) > rel_tol:
            diffs.append(("per_thread_ipc", float(err_vec.max())))
    events = set(a.events) | set(b.events)
    worst_event, worst_err = None, 0.0
    for event in events:
        err = rel(a.events.get(event, 0.0), b.events.get(event, 0.0))
        if err > worst_err:
            worst_event, worst_err = event, err
    if worst_err > rel_tol:
        diffs.append((f"events.{worst_event}", worst_err))
    return diffs


def ddmin(indices: Sequence[int],
          still_fails: Callable[[List[int]], bool]) -> List[int]:
    """Zeller/Hildebrandt delta debugging over scenario indices.

    Shrinks ``indices`` to a subset on which ``still_fails`` is still
    true (1-minimal up to the chunk granularity the budget allows).
    """
    current = list(indices)
    n = 2
    while len(current) >= 2:
        size = max(1, len(current) // n)
        chunks = [current[i:i + size] for i in range(0, len(current), size)]
        reduced = False
        for chunk in chunks:
            complement = [i for i in current if i not in chunk]
            if complement and still_fails(complement):
                current = complement
                n = max(n - 1, 2)
                reduced = True
                break
        if not reduced:
            if n >= len(current):
                break
            n = min(len(current), n * 2)
    return current


def _build_specs(system, workloads: Sequence[str], levels: Sequence[int],
                 seed: int, work: float) -> Tuple[List[str], List[RunSpec]]:
    from repro.workloads.catalog import all_workloads

    specs = all_workloads()
    labels: List[str] = []
    run_specs: List[RunSpec] = []
    for name in workloads:
        workload = specs[name]
        for level in levels:
            labels.append(f"{name}@SMT{level}")
            run_specs.append(RunSpec(
                system=system,
                smt_level=level,
                stream=workload.stream,
                sync=workload.sync,
                useful_instructions=work,
                seed=seed,
            ))
    return labels, run_specs


def run_differential_checks(
    *,
    arch: str = "p7",
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    levels: Optional[Sequence[int]] = None,
    seed: int = 11,
    work: float = DEFAULT_WORK,
    rel_tol: float = REL_TOL,
    simulate_batch: Optional[Callable[[Sequence[RunSpec]], List[RunResult]]] = None,
) -> PillarReport:
    """Run the scenario set down every path and compare to the reference.

    Paths exercised against the serial ``simulate_run`` reference:

    * the vectorized batch engine (``simulate_many``) — with ddmin
      batch minimization on divergence;
    * the columnar :class:`~repro.sim.table.ScenarioTable` engine
      (``simulate_many_columnar``) — with ddmin batch minimization on
      divergence;
    * the calibrated surrogate fast path
      (``simulate_many_surrogate``) — accepted rows held to
      :data:`SURROGATE_REL_TOL`, fallback rows to ``rel_tol``, and the
      surrogate must accept at least one scenario of the set (a model
      that always falls back silently loses the fast path);
    * a cold-vs-warm run-cache round trip (persisted payloads must
      reconstruct the result exactly);
    * ``Session.predict`` vs ``Session.predict_many`` over the same
      queries.

    ``simulate_batch`` overrides the batched path (test seam: the
    injected-divergence acceptance test wraps ``simulate_many``).
    """
    system = resolve_system(arch)
    if levels is None:
        levels = tuple(system.arch.smt_levels)
    labels, specs = _build_specs(system, workloads, levels, seed, work)
    batch_fn = simulate_batch or simulate_many
    violations: List[Violation] = []
    checks_run = 0
    tracer = get_tracer()

    with tracer.span("check.differential", scenarios=len(specs)):
        reference = [simulate_run(spec) for spec in specs]

        # -- batched vs serial ------------------------------------------
        batched = batch_fn(specs)
        divergent: List[int] = []
        for i, (ref, got) in enumerate(zip(reference, batched)):
            checks_run += 1
            diffs = compare_runs(ref, got, rel_tol)
            if diffs:
                divergent.append(i)
                field, err = max(diffs, key=lambda d: d[1])
                violations.append(Violation(
                    pillar="differential", check="batched_vs_serial",
                    subject=labels[i],
                    message=(f"batched strategy diverges from the serial "
                             f"reference on {field} (rel {err:.3e})"),
                    details={
                        "field": field, "rel_error": err, "rel_tol": rel_tol,
                        "all_fields": dict(diffs),
                        "minimized_scenarios": _minimize_batch(
                            specs, labels, reference, batch_fn, rel_tol, i
                        ),
                    },
                ))

        # -- columnar table vs serial -----------------------------------
        from repro.sim.table import simulate_many_columnar

        columnar = simulate_many_columnar(specs)
        for i, (ref, got) in enumerate(zip(reference, columnar)):
            checks_run += 1
            diffs = compare_runs(ref, got, rel_tol)
            if diffs:
                field, err = max(diffs, key=lambda d: d[1])
                violations.append(Violation(
                    pillar="differential", check="columnar_vs_serial",
                    subject=labels[i],
                    message=(f"columnar strategy diverges from the serial "
                             f"reference on {field} (rel {err:.3e})"),
                    details={
                        "field": field, "rel_error": err, "rel_tol": rel_tol,
                        "all_fields": dict(diffs),
                        "minimized_scenarios": _minimize_batch(
                            specs, labels, reference, simulate_many_columnar,
                            rel_tol, i,
                        ),
                    },
                ))

        # -- surrogate vs solver ----------------------------------------
        from repro.sim.surrogate import simulate_many_surrogate

        surrogate, accepted = simulate_many_surrogate(specs)
        checks_run += 1
        if not any(accepted):
            violations.append(Violation(
                pillar="differential", check="surrogate_vs_solver",
                subject="(whole batch)",
                message=("surrogate accepted no scenario of the default "
                         "set — the fast path never engages"),
                details={"accepted": 0, "scenarios": len(specs),
                         "minimized_scenarios": list(labels)},
            ))
        for i, (ref, got, hit) in enumerate(zip(reference, surrogate,
                                                accepted)):
            checks_run += 1
            bound = SURROGATE_REL_TOL if hit else rel_tol
            diffs = compare_runs(ref, got, bound)
            if diffs:
                field, err = max(diffs, key=lambda d: d[1])
                path = "accepted answer" if hit else "solver fallback"
                violations.append(Violation(
                    pillar="differential", check="surrogate_vs_solver",
                    subject=labels[i],
                    message=(f"surrogate {path} diverges from the serial "
                             f"reference on {field} (rel {err:.3e}, bound "
                             f"{bound:.0e})"),
                    details={"field": field, "rel_error": err,
                             "rel_tol": bound, "accepted": hit,
                             "all_fields": dict(diffs),
                             "minimized_scenarios": [labels[i]]},
                ))

        # -- cold vs warm run cache -------------------------------------
        with tempfile.TemporaryDirectory(prefix="repro-check-cache-") as tmp:
            cache = RunCache(tmp)
            for i, (spec, ref) in enumerate(zip(specs, reference)):
                checks_run += 1
                cache.put(spec, ref)
                warm = cache.get(spec)
                if warm is None:
                    violations.append(Violation(
                        pillar="differential", check="runcache_roundtrip",
                        subject=labels[i],
                        message="stored run did not come back on a warm lookup",
                        details={"minimized_scenarios": [labels[i]]},
                    ))
                    continue
                diffs = compare_runs(ref, warm, rel_tol)
                if diffs:
                    field, err = max(diffs, key=lambda d: d[1])
                    violations.append(Violation(
                        pillar="differential", check="runcache_roundtrip",
                        subject=labels[i],
                        message=(f"warm cache hit diverges from the stored "
                                 f"run on {field} (rel {err:.3e})"),
                        details={"field": field, "rel_error": err,
                                 "rel_tol": rel_tol,
                                 "minimized_scenarios": [labels[i]]},
                    ))

        # -- predict vs predict_many ------------------------------------
        from repro.api import PredictQuery, Session

        session = Session(arch, seed=seed, work=work, use_cache=False,
                          threshold=0.07)
        queries = [PredictQuery(name) for name in workloads]
        many = session.predict_many(queries)
        for query, batched_pred in zip(queries, many):
            checks_run += 1
            single = session.predict(query.workload)
            if single.payload() != batched_pred.payload():
                diff_fields = [
                    key for key in single.payload()
                    if single.payload()[key] != batched_pred.payload()[key]
                ]
                violations.append(Violation(
                    pillar="differential", check="predict_vs_predict_many",
                    subject=str(query.workload),
                    message=("predict and predict_many disagree on "
                             + ", ".join(diff_fields)),
                    details={"fields": diff_fields,
                             "minimized_scenarios": [str(query.workload)]},
                ))

    tracer.add("check.differential_checks", checks_run)
    tracer.add("check.differential_violations", len(violations))
    return PillarReport(
        pillar="differential",
        checks_run=checks_run,
        subjects=len(specs),
        violations=tuple(violations),
        stats={"scenarios": list(labels), "rel_tol": rel_tol,
               "surrogate_rel_tol": SURROGATE_REL_TOL,
               "surrogate_accepted": int(sum(accepted))},
    )


#: Architectures (beyond the main ``--arch`` target) and hetero chips
#: the cross-architecture sweep pins by default.
CROSS_ARCHS = ("armsmt",)
CROSS_HETERO = ("biglittle",)
#: A lighter workload pair for the cross sweep: the sync-free and the
#: lock-contended extremes (the two fixed-point regimes).
CROSS_WORKLOADS = ("EP", "SPECjbb_contention")


def run_cross_arch_differential(
    *,
    archs: Sequence[str] = CROSS_ARCHS,
    hetero: Sequence[str] = CROSS_HETERO,
    workloads: Sequence[str] = CROSS_WORKLOADS,
    seed: int = 11,
    work: float = DEFAULT_WORK,
    rel_tol: float = REL_TOL,
) -> PillarReport:
    """Serial-vs-columnar equivalence on the non-default architectures.

    The full differential pillar exercises every execution path on one
    architecture; this sweep pins the core claim — the columnar engine
    matches the scalar reference to :data:`REL_TOL` — on each extra
    architecture in ``archs`` and on every cluster of each heterogeneous
    chip in ``hetero`` (per-cluster decomposition, mixed SMT ceilings).
    """
    from repro.arch.hetero import get_hetero
    from repro.sim.hetero import HeteroRunSpec, simulate_many_hetero
    from repro.sim.table import simulate_many_columnar
    from repro.workloads.catalog import all_workloads

    catalog = all_workloads()
    violations: List[Violation] = []
    checks_run = 0
    subjects = 0
    tracer = get_tracer()

    def record(check: str, label: str, ref: RunResult, got: RunResult):
        nonlocal checks_run
        checks_run += 1
        diffs = compare_runs(ref, got, rel_tol)
        if diffs:
            field, err = max(diffs, key=lambda d: d[1])
            violations.append(Violation(
                pillar="differential", check=check, subject=label,
                message=(f"columnar diverges from the serial reference on "
                         f"{field} (rel {err:.3e})"),
                details={"field": field, "rel_error": err, "rel_tol": rel_tol,
                         "all_fields": dict(diffs)},
            ))

    with tracer.span("check.cross_arch_differential",
                     archs=",".join(list(archs) + list(hetero))):
        for arch in archs:
            system = resolve_system(arch)
            labels, specs = _build_specs(
                system, workloads, tuple(system.arch.smt_levels), seed, work,
            )
            subjects += len(specs)
            reference = [simulate_run(spec) for spec in specs]
            columnar = simulate_many_columnar(specs)
            for label, ref, got in zip(labels, reference, columnar):
                record("cross_arch_columnar_vs_serial",
                       f"{label} [{system.arch.name}]", ref, got)

        for chip_name in hetero:
            chip = get_hetero(chip_name)
            hspecs = [
                HeteroRunSpec(
                    chip=chip, stream=catalog[name].stream,
                    sync=catalog[name].sync,
                    useful_instructions=work, seed=seed,
                )
                for name in workloads
            ]
            subjects += len(hspecs) * len(chip.clusters)
            serial = simulate_many_hetero(hspecs, strategy="serial")
            columnar = simulate_many_hetero(hspecs, strategy="columnar")
            for name, ref_h, got_h in zip(workloads, serial, columnar):
                for cluster in chip.cluster_names:
                    record(
                        "hetero_columnar_vs_serial",
                        f"{name} [{chip_name}.{cluster}]",
                        ref_h.cluster_results[cluster],
                        got_h.cluster_results[cluster],
                    )

    tracer.add("check.differential_checks", checks_run)
    tracer.add("check.differential_violations", len(violations))
    return PillarReport(
        pillar="differential",
        checks_run=checks_run,
        subjects=subjects,
        violations=tuple(violations),
        stats={"cross_archs": list(archs), "cross_hetero": list(hetero)},
    )


def _minimize_batch(
    specs: List[RunSpec],
    labels: List[str],
    reference: List[RunResult],
    batch_fn: Callable[[Sequence[RunSpec]], List[RunResult]],
    rel_tol: float,
    target: int,
) -> List[str]:
    """Smallest scenario subset whose *batched* solve still diverges.

    The subset must keep reproducing a divergence on at least one of
    its members (not necessarily ``target``: the minimizer follows the
    failure, not the symptom's original index).
    """

    def still_fails(subset: List[int]) -> bool:
        try:
            got = batch_fn([specs[i] for i in subset])
        except Exception:
            return True  # crashing on the subset still reproduces a defect
        return any(
            compare_runs(reference[i], out, rel_tol)
            for i, out in zip(subset, got)
        )

    candidates = list(range(len(specs)))
    if not still_fails(candidates):  # pragma: no cover - flaky divergence
        return [labels[target]]
    minimal = ddmin(candidates, still_fails)
    get_tracer().add("check.ddmin_reductions", len(specs) - len(minimal))
    return [labels[i] for i in minimal]
