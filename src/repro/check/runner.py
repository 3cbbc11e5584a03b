"""Orchestration: run selected pillars, aggregate one :class:`CheckReport`.

The pillars are independent; this module owns their ordering, their
shared configuration (seed, architecture, tolerances), the telemetry
setup, and the crash containment — a pillar that *itself* dies is
reported as a violation of that pillar, never as a traceback that
masks the other pillars' results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from repro.check import differential, fuzz, goldens, invariants
from repro.check.report import (
    PILLARS,
    CheckReport,
    PillarReport,
    Violation,
    merge_pillar_reports,
)
from repro.obs import configure, get_tracer

DEFAULT_SEED = 11


@dataclass(frozen=True)
class CheckOptions:
    """Everything ``repro check`` can be tuned with."""

    arch: str = "p7"
    seed: int = DEFAULT_SEED
    noise_rel: float = 0.01             # invariants: counter jitter level
    chip_samples: int = 4               # invariants: re-solved scenarios
    diff_rel_tol: float = differential.REL_TOL
    figures: Optional[Sequence[str]] = None   # goldens: subset (None = all)
    goldens_directory: Optional[Path] = None
    fuzz_cases: int = 500
    fuzz_seed: int = fuzz.DEFAULT_SEED
    extra: dict = field(default_factory=dict)  # forward-compat knobs


def _crashed(pillar: str, exc: BaseException) -> PillarReport:
    return PillarReport(
        pillar=pillar, checks_run=0, subjects=0,
        violations=(Violation(
            pillar=pillar, check="pillar_crashed", subject=pillar,
            message=f"the pillar itself raised {type(exc).__name__}: {exc}",
        ),),
    )


def _run_invariants(options: CheckOptions) -> PillarReport:
    from repro.experiments.runner import run_catalog, resolve_system

    runs = run_catalog(options.arch, seed=options.seed)
    main = invariants.check_catalog_invariants(
        runs, noise_rel=options.noise_rel, chip_samples=options.chip_samples,
    )
    # Cross-architecture coverage: every *registered* architecture (and
    # every hetero chip's clusters) must pass the same laws; the main
    # sweep's architecture is counted as exercised without re-running.
    coverage = invariants.check_registry_coverage(
        seed=options.seed, noise_rel=options.noise_rel,
        chip_samples=min(options.chip_samples, 2),
        exercised=[resolve_system(options.arch).arch.name.lower(),
                   options.arch.lower()],
    )
    return merge_pillar_reports(main, coverage)


def _run_differential(options: CheckOptions) -> PillarReport:
    main = differential.run_differential_checks(
        arch=options.arch, seed=options.seed,
        rel_tol=options.diff_rel_tol,
    )
    cross = differential.run_cross_arch_differential(
        seed=options.seed, rel_tol=options.diff_rel_tol,
    )
    return merge_pillar_reports(main, cross)


def _run_goldens(options: CheckOptions) -> PillarReport:
    return goldens.run_golden_checks(
        options.figures, seed=options.seed,
        directory=options.goldens_directory,
    )


def _run_fuzz(options: CheckOptions) -> PillarReport:
    return fuzz.run_fuzz_checks(
        cases=options.fuzz_cases, seed=options.fuzz_seed,
    )


_RUNNERS = {
    "invariants": _run_invariants,
    "differential": _run_differential,
    "goldens": _run_goldens,
    "fuzz": _run_fuzz,
}


def run_check(
    pillars: Optional[Sequence[str]] = None,
    options: Optional[CheckOptions] = None,
) -> CheckReport:
    """Run the selected pillars (default: all four) and aggregate.

    Pillars always execute in :data:`~repro.check.report.PILLARS`
    order, whatever order they were requested in.
    """
    options = options or CheckOptions()
    selected = list(pillars) if pillars is not None else list(PILLARS)
    unknown = [p for p in selected if p not in PILLARS]
    if unknown:
        raise ValueError(f"unknown pillar(s) {unknown}; known: {list(PILLARS)}")

    tracer = get_tracer()
    if not tracer.enabled:
        tracer = configure(enabled=True)    # in-process counters only

    reports: List[PillarReport] = []
    with tracer.span("check.run", pillars=",".join(selected)):
        for pillar in PILLARS:
            if pillar not in selected:
                continue
            try:
                reports.append(_RUNNERS[pillar](options))
            except Exception as exc:
                reports.append(_crashed(pillar, exc))
    return CheckReport(pillars=tuple(reports))
