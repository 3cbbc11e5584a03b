"""Conformance and invariant checking for the SMTsm reproduction.

Four pillars, one verdict (see ``docs/testing.md``):

* :mod:`repro.check.invariants` — simulator physics laws evaluated
  over every run a sweep produces (and re-solved chip internals);
* :mod:`repro.check.differential` — the serial reference vs every
  fast path (batched, columnar, surrogate, run cache, batched
  prediction), with ddmin minimization of any diverging batch;
* :mod:`repro.check.goldens` — tolerance-aware, content-addressed
  snapshots of the paper figures' summary statistics;
* :mod:`repro.check.fuzz` — a seeded protocol fuzzer holding the
  prediction service to typed responses, zero leaks, zero crashes.

Entry points: :func:`run_check` (programmatic) and the ``repro check``
CLI subcommand.
"""

from repro.check.differential import (
    compare_runs,
    ddmin,
    run_differential_checks,
)
from repro.check.fuzz import run_fuzz_checks
from repro.check.goldens import (
    diff_values,
    model_fingerprint,
    run_golden_checks,
    update_goldens,
)
from repro.check.invariants import (
    REGISTRY,
    InvariantContext,
    check_catalog_invariants,
    invariant,
)
from repro.check.report import (
    PILLARS,
    CheckReport,
    PillarReport,
    Violation,
)
from repro.check.runner import CheckOptions, run_check

__all__ = [
    "PILLARS",
    "REGISTRY",
    "CheckOptions",
    "CheckReport",
    "InvariantContext",
    "PillarReport",
    "Violation",
    "check_catalog_invariants",
    "compare_runs",
    "ddmin",
    "diff_values",
    "invariant",
    "model_fingerprint",
    "run_check",
    "run_differential_checks",
    "run_fuzz_checks",
    "run_golden_checks",
    "update_goldens",
]
