"""SMTsm transfer to the ARM-style 2-way SMT chip.

The paper derives the metric on POWER7 and Nehalem; this experiment
checks the *transfer claim* — that the metric's threshold-selection
machinery (Gini impurity minimization of §V-A and the PPI maximization
of §V-B) carries over unchanged to a SYNPA-flavored ARMv8 2-way SMT
core with competitively-arbitrated issue ports.  A valid transfer means
both methods produce a finite threshold inside the observed metric
range and the fitted predictor beats the always-SMT2 baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.thresholds import best_ppi_threshold, optimal_threshold_range
from repro.experiments.runner import (
    CatalogRuns,
    ScatterResult,
    run_catalog,
    scatter_from_runs,
)
from repro.experiments.systems import DEFAULT_SEED
from repro.util.tables import format_table
from repro.workloads.catalog import ARMSMT_SET


@dataclass(frozen=True)
class ArmTransferResult:
    """Scatter + both fitted thresholds on the ARM chip."""

    scatter: ScatterResult
    gini_range: Tuple[float, float]
    min_impurity: float
    ppi_threshold: float
    ppi_improvement_pct: float

    @property
    def threshold(self) -> float:
        """The operating threshold: the Gini range midpoint."""
        lo, hi = self.gini_range
        return (lo + hi) / 2.0

    def threshold_is_valid(self) -> bool:
        """True when both methods landed strictly inside the metric range
        (a degenerate edge threshold would classify every workload the
        same way — no transfer)."""
        metrics = self.scatter.metrics()
        lo, hi = min(metrics), max(metrics)
        return bool(lo < self.threshold < hi and lo <= self.ppi_threshold <= hi)

    def predicted_vs_best(self):
        """Rows of (workload, metric, predicted level, best level, hit)."""
        predictor = self.scatter.fit_predictor()
        rows = []
        for p in sorted(self.scatter.points, key=lambda p: p.metric):
            predicted = predictor.recommend(p.metric)
            best = (self.scatter.high_level if p.speedup >= 1.0
                    else self.scatter.low_level)
            rows.append((p.name, p.metric, predicted, best, predicted == best))
        return rows

    def render(self) -> str:
        rows = [
            [name, metric, f"SMT{pred}", f"SMT{best}",
             "ok" if hit else "MISS"]
            for name, metric, pred, best, hit in self.predicted_vs_best()
        ]
        table = format_table(
            ["benchmark", "SMTsm@SMT2", "predicted", "best", ""],
            rows,
            title="SMTsm transfer: predicted vs best SMT level (ARMv8-SMT2)",
        )
        summary = self.scatter.success()
        lo, hi = self.gini_range
        return "\n".join([
            table,
            "",
            f"gini threshold range: [{lo:.4f}, {hi:.4f}] "
            f"(impurity {self.min_impurity:.3f})",
            f"ppi threshold: {self.ppi_threshold:.4f} "
            f"({self.ppi_improvement_pct:.1f}% avg improvement)",
            f"success = {summary.n_correct}/{summary.n_total} "
            f"({100 * summary.success_rate:.0f}%) at "
            f"threshold {summary.threshold:.4f}",
            f"transfer valid: {self.threshold_is_valid()}",
        ])


def run(seed: int = DEFAULT_SEED, runs: CatalogRuns = None) -> ArmTransferResult:
    if runs is None:
        runs = run_catalog("armsmt", seed=seed)
    scatter = scatter_from_runs(
        runs,
        title="SMT2/SMT1 speedup vs SMTsm@SMT2 (ARMv8-SMT2)",
        measure_level=2,
        high_level=2,
        low_level=1,
        names=ARMSMT_SET,
    )
    metrics, speedups = scatter.metrics(), scatter.speedups()
    lo, hi, impurity = optimal_threshold_range(metrics, speedups)
    ppi_threshold, improvement = best_ppi_threshold(metrics, speedups)
    return ArmTransferResult(
        scatter=scatter,
        gini_range=(lo, hi),
        min_impurity=impurity,
        ppi_threshold=ppi_threshold,
        ppi_improvement_pct=improvement,
    )
