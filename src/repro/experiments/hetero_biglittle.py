"""SMTsm on a heterogeneous 4+4 big/little chip.

Runs the threshold-selection pipeline independently on each cluster of
the registered ``biglittle`` chip (POWER7-class big cores at SMT4,
ARM-class little cores at SMT2) over one common workload set, then
compares predicted-vs-best SMT level per workload *per cluster*.  The
interesting transfer question is asymmetric ceilings: the same workload
can prefer SMT4 on the big cluster and SMT1 on the little one, and the
metric must get both calls right from each cluster's own counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from repro.arch.hetero import get_hetero
from repro.core.thresholds import optimal_threshold_range
from repro.experiments.runner import (
    ScatterResult,
    run_catalog,
    scatter_from_runs,
)
from repro.experiments.systems import DEFAULT_SEED
from repro.util.tables import format_table
from repro.workloads.catalog import ARMSMT_SET, armsmt_catalog

CHIP = "biglittle"


@dataclass(frozen=True)
class HeteroTransferResult:
    """Per-cluster scatters + thresholds on one heterogeneous chip."""

    chip_name: str
    scatters: Mapping[str, ScatterResult]        # cluster -> scatter
    thresholds: Mapping[str, Tuple[float, float]]  # cluster -> gini range

    def threshold_is_valid(self, cluster: str) -> bool:
        metrics = self.scatters[cluster].metrics()
        lo, hi = self.thresholds[cluster]
        mid = (lo + hi) / 2.0
        return bool(min(metrics) < mid < max(metrics))

    def predicted_vs_best(self) -> Dict[str, Dict[str, Tuple[int, int]]]:
        """workload -> cluster -> (predicted level, best level)."""
        out: Dict[str, Dict[str, Tuple[int, int]]] = {}
        for cluster, scatter in self.scatters.items():
            predictor = scatter.fit_predictor()
            for p in scatter.points:
                predicted = predictor.recommend(p.metric)
                best = (scatter.high_level if p.speedup >= 1.0
                        else scatter.low_level)
                out.setdefault(p.name, {})[cluster] = (predicted, best)
        return out

    def render(self) -> str:
        clusters = list(self.scatters)
        table_rows = []
        hits = {c: 0 for c in clusters}
        per_workload = self.predicted_vs_best()
        for name in sorted(per_workload):
            row = [name]
            for cluster in clusters:
                pred, best = per_workload[name].get(cluster, (None, None))
                if pred is None:
                    row.append("-")
                    continue
                mark = "" if pred == best else " MISS"
                row.append(f"SMT{pred}/SMT{best}{mark}")
                if pred == best:
                    hits[cluster] += 1
            table_rows.append(row)
        header = ["benchmark"] + [
            f"{c} predicted/best" for c in clusters
        ]
        table = format_table(
            header, table_rows,
            title=(f"SMTsm on {self.chip_name}: predicted vs best SMT "
                   "level per cluster"),
        )
        lines = [table, ""]
        for cluster in clusters:
            lo, hi = self.thresholds[cluster]
            n = len(self.scatters[cluster].points)
            lines.append(
                f"{cluster}: gini threshold range [{lo:.4f}, {hi:.4f}], "
                f"success {hits[cluster]}/{n} "
                f"({100 * hits[cluster] / n:.0f}%), "
                f"valid: {self.threshold_is_valid(cluster)}"
            )
        return "\n".join(lines)


def run(seed: int = DEFAULT_SEED, runs=None) -> HeteroTransferResult:
    """``runs`` (cluster -> CatalogRuns) is a test seam; computed when
    absent.  Both clusters sweep the same workload set so the per-
    workload comparison is apples-to-apples."""
    chip = get_hetero(CHIP)
    catalog = armsmt_catalog()
    scatters: Dict[str, ScatterResult] = {}
    thresholds: Dict[str, Tuple[float, float]] = {}
    for spec in chip.clusters:
        arch_name = f"{CHIP}.{spec.name}"
        cluster_runs = (runs or {}).get(spec.name)
        if cluster_runs is None:
            cluster_runs = run_catalog(arch_name, catalog, seed=seed)
        high = spec.arch.max_smt
        scatter = scatter_from_runs(
            cluster_runs,
            title=(f"SMT{high}/SMT1 speedup vs SMTsm@SMT{high} "
                   f"({arch_name})"),
            measure_level=high,
            high_level=high,
            low_level=1,
            names=ARMSMT_SET,
        )
        lo, hi, _ = optimal_threshold_range(
            scatter.metrics(), scatter.speedups()
        )
        scatters[spec.name] = scatter
        thresholds[spec.name] = (lo, hi)
    return HeteroTransferResult(
        chip_name=CHIP, scatters=scatters, thresholds=thresholds,
    )
