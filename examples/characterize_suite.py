#!/usr/bin/env python
"""Characterize the full Table I suite on a chosen system.

Reproduces the §IV measurement protocol over every benchmark: run at
each SMT level with threads == contexts, report speedups, the metric
and its factors, and the fitted threshold — the data behind Figs. 6-10.

    python examples/characterize_suite.py [p7|p7x2|nehalem]
"""

import sys

from repro.core.metric import smtsm_from_run
from repro.experiments.runner import run_catalog, scatter_from_runs
from repro.sim.results import speedup
from repro.util.tables import format_table


def main(which: str = "p7") -> None:
    runs = run_catalog(which)
    high, low = (2, 1) if which == "nehalem" else (4, 1)
    system = runs.system
    rows = []
    for name, by_level in runs.runs.items():
        m = smtsm_from_run(by_level[high])
        rows.append([
            name,
            speedup(by_level[high], by_level[low]),
            m.value, m.mix_deviation, m.dispatch_held, m.scalability_ratio,
            by_level[high].spin_fraction,
            by_level[high].mem_utilization,
        ])
    rows.sort(key=lambda r: r[2])
    print(format_table(
        ["benchmark", f"SMT{high}/SMT{low}", f"SMTsm@{high}", "mix dev",
         "disp held", "wall/cpu", "spin", "DRAM util"],
        rows,
        title=f"{system.arch.name} x{system.n_chips}: suite characterization",
    ))

    scatter = scatter_from_runs(
        runs, title="", measure_level=high, high_level=high, low_level=low
    )
    predictor = scatter.fit_predictor("gini")
    print(f"\nfitted threshold: {predictor.threshold:.4f}")
    print(scatter.success())


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "p7")
