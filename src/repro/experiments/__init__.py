"""Experiment harness: one module per paper table/figure.

Every experiment follows §IV's protocol — the number of software
threads equals the number of hardware contexts at each SMT level — and
returns a result object that can render the same rows/series the paper
plots.  The benchmark suite (``benchmarks/``) drives these modules and
asserts the paper's qualitative shapes.
"""

import importlib

from repro.experiments.runner import (
    CatalogRuns,
    ScatterPoint,
    ScatterResult,
    run_catalog,
    scatter_from_runs,
)

#: The experiment modules.  They load on first attribute access
#: (PEP 562): sweeps, serving and the fleet need only the runner, so
#: importing the package does not import every figure.
_EXPERIMENTS = (
    "fig01_motivation",
    "fig02_naive_metrics",
    "fig06_smt4v1_at4",
    "fig07_instruction_mix",
    "fig08_smt4v2_at4",
    "fig09_smt2v1_at2",
    "fig10_nehalem",
    "fig11_at_smt1_p7",
    "fig12_at_smt1_nehalem",
    "fig13_two_chip_41",
    "fig14_two_chip_42",
    "fig15_two_chip_21",
    "fig16_gini",
    "fig17_ppi",
    "armsmt_transfer",
    "hetero_biglittle",
    "noise_ablation",
    "online_optimizer",
    "offline_vs_online",
    "batch_scheduler",
    "coschedule_symbiosis",
    "priority_shielding",
    "related_mathis_power5",
    "scaling_cores",
    "threshold_transfer",
    "table1",
)

__all__ = [
    "CatalogRuns",
    "ScatterPoint",
    "ScatterResult",
    "run_catalog",
    "scatter_from_runs",
    *_EXPERIMENTS,
]


def __getattr__(name: str):
    if name in _EXPERIMENTS:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
