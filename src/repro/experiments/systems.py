"""The paper's three experimental systems.

Catalog sweeps go through the unified
:func:`repro.experiments.runner.run_catalog` entry point:
``run_catalog("p7", seed=...)``, ``run_catalog("p7x2", ...)`` or
``run_catalog("nehalem", ...)``.
"""

from __future__ import annotations

from repro.arch import nehalem, power7
from repro.simos.system import SystemSpec

DEFAULT_SEED = 11


def p7_system(n_chips: int = 1) -> SystemSpec:
    """AIX/POWER7: one or two 8-core chips (paper §III-A)."""
    return SystemSpec(power7(), n_chips)


def nehalem_system() -> SystemSpec:
    """Linux/Core i7 965: one quad-core chip (paper §III-A)."""
    return SystemSpec(nehalem(), 1)
