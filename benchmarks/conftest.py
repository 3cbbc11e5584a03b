"""Benchmark-harness fixtures.

Each benchmark regenerates one paper table/figure end-to-end (catalog
simulation + metric + analysis), asserts the paper's qualitative shape,
and writes the rendered rows/series to ``results/<name>.txt`` so the
output survives pytest's capture.  Catalog runs are shared per session
where a figure is a pure projection of the same runs.
"""

import os
from pathlib import Path

import pytest

from repro.experiments.runner import run_catalog

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def p7_catalog_runs():
    return run_catalog("p7", seed=11)


@pytest.fixture(scope="session")
def p7x2_catalog_runs():
    return run_catalog("p7", n_chips=2, seed=11)


@pytest.fixture(scope="session")
def nehalem_catalog_runs():
    return run_catalog("nehalem", seed=11)


def emit(results_dir: Path, name: str, text: str) -> None:
    """Print a rendered experiment and persist it."""
    print()
    print(text)
    (results_dir / f"{name}.txt").write_text(text + "\n")
