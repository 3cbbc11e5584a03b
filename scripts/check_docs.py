"""Docs-consistency check: the API page must cover the public surface.

Every public symbol re-exported in ``repro/__init__.py`` (and, since
the observability and robustness PRs, in ``repro/obs/__init__.py`` and
``repro/faults/__init__.py``) must be mentioned in ``docs/api.md`` — otherwise the API page silently drifts from the
code, which is exactly how the batched-engine symbols went
undocumented for a whole PR.  The knob tables of ``docs/scaling.md``
and ``docs/fleet.md`` are checked both ways against ``ServeConfig`` and
``FleetConfig``: every field must have a row, and every row must name a
field.

Run standalone (exit code 1 lists the missing symbols)::

    PYTHONPATH=src python scripts/check_docs.py

or via the test suite (``tests/test_docs_consistency.py`` imports this
module and asserts the same thing).
"""

from __future__ import annotations

import dataclasses
import importlib
import re
import sys
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
API_DOC = REPO_ROOT / "docs" / "api.md"

#: Modules whose ``__all__`` constitutes the documented public surface.
PUBLIC_MODULES = (
    "repro",
    "repro.api",
    "repro.arch",
    "repro.serve",
    "repro.serve.workers",
    "repro.obs",
    "repro.faults",
    "repro.check",
    "repro.sim.table",
    "repro.sim.surrogate",
    "repro.fleet",
)

#: Doc pages that must exist (a rename or deletion fails loudly here
#: before a dangling cross-reference ships).
REQUIRED_DOCS = (
    "api.md",
    "architecture.md",
    "architectures.md",
    "observability.md",
    "performance.md",
    "robustness.md",
    "scaling.md",
    "fleet.md",
    "serving.md",
    "simulator.md",
    "testing.md",
)


def public_symbols(module_name: str) -> List[str]:
    module = importlib.import_module(module_name)
    return [name for name in module.__all__ if not name.startswith("_")]


def missing_docs() -> List[str]:
    """Required doc pages absent from docs/ (empty = ok)."""
    docs_dir = REPO_ROOT / "docs"
    return [name for name in REQUIRED_DOCS if not (docs_dir / name).is_file()]


def missing_scaling_knobs(doc_text: str = None) -> List[str]:
    """ServeConfig fields absent from docs/scaling.md's knob reference.

    docs/scaling.md promises a complete tuning-knob table; checking it
    against the dataclass fields keeps a new serving knob from shipping
    undocumented.
    """
    from repro.serve import ServeConfig

    if doc_text is None:
        doc_text = (REPO_ROOT / "docs" / "scaling.md").read_text()
    return [
        field.name for field in dataclasses.fields(ServeConfig)
        if field.name not in doc_text
    ]


def missing_fleet_knobs(doc_text: str = None) -> List[str]:
    """FleetConfig fields absent from docs/fleet.md (empty = ok).

    Same contract as the scaling-knob check: every fleet tuning knob
    must be named in its doc page before it ships.
    """
    from repro.fleet import FleetConfig

    if doc_text is None:
        doc_text = (REPO_ROOT / "docs" / "fleet.md").read_text()
    return [
        field.name for field in dataclasses.fields(FleetConfig)
        if field.name not in doc_text
    ]


def _knob_rows(doc_text: str) -> List[tuple]:
    """``(first cell, backticked names)`` for every row of the page's
    knob tables (tables whose first header cell reads "Knob")."""
    rows: List[tuple] = []
    in_table = False
    for line in doc_text.splitlines():
        cells = line.strip().split("|")
        if len(cells) < 3:
            in_table = False
            continue
        first = cells[1].strip()
        if first.lower() == "knob":
            in_table = True
        elif in_table and not set(first) <= set("-: "):
            rows.append((first, re.findall(r"`([^`]+)`", first)))
    return rows


def _stale_knobs(doc_text: str, config_cls) -> List[str]:
    fields = {field.name for field in dataclasses.fields(config_cls)}
    return [
        cell for cell, names in _knob_rows(doc_text)
        if not fields.intersection(names)
    ]


def stale_scaling_knobs(doc_text: str = None) -> List[str]:
    """Knob-table rows of docs/scaling.md that name no ServeConfig field.

    The reverse of :func:`missing_scaling_knobs`: a field deleted from
    the dataclass must take its documentation row with it.
    """
    from repro.serve import ServeConfig

    if doc_text is None:
        doc_text = (REPO_ROOT / "docs" / "scaling.md").read_text()
    return _stale_knobs(doc_text, ServeConfig)


def stale_fleet_knobs(doc_text: str = None) -> List[str]:
    """Knob-table rows of docs/fleet.md that name no FleetConfig field."""
    from repro.fleet import FleetConfig

    if doc_text is None:
        doc_text = (REPO_ROOT / "docs" / "fleet.md").read_text()
    return _stale_knobs(doc_text, FleetConfig)


def missing_symbols(doc_text: str = None) -> Dict[str, List[str]]:
    """Symbols absent from docs/api.md, keyed by module (empty = ok).

    Mention is a plain substring test: table cells list symbols
    verbatim, so a symbol rename that misses the docs fails loudly
    without requiring any markup discipline beyond "write the name".
    """
    if doc_text is None:
        doc_text = API_DOC.read_text()
    missing: Dict[str, List[str]] = {}
    for module_name in PUBLIC_MODULES:
        absent = [s for s in public_symbols(module_name) if s not in doc_text]
        if absent:
            missing[module_name] = absent
    return missing


def main() -> int:
    problems = missing_symbols()
    absent_docs = missing_docs()
    absent_knobs = [] if absent_docs else missing_scaling_knobs()
    absent_fleet_knobs = [] if absent_docs else missing_fleet_knobs()
    stale_knobs = [] if absent_docs else stale_scaling_knobs()
    stale_fleet = [] if absent_docs else stale_fleet_knobs()
    if (not problems and not absent_docs and not absent_knobs
            and not absent_fleet_knobs and not stale_knobs
            and not stale_fleet):
        total = sum(len(public_symbols(m)) for m in PUBLIC_MODULES)
        print(f"docs/api.md covers all {total} public symbols "
              f"of {', '.join(PUBLIC_MODULES)}; all {len(REQUIRED_DOCS)} "
              f"doc pages present; the knob tables of docs/scaling.md "
              f"and docs/fleet.md match ServeConfig and FleetConfig")
        return 0
    for module_name, symbols in problems.items():
        print(f"docs/api.md is missing {len(symbols)} symbol(s) "
              f"from {module_name}.__all__: {', '.join(symbols)}",
              file=sys.stderr)
    for name in absent_docs:
        print(f"required doc page docs/{name} is missing", file=sys.stderr)
    for knob in absent_knobs:
        print(f"docs/scaling.md is missing ServeConfig knob {knob!r}",
              file=sys.stderr)
    for knob in absent_fleet_knobs:
        print(f"docs/fleet.md is missing FleetConfig knob {knob!r}",
              file=sys.stderr)
    for row in stale_knobs:
        print(f"docs/scaling.md documents {row}, which names no "
              f"ServeConfig field", file=sys.stderr)
    for row in stale_fleet:
        print(f"docs/fleet.md documents {row}, which names no "
              f"FleetConfig field", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
