"""The import surface: what the facade loads, and what anything loads.

Importing the facade loads only what sweeps, serving and the fleet use.
The experiment modules load on first access (PEP 562), so
``import repro.api`` does not pay for them; attribute access and
``from`` imports still resolve them.  ``numpy.random`` loads on the
first seeded stream.

Every module under ``src/repro`` must be imported by some entry point:
a module that only tests reach is code nobody runs.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PROBE = """
import json, sys
import repro.api
loaded = sorted(m for m in sys.modules if m.startswith("repro."))
numpy_random = "numpy.random" in sys.modules
import repro.experiments
import repro.sim
fig = repro.experiments.fig06_smt4v1_at4.__name__
from repro.experiments import table1
print(json.dumps({"loaded": loaded, "fig": fig,
                  "table1": table1.__name__, "numpy_random": numpy_random}))
"""


def test_facade_import_skips_experiments():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    experiments = [m for m in out["loaded"] if m.startswith("repro.experiments.")]
    assert experiments == ["repro.experiments.runner"]
    # A sweep answered from the run cache never draws a random number.
    assert out["numpy_random"] is False
    assert out["fig"] == "repro.experiments.fig06_smt4v1_at4"
    assert out["table1"] == "repro.experiments.table1"



#: Where the program is entered: the CLI, the facade, the service, the
#: fleet, the conformance checks, the experiments registry, and the
#: benchmark and maintenance scripts outside the package.
ENTRY_MODULES = ("repro.__main__", "repro.cli", "repro.api")
ENTRY_PACKAGES = ("repro.serve", "repro.fleet", "repro.check",
                  "repro.experiments")
ENTRY_DIRS = ("benchmarks", "scripts", "bench")


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imports(path: Path, name: str, modules) -> set:
    """Modules of ``modules`` that ``path`` imports, at any depth.

    A module-level ``__getattr__`` is a lazy re-export, not a use, so
    imports inside it are skipped.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    skip = {id(node) for top in tree.body
            if isinstance(top, ast.FunctionDef) and top.name == "__getattr__"
            for node in ast.walk(top)}
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    # Importing ``a.b.c`` runs ``a`` and ``a.b`` first.
    closed = set()
    for mod in found:
        parts = mod.split(".")
        closed.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return closed & modules


def test_every_module_is_reached_from_an_entry_point():
    files = {_module_name(p): p for p in (SRC / "repro").rglob("*.py")}
    modules = set(files)
    roots = set(ENTRY_MODULES)
    roots.update(m for m in modules for pkg in ENTRY_PACKAGES
                 if m == pkg or m.startswith(pkg + "."))
    for entry_dir in ENTRY_DIRS:
        for path in (ROOT / entry_dir).rglob("*.py"):
            if "tests" not in path.relative_to(ROOT).parts:
                roots |= _imports(path, "", modules)
    reached, todo = set(), sorted(roots & modules)
    while todo:
        mod = todo.pop()
        if mod not in reached:
            reached.add(mod)
            todo.extend(_imports(files[mod], mod, modules) - reached)
    unreached = sorted(modules - reached)
    assert not unreached, f"only tests import {unreached}"
