"""Importing the facade loads only what sweeps, serving and the fleet use.

The experiment modules and the cycle-level core load on first access
(PEP 562), so ``import repro.api`` pays for neither; attribute access
and ``from`` imports still resolve them.  ``numpy.random`` loads on the
first seeded stream.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
import repro.api
loaded = sorted(m for m in sys.modules if m.startswith("repro."))
numpy_random = "numpy.random" in sys.modules
import repro.experiments
import repro.sim
fig = repro.experiments.fig06_smt4v1_at4.__name__
from repro.sim import CycleCore
from repro.experiments import table1
print(json.dumps({"loaded": loaded, "fig": fig, "cycle": CycleCore.__module__,
                  "table1": table1.__name__, "numpy_random": numpy_random}))
"""


def test_facade_import_skips_experiments_and_cycle_core():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    experiments = [m for m in out["loaded"] if m.startswith("repro.experiments.")]
    assert experiments == ["repro.experiments.runner"]
    assert "repro.sim.cycle_core" not in out["loaded"]
    # A sweep answered from the run cache never draws a random number.
    assert out["numpy_random"] is False
    assert out["fig"] == "repro.experiments.fig06_smt4v1_at4"
    assert out["cycle"] == "repro.sim.cycle_core"
    assert out["table1"] == "repro.experiments.table1"

