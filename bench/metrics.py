"""The benchmark's metric definitions.

End-to-end metrics are measured untraced; per-layer metrics come from
the traced pass.  ``BENCHMARK.json`` is the only source of regression
bounds: it gates the end-to-end numbers every workload reports
(``setup_s``, ``op_ms`` and ``peak_rss_mb``; see :func:`contract_value`),
and the other end-to-end metrics are reported without a verdict.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Tuple

WORKLOADS = ("sweep-cold", "sweep-warm", "serve-mixed", "fleet-smtsm")

#: Every end-to-end metric of the report: name -> (unit, better).
E2E: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "runs_per_s": ("runs/s", "higher"),
    "smtsm_success": ("fraction", "higher"),
    "p50_ms.low": ("ms", "lower"),
    "p50_ms.high": ("ms", "lower"),
    "max_rps": ("req/s", "higher"),
    "jobs_per_s": ("jobs/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "fail_frac": ("fraction", "lower"),
}

#: Layers whose self time is reported per timed operation.
SPAN_LAYERS = (
    "runcache.get", "runcache.put",
    "sim.build", "sim.kernel", "sim.bisection", "sim.spin", "sim.finalize",
    "api.sweep", "api.score",
    "serve.decode", "serve.admit", "serve.handler", "serve.encode",
    "fleet.trace", "fleet.loop", "fleet.place", "fleet.measure", "fleet.controller",
)
#: Layers that run once, during set-up; reported as seconds spent there.
SETUP_LAYERS = ("api.fit", "fleet.perfmodel")

#: Every per-layer metric: name -> (unit, better).  Workloads report 0
#: for layers they never reach.
PER_LAYER: Dict[str, Tuple[str, str]] = {}
for _name in SPAN_LAYERS:
    PER_LAYER[f"{_name}.self_s"] = ("s/op", "lower")
for _name in ("runcache.get", "runcache.put", "sim.kernel"):
    PER_LAYER[f"{_name}.calls"] = ("count/op", "lower")
PER_LAYER.update({
    "runcache.hit_ratio": ("ratio", "higher"),
    "sim.runs_per_call": ("runs", "higher"),
    "serve.dispatch.calls": ("count/op", "lower"),
    "serve.batch_size.mean": ("requests", "higher"),
    "serve.queue_wait_ms.p50": ("ms", "lower"),
    "serve.queue_wait_ms.p95": ("ms", "lower"),
    "serve.deliver_ms.p50": ("ms", "lower"),
    "serve.transport_ms.p50": ("ms", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.unaccounted_frac": ("ratio", "lower"),
})
for _name in SETUP_LAYERS:
    PER_LAYER[f"{_name}.self_s"] = ("s", "lower")


def load_contract(root: Path) -> Dict[str, Any]:
    """``BENCHMARK.json`` at the root of a checkout."""
    return json.loads((root / "BENCHMARK.json").read_text())


def contract_value(name: str, workload: Dict[str, Any]) -> float:
    """A ``BENCHMARK.json`` end-to-end metric for one workload's result.

    ``op_ms`` is the median wall time of the workload's unit of work:
    one 128-run sweep, one served request at the fixed rates, or one
    fleet simulation.
    """
    if name == "op_ms":
        return workload["counters"]["op_ms"]
    return workload["end_to_end"][name]["value"]
