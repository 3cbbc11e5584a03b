"""The paired comparison rule for two sets of benchmark reports.

Reports are given in run order, parent and change alternating, and
paired by position.  A change *improves* a metric when it wins at least
nine tenths of at least :data:`MIN_PAIRS` pairs (ties count for
neither) and the medians differ by more than the parent's own
interquartile spread.  It *regresses* when its median is worse than the
parent's by more than the metric's bound.  Where the parent's spread is
wider than the bound the metric is *unresolved*, unless every change run
reads better than every parent run.

Bounds come from ``BENCHMARK.json`` alone, so a verdict is given exactly
for its end-to-end metrics; the report's other end-to-end metrics are
printed with their medians and ``report-only``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from bench import metrics

MIN_PAIRS = 10
WIN_SHARE = 0.9


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str, bound: float) -> Tuple[str, int, int]:
    """``(verdict, wins, pairs)`` for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p1, p_med, p3 = _quartiles(parent)
    c_med = statistics.median(change)
    gain = sign * (c_med - p_med)
    scale = abs(p_med)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and gain > p3 - p1):
        return "improved", wins, len(pairs)
    if -gain > bound * scale:
        return "regressed", wins, len(pairs)
    if better == "higher":
        every_run_better = min(change) > max(parent)
    else:
        every_run_better = max(change) < min(parent)
    if p3 - p1 > bound * scale and not every_run_better:
        return "unresolved", wins, len(pairs)
    return "within-bound", wins, len(pairs)


def _values(reports: List[dict], workload: str,
            read: Callable[[Dict[str, Any]], float]) -> List[float]:
    out = []
    for report in reports:
        try:
            out.append(read(report["workloads"][workload]))
        except KeyError:
            continue
    return out


def compare(parent_files: Sequence[str], change_files: Sequence[str],
            contract: Dict[str, Any]) -> int:
    """Print one row per (metric, workload); exit code 1 when a metric
    of ``contract`` (``BENCHMARK.json``) regressed."""
    parents = [json.loads(Path(p).read_text()) for p in parent_files]
    changes = [json.loads(Path(p).read_text()) for p in change_files]
    if len(parents) < MIN_PAIRS or len(changes) < MIN_PAIRS:
        print(f"note: {min(len(parents), len(changes))} pairs; a gain needs "
              f"at least {MIN_PAIRS}")
    rows: List[Tuple[str, str, str, Callable, Optional[float]]] = []
    for entry in contract["end_to_end"]:
        name = entry["name"]
        rows.append((name, entry["unit"], entry["better"],
                     lambda wl, name=name: metrics.contract_value(name, wl),
                     entry["bound"]))
    gated = {row[0] for row in rows}
    for name, (unit, better) in metrics.E2E.items():
        if name not in gated:
            rows.append((name, unit, better,
                         lambda wl, name=name: wl["end_to_end"][name]["value"], None))
    print("workload      metric         unit      parent median [q1, q3]"
          "          change median [q1, q3]          wins    verdict")
    regressed = False
    for workload in metrics.WORKLOADS:
        for name, unit, better, read, bound in rows:
            p = _values(parents, workload, read)
            c = _values(changes, workload, read)
            if not p or not c:
                continue
            result, wins, n = verdict(p, c, better, 0.0 if bound is None else bound)
            if bound is None:
                result = "report-only"
            regressed |= result == "regressed"
            pq, cq = _quartiles(p), _quartiles(c)
            parent_col = f"{pq[1]:.4g} [{pq[0]:.4g}, {pq[2]:.4g}]"
            change_col = f"{cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}]"
            print(f"{workload:<13} {name:<14} {unit:<9} {parent_col:<31} "
                  f"{change_col:<31} {wins:>3}/{n:<3}  {result}")
    return 1 if regressed else 0
