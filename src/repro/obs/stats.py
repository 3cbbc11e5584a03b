"""Summarize a telemetry stream: span tree, counter totals, cache hits.

Consumes the JSONL events a :class:`repro.obs.Tracer` emits (or a live
tracer's snapshot) and aggregates them into the report ``repro stats``
prints: a duration-annotated span tree, counter and gauge totals, the
run-cache hit rate, and the slowest individual runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.sink import read_events
from repro.util.tables import format_table


@dataclass
class SpanStats:
    """Aggregate over every occurrence of one span path."""

    path: str
    depth: int
    count: int = 0
    total_s: float = 0.0
    max_s: float = 0.0

    @property
    def name(self) -> str:
        return self.path.rsplit("/", 1)[-1]

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


@dataclass
class TelemetrySummary:
    """Everything ``repro stats`` needs, already aggregated."""

    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    span_stats: Dict[str, SpanStats] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)

    def cache_hit_rate(self) -> Optional[float]:
        """Run-cache hit fraction, or ``None`` with no cache traffic."""
        hits = self.counters.get("runcache.hits", 0.0)
        misses = self.counters.get("runcache.misses", 0.0)
        total = hits + misses
        return hits / total if total > 0 else None

    def hot_key_hit_rate(self) -> Optional[float]:
        """Serving hot-key-cache hit fraction, or ``None`` without traffic."""
        hits = self.counters.get("serve.hotkeys.hits", 0.0)
        misses = self.counters.get("serve.hotkeys.misses", 0.0)
        total = hits + misses
        return hits / total if total > 0 else None

    def worker_stats(self) -> List[Dict[str, float]]:
        """Per-worker serving totals from the ``serve.worker.wN.*`` counters.

        One row per worker index, sorted: ``{"worker", "batches",
        "requests", "mean_batch"}``.  Empty when the worker pool never
        ran (single-process serving has no per-worker counters).
        """
        per_worker: Dict[int, Dict[str, float]] = {}
        prefix = "serve.worker.w"
        for name, value in self.counters.items():
            if not name.startswith(prefix):
                continue
            rest = name[len(prefix):]
            index_s, _, field_name = rest.partition(".")
            if not index_s.isdigit() or field_name not in ("batches", "requests"):
                continue
            per_worker.setdefault(int(index_s), {})[field_name] = value
        rows = []
        for index in sorted(per_worker):
            batches = per_worker[index].get("batches", 0.0)
            requests = per_worker[index].get("requests", 0.0)
            rows.append({
                "worker": float(index),
                "batches": batches,
                "requests": requests,
                "mean_batch": requests / batches if batches else 0.0,
            })
        return rows

    def supervision_stats(self) -> Optional[Dict[str, float]]:
        """Serving supervision/degradation totals, or ``None`` when quiet.

        Collects the chaos (``serve.chaos.*``), watchdog
        (``serve.watchdog.*``) and resilient-client (``client.*``)
        counters the robustness plane emits; ``None`` when none of them
        ever fired (healthy serving run, or no serving at all).
        """
        names = {
            "chaos_slow": "serve.chaos.slow",
            "chaos_corrupt": "serve.chaos.corrupt",
            "hangs": "serve.watchdog.hangs",
            "kills": "serve.watchdog.kills",
            "quarantines": "serve.watchdog.quarantines",
            "deadline_abandoned": "serve.worker.deadline_abandoned",
            "corrupt_responses": "serve.worker.corrupt_responses",
            "close_leaks": "serve.worker.close_leaks",
            "client_retries": "client.retries",
            "client_reconnects": "client.reconnects",
            "client_breaker_opens": "client.breaker_opens",
            "client_giveups": "client.giveups",
        }
        stats = {
            key: self.counters.get(counter, 0.0)
            for key, counter in names.items()
        }
        if not any(stats.values()):
            return None
        return stats

    def fleet_stats(self) -> Optional[Dict[str, float]]:
        """Fleet-simulation totals (``fleet.*``), or ``None`` when the
        fleet simulator never ran."""
        names = {
            "submitted": "fleet.jobs_submitted",
            "completed": "fleet.jobs_completed",
            "rejected": "fleet.jobs_rejected",
            "crash_lost": "fleet.jobs_crash_lost",
            "smt_switches": "fleet.smt_switches",
            "node_crashes": "fleet.node_crashes",
            "node_hangs": "fleet.node_hangs",
        }
        stats = {
            key: self.counters.get(counter, 0.0)
            for key, counter in names.items()
        }
        if not any(stats.values()):
            return None
        return stats

    def slowest_runs(self, top: int = 10) -> List[Dict[str, Any]]:
        """The longest per-run spans (``runner.run`` / ``engine.simulate_run``)."""
        runs = [
            s
            for s in self.spans
            if s.get("name") in ("run", "simulate_run")
            or s.get("attrs", {}).get("workload") is not None
        ]
        runs.sort(key=lambda s: s.get("duration_s", 0.0), reverse=True)
        return runs[:top]


def summarize_events(events: Iterable[Dict[str, Any]]) -> TelemetrySummary:
    """Aggregate raw telemetry events.

    Counter and gauge events carry aggregated totals already (the tracer
    flushes its registry); repeated flushes of the same name keep the
    latest value rather than double-counting.
    """
    summary = TelemetrySummary()
    for event in events:
        kind = event.get("type")
        if kind == "span":
            path = str(event.get("path", event.get("name", "?")))
            stats = summary.span_stats.get(path)
            if stats is None:
                try:
                    depth = int(event.get("depth", path.count("/")))
                except (TypeError, ValueError):
                    depth = path.count("/")
                stats = summary.span_stats[path] = SpanStats(path=path, depth=depth)
            try:
                duration = float(event.get("duration_s", 0.0))
            except (TypeError, ValueError):
                duration = 0.0
            stats.count += 1
            stats.total_s += duration
            stats.max_s = max(stats.max_s, duration)
            summary.spans.append(event)
        elif kind in ("counter", "gauge"):
            # A crashed/killed writer can truncate a record mid-line and
            # leave valid JSON missing fields; drop it rather than raise.
            name = event.get("name")
            value = event.get("value")
            if name is None or value is None:
                continue
            try:
                value = float(value)
            except (TypeError, ValueError):
                continue
            target = summary.counters if kind == "counter" else summary.gauges
            target[str(name)] = value
    return summary


def summarize_file(path: os.PathLike) -> TelemetrySummary:
    return summarize_events(read_events(path))


def summarize_tracer(tracer) -> TelemetrySummary:
    """Summarize a live tracer's registry without going through a file."""
    snapshot = tracer.snapshot()
    events: List[Dict[str, Any]] = list(snapshot["spans"])
    events += [
        {"type": "counter", "name": k, "value": v}
        for k, v in snapshot["counters"].items()
    ]
    events += [
        {"type": "gauge", "name": k, "value": v}
        for k, v in snapshot["gauges"].items()
    ]
    return summarize_events(events)


def _span_order(summary: TelemetrySummary) -> List[SpanStats]:
    """Tree order: parents before children, by first appearance."""
    first_seen: Dict[str, int] = {}
    for i, event in enumerate(summary.spans):
        path = str(event.get("path", ""))
        if path not in first_seen:
            first_seen[path] = i

    def sort_key(stats: SpanStats) -> Tuple:
        # Sorting by the ancestor chain's first-seen indices keeps every
        # subtree contiguous even when siblings interleave in time.
        parts = stats.path.split("/")
        prefixes = ["/".join(parts[: i + 1]) for i in range(len(parts))]
        return tuple(first_seen.get(p, len(summary.spans)) for p in prefixes)

    return sorted(summary.span_stats.values(), key=sort_key)


def render_summary(summary: TelemetrySummary, top: int = 10) -> str:
    """The ``repro stats`` report as text."""
    sections: List[str] = []

    if summary.span_stats:
        rows = []
        for stats in _span_order(summary):
            rows.append(
                [
                    "  " * stats.depth + stats.name,
                    stats.count,
                    f"{stats.total_s * 1e3:.1f}",
                    f"{stats.mean_s * 1e3:.2f}",
                    f"{stats.max_s * 1e3:.2f}",
                ]
            )
        sections.append(
            format_table(
                ["span", "count", "total (ms)", "mean (ms)", "max (ms)"],
                rows,
                title="span tree",
            )
        )

    if summary.counters:
        rows = [
            [name, f"{value:g}"] for name, value in sorted(summary.counters.items())
        ]
        sections.append(format_table(["counter", "total"], rows, title="counters"))

    if summary.gauges:
        rows = [[name, f"{value:g}"] for name, value in sorted(summary.gauges.items())]
        sections.append(format_table(["gauge", "value"], rows, title="gauges"))

    workers = summary.worker_stats()
    if workers:
        rows = [
            [
                f"w{int(row['worker'])}",
                f"{row['batches']:g}",
                f"{row['requests']:g}",
                f"{row['mean_batch']:.1f}",
            ]
            for row in workers
        ]
        shed = summary.counters.get("serve.worker.shed", 0.0)
        restarts = summary.counters.get("serve.worker.restarts", 0.0)
        spills = summary.counters.get("serve.worker.spills", 0.0)
        sections.append(
            format_table(
                ["worker", "batches", "requests", "mean batch"],
                rows,
                title="serving workers",
            )
            + f"\nshed={shed:g} restarts={restarts:g} spills={spills:g}"
        )

    supervision = summary.supervision_stats()
    if supervision is not None:
        rows = [
            ["chaos", f"slow={supervision['chaos_slow']:g} "
                      f"corrupt={supervision['chaos_corrupt']:g}"],
            ["watchdog", f"hangs={supervision['hangs']:g} "
                         f"kills={supervision['kills']:g} "
                         f"quarantines={supervision['quarantines']:g}"],
            ["workers", "deadline_abandoned="
                        f"{supervision['deadline_abandoned']:g} "
                        f"corrupt_responses={supervision['corrupt_responses']:g} "
                        f"close_leaks={supervision['close_leaks']:g}"],
            ["client", f"retries={supervision['client_retries']:g} "
                       f"reconnects={supervision['client_reconnects']:g} "
                       f"breaker_opens={supervision['client_breaker_opens']:g} "
                       f"giveups={supervision['client_giveups']:g}"],
        ]
        sections.append(
            format_table(["plane", "totals"], rows, title="serving supervision")
        )

    fleet = summary.fleet_stats()
    if fleet is not None:
        rows = [
            ["jobs", f"submitted={fleet['submitted']:g} "
                     f"completed={fleet['completed']:g} "
                     f"rejected={fleet['rejected']:g} "
                     f"crash_lost={fleet['crash_lost']:g}"],
            ["smt", f"switches={fleet['smt_switches']:g}"],
            ["nodes", f"crashes={fleet['node_crashes']:g} "
                      f"hangs={fleet['node_hangs']:g}"],
        ]
        sections.append(
            format_table(["plane", "totals"], rows, title="fleet simulation")
        )

    hot_rate = summary.hot_key_hit_rate()
    if hot_rate is not None:
        hits = summary.counters.get("serve.hotkeys.hits", 0.0)
        misses = summary.counters.get("serve.hotkeys.misses", 0.0)
        sections.append(
            f"hot-key cache: {hits:g} hits / {misses:g} misses "
            f"({100.0 * hot_rate:.1f}% hit rate)"
        )

    hit_rate = summary.cache_hit_rate()
    if hit_rate is not None:
        hits = summary.counters.get("runcache.hits", 0.0)
        misses = summary.counters.get("runcache.misses", 0.0)
        sections.append(
            f"run cache: {hits:g} hits / {misses:g} misses "
            f"({100.0 * hit_rate:.1f}% hit rate)"
        )

    slowest = summary.slowest_runs(top)
    if slowest:
        rows = []
        for span in slowest:
            attrs = span.get("attrs", {})
            label = attrs.get("workload", span.get("name", "?"))
            level = attrs.get("level")
            if level is not None:
                label = f"{label}@SMT{level}"
            rows.append([label, f"{float(span.get('duration_s', 0.0)) * 1e3:.2f}"])
        sections.append(
            format_table(["run", "wall (ms)"], rows, title=f"slowest runs (top {top})")
        )

    if not sections:
        return "no telemetry events"
    return "\n\n".join(sections)
