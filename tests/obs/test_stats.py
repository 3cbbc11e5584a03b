"""JSONL round-trip and the aggregation behind ``repro stats``."""

import json

import pytest

from repro.obs import (
    JsonlSink,
    Tracer,
    read_events,
    render_summary,
    summarize_events,
    summarize_file,
    summarize_tracer,
)
from repro.obs.sink import latest_telemetry_file
from repro.util.memo import Memo

pytestmark = pytest.mark.usefixtures("no_memos")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


def traced_session(path):
    """Record a small two-sweep session to ``path``; returns the tracer."""
    clock = FakeClock()
    tracer = Tracer(enabled=True, sink=JsonlSink(path), clock=clock)
    for workload, duration in [("EP", 0.010), ("SSCA2", 0.030)]:
        with tracer.span("runner.run_catalog", runs=2):
            with tracer.span("run", workload=workload, level=4):
                clock.tick(duration)
    tracer.add("runcache.hits", 3)
    tracer.add("runcache.misses", 1)
    tracer.gauge("batch.width", 4)
    tracer.close()
    return tracer


class TestJsonlRoundTrip:
    def test_events_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        traced_session(path)
        events = read_events(path)
        kinds = [e["type"] for e in events]
        assert kinds[0] == "meta"
        assert kinds.count("span") == 4
        assert kinds.count("counter") == 2
        assert kinds.count("gauge") == 1
        run_spans = [e for e in events if e["type"] == "span" and e["name"] == "run"]
        assert {s["attrs"]["workload"] for s in run_spans} == {"EP", "SSCA2"}
        assert all(s["path"] == "runner.run_catalog/run" for s in run_spans)

    def test_corrupt_and_foreign_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            "\n".join(
                [
                    json.dumps({"type": "counter", "name": "x", "value": 1.0}),
                    "{not json",
                    json.dumps(["a", "list"]),
                    json.dumps({"no_type": True}),
                    "",
                    json.dumps({"type": "gauge", "name": "g", "value": 2.0}),
                ]
            )
        )
        events = read_events(path)
        assert [e["type"] for e in events] == ["counter", "gauge"]

    def test_sink_truncates_per_session(self, tmp_path):
        path = tmp_path / "t.jsonl"
        traced_session(path)
        traced_session(path)
        events = read_events(path)
        # One session's worth, not two appended.
        assert sum(e["type"] == "meta" for e in events) == 1
        assert sum(e["type"] == "span" for e in events) == 4

    def test_sink_failure_is_silent(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("")  # a *file* where the sink wants a directory
        tracer = Tracer(enabled=True, sink=JsonlSink(target / "t.jsonl"))
        with tracer.span("s"):
            pass
        tracer.close()  # no exception

    def test_latest_telemetry_file(self, tmp_path):
        assert latest_telemetry_file(tmp_path / "absent") is None
        old = tmp_path / "a.jsonl"
        new = tmp_path / "b.jsonl"
        old.write_text("")
        new.write_text("")
        import os

        os.utime(old, (1, 1))
        os.utime(new, (2, 2))
        assert latest_telemetry_file(tmp_path) == new


class TestSummaries:
    def test_summarize_file_aggregates_spans(self, tmp_path):
        path = tmp_path / "t.jsonl"
        traced_session(path)
        summary = summarize_file(path)
        run = summary.span_stats["runner.run_catalog/run"]
        assert run.count == 2
        assert run.total_s == pytest.approx(0.040)
        assert run.max_s == pytest.approx(0.030)
        assert run.mean_s == pytest.approx(0.020)
        assert run.depth == 1
        assert summary.counters["runcache.hits"] == 3.0
        assert summary.gauges["batch.width"] == 4.0

    def test_cache_hit_rate(self, tmp_path):
        path = tmp_path / "t.jsonl"
        traced_session(path)
        assert summarize_file(path).cache_hit_rate() == pytest.approx(0.75)
        assert summarize_events([]).cache_hit_rate() is None

    def test_slowest_runs_sorted(self, tmp_path):
        path = tmp_path / "t.jsonl"
        traced_session(path)
        slowest = summarize_file(path).slowest_runs()
        assert [s["attrs"]["workload"] for s in slowest] == ["SSCA2", "EP"]

    def test_summarize_tracer_matches_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = traced_session(path)
        live = summarize_tracer(tracer)
        from_file = summarize_file(path)
        assert live.counters == from_file.counters
        assert {p: s.count for p, s in live.span_stats.items()} == {
            p: s.count for p, s in from_file.span_stats.items()
        }

    def test_render_summary_sections(self, tmp_path):
        path = tmp_path / "t.jsonl"
        traced_session(path)
        text = render_summary(summarize_file(path))
        assert "span tree" in text
        assert "  run" in text  # indented child under the sweep span
        assert "runcache.hits" in text
        assert "3 hits / 1 misses (75.0% hit rate)" in text
        assert "SSCA2@SMT4" in text

    def test_memos_render_as_one_table(self, tmp_path):
        path = tmp_path / "t.jsonl"
        memo = Memo("probe", 2)
        for key in "abc":
            memo.put(key, 1)
        traced_session(path)
        summary = summarize_file(path)
        assert summary.memo_stats() == {"probe": {"size": 2.0, "cap": 2.0, "evictions": 1.0}}
        text = render_summary(summary)
        assert "memos" in text and "memo.probe" not in text
        (row,) = [line.split() for line in text.splitlines() if line.startswith("probe")]
        assert row == ["probe", "2", "2", "1"]
        assert "batch.width" in text   # other gauges keep their own table

    def test_render_empty(self):
        assert render_summary(summarize_events([])) == "no telemetry events"
