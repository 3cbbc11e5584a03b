"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.obs import configure, read_events


class TestListAndShow:
    def test_list_workloads(self, capsys):
        assert main(["list-workloads"]) == 0
        out = capsys.readouterr().out
        assert "EP" in out and "Blackscholes" in out

    def test_list_workloads_suite_filter(self, capsys):
        assert main(["list-workloads", "--suite", "parsec"]) == 0
        out = capsys.readouterr().out
        assert "Dedup" in out
        assert "Swim" not in out

    def test_show_workload(self, capsys):
        assert main(["show-workload", "SSCA2"]) == 0
        out = capsys.readouterr().out
        assert "Lock heavy" in out
        assert "MPKI" in out

    def test_show_unknown_raises(self):
        with pytest.raises(KeyError):
            main(["show-workload", "doom"])


class TestRun:
    def test_run_all_levels(self, capsys):
        assert main(["run", "EP", "--system", "p7"]) == 0
        out = capsys.readouterr().out
        assert "SMT1" in out and "SMT4" in out
        assert "SMTsm@SMT4 factors" in out

    def test_run_single_level(self, capsys):
        assert main(["run", "EP", "--system", "nehalem", "--smt", "2"]) == 0
        out = capsys.readouterr().out
        assert "SMT2" in out and "SMT1" not in out.split("factors")[0]

    def test_unknown_system(self):
        with pytest.raises(SystemExit):
            main(["run", "EP", "--system", "sparc"])


# The traces must show a solve: a layout run twice before (by any
# earlier test) would answer from its kept fixed point instead.
@pytest.mark.usefixtures("cold_memo")
class TestTelemetry:
    @pytest.fixture(autouse=True)
    def _restore_global_tracer(self):
        # ``run --telemetry`` mutates the process-wide tracer; put it
        # back so later tests see the default disabled state.
        yield
        tracer = configure(enabled=False)
        tracer.reset()

    def test_run_with_telemetry_writes_trace(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        assert main(["run", "EP", "--smt", "4", "--no-cache",
                     "--telemetry", str(trace)]) == 0
        out = capsys.readouterr().out
        assert f"telemetry written to {trace}" in out
        events = read_events(trace)
        assert events[0]["type"] == "meta"
        spans = [e for e in events if e["type"] == "span"]
        names = {e["name"] for e in spans}
        assert "cli.run" in names and "table.simulate_many" in names
        (top,) = [e for e in spans if e["name"] == "cli.run"]
        assert top["attrs"]["workload"] == "EP"
        assert top["attrs"]["cache_misses"] == 1
        counters = {e["name"] for e in events if e["type"] == "counter"}
        assert "table.solves" in counters

    def test_stats_summarizes_trace(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        main(["run", "EP", "--smt", "4", "--no-cache",
              "--telemetry", str(trace)])
        capsys.readouterr()
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "span tree" in out
        assert "cli.run" in out
        assert "table.solves" in out

    def test_stats_picks_latest_from_directory(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        main(["run", "EP", "--smt", "4", "--no-cache",
              "--telemetry", str(trace)])
        capsys.readouterr()
        assert main(["stats", str(tmp_path)]) == 0
        assert f"telemetry: {trace}" in capsys.readouterr().out

    def test_stats_without_trace_exits_clean(self, capsys, tmp_path):
        # No telemetry recorded yet is a normal state: exit 0, clear message.
        assert main(["stats", str(tmp_path / "empty")]) == 0
        assert "no telemetry" in capsys.readouterr().out

    def test_stats_missing_default_dir_exits_clean(self, capsys, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path / "absent"))
        assert main(["stats"]) == 0
        assert "no telemetry" in capsys.readouterr().out

    def test_stats_empty_file_exits_clean(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text("")
        assert main(["stats", str(trace)]) == 0
        assert "no telemetry events" in capsys.readouterr().out

    def test_stats_truncated_records_exit_clean(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text(
            '{"type": "meta", "schema": 1}\n'
            '{"type": "counter", "name": "runner.runs", "value": 3}\n'
            '{"type": "counter", "name": "no.value"}\n'       # field lost
            '{"type": "gauge", "name": "g", "value": "junk"}\n'
            '{"type": "span", "name": "run", "path": "run", "duration_s": nul'
        )
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "runner.runs" in out
        assert "no.value" not in out


class TestExperiment:
    def test_list(self, capsys):
        assert main(["experiment", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig06" in out and "table1" in out and "batch" in out

    def test_unknown_returns_error(self, capsys):
        assert main(["experiment", "fig99"]) == 1

    def test_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_fig01(self, capsys):
        assert main(["experiment", "fig01"]) == 0
        out = capsys.readouterr().out
        assert "Equake" in out

    def test_priorities(self, capsys):
        assert main(["experiment", "priorities"]) == 0
        assert "priority" in capsys.readouterr().out
