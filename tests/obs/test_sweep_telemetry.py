"""Integration: a columnar catalog sweep emits consistent telemetry.

Runs a small POWER7 sweep twice against a run cache in a temporary
directory with the global tracer enabled: the cold pass must record one
``runcache.misses`` per run (and the table-engine counters that prove
work happened), the warm pass one ``runcache.hits`` per run and nothing
else.
"""

import pytest

from repro.experiments.runner import run_catalog
from repro.experiments.systems import p7_system
from repro.obs import configure, get_tracer
from repro.sim.runcache import RunCache
from repro.workloads.catalog import all_workloads

LEVELS = (1, 4)
NAMES = ("EP", "SSCA2")


@pytest.fixture
def tracer():
    tracer = configure(enabled=True)
    tracer.reset()
    yield tracer
    configure(enabled=False)
    tracer.reset()


@pytest.fixture
def sweep(tmp_path, cold_memo):
    system = p7_system()
    specs = all_workloads()
    catalog = {name: specs[name] for name in NAMES}
    cache = RunCache(tmp_path / "runcache")

    def run():
        cold_memo()
        return run_catalog(system, catalog, LEVELS, cache=cache)

    return run


N_RUNS = len(NAMES) * len(LEVELS)


class TestColdPass:
    def test_cold_pass_counters(self, tracer, sweep):
        sweep()
        counters = tracer.counters()
        assert counters["runcache.misses"] == N_RUNS
        assert counters["runcache.puts"] == N_RUNS
        assert "runcache.hits" not in counters
        # The table engine actually simulated: whole-table solves and
        # bandwidth bisection happened over every run of the sweep.
        assert counters["table.tables"] == 1
        assert counters["table.runs"] == N_RUNS
        assert counters["table.rows"] >= N_RUNS
        assert counters["table.solves"] > 0
        assert counters["table.bisection_steps"] > 0
        # Serial-rate warming still goes through the core batch solver.
        assert counters["core_batch.solves"] > 0
        assert counters["engine.serial_memo_misses"] == len(NAMES)

    def test_cold_pass_spans(self, tracer, sweep):
        sweep()
        by_name = {}
        for record in tracer.spans():
            by_name.setdefault(record.name, []).append(record)
        (top,) = by_name["runner.run_catalog"]
        assert top.attrs["runs"] == N_RUNS
        assert top.attrs["cache_hits"] == 0
        assert top.attrs["cache_misses"] == N_RUNS
        (simulate,) = by_name["simulate"]
        assert simulate.attrs["runs"] == N_RUNS
        assert simulate.path.startswith("runner.run_catalog/")
        assert by_name["table.simulate_many"]


class TestWarmPass:
    def test_warm_pass_is_all_hits(self, tracer, sweep):
        cold = sweep()
        tracer.reset()
        warm = sweep()
        counters = tracer.counters()
        assert counters["runcache.hits"] == N_RUNS
        assert counters.get("runcache.misses", 0) == 0
        assert counters.get("runcache.puts", 0) == 0
        # No simulation at all on the warm pass.
        assert "table.tables" not in counters
        assert "table.solves" not in counters
        assert "core_batch.solves" not in counters
        (top,) = [r for r in tracer.spans()
                  if r.name == "runner.run_catalog"]
        assert top.attrs["cache_hits"] == N_RUNS
        assert top.attrs["cache_misses"] == 0
        # And the cached results agree with the simulated ones.
        for name in NAMES:
            for level in LEVELS:
                assert warm.runs[name][level].wall_time_s == pytest.approx(
                    cold.runs[name][level].wall_time_s)

    def test_disabled_tracer_records_nothing(self, sweep):
        tracer = get_tracer()
        configure(enabled=False)
        tracer.reset()
        sweep()
        assert tracer.snapshot() == {"counters": {}, "gauges": {}, "spans": []}
