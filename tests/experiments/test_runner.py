"""Tests for the shared experiment runner."""

import warnings
from pathlib import Path

import pytest

import repro.experiments.runner as runner_mod
import repro.sim.table as table_mod
from repro.check.differential import REL_TOL, compare_runs
from repro.experiments.runner import (
    run_catalog,
    scatter_from_runs,
)
from repro.experiments.systems import p7_system
from repro.workloads.catalog import all_workloads


@pytest.fixture(scope="module")
def small_runs():
    specs = all_workloads()
    subset = {n: specs[n] for n in ("EP", "Equake", "SPECjbb_contention")}
    return run_catalog(p7_system(), subset, (1, 2, 4), seed=5)


class TestRunCatalog:
    def test_levels_and_names(self, small_runs):
        assert small_runs.levels() == (1, 2, 4)
        assert set(small_runs.names()) == {"EP", "Equake", "SPECjbb_contention"}

    def test_thread_counts_follow_protocol(self, small_runs):
        # §IV: software threads == hardware contexts at each level.
        for by_level in small_runs.runs.values():
            assert by_level[1].n_threads == 8
            assert by_level[2].n_threads == 16
            assert by_level[4].n_threads == 32

    def test_rejects_unsupported_level(self):
        with pytest.raises(ValueError):
            run_catalog(p7_system(), {"EP": all_workloads()["EP"]}, (1, 3))

    def test_run_catalog_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_catalog("p7", {"EP": all_workloads()["EP"]}, (1,), seed=11)

    def test_repo_has_no_callers_of_removed_names(self):
        """``run_catalog`` replaced ``run_catalog_batched`` and the
        ``p7_runs``/``nehalem_runs`` helpers, which are gone."""
        repo = Path(__file__).resolve().parents[2]
        offenders = [
            f"{path.relative_to(repo)}:{i}"
            for root in ("src", "scripts", "examples", "benchmarks")
            for path in (repo / root).rglob("*.py")
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if any(name in line for name in
                   ("run_catalog_batched", "p7_runs(", "nehalem_runs("))
        ]
        assert not offenders, f"removed runner names still used: {offenders}"


class TestScatterFromRuns:
    def test_points_complete(self, small_runs):
        result = scatter_from_runs(small_runs, title="t", measure_level=4,
                                   high_level=4, low_level=1)
        assert len(result.points) == 3
        names = {p.name for p in result.points}
        assert names == set(small_runs.names())

    def test_selected_names(self, small_runs):
        result = scatter_from_runs(small_runs, title="t", measure_level=4,
                                   high_level=4, low_level=1, names=["EP"])
        assert len(result.points) == 1

    def test_unknown_name_raises(self, small_runs):
        with pytest.raises(KeyError, match="not in catalog"):
            scatter_from_runs(small_runs, title="t", measure_level=4,
                              high_level=4, low_level=1, names=["nope"])

    def test_level_ordering_enforced(self, small_runs):
        with pytest.raises(ValueError):
            scatter_from_runs(small_runs, title="t", measure_level=4,
                              high_level=1, low_level=4)

    def test_known_workloads_land_on_expected_sides(self, small_runs):
        result = scatter_from_runs(small_runs, title="t", measure_level=4,
                                   high_level=4, low_level=1)
        by_name = {p.name: p for p in result.points}
        assert by_name["EP"].speedup > 1.5
        assert by_name["EP"].metric < 0.05
        assert by_name["Equake"].speedup < 0.7
        assert by_name["Equake"].metric > 0.15
        assert by_name["SPECjbb_contention"].speedup < 0.5

    def test_render_contains_summary(self, small_runs):
        result = scatter_from_runs(small_runs, title="My Fig", measure_level=4,
                                   high_level=4, low_level=1)
        text = result.render(threshold=0.07)
        assert "My Fig" in text
        assert "success" in text

    def test_success_with_fixed_threshold(self, small_runs):
        result = scatter_from_runs(small_runs, title="t", measure_level=4,
                                   high_level=4, low_level=1)
        summary = result.success(threshold=0.07)
        assert summary.n_total == 3
        assert summary.success_rate == 1.0


@pytest.fixture
def broken_equake(monkeypatch):
    """Force the batch path down the salvage loop and fail one workload."""
    real_simulate_run = runner_mod.simulate_run
    specs = all_workloads()
    subset = {n: specs[n] for n in ("EP", "Equake", "SPECjbb_contention")}

    def batch_dies(run_specs):
        raise RuntimeError("injected batch failure")

    def run_or_die(spec):
        if spec.stream is subset["Equake"].stream:
            raise RuntimeError("injected per-run failure")
        return real_simulate_run(spec)

    monkeypatch.setattr(runner_mod, "simulate_many", batch_dies)
    monkeypatch.setattr(table_mod, "simulate_many_columnar", batch_dies)
    monkeypatch.setattr(runner_mod, "simulate_run", run_or_die)
    return subset


class TestPartialFailures:
    def make_runs(self, subset):
        return run_catalog(p7_system(), subset, (1, 4), seed=5,
                           use_cache=False)

    def test_failed_runs_reported_not_raised(self, broken_equake):
        runs = self.make_runs(broken_equake)
        assert set(runs.failures) == {"Equake@SMT1", "Equake@SMT4"}
        assert all("injected per-run failure" in msg
                   for msg in runs.failures.values())
        # The healthy workloads completed normally.
        assert set(runs.complete_names((1, 4))) == {"EP", "SPECjbb_contention"}

    def test_scatter_skips_incomplete_workloads(self, broken_equake):
        runs = self.make_runs(broken_equake)
        result = scatter_from_runs(runs, title="t", measure_level=4,
                                   high_level=4, low_level=1)
        assert {p.name for p in result.points} == {"EP", "SPECjbb_contention"}
        assert result.skipped == ("Equake",)
        assert "Equake" in result.render()

    def test_explicit_failed_name_is_skipped_not_keyerror(self, broken_equake):
        runs = self.make_runs(broken_equake)
        result = scatter_from_runs(runs, title="t", measure_level=4,
                                   high_level=4, low_level=1,
                                   names=["EP", "Equake"])
        assert {p.name for p in result.points} == {"EP"}
        assert result.skipped == ("Equake",)

    def test_unknown_name_still_raises(self, broken_equake):
        runs = self.make_runs(broken_equake)
        with pytest.raises(KeyError, match="not in catalog"):
            scatter_from_runs(runs, title="t", measure_level=4,
                              high_level=4, low_level=1, names=["nope"])

    def test_all_failed_raises_with_skip_list(self, broken_equake):
        runs = self.make_runs(broken_equake)
        with pytest.raises(ValueError, match="no complete workloads"):
            scatter_from_runs(runs, title="t", measure_level=4,
                              high_level=4, low_level=1, names=["Equake"])

    def test_batch_salvage_is_counted(self, monkeypatch):
        from repro.obs import configure

        specs = all_workloads()
        subset = {n: specs[n] for n in ("EP", "Equake", "SPECjbb_contention")}
        expected = run_catalog(p7_system(), subset, (1, 4), seed=5,
                               use_cache=False)

        def batch_dies(run_specs):
            raise RuntimeError("injected batch failure")

        monkeypatch.setattr(table_mod, "simulate_many_columnar", batch_dies)
        tracer = configure(enabled=True)
        tracer.reset()
        try:
            runs = run_catalog(p7_system(), subset, (1, 4), seed=5,
                               use_cache=False)
            counters = tracer.counters()
        finally:
            configure(enabled=False)
            tracer.reset()
        assert counters.get("runner.batch_salvaged") == 1
        assert "runner.failed_runs" not in counters
        assert not runs.failures
        for name, by_level in expected.runs.items():
            for level, result in by_level.items():
                assert not compare_runs(result, runs.runs[name][level], REL_TOL)

    def test_failure_counter_increments(self, broken_equake):
        from repro.obs import configure

        tracer = configure(enabled=True)
        tracer.reset()
        try:
            self.make_runs(broken_equake)
            assert tracer.counters().get("runner.failed_runs") == 2
        finally:
            configure(enabled=False)
            tracer.reset()
