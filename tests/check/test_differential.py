"""The differential pillar: fast paths vs the serial reference.

Includes the acceptance scenario: a deliberately injected divergence
in the batched solver (a perturbed ``solve_chip_batch`` under
monkeypatch) must be detected and shrunk to a minimal reproducing
scenario set, and must drive the aggregate exit code nonzero.
"""

import dataclasses

import pytest

import repro.sim.engine as engine
from repro.check.differential import (
    REL_TOL,
    compare_runs,
    ddmin,
    run_differential_checks,
)
from repro.check.report import CheckReport
from repro.sim.engine import RunSpec, simulate_run
from repro.simos import SystemSpec
from repro.arch import power7
from repro.workloads import all_workloads


def _spec(name="EP", level=2):
    workload = all_workloads()[name]
    return RunSpec(system=SystemSpec(power7(), 1), smt_level=level,
                   stream=workload.stream, sync=workload.sync, seed=11)


class TestCompareRuns:
    def test_identical_runs_have_no_diffs(self):
        result = simulate_run(_spec())
        assert compare_runs(result, result) == []

    def test_scalar_field_divergence_is_reported(self):
        a = simulate_run(_spec())
        b = dataclasses.replace(a, mem_latency_mult=a.mem_latency_mult * 1.01)
        diffs = dict(compare_runs(a, b))
        assert "mem_latency_mult" in diffs
        assert diffs["mem_latency_mult"] == pytest.approx(0.01, rel=0.05)

    def test_event_divergence_reports_worst_event(self):
        a = simulate_run(_spec())
        events = dict(a.events)
        events["CYCLES"] *= 1.001
        b = dataclasses.replace(a, events=events)
        diffs = dict(compare_runs(a, b))
        assert any(field.startswith("events.") for field in diffs)

    def test_within_tolerance_is_equivalent(self):
        a = simulate_run(_spec())
        b = dataclasses.replace(
            a, mem_latency_mult=a.mem_latency_mult * (1 + REL_TOL / 10)
        )
        assert compare_runs(a, b) == []


class TestDdmin:
    def test_shrinks_to_single_culprit(self):
        minimal = ddmin(list(range(12)), lambda subset: 5 in subset)
        assert minimal == [5]

    def test_shrinks_to_interacting_pair(self):
        minimal = ddmin(
            list(range(8)), lambda s: 3 in s and 7 in s
        )
        assert sorted(minimal) == [3, 7]

    def test_single_element_is_returned_unchanged(self):
        assert ddmin([4], lambda s: True) == [4]


class TestCleanPaths:
    def test_all_fast_paths_match_reference(self):
        report = run_differential_checks(
            workloads=("EP", "SSCA2"), levels=(1, 4),
        )
        assert report.ok, [v.render() for v in report.violations]
        assert report.pillar == "differential"
        assert report.subjects == 4
        # batched + columnar + surrogate (whole-batch gate + per run) +
        # runcache + predict, for each scenario/workload.
        assert report.checks_run == 4 + 4 + (1 + 4) + 4 + 2
        assert report.stats["surrogate_rel_tol"] == 1e-2


class TestInjectedDivergence:
    """The acceptance criterion: a perturbed batched solver is caught."""

    @pytest.fixture
    def perturbed_batched_solver(self, monkeypatch):
        real = engine.solve_chip_batch

        def perturbed(jobs):
            return [
                dataclasses.replace(
                    s, mem_latency_mult=s.mem_latency_mult * 1.001
                )
                for s in real(jobs)
            ]

        # engine.simulate_many resolves the name at module level, so
        # this perturbs only the batched path; simulate_run (the serial
        # reference) goes through solve_chip and stays exact.
        monkeypatch.setattr(engine, "solve_chip_batch", perturbed)

    def test_divergence_is_detected_and_minimized(
        self, perturbed_batched_solver
    ):
        report = run_differential_checks(
            workloads=("EP", "SSCA2"), levels=(1, 4),
        )
        assert not report.ok
        batched = [v for v in report.violations
                   if v.check == "batched_vs_serial"]
        assert batched, [v.render() for v in report.violations]
        labels = set(report.stats["scenarios"])
        for violation in batched:
            assert violation.details["rel_error"] > REL_TOL
            minimized = violation.details["minimized_scenarios"]
            assert minimized, "divergence must ship a reproducing scenario"
            assert set(minimized) <= labels
            # ddmin shrank the 4-scenario batch, it did not just echo it.
            assert len(minimized) < report.subjects

    def test_divergence_drives_exit_code_nonzero(
        self, perturbed_batched_solver
    ):
        report = run_differential_checks(
            workloads=("EP", "SSCA2"), levels=(1, 4),
        )
        aggregate = CheckReport(pillars=(report,))
        assert aggregate.exit_code == 1
        assert "FAIL" in aggregate.render()

    def test_columnar_divergence_is_detected(self, monkeypatch):
        import repro.sim.table as table

        real = table.simulate_many_columnar

        def perturbed(specs):
            return [
                dataclasses.replace(
                    r, mem_latency_mult=r.mem_latency_mult * 1.001
                )
                for r in real(specs)
            ]

        monkeypatch.setattr(table, "simulate_many_columnar", perturbed)
        report = run_differential_checks(
            workloads=("EP", "SSCA2"), levels=(1, 4),
        )
        columnar = [v for v in report.violations
                    if v.check == "columnar_vs_serial"]
        assert columnar, [v.render() for v in report.violations]
        for violation in columnar:
            assert violation.details["rel_error"] > REL_TOL
            assert violation.details["minimized_scenarios"]

    def test_surrogate_beyond_bound_is_detected(self, monkeypatch):
        import repro.sim.surrogate as surrogate

        real = surrogate.simulate_many_surrogate

        def beyond_bound(specs):
            results, _ = real(specs)
            # Claim acceptance while exceeding the 1% calibrated bound.
            return (
                [dataclasses.replace(r, mem_latency_mult=r.mem_latency_mult * 1.05)
                 for r in results],
                [True] * len(results),
            )

        monkeypatch.setattr(surrogate, "simulate_many_surrogate", beyond_bound)
        report = run_differential_checks(
            workloads=("EP", "SSCA2"), levels=(1, 4),
        )
        bad = [v for v in report.violations
               if v.check == "surrogate_vs_solver"]
        assert bad, [v.render() for v in report.violations]
        assert all(v.details["accepted"] for v in bad)

    def test_surrogate_that_never_engages_is_flagged(self, monkeypatch):
        import repro.sim.surrogate as surrogate
        import repro.sim.table as table

        def always_falls_back(specs):
            results = table.simulate_many_columnar(specs)
            return results, [False] * len(results)

        monkeypatch.setattr(
            surrogate, "simulate_many_surrogate", always_falls_back
        )
        report = run_differential_checks(
            workloads=("EP", "SSCA2"), levels=(1, 4),
        )
        gate = [v for v in report.violations
                if v.check == "surrogate_vs_solver"]
        assert len(gate) == 1
        assert gate[0].subject == "(whole batch)"
        assert report.stats["surrogate_accepted"] == 0

    def test_simulate_batch_seam_equivalent_injection(self):
        # The explicit seam gives the same detection without patching.
        def perturbed_many(specs):
            return [
                dataclasses.replace(
                    r, mem_latency_mult=r.mem_latency_mult * 1.001
                )
                for r in engine.simulate_many(specs)
            ]

        report = run_differential_checks(
            workloads=("EP",), levels=(1, 4),
            simulate_batch=perturbed_many,
        )
        assert any(v.check == "batched_vs_serial" for v in report.violations)
