"""The ScenarioTable's kernel shortcuts and whole-table finalization.

A bisection phase computes its spin-blend terms once and probes with
``util_only`` solves; finalization accounts every selected run in one
vector pass.  These tests pin each shortcut to the computation it
replaces, bit for bit, and the finalization of run subsets (the
surrogate finalizes its hits and misses separately) to the full table.
"""

import dataclasses

import numpy as np
import pytest

from repro.arch import nehalem, power7
from repro.sim.engine import RunSpec
from repro.sim.table import _SPIN_VEC, ScenarioTable, _BRANCH
from repro.simos import SystemSpec
from repro.simos.timebase import TimeAccounting, account_run, account_runs
from repro.workloads import all_workloads

P7 = power7()
NHM = nehalem()

NAMES = ("EP", "SSCA2", "Fluidanimate", "SPECjbb_contention", "IS")


def _specs(arch=P7, levels=(1, 2, 4), **kwargs):
    workloads = all_workloads()
    return [
        RunSpec(system=SystemSpec(arch, 1), smt_level=level,
                stream=workloads[name].stream, sync=workloads[name].sync,
                seed=11, **kwargs)
        for name in NAMES for level in levels
    ]


@pytest.fixture(scope="module")
def table():
    return ScenarioTable(_specs())


def _random_inputs(view, seed):
    rng = np.random.default_rng(seed)
    mult = rng.uniform(1.0, 20.0, len(view))
    w = rng.uniform(0.0, 0.95, len(view)) * (rng.random(len(view)) < 0.7)
    return mult, w


class TestKernel:
    @pytest.mark.parametrize("seed", range(5))
    def test_util_only_solve_matches_full_solve(self, table, seed):
        view = table.view()
        mult, w = _random_inputs(view, seed)
        full = view.solve(mult, w)
        quick = view.solve(mult, w, util_only=True)
        assert np.array_equal(quick.util, full.util)
        assert np.array_equal(quick.x, full.x)
        assert np.array_equal(quick.run_traffic, full.run_traffic)
        assert quick.held is None

    @pytest.mark.parametrize("seed", range(5))
    def test_phase_blend_terms_equal_per_solve_computation(self, table, seed):
        view = table.view()
        mult, w = _random_inputs(view, seed)
        # The blend exactly as a solve used to compute it inline.
        w_r = w[view.local_run]
        bm = (1.0 - w_r)[:, None] * view.base_mix + w_r[:, None] * _SPIN_VEC[None, :]
        bm = np.clip(bm, 0.0, None)
        bm = bm / bm.sum(axis=1, keepdims=True)
        stall_base = view.mem_base + bm[:, _BRANCH] * view.br_rate * table.branch_penalty
        port_vec = (bm @ table.routing_t).T

        got_stall, got_ports = view.blend(w)
        assert np.array_equal(got_stall, stall_base)
        assert np.array_equal(got_ports, port_vec)

        by_w = view.solve(mult, w)
        by_terms = view.solve(mult, terms=(got_stall, got_ports))
        for field in ("x", "held", "run_traffic", "util"):
            assert np.array_equal(getattr(by_w, field), getattr(by_terms, field)), field


def _fields(result):
    return {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}


class TestFinalize:
    @pytest.mark.parametrize("noise", [0.01, 0.0])
    def test_subset_matches_full_table(self, noise):
        table = ScenarioTable(_specs(arch=NHM, levels=(1, 2), noise_rel=noise))
        state = table.drive()
        full = table.finalize(state)
        subset = [5, 1, 3]
        for j, got in zip(subset, table.finalize(state, np.array(subset))):
            assert _fields(got) == _fields(full[j])

    def test_empty_selection_returns_empty(self, table):
        state = table.drive()
        assert table.finalize(state, np.array([], dtype=int)) == []
        assert table.finalize(state, []) == []
        assert table.run([]) == []

    @pytest.mark.parametrize("bad_rate", [0.0, -3.0, float("nan")])
    def test_non_positive_parallel_rate_raises_scalar_message(self, table, bad_rate):
        state = table.drive()
        j = 4
        state.useful_rate[j] = bad_rate
        spec = table.specs[j]
        n = table.ns[j]
        with pytest.raises(ValueError) as scalar:
            account_run(
                useful_instructions=spec.useful_instructions * spec.sync.work_inflation(n),
                parallel_useful_rate=float(bad_rate),
                serial_rate=1e9,
                sync=spec.sync,
                n_threads=n,
            )
        with pytest.raises(ValueError) as columnar:
            table.finalize(state)
        assert str(columnar.value) == str(scalar.value)

    def test_time_bounds_raise_time_accounting_message(self):
        ones = np.ones(2)
        # A runnable fraction above 1 puts more CPU time on the threads
        # than wall time allows for the second run.
        with pytest.raises(ValueError) as columnar:
            account_runs(ones, ones, ones, np.zeros(2), np.array([1.0, 2.0]),
                         np.array([1.0, 4.0]))
        with pytest.raises(ValueError) as scalar:
            TimeAccounting(1.0, 0.0, 1.0, 8.0, 4)
        assert str(columnar.value) == str(scalar.value)

    def test_account_runs_matches_account_run(self):
        specs = _specs()
        rates = np.linspace(1e9, 9e9, len(specs))
        ns = np.array([spec.resolved_threads() for spec in specs], dtype=float)
        work = np.array([s.useful_instructions * s.sync.work_inflation(int(n))
                         for s, n in zip(specs, ns)])
        wall, serial, par, cpu = account_runs(
            work, rates, rates / 3.0,
            np.array([s.sync.serial_fraction for s in specs]),
            np.array([s.sync.runnable_fraction(int(n)) for s, n in zip(specs, ns)]),
            ns,
        )
        for k, spec in enumerate(specs):
            times = account_run(float(work[k]), float(rates[k]), float(rates[k] / 3.0),
                                spec.sync, int(ns[k]))
            assert (times.wall_time_s, times.serial_time_s, times.parallel_time_s,
                    times.total_cpu_s) == (wall[k], serial[k], par[k], cpu[k])
