"""The heterogeneous-chip simulation layer: exact per-cluster decomposition."""

import pytest

from repro.arch.hetero import get_hetero
from repro.sim.hetero import (
    HeteroRunSpec,
    simulate_hetero,
    simulate_many_hetero,
    solve_hetero_chip,
)
from repro.util.rng import RngStream
from repro.workloads import all_workloads
from repro.workloads.synthetic import random_workload

CHIP = get_hetero("biglittle")
TOL = 1e-9


def _spec(seed=0, levels=None, **kw):
    wl = all_workloads()["EP"]
    return HeteroRunSpec(CHIP, wl.stream, wl.sync,
                         levels=levels or {}, seed=seed, **kw)


class TestSpecValidation:
    def test_unknown_cluster_rejected(self):
        with pytest.raises(ValueError, match="unknown clusters"):
            _spec(levels={"medium": 2})

    def test_over_ceiling_rejected(self):
        with pytest.raises(ValueError, match="SMT levels"):
            _spec(levels={"little": 4})

    def test_n_chips_positive(self):
        with pytest.raises(ValueError, match="n_chips"):
            _spec(n_chips=0)

    def test_defaults_to_max_levels(self):
        assert _spec().resolved_levels() == {"big": 4, "little": 2}


class TestDecomposition:
    def test_work_splits_by_context_count(self):
        spec = _spec()
        subs = dict(spec.cluster_specs())
        # big: 4 cores x SMT4 = 16 contexts; little: 4 x SMT2 = 8.
        assert subs["big"].useful_instructions == pytest.approx(
            spec.useful_instructions * 16 / 24)
        assert subs["little"].useful_instructions == pytest.approx(
            spec.useful_instructions * 8 / 24)
        assert subs["big"].system.arch.name == "POWER7-big"

    def test_per_cluster_seeds_differ(self):
        subs = [s for _, s in _spec(seed=5).cluster_specs()]
        assert len({s.seed for s in subs}) == len(subs)

    def test_mixed_levels(self):
        result = simulate_hetero(_spec(levels={"big": 1, "little": 2}))
        assert result.levels == {"big": 1, "little": 2}
        assert result.cluster_results["big"].smt_level == 1


class TestResultAccounting:
    def test_wall_is_barrier_and_performance_is_work_over_wall(self):
        result = simulate_hetero(_spec())
        walls = [r.times.wall_time_s
                 for r in result.cluster_results.values()]
        assert result.wall_seconds == max(walls)
        total_work = sum(r.useful_instructions
                         for r in result.cluster_results.values())
        assert result.performance == pytest.approx(
            total_work / result.wall_seconds)
        # Idling at the barrier can only lose throughput.
        assert result.performance <= result.aggregate_rate * (1 + TOL)


class TestStrategyAgreement:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_serial_batched_columnar_agree(self, seed):
        wl = random_workload(RngStream(seed))
        spec = HeteroRunSpec(CHIP, wl.stream, wl.sync, seed=seed)
        serial = simulate_hetero(spec, strategy="serial")
        batched = simulate_hetero(spec, strategy="batched")
        columnar = simulate_hetero(spec, strategy="columnar")
        for other in (batched, columnar):
            rel = (abs(other.wall_seconds - serial.wall_seconds)
                   / serial.wall_seconds)
            assert rel <= TOL
            assert other.performance == pytest.approx(
                serial.performance, rel=TOL)

    @pytest.mark.parametrize("name", ["SSCA2", "Equake", "CG"])
    def test_surrogate_agrees_within_bound(self, name, tmp_path, monkeypatch):
        from repro.obs import configure

        # Surrogate models persist under the run-cache directory.
        monkeypatch.setenv("REPRO_RUNCACHE_DIR", str(tmp_path))
        wl = all_workloads()[name]
        spec = HeteroRunSpec(CHIP, wl.stream, wl.sync, seed=3)
        serial = simulate_hetero(spec, strategy="serial")
        tracer = configure(enabled=True)
        tracer.reset()
        try:
            surrogate = simulate_hetero(spec, strategy="surrogate")
            hits = tracer.counters().get("surrogate.hits", 0)
        finally:
            configure(enabled=False)
            tracer.reset()
        assert hits == len(CHIP.clusters), "surrogate must answer every cluster"
        assert surrogate.wall_seconds == pytest.approx(
            serial.wall_seconds, rel=1e-2)
        assert surrogate.performance == pytest.approx(
            serial.performance, rel=1e-2)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            simulate_hetero(_spec(), strategy="quantum")

    def test_many_flattens_and_regroups(self):
        specs = [_spec(seed=s) for s in (1, 2, 3)]
        results = simulate_many_hetero(specs)
        assert len(results) == 3
        for spec, result in zip(specs, results):
            solo = simulate_hetero(spec)
            assert result.wall_seconds == pytest.approx(
                solo.wall_seconds, rel=TOL)


class TestSolveHeteroChip:
    def test_one_solution_per_cluster(self):
        wl = all_workloads()["SSCA2"]
        solutions = solve_hetero_chip(CHIP, wl.stream)
        assert set(solutions) == {"big", "little"}
        for name, sol in solutions.items():
            arch = CHIP.cluster(name).arch
            assert len(sol.per_thread_ipc()) == (
                arch.cores_per_chip * arch.max_smt)

    def test_respects_level_overrides(self):
        wl = all_workloads()["EP"]
        solutions = solve_hetero_chip(CHIP, wl.stream, levels={"big": 2})
        assert len(solutions["big"].per_thread_ipc()) == 4 * 2
