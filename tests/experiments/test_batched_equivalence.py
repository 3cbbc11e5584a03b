"""The batched strategy must reproduce the serial reference and honour the cache."""

import dataclasses

import numpy as np
import pytest

from repro.experiments.runner import run_catalog
from repro.experiments.systems import nehalem_system, p7_system
from repro.sim.runcache import RunCache
from repro.workloads.catalog import all_workloads

REL_TOL = 1e-9

# Equake stresses the bandwidth bisection; SPECjbb_contention and
# Fluidanimate take the spin/lock fixed-point loop; EP short-circuits it.
SUBSET_NAMES = ("EP", "Equake", "Fluidanimate", "SPECjbb_contention")


def subset():
    specs = all_workloads()
    return {n: specs[n] for n in SUBSET_NAMES}


def close(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= REL_TOL * (np.abs(a) + 1e-12)))


def assert_run_matches(scalar, batched):
    assert batched.arch.name == scalar.arch.name
    assert batched.smt_level == scalar.smt_level
    assert batched.n_threads == scalar.n_threads
    assert batched.n_chips == scalar.n_chips
    assert batched.useful_instructions == scalar.useful_instructions
    st, bt = dataclasses.asdict(scalar.times), dataclasses.asdict(batched.times)
    assert st.keys() == bt.keys()
    for key in st:
        assert close(st[key], bt[key]), f"times.{key}"
    assert scalar.events.keys() == batched.events.keys()
    for key in scalar.events:
        assert close(scalar.events[key], batched.events[key]), f"events[{key}]"
    assert close(scalar.spin_fraction, batched.spin_fraction)
    assert close(scalar.blocked_fraction, batched.blocked_fraction)
    assert close(scalar.mem_latency_mult, batched.mem_latency_mult)
    assert close(scalar.mem_utilization, batched.mem_utilization)
    assert close(scalar.per_thread_ipc, batched.per_thread_ipc)
    assert close(scalar.dispatch_held_fraction, batched.dispatch_held_fraction)


def assert_catalogs_match(scalar_runs, batched_runs):
    assert scalar_runs.levels() == batched_runs.levels()
    assert set(scalar_runs.names()) == set(batched_runs.names())
    for name, by_level in scalar_runs.runs.items():
        for level, scalar in by_level.items():
            assert_run_matches(scalar, batched_runs.runs[name][level])


@pytest.fixture(scope="module")
def scalar_runs():
    return run_catalog(p7_system(), subset(), (1, 2, 4), strategy="serial", seed=5)


class TestBatchedCatalog:
    def test_matches_scalar_engine(self, scalar_runs):
        batched = run_catalog(
            p7_system(), subset(), (1, 2, 4), seed=5, use_cache=False
        )
        assert_catalogs_match(scalar_runs, batched)

    def test_nehalem_matches(self):
        names = ("EP", "Equake", "SSCA2")
        sub = {n: all_workloads()[n] for n in names}
        scalar = run_catalog(nehalem_system(), sub, (1, 2), strategy="serial", seed=5)
        batched = run_catalog(
            nehalem_system(), sub, (1, 2), seed=5, use_cache=False
        )
        assert_catalogs_match(scalar, batched)

    def test_cache_round_trip(self, scalar_runs, tmp_path):
        cache = RunCache(tmp_path / "rc")
        cold = run_catalog(
            p7_system(), subset(), (1, 2, 4), seed=5, cache=cache
        )
        assert len(cache) == len(SUBSET_NAMES) * 3
        warm = run_catalog(
            p7_system(), subset(), (1, 2, 4), seed=5, cache=cache
        )
        assert_catalogs_match(cold, warm)
        assert_catalogs_match(scalar_runs, warm)

    def test_cache_partial_hits(self, tmp_path):
        # Warm only one level, then ask for all three: the cached level
        # must blend seamlessly with freshly simulated ones.
        cache = RunCache(tmp_path / "rc")
        run_catalog(p7_system(), subset(), (2,), seed=5, cache=cache)
        assert len(cache) == len(SUBSET_NAMES)
        full = run_catalog(
            p7_system(), subset(), (1, 2, 4), seed=5, cache=cache
        )
        assert len(cache) == len(SUBSET_NAMES) * 3
        assert full.levels() == (1, 2, 4)

    def test_use_cache_false_writes_nothing(self, tmp_path):
        cache = RunCache(tmp_path / "rc")
        run_catalog(
            p7_system(), {"EP": all_workloads()["EP"]}, (1,),
            seed=5, cache=cache, use_cache=False,
        )
        assert len(cache) == 0

    def test_seed_changes_bypass_cache_entries(self, tmp_path):
        cache = RunCache(tmp_path / "rc")
        sub = {"EP": all_workloads()["EP"]}
        run_catalog(p7_system(), sub, (1,), seed=5, cache=cache)
        run_catalog(p7_system(), sub, (1,), seed=6, cache=cache)
        assert len(cache) == 2


class TestExplicitStrategies:
    @pytest.mark.parametrize("strategy", ["batched", "columnar"])
    def test_exact_strategies_match_scalar(self, scalar_runs, strategy):
        runs = run_catalog(
            p7_system(), subset(), (1, 2, 4), strategy=strategy,
            seed=5, use_cache=False,
        )
        assert_catalogs_match(scalar_runs, runs)

    def test_unknown_strategy_raises(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            run_catalog(p7_system(), subset(), (1,), strategy="bogus")

    def test_surrogate_results_never_enter_the_exact_cache(
        self, tmp_path, monkeypatch
    ):
        from repro.api import PredictQuery, Session
        from repro.obs import configure

        def sweep(cache):
            run_catalog(
                p7_system(), subset(), (1, 2, 4), strategy="surrogate",
                seed=5, cache=cache,
            )

        def predict(cache):
            # The session's cache is the default one, under the env dir;
            # a pinned threshold skips the exact catalog sweep a fit runs.
            monkeypatch.setenv("REPRO_RUNCACHE_DIR", str(cache.root))
            session = Session(p7_system(), seed=5, use_cache=True,
                              surrogate=True, threshold=0.1)
            session.predict_many([
                PredictQuery(name, level) for name in SUBSET_NAMES
                for level in (1, 2, 4)
            ])

        for entry in (sweep, predict):
            tracer = configure(enabled=True)
            tracer.reset()
            try:
                cache = RunCache(tmp_path / entry.__name__)
                entry(cache)
                counters = tracer.counters()
            finally:
                configure(enabled=False)
                tracer.reset()
            hits = counters.get("surrogate.hits", 0)
            fallbacks = counters.get("surrogate.fallbacks", 0)
            assert hits + fallbacks == len(SUBSET_NAMES) * 3, entry.__name__
            assert hits > 0, "surrogate must engage on catalog workloads"
            # Approximate answers must not poison the exact run cache:
            # only solver fallbacks may be persisted.
            assert len(cache) == fallbacks, entry.__name__

    def test_surrogate_matches_scalar_within_bound(self, scalar_runs):
        from repro.check.differential import compare_runs

        runs = run_catalog(
            p7_system(), subset(), (1, 2, 4), strategy="surrogate",
            seed=5, use_cache=False,
        )
        for name, by_level in scalar_runs.runs.items():
            for level, scalar in by_level.items():
                diffs = compare_runs(scalar, runs.runs[name][level],
                                     rel_tol=1e-2)
                assert not diffs, (name, level, diffs)
