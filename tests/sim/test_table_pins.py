"""Exact pins on the columnar engine: digests, fallback and call counts.

The differential pillar holds the table to the serial reference at 1e-9
relative error, so a last-bit change in the solver passes it.  These
tests pin the table's answers *exactly*: sha256 digests of the
``float.hex`` of every :class:`RunResult` field, computed before the
base bandwidth phase and the first spin iteration were fused into one
bisection.  A solver refactor that claims bit-identity must pass them
unedited.  The structural gate pins how many kernel calls and bisection
steps a catalog sweep takes, which is what the fusion saves.
"""

import hashlib
from collections import OrderedDict

import pytest

from repro.arch import power7
from repro.arch.registry import list_architectures
from repro.check.differential import REL_TOL, compare_runs
from repro.experiments.runner import run_catalog
from repro.obs import configure
from repro.sim import table as table_mod
from repro.sim.engine import RunSpec, simulate_run
from repro.sim.table import simulate_many_columnar
from repro.simos import SystemSpec
from repro.simos.sync import SyncProfile
from repro.workloads import all_workloads

SEEDS = (0, 7, 2**32 + 7)


def _result_lines(result):
    """Every RunResult field a sweep reports, floats as ``float.hex``."""
    t = result.times
    floats = (
        t.wall_time_s, t.serial_time_s, t.parallel_time_s, t.total_cpu_s,
        result.spin_fraction, result.blocked_fraction,
        result.mem_latency_mult, result.mem_utilization,
        result.dispatch_held_fraction,
    )
    yield f"{result.smt_level} {result.n_threads} {result.n_chips}"
    yield " ".join(float(v).hex() for v in floats)
    for name in sorted(result.events):
        yield f"{name}={float(result.events[name]).hex()}"
    yield " ".join(float(v).hex() for v in result.per_thread_ipc)


def results_digest(results):
    h = hashlib.sha256()
    for result in results:
        for line in _result_lines(result):
            h.update(line.encode())
            h.update(b"\n")
    return h.hexdigest()


def _catalog_runs(alias, seed):
    runs = run_catalog(alias, seed=seed, use_cache=False)
    assert not runs.failures
    return [runs.runs[name][level] for name in sorted(runs.runs)
            for level in sorted(runs.runs[name])]


def catalog_digest(alias):
    return results_digest(run for seed in SEEDS for run in _catalog_runs(alias, seed))


#: Digests over seeds ``SEEDS`` of ``run_catalog(alias, use_cache=False)``.
PINNED = {
    "p7x2":
        "ad3b3b7f5cf8a2b29c0e1ec979c015eb527f2e7a167c6f9c3f9b4dc0ff9ead0f",
    "armsmt":
        "cf24eaa28991a82035b8a9ee49b6563660807c0e8a1c59b0a0d831d48753cd31",
    "biglittle.big":
        "aa399c1f3ae20c27489518a4e6dba523e232140b42d8e2246557fc03d837eec8",
    "biglittle.little":
        "b8f73cc84f6988c8ec423914b0904c997166598e79421a19c6273d367aef512b",
    "generic":
        "56fc71692c47d270d892f19f32cddfe925652cd520ebd4c1189e5e391a2fed16",
    "nehalem":
        "8714fed0f16a5cac0173764fbd54906b7f2c09c39dcd7756c784bbde969d5257",
    "power5":
        "1714c61cc7be0e78b80706fdce86a4ab9f95ea2ad59b4699ad809386de363295",
    "power7":
        "2dbaf0dfacb4b264c0afab121110ce368a4a231512cd9862837139e8b180281e",
}


class TestPinnedRunDigests:
    def test_every_architecture_is_pinned(self):
        assert set(PINNED) == {"p7x2", *list_architectures()}

    @pytest.mark.parametrize("alias", sorted(PINNED))
    def test_catalog_digest(self, alias):
        assert catalog_digest(alias) == PINNED[alias]


def _lock_overflow_batch():
    """Catalog runs mixed with runs whose lock cap overflows to ``inf``.

    ``lock_serial_fraction=5e-324`` makes a run *look* lock-bound before
    its base solve (so it is fused into the first spin iteration), but
    ``cs_rate / 5e-324`` is ``inf``: the run is sync-free after all.
    """
    arch = power7()
    workloads = all_workloads()
    overflow = SyncProfile(lock_serial_fraction=5e-324)
    specs = []
    for name in ("EP", "SPECjbb_contention", "Equake", "Fluidanimate"):
        workload = workloads[name]
        for level in (1, 2, 4):
            for sync in (workload.sync, overflow):
                specs.append(RunSpec(
                    system=SystemSpec(arch, 1), smt_level=level,
                    stream=workload.stream, sync=sync, seed=11,
                ))
    return specs


class TestLockCapOverflowFallback:
    DIGEST = "ee575e04059aed0c02bcd04328a03b243a0b6cd0dbcc4d40b16201a02af31f28"

    def test_digest(self):
        assert results_digest(simulate_many_columnar(_lock_overflow_batch())) == self.DIGEST

    def test_matches_serial_reference(self):
        specs = _lock_overflow_batch()
        for spec, got in zip(specs, simulate_many_columnar(specs)):
            diffs = compare_runs(simulate_run(spec), got, REL_TOL)
            assert not diffs, (spec.smt_level, spec.sync, diffs)


def _traced(fn, *args, **kwargs):
    """``fn``'s result and the tracer counters it left."""
    tracer = configure(enabled=True)
    tracer.reset()
    try:
        return fn(*args, **kwargs), tracer.counters()
    finally:
        configure(enabled=False)
        tracer.reset()


class TestSolveStructure:
    """A catalog sweep's kernel calls and bisection steps, exactly.

    The counts are those of a layout's first sight: from its third table
    on, a layout's kept template answers with its converged state.
    """

    @pytest.mark.parametrize("alias, spin_iterations", [
        ("p7", 27),
        ("nehalem", 12),
    ])
    def test_three_bisection_phases(self, alias, spin_iterations, cold_memo):
        tracer = configure(enabled=True)
        tracer.reset()
        try:
            run_catalog(alias, seed=11, use_cache=False)
            counters = tracer.counters()
        finally:
            configure(enabled=False)
            tracer.reset()
        assert counters.get("table.solves") == 51
        assert counters.get("table.bisection_steps") == 42
        assert counters.get("table.spin_iterations") == spin_iterations
        assert "runner.batch_salvaged" not in counters

    @pytest.mark.parametrize("alias", ["p7", "nehalem"])
    def test_repeat_layout_reuses_fixed_point(self, alias, monkeypatch, cold_memo):
        seed = 2**32 + 7
        fresh = results_digest(_catalog_runs(alias, seed))
        monkeypatch.setattr(table_mod, "_TEMPLATES", OrderedDict())
        monkeypatch.setattr(table_mod, "_SEEN_ONCE", set())
        _catalog_runs(alias, 0)
        _catalog_runs(alias, 7)
        runs, counters = _traced(_catalog_runs, alias, seed)
        assert "table.solves" not in counters
        assert "table.bisection_steps" not in counters
        assert counters["table.state_hits"] == counters["table.tables"] >= 1
        assert results_digest(runs) == fresh
