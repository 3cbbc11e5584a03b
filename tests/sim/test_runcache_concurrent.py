"""Concurrent multi-process runcache writers: no torn reads, no losses.

The serving tier's worker pool points N processes at one cache
directory with no coordination beyond the cache's own atomic-publish
protocol (mkstemp + os.replace, schema-checked reads).  These tests
hammer that protocol from real child processes — every worker writes
and re-reads the *same* key set simultaneously — and assert the three
guarantees docs/scaling.md relies on:

* no torn reads: every ``get`` returns either ``None`` or a complete,
  schema-valid record (``runcache.corrupt`` and
  ``runcache.schema_mismatch`` stay zero in every process);
* no lost entries: after the storm, every key resolves to the exact
  result any single process would have written;
* no stray state: no orphaned ``*.tmp`` files survive a clean run, and
  ``clear()`` sweeps ones a killed writer would leave.
"""

import multiprocessing
import os

import pytest

from repro.sim.engine import RunSpec, simulate_run
from repro.sim.runcache import (
    ENTRY_SUFFIX,
    PAYLOAD_SCHEMA,
    RunCache,
    run_cache_key,
)
from repro.simos import SystemSpec
from repro.util.rng import RngStream
from repro.workloads.synthetic import random_workload

N_PROCS = 4
N_KEYS = 6
ROUNDS = 8


def make_specs(n=N_KEYS):
    from repro.arch import power7

    arch = power7()
    specs = []
    for i in range(n):
        workload = random_workload(RngStream(100 + i))
        specs.append(RunSpec(
            system=SystemSpec(arch, 1),
            smt_level=2,
            stream=workload.stream,
            sync=workload.sync,
            seed=11,
        ))
    return specs


def _storm_worker(cache_dir, result_q, barrier):
    """One writer/reader process: put+get every key, ROUNDS times over."""
    from repro.obs import detach_in_subprocess

    tracer = detach_in_subprocess(enabled=True)
    cache = RunCache(cache_dir)
    specs = make_specs()
    results = [simulate_run(spec) for spec in specs]
    barrier.wait()          # all processes enter the storm together
    torn = 0
    for _ in range(ROUNDS):
        for spec, result in zip(specs, results):
            cache.put(spec, result)
            got = cache.get(spec)
            # A concurrent writer may have unlinked/replaced the entry,
            # so None is legal — a *wrong* result is not.
            if got is not None and got.useful_instructions != result.useful_instructions:
                torn += 1
    counters = tracer.counters()
    result_q.put({
        "pid": os.getpid(),
        "torn": torn,
        "corrupt": counters.get("runcache.corrupt", 0.0),
        "schema_mismatch": counters.get("runcache.schema_mismatch", 0.0),
        "hits": counters.get("runcache.hits", 0.0),
        "puts": counters.get("runcache.puts", 0.0),
    })


@pytest.fixture()
def cache_dir(tmp_path):
    return tmp_path / "runcache"


class TestConcurrentWriters:
    def test_storm_no_torn_reads_no_lost_entries(self, cache_dir):
        ctx = multiprocessing.get_context("fork")
        result_q = ctx.Queue()
        barrier = ctx.Barrier(N_PROCS)
        procs = [
            ctx.Process(target=_storm_worker,
                        args=(str(cache_dir), result_q, barrier))
            for _ in range(N_PROCS)
        ]
        for p in procs:
            p.start()
        reports = [result_q.get(timeout=120) for _ in procs]
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0

        # No process ever saw a torn, corrupt or mis-schema'd entry.
        for report in reports:
            assert report["torn"] == 0, report
            assert report["corrupt"] == 0, report
            assert report["schema_mismatch"] == 0, report
            assert report["puts"] == N_KEYS * ROUNDS, report
        # With every process writing before reading, the overwhelming
        # majority of reads must have been served (hits), proving the
        # writers actually interleaved on live entries.
        total_hits = sum(r["hits"] for r in reports)
        assert total_hits > 0

        # No lost entries: every key is present and exactly equal to a
        # fresh single-process read.
        cache = RunCache(cache_dir)
        specs = make_specs()
        for spec in specs:
            got = cache.get(spec)
            assert got is not None, "entry lost after concurrent storm"
            expected = simulate_run(spec)
            assert got.useful_instructions == expected.useful_instructions
            assert dict(got.events) == dict(expected.events)
            assert got.per_thread_ipc == expected.per_thread_ipc
        assert len(cache) == N_KEYS

        # Atomic publish leaves no temp droppings behind.
        assert list(cache_dir.glob("*.tmp")) == []

    def test_interleaved_readers_see_valid_schema_only(self, cache_dir):
        # Readers racing a writer never observe a partially-written
        # record: each on-disk entry carries the magic and schema stamp
        # and decodes whole at every instant after its first publish.
        cache = RunCache(cache_dir)
        spec = make_specs(1)[0]
        result = simulate_run(spec)
        cache.put(spec, result)
        path = cache_dir / f"{run_cache_key(spec)}{ENTRY_SUFFIX}"
        stamp = b"RUNR" + PAYLOAD_SCHEMA.to_bytes(4, "little")
        assert path.read_bytes()[:8] == stamp
        got = cache.get(spec)
        assert got is not None
        assert dict(got.events) == dict(result.events)
        assert got.per_thread_ipc == result.per_thread_ipc

    def test_clear_sweeps_orphaned_tmp_files(self, cache_dir):
        # A writer killed mid-put leaves an exclusive *.tmp file; clear()
        # removes it along with the entries.
        cache = RunCache(cache_dir)
        spec = make_specs(1)[0]
        cache.put(spec, simulate_run(spec))
        orphan = cache_dir / "deadbeef.tmp"
        orphan.write_text("{\"partial")
        removed = cache.clear()
        assert removed == 1
        assert not orphan.exists()
        assert list(cache_dir.glob("*")) == []
