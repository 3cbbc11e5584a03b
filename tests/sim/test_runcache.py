"""Persistent run-cache correctness: hits, misses, invalidation."""

import dataclasses
import json

import pytest

from repro.arch import get_architecture, nehalem, power7
from repro.arch.classes import Mix
from repro.experiments.runner import resolve_system, run_catalog
from repro.sim.engine import RunSpec, simulate_run
from repro.sim.results import RunResult
from repro.sim.runcache import (
    MODEL_VERSION,
    PAYLOAD_SCHEMA,
    RunCache,
    cache_enabled_by_default,
    default_cache_dir,
    run_cache_key,
)
from repro.sim.stream import MemoryBehavior, StreamParams
from repro.simos import SystemSpec
from repro.simos.sync import SyncProfile
from repro.simos.timebase import TimeAccounting
from repro.util.rng import RngStream
from repro.workloads import get_workload
from repro.workloads.synthetic import random_workload


def make_spec(**overrides):
    workload = random_workload(RngStream(5))
    kwargs = dict(
        system=SystemSpec(power7(), 1),
        smt_level=2,
        stream=workload.stream,
        sync=workload.sync,
        seed=11,
    )
    kwargs.update(overrides)
    return RunSpec(**kwargs)


def assert_results_equal(a, b):
    assert a.arch is b.arch
    assert a.smt_level == b.smt_level
    assert a.n_threads == b.n_threads
    assert a.n_chips == b.n_chips
    assert a.useful_instructions == b.useful_instructions
    assert dataclasses.asdict(a.times) == dataclasses.asdict(b.times)
    assert dict(a.events) == dict(b.events)
    assert a.spin_fraction == b.spin_fraction
    assert a.blocked_fraction == b.blocked_fraction
    assert a.mem_latency_mult == b.mem_latency_mult
    assert a.mem_utilization == b.mem_utilization
    assert a.per_thread_ipc == b.per_thread_ipc
    assert a.dispatch_held_fraction == b.dispatch_held_fraction


class TestCacheKey:
    def test_deterministic(self):
        spec = make_spec()
        assert run_cache_key(spec) == run_cache_key(spec)

    def test_same_values_same_key_across_instances(self):
        # Content-addressed: two independently built but identical specs
        # share one entry (the point of reusing runs across sessions).
        assert run_cache_key(make_spec()) == run_cache_key(make_spec())

    @pytest.mark.parametrize(
        "override",
        [
            {"seed": 12},
            {"smt_level": 4},
            {"useful_instructions": 3e10},
            {"noise_rel": 0.02},
            {"n_threads": 5},
        ],
    )
    def test_spec_field_changes_key(self, override):
        assert run_cache_key(make_spec(**override)) != run_cache_key(make_spec())

    def test_sync_profile_changes_key(self):
        base = make_spec()
        changed = make_spec(
            sync=dataclasses.replace(base.sync, spin_coeff=base.sync.spin_coeff + 0.05)
        )
        assert run_cache_key(changed) != run_cache_key(base)

    def test_stream_changes_key(self):
        base = make_spec()
        changed = make_spec(stream=base.stream.scaled_misses(1.01))
        assert run_cache_key(changed) != run_cache_key(base)

    def test_arch_changes_key(self):
        assert run_cache_key(
            make_spec(system=SystemSpec(nehalem(), 1))
        ) != run_cache_key(make_spec())

    def test_arch_parameter_changes_key(self):
        base_arch = power7()
        tweaked = dataclasses.replace(base_arch, branch_penalty=base_arch.branch_penalty + 1)
        assert run_cache_key(
            make_spec(system=SystemSpec(tweaked, 1))
        ) != run_cache_key(make_spec(system=SystemSpec(base_arch, 1)))

    def test_n_chips_changes_key(self):
        assert run_cache_key(
            make_spec(system=SystemSpec(power7(), 2))
        ) != run_cache_key(make_spec())

    def test_model_version_changes_key(self, monkeypatch):
        import repro.sim.runcache as rc

        spec = make_spec()
        before = run_cache_key(spec)
        monkeypatch.setattr(rc, "MODEL_VERSION", MODEL_VERSION + 1)
        monkeypatch.setattr(rc, "_CONSTANTS_FP_JSON", None)
        after = run_cache_key(spec)
        monkeypatch.setattr(rc, "_CONSTANTS_FP_JSON", None)
        assert before != after


class TestCacheStore:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = make_spec()
        assert cache.get(spec) is None
        result = simulate_run(spec)
        cache.put(spec, result)
        assert len(cache) == 1
        cached = cache.get(spec)
        assert cached is not None
        assert_results_equal(cached, result)

    def test_different_spec_misses(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = make_spec()
        cache.put(spec, simulate_run(spec))
        assert cache.get(make_spec(seed=99)) is None

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = make_spec()
        cache.put(spec, simulate_run(spec))
        path = tmp_path / f"{run_cache_key(spec)}.json"
        path.write_text("{not json")
        assert cache.get(spec) is None

    def test_corrupt_entry_is_deleted_and_counted(self, tmp_path):
        from repro.obs import configure

        cache = RunCache(tmp_path)
        spec = make_spec()
        result = simulate_run(spec)
        cache.put(spec, result)
        path = tmp_path / f"{run_cache_key(spec)}.json"
        path.write_text("{not json")
        tracer = configure(enabled=True)
        tracer.reset()
        try:
            assert cache.get(spec) is None
            counters = tracer.counters()
            assert counters.get("runcache.corrupt") == 1
            assert counters.get("runcache.misses") == 1
        finally:
            configure(enabled=False)
            tracer.reset()
        # The bad entry is gone: a re-put works and the next get hits.
        assert not path.exists()
        cache.put(spec, result)
        cached = cache.get(spec)
        assert cached is not None
        assert_results_equal(cached, result)

    def test_valid_payload_with_missing_key_is_corrupt(self, tmp_path):
        # Malformed means structurally wrong too, not just bad JSON.
        cache = RunCache(tmp_path)
        spec = make_spec()
        cache.put(spec, simulate_run(spec))
        path = tmp_path / f"{run_cache_key(spec)}.json"
        payload = json.loads(path.read_text())
        del payload["times"]
        path.write_text(json.dumps(payload))
        assert cache.get(spec) is None
        assert not path.exists()

    def test_stale_schema_entry_is_rejected(self, tmp_path):
        # An entry written under a different payload layout may parse
        # cleanly yet mean something else; it must never deserialize.
        from repro.obs import configure

        cache = RunCache(tmp_path)
        spec = make_spec()
        result = simulate_run(spec)
        cache.put(spec, result)
        path = tmp_path / f"{run_cache_key(spec)}.json"
        payload = json.loads(path.read_text())
        assert payload["schema"] == PAYLOAD_SCHEMA
        payload["schema"] = PAYLOAD_SCHEMA - 1
        path.write_text(json.dumps(payload))
        tracer = configure(enabled=True)
        tracer.reset()
        try:
            assert cache.get(spec) is None
            counters = tracer.counters()
            assert counters.get("runcache.schema_mismatch") == 1
            assert counters.get("runcache.misses") == 1
            assert counters.get("runcache.corrupt") is None
        finally:
            configure(enabled=False)
            tracer.reset()
        # Deleted on first sight, so a fresh put repopulates cleanly.
        assert not path.exists()
        cache.put(spec, result)
        cached = cache.get(spec)
        assert cached is not None
        assert_results_equal(cached, result)

    def test_pre_versioning_entry_is_rejected(self, tmp_path):
        # Entries from before the schema field existed carry no marker
        # at all — those are exactly the "stale format" class.
        cache = RunCache(tmp_path)
        spec = make_spec()
        cache.put(spec, simulate_run(spec))
        path = tmp_path / f"{run_cache_key(spec)}.json"
        payload = json.loads(path.read_text())
        del payload["schema"]
        path.write_text(json.dumps(payload))
        assert cache.get(spec) is None
        assert not path.exists()

    def test_undecodable_entry_is_deleted_and_counted(self, tmp_path):
        # Bytes that are not text at all (no valid UTF-8/16/32) are just
        # another corrupt entry, never an exception out of the sweep.
        from repro.obs import configure

        cache = RunCache(tmp_path)
        spec = make_spec()
        cache.put(spec, simulate_run(spec))
        path = tmp_path / f"{run_cache_key(spec)}.json"
        path.write_bytes(b"\xff\xfe{garbage")
        tracer = configure(enabled=True)
        tracer.reset()
        try:
            assert cache.get(spec) is None
            counters = tracer.counters()
            assert counters.get("runcache.corrupt") == 1
            assert counters.get("runcache.misses") == 1
        finally:
            configure(enabled=False)
            tracer.reset()
        assert not path.exists()

    def test_undecodable_entries_do_not_fail_a_sweep(self, tmp_path):
        cache = RunCache(tmp_path)
        catalog = {name: get_workload(name) for name in ("EP", "CG")}
        fresh = run_catalog("p7", catalog, (1, 2), cache=cache)
        paths = sorted(tmp_path.glob("*.json"))
        assert len(paths) == 4
        for path in paths:
            path.write_bytes(b"\xff\xfe{garbage")
        again = run_catalog("p7", catalog, (1, 2), cache=cache)
        assert again.failures == {}
        for name, by_level in fresh.runs.items():
            for level, result in by_level.items():
                assert_results_equal(again.runs[name][level], result)
        # Re-solved and written back: every entry is valid JSON again.
        assert sorted(tmp_path.glob("*.json")) == paths
        assert all(json.loads(path.read_bytes())["schema"] == PAYLOAD_SCHEMA
                   for path in paths)

    def test_clear(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = make_spec()
        cache.put(spec, simulate_run(spec))
        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.get(spec) is None

    def test_payload_is_plain_json(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = make_spec()
        cache.put(spec, simulate_run(spec))
        payload = json.loads(
            (tmp_path / f"{run_cache_key(spec)}.json").read_text()
        )
        assert set(payload) >= {"times", "events", "per_thread_ipc"}

    def test_unwritable_root_is_silent(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the cache dir should go")
        cache = RunCache(blocker / "sub")
        spec = make_spec()
        cache.put(spec, simulate_run(spec))  # must not raise
        assert cache.get(spec) is None


#: A workload spelled out in literals, so the pins below move only when
#: the key's inputs (model constants, architectures) or its rendering do.
PIN_STREAM = StreamParams(
    mix=Mix([0.25, 0.125, 0.125, 0.375, 0.125]),
    ilp=1.75,
    memory=MemoryBehavior(l1_mpki=12.5, l2_mpki=4.25, l3_mpki=1.1,
                          locality_alpha=0.6, data_sharing=0.3),
    branch_mispredict_rate=0.02,
    mlp=2.5,
)
PIN_SYNC = SyncProfile(serial_fraction=0.01, spin_coeff=0.05,
                       lock_serial_fraction=0.002)
BIG_SEED = 2**32 + 7

#: (system alias, SMT level, seed, extra RunSpec fields) -> key.  These
#: keys address entries already on disk: a change that moves any of
#: them strands every existing ``results/.runcache/`` entry, so it must
#: come with a deliberate model change (``MODEL_VERSION`` or a constant).
PINNED_KEYS = [
    ("p7", 1, 0, {},
     "2d0c0aa6562deb24ca5cf8294b497c666560e7520da2bed35d478822c3f260d7"),
    ("p7", 1, BIG_SEED, {},
     "ca78c59dc86e9edc90a06a8a62b0430530d3054d74b0571287dabaf4cf345d2a"),
    ("p7", 4, 0, {},
     "ec8f76214565ece793a52d69481bd413af869aafca245722bfe2a0508a00acd7"),
    ("p7", 4, BIG_SEED, {},
     "19cd528260d1fc25cc029f425bd2fd5ee7297642355fff74ff149511b7a7b417"),
    ("nehalem", 1, 0, {},
     "60a4e59e2654ab1d8e2548d2469eb8b038441b6af68d9598661a9369122c4af4"),
    ("nehalem", 1, BIG_SEED, {},
     "a8804966b926f0a654b5c4b480dd471226f695a778a45e1176ed7ddb0bcc5a75"),
    ("nehalem", 2, 0, {},
     "5741c7877b81302bc8d4e9a5ec245bcea7cc417f8dceb775a6290adc246a3801"),
    ("nehalem", 2, BIG_SEED, {},
     "6f5f39325a5ca34a566519cd7b5fa9d66b1fae21384fb7fb3783c4591d97c2b2"),
    ("p7x2", 1, 0, {},
     "b7468bdd8bde699583cb0dcbd4ac8e2c71892e6c5f49f91285789e8e71b59346"),
    ("p7x2", 1, BIG_SEED, {},
     "515659b28bacfc5d4886c6cd35ab66e149344d4ed3c07cac7bf174afba3fa774"),
    ("p7x2", 4, 0, {},
     "f0c9f5a9089c31bfd08d4e248049bbdfcda6e3d2a99b584ea6ff224d32549f7f"),
    ("p7x2", 4, BIG_SEED, {},
     "1e386f032793f4bc08f4d0c61e8b41c835656a85a497d587b866b0abae0e5a09"),
    ("armsmt", 1, 0, {},
     "4277812325b6e84266676a8d911d15db14109e12a853cb042f45d2692a1bec4a"),
    ("armsmt", 1, BIG_SEED, {},
     "e83803614a9dcc2189be09d50be6e160a5ea9bd5a53103bf59c73bbecc919173"),
    ("armsmt", 2, 0, {},
     "d02c9799dfec0462cc64c4c5d6a78459e048c28a7fb1243ed123af0c8bee71ec"),
    ("armsmt", 2, BIG_SEED, {},
     "c7ca985fe56737f336dc8eca5baabfce864c058771e36d9b90bb08acf13bf13f"),
    ("p7", 2, 11, {"n_threads": 5},
     "1ab8e5bb8a879964e8b2748170019eb5b88c07b4620ee099f1c95ae057c007d3"),
    ("p7", 2, 11, {"noise_rel": 0.0},
     "fde466a54997b4c412a6078eef12de8e9d48e4830784c4f0008ef8163a75b57a"),
    ("p7", 2, 11, {"noise_rel": 0.037},
     "8e61abedbc7d9363e59064243a3d703f2cbcaa2c1939aff7a3af523848c92824"),
    ("p7", 2, 11, {"useful_instructions": 30000000000},
     "eab98ae568d90b737bfbf35d662097f27b77431000b16fa961415ddf63245a02"),
    ("p7", 2, 11, {"useful_instructions": 3.5e10},
     "142e67ee52cf78432a97f1980ea061e76a09e555952c2182ad7204dd3fada569"),
]

#: The exact bytes ``put`` writes for :func:`pinned_result`.
PINNED_PAYLOAD = (
    b'{"schema": 2, "smt_level": 2, "n_threads": 16, "n_chips": 1, '
    b'"useful_instructions": 20000000000.0, "times": {"wall_time_s": 1.5, '
    b'"serial_time_s": 0.125, "parallel_time_s": 1.375, "total_cpu_s": 20.25, '
    b'"n_threads": 16}, "events": {"PM_RUN_CYC": 6000000000.0, '
    b'"PM_INST_CMPL": 25000000000.0}, "spin_fraction": 0.0625, '
    b'"blocked_fraction": 0.03125, "mem_latency_mult": 1.2, '
    b'"mem_utilization": 0.45, "per_thread_ipc": [0.75, 0.5], '
    b'"dispatch_held_fraction": 0.1}'
)


def pinned_spec(alias="p7", level=2, seed=0, stream=PIN_STREAM, **extra):
    return RunSpec(system=resolve_system(alias), smt_level=level,
                   stream=stream, sync=PIN_SYNC, seed=seed, **extra)


def pinned_result():
    return RunResult(
        arch=get_architecture("power7"), smt_level=2, n_threads=16, n_chips=1,
        useful_instructions=2e10,
        times=TimeAccounting(wall_time_s=1.5, serial_time_s=0.125,
                             parallel_time_s=1.375, total_cpu_s=20.25,
                             n_threads=16),
        events={"PM_RUN_CYC": 6.0e9, "PM_INST_CMPL": 2.5e10},
        spin_fraction=0.0625, blocked_fraction=0.03125, mem_latency_mult=1.2,
        mem_utilization=0.45, per_thread_ipc=(0.75, 0.5),
        dispatch_held_fraction=0.1,
    )


class TestPinnedBytes:
    @pytest.mark.parametrize("alias,level,seed,extra,key", PINNED_KEYS)
    def test_key(self, alias, level, seed, extra, key):
        assert run_cache_key(pinned_spec(alias, level, seed, **extra)) == key

    def test_negative_zero_is_its_own_key(self):
        # -0.0 == 0.0 (and hashes alike), yet the two render differently:
        # each stream must get the key of its own rendering, whichever
        # the process happened to key first.
        def with_sharing(value):
            memory = dataclasses.replace(PIN_STREAM.memory, data_sharing=value)
            return dataclasses.replace(PIN_STREAM, memory=memory)

        negative, positive = with_sharing(-0.0), with_sharing(0.0)
        assert negative == positive
        for stream, key in (
            (negative, "96e28775bd78be7ed710bc7df9e079487083fcc8112f97c1224c6e5d66dbf7dd"),
            (positive, "f7722ebd857445ad7091ab53a342f799bfecdfb5c44953c0331dac2f3698534b"),
            (negative, "96e28775bd78be7ed710bc7df9e079487083fcc8112f97c1224c6e5d66dbf7dd"),
        ):
            assert run_cache_key(pinned_spec(stream=stream)) == key

    def test_payload_bytes(self, tmp_path):
        spec = pinned_spec()
        result = pinned_result()
        cache = RunCache(tmp_path)
        cache.put(spec, result)
        path = tmp_path / f"{run_cache_key(spec)}.json"
        assert path.read_bytes() == PINNED_PAYLOAD
        assert_results_equal(cache.get(spec), result)


class TestEnvironmentSwitches:
    def test_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUNCACHE", raising=False)
        assert cache_enabled_by_default()

    def test_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNCACHE", "0")
        assert not cache_enabled_by_default()

    def test_dir_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RUNCACHE_DIR", str(tmp_path / "alt"))
        assert default_cache_dir() == tmp_path / "alt"
        assert RunCache().root == tmp_path / "alt"
