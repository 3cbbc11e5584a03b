"""The solver's and the run cache's identity-keyed memos stay bounded.

The serial-rate memo and the run cache's per-architecture key memo are
keyed by ``id(arch)``, its workload-rendering memo by the identities of
a ``(stream, sync)`` pair, and the table-template memo by ``id(arch)``
and every run's stream and sync identities (a kept template also
holds its layout's converged fixed point).  Registered architectures
and catalog workloads are shared instances, so fresh sessions must
reuse their entries rather than add new ones; freshly built
architectures and streams must never push any memo past its cap.
"""

import dataclasses
import gc
import sys
import threading
import weakref
from collections import OrderedDict
from unittest import mock

from hypothesis import given, settings

import repro.api as api
from repro.arch import get_architecture
from repro.sim import engine, runcache, table
from repro.sim.engine import RunSpec
from repro.sim.table import ScenarioTable
from repro.simos.system import SystemSpec
from repro.workloads import get_workload
from tests.arch.strategies import arch_strategy
from tests.sim.test_table_pins import results_digest

SMALL_CAP = 4


def memo_sizes():
    return (len(engine._SERIAL_RATE_CACHE), len(runcache._ARCH_MEMO),
            len(runcache._WORKLOAD_MEMO), len(table._TEMPLATES),
            len(table._SEEN_ONCE))


def test_fresh_sessions_do_not_grow_the_memos(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUNCACHE_DIR", str(tmp_path))
    api.Session("p7", use_cache=False).sweep()
    api.Session("p7", use_cache=True).sweep()
    sizes = memo_sizes()
    for seed in range(50):
        api.Session("p7", seed=seed, use_cache=False).sweep()
        assert memo_sizes() == sizes
    for seed in range(5):
        api.Session("p7", seed=seed, use_cache=True).sweep()
        assert memo_sizes() == sizes


@given(arch_strategy())
@settings(max_examples=30, deadline=None)
def test_fresh_architectures_never_pass_the_caps(arch):
    system = SystemSpec(arch, 1)
    streams = [get_workload(name).stream for name in ("EP", "CG", "Stream")]
    with mock.patch.object(engine, "_SERIAL_RATE_CACHE_MAX", SMALL_CAP), \
            mock.patch.object(runcache, "_ARCH_MEMO_MAX", SMALL_CAP):
        for stream in streams:
            engine._serial_rate(system, stream)
            assert len(engine._SERIAL_RATE_CACHE) <= SMALL_CAP
        runcache._arch_fp_json(arch)
        assert len(runcache._ARCH_MEMO) <= SMALL_CAP


@given(arch_strategy())
@settings(max_examples=30, deadline=None)
def test_fresh_architectures_never_pass_the_template_cap(arch):
    system = SystemSpec(arch, 1)
    with mock.patch.object(table, "_TEMPLATES", OrderedDict()), \
            mock.patch.object(table, "_SEEN_ONCE", set()), \
            mock.patch.object(table, "_TEMPLATE_MAX", SMALL_CAP), \
            mock.patch.object(table, "_SEEN_ONCE_MAX", SMALL_CAP):
        for name in ("EP", "CG", "Stream"):
            workload = get_workload(name)
            spec = RunSpec(system=system, smt_level=1, stream=workload.stream,
                           sync=workload.sync)
            for _ in range(2):  # the second build keeps a template
                ScenarioTable([spec])
            assert len(table._TEMPLATES) <= SMALL_CAP
            assert len(table._SEEN_ONCE) <= SMALL_CAP


def test_fresh_streams_never_pass_the_cap():
    workload = get_workload("EP")
    system = SystemSpec(get_architecture("power7"), 1)
    with mock.patch.object(runcache, "_WORKLOAD_MEMO_MAX", SMALL_CAP):
        for i in range(3 * SMALL_CAP):
            # A new, equal-valued stream object every time: value-equal
            # streams still take their own entry, so only the cap holds
            # the memo down.
            stream = dataclasses.replace(workload.stream)
            runcache.run_cache_key(RunSpec(system=system, smt_level=1,
                                           stream=stream, sync=workload.sync,
                                           seed=i))
            assert len(runcache._WORKLOAD_MEMO) <= SMALL_CAP



def test_fresh_streams_never_pass_the_template_cap():
    workload = get_workload("EP")
    system = SystemSpec(get_architecture("power7"), 1)
    with mock.patch.object(table, "_TEMPLATES", OrderedDict()), \
            mock.patch.object(table, "_SEEN_ONCE", set()), \
            mock.patch.object(table, "_TEMPLATE_MAX", SMALL_CAP), \
            mock.patch.object(table, "_SEEN_ONCE_MAX", SMALL_CAP):
        for i in range(3 * SMALL_CAP):
            stream = dataclasses.replace(workload.stream)
            spec = RunSpec(system=system, smt_level=4, stream=stream,
                           sync=workload.sync, seed=i)
            for _ in range(2):
                ScenarioTable([spec])
            assert len(table._TEMPLATES) <= SMALL_CAP
            assert len(table._SEEN_ONCE) <= SMALL_CAP


def test_new_batches_never_evict_single_run_templates(monkeypatch):
    """A served batch that never repeats (a new multi-run combination)
    neither keeps a template nor evicts the single-run ones in use."""
    monkeypatch.setattr(table, "_TEMPLATES", OrderedDict())
    monkeypatch.setattr(table, "_SEEN_ONCE", set())
    monkeypatch.setattr(table, "_TEMPLATE_MAX", SMALL_CAP)
    system = SystemSpec(get_architecture("power7"), 1)

    def spec(name, n_threads=None, seed=0):
        workload = get_workload(name)
        return RunSpec(system=system, smt_level=4, stream=workload.stream,
                       sync=workload.sync, n_threads=n_threads, seed=seed)

    solo = [[spec("EP")], [spec("CG")]]
    kept = []
    for specs in solo:
        ScenarioTable(specs)
        kept.append(ScenarioTable(specs).row_mix)
    for i in range(3 * SMALL_CAP):
        ScenarioTable([spec("EP", seed=i), spec("IS", n_threads=i + 1, seed=i)])
        for specs, row_mix in zip(solo, kept):
            assert ScenarioTable([dataclasses.replace(specs[0], seed=i)]).row_mix is row_mix
    assert len(table._TEMPLATES) == len(solo)

    # Combinations that repeat are kept like any other layout; at the
    # cap the least recently used template makes room.
    for n_threads in (5, 6):
        batch = [spec("EP"), spec("IS", n_threads=n_threads)]
        ScenarioTable(batch)
        assert ScenarioTable(batch).row_mix is ScenarioTable(batch).row_mix
    assert len(table._TEMPLATES) == SMALL_CAP
    assert ScenarioTable(solo[0]).row_mix is kept[0]   # EP used again: CG is oldest
    batch = [spec("EP"), spec("IS", n_threads=7)]
    ScenarioTable(batch)
    ScenarioTable(batch)
    assert len(table._TEMPLATES) == SMALL_CAP
    assert ScenarioTable(solo[0]).row_mix is kept[0]
    assert ScenarioTable(solo[1]).row_mix is not kept[1]


def test_threads_share_the_template_memo(monkeypatch):
    monkeypatch.setattr(table, "_TEMPLATES", OrderedDict())
    monkeypatch.setattr(table, "_SEEN_ONCE", set())
    monkeypatch.setattr(table, "_TEMPLATE_MAX", SMALL_CAP)
    workload = get_workload("EP")
    system = SystemSpec(get_architecture("power7"), 1)
    streams = [dataclasses.replace(workload.stream) for _ in range(2 * SMALL_CAP)]
    errors = []

    def build(k):
        try:
            for i in range(40):
                stream = streams[(i // 2 + k) % len(streams)]
                spec = RunSpec(system=system, smt_level=4, stream=stream,
                               sync=workload.sync, seed=i)
                if ScenarioTable([spec]).streams[0] is not stream:
                    errors.append((k, i, "another layout's template"))
                if len(table._TEMPLATES) > SMALL_CAP:
                    errors.append((k, i, len(table._TEMPLATES)))
        except Exception as exc:  # reported below, with the thread's index
            errors.append((k, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert 0 < len(table._TEMPLATES) <= SMALL_CAP


def _layout(name, n_threads=None):
    workload = get_workload(name)
    system = SystemSpec(get_architecture("power7"), 1)
    return [RunSpec(system=system, smt_level=level, stream=workload.stream,
                    sync=workload.sync, n_threads=n_threads, seed=11)
            for level in (1, 2, 4)]


def _kept_state(specs):
    return table._TEMPLATES[table._template_key(specs[0].system.arch, specs)]["_state"]


def test_a_layout_built_once_stores_no_state(cold_memo):
    specs = _layout("SPECjbb_contention")
    once = ScenarioTable(specs)
    once.run()
    assert once._template is None and table._TEMPLATES == {}
    kept = ScenarioTable(specs)
    kept.run()
    (template,) = table._TEMPLATES.values()
    assert kept._template is template and "_state" in template


def test_evicting_a_template_drops_its_state(cold_memo, monkeypatch):
    monkeypatch.setattr(table, "_TEMPLATE_MAX", SMALL_CAP)
    specs = _layout("SPECjbb_contention")
    for _ in range(2):
        ScenarioTable(specs).run()
    state = weakref.ref(_kept_state(specs))
    for n_threads in range(1, SMALL_CAP + 1):
        newer = _layout("EP", n_threads=n_threads)
        for _ in range(2):
            ScenarioTable(newer).run()
        gc.collect()
        assert (state() is None) == (n_threads == SMALL_CAP)
    assert len(table._TEMPLATES) == SMALL_CAP


def test_threads_share_one_fixed_point(cold_memo):
    specs = _layout("SPECjbb_contention") + _layout("EP")
    expected = results_digest(ScenarioTable(specs).run())
    table._SEEN_ONCE.clear()
    rounds = 4   # first sight, the kept template, then state hits
    barrier = threading.Barrier(4, timeout=60)
    digests, errors = [], []

    def solve(k):
        try:
            for _ in range(rounds):
                barrier.wait()
                digests.append(results_digest(ScenarioTable(specs).run()))
        except Exception as exc:  # reported below, with the thread's index
            errors.append((k, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=solve, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert digests == [expected] * (4 * rounds)
    assert _kept_state(specs) is not None
