"""Every identity-keyed memo is a registered, bounded :class:`Memo`.

Each memo is paired with a driver that feeds it fresh objects through
its real caller: the serial rate, the run-cache key, the metric layout,
``FaultyApp.advance`` and ``ScenarioTable``.  One parametrized test per
property then holds every memo to its cap, to least-recently-used
eviction, and to releasing what an evicted entry pinned.  Registered
architectures and catalog workloads are shared instances, so fresh
sessions reuse their entries rather than add new ones.
"""

import dataclasses
import gc
import os
import subprocess
import sys
import threading
import weakref
from collections import OrderedDict
from pathlib import Path

import pytest
from hypothesis import given, settings

import repro.api as api
from repro.arch import get_architecture, power7
from repro.counters.pmu import metric_layout
from repro.faults import FaultConfig, FaultyApp
from repro.sim import engine, runcache, table
from repro.sim.engine import RunSpec
from repro.sim.table import ScenarioTable
from repro.simos.system import SystemSpec
from repro.util.memo import Memo, memos
from repro.workloads import get_workload
from tests.arch.strategies import arch_strategy
from tests.faults.test_faulty_app import SEVERE, FrozenApp, StationaryApp
from tests.sim.test_table_pins import results_digest

SMALL_CAP = 4
EP = get_workload("EP")
ROOT = Path(__file__).resolve().parents[2]


def _spec(arch=None, workload=EP, stream=None, level=1, n_threads=None, seed=0):
    system = SystemSpec(arch or get_architecture("power7"), 1)
    return RunSpec(system=system, smt_level=level, stream=stream or workload.stream,
                   sync=workload.sync, n_threads=n_threads, seed=seed)


def _schedule(arch):
    inner = StationaryApp()
    inner.arch = arch
    FaultyApp(inner, FaultConfig(dropout_prob=1.0), seed=0).advance(0.1)


def _template(stream):
    for _ in range(2):  # the second build keeps a template
        ScenarioTable([_spec(stream=stream, level=4)])


def _fresh_stream():
    # Equal-valued but a new object: identity keys give it its own entry.
    return dataclasses.replace(EP.stream)


#: memo name -> (a fresh object, feed that object to the memo's caller).
DRIVERS = {
    "engine.serial_rates": (power7, lambda arch: engine._serial_rate(SystemSpec(arch, 1), EP.stream)),
    "runcache.arch": (power7, lambda arch: runcache.run_cache_key(_spec(arch=arch))),
    "runcache.workload": (_fresh_stream, lambda stream: runcache.run_cache_key(_spec(stream=stream))),
    "pmu.layouts": (power7, metric_layout),
    "faults.schedules": (power7, _schedule),
    "faults.columns": (lambda: FrozenApp().sample,
                       lambda sample: FaultyApp(FrozenApp(sample), SEVERE, seed=0).advance(0.1)),
    "table.templates": (_fresh_stream, _template),
    "table.seen_once": (_fresh_stream, lambda stream: ScenarioTable([_spec(stream=stream, level=4)])),
}
#: Memos whose entries pin nothing (``table.seen_once`` holds key hashes).
PINS_NOTHING = {"table.seen_once"}


def _small(name, monkeypatch):
    memo = memos()[name]
    monkeypatch.setattr(memo, "cap", SMALL_CAP)
    return memo


def _feed(memo, name, obj):
    """Feed ``obj`` and return the one key it added."""
    before = set(memo._data)
    DRIVERS[name][1](obj)
    (key,) = set(memo._data) - before
    return key


def test_every_memo_is_registered():
    assert set(memos()) == set(DRIVERS)


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_fresh_objects_stay_under_the_cap(name, cold_memo, monkeypatch):
    memo = _small(name, monkeypatch)
    alive, keys = [], []   # alive: no id is reused by a later fresh object
    for _ in range(3 * SMALL_CAP):
        alive.append(DRIVERS[name][0]())
        keys.append(_feed(memo, name, alive[-1]))
        assert len(memo) <= SMALL_CAP
    assert list(memo._data) == keys[-SMALL_CAP:]
    assert set(memo._pins) <= set(memo._data)
    assert memo.evictions == 2 * SMALL_CAP


@given(arch_strategy())
@settings(max_examples=30, deadline=None)
def test_generated_architectures_stay_under_the_caps(arch):
    """Serial rates and run-cache keys of architectures unlike power7."""
    names = ("engine.serial_rates", "runcache.arch")
    spec = _spec(arch=arch)
    with pytest.MonkeyPatch.context() as mp:
        for name in names:   # empty storage, swapped back afterwards
            mp.setattr(memos()[name], "_data", OrderedDict())
            mp.setattr(memos()[name], "_pins", {})
            mp.setattr(memos()[name], "cap", 1)
        for stream in (EP.stream, get_workload("Stream").stream):
            assert engine._serial_rate(spec.system, stream) > 0
        key = runcache.run_cache_key(spec)
        assert runcache.run_cache_key(spec) == key and len(key) == 64
        assert [len(memos()[name]) for name in names] == [1, 1]


@pytest.mark.parametrize("name", sorted(set(DRIVERS) - PINS_NOTHING))
def test_the_least_recently_used_entry_goes(name, cold_memo, monkeypatch):
    memo = _small(name, monkeypatch)
    fresh, feed = DRIVERS[name]
    objs = [fresh() for _ in range(SMALL_CAP + 1)]
    keys = [_feed(memo, name, obj) for obj in objs[:SMALL_CAP]]
    feed(objs[0])   # a hit: the oldest becomes the most recently used
    assert list(memo._data) == keys[1:] + keys[:1] and memo.evictions == 0
    newest = _feed(memo, name, objs[-1])
    assert list(memo._data) == keys[2:] + keys[:1] + [newest]
    assert memo.evictions == 1


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_an_evicted_entry_releases_its_pins(name, cold_memo, monkeypatch):
    memo = _small(name, monkeypatch)
    fresh, feed = DRIVERS[name]
    obj = fresh()
    feed(obj)
    ref = weakref.ref(obj)
    del obj
    for other in memos().values():   # only the memo under test may hold it
        if other is not memo:
            other.clear()
    gc.collect()
    assert len(memo) == 1
    assert (ref() is None) == (name in PINS_NOTHING)
    alive = [fresh() for _ in range(SMALL_CAP)]
    for newer in alive:
        feed(newer)
    gc.collect()
    assert ref() is None


def test_a_serial_rate_batch_is_never_split(cold_memo, monkeypatch):
    """A batch evicts only older entries, and one larger than the cap is
    kept whole: callers read every rate of it straight back."""
    memo = _small("engine.serial_rates", monkeypatch)
    older = [power7() for _ in range(3)]
    for arch in older:
        DRIVERS["engine.serial_rates"][1](arch)
    arch = power7()
    streams = [get_workload(name).stream for name in ("EP", "CG")]
    engine._warm_serial_rates(arch, streams)
    assert list(memo._data) == ([(id(a), EP.stream) for a in older[1:]]
                           + [(id(arch), stream) for stream in streams])
    arch = power7()
    streams = [get_workload(name).stream
               for name in ("EP", "CG", "IS", "SSCA2", "Stream", "Equake")]
    engine._warm_serial_rates(arch, streams)
    assert list(memo._data) == [(id(arch), stream) for stream in streams]


def test_a_batch_replacing_its_oldest_entry_evicts_an_older_one(no_memos):
    memo = Memo("batch", 2)
    memo.put("a", 1)
    memo.put("older", 2)
    memo.put_many([("a", 3), ("b", 4)])
    assert list(memo._data.items()) == [("a", 3), ("b", 4)] and memo.evictions == 1


def test_fresh_sessions_do_not_grow_the_memos(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUNCACHE_DIR", str(tmp_path))
    api.Session("p7", use_cache=False).sweep()
    api.Session("p7", use_cache=True).sweep()

    def sizes():
        return {name: len(memo) for name, memo in memos().items()}

    before = sizes()
    for seed in range(50):
        api.Session("p7", seed=seed, use_cache=False).sweep()
        assert sizes() == before
    for seed in range(5):
        api.Session("p7", seed=seed, use_cache=True).sweep()
        assert sizes() == before


def test_new_batches_never_evict_single_run_templates(cold_memo, monkeypatch):
    """A served batch that never repeats (a new multi-run combination)
    neither keeps a template nor evicts the single-run ones in use."""
    templates = _small("table.templates", monkeypatch)

    def spec(name, n_threads=None, seed=0):
        return _spec(workload=get_workload(name), level=4, n_threads=n_threads, seed=seed)

    solo = [[spec("EP")], [spec("CG")]]
    kept = []
    for specs in solo:
        ScenarioTable(specs)
        kept.append(ScenarioTable(specs).row_mix)
    for i in range(3 * SMALL_CAP):
        ScenarioTable([spec("EP", seed=i), spec("IS", n_threads=i + 1, seed=i)])
        for specs, row_mix in zip(solo, kept):
            assert ScenarioTable([dataclasses.replace(specs[0], seed=i)]).row_mix is row_mix
    assert len(templates) == len(solo)

    # Combinations that repeat are kept like any other layout; at the
    # cap the least recently used template makes room.
    for n_threads in (5, 6):
        batch = [spec("EP"), spec("IS", n_threads=n_threads)]
        ScenarioTable(batch)
        assert ScenarioTable(batch).row_mix is ScenarioTable(batch).row_mix
    assert len(templates) == SMALL_CAP
    assert ScenarioTable(solo[0]).row_mix is kept[0]   # EP used again: CG is oldest
    batch = [spec("EP"), spec("IS", n_threads=7)]
    ScenarioTable(batch)
    ScenarioTable(batch)
    assert len(templates) == SMALL_CAP
    assert ScenarioTable(solo[0]).row_mix is kept[0]
    assert ScenarioTable(solo[1]).row_mix is not kept[1]


def _in_threads(target, n, timeout):
    errors = []

    def run(k):
        try:
            target(k)
        except Exception as exc:  # reported below, with the thread's index
            errors.append((k, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def test_threads_share_the_template_memo(cold_memo, monkeypatch):
    templates = _small("table.templates", monkeypatch)
    streams = [_fresh_stream() for _ in range(2 * SMALL_CAP)]
    wrong = []

    def build(k):
        for i in range(40):
            stream = streams[(i // 2 + k) % len(streams)]
            if ScenarioTable([_spec(stream=stream, level=4, seed=i)]).streams[0] is not stream:
                wrong.append((k, i, "another layout's template"))
            if len(templates) > SMALL_CAP:
                wrong.append((k, i, len(templates)))

    _in_threads(build, 4, timeout=60)
    assert wrong == []
    assert 0 < len(templates) <= SMALL_CAP


def _layout(name, n_threads=None):
    return [_spec(workload=get_workload(name), level=level, n_threads=n_threads, seed=11)
            for level in (1, 2, 4)]


def _kept(specs):
    return table._TEMPLATES.get(table._template_key(specs[0].system.arch, specs))


def _kept_state(specs):
    return _kept(specs)["_state"]


def test_a_layout_built_once_stores_no_state(cold_memo):
    specs = _layout("SPECjbb_contention")
    once = ScenarioTable(specs)
    once.run()
    assert once._template is None and len(table._TEMPLATES) == 0
    kept = ScenarioTable(specs)
    kept.run()
    assert len(table._TEMPLATES) == 1
    assert kept._template is _kept(specs) and "_state" in kept._template


def test_evicting_a_template_drops_its_state(cold_memo, monkeypatch):
    templates = _small("table.templates", monkeypatch)
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
    assert len(templates) == SMALL_CAP


def test_threads_share_one_fixed_point(cold_memo):
    specs = _layout("SPECjbb_contention") + _layout("EP")
    expected = results_digest(ScenarioTable(specs).run())
    table._SEEN_ONCE.clear()
    rounds = 4   # first sight, the kept template, then state hits
    barrier = threading.Barrier(4, timeout=60)
    digests = []

    def solve(k):
        for _ in range(rounds):
            barrier.wait()
            digests.append(results_digest(ScenarioTable(specs).run()))

    _in_threads(solve, 4, timeout=120)
    assert digests == [expected] * (4 * rounds)
    assert _kept_state(specs) is not None


#: A serial sweep fills the serial-rate memo with the scalar solver's
#: rates, which can differ from the columnar warm-up's in the last bits.
HISTORY = """
from repro.experiments.runner import run_catalog
from repro.util.memo import clear_all
from tests.sim.test_table_pins import PINNED, catalog_digest
run_catalog("nehalem", strategy="serial")
clear_all()
print(catalog_digest("nehalem") == PINNED["nehalem"])
"""


def test_clear_all_answers_like_a_fresh_process():
    """Run in a child so this process's memos stay as they are."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    proc = subprocess.run([sys.executable, "-c", HISTORY], capture_output=True,
                          text=True, timeout=300, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"]
