"""The solver's and the run cache's identity-keyed memos stay bounded.

The serial-rate memo and the run cache's per-architecture key memo are
keyed by ``id(arch)``, its workload-rendering memo by the identities of
a ``(stream, sync)`` pair.  Registered architectures and catalog
workloads are shared instances, so fresh sessions must reuse their
entries rather than add new ones; freshly built architectures and
streams must never push any memo past its cap.
"""

import dataclasses
from unittest import mock

from hypothesis import given, settings

import repro.api as api
from repro.arch import get_architecture
from repro.sim import engine, runcache
from repro.sim.engine import RunSpec
from repro.simos.system import SystemSpec
from repro.workloads import get_workload
from tests.arch.strategies import arch_strategy

SMALL_CAP = 4


def memo_sizes():
    return (len(engine._SERIAL_RATE_CACHE), len(runcache._ARCH_MEMO),
            len(runcache._WORKLOAD_MEMO))


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

