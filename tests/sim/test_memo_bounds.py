"""The solver's per-architecture memos stay bounded.

The serial-rate memo and the arch-fingerprint memo are keyed by
``id(arch)``.  Registered architectures are shared instances, so fresh
sessions must reuse their entries rather than add new ones; freshly
built custom architectures must never push either memo past its cap.
"""

from unittest import mock

from hypothesis import given, settings

import repro.api as api
from repro.sim import engine, runcache
from repro.simos.system import SystemSpec
from repro.workloads import get_workload
from tests.arch.strategies import arch_strategy

SMALL_CAP = 4


def test_fresh_sessions_do_not_grow_the_memos(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUNCACHE_DIR", str(tmp_path))
    api.Session("p7", use_cache=False).sweep()
    api.Session("p7", use_cache=True).sweep()
    sizes = (len(engine._SERIAL_RATE_CACHE), len(runcache._ARCH_FP_CACHE))
    for seed in range(50):
        api.Session("p7", seed=seed, use_cache=False).sweep()
        assert (len(engine._SERIAL_RATE_CACHE), len(runcache._ARCH_FP_CACHE)) == sizes
    for _ in range(5):
        api.Session("p7", use_cache=True).sweep()
        assert (len(engine._SERIAL_RATE_CACHE), len(runcache._ARCH_FP_CACHE)) == sizes


@given(arch_strategy())
@settings(max_examples=30, deadline=None)
def test_fresh_architectures_never_pass_the_caps(arch):
    system = SystemSpec(arch, 1)
    streams = [get_workload(name).stream for name in ("EP", "CG", "Stream")]
    with mock.patch.object(engine, "_SERIAL_RATE_CACHE_MAX", SMALL_CAP), \
            mock.patch.object(runcache, "_ARCH_FP_CACHE_MAX", SMALL_CAP):
        for stream in streams:
            engine._serial_rate(system, stream)
            assert len(engine._SERIAL_RATE_CACHE) <= SMALL_CAP
        runcache._arch_fp_json(arch)
        assert len(runcache._ARCH_FP_CACHE) <= SMALL_CAP
