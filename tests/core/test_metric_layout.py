"""The metric vector's error contracts and its per-architecture layout.

``smtsm`` names the first missing metric-space event in a ``KeyError``
(the message of :meth:`CounterSample.count`) and refuses a sample with
no issue counts; ``robust_smtsm`` shares the metric vector and degrades
instead.  The messages are pinned verbatim: callers match on them.

:func:`~repro.counters.pmu.metric_layout` is memoized by architecture
identity: registered architectures reuse one entry, fresh ones get
their own, and the memoized ideal vector is a read-only copy that no
caller of ``ideal_vector()`` can reach.  The memo's cap is held in
``tests/sim/test_memo_bounds.py`` with every other memo's.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings

from repro.arch import get_architecture, nehalem
from repro.core.metric import smtsm
from repro.core.robust import robust_smtsm
from repro.counters import pmu
from repro.counters.pmu import CounterSample, metric_layout
from tests.arch.strategies import arch_strategy
from tests.core.test_metric import p7_sample


CLASS_EVENTS = ("LD_CMPL", "ST_CMPL", "BR_CMPL", "FX_CMPL", "VS_CMPL")


def without(sample, *names):
    events = {k: v for k, v in sample.events.items() if k not in names}
    return dataclasses.replace(sample, events=events)


def nehalem_sample(**ports):
    events = {"CYCLES": 2e9, "INSTRUCTIONS": 1e9, "DISP_HELD_RES": 1e8}
    events.update({f"PORT_ISSUE_{p}": v for p, v in ports.items()})
    return CounterSample(arch=nehalem(), smt_level=2, events=events,
                         wall_time_s=1.0, avg_thread_cpu_s=1.0,
                         n_software_threads=4)


class TestErrorContracts:
    def test_missing_class_event_names_the_first_in_metric_order(self):
        with pytest.raises(KeyError) as info:
            smtsm(without(p7_sample(), "VS_CMPL", "BR_CMPL"))
        assert str(info.value) == (
            "\"event 'BR_CMPL' not in sample: ['BR_MISPRED', 'CYCLES', "
            "'DISP_HELD_RES', 'FX_CMPL', 'INSTRUCTIONS', 'L1_DMISS', "
            "'L2_MISS', 'L3_MISS', 'LD_CMPL', 'ST_CMPL']\""
        )

    def test_missing_port_event_names_the_first_missing_port(self):
        with pytest.raises(KeyError) as info:
            smtsm(nehalem_sample(P0=5.0))
        assert str(info.value) == (
            "\"event 'PORT_ISSUE_P1' not in sample: ['CYCLES', "
            "'DISP_HELD_RES', 'INSTRUCTIONS', 'PORT_ISSUE_P0']\""
        )

    def test_zero_issue_counts_raise_value_error(self):
        sample = p7_sample().with_events({name: 0.0 for name in CLASS_EVENTS})
        for evaluate in (smtsm, lambda s: s.metric_fractions()):
            with pytest.raises(ValueError) as info:
                evaluate(sample)
            assert str(info.value) == (
                "cannot form metric fractions: no issue counts in sample")

    def test_robust_smtsm_degrades_on_the_same_sample(self):
        estimate = robust_smtsm(nehalem_sample(P0=5.0))
        assert estimate.degraded
        assert estimate.confidence == 1 / 6
        assert estimate.missing_events == tuple(
            f"PORT_ISSUE_P{i}" for i in range(1, 6))


class TestLayoutMemo:
    def test_registered_architectures_reuse_one_entry(self):
        archs = ("power7", "nehalem", "armsmt")
        first = [metric_layout(get_architecture(name)) for name in archs]
        size = len(pmu._LAYOUTS)
        for _ in range(3):
            again = [metric_layout(get_architecture(name)) for name in archs]
            assert len(pmu._LAYOUTS) == size
            for (names, ideal), (names2, ideal2) in zip(first, again):
                assert names2 is names and ideal2 is ideal

    @given(arch_strategy())
    @settings(max_examples=30, deadline=None)
    def test_fresh_architectures_get_their_own_layout(self, arch):
        names, ideal = metric_layout(arch)
        assert np.array_equal(ideal, arch.ideal_vector())
        assert len(names) == len(ideal)

    @pytest.mark.parametrize("name", ["power7", "nehalem"])
    def test_mutating_ideal_vector_cannot_corrupt_the_layout(self, name):
        arch = get_architecture(name)
        _, ideal = metric_layout(arch)
        expected = ideal.copy()
        with pytest.raises(ValueError):
            ideal[0] = 0.5
        returned = arch.ideal_vector()
        returned[:] = 0.0
        assert np.array_equal(metric_layout(arch)[1], expected)

    def test_metric_unchanged_after_mutating_ideal_vector(self):
        sample = p7_sample(disp_frac=0.3)
        sample = sample.with_events({"VS_CMPL": 5e8})
        before = smtsm(sample).value
        metric_layout(sample.arch)
        sample.arch.ideal_vector()[:] = 1.0
        assert smtsm(sample).value == before
