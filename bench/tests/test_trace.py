"""Self-time arithmetic, patching, the serve timeline and percentiles."""

import math
import threading
import types

import pytest

from bench.trace import (
    SEGMENTS,
    STAMPS,
    InsufficientSamples,
    Tracer,
    highest_tail,
    percentile,
    request_segments,
)


def scripted_clock(times):
    """A clock that returns ``times`` in order (per calling thread when a
    dict of thread name -> times is given)."""
    if isinstance(times, dict):
        iters = {name: iter(seq) for name, seq in times.items()}
        return lambda: next(iters[threading.current_thread().name])
    it = iter(times)
    return lambda: next(it)


def test_nested_self_time_subtracts_children():
    tracer = Tracer(clock=scripted_clock([0.0, 2.0, 3.0, 5.0, 6.0, 10.0]))
    with tracer.span("outer"):
        with tracer.span("inner"):       # 2 -> 3
            pass
        with tracer.span("inner"):       # 5 -> 6
            pass
    spans = tracer.snapshot()["spans"]
    assert spans["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 8.0}
    assert spans["inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}


def test_grandchild_time_is_charged_to_its_parent_only():
    tracer = Tracer(clock=scripted_clock([0.0, 1.0, 2.0, 4.0, 7.0, 9.0]))
    with tracer.span("a"):
        with tracer.span("b"):           # 1 -> 7
            with tracer.span("c"):       # 2 -> 4
                pass
    spans = tracer.snapshot()["spans"]
    assert spans["a"]["self_s"] == 3.0
    assert spans["b"]["self_s"] == 4.0
    assert spans["c"]["self_s"] == 2.0


def test_threads_keep_separate_stacks():
    tracer = Tracer(clock=scripted_clock({"A": [0.0, 10.0], "B": [3.0, 5.0]}))
    a_open, b_done = threading.Event(), threading.Event()

    def thread_a():
        with tracer.span("a"):
            a_open.set()
            assert b_done.wait(5)

    def thread_b():
        assert a_open.wait(5)
        with tracer.span("b"):
            pass
        b_done.set()

    threads = [threading.Thread(target=thread_a, name="A"),
               threading.Thread(target=thread_b, name="B")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(5)
        assert not t.is_alive()
    spans = tracer.snapshot()["spans"]
    # B's span ran while A's was open, but on another thread: not A's child.
    assert spans["a"]["self_s"] == 10.0
    assert spans["b"]["self_s"] == 2.0


def test_patch_records_spans_and_tallies_then_restores():
    module = types.SimpleNamespace(lookup=lambda key: None if key < 0 else key)
    original = module.lookup
    tracer = Tracer()
    tracer.patch(module, "lookup", "cache.get",
                 tally=("cache.hit", lambda r: 0.0 if r is None else 1.0))
    assert [module.lookup(k) for k in (1, -1, 2, 3)] == [1, None, 2, 3]
    snap = tracer.snapshot()
    assert snap["spans"]["cache.get"]["calls"] == 4
    assert snap["tallies"]["cache.hit"] == {"calls": 4, "items": 3.0}
    tracer.uninstall()
    assert module.lookup is original


def test_patching_an_inherited_method_leaves_the_base_class_alone():
    class Base:
        def place(self):
            return "base"

    class Child(Base):
        pass

    tracer = Tracer()
    tracer.patch(Child, "place", "fleet.place")
    assert Child().place() == "base"
    assert Base.place is vars(Base)["place"]
    tracer.uninstall()
    assert "place" not in vars(Child)
    assert tracer.snapshot()["spans"]["fleet.place"]["calls"] == 1


def test_reset_clears_counts():
    tracer = Tracer()
    with tracer.span("x"):
        pass
    tracer.tally("t", 1)
    tracer.reset()
    assert tracer.snapshot() == {"spans": {}, "tallies": {}}


def test_serve_segments_sum_exactly_to_latency():
    stamps = [10.0, 10.0004, 10.0011, 10.0062, 10.0101, 10.0107, 10.01072]
    assert len(stamps) == len(STAMPS)
    latency, lateness = 0.0153, 0.0021
    segments = request_segments(stamps, latency, lateness)
    assert tuple(segments) == SEGMENTS
    # Exact up to the rounding of the stamp differences.
    assert math.isclose(sum(segments.values()), latency, rel_tol=0, abs_tol=1e-12)
    assert segments["queue_wait"] == pytest.approx(0.0051)
    assert segments["handler"] == pytest.approx(0.0039)
    assert segments["transport"] == pytest.approx(latency - lateness - 0.01072)
    assert all(value >= 0 for value in segments.values())


def test_percentile_needs_ten_samples_beyond_it():
    values = [float(i) for i in range(1, 1001)]
    assert percentile(values, 99) == 990.0
    with pytest.raises(InsufficientSamples):
        percentile(values[:999], 99)
    assert percentile(values[:200], 95) == 190.0
    with pytest.raises(InsufficientSamples):
        percentile(values[:199], 95)
    with pytest.raises(InsufficientSamples):
        percentile(values[:19], 50)


def test_highest_tail_picks_the_highest_supported_percentile():
    values = [float(i) for i in range(500)]
    assert highest_tail(values) == (95.0, 474.0)
    assert highest_tail(values[:5]) is None
