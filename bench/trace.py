"""Outside-in tracing: timing wrappers installed around layer boundaries.

Nothing under ``src/`` knows about this module.  A :class:`Tracer`
replaces a function or method *where its caller looks it up* (a module
attribute or a class attribute) with a wrapper that records a span, and
puts the original back on :meth:`Tracer.uninstall`.

Spans nest on a stack per thread, so a layer's **self time** is its
span's duration minus the durations of the spans it caused.  The serve
handler runs on an executor thread while decode and encode run on the
event-loop thread, which is why the stacks are per thread.  Each thread
accumulates into its own table; :meth:`Tracer.snapshot` merges them.

A *tally* counts outcomes read from a wrapped call's return value (a
run-cache hit, the number of runs one solver call returned); ratios are
computed from tallies, where the work happens.

:func:`request_segments` assembles one served request's timeline from
server-side stamps and the client's latency so that the segments sum to
that latency exactly; :func:`percentile` refuses a tail percentile the
sample cannot support.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: A tail percentile needs at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


class InsufficientSamples(ValueError):
    """The sample is too small to support the requested percentile."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Raises :class:`InsufficientSamples` unless at least
    :data:`MIN_TAIL_SAMPLES` samples lie beyond the rank, so a p99 needs
    1000 samples and a p95 needs 200.
    """
    n = len(values)
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_TAIL_SAMPLES:
        raise InsufficientSamples(
            f"p{q:g} of {n} samples has {max(0, n - rank)} beyond it, "
            f"needs {MIN_TAIL_SAMPLES}"
        )
    return sorted(values)[rank - 1]


#: Tail percentiles :func:`highest_tail` tries, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def highest_tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(q, value)`` for the highest of :data:`TAIL_PERCENTILES`
    ``values`` supports, or ``None`` when even the lowest is unsupported."""
    for q in TAIL_PERCENTILES:
        try:
            return q, percentile(values, q)
        except InsufficientSamples:
            continue
    return None


class _ThreadState:
    __slots__ = ("stack", "spans", "tallies")

    def __init__(self) -> None:
        self.stack: List[List[Any]] = []       # [name, start, child_time]
        self.spans: Dict[str, List[float]] = {}    # name -> [calls, total, self]
        self.tallies: Dict[str, List[float]] = {}  # name -> [calls, items]


class Tracer:
    """Per-thread span stacks plus the patches that feed them."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- recording -----------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def enter(self, name: str) -> None:
        self._state().stack.append([name, self.clock(), 0.0])

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        end = self.clock()
        state = self._state()
        name, start, child = state.stack.pop()
        duration = end - start
        if state.stack:
            state.stack[-1][2] += duration
        acc = state.spans.get(name)
        if acc is None:
            acc = state.spans[name] = [0, 0.0, 0.0]
        acc[0] += 1
        acc[1] += duration
        acc[2] += duration - child
        return duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def tally(self, name: str, items: float) -> None:
        tallies = self._state().tallies
        acc = tallies.get(name)
        if acc is None:
            acc = tallies[name] = [0, 0.0]
        acc[0] += 1
        acc[1] += items

    # -- patching ------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             tally: Optional[Tuple[str, Callable[[Any], float]]] = None) -> Callable:
        """``fn`` recording a ``name`` span per call (and a tally of its
        return value, when ``tally=(tally_name, count_fn)`` is given)."""
        enter, exit_ = self.enter, self.exit
        if tally is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()
        else:
            tally_name, count = tally
            record = self.tally

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    exit_()
                record(tally_name, count(result))
                return result
        return traced

    def patch(self, owner: Any, attr: str, name: str,
              tally: Optional[Tuple[str, Callable[[Any], float]]] = None) -> None:
        """Replace ``owner.attr`` (a module or class attribute) with a
        wrapper recording a ``name`` span per call."""
        self.replace(owner, attr, lambda original: self.wrap(name, original, tally))

    def replace(self, owner: Any, attr: str,
                wrapper: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``wrapper(original)`` until
        :meth:`uninstall`."""
        original = getattr(owner, attr)
        own = attr in vars(owner)
        setattr(owner, attr, wrapper(original))
        self._patches.append((owner, attr, original, own))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- reading -------------------------------------------------------

    def reset(self) -> None:
        """Zero the accumulated spans and tallies (open spans survive)."""
        with self._lock:
            for state in self._states:
                state.spans.clear()
                state.tallies.clear()

    def snapshot(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Spans and tallies merged across threads."""
        spans: Dict[str, Dict[str, float]] = {}
        tallies: Dict[str, Dict[str, float]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, total, self_s) in list(state.spans.items()):
                acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                acc["calls"] += calls
                acc["total_s"] += total
                acc["self_s"] += self_s
            for name, (calls, items) in list(state.tallies.items()):
                acc = tallies.setdefault(name, {"calls": 0, "items": 0.0})
                acc["calls"] += calls
                acc["items"] += items
        return {"spans": spans, "tallies": tallies}


# -- the per-request serve timeline ------------------------------------

#: Server-side stamps per request, in the order a request passes them.
STAMPS = (
    "decode_start", "decode_end", "admit_end",
    "handler_start", "handler_end", "encode_start", "encode_end",
)

#: Timeline segments; for one request they sum to its client latency.
SEGMENTS = (
    "lateness", "decode", "admit", "queue_wait", "handler",
    "deliver", "encode", "transport",
)


def request_segments(stamps: Sequence[float], latency_s: float,
                     lateness_s: float) -> Dict[str, float]:
    """Split one request's client latency (timed from its due time) into
    :data:`SEGMENTS`.

    The server segments are the gaps between consecutive :data:`STAMPS`
    (``admit`` covers ``batch_key`` and ``MicroBatcher.submit``;
    ``queue_wait`` runs until the handler starts and so includes the
    linger; ``deliver`` runs from the handler's return to the start of
    encoding).  ``lateness`` is how late the generator sent the request,
    and ``transport`` is what remains: the socket hops and the event
    loop turns outside the stamped spans.
    """
    d0, d1, a1, h0, h1, e0, e1 = stamps
    return {
        "lateness": lateness_s,
        "decode": d1 - d0,
        "admit": a1 - d1,
        "queue_wait": h0 - a1,
        "handler": h1 - h0,
        "deliver": e0 - h1,
        "encode": e1 - e0,
        "transport": latency_s - lateness_s - (e1 - d0),
    }
