"""`FaultyApp`: a measurable app whose counter stream lies.

Composes with the online stack — :class:`~repro.sim.online.SteadyApp`
underneath, :class:`~repro.counters.perfstat.PerfStat` on top::

    app    = SteadyApp(system, 4, workload, seed=7)
    faulty = FaultyApp(app, noise_profile(0.3), seed=7)
    perf   = PerfStat(PerfStatConfig(interval_s=0.05))
    readings = perf.measure(faulty, 1.0)   # corrupted, reproducibly

``advance`` always runs the inner application for the requested wall
time (the program makes progress whether or not the measurement is
usable) and then corrupts the *returned sample* according to the
:class:`~repro.faults.model.FaultConfig`.  Every injection is counted
in :attr:`FaultyApp.injections` and, when telemetry is on, in
``faults.*`` obs counters.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.counters.groups import MultiplexSchedule
from repro.counters.pmu import REQUIRED_EVENTS, CounterSample
from repro.faults.model import FaultConfig
from repro.obs import get_tracer
from repro.util.memo import Memo
from repro.util.rng import RngStream

#: Events :class:`CounterSample` refuses to exist without; dropout never
#: removes them (on real hardware cycles/instructions live on fixed or
#: always-programmed counters).
PROTECTED_EVENTS = REQUIRED_EVENTS

#: Derived schedules, one per architecture object (schedules are
#: immutable, so every app on a machine shares one), keyed by ``id`` and
#: pinning the architecture.
_SCHEDULES = Memo("faults.schedules", 64)


def _schedule_for(arch) -> MultiplexSchedule:
    hit = _SCHEDULES.get(id(arch))
    if hit is not None:
        return hit
    from repro.counters.arch_groups import groups_for

    return _SCHEDULES.put(id(arch), groups_for(arch), pins=(arch,))


#: Event columns ``(names, sorted names, values)`` of source samples
#: whose events are a read-only mapping, taken as immutable: the fleet
#: perf model hands every node one frozen sample per (arch, workload,
#: level, interval), so its columns are read once, not per corruption.
#: Keyed by ``id``, pinning the sample.
_COLUMNS = Memo("faults.columns", 1024)

#: Obs counter of each injection kind.
_COUNTER_NAMES = {
    kind: f"faults.{kind}"
    for kind in ("noise", "heavy_tail", "phase_spike", "dropout", "saturated", "stale")
}


def _columns_for(sample: CounterSample) -> Tuple[Tuple[str, ...], List[str], np.ndarray]:
    hit = _COLUMNS.get(id(sample))
    if hit is not None:
        return hit
    raw = sample.events
    names = tuple(raw)
    columns = (names, sorted(names), np.fromiter(raw.values(), float, len(names)))
    if isinstance(raw, MappingProxyType):
        _COLUMNS.put(id(sample), columns, pins=(sample,))
    return columns


class FaultyApp:
    """Wrap a ``MeasurableApp`` and corrupt its counter samples.

    ``schedule`` names the multiplex groups that dropout removes as a
    unit; when omitted it is derived from the sample's architecture via
    :func:`repro.counters.arch_groups.groups_for` on first use, once per
    architecture.
    """

    def __init__(
        self,
        inner,
        config: FaultConfig,
        *,
        seed: int = 0,
        rng: Optional[RngStream] = None,
        schedule: Optional[MultiplexSchedule] = None,
    ):
        self.inner = inner
        self.config = config
        root = rng if rng is not None else RngStream(seed, ("faults",))
        self._noise = root.child("noise")
        self._tail = root.child("tail")
        self._drop = root.child("drop")
        self._stale = root.child("stale")
        self._schedule = schedule
        self._last: Optional[CounterSample] = None
        self._last_phase: Optional[str] = getattr(inner, "phase_name", None)
        self._spike_left = 0
        self.injections: Dict[str, int] = {}

    # -- passthroughs so FaultyApp still looks like the wrapped app ----
    @property
    def phase_name(self) -> Optional[str]:
        return getattr(self.inner, "phase_name", None)

    def switch_level(self, level: int) -> None:
        """Forward an SMT switch to the wrapped app (if it supports one)."""
        self.inner.switch_level(level)

    # -- fault plumbing ------------------------------------------------
    def rng_streams(self) -> Tuple[RngStream, ...]:
        """The streams :meth:`advance` draws from (none without faults),
        for callers that seed many apps' streams in one batch."""
        if not self.config.any_faults:
            return ()
        return (self._noise, self._tail, self._drop, self._stale)

    def _record(self, kind: str) -> None:
        self.injections[kind] = self.injections.get(kind, 0) + 1
        get_tracer().add(_COUNTER_NAMES[kind])

    def _groups(self, sample: CounterSample) -> MultiplexSchedule:
        if self._schedule is None:
            self._schedule = _schedule_for(sample.arch)
        return self._schedule

    def advance(self, wall_seconds: float) -> CounterSample:
        """Run the inner app for ``wall_seconds``; return a corrupted sample."""
        sample = self.inner.advance(wall_seconds)
        cfg = self.config
        if not cfg.any_faults:
            self._last = sample
            return sample

        phase = getattr(self.inner, "phase_name", None)
        if phase != self._last_phase:
            self._last_phase = phase
            if cfg.phase_spike_mult > 1.0 and self._last is not None:
                self._spike_left = cfg.phase_spike_intervals

        if cfg.noise_rel > 0:
            # One vector draw fills the stream exactly as one scalar
            # RngStream.jitter per event (in key order) would.
            self._record("noise")
            names, _, values = _columns_for(sample)
            z = self._noise.normal(0.0, cfg.noise_rel, len(names))
            events = dict(zip(names, (values * np.maximum(0.05, 1.0 + z)).tolist()))
        else:
            events = dict(sample.events)

        if cfg.heavy_tail_prob > 0 and self._tail.random() < cfg.heavy_tail_prob:
            # One wildly-wrong counter: a multiplicative log-normal
            # glitch on a single randomly-chosen event (the keys are
            # still the source sample's here).
            names = _columns_for(sample)[1]
            victim = names[int(self._tail.integers(0, len(names)))]
            sigma = math.log(cfg.heavy_tail_scale)
            factor = math.exp(abs(float(self._tail.normal(0.0, sigma)))) if sigma > 0 else 1.0
            if factor > 1.0:
                self._record("heavy_tail")
                events[victim] = events[victim] * factor

        if self._spike_left > 0:
            self._spike_left -= 1
            self._record("phase_spike")
            for name in ("DISP_HELD_RES", "BR_MISPRED"):
                if name in events:
                    events[name] = events[name] * cfg.phase_spike_mult

        if cfg.dropout_prob > 0 and self._drop.random() < cfg.dropout_prob:
            groups = self._groups(sample).groups
            group = groups[int(self._drop.integers(0, len(groups)))]
            removed = [
                name for name in group.events
                if name in events and name not in PROTECTED_EVENTS
            ]
            if removed:
                self._record("dropout")
                for name in removed:
                    del events[name]

        if cfg.saturation_count is not None:
            cap = cfg.saturation_count
            clipped = {k: v for k, v in events.items() if v > cap}
            if clipped:
                self._record("saturated")
                for name in clipped:
                    events[name] = cap

        corrupted = sample.replace_events(events)

        if (
            cfg.stale_prob > 0
            and self._last is not None
            and self._stale.random() < cfg.stale_prob
        ):
            # Dropped read: the caller sees the previous interval again.
            self._record("stale")
            return self._last

        self._last = corrupted
        return corrupted
