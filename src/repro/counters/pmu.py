"""Per-hardware-thread performance monitoring unit.

The :class:`Pmu` accumulates raw event counts per hardware context, the
way real PMCs do; :class:`CounterSample` is an interval snapshot
aggregated across the contexts of interest, enriched with the wall-clock
and per-thread CPU times the SMTsm scalability factor needs.  All the
derived quantities the paper reads (IPC/CPI, MPKI rates, mix fractions,
dispatch-held fraction) are computed here so that the metric and the
baseline predictors share one audited implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.arch.classes import CLASS_ORDER, InstrClass, Mix
from repro.arch.machine import Architecture
from repro.counters.events import (
    CANONICAL_EVENTS,
    CLASS_COUNT_EVENTS,
    arch_event_names,
    port_issue_event,
)


class Pmu:
    """Raw event accumulation for every hardware context of a system."""

    def __init__(self, arch: Architecture, n_contexts: int):
        if n_contexts <= 0:
            raise ValueError(f"n_contexts must be > 0, got {n_contexts}")
        self.arch = arch
        self.n_contexts = int(n_contexts)
        self._names = arch_event_names(arch)
        self._index = {name: i for i, name in enumerate(self._names)}
        self._counts = np.zeros((self.n_contexts, len(self._names)), dtype=float)

    @property
    def event_names(self) -> Tuple[str, ...]:
        return self._names

    def _check(self, context: int, event: str) -> Tuple[int, int]:
        if not (0 <= context < self.n_contexts):
            raise IndexError(f"context {context} out of range [0, {self.n_contexts})")
        try:
            return context, self._index[event]
        except KeyError:
            raise KeyError(f"unknown event {event!r}; known: {self._names}") from None

    def add(self, context: int, event: str, count: float) -> None:
        """Accumulate ``count`` occurrences of ``event`` on ``context``."""
        ctx, idx = self._check(context, event)
        if count < 0:
            raise ValueError(f"counter increments must be >= 0, got {count} for {event}")
        self._counts[ctx, idx] += count

    def read(self, context: int, event: str) -> float:
        ctx, idx = self._check(context, event)
        return float(self._counts[ctx, idx])

    def total(self, event: str) -> float:
        _, idx = self._check(0, event)
        return float(self._counts[:, idx].sum())

    def snapshot(self) -> np.ndarray:
        """A copy of the raw counter matrix (contexts x events)."""
        return self._counts.copy()

    def reset(self) -> None:
        self._counts[:] = 0.0

    def aggregate(self, contexts: Optional[Iterable[int]] = None) -> Dict[str, float]:
        """Sum counters over ``contexts`` (default: all)."""
        if contexts is None:
            rows = self._counts
        else:
            idx = list(contexts)
            rows = self._counts[idx]
        return {name: float(rows[:, i].sum()) for i, name in enumerate(self._names)}


#: Events a :class:`CounterSample` refuses to exist without.
REQUIRED_EVENTS = ("CYCLES", "INSTRUCTIONS", "DISP_HELD_RES")


def _check_required(events: Mapping[str, float]) -> None:
    for required in REQUIRED_EVENTS:
        if required not in events:
            raise ValueError(f"counter sample missing required event {required}")


#: Metric-space layouts, one per architecture object.  Keyed by ``id``
#: with the architecture kept alive, so a key is never reused while
#: cached; the bound keeps throwaway architectures from growing it.
_LAYOUTS: Dict[int, Tuple[Architecture, Tuple[str, ...], np.ndarray]] = {}
_LAYOUTS_MAX = 64


def metric_layout(arch: Architecture) -> Tuple[Tuple[str, ...], np.ndarray]:
    """``(event names, ideal vector)`` of ``arch``'s metric space.

    The names are the per-class completion counters (class space) or
    the per-port issue counters (port space), in the order of
    :meth:`~repro.arch.machine.Architecture.ideal_vector`; the vector
    is a read-only copy of it, so mutating what ``ideal_vector()``
    returns cannot reach the metric.  Built once per architecture.
    """
    hit = _LAYOUTS.get(id(arch))
    if hit is None or hit[0] is not arch:
        if arch.metric_space == "class":
            names = CLASS_COUNT_EVENTS
        else:
            names = tuple(port_issue_event(p) for p in arch.topology.port_names)
        ideal = np.array(arch.ideal_vector(), dtype=float)
        ideal.setflags(write=False)
        if len(_LAYOUTS) >= _LAYOUTS_MAX:
            _LAYOUTS.clear()
        hit = _LAYOUTS[id(arch)] = (arch, names, ideal)
    return hit[1], hit[2]


@dataclass(frozen=True)
class CounterSample:
    """An aggregated counter interval plus time accounting.

    This is the unit of input to the SMT-selection metric: everything in
    Eq. 1 is derivable from the fields here.
    """

    arch: Architecture
    smt_level: int
    events: Mapping[str, float]
    wall_time_s: float
    avg_thread_cpu_s: float
    n_software_threads: int

    def __post_init__(self):
        if self.wall_time_s <= 0:
            raise ValueError(f"wall_time_s must be > 0, got {self.wall_time_s}")
        if self.avg_thread_cpu_s <= 0:
            raise ValueError(f"avg_thread_cpu_s must be > 0, got {self.avg_thread_cpu_s}")
        if self.n_software_threads <= 0:
            raise ValueError(f"n_software_threads must be > 0, got {self.n_software_threads}")
        self.arch.validate_smt_level(self.smt_level)
        _check_required(self.events)

    # -- primitive accessors -------------------------------------------
    def count(self, event: str) -> float:
        try:
            return float(self.events[event])
        except KeyError:
            raise KeyError(f"event {event!r} not in sample: {sorted(self.events)}") from None

    @property
    def cycles(self) -> float:
        return self.count("CYCLES")

    @property
    def instructions(self) -> float:
        return self.count("INSTRUCTIONS")

    # -- derived rates the paper uses ------------------------------------
    @property
    def ipc(self) -> float:
        return self.instructions / max(self.cycles, 1.0)

    @property
    def cpi(self) -> float:
        return self.cycles / max(self.instructions, 1.0)

    @property
    def dispatch_held_fraction(self) -> float:
        """Second SMTsm factor: fraction of cycles dispatch was held."""
        return min(1.0, self.count("DISP_HELD_RES") / max(self.cycles, 1.0))

    @property
    def scalability_ratio(self) -> float:
        """Third SMTsm factor: TotalTime / AvgThrdTime (>= 1 in practice)."""
        return self.wall_time_s / self.avg_thread_cpu_s

    def mpki(self, event: str) -> float:
        """Misses (or any event) per thousand completed instructions."""
        return 1000.0 * self.count(event) / max(self.instructions, 1.0)

    @property
    def l1_mpki(self) -> float:
        return self.mpki("L1_DMISS")

    @property
    def l3_mpki(self) -> float:
        return self.mpki("L3_MISS")

    @property
    def branch_mpki(self) -> float:
        return self.mpki("BR_MISPRED")

    @property
    def vs_fraction(self) -> float:
        """Fraction of VSU (FP/vector) instructions — Fig. 2's fourth axis."""
        return self.count("VS_CMPL") / max(self.instructions, 1.0)

    # -- mix reconstruction ----------------------------------------------
    def class_counts(self) -> Dict[InstrClass, float]:
        return {
            klass: self.count(event)
            for klass, event in zip(CLASS_ORDER, CLASS_COUNT_EVENTS)
        }

    def mix(self) -> Mix:
        """Instruction mix recovered from the per-class counters."""
        return Mix.from_counts(self.class_counts())

    def metric_fractions(self) -> np.ndarray:
        """Instruction fractions in the architecture's metric space.

        For a class-space architecture (POWER7) these come from the
        per-class completion counters; for a port-space architecture
        (Nehalem) from the per-port issue counters, in the order of
        :func:`metric_layout`.
        """
        names, _ = metric_layout(self.arch)
        events = self.events
        try:
            vec = np.array([events[name] for name in names], dtype=float)
        except KeyError:
            for name in names:
                self.count(name)   # raises, naming the first missing event
            raise
        total = vec.sum()
        if total <= 0:
            raise ValueError("cannot form metric fractions: no issue counts in sample")
        return vec / total

    def replace_events(self, events: Mapping[str, float]) -> "CounterSample":
        """A copy carrying ``events`` instead of this sample's.

        Nothing is merged, and only the required events are checked:
        every other field is this sample's, validated when it was
        built.  This is how one shared sample is corrupted many times
        over without re-validating its architecture, level and times.
        """
        _check_required(events)
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        twin.__dict__["events"] = events
        return twin

    def with_events(self, extra: Mapping[str, float]) -> "CounterSample":
        """A copy with some events replaced (used by noise/overhead models)."""
        merged = dict(self.events)
        merged.update(extra)
        return self.replace_events(merged)
