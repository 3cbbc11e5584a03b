"""Wall-clock vs per-thread CPU time accounting.

The third SMTsm factor is ``TotalTime / AvgThrdTime`` — elapsed wall
time over average per-thread CPU time (paper Eq. 1).  It "measures
scalability limitations manifested through sleeping or Amdahl's law, as
opposed to busy waiting" (§II): spinning threads are *on CPU* and do
not move this ratio; blocked threads and serial bottlenecks do.

:func:`account_run` decomposes a run into a serial phase (one runnable
thread, the rest asleep) and a parallel phase (all threads runnable for
their runnable fraction) and returns the times exactly as a
``getrusage``-style interface would report them; :func:`account_runs`
does the same for a whole batch of runs at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.simos.sync import SyncProfile
from repro.util.validation import check_positive


@dataclass(frozen=True)
class TimeAccounting:
    """Times for one run interval."""

    wall_time_s: float
    serial_time_s: float
    parallel_time_s: float
    total_cpu_s: float
    n_threads: int

    @property
    def avg_thread_cpu_s(self) -> float:
        return self.total_cpu_s / self.n_threads

    @property
    def scalability_ratio(self) -> float:
        """TotalTime / AvgThrdTime — the metric's third factor."""
        return self.wall_time_s / self.avg_thread_cpu_s

    def __post_init__(self):
        check_positive("wall_time_s", self.wall_time_s)
        if self.n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {self.n_threads}")
        if self.total_cpu_s <= 0:
            raise ValueError(f"total_cpu_s must be > 0, got {self.total_cpu_s}")
        if self.total_cpu_s > self.wall_time_s * self.n_threads * (1 + 1e-9):
            raise ValueError(
                "total CPU time cannot exceed wall time x threads: "
                f"{self.total_cpu_s} > {self.wall_time_s} * {self.n_threads}"
            )


def account_run(
    useful_instructions: float,
    parallel_useful_rate: float,
    serial_rate: float,
    sync: SyncProfile,
    n_threads: int,
) -> TimeAccounting:
    """Account a run of ``useful_instructions`` units of work.

    ``parallel_useful_rate`` is the aggregate *useful* instruction
    throughput (instructions/s, spin cycles excluded) during the
    parallel phase; ``serial_rate`` is the single-thread throughput
    during serial sections.
    """
    check_positive("useful_instructions", useful_instructions)
    check_positive("parallel_useful_rate", parallel_useful_rate)
    check_positive("serial_rate", serial_rate)
    if n_threads < 1:
        raise ValueError(f"n_threads must be >= 1, got {n_threads}")

    s = sync.serial_fraction
    serial_time = s * useful_instructions / serial_rate
    parallel_time = (1.0 - s) * useful_instructions / parallel_useful_rate
    wall = serial_time + parallel_time

    runnable = sync.runnable_fraction(n_threads)
    # Serial phase: exactly one thread on CPU.  Parallel phase: every
    # thread on CPU for its runnable fraction (spinning counts as busy —
    # it is already inside ``runnable``; only blocking/I-O sleep).
    total_cpu = serial_time * 1.0 + parallel_time * n_threads * runnable
    return TimeAccounting(
        wall_time_s=wall,
        serial_time_s=serial_time,
        parallel_time_s=parallel_time,
        total_cpu_s=total_cpu,
        n_threads=n_threads,
    )


def _check_all_positive(name: str, values: np.ndarray) -> None:
    """Vector :func:`check_positive`: raises its message for the first bad entry."""
    bad = ~(values > 0.0) | ~np.isfinite(values)
    if bad.any():
        check_positive(name, float(values[bad.argmax()]))


def account_runs(
    useful_instructions: np.ndarray,
    parallel_useful_rate: np.ndarray,
    serial_rate: np.ndarray,
    serial_fraction: np.ndarray,
    runnable: np.ndarray,
    n_threads: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`account_run` over arrays of runs, operation for operation.

    ``serial_fraction`` and ``runnable`` are each run's
    ``sync.serial_fraction`` and ``sync.runnable_fraction(n)``.  Returns
    ``(wall, serial, parallel, total_cpu)`` arrays.  The argument checks
    and :class:`TimeAccounting`'s bounds run as vector checks that raise
    the scalar path's ``ValueError`` for the first offending run.
    """
    _check_all_positive("useful_instructions", useful_instructions)
    _check_all_positive("parallel_useful_rate", parallel_useful_rate)
    _check_all_positive("serial_rate", serial_rate)
    if (n_threads < 1).any():
        raise ValueError(f"n_threads must be >= 1, got {int(n_threads.min())}")

    serial_time = serial_fraction * useful_instructions / serial_rate
    parallel_time = (1.0 - serial_fraction) * useful_instructions / parallel_useful_rate
    wall = serial_time + parallel_time
    total_cpu = serial_time * 1.0 + parallel_time * n_threads * runnable
    ok = (
        (wall > 0.0) & np.isfinite(wall) & (total_cpu > 0)
        & ~(total_cpu > wall * n_threads * (1 + 1e-9))
    )
    for k in np.flatnonzero(~ok):   # re-run the scalar checks, which raise
        TimeAccounting(float(wall[k]), float(serial_time[k]), float(parallel_time[k]),
                       float(total_cpu[k]), int(n_threads[k]))
    return wall, serial_time, parallel_time, total_cpu
