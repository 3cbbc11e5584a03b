"""Host-speed probe: how slow the host runs right now.

On a shared virtual machine the CPU changes speed from one second to
the next while the program stays the same (a busy sibling hardware
thread, frequency changes): on the 2-vCPU VM this benchmark was sized
on, the 2-second medians of a fixed pure-Python loop ranged from 19 to
34 ms, and so did every timing taken with it.  The benchmark therefore
scales each timing to a reference speed, dividing it by the probe
taken next to it while the program is idle.  Raw timings are reported
beside the scaled ones.

The probe times two fixed loops that resemble the program's work and
averages their slowness: one of Python bytecode, and one of NumPy
calls on small arrays, as the solver makes them.  Host slowdowns hit
the two differently; on that VM, sweeps slowed about 1.2 times as much
as the Python loop and 0.8 times as much as the NumPy loop, and the
average of the two left about half the run-to-run drift that the Python
loop alone left, for sweeps and fleet runs alike.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Iterations of each probe loop (each about a millisecond on the
#: reference host).
PYTHON_ITERATIONS = 25_000
NUMPY_ITERATIONS = 370
#: Each loop's duration at the reference speed: scaled timings read as
#: seconds on a host where both loops take exactly this long.
REFERENCE_S = 0.001

_SMALL = np.arange(64, dtype=float) / 64


def _python_loop() -> None:
    total = 0
    for i in range(PYTHON_ITERATIONS):
        total += i


def _numpy_calls() -> None:
    x = _SMALL
    for _ in range(NUMPY_ITERATIONS):
        x = np.minimum(x * 1.0001 + 1e-9, 2.0)


def _median_s(loop, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        loop()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def probe(repeats: int = 3) -> float:
    """The host's slowness now: 1.0 at the reference speed, 2.0 when the
    probe loops take twice as long (median of ``repeats`` runs each)."""
    return statistics.fmean(_median_s(loop, repeats) / REFERENCE_S
                            for loop in (_python_loop, _numpy_calls))


def scale(seconds: float, *probes: float) -> float:
    """``seconds`` at the reference speed, given the probes around it."""
    return seconds / statistics.fmean(probes)
