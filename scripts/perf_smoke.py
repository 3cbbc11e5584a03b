"""CI perf smoke: the columnar engine must keep beating the scalar one,
and a run-cache hit must keep beating a cold solve.

A deliberately small sweep (a catalog subset at every POWER7 SMT level)
timed three ways, each as the minimum of three repeats: cold through
the scalar reference, cold through the columnar strategy, and warm —
rerun from a filled run cache in a temporary directory.  The full
benchmark (``scripts/bench_sweep.py``) measures ~20x columnar vs scalar
on the 128-run sweep; these gates only defend against catastrophic
regressions — losing the whole-table vectorization, an accidental
per-row Python loop, cache keys re-rendered from scratch on every
lookup — so the bars are deliberately low and CI-noise-proof: the cold
columnar sweep must stay at least ``MIN_SPEEDUP``x the scalar engine,
and the warm rerun at least ``MIN_WARM_SPEEDUP``x the cold columnar
sweep.

    PYTHONPATH=src python scripts/perf_smoke.py
"""

import sys
import tempfile
import time

from repro.experiments.runner import run_catalog
from repro.experiments.systems import p7_system
from repro.sim import engine
from repro.sim.runcache import RunCache
from repro.workloads.catalog import all_workloads

MIN_SPEEDUP = 4.0
MIN_WARM_SPEEDUP = 2.5
SEED = 11
LEVELS = (1, 2, 4)
#: Sync-free, bandwidth-bound and lock-contended — all solver regimes.
NAMES = ("EP", "IS", "SSCA2", "Equake", "Fluidanimate",
         "SPECjbb_contention", "Daytrader", "Streamcluster")


def sweep(strategy, cache=None):
    specs = all_workloads()
    catalog = {n: specs[n] for n in NAMES}
    run_catalog(p7_system(), catalog, LEVELS, strategy=strategy, seed=SEED,
                cache=cache, use_cache=cache is not None)


def timed(strategy, repeats=3):
    times = []
    for _ in range(repeats):
        engine._SERIAL_RATE_CACHE.clear()
        start = time.perf_counter()
        sweep(strategy)
        times.append(time.perf_counter() - start)
    return min(times)


def timed_warm(repeats=3):
    with tempfile.TemporaryDirectory() as root:
        cache = RunCache(root)
        sweep("columnar", cache)  # the fill, not timed
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            sweep("columnar", cache)
            times.append(time.perf_counter() - start)
    return min(times)


def main():
    n_runs = len(NAMES) * len(LEVELS)
    scalar_s = timed("serial")
    columnar_s = timed("columnar")
    warm_s = timed_warm()
    speedup = scalar_s / columnar_s
    warm_speedup = columnar_s / warm_s
    print(f"{n_runs} cold runs: scalar {scalar_s * 1e3:.1f} ms, "
          f"columnar {columnar_s * 1e3:.1f} ms -> {speedup:.2f}x")
    print(f"{n_runs} warm runs: {warm_s * 1e3:.1f} ms -> "
          f"{warm_speedup:.2f}x the cold columnar sweep")
    failed = False
    if speedup < MIN_SPEEDUP:
        print(f"FAIL: cold columnar sweep is only {speedup:.2f}x the "
              f"scalar engine (perf-smoke bar: {MIN_SPEEDUP}x)",
              file=sys.stderr)
        failed = True
    if warm_speedup < MIN_WARM_SPEEDUP:
        print(f"FAIL: warm run-cache sweep is only {warm_speedup:.2f}x the "
              f"cold columnar sweep (perf-smoke bar: {MIN_WARM_SPEEDUP}x)",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
