"""Benchmark the prediction service: batched vs unbatched serving.

Boots the server in-process twice — once with micro-batching enabled
(``max_batch=32``, a few ms of linger) and once effectively disabled
(``max_batch=1``, zero linger) — and drives each with the same closed
loop of concurrent clients issuing ``predict`` requests.  Every request
carries a distinct seed and the server session runs with the run cache
off, so each request costs a real simulation: the measured difference
is purely the coalescing win (one columnar ``ScenarioTable`` solve per
batch instead of one per request).

Telemetry (``repro.obs``) is read in-process after each phase so the
achieved mean batch size is *measured*, not assumed.

A second sweep measures the sharded worker tier (``--workers``,
default ``1,2,4``): mixed-key traffic — four distinct (arch, n_chips)
systems, so distinct batch keys route to distinct worker processes —
driven through the same closed loop at each pool size.  The recorded
``worker_scaling`` block carries the req/s curve, the measured mean
batch size at every width (coalescing must survive sharding), and the
host's usable core count: worker processes buy throughput only up to
the physical cores available, so the >= 2.5x at 4 workers acceptance
gate is enforced only where >= 4 cores exist and the curve is recorded
annotated (not failed) on smaller hosts — see docs/scaling.md.

Writes ``BENCH_serve.json`` at the repo root::

    PYTHONPATH=src python scripts/bench_serve.py [--requests N]

The headline number — batched vs unbatched requests/s at 16 concurrent
clients — is expected to be >= 2x (the acceptance bar for the serving
layer; the script exits 1 below it).
"""

import argparse
import json
import os
import sys
import threading
import time
from pathlib import Path

from repro.obs import configure
from repro.serve import BackgroundServer, ServeClient, ServeConfig

#: Skewed toward sync-heavy workloads (spin/lock fixed points): their
#: solver iterations are exactly the work the batched engine vectorizes,
#: and they are the workloads an SMT-selection service exists for.
WORKLOADS = ("SSCA2", "Fluidanimate", "SPECjbb_contention", "Dedup",
             "Streamcluster", "Daytrader", "EP", "CG")

#: A fixed threshold skips the per-session catalog fit, which would
#: otherwise dominate the first batch and pollute the timing.
SESSION = {"seed": 11, "use_cache": False, "threshold": 0.064}

#: Distinct batch keys for the worker sweep: each (arch, n_chips) pair
#: is its own coalescing group and routes to its own worker, so a pool
#: of up to four workers can be fully busy at once.
MIXED_SYSTEMS = (("p7", 1), ("p7", 2), ("nehalem", 1), ("nehalem", 2))


def usable_cores():
    """Cores this process may actually run on (cgroup/affinity aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def drive(host, port, n_clients, requests_per_client, mixed_keys=False):
    """Closed-loop load: each client fires its requests back to back.

    ``mixed_keys`` spreads the clients over :data:`MIXED_SYSTEMS` so the
    traffic carries four distinct batch keys instead of one.
    """
    barrier = threading.Barrier(n_clients + 1)
    errors = []

    def worker(client_index):
        try:
            with ServeClient(host, port, timeout_s=120.0) as client:
                if mixed_keys:
                    arch, n_chips = MIXED_SYSTEMS[
                        client_index % len(MIXED_SYSTEMS)]
                else:
                    arch, n_chips = "p7", None
                barrier.wait(timeout=30)
                for i in range(requests_per_client):
                    workload = WORKLOADS[(client_index + i) % len(WORKLOADS)]
                    # Distinct seeds keep every request a real solve:
                    # no run-cache or hot-key-cache hit can answer it.
                    seed = 1000 * client_index + i
                    client.predict(workload, arch=arch, n_chips=n_chips,
                                   seed=seed)
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(c,))
               for c in range(n_clients)]
    for t in threads:
        t.start()
    barrier.wait(timeout=30)
    start = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise RuntimeError(f"{len(errors)} client(s) failed: {errors[0]}")
    total = n_clients * requests_per_client
    return total, elapsed


def run_phase(config, n_clients, requests_per_client, mixed_keys=False):
    tracer = configure(enabled=True)
    tracer.reset()
    with BackgroundServer(config) as bg:
        total, elapsed = drive(bg.host, bg.port, n_clients,
                               requests_per_client, mixed_keys=mixed_keys)
    counters = tracer.counters()
    configure(enabled=False)
    tracer.reset()
    batches = counters.get("serve.batches", 0)
    batched_requests = counters.get("serve.batched_requests", 0)
    phase = {
        "clients": n_clients,
        "requests": total,
        "seconds": elapsed,
        "requests_per_s": total / elapsed,
        "batches": int(batches),
        "mean_batch_size": batched_requests / batches if batches else 0.0,
    }
    if config.workers > 1:
        phase["workers"] = config.workers
        phase["worker_batches"] = {
            name.split("serve.worker.", 1)[1].split(".", 1)[0]: int(value)
            for name, value in sorted(counters.items())
            if name.startswith("serve.worker.w") and name.endswith(".batches")
        }
        phase["shed"] = int(counters.get("serve.worker.shed", 0))
        phase["spills"] = int(counters.get("serve.worker.spills", 0))
    return phase


def batched_config():
    return ServeConfig(max_batch=32, max_linger_ms=4.0, session=SESSION)


def unbatched_config():
    return ServeConfig(max_batch=1, max_linger_ms=0.0, session=SESSION)


def pool_config(workers):
    return ServeConfig(max_batch=32, max_linger_ms=4.0, workers=workers,
                       session=SESSION)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=8,
                        help="requests per client per phase")
    parser.add_argument("--workers", default="1,2,4",
                        help="comma-separated pool widths for the worker "
                             "sweep (empty string skips it)")
    parser.add_argument("--output", default=None,
                        help="output path (default: <repo>/BENCH_serve.json)")
    args = parser.parse_args(argv)

    phases = {}
    for label, config, clients in (
        ("single_client_batched", batched_config(), 1),
        ("batched_16_clients", batched_config(), 16),
        ("unbatched_16_clients", unbatched_config(), 16),
    ):
        phases[label] = run_phase(config, clients, args.requests)
        p = phases[label]
        print(f"{label:24s} {p['requests']:4d} requests in "
              f"{p['seconds']:6.2f}s = {p['requests_per_s']:7.1f} req/s "
              f"(mean batch size {p['mean_batch_size']:.1f})")

    speedup = (phases["batched_16_clients"]["requests_per_s"]
               / phases["unbatched_16_clients"]["requests_per_s"])
    print(f"batched vs unbatched @16 clients: {speedup:.2f}x")

    # -- worker-scaling sweep (mixed-key traffic) ----------------------
    cores = usable_cores()
    widths = [int(w) for w in args.workers.split(",") if w.strip()]
    worker_scaling = None
    scaling_failed = False
    if widths:
        worker_phases = {}
        for width in widths:
            label = f"workers_{width}"
            worker_phases[label] = run_phase(
                pool_config(width), 16, args.requests, mixed_keys=True)
            p = worker_phases[label]
            print(f"{label:24s} {p['requests']:4d} requests in "
                  f"{p['seconds']:6.2f}s = {p['requests_per_s']:7.1f} req/s "
                  f"(mean batch size {p['mean_batch_size']:.1f})")
        base = worker_phases.get("workers_1") or worker_phases[
            f"workers_{min(widths)}"]
        top_width = max(widths)
        top = worker_phases[f"workers_{top_width}"]
        scaling = top["requests_per_s"] / base["requests_per_s"]
        cores_limited = cores < top_width
        print(f"workers {top_width} vs 1 (mixed keys): {scaling:.2f}x "
              f"on {cores} usable core(s)")
        worker_scaling = {
            "cpu_cores": cores,
            "phases": worker_phases,
            "speedup_workers_max_vs_1": scaling,
            "top_width": top_width,
            "cores_limited": cores_limited,
        }
        if cores_limited:
            # Worker processes buy throughput only up to the physical
            # cores available (docs/scaling.md): on a smaller host the
            # curve is recorded honestly and annotated, not failed.
            worker_scaling["note"] = (
                f"host exposes {cores} usable core(s); the >= 2.5x at "
                f"{top_width} workers gate needs >= {top_width} cores "
                "and was not enforced"
            )
            print(f"NOTE: {worker_scaling['note']}")
        elif top_width >= 4 and scaling < 2.5:
            scaling_failed = True

    payload = {
        "workloads": list(WORKLOADS),
        "requests_per_client": args.requests,
        "phases": phases,
        "speedup_batched_vs_unbatched_16_clients": speedup,
    }
    if worker_scaling is not None:
        payload["worker_scaling"] = worker_scaling
    out = Path(args.output) if args.output else (
        Path(__file__).resolve().parent.parent / "BENCH_serve.json")
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")

    if speedup < 2.0:
        print(f"FAIL: batched serving is only {speedup:.2f}x unbatched "
              f"(acceptance bar: 2x)", file=sys.stderr)
        return 1
    if scaling_failed:
        print(f"FAIL: {top_width} workers scale only "
              f"{worker_scaling['speedup_workers_max_vs_1']:.2f}x over 1 "
              f"on {cores} cores (acceptance bar: 2.5x)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
