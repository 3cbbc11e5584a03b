"""The four workloads.  Each runs in a fresh child process:

    python -m bench.workloads NAME --seed N --seconds S --trace 0|1 \
        --t-launch T --probe P --workdir DIR --out RESULT.json

Workloads call only public entry points with their default settings:
``repro.api.Session``, ``python -m repro serve`` and
``repro.fleet.simulate_fleet``; only sweep-cold turns the run cache off
(see ``bench/README.md``).  Inputs are made from ``--seed``.  A
run reports set-up time (from ``--t-launch``, the parent's clock
reading just before it started this process, to the first timed call),
the medians of its timed operations, and correctness checks.  Timings
are scaled to the reference host speed of :mod:`bench.hostspeed`;
``--probe`` is the probe the parent took before the launch.  With
``--trace 1`` a run measures half the time untraced and half with the
:mod:`bench.hooks` wrappers installed, and reports per-layer numbers
plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from bench import hooks, hostspeed, metrics
from bench.loadgen import (
    LADDER_FACTOR,
    LADDER_SETTLE_S,
    MAX_LATENESS_P99_S,
    LoadGen,
    PhaseResult,
    Planned,
    Record,
    encode_request,
    ladder_rates,
    poisson_offsets,
    step_verdict,
)
from bench.trace import SEGMENTS, Tracer, highest_tail, percentile, request_segments

clock = time.perf_counter

#: Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 5
#: Root span of one timed operation; its self time is unaccounted.
OP_SPAN = "op"
#: Sweep workloads: (system alias, measurement/high level, low level).
SWEEP_SYSTEMS = (("p7", 4, 1), ("nehalem", 2, 1))
RUNS_PER_SWEEP = 128
MIN_SWEEPS = 100
WARM_SEEDS = 16
#: Paper floors for the Gini-threshold success rate, as the figure
#: tests hold them (paper: 93% for POWER7 SMT4 vs SMT1, 86% for
#: Nehalem SMT2 vs SMT1).
SUCCESS_FLOOR = {"p7": 0.89, "nehalem": 0.80}
REF_SAMPLES = 32
REL_TOL = 1e-9
FLEET = dict(chips=1000, jobs=10000, arch_mix="power7:3,nehalem:1",
             policy="smtsm", severity=0.2)
MIN_FLEET_RUNS = 5
#: The low rate keeps the single handler thread mostly idle, so the
#: phase measures per-request overhead: at 150 req/s it was 25-40% busy
#: and queueing made latency swing with host speed far more than the
#: work did.
SERVE_LOW_RATE = 75.0
SERVE_HIGH_RATE = 300.0
MIN_PHASE_REQUESTS = 1000
SERVE_CHECK_SAMPLES = 64
SERVE_SEED = 11             # the server's default session seed


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def rel_diff(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0 else abs(a - b) / scale


def _tail(durations_s: Sequence[float]) -> Dict[str, Any]:
    found = highest_tail(list(durations_s))
    out: Dict[str, Any] = {"n": len(durations_s)}
    if found is not None:
        out[f"p{found[0]:g}_ms"] = found[1] * 1e3
    return out


class Result:
    """What one workload run reports back to ``python -m bench run``."""

    def __init__(self):
        self.setup: List[float] = []          # scaled to the reference speed
        self.raw_setup: List[float] = []
        self.end_to_end: Dict[str, Dict[str, Any]] = {}
        self.layers: Dict[str, float] = {}
        self.counters: Dict[str, Any] = {}
        self.checks: Dict[str, Dict[str, Any]] = {}
        self.attempted = 0
        self.failed = 0

    def metric(self, name: str, value: float, n: int) -> None:
        unit, better = metrics.E2E[name]
        self.end_to_end[name] = {"value": value, "unit": unit, "better": better, "n": n}

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks[name] = {"ok": bool(ok), "detail": detail}

    def add_setup(self, elapsed_s: float, *probes: float) -> None:
        self.raw_setup.append(elapsed_s)
        self.setup.append(hostspeed.scale(elapsed_s, *probes))

    def payload(self, traced: bool) -> Dict[str, Any]:
        if not traced:
            self.metric("setup_s", statistics.median(self.setup), len(self.setup))
            self.counters["raw_setup_s"] = statistics.median(self.raw_setup)
            self.metric("fail_frac", self.failed / max(1, self.attempted), self.attempted)
        return {
            "end_to_end": self.end_to_end,
            "layers": self.layers,
            "counters": self.counters,
            "checks": self.checks,
            "attempted": self.attempted,
            "failed": self.failed,
            "correct": all(c["ok"] for c in self.checks.values()),
        }


# -- closed loops and layer accounting -----------------------------------

def closed_loop(op: Callable[[int], Any], seconds: float, min_ops: int,
                after: Callable[[int, Any], None], start: int = 0,
                tracer: Optional[Tracer] = None) -> Tuple[List[float], List[float], float]:
    """One caller: run ``op(i)`` back to back for ``seconds`` (and at
    least ``min_ops`` times); ``after(i, result)`` runs untimed.

    Returns the raw durations, the durations scaled by the host-speed
    probes taken just before and just after each operation, and the
    peak RSS once ``min_ops`` operations have run: read at a fixed
    amount of work, it does not grow with the extra operations a faster
    host fits into ``seconds``.
    """
    raw: List[float] = []
    scaled: List[float] = []
    rss = 0.0
    deadline = clock() + seconds
    before = hostspeed.probe()
    i = start
    while clock() < deadline or len(raw) < min_ops:
        t0 = clock()
        if tracer is None:
            out = op(i)
        else:
            with tracer.span(OP_SPAN):
                out = op(i)
        duration = clock() - t0
        after(i, out)
        probe = hostspeed.probe()
        raw.append(duration)
        scaled.append(hostspeed.scale(duration, before, probe))
        before = probe
        i += 1
        if len(raw) == min_ops:
            rss = peak_rss_mb()
    return raw, scaled, rss


def layer_metrics(window: Dict[str, Any], ops: int,
                  setup: Optional[Dict[str, Any]] = None) -> Dict[str, float]:
    """Per-layer metrics per operation of a traced window.

    ``*.self_s`` and ``*.calls`` are per operation (one sweep, one
    request, one fleet run); the set-up layers ``api.fit`` and
    ``fleet.perfmodel`` are seconds spent once, during set-up.
    Metrics of layers a workload never reaches read 0.
    """
    spans, tallies = window["spans"], window["tallies"]
    out = {name: 0.0 for name in metrics.PER_LAYER}

    def span(name: str, field: str, snap: Dict[str, Any] = window) -> float:
        return snap["spans"].get(name, {}).get(field, 0.0)

    for name in metrics.SPAN_LAYERS:
        out[f"{name}.self_s"] = span(name, "self_s") / ops
    for name in ("runcache.get", "runcache.put", "sim.kernel"):
        out[f"{name}.calls"] = span(name, "calls") / ops
    for metric, tally in (("runcache.hit_ratio", "runcache.hit"),
                          ("sim.runs_per_call", "sim.runs")):
        acc = tallies.get(tally)
        if acc and acc["calls"]:
            out[metric] = acc["items"] / acc["calls"]
    if setup is not None:
        for name in metrics.SETUP_LAYERS:
            out[f"{name}.self_s"] = span(name, "self_s", setup)
    root = spans.get(OP_SPAN)
    if root and root["total_s"] > 0:
        out["trace.unaccounted_frac"] = root["self_s"] / root["total_s"]
    return out


def run_ops(ctx: argparse.Namespace, result: Result, op: Callable[[int], Any],
            after: Callable[[int, Any], None], *, min_ops: int, rate: str,
            work_per_op: float, install: Callable[[Tracer], None],
            setup_snapshot: Optional[Dict[str, Any]] = None) -> None:
    """Measure ``op`` in a closed loop and report ``rate`` (work per
    second) and ``op_ms``; in trace mode, measure half the time untraced
    and half traced, and report the layers and the tracing overhead."""
    if not ctx.trace:
        raw, scaled, rss = closed_loop(op, ctx.seconds, min_ops, after)
        median_s = statistics.median(scaled)
        result.metric(rate, work_per_op / median_s, len(scaled))
        result.counters["op_ms"] = median_s * 1e3
        result.counters["raw_op_ms"] = statistics.median(raw) * 1e3
        result.counters["op_tail"] = _tail(scaled)
        result.metric("peak_rss_mb", rss, min_ops)
        result.counters["peak_rss_mb_at_end"] = peak_rss_mb()
        return
    min_ops = max(3, min_ops // 5)
    _, plain, _ = closed_loop(op, ctx.seconds / 2, min_ops, after)
    tracer = Tracer()
    install(tracer)
    try:
        _, traced, _ = closed_loop(op, ctx.seconds / 2, min_ops, after,
                                   start=len(plain), tracer=tracer)
    finally:
        tracer.uninstall()
    result.layers = layer_metrics(tracer.snapshot(), len(traced), setup_snapshot)
    result.layers["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0)
    result.counters["untraced_op_ms"] = statistics.median(plain) * 1e3
    result.counters["traced_op_ms"] = statistics.median(traced) * 1e3
    result.counters["traced_ops"] = len(traced)


def ready(ctx: argparse.Namespace, result: Result) -> None:
    """The process can take its first timed call: record set-up time
    and, outside trace mode, repeat set-up in fresh processes."""
    elapsed = clock() - ctx.t_launch
    result.add_setup(elapsed, ctx.probe, hostspeed.probe())
    if ctx.setup_only:
        raise SetupDone()
    if not ctx.trace:
        for _ in range(SETUP_REPEATS - 1):
            out = Path(ctx.workdir) / "setup-probe.json"
            probe = hostspeed.probe()
            t_launch = clock()
            subprocess.run(
                [sys.executable, "-m", "bench.workloads", ctx.name, "--setup-only",
                 "--seed", str(ctx.seed), "--t-launch", repr(t_launch),
                 "--probe", repr(probe), "--workdir", ctx.workdir, "--out", str(out)],
                check=True, timeout=120,
            )
            probed = json.loads(out.read_text())
            result.setup.append(probed["setup_s"])
            result.raw_setup.append(probed["raw_setup_s"])


class SetupDone(Exception):
    """Raised by :func:`ready` in ``--setup-only`` processes."""


# -- sweep workloads -------------------------------------------------------

def _sweep(api, seed: int, use_cache: bool):
    return [api.Session(alias, seed=seed, use_cache=use_cache).sweep()
            for alias, _, _ in SWEEP_SYSTEMS]


def _digest(runs_pair) -> str:
    rows = []
    for runs in runs_pair:
        for name, by_level in sorted(runs.runs.items()):
            for level, r in sorted(by_level.items()):
                rows.append([name, level, r.times.wall_time_s, r.times.total_cpu_s,
                             sorted(r.events.items()), list(r.per_thread_ipc)])
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _result_fields(r) -> Dict[str, float]:
    fields = {
        "wall_time_s": r.times.wall_time_s, "serial_time_s": r.times.serial_time_s,
        "parallel_time_s": r.times.parallel_time_s, "total_cpu_s": r.times.total_cpu_s,
        "spin_fraction": r.spin_fraction, "blocked_fraction": r.blocked_fraction,
        "mem_latency_mult": r.mem_latency_mult, "mem_utilization": r.mem_utilization,
        "dispatch_held_fraction": r.dispatch_held_fraction,
    }
    fields.update({f"event.{k}": v for k, v in r.events.items()})
    fields.update({f"ipc.{i}": v for i, v in enumerate(r.per_thread_ipc)})
    return fields


def _reference_check(result: Result, seed: int, samples: Dict[Tuple, Any]) -> None:
    """Re-solve sampled runs with the serial reference engine."""
    from repro.sim.engine import DEFAULT_WORK, RunSpec, simulate_run
    from repro.workloads import all_workloads

    catalog = all_workloads()
    worst = 0.0
    for (i, _, name, level), (system, got) in samples.items():
        spec = catalog[name]
        ref = simulate_run(RunSpec(system=system, smt_level=level, stream=spec.stream,
                                   sync=spec.sync, useful_instructions=DEFAULT_WORK,
                                   seed=seed + i))
        want, have = _result_fields(ref), _result_fields(got)
        if want.keys() != have.keys():
            worst = float("inf")
            break
        worst = max([worst] + [rel_diff(want[k], have[k]) for k in want])
    result.check("reference_resolve", bool(samples) and worst <= REL_TOL,
                 f"{len(samples)} runs vs simulate_run, max rel diff {worst:.3g}")


def sweep_cold(ctx: argparse.Namespace, result: Result) -> None:
    import repro.api as api
    from repro.experiments.runner import scatter_from_runs

    ready(ctx, result)
    rng = random.Random(ctx.seed)
    aliases = [alias for alias, _, _ in SWEEP_SYSTEMS]
    # Runs re-solved by the reference: (sweep, system, workload, level),
    # drawn once the first sweep shows the catalog.
    wanted: set = set()
    samples: Dict[Tuple, Any] = {}
    success: Dict[str, List[float]] = {alias: [] for alias in aliases}

    # The run cache is off: see "sweep-cold and the run cache" in
    # bench/README.md.
    def op(i: int):
        return _sweep(api, ctx.seed + i, use_cache=False)

    def after(i: int, runs_pair) -> None:
        result.attempted += RUNS_PER_SWEEP
        for (alias, high, low), runs in zip(SWEEP_SYSTEMS, runs_pair):
            result.failed += len(runs.failures)
            if i == 0:
                for _ in range(REF_SAMPLES // len(SWEEP_SYSTEMS)):
                    wanted.add((rng.randrange(20), alias, rng.choice(sorted(runs.runs)),
                                rng.choice(runs.levels())))
            if i < MIN_SWEEPS:
                scatter = scatter_from_runs(runs, title=alias, measure_level=high,
                                            high_level=high, low_level=low)
                success[alias].append(scatter.success().success_rate)
        for key in wanted:
            if key[0] == i:
                runs = runs_pair[aliases.index(key[1])]
                samples[key] = (runs.system, runs.runs[key[2]][key[3]])

    run_ops(ctx, result, op, after, min_ops=MIN_SWEEPS, rate="runs_per_s",
            work_per_op=RUNS_PER_SWEEP, install=hooks.install_core)
    means = {alias: statistics.fmean(rates) for alias, rates in success.items()}
    if not ctx.trace:
        rates = [rate for alias in aliases for rate in success[alias]]
        result.metric("smtsm_success", statistics.fmean(rates), len(rates))
    result.check("smtsm_success_floor",
                 all(means[alias] >= floor for alias, floor in SUCCESS_FLOOR.items()),
                 ", ".join(f"{alias} {means[alias]:.4f} (floor {floor})"
                           for alias, floor in SUCCESS_FLOOR.items()))
    _reference_check(result, ctx.seed, samples)
    result.check("no_failed_runs", result.failed == 0,
                 f"{result.failed} CatalogRuns.failures entries")


def sweep_warm(ctx: argparse.Namespace, result: Result) -> None:
    import repro.api as api

    ready(ctx, result)
    # Preparation, neither timed nor set-up: fill the run cache.
    digests = [_digest(_sweep(api, ctx.seed + k, use_cache=True))
               for k in range(WARM_SEEDS)]
    mismatches = []

    def op(i: int):
        return _sweep(api, ctx.seed + i % WARM_SEEDS, use_cache=True)

    def after(i: int, runs_pair) -> None:
        result.attempted += RUNS_PER_SWEEP
        result.failed += sum(len(runs.failures) for runs in runs_pair)
        if _digest(runs_pair) != digests[i % WARM_SEEDS]:
            mismatches.append(i)

    run_ops(ctx, result, op, after, min_ops=MIN_SWEEPS, rate="runs_per_s",
            work_per_op=RUNS_PER_SWEEP, install=hooks.install_core)
    result.check("warm_digest", not mismatches,
                 f"{len(mismatches)} warm sweeps differ from the cold fill "
                 f"({WARM_SEEDS} seeds)")
    result.check("no_failed_runs", result.failed == 0,
                 f"{result.failed} CatalogRuns.failures entries")


# -- fleet workload ----------------------------------------------------------

def _install_fleet(tracer: Tracer) -> None:
    hooks.install_core(tracer)
    hooks.install_fleet(tracer)


def fleet_smtsm(ctx: argparse.Namespace, result: Result) -> None:
    from repro.fleet import simulate_fleet

    tracer = None
    if ctx.trace:
        tracer = Tracer()
        _install_fleet(tracer)
    # Set-up builds the memoized perf model (one mega-batch solve) that
    # every timed run reuses.
    simulate_fleet(**dict(FLEET, chips=8, jobs=200), seed=ctx.seed)
    setup_snapshot = None
    if tracer is not None:
        setup_snapshot = tracer.snapshot()
        tracer.uninstall()
    ready(ctx, result)
    first: List[Any] = []

    def op(i: int):
        try:
            return simulate_fleet(**FLEET, seed=ctx.seed + i)
        except RuntimeError as exc:          # settlement broken
            return exc

    def after(i: int, out) -> None:
        result.attempted += 1
        if isinstance(out, RuntimeError) or not out.settled:
            result.failed += 1
        elif i == 0:
            first.append(out.payload())

    run_ops(ctx, result, op, after, min_ops=MIN_FLEET_RUNS, rate="jobs_per_s",
            work_per_op=FLEET["jobs"], install=_install_fleet,
            setup_snapshot=setup_snapshot)
    repeat = simulate_fleet(**FLEET, seed=ctx.seed).payload()
    result.check("repeat_identical", first == [repeat],
                 "a second run with the first seed gives an identical payload")
    result.check("all_settled", result.failed == 0,
                 f"{result.failed} of {result.attempted} runs unsettled")


# -- serve workload ----------------------------------------------------------

class Server:
    """One ``repro serve`` subprocess (optionally traced), started and
    always stopped and waited for."""

    def __init__(self, ctx: argparse.Namespace, tag: str, traced: bool):
        self.cache = Path(ctx.workdir) / f"cache-{tag}"
        self.layers_out = Path(ctx.workdir) / f"layers-{tag}.json"
        args = ["--port", "0"]
        if traced:
            cmd = [sys.executable, "-m", "bench.hooks", "serve",
                   "--out", str(self.layers_out), "--", *args]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", *args]
        env = dict(os.environ, REPRO_RUNCACHE_DIR=str(self.cache))
        self.output = ""
        self.t_launch = clock()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
        line = self.proc.stdout.readline()
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.host, port = line.split()[2].rsplit(":", 1)
        self.port = int(port)

    def stop(self) -> str:
        """SIGINT (graceful drain), wait, and return the rest of stdout."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            rest, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            rest, _ = self.proc.communicate()
        self.output = rest or ""
        return self.output

    def exit_line(self) -> Tuple[str, Dict[str, int]]:
        """The ``stopped admitted=N settled=N`` line and its counts."""
        for line in self.output.splitlines():
            if line.startswith("stopped "):
                return line, {k: int(v) for k, v in
                              (kv.split("=") for kv in line.split()[1:])}
        return "no exit line", {}


class ServePlan:
    """Seeded request mix: 60% fresh predicts, 30% hot predicts, 10% score."""

    def __init__(self, seed: int, names: Dict[str, List[str]],
                 score_pool: Dict[str, List[Dict[str, Any]]]):
        self.rng = random.Random(seed)
        self.names = names
        self.score_pool = score_pool
        self.next_seed = (seed % 1000) * 1_000_000 + 1
        hot_archs = ["p7"] * 6 + ["nehalem"] * 2
        self.hot = [(self.rng.choice(names[a]), a) for a in hot_archs]
        self.params: Dict[str, Tuple[str, Dict[str, Any]]] = {}

    def fresh_seed(self) -> int:
        self.next_seed += 1
        return self.next_seed

    def _arch(self) -> str:
        return "p7" if self.rng.random() < 0.75 else "nehalem"

    def phase(self, tag: str, rate: float, n: int) -> List[Planned]:
        rng = self.rng
        plan = []
        for k, offset in enumerate(poisson_offsets(rng, rate, n)):
            rid = f"{tag}-{k}"
            u = rng.random()
            if u < 0.6:
                arch = self._arch()
                kind, op = "fresh", "predict"
                params = {"workload": rng.choice(self.names[arch]), "arch": arch,
                          "seed": self.fresh_seed()}
            elif u < 0.9:
                workload, arch = rng.choice(self.hot)
                kind, op = "hot", "predict"
                params = {"workload": workload, "arch": arch}
            else:
                arch = self._arch()
                kind, op = "score", "score"
                params = dict(rng.choice(self.score_pool[arch]), arch=arch)
            self.params[rid] = (op, params)
            plan.append(Planned(rid, kind, offset, encode_request(rid, op, params)))
        return plan


def _serve_inputs(seed: int):
    """Workload names and score payloads, from a sweep at ``seed``."""
    import repro.api as api

    names: Dict[str, List[str]] = {}
    pool: Dict[str, List[Dict[str, Any]]] = {}
    for alias, _, _ in SWEEP_SYSTEMS:
        runs = api.Session(alias, seed=seed, use_cache=False).sweep()
        names[alias] = sorted(runs.runs)
        pool[alias] = [
            {"events": dict(r.events), "smt_level": r.smt_level,
             "wall_time_s": r.times.wall_time_s,
             "avg_thread_cpu_s": r.times.avg_thread_cpu_s,
             "n_software_threads": r.n_threads}
            for by_level in runs.runs.values() for r in by_level.values()
        ]
    return names, pool


async def _warm_up(lg: LoadGen, plan: ServePlan, tag: str) -> None:
    """First predict per system: fits its threshold (set-up work)."""
    for alias, _, _ in SWEEP_SYSTEMS:
        reply = await lg.call(f"{tag}-warm-{alias}", "predict", {
            "workload": plan.names[alias][0], "arch": alias,
            "seed": plan.fresh_seed()})
        if not reply.get("ok"):
            raise RuntimeError(f"warm-up predict failed: {reply}")


def _low_requests(seconds: float) -> int:
    return max(MIN_PHASE_REQUESTS, round(SERVE_LOW_RATE * 0.7 * seconds))


def _high_requests(seconds: float) -> int:
    return max(MIN_PHASE_REQUESTS, round(SERVE_HIGH_RATE * 0.15 * seconds))


class Phase:
    """One fixed-rate phase and the host-speed factor from the probes the
    client took while it ran."""

    def __init__(self, result: PhaseResult):
        self.result = result
        self.factor = hostspeed.scale(1.0, statistics.median(result.samples))

    def scaled(self) -> List[float]:
        return [r.latency * self.factor for r in self.result.answered()]


class ServerLife:
    """One server lifetime: start, warm up (set-up), then either
    fixed-rate phases or the capacity ladder, then stop."""

    def __init__(self, ctx: argparse.Namespace, loop: asyncio.AbstractEventLoop,
                 plan: ServePlan, tag: str, traced: bool):
        self.ctx, self.loop, self.plan, self.tag = ctx, loop, plan, tag
        self.phases: Dict[str, Phase] = {}
        self.steps: List[Dict[str, Any]] = []
        self.sent = len(SWEEP_SYSTEMS) + traced      # warm-up and reset
        before = hostspeed.probe()
        self.server = Server(ctx, tag, traced)
        try:
            self.lg = LoadGen(self.server.host, self.server.port)
            loop.run_until_complete(self.lg.open())
            loop.run_until_complete(_warm_up(self.lg, plan, tag))
            self.setup_s = clock() - self.server.t_launch
            self.setup_probes = (before, hostspeed.probe())
            if traced:
                loop.run_until_complete(
                    self.lg.call(f"{tag}-reset", "ping", hooks.RESET_PARAMS))
        except BaseException:
            self.server.stop()
            raise

    def _phase(self, name: str, rate: float, n: int, **kwargs) -> PhaseResult:
        self.sent += n
        return self.loop.run_until_complete(
            self.lg.run(self.plan.phase(f"{self.tag}-{name}", rate, n), **kwargs))

    def _stop(self) -> None:
        try:
            self.loop.run_until_complete(self.lg.close())
        finally:
            self.server.stop()

    def run(self, phases: Sequence[Tuple[str, float, int]]) -> None:
        try:
            for name, rate, n in phases:
                self.phases[name] = Phase(self._phase(
                    name, rate, n, settle_s=30.0, sample=lambda: hostspeed.probe(1)))
        finally:
            self._stop()

    def ladder(self, start: float) -> None:
        """Raise the rate from ``start`` by LADDER_FACTOR until a step fails."""
        try:
            for rate in ladder_rates(start):
                n = max(MIN_PHASE_REQUESTS, round(rate * 0.05 * self.ctx.seconds))
                step = self._phase(f"r{rate:g}", rate, n, settle_s=LADDER_SETTLE_S)
                passed, why = step_verdict(step)
                self.steps.append({"rate": rate, "n": n, "passed": passed, "why": why})
                if not passed:
                    break
        finally:
            self._stop()


def _phase_counters(phases: Sequence[Phase]) -> Dict[str, Any]:
    merged = PhaseResult([r for p in phases for r in p.result.records], 0.0)
    late = merged.lateness_p99()
    raw = [r.latency for r in merged.answered()]
    return dict(_tail([v for p in phases for v in p.scaled()]),
                raw_p50_ms=statistics.median(raw) * 1e3, lateness_p99_ms=late * 1e3,
                valid=late <= MAX_LATENESS_P99_S, sent=len(merged.records),
                failed=merged.failed())


def serve_mixed(ctx: argparse.Namespace, result: Result) -> None:
    names, pool = _serve_inputs(ctx.seed)
    plan = ServePlan(ctx.seed, names, pool)
    loop = asyncio.new_event_loop()
    try:
        if ctx.trace:
            records, lives = _serve_traced(ctx, loop, plan, result)
        else:
            records, lives = _serve_measured(ctx, loop, plan, result)
    finally:
        loop.close()
    result.attempted = len(records)
    result.failed = sum(1 for r in records if not r.ok)
    # The single-worker server admits every request it answers (its
    # hot-key cache is a pool-mode feature); a fixed-rate request
    # answered before admission would show here.  The ladder's last
    # step may be shed on purpose and is left out.
    unadmitted = 0
    for life in lives:
        line, counts = life.server.exit_line()
        result.check(f"admitted_settled.{life.server.cache.name}",
                     bool(counts) and counts["admitted"] == counts["settled"], line)
        if life.phases:
            unadmitted += life.sent - counts.get("admitted", 0)
    result.counters["answered_before_admission"] = unadmitted
    _serve_checks(result, plan, records, ctx.seed)
    result.check("no_failed_requests", result.failed == 0,
                 f"{result.failed} of {result.attempted} fixed-rate requests failed")


def _serve_measured(ctx, loop, plan: ServePlan, result: Result):
    """SETUP_REPEATS fresh servers, each on an empty run cache.  The low
    phase is spread over all of them, so its median is not one
    process's; the last one also runs the high phase.  The ladder then
    climbs on a server of its own, so that its length, which varies,
    does not move peak_rss_mb."""
    per_server = -(-_low_requests(ctx.seconds) // SETUP_REPEATS)
    lives = []
    for k in range(SETUP_REPEATS):
        life = ServerLife(ctx, loop, plan, f"s{k}", traced=False)
        phases = [("low", SERVE_LOW_RATE, per_server)]
        if k == SETUP_REPEATS - 1:
            phases.append(("high", SERVE_HIGH_RATE, _high_requests(ctx.seconds)))
        life.run(phases)
        result.add_setup(life.setup_s, *life.setup_probes)
        lives.append(life)
    result.metric("peak_rss_mb", peak_rss_mb(resource.RUSAGE_CHILDREN), 1)
    high = lives[-1].phases["high"]
    for name, phases in (("low", [life.phases["low"] for life in lives]),
                         ("high", [high])):
        scaled = [v for p in phases for v in p.scaled()]
        result.metric(f"p50_ms.{name}", statistics.median(scaled) * 1e3, len(scaled))
        result.counters[f"phase.{name}"] = _phase_counters(phases)
    result.counters["op_ms"] = result.end_to_end["p50_ms.low"]["value"]
    # The high phase is the ladder's first step.
    passed, why = step_verdict(high.result)
    steps = [{"rate": SERVE_HIGH_RATE, "n": len(high.result.records),
              "passed": passed, "why": why}]
    records = [r for life in lives for p in life.phases.values() for r in p.result.records]
    if passed:
        climber = ServerLife(ctx, loop, plan, "ladder", traced=False)
        climber.ladder(SERVE_HIGH_RATE * LADDER_FACTOR)
        steps += climber.steps
        lives.append(climber)
    top = [s["rate"] for s in steps if s["passed"]]
    result.metric("max_rps", max(top) if top else 0.0, len(steps))
    result.counters["ladder"] = steps
    return records, lives


def _serve_traced(ctx, loop, plan: ServePlan, result: Result):
    """One untraced and one traced server, each running both fixed-rate
    phases for half the time; the low-phase medians give the overhead."""
    phases = [("low", SERVE_LOW_RATE, _low_requests(ctx.seconds / 2)),
              ("high", SERVE_HIGH_RATE, _high_requests(ctx.seconds / 2))]
    plain = ServerLife(ctx, loop, plan, "plain", traced=False)
    plain.run(phases)
    traced = ServerLife(ctx, loop, plan, "traced", traced=True)
    traced.run(phases)
    traced_records = [r for p in traced.phases.values() for r in p.result.records]
    result.layers, shares = _serve_layers(traced.server.layers_out, traced_records)
    plain_ms = statistics.median(plain.phases["low"].scaled()) * 1e3
    traced_ms = statistics.median(traced.phases["low"].scaled()) * 1e3
    result.layers["trace.overhead_frac"] = traced_ms / plain_ms - 1.0
    result.counters["untraced_op_ms"] = plain_ms
    result.counters["traced_op_ms"] = traced_ms
    result.counters["latency_split"] = shares
    plain_records = [r for p in plain.phases.values() for r in p.result.records]
    return plain_records + traced_records, [plain, traced]


def _serve_checks(result: Result, plan: ServePlan, records: List[Record],
                  seed: int) -> None:
    import repro.api as api

    rng = random.Random(seed + 1)
    predicts = [r for r in records if r.ok and plan.params[r.rid][0] == "predict"]
    scores = [r for r in records if r.ok and plan.params[r.rid][0] == "score"]
    sessions = {alias: api.Session(alias, seed=SERVE_SEED, use_cache=False)
                for alias, _, _ in SWEEP_SYSTEMS}
    worst, level_mismatch = 0.0, 0
    sample = rng.sample(predicts, min(SERVE_CHECK_SAMPLES, len(predicts)))
    for record in sample:
        params = plan.params[record.rid][1]
        want = sessions[params["arch"]].predict(params["workload"], seed=params.get("seed"))
        got = record.reply["result"]
        worst = max(worst, rel_diff(want.smtsm, got["smtsm"]),
                    rel_diff(want.wall_time_s, got["wall_time_s"]))
        level_mismatch += want.recommended_level != got["recommended_level"]
    result.check("predict_matches_inprocess",
                 bool(sample) and worst <= REL_TOL and level_mismatch == 0,
                 f"{len(sample)} predicts, max rel diff {worst:.3g}, "
                 f"{level_mismatch} level mismatches")
    worst = 0.0
    sample = rng.sample(scores, min(SERVE_CHECK_SAMPLES, len(scores)))
    for record in sample:
        params = dict(plan.params[record.rid][1])
        arch = params.pop("arch")
        want = sessions[arch].score_counters(params.pop("events"), **params)
        worst = max(worst, rel_diff(want.value, record.reply["result"]["smtsm"]))
    result.check("score_matches_inprocess", bool(sample) and worst <= REL_TOL,
                 f"{len(sample)} scores, max rel diff {worst:.3g}")


def _serve_layers(window_file: Path, records: List[Record]):
    """Per-layer metrics of a traced server window, stitched with the
    client's records; plus each timeline segment's share of latency."""
    data = json.loads(window_file.read_text())
    stamps = data["stamps"]
    n = len(records)
    layers = layer_metrics(data["window"], n, data["setup"])
    batch = data["window"]["tallies"].get("serve.batch")
    if batch and batch["calls"]:
        layers["serve.dispatch.calls"] = batch["calls"] / n
        layers["serve.batch_size.mean"] = batch["items"] / batch["calls"]
    split: Dict[str, List[float]] = {seg: [] for seg in SEGMENTS}
    total = unaccounted = 0.0
    for record in records:
        if record.recv is None:
            continue
        total += record.latency
        times = stamps.get(record.rid)
        if times is None:
            unaccounted += record.latency
            continue
        for seg, value in request_segments(times, record.latency, record.lateness).items():
            split[seg].append(value)
    for seg, key in (("queue_wait", "serve.queue_wait_ms"), ("deliver", "serve.deliver_ms"),
                     ("transport", "serve.transport_ms")):
        if split[seg]:
            layers[f"{key}.p50"] = statistics.median(split[seg]) * 1e3
    if split["queue_wait"]:
        layers["serve.queue_wait_ms.p95"] = percentile(split["queue_wait"], 95) * 1e3
    layers["trace.unaccounted_frac"] = unaccounted / total if total else 1.0
    shares = {seg: sum(v) / total for seg, v in split.items()} if total else {}
    return layers, shares


# -- entry point ---------------------------------------------------------------

WORKLOADS = {
    "sweep-cold": sweep_cold,
    "sweep-warm": sweep_warm,
    "serve-mixed": serve_mixed,
    "fleet-smtsm": fleet_smtsm,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.workloads")
    parser.add_argument("name", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t-launch", type=float, required=True)
    parser.add_argument("--probe", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    ctx = parser.parse_args(argv)
    result = Result()
    try:
        WORKLOADS[ctx.name](ctx, result)
    except SetupDone:
        Path(ctx.out).write_text(json.dumps(
            {"setup_s": result.setup[0], "raw_setup_s": result.raw_setup[0]}))
        return 0
    Path(ctx.out).write_text(json.dumps(result.payload(bool(ctx.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
