"""The sharded worker tier: a process pool behind the micro-batcher.

One asyncio dispatcher process owns admission and coalescing; the
solves run in ``workers`` child processes, so the GIL stops being the
serving ceiling (see ``docs/scaling.md`` for the full architecture and
the capacity model)::

    MicroBatcher ──group──▶ WorkerPool.dispatch(key, payloads)
                               │  route by batch key
                    ┌──────────┼──────────┐
                 worker 0   worker 1   worker N-1     (processes)
                    └── handlers → repro.api → solver ─┘

Three properties the pool preserves:

* **Coalescing survives sharding.**  A dispatched group — requests that
  share one batch key, i.e. one ``(op, arch, n_chips)`` system — is
  shipped to exactly one worker and answered by one vectorized
  ``predict_many`` call there.  Batches are never split across workers.
* **Affinity routing.**  A batch key is pinned to a preferred worker
  the first time it is seen (round-robin over workers), so repeated
  traffic for one system keeps hitting that worker's warm session
  (fitted thresholds, serial-rate memo).  When the
  preferred worker is busy and another is strictly less loaded, the
  group *spills* to the least-loaded worker (``serve.worker.spills``) —
  hot single-key traffic pipelines across the pool instead of queueing
  behind one process.
* **Crash containment.**  A worker that dies mid-job fails only its
  in-flight jobs (with :class:`WorkerCrashed`, which the batcher's
  ``RetryPolicy`` retries) and is respawned immediately
  (``serve.worker.restarts``); the service never goes down with a
  worker.  A worker that is alive but *silent* — hung on a job past
  ``hang_timeout_s`` — is detected by the
  :class:`repro.serve.watchdog.WorkerWatchdog`, which fails its jobs
  with retryable :class:`WorkerHung` and kills it so the same respawn
  path takes over.  Workers that crash repeatedly inside
  ``restart_window_s`` blow their ``restart_budget`` and are
  *quarantined*: still respawned, but routed around for an
  exponentially growing re-admit interval
  (``serve.watchdog.quarantines``).

Two more supervision hooks run through the pool:

* **Deadline propagation.**  ``dispatch`` ships each request's absolute
  monotonic deadline with the job; the worker answers already-expired
  positions with the :data:`EXPIRED` sentinel instead of solving them
  (``serve.worker.deadline_abandoned``) — work whose client has already
  timed out never reaches a solver.
* **Chaos injection.**  A :class:`repro.faults.ChaosConfig` handed to
  the pool is executed *inside* each worker by a seeded
  :class:`repro.faults.ChaosPlan` (hangs, crashes, slow jobs, response
  corruption); the dispatcher-side :func:`validate_results` shape check
  turns corrupted responses into retryable :class:`CorruptResponse`.

Per-worker **queue-depth accounting** (``inflight_requests``) feeds the
server's admission control: when the routed worker already holds
``max_inflight_per_worker`` requests, new arrivals for that key are
shed with ``overloaded`` + ``retry_after_ms`` before they are admitted
(``serve.worker.shed``) — backpressure sized for thousands of
connections instead of an unbounded dispatcher backlog.

Workers ship the counter deltas they accumulate per job (run-cache
hits, table solves, schema mismatches...) back with each response; the
dispatcher merges them into its own tracer, so ``repro stats`` sees one
coherent picture across the whole tier.

:class:`HotKeyCache` is the dispatcher-side LRU over *response
payloads* for deterministic operations (``predict``/``score``): a
popular prediction is answered before admission, reaching no worker
and no solver at all, whichever worker computed it first.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import multiprocessing
import sys
import threading
import time
import traceback
import warnings
from collections import OrderedDict
from typing import Any, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.obs import get_tracer
from repro.util.config import env_str

__all__ = [
    "CorruptResponse",
    "EXPIRED",
    "HotKeyCache",
    "WorkerCrashed",
    "WorkerHung",
    "WorkerPool",
    "default_start_method",
    "dispatch_batch",
    "validate_results",
]

#: Environment override for the pool's multiprocessing start method.
ENV_START_METHOD = "REPRO_SERVE_MP"


def default_start_method() -> str:
    """``fork`` where available (fast, shares the warm import state),
    ``spawn`` elsewhere; override with ``REPRO_SERVE_MP=spawn|fork``."""
    env = env_str(ENV_START_METHOD).lower()
    if env in ("fork", "spawn", "forkserver"):
        return env
    return "fork" if sys.platform.startswith("linux") else "spawn"


class WorkerCrashed(Exception):
    """A worker process died with this job in flight (retryable)."""


class WorkerHung(Exception):
    """The watchdog declared this job's worker hung (retryable)."""


class CorruptResponse(Exception):
    """A worker answered with a malformed result batch (retryable)."""


#: Sentinel a worker returns in place of a result whose client deadline
#: had already passed when the job reached it.  Handlers only ever
#: return mappings, so a module-qualified marker string is unambiguous
#: on the wire (and picklable, unlike a sentinel object identity).
EXPIRED = "__repro.serve.expired__"


def validate_results(key: Hashable, results: Any, expected: int) -> List[Any]:
    """Check a worker's result batch for shape before it is fanned out.

    A well-formed response is a list with one element per payload, each
    element a mapping (every handler returns dicts) or the
    :data:`EXPIRED` deadline sentinel.  Anything else — a short batch
    from a torn frame, junk bodies from a corrupted write — raises
    :class:`CorruptResponse`, which the batcher's retry policy treats
    as retryable (the re-dispatch re-solves; handlers are pure).
    """
    if not isinstance(results, list) or len(results) != expected:
        got = len(results) if isinstance(results, list) else type(results).__name__
        get_tracer().add("serve.worker.corrupt_responses")
        raise CorruptResponse(
            f"group {key!r}: expected {expected} results, got {got}"
        )
    for item in results:
        if item == EXPIRED or isinstance(item, Mapping):
            continue
        get_tracer().add("serve.worker.corrupt_responses")
        raise CorruptResponse(
            f"group {key!r}: malformed result of type {type(item).__name__}"
        )
    return results


def dispatch_batch(key: Hashable, payloads: Sequence[Any],
                   defaults: Optional[Mapping[str, Any]]) -> List[Any]:
    """Route one coalesced group to its handler.

    This is the single dispatch routine shared by the in-process
    executor path (``workers=1``) and every pool worker: the op is the
    first element of the batch key, ``defaults`` are the server-level
    session knobs.  Runs synchronously wherever it is called.
    """
    from repro.serve import handlers

    op = key[0]
    tracer = get_tracer()
    with tracer.span("serve.dispatch", op=op, size=len(payloads)):
        if op == "predict":
            return handlers.handle_predict_batch(payloads, defaults)
        if op == "sweep":
            return [handlers.handle_sweep(p, defaults) for p in payloads]
        if op == "score":
            return [handlers.handle_score(p, defaults) for p in payloads]
        if op == "ping":
            return [handlers.handle_ping(p, defaults) for p in payloads]
        raise handlers.HandlerError(f"unroutable op {op!r}")


# -- the worker side ------------------------------------------------------

#: Wire statuses a worker may answer with.
_OK = "ok"
_HANDLER_ERROR = "handler_error"   # client error: re-raised as HandlerError
_ERROR = "error"                   # internal error: re-raised as RuntimeError


def _run_job(key: Hashable, payloads: Sequence[Any],
             deadlines: Optional[Sequence[Optional[float]]],
             defaults: Optional[Mapping[str, Any]]) -> List[Any]:
    """Dispatch one job, abandoning payloads whose deadline has passed.

    Deadlines are absolute ``time.monotonic()`` times (CLOCK_MONOTONIC
    is system-wide on every platform the pool forks on, so the parent's
    loop clock and the child's clock agree).  Expired positions are
    answered with :data:`EXPIRED` without touching a handler; live
    positions dispatch as one (smaller) coalesced batch.
    """
    if not deadlines:
        return dispatch_batch(key, payloads, defaults)
    now = time.monotonic()
    live = [i for i, d in enumerate(deadlines) if d is None or d > now]
    abandoned = len(payloads) - len(live)
    if abandoned:
        get_tracer().add("serve.worker.deadline_abandoned", abandoned)
    if not live:
        return [EXPIRED] * len(payloads)
    if abandoned == 0:
        return dispatch_batch(key, payloads, defaults)
    answered = dispatch_batch(key, [payloads[i] for i in live], defaults)
    results: List[Any] = [EXPIRED] * len(payloads)
    for position, result in zip(live, answered):
        results[position] = result
    return results


def _worker_main(conn, defaults: Dict[str, Any], index: int,
                 chaos: Optional[Dict[str, Any]] = None,
                 generation: int = 0) -> None:
    """The child loop: recv (job, key, payloads, deadlines) → dispatch → send.

    The child detaches from the parent's tracer first (a forked child
    must never share the parent's sink fd) and keeps a fresh in-process
    tracer so each response can carry the counter deltas the job caused.
    A chaos config (shipped as a plain dict so spawn-mode pickling stays
    trivial) arms a per-worker :class:`repro.faults.ChaosPlan`;
    ``generation`` counts respawns so each incarnation draws a fresh
    chaos schedule instead of replaying its predecessor's.
    """
    from repro.obs import detach_in_subprocess

    tracer = detach_in_subprocess(enabled=True)
    plan = None
    if chaos:
        from repro.faults.chaos import ChaosConfig, ChaosPlan

        config = ChaosConfig.from_dict(chaos)
        if config.any_chaos:
            plan = ChaosPlan(config, index, generation)
    baseline: Dict[str, float] = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        job_id, key, payloads, deadlines = message
        try:
            if plan is not None:
                plan.before_job()
            results = _run_job(key, payloads, deadlines, defaults)
            if plan is not None:
                results = plan.maybe_corrupt(results)
            status, body = _OK, results
        except Exception as exc:
            from repro.serve.handlers import HandlerError

            if isinstance(exc, HandlerError):
                status, body = _HANDLER_ERROR, str(exc)
            else:
                status = _ERROR
                body = "".join(traceback.format_exception_only(exc)).strip()
        counters = tracer.counters()
        delta = {
            name: value - baseline.get(name, 0.0)
            for name, value in counters.items()
            if value != baseline.get(name, 0.0)
        }
        baseline = counters
        try:
            conn.send((job_id, status, body, delta))
        except (BrokenPipeError, OSError):
            break
    try:
        conn.close()
    except OSError:
        pass


# -- the dispatcher side --------------------------------------------------


class _Worker:
    """Parent-side handle on one worker process."""

    __slots__ = ("index", "process", "conn", "reader", "inflight_requests",
                 "inflight_jobs", "last_progress_t", "restart_times",
                 "quarantined_until", "spawns")

    def __init__(self, index: int):
        self.index = index
        self.process = None
        self.conn = None
        self.reader: Optional[threading.Thread] = None
        self.inflight_requests = 0    # requests dispatched, not yet answered
        self.inflight_jobs = 0        # groups dispatched, not yet answered
        self.last_progress_t = time.monotonic()   # last dispatch or answer
        self.restart_times: List[float] = []      # recent respawn times
        self.quarantined_until = 0.0              # routed around until then
        self.spawns = 0               # incarnations (chaos generation)

    def quarantined(self, now: Optional[float] = None) -> bool:
        return self.quarantined_until > (now if now is not None
                                         else time.monotonic())


class WorkerPool:
    """``n_workers`` handler processes behind an async dispatch facade.

    Construct and :meth:`start` on a running event loop; dispatch whole
    coalesced groups with ``await pool.dispatch(key, payloads)``; close
    with :meth:`close` after the batcher has drained.  All routing,
    accounting and crash recovery happen on the event-loop thread (the
    per-worker reader threads only forward completions into the loop).
    """

    def __init__(
        self,
        n_workers: int,
        session_defaults: Optional[Mapping[str, Any]] = None,
        *,
        max_inflight_per_worker: int = 64,
        start_method: Optional[str] = None,
        chaos: Optional[Any] = None,
        restart_budget: int = 3,
        restart_window_s: float = 60.0,
        quarantine_base_s: float = 1.0,
    ):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if restart_budget < 1:
            raise ValueError(f"restart_budget must be >= 1, got {restart_budget}")
        self.n_workers = n_workers
        self.max_inflight_per_worker = max_inflight_per_worker
        self.restart_budget = restart_budget
        self.restart_window_s = restart_window_s
        self.quarantine_base_s = quarantine_base_s
        self._defaults = dict(session_defaults or {})
        self._chaos = chaos.to_dict() if chaos is not None else None
        self._ctx = multiprocessing.get_context(
            start_method or default_start_method()
        )
        self._workers: List[_Worker] = []
        self._assignment: Dict[Hashable, int] = {}    # predict keys → worker
        self._assign_rr = itertools.count()
        self._ephemeral_rr = itertools.count()
        self._job_ids = itertools.count(1)
        self._pending: Dict[int, Tuple["asyncio.Future", _Worker, int]] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closed = False

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "WorkerPool":
        self._loop = asyncio.get_running_loop()
        for index in range(self.n_workers):
            worker = _Worker(index)
            self._spawn(worker)
            self._workers.append(worker)
        return self

    def _spawn(self, worker: _Worker) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        with warnings.catch_warnings():
            # Python >= 3.12 warns on fork from a multi-threaded process
            # (the BackgroundServer path).  The children only ever touch
            # repro + numpy state that is rebuilt on demand, and the
            # spawn method remains one env var away for platforms where
            # fork is genuinely unsafe.
            warnings.simplefilter("ignore", DeprecationWarning)
            process = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, self._defaults, worker.index, self._chaos,
                      worker.spawns),
                name=f"repro-serve-w{worker.index}",
                daemon=True,
            )
            process.start()
        child_conn.close()
        worker.process = process
        worker.conn = parent_conn
        worker.reader = threading.Thread(
            target=self._reader_loop, args=(worker, parent_conn),
            name=f"repro-serve-w{worker.index}-reader", daemon=True,
        )
        worker.reader.start()
        worker.spawns += 1
        worker.last_progress_t = time.monotonic()

    def close(self, timeout_s: float = 10.0) -> None:
        """Stop every worker (sentinel, join, then terminate stragglers).

        Idempotent: the second and later calls return immediately.  After
        the processes are down the reader threads are joined too; a
        reader that outlives close (a pipe that never delivered its EOF)
        is counted as ``serve.worker.close_leaks`` rather than silently
        abandoned, and any still-pending jobs are failed with
        :class:`WorkerCrashed` so no caller waits on a dead pool.
        """
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=timeout_s)
            if worker.process.is_alive():  # pragma: no cover - stuck handler
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            try:
                worker.conn.close()
            except OSError:
                pass
        for worker in self._workers:
            reader = worker.reader
            if reader is None or reader is threading.current_thread():
                continue                   # pragma: no cover - defensive
            reader.join(timeout=2.0)
            if reader.is_alive():          # pragma: no cover - stuck pipe
                get_tracer().add("serve.worker.close_leaks")
        if self._pending and self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(self._fail_leftover_pending)
            except RuntimeError:           # loop already closed
                pass

    def _fail_leftover_pending(self) -> None:
        """Fail any job still pending after close (runs on the loop)."""
        for job_id in list(self._pending):
            entry = self._settle(job_id)
            if entry is not None and not entry[0].done():
                entry[0].set_exception(WorkerCrashed(
                    "worker pool closed with this job in flight"
                ))

    # -- routing and accounting ----------------------------------------

    def _sticky(self, key: Hashable) -> bool:
        # Predict keys name a system and recur; other ops carry a
        # per-request identity in their key, so pinning them would only
        # grow the assignment map without ever producing a repeat hit.
        return isinstance(key, tuple) and bool(key) and key[0] == "predict"

    def _routable(self) -> List[_Worker]:
        """Workers routing may use: the healthy ones, or — when every
        worker is quarantined — all of them (serving degraded beats
        serving nothing; the server layer also sees
        :meth:`all_quarantined` and sheds upstream)."""
        now = time.monotonic()
        healthy = [w for w in self._workers if not w.quarantined(now)]
        return healthy or self._workers

    def quarantined_count(self) -> int:
        """How many workers are currently quarantined."""
        now = time.monotonic()
        return sum(1 for w in self._workers if w.quarantined(now))

    def all_quarantined(self) -> bool:
        """Whether every worker is currently quarantined."""
        return self.quarantined_count() == self.n_workers

    def route(self, key: Hashable) -> _Worker:
        """The worker a group with ``key`` would run on right now.

        Sticky keys go to their assigned worker unless it is busy (or
        quarantined) and another healthy worker is strictly less loaded
        (a *spill*); ephemeral keys round-robin over healthy workers.
        Pure function of current inflight/quarantine state — calling it
        does not commit anything.
        """
        routable = self._routable()
        if not self._sticky(key):
            return routable[next(self._ephemeral_rr) % len(routable)]
        index = self._assignment.get(key)
        if index is None:
            index = self._assignment[key] = (
                next(self._assign_rr) % self.n_workers
            )
        preferred = self._workers[index]
        if preferred not in routable:
            least = min(routable, key=lambda w: w.inflight_requests)
            get_tracer().add("serve.worker.spills")
            return least
        if preferred.inflight_jobs == 0:
            return preferred
        least = min(routable, key=lambda w: w.inflight_requests)
        if least.inflight_requests < preferred.inflight_requests:
            get_tracer().add("serve.worker.spills")
            return least
        return preferred

    def load(self, key: Hashable) -> int:
        """Dispatched-but-unanswered requests on the worker ``key`` routes
        to — the quantity admission control sheds on."""
        routable = self._routable()
        if self._sticky(key):
            index = self._assignment.get(key)
            if index is not None:
                worker = self._workers[index]
                if worker in routable:
                    return worker.inflight_requests
        return min(w.inflight_requests for w in routable)

    def overloaded(self, key: Hashable) -> bool:
        """Whether admitting another request for ``key`` should be shed."""
        return self.load(key) >= self.max_inflight_per_worker

    def depths(self) -> List[int]:
        return [w.inflight_requests for w in self._workers]

    # -- dispatch ------------------------------------------------------

    async def dispatch(
        self,
        key: Hashable,
        payloads: Sequence[Any],
        deadlines: Optional[Sequence[Optional[float]]] = None,
    ) -> List[Any]:
        """Run one coalesced group on one worker; returns handler results.

        ``deadlines`` (absolute monotonic times, one per payload, None
        for no deadline) ride along so the worker can abandon
        already-expired positions.  Raises :class:`WorkerCrashed` if the
        worker dies mid-job and :class:`WorkerHung` if the watchdog
        declares it hung (the batcher's retry policy re-dispatches, by
        then onto the respawned or a sibling worker),
        :class:`repro.serve.handlers.HandlerError` for client errors,
        ``RuntimeError`` for handler failures.
        """
        if self._closed:
            raise WorkerCrashed("worker pool is closed")
        worker = self.route(key)
        job_id = next(self._job_ids)
        future = self._loop.create_future()
        self._pending[job_id] = (future, worker, len(payloads))
        worker.inflight_requests += len(payloads)
        worker.inflight_jobs += 1
        worker.last_progress_t = time.monotonic()
        tracer = get_tracer()
        tracer.add("serve.worker.dispatched_batches")
        tracer.add("serve.worker.dispatched_requests", len(payloads))
        tracer.add(f"serve.worker.w{worker.index}.batches")
        tracer.add(f"serve.worker.w{worker.index}.requests", len(payloads))
        if tracer.enabled:
            tracer.gauge("serve.worker.inflight", sum(self.depths()))
        try:
            worker.conn.send((
                job_id, key, list(payloads),
                list(deadlines) if deadlines is not None else None,
            ))
        except (BrokenPipeError, OSError):
            self._settle(job_id)
            raise WorkerCrashed(
                f"worker {worker.index} unreachable at dispatch"
            ) from None
        try:
            return await future
        finally:
            # Cancellation (deadline/timeout) must not leak accounting:
            # the reader settles completed jobs, but a job the worker
            # will never answer (crash path) is settled by _on_crash.
            if future.cancelled() and job_id in self._pending:
                self._settle(job_id)

    def _settle(self, job_id: int) -> Optional[Tuple["asyncio.Future", _Worker, int]]:
        entry = self._pending.pop(job_id, None)
        if entry is not None:
            _, worker, n_requests = entry
            worker.inflight_requests -= n_requests
            worker.inflight_jobs -= 1
        return entry

    # -- completions (reader thread → event loop) ----------------------

    def _reader_loop(self, worker: _Worker, conn) -> None:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
        # fallthrough: the pipe is gone — either close() or a crash
            else:
                try:
                    self._loop.call_soon_threadsafe(self._complete, message)
                except RuntimeError:   # loop already closed (shutdown)
                    break
                continue
        if not self._closed:
            try:
                self._loop.call_soon_threadsafe(self._on_crash, worker)
            except RuntimeError:
                pass

    def _complete(self, message) -> None:
        job_id, status, body, counter_delta = message
        entry = self._settle(job_id)
        if entry is not None:
            entry[1].last_progress_t = time.monotonic()
        tracer = get_tracer()
        if tracer.enabled:
            for name, value in counter_delta.items():
                tracer.add(name, value)
            tracer.gauge("serve.worker.inflight", sum(self.depths()))
        if entry is None:
            return                     # cancelled and already settled
        future = entry[0]
        if future.done():
            return
        if status == _OK:
            future.set_result(body)
        elif status == _HANDLER_ERROR:
            from repro.serve.handlers import HandlerError

            future.set_exception(HandlerError(body))
        else:
            future.set_exception(RuntimeError(body))

    def fail_worker_jobs(self, worker: _Worker, exc: Exception) -> int:
        """Fail every pending job on ``worker`` with ``exc`` (loop thread).

        Used by the watchdog before it kills a hung worker, so the
        stranded jobs re-enter the retry path immediately instead of
        waiting out their deadlines.  Returns how many jobs were failed.
        """
        dead = [
            job_id for job_id, (_, w, _) in self._pending.items() if w is worker
        ]
        for job_id in dead:
            entry = self._settle(job_id)
            if entry is not None and not entry[0].done():
                entry[0].set_exception(
                    exc.__class__(f"{exc} (worker {worker.index})")
                )
        return len(dead)

    def _note_restart(self, worker: _Worker) -> None:
        """Quarantine bookkeeping: budget the restarts, back off repeats.

        Each respawn inside ``restart_window_s`` counts against
        ``restart_budget``; once over budget the worker is quarantined —
        routed around — for ``quarantine_base_s`` doubling with every
        further offense (exponential re-admit).  It is still respawned:
        quarantine is a routing state, not a death sentence, so a
        recovered worker re-earns traffic when its sentence lapses.
        """
        now = time.monotonic()
        window = [
            t for t in worker.restart_times if now - t <= self.restart_window_s
        ]
        window.append(now)
        worker.restart_times = window
        overage = len(window) - self.restart_budget
        if overage > 0:
            worker.quarantined_until = (
                now + self.quarantine_base_s * (2.0 ** (overage - 1))
            )
            tracer = get_tracer()
            tracer.add("serve.watchdog.quarantines")
            if tracer.enabled:
                tracer.gauge(
                    "serve.watchdog.quarantined", self.quarantined_count()
                )

    def _on_crash(self, worker: _Worker) -> None:
        """Fail the dead worker's jobs, respawn it, keep serving."""
        if self._closed:
            return
        get_tracer().add("serve.worker.restarts")
        self.fail_worker_jobs(worker, WorkerCrashed(
            "worker died with this job in flight"
        ))
        self._note_restart(worker)
        try:
            worker.process.join(timeout=1.0)
        except (OSError, AssertionError):  # pragma: no cover - already reaped
            pass
        self._spawn(worker)


# -- the dispatcher-side hot-key cache ------------------------------------


class HotKeyCache:
    """Bounded LRU over response payloads for deterministic operations.

    Keyed on the canonical JSON of ``(op, params)`` — the same inputs
    the handlers see — so a hit is exactly a repeat of an already
    answered request under this server's session defaults.  Only
    ``predict`` and ``score`` results are admitted: both are pure
    functions of their parameters (a seeded simulation / a closed-form
    metric), whereas ``sweep`` responses are large and ``ping`` is
    cheaper than the lookup.

    Telemetry: ``serve.hotkeys.hits`` / ``serve.hotkeys.misses`` /
    ``serve.hotkeys.evictions``, plus a ``serve.hotkeys.size`` gauge.
    """

    #: Operations whose responses may be cached.
    CACHEABLE_OPS = ("predict", "score")

    def __init__(self, max_entries: int = 1024):
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, Any]" = OrderedDict()

    @staticmethod
    def cache_key(op: str, params: Mapping[str, Any]) -> Optional[str]:
        """The canonical key, or ``None`` when the request is uncacheable."""
        if op not in HotKeyCache.CACHEABLE_OPS:
            return None
        try:
            return json.dumps({"op": op, "params": params}, sort_keys=True)
        except (TypeError, ValueError):
            return None

    def get(self, op: str, params: Mapping[str, Any]) -> Optional[Any]:
        if self.max_entries <= 0:
            return None
        key = self.cache_key(op, params)
        if key is None:
            return None
        tracer = get_tracer()
        hit = self._entries.get(key)
        if hit is None:
            tracer.add("serve.hotkeys.misses")
            return None
        self._entries.move_to_end(key)
        tracer.add("serve.hotkeys.hits")
        return hit

    def put(self, op: str, params: Mapping[str, Any], result: Any) -> None:
        if self.max_entries <= 0:
            return
        key = self.cache_key(op, params)
        if key is None:
            return
        tracer = get_tracer()
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            tracer.add("serve.hotkeys.evictions")
        if tracer.enabled:
            tracer.gauge("serve.hotkeys.size", len(self._entries))

    def __len__(self) -> int:
        return len(self._entries)
