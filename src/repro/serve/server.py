"""The asyncio prediction server: admission, batching, lifecycle.

Composition — one dispatcher event loop in front of either an
in-process executor (``workers=1``) or a sharded process pool
(``workers>1``, see :mod:`repro.serve.workers` and docs/scaling.md)::

    TCP conn ──parse──▶ hot-key LRU ──▶ admission ──▶ MicroBatcher
       ▲                  │ hit?           │ full/deep?       │
       └───── NDJSON ◀────┘         overloaded(retry-after)   │
                                                   ┌──────────┴─────────┐
                                        workers=1: │          workers>1:│
                                          executor ▼            WorkerPool
                                          handlers ▼        route by batch key
                                         repro.api only    worker 0 … worker N-1

* **Admission** is the micro-batcher's bounded queue plus — under the
  worker pool — per-worker queue-depth accounting
  (``max_inflight_per_worker``); a full queue or a too-deep routed
  worker is answered immediately with an ``overloaded`` error carrying
  ``retry_after_ms`` — the client's cue to back off (429 semantics).
* **Hot-key cache** (pool mode): deterministic ``predict``/``score``
  repeats are answered straight from a dispatcher-side LRU, before
  admission, whichever worker computed them first.
* **Deadlines**: each request may carry ``deadline_ms``; expired
  requests are failed with ``deadline_exceeded`` instead of being
  served late, whether they expire waiting or executing.
* **Cancellation**: a dropped connection cancels that connection's
  pending futures, so abandoned work never occupies a batch slot.
* **Supervision** (pool mode): a
  :class:`repro.serve.watchdog.WorkerWatchdog` kills and respawns hung
  workers (``hang_timeout_s``); repeat offenders are quarantined by the
  pool's restart budget; request deadlines propagate into the workers.
  Chaos injection (``ServeConfig.chaos`` / ``REPRO_SERVE_CHAOS``) tests
  all of it — see :mod:`repro.faults.chaos`.
* **Graceful drain** (:meth:`PredictionServer.stop`): stop accepting
  connections, answer new requests with ``shutting_down``, let every
  admitted request finish and flush, then close.

:class:`BackgroundServer` runs the whole thing on a daemon thread for
tests, benchmarks and the CI smoke job.
"""

from __future__ import annotations

import asyncio
import inspect
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence, Tuple

import repro.api as api
from repro.faults.chaos import ENV_SERVE_CHAOS, ChaosConfig
from repro.faults.retry import RetryPolicy
from repro.obs import get_tracer
from repro.serve import handlers
from repro.serve.batching import BatcherClosed, MicroBatcher, QueueFull
from repro.serve import protocol
from repro.serve.protocol import (
    ERR_CANCELLED,
    ERR_DEADLINE,
    ERR_INTERNAL,
    ERR_INVALID,
    ERR_OVERLOADED,
    ERR_SHUTTING_DOWN,
    ProtocolError,
    Request,
    parse_request,
    response_error,
    response_ok,
)
from repro.serve.watchdog import WorkerWatchdog
from repro.serve.workers import (
    ENV_START_METHOD,
    HotKeyCache,
    WorkerPool,
    dispatch_batch,
)
from repro.util.config import dataclass_from_env

#: The keys ``ServeConfig.session`` may set: every parameter of
#: :func:`repro.api.get_session` except the per-request ``arch`` and
#: ``n_chips``, which the handlers pass themselves.
_SESSION_KEYS = frozenset(inspect.signature(api.get_session).parameters) - {
    "arch", "n_chips",
}

__all__ = ["ServeConfig", "PredictionServer", "BackgroundServer"]


def _chaos_from_spec(text: str) -> Optional[ChaosConfig]:
    """Parser for the ``REPRO_SERVE_CHAOS`` env override (empty = off)."""
    if not text.strip():
        return None
    config = ChaosConfig.parse(text)
    return config if config.any_chaos else None


@dataclass(frozen=True)
class ServeConfig:
    """Everything the service can be tuned with (see docs/serving.md)."""

    host: str = "127.0.0.1"
    port: int = 0                       # 0 = ephemeral (tests, smoke)
    max_batch: int = 16                 # micro-batch ceiling
    max_linger_ms: float = 2.0          # how long a batch waits for company
    queue_size: int = 256               # admission queue bound
    #: Worker processes running handlers.  1 (the default) keeps the
    #: historical single-process shape: handlers run on an in-process
    #: executor thread.  >1 starts a :class:`repro.serve.workers.WorkerPool`
    #: with batch-key affinity routing (see docs/scaling.md).
    workers: int = 1
    default_deadline_ms: Optional[float] = 30_000.0
    retry_after_ms: float = 50.0        # hint attached to overloaded/shutdown
    drain_timeout_s: float = 30.0       # bound on graceful drain
    #: Pool-mode knobs (ignored when ``workers == 1``).
    max_inflight_per_worker: int = 64   # shed when the routed worker is deeper
    hot_cache_size: int = 1024          # dispatcher LRU entries; 0 disables
    mp_start_method: Optional[str] = None   # fork|spawn; None = platform default
    #: Supervision knobs (pool mode).  The watchdog declares a worker
    #: hung after ``hang_timeout_s`` with jobs in flight and no
    #: progress; more than ``restart_budget`` respawns inside
    #: ``restart_window_s`` quarantines the worker for
    #: ``quarantine_base_s`` (doubling per further offense).
    hang_timeout_s: float = 30.0
    restart_budget: int = 3
    restart_window_s: float = 60.0
    quarantine_base_s: float = 1.0
    #: Fault injection: a :class:`repro.faults.ChaosConfig` executed
    #: inside the pool's workers (None also checks ``REPRO_SERVE_CHAOS``).
    #: Pool mode only — single-process servers have no fleet to chaos.
    chaos: Optional[ChaosConfig] = None
    retry_policy: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            task_timeout_s=300.0, max_retries=1, backoff_s=0.01
        )
    )
    #: Session knobs applied to every request (seed, work, use_cache,
    #: threshold, threshold_method) — see :class:`repro.api.Session`.
    session: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        unknown = sorted(set(self.session) - _SESSION_KEYS)
        if unknown:
            raise ValueError(
                f"unknown session key(s) {', '.join(map(repr, unknown))}; "
                f"valid keys: {', '.join(sorted(_SESSION_KEYS))}"
            )
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_linger_ms < 0:
            raise ValueError(f"max_linger_ms must be >= 0, got {self.max_linger_ms}")
        if self.queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {self.queue_size}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_inflight_per_worker < 1:
            raise ValueError(
                "max_inflight_per_worker must be >= 1, "
                f"got {self.max_inflight_per_worker}"
            )
        if self.hot_cache_size < 0:
            raise ValueError(
                f"hot_cache_size must be >= 0, got {self.hot_cache_size}"
            )
        if self.hang_timeout_s <= 0:
            raise ValueError(
                f"hang_timeout_s must be > 0, got {self.hang_timeout_s}"
            )
        if self.restart_budget < 1:
            raise ValueError(
                f"restart_budget must be >= 1, got {self.restart_budget}"
            )
        if self.restart_window_s <= 0:
            raise ValueError(
                f"restart_window_s must be > 0, got {self.restart_window_s}"
            )
        if self.quarantine_base_s <= 0:
            raise ValueError(
                f"quarantine_base_s must be > 0, got {self.quarantine_base_s}"
            )

    @classmethod
    def from_env(
        cls,
        base: Optional["ServeConfig"] = None,
        *,
        env: Optional[Mapping[str, str]] = None,
    ) -> "ServeConfig":
        """Build a config from ``REPRO_SERVE_*`` variables over ``base``.

        Every scalar field maps to ``REPRO_SERVE_<FIELDNAME>``
        (``REPRO_SERVE_MAX_BATCH``, ``REPRO_SERVE_WORKERS``, ...), with
        the two historical short names kept as aliases:
        ``REPRO_SERVE_MP`` for ``mp_start_method`` and
        ``REPRO_SERVE_CHAOS`` (a chaos spec string) for ``chaos``.
        Structured fields (``retry_policy``, ``session``) have no env
        form.  A malformed value raises ``ValueError`` naming the
        variable.
        """
        return dataclass_from_env(
            cls,
            "REPRO_SERVE",
            env=env,
            base=base,
            aliases={
                "mp_start_method": ENV_START_METHOD,
                "chaos": ENV_SERVE_CHAOS,
            },
            parsers={"chaos": _chaos_from_spec},
        )


class PredictionServer:
    """One serving instance; create, :meth:`start`, eventually :meth:`stop`."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self._server: Optional[asyncio.AbstractServer] = None
        self._batcher: Optional[MicroBatcher] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._pool: Optional[WorkerPool] = None
        self._hot_cache: Optional[HotKeyCache] = None
        self._watchdog: Optional[WorkerWatchdog] = None
        self._draining = False
        self._stopped = asyncio.Event()
        self._connections: set = set()

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        config = self.config
        if config.workers > 1:
            chaos = config.chaos
            if chaos is None:
                chaos = ChaosConfig.from_env()
            if chaos is not None and not chaos.any_chaos:
                chaos = None
            self._pool = WorkerPool(
                config.workers,
                config.session,
                max_inflight_per_worker=config.max_inflight_per_worker,
                start_method=config.mp_start_method,
                chaos=chaos,
                restart_budget=config.restart_budget,
                restart_window_s=config.restart_window_s,
                quarantine_base_s=config.quarantine_base_s,
            ).start()
            self._watchdog = WorkerWatchdog(
                self._pool, hang_timeout_s=config.hang_timeout_s
            ).start()
            if config.hot_cache_size > 0:
                self._hot_cache = HotKeyCache(config.hot_cache_size)
            self._batcher = MicroBatcher(
                dispatch_async=self._pool.dispatch,
                max_batch=config.max_batch,
                max_linger_s=config.max_linger_ms / 1000.0,
                queue_size=config.queue_size,
                max_concurrent=2 * config.workers,
                retry_policy=config.retry_policy,
            )
        else:
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve"
            )
            self._batcher = MicroBatcher(
                self._dispatch,
                max_batch=config.max_batch,
                max_linger_s=config.max_linger_ms / 1000.0,
                queue_size=config.queue_size,
                retry_policy=config.retry_policy,
                executor=self._executor,
            )
        self._batcher.start()
        self._server = await asyncio.start_server(
            self._handle_connection, config.host, config.port
        )
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        get_tracer().add("serve.starts")
        return host, port

    async def stop(self) -> None:
        """Graceful drain: finish admitted work, flush, close, stop."""
        if self._server is None:
            return
        self._draining = True
        self._server.close()
        await self._server.wait_closed()
        try:
            await asyncio.wait_for(
                self._batcher.drain(), timeout=self.config.drain_timeout_s
            )
        except asyncio.TimeoutError:  # pragma: no cover - pathological handler
            get_tracer().add("serve.drain_timeouts")
        # Give delivery tasks a chance to flush their responses.
        for _ in range(3):
            await asyncio.sleep(0)
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        if self._watchdog is not None:
            await self._watchdog.stop()
            self._watchdog = None
        if self._pool is not None:
            # Joining worker processes blocks; keep the loop responsive.
            await asyncio.get_running_loop().run_in_executor(
                None, self._pool.close
            )
            self._pool = None
        self._server = None
        self._stopped.set()
        get_tracer().add("serve.stops")

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    # -- dispatch (runs on the executor) -------------------------------

    def _dispatch(self, key, payloads: Sequence[Any]):
        """Route one coalesced group to its handler (executor thread)."""
        return dispatch_batch(key, payloads, self.config.session)

    # -- connection handling -------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        out_q: "asyncio.Queue[Optional[dict]]" = asyncio.Queue()
        writer_task = asyncio.get_running_loop().create_task(
            self._writer_loop(writer, out_q)
        )
        pending: set = set()
        delivery_tasks: set = set()
        tracer = get_tracer()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # The line exceeded the stream's buffer limit.  The
                    # rest of it is still in flight, so there is no way
                    # to resync on the next newline: answer once, then
                    # drop the connection.
                    tracer.add("serve.errors.invalid_request")
                    tracer.add("serve.oversized_lines")
                    await out_q.put(response_error(
                        None, ERR_INVALID,
                        "request line exceeds the size limit",
                    ))
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                tracer.add("serve.requests")
                try:
                    request = parse_request(line)
                except ProtocolError as exc:
                    tracer.add("serve.errors.invalid_request")
                    await out_q.put(response_error(
                        exc.request_id, ERR_INVALID, str(exc)
                    ))
                    continue
                if self._draining:
                    tracer.add("serve.errors.shutting_down")
                    await out_q.put(response_error(
                        request.id, ERR_SHUTTING_DOWN, "server is draining",
                        retry_after_ms=self.config.retry_after_ms,
                    ))
                    continue
                if self._hot_cache is not None:
                    cached = self._hot_cache.get(request.op, request.params)
                    if cached is not None:
                        # Answered before admission: no batch slot, no
                        # worker, no admitted/settled accounting.
                        tracer.add("serve.responses")
                        await out_q.put(response_ok(request.id, cached))
                        continue
                key = handlers.batch_key(request.op, request.params)
                if self._pool is not None and self._pool.all_quarantined():
                    await self._shed(
                        request, out_q,
                        "all workers quarantined; back off and retry",
                        extra_counter="serve.worker.shed",
                    )
                    continue
                if self._pool is not None and self._pool.overloaded(key):
                    await self._shed(
                        request, out_q,
                        "routed worker queue too deep; back off and retry",
                        extra_counter="serve.worker.shed",
                    )
                    continue
                deadline_t = self._deadline_t(request)
                try:
                    future = self._batcher.submit(
                        key,
                        request.params,
                        deadline_t,
                    )
                except QueueFull:
                    await self._shed(
                        request, out_q,
                        "admission queue full; back off and retry",
                    )
                    continue
                except BatcherClosed:
                    tracer.add("serve.errors.shutting_down")
                    await out_q.put(response_error(
                        request.id, ERR_SHUTTING_DOWN, "server is draining",
                        retry_after_ms=self.config.retry_after_ms,
                    ))
                    continue
                pending.add(future)
                # Settlement accounting: every admitted request must be
                # settled by exactly one _deliver (the fuzz pillar
                # asserts serve.admitted == serve.settled at quiescence
                # — a difference is a leaked pending request).
                tracer.add("serve.admitted")
                deliver = asyncio.get_running_loop().create_task(
                    self._deliver(request, future, deadline_t, out_q)
                )
                delivery_tasks.add(deliver)
                deliver.add_done_callback(delivery_tasks.discard)
        except (asyncio.CancelledError, ConnectionError):
            pass
        finally:
            # Abandon whatever this connection still has in flight.
            for future in pending:
                if not future.done():
                    future.cancel()
                    tracer.add("serve.cancellations")
            if delivery_tasks:
                await asyncio.gather(*delivery_tasks, return_exceptions=True)
            await out_q.put(None)
            try:
                await writer_task
            except asyncio.CancelledError:
                pass
            self._connections.discard(task)

    async def _shed(self, request: Request, out_q: "asyncio.Queue",
                    message: str, extra_counter: Optional[str] = None) -> None:
        """Reject one request with ``overloaded`` + ``retry_after_ms``."""
        tracer = get_tracer()
        tracer.add("serve.rejections")
        if extra_counter is not None:
            tracer.add(extra_counter)
        await out_q.put(response_error(
            request.id, ERR_OVERLOADED, message,
            retry_after_ms=self.config.retry_after_ms,
        ))

    def _deadline_t(self, request: Request) -> Optional[float]:
        deadline_ms = request.deadline_ms
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        if deadline_ms is None:
            return None
        return asyncio.get_running_loop().time() + deadline_ms / 1000.0

    async def _deliver(self, request: Request, future: "asyncio.Future",
                       deadline_t: Optional[float],
                       out_q: "asyncio.Queue") -> None:
        try:
            await self._deliver_inner(request, future, deadline_t, out_q)
        finally:
            # Pairs with serve.admitted: every admitted request settles
            # exactly once, whatever the outcome.
            get_tracer().add("serve.settled")

    async def _deliver_inner(self, request: Request, future: "asyncio.Future",
                             deadline_t: Optional[float],
                             out_q: "asyncio.Queue") -> None:
        tracer = get_tracer()
        try:
            result = await future
        except asyncio.CancelledError:
            tracer.add("serve.errors.cancelled")
            await out_q.put(response_error(
                request.id, ERR_CANCELLED, "request abandoned"
            ))
            return
        except asyncio.TimeoutError:
            tracer.add("serve.errors.deadline_exceeded")
            await out_q.put(response_error(
                request.id, ERR_DEADLINE, "deadline elapsed before dispatch"
            ))
            return
        except handlers.HandlerError as exc:
            tracer.add("serve.errors.invalid_request")
            await out_q.put(response_error(request.id, ERR_INVALID, str(exc)))
            return
        except Exception as exc:
            tracer.add("serve.errors.internal")
            await out_q.put(response_error(
                request.id, ERR_INTERNAL,
                f"{type(exc).__name__}: {exc}",
                retry_after_ms=self.config.retry_after_ms,
            ))
            return
        # The batcher already failed anything that expired *waiting*;
        # this catches requests that expired mid-execution.
        if (deadline_t is not None
                and asyncio.get_running_loop().time() >= deadline_t):
            tracer.add("serve.errors.deadline_exceeded")
            await out_q.put(response_error(
                request.id, ERR_DEADLINE, "deadline elapsed during execution"
            ))
            return
        if self._hot_cache is not None:
            self._hot_cache.put(request.op, request.params, result)
        tracer.add("serve.responses")
        await out_q.put(response_ok(request.id, result))

    async def _writer_loop(self, writer: asyncio.StreamWriter,
                           out_q: "asyncio.Queue") -> None:
        try:
            while True:
                response = await out_q.get()
                if response is None:
                    break
                writer.write(protocol.encode(response))
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


class BackgroundServer:
    """A :class:`PredictionServer` on a daemon thread (tests/bench/CLI smoke).

    Usage::

        with BackgroundServer(ServeConfig(...)) as bg:
            client = ServeClient(bg.host, bg.port)
            ...

    ``stop()`` performs the same graceful drain as the foreground path.
    """

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._stop_requested: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30.0):  # pragma: no cover
            raise RuntimeError("background server failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError("background server failed to start") \
                from self._startup_error
        return self

    def _thread_main(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_requested = asyncio.Event()
        server = PredictionServer(self.config)
        try:
            self.host, self.port = await server.start()
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        await self._stop_requested.wait()
        await server.stop()

    def stop(self) -> None:
        if self._loop is not None and self._stop_requested is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_requested.set)
            except RuntimeError:
                pass                 # loop already closed: nothing to stop
        if self._thread is not None:
            self._thread.join(timeout=60.0)
            self._thread = None
        self._loop = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
