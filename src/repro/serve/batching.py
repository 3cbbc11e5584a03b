"""Dynamic micro-batching: coalesce concurrent requests, dispatch once.

The same shape ML inference servers use: requests enter a bounded
admission queue; a single collector loop takes the first waiting
request, lingers up to ``max_linger_s`` for company, closes the batch
at ``max_batch``, groups it by batch key (requests that may legally be
answered by one handler call), and dispatches each group to a worker.

Two dispatch planes:

* ``dispatch`` — a synchronous callable run on ``executor`` (the
  single-process mode).  With the default ``max_concurrent=1`` exactly
  one batch is in flight at a time — that is what turns a full queue
  into honest backpressure instead of unbounded buffering.
* ``dispatch_async`` — an awaitable dispatcher (the
  :class:`repro.serve.workers.WorkerPool` mode).  Raising
  ``max_concurrent`` lets the collector pipeline up to that many
  batches into the pool concurrently, so distinct batch keys (and
  spilled groups of one hot key) run on different worker processes in
  parallel; admission stays bounded by the queue plus the pool's own
  per-worker depth accounting.

Failure handling follows :class:`repro.faults.RetryPolicy`: a group
whose dispatch raises (or exceeds ``task_timeout_s``), or whose result
batch fails the :func:`repro.serve.workers.validate_results` shape
check (a corrupted response), is retried with exponential backoff;
exhausted retries fail that group's requests with the dispatch error,
never the whole service.  A client error (``ValueError``/``KeyError``/
``TypeError``) from a group of several requests is not retried: each
request is re-dispatched alone, so only the malformed one fails.

Deadlines travel with the work: the async plane forwards each item's
absolute deadline to the pool so workers abandon already-expired
positions (returned as the :data:`~repro.serve.workers.EXPIRED`
sentinel, surfaced here as the same ``deadline exceeded`` timeout the
pre-dispatch expiry check raises).

Telemetry (``repro.obs``): ``serve.queue_depth`` gauge,
``serve.batches`` / ``serve.batched_requests`` counters (their ratio is
the mean batch size), a ``serve.batch_size_le_N`` histogram,
``serve.dispatch_retries`` / ``serve.dispatch_failures``, and one
``serve.batch`` span per dispatched group.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, Hashable, List, Optional, Sequence

from repro.faults.retry import RetryPolicy
from repro.obs import get_tracer
from repro.serve.workers import EXPIRED, validate_results

#: Histogram bucket upper bounds for the batch-size distribution.
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32)


class QueueFull(Exception):
    """Admission queue at capacity — reject with 429 semantics."""


class BatcherClosed(Exception):
    """The batcher is draining/closed and accepts no new work."""


@dataclass
class PendingItem:
    """One admitted request waiting for (or undergoing) dispatch."""

    key: Hashable                    # batch-compatibility key
    payload: Any                     # handler input (request params)
    future: "asyncio.Future[Any]"    # resolves to the handler output
    deadline_t: Optional[float]      # loop-clock deadline, None = no deadline
    enqueued_t: float = 0.0

    def expired(self, now: float) -> bool:
        return self.deadline_t is not None and now >= self.deadline_t

    def abandoned(self) -> bool:
        return self.future.done()     # cancelled or already failed


class MicroBatcher:
    """Coalesces :class:`PendingItem` submissions into dispatched batches.

    ``dispatch(key, payloads)`` is a synchronous callable returning one
    result per payload (or raising); it runs on ``executor`` via the
    event loop.  Must be constructed and used on a running loop.
    """

    def __init__(
        self,
        dispatch: Optional[Callable[[Hashable, Sequence[Any]], Sequence[Any]]] = None,
        *,
        dispatch_async: Optional[
            Callable[[Hashable, Sequence[Any]], Awaitable[Sequence[Any]]]
        ] = None,
        max_batch: int = 16,
        max_linger_s: float = 0.002,
        queue_size: int = 256,
        max_concurrent: int = 1,
        retry_policy: Optional[RetryPolicy] = None,
        executor=None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_linger_s < 0:
            raise ValueError(f"max_linger_s must be >= 0, got {max_linger_s}")
        if max_concurrent < 1:
            raise ValueError(f"max_concurrent must be >= 1, got {max_concurrent}")
        if (dispatch is None) == (dispatch_async is None):
            raise ValueError("pass exactly one of dispatch / dispatch_async")
        self._dispatch = dispatch
        self._dispatch_async = dispatch_async
        self.max_batch = max_batch
        self.max_linger_s = max_linger_s
        self.max_concurrent = max_concurrent
        self._queue: "asyncio.Queue[PendingItem]" = asyncio.Queue(maxsize=queue_size)
        self.retry_policy = retry_policy or RetryPolicy(
            task_timeout_s=300.0, max_retries=1, backoff_s=0.01
        )
        self._executor = executor
        self._closed = False
        self._idle = asyncio.Event()
        self._idle.set()
        self._task: Optional[asyncio.Task] = None
        self._inflight: set = set()          # concurrent _process tasks
        self._pending_batch = False          # collected but not yet processing
        self._slots: Optional[asyncio.Semaphore] = None

    # -- admission -----------------------------------------------------

    def submit(self, key: Hashable, payload: Any,
               deadline_t: Optional[float] = None) -> "asyncio.Future[Any]":
        """Admit one request; raises :class:`QueueFull`/:class:`BatcherClosed`."""
        if self._closed:
            raise BatcherClosed("batcher is draining")
        loop = asyncio.get_running_loop()
        item = PendingItem(
            key=key, payload=payload, future=loop.create_future(),
            deadline_t=deadline_t, enqueued_t=loop.time(),
        )
        try:
            self._queue.put_nowait(item)
        except asyncio.QueueFull:
            raise QueueFull(
                f"admission queue at capacity ({self._queue.maxsize})"
            ) from None
        self._idle.clear()
        get_tracer().gauge("serve.queue_depth", self._queue.qsize())
        return item.future

    def depth(self) -> int:
        return self._queue.qsize()

    # -- the collector loop --------------------------------------------

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def drain(self) -> None:
        """Stop admitting, finish everything already admitted, stop."""
        self._closed = True
        await self._idle.wait()
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    async def _collect(self) -> List[PendingItem]:
        """One batch: first waiter + whoever arrives within the linger."""
        first = await self._queue.get()
        batch = [first]
        loop = asyncio.get_running_loop()
        linger_until = loop.time() + self.max_linger_s
        while len(batch) < self.max_batch:
            timeout = linger_until - loop.time()
            if timeout <= 0:
                # Linger over; keep draining only what is already queued.
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
                continue
            try:
                batch.append(await asyncio.wait_for(self._queue.get(), timeout))
            except asyncio.TimeoutError:
                break
        get_tracer().gauge("serve.queue_depth", self._queue.qsize())
        return batch

    async def _run(self) -> None:
        if self.max_concurrent > 1 and self._slots is None:
            self._slots = asyncio.Semaphore(self.max_concurrent)
        loop = asyncio.get_running_loop()
        while True:
            batch = await self._collect()
            if self.max_concurrent == 1:
                # Sequential plane: one batch in flight, the queue is
                # the whole backpressure story.
                try:
                    await self._process(batch)
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # pragma: no cover - defensive
                    for item in batch:
                        if not item.future.done():
                            item.future.set_exception(exc)
                finally:
                    self._maybe_idle()
                continue
            # Pipelined plane: hand the batch to a tracked task so the
            # collector can assemble the next one while this dispatches.
            # _pending_batch keeps drain() honest in the window between
            # collecting the batch and the task existing.
            self._pending_batch = True
            try:
                await self._slots.acquire()
                task = loop.create_task(self._process_tracked(batch))
                self._inflight.add(task)
                task.add_done_callback(self._on_process_done)
            finally:
                self._pending_batch = False

    async def _process_tracked(self, batch: List[PendingItem]) -> None:
        try:
            await self._process(batch)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # pragma: no cover - defensive
            for item in batch:
                if not item.future.done():
                    item.future.set_exception(exc)
        finally:
            self._slots.release()

    def _on_process_done(self, task: "asyncio.Task") -> None:
        self._inflight.discard(task)
        self._maybe_idle()

    def _maybe_idle(self) -> None:
        if self._queue.empty() and not self._inflight and not self._pending_batch:
            self._idle.set()

    async def _process(self, batch: List[PendingItem]) -> None:
        tracer = get_tracer()
        loop = asyncio.get_running_loop()
        now = loop.time()
        live: List[PendingItem] = []
        for item in batch:
            if item.abandoned():
                continue
            if item.expired(now):
                item.future.set_exception(asyncio.TimeoutError("deadline exceeded"))
                tracer.add("serve.deadline_expirations")
                continue
            live.append(item)
        if not live:
            return
        groups: Dict[Hashable, List[PendingItem]] = {}
        for item in live:
            groups.setdefault(item.key, []).append(item)
        if self.max_concurrent == 1 or len(groups) == 1:
            for key, items in groups.items():
                await self._dispatch_group(key, items)
        else:
            # Distinct keys route to distinct workers — ship them all
            # at once so a mixed batch spreads across the pool.
            await asyncio.gather(*(
                self._dispatch_group(key, items)
                for key, items in groups.items()
            ))

    async def _dispatch_group(self, key: Hashable,
                              items: List[PendingItem]) -> None:
        tracer = get_tracer()
        size = len(items)
        tracer.add("serve.batches")
        tracer.add("serve.batched_requests", size)
        for bucket in BATCH_SIZE_BUCKETS:
            if size <= bucket:
                tracer.add(f"serve.batch_size_le_{bucket}")
                break
        else:
            tracer.add("serve.batch_size_le_inf")

        loop = asyncio.get_running_loop()
        payloads = [item.payload for item in items]
        deadlines = [item.deadline_t for item in items]
        policy = self.retry_policy
        attempt = 0
        split = False
        with tracer.span("serve.batch", size=size):
            while True:
                try:
                    if self._dispatch_async is not None:
                        results = await asyncio.wait_for(
                            self._dispatch_async(key, payloads, deadlines),
                            timeout=policy.task_timeout_s,
                        )
                    else:
                        results = await asyncio.wait_for(
                            loop.run_in_executor(
                                self._executor, self._dispatch, key, payloads
                            ),
                            timeout=policy.task_timeout_s,
                        )
                    # Shape-check inside the retry loop: a corrupted
                    # response (short batch, junk bodies) raises a
                    # retryable CorruptResponse and re-dispatches.
                    validate_results(key, results, size)
                    break
                except asyncio.CancelledError:
                    raise
                except Exception as exc:
                    attempt += 1
                    if size > 1 and not _retryable(exc):
                        split = True
                        break
                    if attempt > policy.max_retries or not _retryable(exc):
                        tracer.add("serve.dispatch_failures")
                        for item in items:
                            if not item.future.done():
                                item.future.set_exception(exc)
                        return
                    tracer.add("serve.dispatch_retries")
                    delay = policy.backoff_for(attempt)
                    if delay > 0:
                        await asyncio.sleep(delay)
        if split:
            # A client error fails only its own request: answer each
            # coalesced item alone.
            for item in items:
                if not item.abandoned():
                    await self._dispatch_group(key, [item])
            return
        for item, result in zip(items, results):
            if item.future.done():
                continue
            if isinstance(result, str) and result == EXPIRED:
                tracer.add("serve.deadline_expirations")
                item.future.set_exception(
                    asyncio.TimeoutError("deadline exceeded")
                )
            else:
                item.future.set_result(result)


def _retryable(exc: BaseException) -> bool:
    """Client errors are final; timeouts and transient faults retry."""
    return not isinstance(exc, (ValueError, KeyError, TypeError))
