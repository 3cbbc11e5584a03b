"""repro.serve — the batched SMTsm prediction service.

A stdlib-only asyncio TCP service that answers ``predict`` / ``sweep``
/ ``score`` requests over an NDJSON protocol, coalescing concurrent
requests into dynamic micro-batches that amortize one
``Session.predict_many`` solve across many clients.  With ``workers > 1``
the dispatcher shards those batches across a process pool with
batch-key affinity routing (:mod:`repro.serve.workers`).  See
``docs/serving.md`` for the protocol and batching model,
``docs/scaling.md`` for the worker tier and capacity planning, and
``docs/robustness.md`` for the supervision plane.

Server side: :class:`ServeConfig`, :class:`PredictionServer`,
:class:`BackgroundServer` (thread helper for tests and benchmarks),
:class:`WorkerPool` / :class:`HotKeyCache` (the scale-out tier),
:class:`WorkerWatchdog` (hang detection / quarantine).
Client side: :class:`ServeClient` and its typed error hierarchy, plus
:class:`ResilientClient` (retry + reconnect + :class:`CircuitBreaker`).
Handlers speak only through :mod:`repro.api`.
"""

from repro.serve.batching import BatcherClosed, MicroBatcher, QueueFull
from repro.serve.workers import (
    CorruptResponse,
    HotKeyCache,
    WorkerCrashed,
    WorkerHung,
    WorkerPool,
    dispatch_batch,
)
from repro.serve.client import (
    CancelledError,
    CircuitBreaker,
    CircuitOpenError,
    ClientRetryPolicy,
    DeadlineExceededError,
    InternalError,
    InvalidRequestError,
    OverloadedError,
    ResilientClient,
    ServeClient,
    ServeError,
    ShuttingDownError,
)
from repro.serve.protocol import OPS, ProtocolError, Request, RETRYABLE_CODES
from repro.serve.server import BackgroundServer, PredictionServer, ServeConfig
from repro.serve.watchdog import WorkerWatchdog

__all__ = [
    "BackgroundServer",
    "BatcherClosed",
    "CancelledError",
    "CircuitBreaker",
    "CircuitOpenError",
    "ClientRetryPolicy",
    "CorruptResponse",
    "DeadlineExceededError",
    "dispatch_batch",
    "HotKeyCache",
    "InternalError",
    "InvalidRequestError",
    "MicroBatcher",
    "OPS",
    "OverloadedError",
    "PredictionServer",
    "ProtocolError",
    "QueueFull",
    "Request",
    "ResilientClient",
    "RETRYABLE_CODES",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ShuttingDownError",
    "WorkerCrashed",
    "WorkerHung",
    "WorkerPool",
    "WorkerWatchdog",
]
