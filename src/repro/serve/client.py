"""A pure-python blocking client for the prediction service.

Speaks the NDJSON protocol over a plain TCP socket — no third-party
HTTP stack, usable from tests, benchmarks and user scripts alike::

    with ServeClient(host, port) as client:
        best = client.predict("EP")            # -> dict (Prediction.payload)
        summary = client.sweep(workloads=["EP", "CG"])
        score = client.score_counters(events, smt_level=2, ...)

Error responses are raised as typed exceptions (:class:`OverloadedError`,
:class:`DeadlineExceededError`, ...), each carrying the server's
``retry_after_ms`` hint when present.  Responses are matched to requests
by id, so one connection may be shared by interleaved requests (the
client buffers out-of-order arrivals), though the class itself is not
thread-safe — use one client per thread.

:class:`ServeClient` is deliberately naive: one attempt, every error
raised straight to the caller.  :class:`ResilientClient` wraps the same
operations with the fleet-facing survival kit — jittered-exponential
retry that honors the server's ``retry_after_ms`` hint
(:class:`ClientRetryPolicy`), automatic reconnection, a per-client
:class:`CircuitBreaker` (open after consecutive failures, half-open
probes).  The
serving-chaos phase of ``scripts/bench_robustness.py`` measures exactly
this gap: availability under worker chaos with the naive vs the
resilient client.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence

from repro.experiments.runner import DEFAULT_STRATEGY
from repro.obs import get_tracer
from repro.serve.protocol import (
    ERR_CANCELLED,
    ERR_DEADLINE,
    ERR_INTERNAL,
    ERR_INVALID,
    ERR_OVERLOADED,
    ERR_SHUTTING_DOWN,
)

__all__ = [
    "ServeClient",
    "ResilientClient",
    "ClientRetryPolicy",
    "CircuitBreaker",
    "CircuitOpenError",
    "ServeError",
    "InvalidRequestError",
    "OverloadedError",
    "DeadlineExceededError",
    "ShuttingDownError",
    "CancelledError",
    "InternalError",
]


class ServeError(Exception):
    """Base for error responses; carries the wire code and retry hint."""

    code = "error"

    def __init__(self, message: str, retry_after_ms: Optional[float] = None):
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class InvalidRequestError(ServeError):
    code = ERR_INVALID


class OverloadedError(ServeError):
    code = ERR_OVERLOADED


class DeadlineExceededError(ServeError):
    code = ERR_DEADLINE


class ShuttingDownError(ServeError):
    code = ERR_SHUTTING_DOWN


class CancelledError(ServeError):
    code = ERR_CANCELLED


class InternalError(ServeError):
    code = ERR_INTERNAL


class CircuitOpenError(ServeError):
    """The client's own circuit breaker refused to send (local, typed).

    Raised by :class:`ResilientClient` while its breaker is open;
    ``retry_after_ms`` carries the time until the next half-open probe.
    """

    code = "circuit_open"


_ERROR_TYPES = {
    cls.code: cls
    for cls in (
        InvalidRequestError,
        OverloadedError,
        DeadlineExceededError,
        ShuttingDownError,
        CancelledError,
        InternalError,
    )
}


class ServeClient:
    """One blocking connection to a :class:`repro.serve.PredictionServer`."""

    def __init__(self, host: str, port: int, *, timeout_s: float = 60.0):
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._file = self._sock.makefile("rb")
        self._next_id = 0
        self._unclaimed: Dict[str, Dict[str, Any]] = {}

    # -- plumbing ------------------------------------------------------

    def _send(self, op: str, params: Mapping[str, Any],
              deadline_ms: Optional[float]) -> str:
        self._next_id += 1
        request_id = f"r{self._next_id}"
        line = {"id": request_id, "op": op, "params": dict(params)}
        if deadline_ms is not None:
            line["deadline_ms"] = deadline_ms
        payload = (json.dumps(line, separators=(",", ":")) + "\n").encode("utf-8")
        self._sock.sendall(payload)
        return request_id

    def _recv(self, request_id: str) -> Dict[str, Any]:
        if request_id in self._unclaimed:
            return self._unclaimed.pop(request_id)
        while True:
            raw = self._file.readline()
            if not raw:
                raise ConnectionError("server closed the connection")
            response = json.loads(raw)
            if response.get("id") == request_id:
                return response
            # A response for an interleaved request; park it.
            self._unclaimed[response.get("id")] = response

    def request(self, op: str, params: Optional[Mapping[str, Any]] = None, *,
                deadline_ms: Optional[float] = None) -> Any:
        """Send one request and block for its result (or typed error)."""
        request_id = self._send(op, params or {}, deadline_ms)
        response = self._recv(request_id)
        if response.get("ok"):
            return response.get("result")
        error = response.get("error") or {}
        cls = _ERROR_TYPES.get(error.get("code"), ServeError)
        raise cls(
            error.get("message", "unknown server error"),
            retry_after_ms=error.get("retry_after_ms"),
        )

    # -- operations ----------------------------------------------------

    def ping(self) -> bool:
        return bool(self.request("ping").get("pong"))

    def predict(self, workload: str, *, arch: str = "p7",
                n_chips: Optional[int] = None, level: Optional[int] = None,
                seed: Optional[int] = None,
                deadline_ms: Optional[float] = None) -> Dict[str, Any]:
        """Best SMT level for ``workload`` on ``arch`` (Prediction payload)."""
        params: Dict[str, Any] = {"workload": workload, "arch": arch}
        if n_chips is not None:
            params["n_chips"] = n_chips
        if level is not None:
            params["level"] = level
        if seed is not None:
            params["seed"] = seed
        return self.request("predict", params, deadline_ms=deadline_ms)

    def sweep(self, *, arch: str = "p7", n_chips: Optional[int] = None,
              workloads: Optional[Sequence[str]] = None,
              levels: Optional[Sequence[int]] = None,
              strategy: str = DEFAULT_STRATEGY,
              deadline_ms: Optional[float] = None) -> Dict[str, Any]:
        """Run a catalog slice; returns the sweep summary dict."""
        params: Dict[str, Any] = {"arch": arch, "strategy": strategy}
        if n_chips is not None:
            params["n_chips"] = n_chips
        if workloads is not None:
            params["workloads"] = list(workloads)
        if levels is not None:
            params["levels"] = list(levels)
        return self.request("sweep", params, deadline_ms=deadline_ms)

    def score_counters(self, events: Mapping[str, float], *, smt_level: int,
                       wall_time_s: float, avg_thread_cpu_s: float,
                       n_software_threads: int, arch: str = "p7",
                       n_chips: Optional[int] = None,
                       deadline_ms: Optional[float] = None) -> Dict[str, Any]:
        """SMTsm from raw counter readings taken on a live system."""
        params: Dict[str, Any] = {
            "arch": arch,
            "events": dict(events),
            "smt_level": smt_level,
            "wall_time_s": wall_time_s,
            "avg_thread_cpu_s": avg_thread_cpu_s,
            "n_software_threads": n_software_threads,
        }
        if n_chips is not None:
            params["n_chips"] = n_chips
        return self.request("score", params, deadline_ms=deadline_ms)

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- the resilient layer ---------------------------------------------------

#: Typed server errors worth another attempt.  ``overloaded`` and
#: ``shutting_down`` explicitly ask for one (retry_after_ms);
#: ``internal`` covers transient dispatch faults (a worker crash that
#: exhausted server-side retries); ``cancelled`` means the server
#: abandoned the request (e.g. its connection died) without running it.
RETRYABLE_CLIENT_ERRORS = (
    OverloadedError,
    ShuttingDownError,
    InternalError,
    CancelledError,
)


@dataclass(frozen=True)
class ClientRetryPolicy:
    """Jittered-exponential retry schedule for :class:`ResilientClient`.

    The delay before attempt ``n+1`` starts from
    ``base_backoff_ms * backoff_mult**(n-1)`` capped at
    ``max_backoff_ms``, is floored at the server's ``retry_after_ms``
    hint when one came back (the server knows its queue better than the
    client's exponent does), then stretched by up to ``jitter`` of
    itself, uniformly at random — jitter breaks the retry synchrony
    that turns one shed into a convoy of re-arrivals.
    ``total_budget_ms`` bounds the whole request (attempts + backoff):
    when spending the next delay would blow it, the last error is
    raised instead.
    """

    max_attempts: int = 5
    base_backoff_ms: float = 25.0
    backoff_mult: float = 2.0
    max_backoff_ms: float = 1000.0
    jitter: float = 0.5
    total_budget_ms: Optional[float] = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_backoff_ms < 0:
            raise ValueError(
                f"base_backoff_ms must be >= 0, got {self.base_backoff_ms}"
            )
        if self.backoff_mult < 1.0:
            raise ValueError(
                f"backoff_mult must be >= 1, got {self.backoff_mult}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay_ms(self, attempt: int, hint_ms: Optional[float],
                 rng: random.Random) -> float:
        """Backoff before the next attempt, after failure #``attempt``."""
        delay = min(
            self.max_backoff_ms,
            self.base_backoff_ms * self.backoff_mult ** (attempt - 1),
        )
        if hint_ms is not None:
            delay = max(delay, hint_ms)
        return delay * (1.0 + self.jitter * rng.random())


class CircuitBreaker:
    """Consecutive-failure circuit breaker (closed → open → half-open).

    ``failure_threshold`` consecutive failed attempts open the circuit
    for ``reset_timeout_s`` (``client.breaker_opens``); while open,
    :meth:`allow` refuses instantly — the client stops hammering a
    server that is clearly down.  After the timeout one *probe* attempt
    is allowed through (half-open): success closes the circuit, failure
    re-opens it for another full timeout.  Thread-safe, so one breaker
    may guard several clients.
    """

    def __init__(self, failure_threshold: int = 5,
                 reset_timeout_s: float = 1.0):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout_s <= 0:
            raise ValueError(
                f"reset_timeout_s must be > 0, got {reset_timeout_s}"
            )
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_t: Optional[float] = None   # None = closed
        self._probing = False

    @property
    def state(self) -> str:
        with self._lock:
            if self._opened_t is None:
                return "closed"
            if time.monotonic() - self._opened_t >= self.reset_timeout_s:
                return "half-open"
            return "open"

    def allow(self) -> bool:
        """Whether the next attempt may be sent right now."""
        with self._lock:
            if self._opened_t is None:
                return True
            elapsed = time.monotonic() - self._opened_t
            if elapsed < self.reset_timeout_s:
                return False
            if self._probing:
                return False          # one probe at a time
            self._probing = True
            return True

    def retry_after_ms(self) -> float:
        """Time until the circuit half-opens (hint for CircuitOpenError)."""
        with self._lock:
            if self._opened_t is None:
                return 0.0
            remaining = self.reset_timeout_s - (
                time.monotonic() - self._opened_t
            )
            return max(0.0, remaining) * 1000.0

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._opened_t = None
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if self._opened_t is not None:
                # A failed half-open probe: re-open for a full timeout.
                self._opened_t = time.monotonic()
                self._probing = False
                get_tracer().add("client.breaker_opens")
            elif self._failures >= self.failure_threshold:
                self._opened_t = time.monotonic()
                self._probing = False
                get_tracer().add("client.breaker_opens")


class ResilientClient:
    """Retrying, breaker-guarded serving client.

    Same operation surface as :class:`ServeClient` (``request`` /
    ``predict`` / ``sweep`` / ``score_counters`` / ``ping``), but each
    request survives the faults the chaos harness injects:

    * transport failures reconnect automatically
      (``client.reconnects``);
    * retryable typed errors back off and retry per ``policy``,
      honoring the server's ``retry_after_ms`` (``client.retries``);
    * ``breaker`` trips after consecutive failures and refuses with
      :class:`CircuitOpenError` while open.

    Like :class:`ServeClient`, one instance serves one caller thread.
    """

    def __init__(self, host: str, port: int, *,
                 policy: Optional[ClientRetryPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 timeout_s: float = 60.0,
                 seed: int = 0):
        self.host = host
        self.port = port
        self.policy = policy or ClientRetryPolicy()
        self.breaker = breaker or CircuitBreaker()
        self.timeout_s = timeout_s
        self._rng = random.Random(seed)
        self._client: Optional[ServeClient] = None

    def _attempt(self, op: str, params: Mapping[str, Any],
                 deadline_ms: Optional[float]) -> Any:
        """One attempt; dials first if the last transport broke."""
        if self._client is None:
            self._client = ServeClient(
                self.host, self.port, timeout_s=self.timeout_s
            )
            get_tracer().add("client.connects")
        try:
            return self._client.request(op, params, deadline_ms=deadline_ms)
        except (ConnectionError, socket.timeout, OSError):
            # The transport is gone; drop the connection so the next
            # attempt dials fresh.
            self._client.close()
            self._client = None
            get_tracer().add("client.reconnects")
            raise

    # -- the retry loop ----------------------------------------------------

    def request(self, op: str, params: Optional[Mapping[str, Any]] = None, *,
                deadline_ms: Optional[float] = None) -> Any:
        """Send one request with retries and the breaker; block for a result.

        Raises :class:`CircuitOpenError` without touching the network
        while the breaker is open; otherwise raises the final attempt's
        typed error once retries/budget are exhausted.
        """
        params = params or {}
        policy = self.policy
        started = time.monotonic()
        tracer = get_tracer()
        last_exc: Optional[Exception] = None
        for attempt in range(1, policy.max_attempts + 1):
            if not self.breaker.allow():
                raise CircuitOpenError(
                    "circuit breaker is open",
                    retry_after_ms=self.breaker.retry_after_ms(),
                )
            try:
                result = self._attempt(op, params, deadline_ms)
            except RETRYABLE_CLIENT_ERRORS as exc:
                self.breaker.record_failure()
                last_exc, hint = exc, exc.retry_after_ms
            except (ConnectionError, socket.timeout, OSError) as exc:
                self.breaker.record_failure()
                last_exc, hint = exc, None
            except ServeError as exc:
                # Client errors and elapsed deadlines are final: another
                # attempt would send the same doomed request.
                self.breaker.record_success()
                raise
            else:
                self.breaker.record_success()
                return result
            if attempt >= policy.max_attempts:
                break
            delay_ms = policy.delay_ms(attempt, hint, self._rng)
            if policy.total_budget_ms is not None:
                spent_ms = (time.monotonic() - started) * 1000.0
                if spent_ms + delay_ms >= policy.total_budget_ms:
                    break
            tracer.add("client.retries")
            if delay_ms > 0:
                time.sleep(delay_ms / 1000.0)
        tracer.add("client.giveups")
        raise last_exc

    # -- operations (same surface as ServeClient) ------------------------

    ping = ServeClient.ping
    predict = ServeClient.predict
    sweep = ServeClient.sweep
    score_counters = ServeClient.score_counters

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None

    def __enter__(self) -> "ResilientClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
