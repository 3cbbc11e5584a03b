"""Regression: the client's typed error hierarchy (satellite of the
chaos-hardening PR).

The resilient layer dispatches on error *types* and the
``retry_after_ms`` hint, so the hierarchy is load-bearing API: every
wire code must map to a ServeError subclass carrying the hint, and a
single-shot ``ServeClient.request`` against an overloaded server must
raise the typed ``OverloadedError`` with a usable hint.
"""

import time

import pytest

from repro.serve import ServeClient, ServeConfig
from repro.serve.client import (
    _ERROR_TYPES,
    RETRYABLE_CLIENT_ERRORS,
    CancelledError,
    CircuitOpenError,
    DeadlineExceededError,
    InternalError,
    InvalidRequestError,
    OverloadedError,
    ServeError,
    ShuttingDownError,
)
from repro.serve.protocol import RETRYABLE_CODES


class TestErrorHierarchy:
    EXPECTED_CODES = {
        InvalidRequestError: "invalid_request",
        OverloadedError: "overloaded",
        DeadlineExceededError: "deadline_exceeded",
        ShuttingDownError: "shutting_down",
        CancelledError: "cancelled",
        InternalError: "internal",
        CircuitOpenError: "circuit_open",
    }

    def test_every_typed_error_is_a_serve_error_with_its_wire_code(self):
        for cls, code in self.EXPECTED_CODES.items():
            assert issubclass(cls, ServeError)
            assert cls.code == code
            assert cls("boom").retry_after_ms is None
            assert cls("boom", retry_after_ms=125.0).retry_after_ms == 125.0

    def test_wire_code_map_is_complete(self):
        # Every wire code a server can answer with maps to a typed class;
        # circuit_open is client-local and deliberately NOT on the wire.
        assert set(_ERROR_TYPES) == {
            "invalid_request", "overloaded", "deadline_exceeded",
            "shutting_down", "cancelled", "internal",
        }
        for code in RETRYABLE_CODES:
            assert code in _ERROR_TYPES

    def test_unknown_code_falls_back_to_the_base_class(self):
        assert _ERROR_TYPES.get("warp_core_breach", ServeError) is ServeError

    def test_retryable_set_excludes_final_errors(self):
        assert OverloadedError in RETRYABLE_CLIENT_ERRORS
        assert ShuttingDownError in RETRYABLE_CLIENT_ERRORS
        assert InternalError in RETRYABLE_CLIENT_ERRORS
        assert InvalidRequestError not in RETRYABLE_CLIENT_ERRORS
        assert DeadlineExceededError not in RETRYABLE_CLIENT_ERRORS


def _occupy_dispatcher(client: ServeClient) -> None:
    """Fill the single dispatch slot and the queue_size=1 queue.

    Same shape as the test_service helper: a slow serial sweep is
    collected (the executor blocks on it), a second sweep parks in the
    queue, and every further request must bounce with ``overloaded``.
    """
    client._send(
        "sweep", {"levels": [1, 2, 4], "strategy": "serial"}, None,
    )
    time.sleep(0.3)          # let the collector take the slow sweep
    client._send(
        "sweep", {"workloads": ["EP"], "levels": [1], "strategy": "serial"},
        None,
    )


class TestSingleShotOverloaded:
    def test_request_raises_typed_overloaded_with_retry_hint(self, make_server):
        config = ServeConfig(
            queue_size=1, max_linger_ms=0.0,
            session={"seed": 11, "use_cache": False},
        )
        bg = make_server(config)
        with ServeClient(bg.host, bg.port) as slow, \
                ServeClient(bg.host, bg.port) as fast:
            _occupy_dispatcher(slow)
            with pytest.raises(OverloadedError) as exc_info:
                fast.request("predict", {"workload": "EP"})
            err = exc_info.value
            assert isinstance(err, ServeError)
            assert err.code == "overloaded"
            assert err.retry_after_ms is not None
            assert err.retry_after_ms > 0
