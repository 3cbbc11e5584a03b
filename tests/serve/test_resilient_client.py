"""The resilient client: retry schedule, circuit breaker, reconnects.

Unit tests drive the retry loop against a stubbed ``_attempt`` (no
network), so every branch — retryable error, transport error, final
client error, open breaker, budget exhaustion — is deterministic; one
e2e test proves the resilient surface answers identically to the naive
client against a live server.
"""

import random
import time

import pytest

from repro.serve import (
    CircuitBreaker,
    CircuitOpenError,
    ClientRetryPolicy,
    ResilientClient,
    ServeClient,
)
from repro.serve.client import (
    InternalError,
    InvalidRequestError,
    OverloadedError,
)


class TestClientRetryPolicy:
    def test_exponential_with_cap_and_jitter_bounds(self):
        policy = ClientRetryPolicy(
            base_backoff_ms=10.0, backoff_mult=2.0,
            max_backoff_ms=40.0, jitter=0.5,
        )
        rng = random.Random(0)
        for attempt, base in ((1, 10.0), (2, 20.0), (3, 40.0), (4, 40.0)):
            for _ in range(20):
                delay = policy.delay_ms(attempt, None, rng)
                assert base <= delay <= base * 1.5

    def test_server_hint_floors_the_delay(self):
        policy = ClientRetryPolicy(base_backoff_ms=10.0, jitter=0.0)
        rng = random.Random(0)
        # A large hint wins over the exponent...
        assert policy.delay_ms(1, 500.0, rng) == 500.0
        # ...but a tiny hint never shrinks the backoff.
        assert policy.delay_ms(1, 1.0, rng) == 10.0

    @pytest.mark.parametrize("bad", [
        dict(max_attempts=0),
        dict(base_backoff_ms=-1.0),
        dict(backoff_mult=0.5),
        dict(jitter=2.0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ClientRetryPolicy(**bad)


class TestCircuitBreaker:
    def test_opens_at_threshold_then_probe_recovers(self, tracer):
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout_s=0.05)
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.allow()              # one failure: still closed
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.retry_after_ms() > 0
        time.sleep(0.06)
        assert breaker.state == "half-open"
        assert breaker.allow()              # the single probe
        assert not breaker.allow()          # only one probe at a time
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()
        assert tracer.counters()["client.breaker_opens"] == 1.0

    def test_failed_probe_reopens_for_a_full_timeout(self, tracer):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=0.05)
        breaker.record_failure()
        assert breaker.state == "open"
        time.sleep(0.06)
        assert breaker.allow()              # the probe goes out...
        breaker.record_failure()            # ...and fails
        assert breaker.state == "open"
        assert not breaker.allow()
        assert tracer.counters()["client.breaker_opens"] == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout_s=0.0)


def stub_client(script, **kwargs):
    """A ResilientClient whose attempts replay ``script`` (no sockets).

    ``script`` is a list of outcomes, one per attempt (the last repeats):
    an Exception instance is raised, anything else returned.
    """
    client = ResilientClient("127.0.0.1", 1, **kwargs)
    calls = []

    def fake_attempt(op, params, deadline_ms):
        calls.append(op)
        outcome = script[min(len(calls), len(script)) - 1]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    client._attempt = fake_attempt
    return client, calls


class TestRequestLoop:
    def test_retries_then_succeeds(self, tracer):
        client, calls = stub_client(
            [
                OverloadedError("busy", retry_after_ms=1.0),
                OverloadedError("busy", retry_after_ms=1.0),
                {"pong": True},
            ],
            policy=ClientRetryPolicy(
                max_attempts=5, base_backoff_ms=1.0, max_backoff_ms=2.0,
            ),
        )
        assert client.request("ping") == {"pong": True}
        assert len(calls) == 3
        assert tracer.counters()["client.retries"] == 2.0
        client.close()

    def test_transport_errors_reconnect_and_retry(self, tracer):
        client, calls = stub_client(
            [ConnectionError("server closed the connection"), {"pong": True}],
            policy=ClientRetryPolicy(max_attempts=3, base_backoff_ms=0.0),
        )
        assert client.request("ping") == {"pong": True}
        assert len(calls) == 2
        client.close()

    def test_gives_up_after_max_attempts(self, tracer):
        client, calls = stub_client(
            [InternalError("boom")],
            policy=ClientRetryPolicy(max_attempts=3, base_backoff_ms=0.0),
            breaker=CircuitBreaker(failure_threshold=10),
        )
        with pytest.raises(InternalError):
            client.request("ping")
        assert len(calls) == 3
        assert tracer.counters()["client.giveups"] == 1.0
        client.close()

    def test_client_errors_are_final(self, tracer):
        client, calls = stub_client([InvalidRequestError("bad params")])
        with pytest.raises(InvalidRequestError):
            client.request("predict", {})
        assert len(calls) == 1              # no retry for a doomed request
        assert "client.retries" not in tracer.counters()
        client.close()

    def test_open_breaker_refuses_without_touching_the_network(self, tracer):
        client, calls = stub_client(
            [InternalError("boom")],
            policy=ClientRetryPolicy(max_attempts=5, base_backoff_ms=0.0),
            breaker=CircuitBreaker(failure_threshold=1, reset_timeout_s=60.0),
        )
        with pytest.raises(CircuitOpenError) as exc_info:
            client.request("ping")
        assert exc_info.value.retry_after_ms > 0
        assert len(calls) == 1              # the breaker stopped attempt #2
        client.close()

    def test_total_budget_bounds_the_whole_request(self, tracer):
        client, calls = stub_client(
            [OverloadedError("busy", retry_after_ms=10_000.0)],
            policy=ClientRetryPolicy(max_attempts=5, total_budget_ms=50.0),
        )
        with pytest.raises(OverloadedError):
            client.request("ping")
        assert len(calls) == 1              # the hinted delay blows the budget
        client.close()


class TestEndToEnd:
    def test_same_answers_as_the_naive_client(self, server):
        with ResilientClient(server.host, server.port) as resilient, \
                ServeClient(server.host, server.port) as naive:
            assert resilient.ping() is True
            assert resilient.predict("EP") == naive.predict("EP")
            summary = resilient.sweep(workloads=["EP"], levels=[1, 4])
            assert summary["levels"] == [1, 4]
