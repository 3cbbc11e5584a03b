"""End-to-end tests of the prediction service.

The server runs in-process (:class:`BackgroundServer` on a daemon
thread); clients are real blocking TCP clients.  The suite covers the
acceptance criteria of the serving layer: concurrent responses match
direct :mod:`repro.api` answers, concurrent requests are actually
coalesced (mean batch size > 1, proven via telemetry counters),
a full admission queue rejects with backpressure, expired deadlines
fail instead of serving late, and shutdown drains admitted work.
"""

import threading
import time

import pytest

import repro.api as api
from repro.serve import (
    BackgroundServer,
    DeadlineExceededError,
    OverloadedError,
    ServeClient,
    ServeConfig,
    ServeError,
)

WORKLOADS = ("EP", "CG", "SSCA2", "Swim", "Dedup", "Equake", "Stream", "LU")

# Fixtures (tracer, make_server, server, client) live in conftest.py:
# every test server binds port 0 and plumbs the bound address through.


def _occupy_dispatcher(client: ServeClient) -> str:
    """Fill the single dispatch slot *and* the queue_size=1 queue.

    Sweep A (the full default catalog, serial, cold cache — ~0.3 s of
    work on a 2-core host) is sent and given a moment to be collected
    (the collector pops it immediately and blocks on the executor until
    it finishes); then sweep B parks in the admission queue.  The pause
    must stay well below A's run time, or A is done before the requests
    that should bounce arrive.  From that point every further
    request must bounce with ``overloaded`` — deterministically, for as
    long as A keeps the worker busy.  Returns A's request id.
    """
    slow_id = client._send(
        "sweep", {"levels": [1, 2, 4], "strategy": "serial"}, None,
    )
    time.sleep(0.05)         # let the collector take A off the queue
    client._send(
        "sweep", {"workloads": ["EP"], "levels": [1], "strategy": "serial"},
        None,
    )
    return slow_id


class TestBasics:
    def test_ping(self, client):
        assert client.ping() is True

    def test_predict_matches_direct_api(self, client):
        served = client.predict("EP")
        direct = api.predict("EP", "p7").payload()
        assert served["workload"] == direct["workload"]
        assert served["recommended_level"] == direct["recommended_level"]
        assert served["smtsm"] == pytest.approx(direct["smtsm"], rel=1e-9)
        assert served["threshold"] == pytest.approx(direct["threshold"], rel=1e-9)

    def test_sweep(self, client):
        summary = client.sweep(workloads=["EP", "CG"], levels=[1, 4])
        assert set(summary["workloads"]) == {"EP", "CG"}
        assert summary["levels"] == [1, 4]

    def test_sweep_without_strategy_runs_columnar(self, tracer, make_server):
        # No "strategy" param: the handler's DEFAULT_STRATEGY decides.
        bg = make_server(ServeConfig(session={"use_cache": False}))
        with ServeClient(bg.host, bg.port) as c:
            summary = c.request("sweep", {"workloads": ["EP"], "levels": [1]})
        assert set(summary["workloads"]) == {"EP"}
        names = {record.name for record in tracer.spans()}
        assert "table.simulate_many" in names
        assert "engine.simulate_many" not in names
        (sweep,) = [r for r in tracer.spans() if r.name == "runner.run_catalog"]
        assert sweep.attrs["strategy"] == "columnar"

    def test_score_counters(self, client):
        events = {"CYCLES": 1e9, "INSTRUCTIONS": 6e8, "DISP_HELD_RES": 2e8,
                  "LD_CMPL": 2.2e8, "ST_CMPL": 1.1e8, "BR_CMPL": 9e7,
                  "FX_CMPL": 1.5e8, "VS_CMPL": 3e7}
        served = client.score_counters(
            events, smt_level=2, wall_time_s=1.0,
            avg_thread_cpu_s=0.9, n_software_threads=8)
        direct = api.score_counters(
            events, "p7", smt_level=2, wall_time_s=1.0,
            avg_thread_cpu_s=0.9, n_software_threads=8)
        assert served["smtsm"] == pytest.approx(direct.value, rel=1e-12)

    def test_invalid_workload_is_client_error(self, client):
        with pytest.raises(ServeError) as exc_info:
            client.predict("doom")
        assert exc_info.value.code == "invalid_request"

    def test_unknown_strategy_is_client_error(self, client):
        with pytest.raises(ServeError) as exc_info:
            client.sweep(workloads=["EP"], levels=[1], strategy="surrogate")
        assert exc_info.value.code == "invalid_request"
        assert "unknown strategy" in str(exc_info.value)

    def test_unknown_op_is_rejected(self, client):
        with pytest.raises(ServeError) as exc_info:
            client.request("explode", {})
        assert exc_info.value.code == "invalid_request"


class TestCoalescing:
    def test_concurrent_clients_coalesce_and_match_direct(self, server, tracer):
        """N concurrent clients; answers correct; requests batched."""
        results = {}
        errors = []
        barrier = threading.Barrier(len(WORKLOADS))

        def worker(name):
            try:
                with ServeClient(server.host, server.port) as c:
                    barrier.wait(timeout=10)
                    results[name] = c.predict(name)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append((name, exc))

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in WORKLOADS]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert set(results) == set(WORKLOADS)

        for name in WORKLOADS:
            direct = api.predict(name, "p7").payload()
            assert results[name]["recommended_level"] == \
                direct["recommended_level"], name
            assert results[name]["smtsm"] == \
                pytest.approx(direct["smtsm"], rel=1e-9), name

        counters = tracer.counters()
        batches = counters.get("serve.batches", 0)
        batched_requests = counters.get("serve.batched_requests", 0)
        assert batches >= 1
        mean_batch_size = batched_requests / batches
        assert mean_batch_size > 1.0, (
            f"requests were not coalesced: {batched_requests} requests "
            f"in {batches} batches"
        )


class TestClientErrorIsolation:
    @pytest.mark.parametrize("bad", [
        {"workload": "NOPE"},
        {"workload": "EP", "level": 3},   # POWER7 has no SMT3
        {},
    ], ids=["unknown-workload", "invalid-level", "missing-workload"])
    def test_bad_predict_fails_only_itself(self, bad, tracer, make_server):
        """A malformed predict coalesced with a valid one fails alone."""
        # max_batch=2 closes the pair's batch at once; a lone request
        # waits out the linger.
        config = ServeConfig(max_linger_ms=300.0, max_batch=2,
                             session={"seed": 11, "use_cache": False})
        bg = make_server(config)
        with ServeClient(bg.host, bg.port) as client:
            alone = client.predict("EP")
            tracer.reset()
            good_id = client._send("predict", {"workload": "EP"}, None)
            bad_id = client._send("predict", bad, None)
            good, rejected = client._recv(good_id), client._recv(bad_id)
        assert tracer.counters().get("serve.batch_size_le_2") == 1, (
            "the two requests were not coalesced into one batch"
        )
        assert good["ok"] and good["result"] == alone
        assert not rejected["ok"]
        assert rejected["error"]["code"] == "invalid_request"


class TestBackpressure:
    def test_full_queue_rejects_with_retry_after(self, tracer, make_server):
        # queue_size=1: with the worker busy on sweep A and sweep B
        # parked in the queue, every prediction must bounce.
        config = ServeConfig(
            queue_size=1, max_linger_ms=0.0,
            session={"seed": 11, "use_cache": False},
        )
        bg = make_server(config)
        with ServeClient(bg.host, bg.port) as slow, \
                ServeClient(bg.host, bg.port) as fast:
            slow_id = _occupy_dispatcher(slow)
            ids = [fast._send("predict", {"workload": "EP"}, None)
                   for _ in range(8)]
            responses = [fast._recv(i) for i in ids]
            rejected = [r for r in responses if not r.get("ok")]
            assert len(rejected) == len(responses), (
                "every request should be rejected while the slot and "
                "queue are both occupied"
            )
            for r in rejected:
                assert r["error"]["code"] == "overloaded"
                assert r["error"]["retry_after_ms"] > 0
            # The occupying sweep still completes correctly.
            sweep_response = slow._recv(slow_id)
            assert sweep_response["ok"]
        assert tracer.counters().get("serve.rejections", 0) >= 8

    def test_client_raises_typed_overloaded_error(self, make_server):
        config = ServeConfig(
            queue_size=1, max_linger_ms=0.0,
            session={"seed": 11, "use_cache": False},
        )
        bg = make_server(config)
        with ServeClient(bg.host, bg.port) as slow, \
                ServeClient(bg.host, bg.port) as fast:
            _occupy_dispatcher(slow)
            with pytest.raises(OverloadedError) as exc_info:
                fast.predict("EP")
            assert exc_info.value.retry_after_ms > 0

    def test_parallel_servers_get_distinct_ephemeral_ports(self, make_server):
        # The port-0 discipline is what lets parallel CI runs coexist:
        # two servers started the same way never collide.
        a = make_server(ServeConfig(session={"seed": 11}))
        b = make_server(ServeConfig(session={"seed": 11}))
        assert a.port != b.port
        with ServeClient(a.host, a.port) as ca, \
                ServeClient(b.host, b.port) as cb:
            assert ca.ping() and cb.ping()


class TestDeadlines:
    def test_expired_deadline_fails_instead_of_serving_late(self, make_server):
        config = ServeConfig(
            max_linger_ms=0.0, session={"seed": 11, "use_cache": False},
        )
        bg = make_server(config)
        with ServeClient(bg.host, bg.port) as slow, \
                ServeClient(bg.host, bg.port) as fast:
            slow._send(
                "sweep",
                {"workloads": list(WORKLOADS), "levels": [1, 2, 4],
                 "strategy": "serial"},
                None,
            )
            # Queued behind the sweep with a 1ms deadline: must fail.
            with pytest.raises(DeadlineExceededError):
                fast.predict("EP", deadline_ms=1.0)


class TestGracefulDrain:
    def test_admitted_work_finishes_during_drain(self, make_server):
        config = ServeConfig(max_linger_ms=0.0,
                             session={"seed": 11, "use_cache": False})
        bg = make_server(config)
        outcome = {}

        def request_sweep():
            with ServeClient(bg.host, bg.port) as c:
                outcome["summary"] = c.sweep(
                    workloads=["EP", "CG"], levels=[1, 4], strategy="serial"
                )

        worker = threading.Thread(target=request_sweep)
        worker.start()
        time.sleep(0.2)          # let the sweep be admitted
        bg.stop()                # graceful drain blocks until done
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert set(outcome["summary"]["workloads"]) == {"EP", "CG"}

    def test_listener_closed_after_stop(self, make_server):
        bg = make_server(ServeConfig())
        host, port = bg.host, bg.port
        bg.stop()
        with pytest.raises(OSError):
            ServeClient(host, port, timeout_s=2.0)
