"""The open-loop generator: seeded schedules, latency from due time,
and the capacity-ladder pass/fail rule."""

import asyncio
import json
import random
import time

from bench.loadgen import (
    LADDER_FACTOR,
    LADDER_STOP,
    LoadGen,
    PhaseResult,
    Planned,
    Record,
    encode_request,
    ladder_rates,
    poisson_offsets,
    step_verdict,
)
from bench.workloads import ServePlan

NAMES = {"p7": ["EP", "FT", "MG"], "nehalem": ["ep_omp", "mg_omp"]}
POOL = {arch: [{"events": {"CYCLES": 1.0}, "smt_level": 1, "wall_time_s": 1.0,
                "avg_thread_cpu_s": 1.0, "n_software_threads": 1}]
        for arch in NAMES}


def test_same_seed_gives_the_same_schedule():
    def lines(seed):
        plan = ServePlan(seed, NAMES, POOL)
        return [(p.offset_s, p.line) for p in plan.phase("low", 150.0, 300)]

    assert poisson_offsets(random.Random(5), 100.0, 50) == \
        poisson_offsets(random.Random(5), 100.0, 50)
    assert lines(3) == lines(3)
    assert lines(3) != lines(4)
    kinds = [p.kind for p in ServePlan(3, NAMES, POOL).phase("x", 150.0, 2000)]
    assert 0.55 < kinds.count("fresh") / len(kinds) < 0.65
    assert 0.07 < kinds.count("score") / len(kinds) < 0.13


def test_latency_is_timed_from_the_due_time():
    record = Record("r1", "fresh", due=1.0, sent=1.02, recv=1.03)
    assert abs(record.latency - 0.03) < 1e-12
    assert abs(record.lateness - 0.02) < 1e-12


async def _echo(reader, writer):
    while True:
        line = await reader.readline()
        if not line:
            break
        rid = json.loads(line)["id"]
        writer.write((json.dumps({"id": rid, "ok": True, "result": {}}) + "\n").encode())
        await writer.drain()
    writer.close()


def test_a_stalled_generator_charges_its_lateness_to_latency():
    async def main():
        server = await asyncio.start_server(_echo, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        gen = await LoadGen("127.0.0.1", port).open()
        plan = [Planned(f"r{i}", "x", 0.01 * i, encode_request(f"r{i}", "ping", {}))
                for i in range(5)]
        # Block the loop for 0.2 s: every request is sent late.
        asyncio.get_running_loop().call_soon(time.sleep, 0.2)
        phase = await gen.run(plan, settle_s=5.0, lead_s=0.05)
        await gen.close()
        server.close()
        await server.wait_closed()
        return phase

    phase = asyncio.run(main())
    assert all(r.ok for r in phase.records)
    for record in phase.records:
        assert record.lateness > 0.1
        assert record.latency >= record.lateness


def _phase(latencies, ok=True, late_by=None, degraded=False):
    records = []
    for i, latency in enumerate(latencies):
        result = {"degraded": True} if degraded and i == 0 else {}
        records.append(Record(f"r{i}", "x", due=float(i) * 1e-3, sent=float(i) * 1e-3,
                              recv=float(i) * 1e-3 + latency,
                              reply={"id": f"r{i}", "ok": ok or i > 0, "result": result}))
    last_send = records[-1].sent
    if late_by is not None:
        records[-1].recv = last_send + late_by
    return PhaseResult(records, last_send)


def test_ladder_step_passes_when_every_condition_holds():
    assert step_verdict(_phase([0.010] * 1000)) == (True, "ok")


def test_ladder_step_fails_on_p99_over_the_limit():
    latencies = [0.010] * 980 + [0.080] * 20
    passed, why = step_verdict(_phase(latencies))
    assert not passed and "p99" in why


def test_ladder_step_fails_on_failed_or_degraded_replies():
    assert not step_verdict(_phase([0.010] * 1000, ok=False))[0]
    assert not step_verdict(_phase([0.010] * 1000, degraded=True))[0]


def test_ladder_step_fails_on_a_backlog():
    passed, why = step_verdict(_phase([0.010] * 1000, late_by=1.5))
    assert not passed and "backlog" in why
    phase = _phase([0.010] * 1000)
    phase.records[3].recv = None
    assert not step_verdict(phase)[0]


def test_ladder_step_fails_without_enough_samples_for_p99():
    assert not step_verdict(_phase([0.010] * 999))[0]


def test_ladder_rates_rise_geometrically_to_the_cap():
    rates = ladder_rates(800.0)
    assert rates[:3] == [800.0, 920.0, 1058.0]
    assert rates[-1] <= LADDER_STOP < rates[-1] * LADDER_FACTOR
