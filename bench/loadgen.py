"""Open-loop NDJSON load generator and the capacity-ladder rule.

Independent users make an open loop: requests go out on a schedule
fixed in advance from the seed, whether or not earlier replies have
come back, pipelined over a few persistent connections.  Each request's
latency is timed from when it was *due*, so a stall that makes the
generator late is charged to every request it delays.  How late the
generator ran is reported on its own; a phase whose lateness p99
exceeds :data:`MAX_LATENESS_P99_S` is flagged invalid.

The capacity ladder raises the offered rate step by step;
:func:`step_verdict` decides whether one step was served.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from bench.trace import InsufficientSamples, percentile

clock = time.perf_counter

#: A phase whose generator lateness p99 exceeds this is flagged invalid.
MAX_LATENESS_P99_S = 0.010
#: Persistent connections the requests are spread over.
CONNECTIONS = 2
#: How long an awaited control request (warm-up, reset) may take.
CALL_TIMEOUT_S = 120.0
#: Period of the host-speed samples taken while a phase runs.
SAMPLE_EVERY_S = 0.1
#: Ladder pass conditions.
LADDER_P99_LIMIT_S = 0.050
LADDER_SETTLE_S = 1.0
#: The ladder raises the offered rate by this factor per step, up to
#: LADDER_STOP requests per second.
LADDER_FACTOR = 1.15
LADDER_STOP = 2400.0


@dataclass(frozen=True)
class Planned:
    """One scheduled request: ``offset_s`` after the phase starts."""

    rid: str
    kind: str
    offset_s: float
    line: bytes


def poisson_offsets(rng: random.Random, rate: float, n: int) -> List[float]:
    """``n`` Poisson arrival times at ``rate`` per second, from 0."""
    t = 0.0
    offsets = []
    for _ in range(n):
        t += rng.expovariate(rate)
        offsets.append(t)
    return offsets


def encode_request(rid: str, op: str, params: Dict[str, Any]) -> bytes:
    return (json.dumps({"id": rid, "op": op, "params": params},
                       separators=(",", ":")) + "\n").encode()


@dataclass
class Record:
    """What happened to one planned request (perf-counter seconds)."""

    rid: str
    kind: str
    due: float
    sent: Optional[float] = None
    recv: Optional[float] = None
    reply: Optional[Dict[str, Any]] = None

    @property
    def latency(self) -> float:
        return self.recv - self.due

    @property
    def lateness(self) -> float:
        return self.sent - self.due

    @property
    def ok(self) -> bool:
        """Answered, without error and at full fidelity."""
        if self.reply is None or not self.reply.get("ok"):
            return False
        result = self.reply.get("result")
        return not (isinstance(result, dict) and result.get("degraded"))


@dataclass
class PhaseResult:
    records: List[Record]
    last_send: float
    samples: List[float] = field(default_factory=list)

    def answered(self) -> List[Record]:
        return [r for r in self.records if r.recv is not None]

    def failed(self) -> int:
        return sum(1 for r in self.records if not r.ok)

    def lateness_p99(self) -> float:
        lateness = [r.lateness for r in self.records]
        try:
            return percentile(lateness, 99)
        except InsufficientSamples:
            return max(lateness)


class LoadGen:
    """Pipelined NDJSON connections to one server, on the running loop."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._writers: List[asyncio.StreamWriter] = []
        self._readers: List[asyncio.Task] = []
        self._waiting: Dict[str, Any] = {}
        self._outstanding = 0
        self._all_in: Optional[asyncio.Event] = None

    async def open(self) -> "LoadGen":
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection(self.host, self.port)
            self._writers.append(writer)
            self._readers.append(asyncio.get_running_loop().create_task(
                self._read(reader)))
        return self

    async def close(self) -> None:
        for writer in self._writers:
            writer.close()
        for writer in self._writers:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        for task in self._readers:
            task.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)
        self._writers.clear()
        self._readers.clear()

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            now = clock()
            reply = json.loads(line)
            waiter = self._waiting.pop(reply.get("id"), None)
            if waiter is None:
                continue                 # a reply that arrived after its phase
            if isinstance(waiter, asyncio.Future):
                if not waiter.done():
                    waiter.set_result(reply)
                continue
            waiter.recv = now
            waiter.reply = reply
            self._outstanding -= 1
            if self._outstanding == 0 and self._all_in is not None:
                self._all_in.set()

    async def call(self, rid: str, op: str, params: Dict[str, Any]) -> Dict[str, Any]:
        """One request, awaited (warm-up and control traffic, untimed)."""
        future = asyncio.get_running_loop().create_future()
        self._waiting[rid] = future
        writer = self._writers[0]
        writer.write(encode_request(rid, op, params))
        await writer.drain()
        return await asyncio.wait_for(future, CALL_TIMEOUT_S)

    async def run(self, plan: Sequence[Planned], settle_s: float,
                  lead_s: float = 0.05,
                  sample: Optional[Callable[[], float]] = None) -> PhaseResult:
        """Send ``plan`` on schedule, then wait up to ``settle_s`` after
        the last send for the replies; unanswered records keep
        ``recv=None``.  ``sample()``, when given, is called every
        :data:`SAMPLE_EVERY_S` while the phase runs, into ``samples``."""
        start = clock() + lead_s
        records = [Record(p.rid, p.kind, start + p.offset_s) for p in plan]
        for record in records:
            self._waiting[record.rid] = record
        self._outstanding = len(records)
        self._all_in = asyncio.Event()
        samples: List[float] = []
        sampler = None
        if sample is not None:
            sampler = asyncio.get_running_loop().create_task(
                self._sample(sample, samples))
        try:
            last_send = await self._send(plan, records)
            if self._outstanding > 0:
                try:
                    await asyncio.wait_for(
                        self._all_in.wait(), max(0.0, last_send + settle_s - clock()))
                except asyncio.TimeoutError:
                    pass
        finally:
            if sampler is not None:
                sampler.cancel()
                await asyncio.gather(sampler, return_exceptions=True)
        for record in records:
            if record.recv is None:
                self._waiting.pop(record.rid, None)
        self._all_in = None
        return PhaseResult(records, last_send, samples)

    async def _send(self, plan: Sequence[Planned], records: List[Record]) -> float:
        writers = self._writers
        for i, (item, record) in enumerate(zip(plan, records)):
            delay = record.due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            writer = writers[i % len(writers)]
            writer.write(item.line)
            record.sent = clock()
            if writer.transport.get_write_buffer_size() > 1 << 16:
                await writer.drain()
        last_send = clock()
        for writer in writers:
            await writer.drain()
        return last_send

    @staticmethod
    async def _sample(sample: Callable[[], float], into: List[float]) -> None:
        while True:
            await asyncio.sleep(SAMPLE_EVERY_S)
            into.append(sample())


# -- the capacity ladder -----------------------------------------------

def ladder_rates(start: float) -> List[float]:
    """Offered rates of the ladder: ``start`` rising by
    :data:`LADDER_FACTOR` up to :data:`LADDER_STOP`."""
    rates = []
    rate = start
    while rate <= LADDER_STOP + 1e-9:
        rates.append(round(rate, 1))
        rate *= LADDER_FACTOR
    return rates


def step_verdict(phase: PhaseResult) -> Tuple[bool, str]:
    """Whether one ladder step was served, and why not.

    A step passes when every reply arrived within
    :data:`LADDER_SETTLE_S` of the step's last send (no growing
    backlog), none failed or came back degraded, and the p99 latency is
    at most :data:`LADDER_P99_LIMIT_S`.  A step whose generator ran late
    cannot certify its rate and fails too.
    """
    for record in phase.records:
        if record.recv is None or record.recv - phase.last_send > LADDER_SETTLE_S:
            return False, "backlog: a reply missed the settle window"
    if phase.failed():
        return False, f"{phase.failed()} failed or degraded replies"
    if phase.lateness_p99() > MAX_LATENESS_P99_S:
        return False, "generator late"
    try:
        p99 = percentile([r.latency for r in phase.records], 99)
    except InsufficientSamples as exc:
        return False, str(exc)
    if p99 > LADDER_P99_LIMIT_S:
        return False, f"p99 {p99 * 1e3:.1f} ms over the limit"
    return True, "ok"
