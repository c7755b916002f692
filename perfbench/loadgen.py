"""Load generator: open-loop, closed-loop and fill legs over NDJSON/TCP.

Everything runs on one asyncio loop in the benchmark process, over at
most two connections.  Single-query responses arrive in completion
order, so they are matched per connection by ``(topology, source)`` in
FIFO order (schedule-carrying answers only to schedule requests); a
``batch`` connection has one request in flight and needs no matching.

Latency of an open-loop request is measured from the moment it was
*due*, so a stall also charges the requests queued behind it; how late
the sender itself ran is reported as the leg's lag.
"""

from __future__ import annotations

import asyncio
import json
import random
import statistics
import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

clock = time.perf_counter

#: Open-loop legs whose sender lag p99 exceeds this are invalid.
MAX_LAG_P99_MS = 20.0

STREAM_LIMIT = 1 << 24

#: Equal time slices of a closed-loop leg; its rate is their median.
RATE_SLICES = 10


class Request:
    __slots__ = ("key", "schedule", "line", "due", "sent", "done", "resp",
                 "fut")

    def __init__(self, key, schedule: bool, line: bytes, due: float = 0.0):
        self.key = key
        self.schedule = schedule
        self.line = line
        self.due = due
        self.sent = 0.0
        self.done = 0.0
        self.resp: Optional[dict] = None
        self.fut: Optional[asyncio.Future] = None


def read_request(label: str, shape, source, schedule: bool) -> Request:
    payload = {"topology": label, "shape": list(shape),
               "source": list(source)}
    if schedule:
        payload["include_schedule"] = True
    line = (json.dumps(payload, separators=(",", ":")) + "\n").encode()
    return Request((label, tuple(source)), schedule, line)


class ReadStream:
    """Seeded read requests: zipf-skewed sources over a set of shapes.

    Each shape's sources are ranked by a seeded permutation and drawn
    with probability proportional to ``1 / rank`` (zipf, s = 1).  A ``schedule_share``
    of the requests also ask for the schedule; those draw from the
    ``schedule_top`` hottest ranks only, whose schedules the workload
    loads into the server's cache before timing (:meth:`hot_schedules`).
    """

    def __init__(self, shapes: Sequence[Tuple[str, Tuple[int, ...]]],
                 seed: int, schedule_share: float = 0.0,
                 schedule_top: int = 32) -> None:
        self.rng = random.Random(seed)
        self.shapes = []
        for label, shape in shapes:
            coords = all_coords(shape)
            self.rng.shuffle(coords)
            cum, total = [], 0.0
            for rank in range(1, len(coords) + 1):
                total += 1.0 / rank
                cum.append(total)
            self.shapes.append((label, shape, coords, cum))
        self.schedule_share = schedule_share
        self.schedule_top = schedule_top

    def next(self) -> Request:
        label, shape, coords, cum = self.rng.choice(self.shapes)
        schedule = self.rng.random() < self.schedule_share
        top = self.schedule_top if schedule else len(coords)
        source = self.rng.choices(coords[:top], cum_weights=cum[:top])[0]
        return read_request(label, shape, source, schedule)

    def hot_schedules(self) -> List[dict]:
        """Wire queries for every schedule a request may ask for."""
        return [{"topology": label, "shape": list(shape),
                 "source": list(source), "include_schedule": True}
                for label, shape, coords, _ in self.shapes
                for source in coords[:self.schedule_top]]


def all_coords(shape) -> List[Tuple[int, ...]]:
    out = [()]
    for extent in shape:
        out = [c + (v,) for c in out for v in range(1, extent + 1)]
    return out


class Conn:
    """One pipelined connection with FIFO response matching."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer
        self.pending: Dict[tuple, deque] = {}
        self.order: deque = deque()
        self.outstanding = 0
        self.on_done = None
        self.idle = asyncio.Event()
        self.idle.set()
        self._task = asyncio.create_task(self._read_loop())

    @classmethod
    async def open(cls, port: int) -> "Conn":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=STREAM_LIMIT)
        return cls(reader, writer)

    def send(self, req: Request) -> None:
        self.pending.setdefault(req.key, deque()).append(req)
        self.order.append(req)
        self.outstanding += 1
        self.idle.clear()
        req.sent = clock()
        self.writer.write(req.line)

    def _match(self, resp: dict) -> Optional[Request]:
        source = resp.get("source")
        key = (resp.get("topology"),
               tuple(source) if isinstance(source, list) else None)
        queue = self.pending.get(key)
        if queue:
            want = "schedule" in resp
            for req in queue:
                if not resp.get("ok") or req.schedule == want:
                    queue.remove(req)
                    return req
        # An error without a key: charge the oldest outstanding request.
        while self.order:
            req = self.order.popleft()
            if req.done == 0.0:
                self.pending[req.key].remove(req)
                return req
        return None

    async def _read_loop(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                return
            now = clock()
            resp = json.loads(line)
            req = self._match(resp)
            if req is None:
                continue
            req.done, req.resp = now, resp
            self.outstanding -= 1
            if self.outstanding == 0:
                self.idle.set()
            if req.fut is not None:
                req.fut.set_result(resp)
            elif self.on_done is not None:
                self.on_done(self, req)

    async def drain(self) -> None:
        if self.writer.transport.get_write_buffer_size() > 1 << 16:
            await self.writer.drain()

    async def wait_idle(self, timeout: float) -> bool:
        try:
            await asyncio.wait_for(self.idle.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    async def request(self, payload: dict, timeout: float = 120.0) -> dict:
        """One keyless request (``batch`` / ``stats``) and its response."""
        line = (json.dumps(payload, separators=(",", ":")) + "\n").encode()
        req = Request((None, None), False, line)
        req.fut = asyncio.get_running_loop().create_future()
        self.send(req)
        await asyncio.wait_for(req.fut, timeout)
        return req.resp

    def close(self) -> None:
        self._task.cancel()
        self.writer.close()


async def open_loop(conns: Sequence[Conn], stream: ReadStream, rate: float,
                    seed: int, *, duration: Optional[float] = None,
                    stop: Optional[asyncio.Event] = None
                    ) -> Tuple[List[Request], List[float]]:
    """Poisson arrivals at *rate* until *duration* or *stop*.

    Returns the requests (with due/sent/done times) and the sender lag
    of each, in ms.  Requests alternate between the connections.
    """
    rng = random.Random(seed ^ 0x5EED)
    reqs: List[Request] = []
    lags: List[float] = []
    base = clock() + 0.01
    offset = 0.0
    i = 0
    while True:
        offset += rng.expovariate(rate)
        if duration is not None and offset >= duration:
            break
        if stop is not None and stop.is_set():
            break
        due = base + offset
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        req = stream.next()
        req.due = due
        conn = conns[i % len(conns)]
        conn.send(req)
        lags.append((req.sent - due) * 1e3)
        reqs.append(req)
        i += 1
        await conn.drain()
    for conn in conns:
        await conn.wait_idle(30.0)
    return reqs, lags


async def closed_loop(conns: Sequence[Conn], stream: ReadStream,
                      window: int, warmup: float, seconds: float
                      ) -> Tuple[List[Request], float, float, int]:
    """Keep *window* requests in flight per connection for a while.

    Returns all requests, the rate over the *seconds* after *warmup* --
    the median over :data:`RATE_SLICES` equal slices of each slice's
    completions per second, so a host stall of a second or two is one
    vote in ten -- the plain rate over those *seconds*, and the
    completion count in them.
    """
    reqs: List[Request] = []
    state = {"sending": True, "t0": None, "t1": None}
    done_at: List[float] = []

    def refill(conn, req):
        now = req.done
        if state["t0"] is not None and now >= state["t0"] and (
                state["t1"] is None):
            done_at.append(now)
        if state["sending"]:
            nxt = stream.next()
            reqs.append(nxt)
            conn.send(nxt)

    for conn in conns:
        conn.on_done = refill
        for _ in range(window):
            req = stream.next()
            reqs.append(req)
            conn.send(req)
    await asyncio.sleep(warmup)
    state["t0"] = clock()
    await asyncio.sleep(seconds)
    state["t1"] = clock()
    state["sending"] = False
    elapsed = state["t1"] - state["t0"]
    for conn in conns:
        await conn.wait_idle(30.0)
        conn.on_done = None
    width = elapsed / RATE_SLICES
    counts = [0] * RATE_SLICES
    for t in done_at:
        counts[min(int((t - state["t0"]) / width), RATE_SLICES - 1)] += 1
    return (reqs, statistics.median(counts) / width,
            len(done_at) / elapsed, len(done_at))


async def fill(conn: Conn, batches: Sequence[List[dict]]
               ) -> Tuple[List[Tuple[float, dict]], float]:
    """Send *batches* one at a time; ``[(latency_s, response)]``, wall."""
    out = []
    start = clock()
    for batch in batches:
        t = clock()
        resp = await conn.request({"type": "batch", "queries": batch})
        out.append((clock() - t, resp))
    return out, clock() - start
