"""Runtime variants: the same query engine under three execution models.

Following the ``AsyncRuntime`` / ``SyncRuntime`` / ``SimulationRuntime``
split of the doeff CESK runtime (SNIPPETS.md snippet 3), the protocol /
store / engine code never touches a clock or an event loop itself — a
*runtime* decides how queries execute and what "time" means:

=====================  ==========================  =======================
Runtime                execution model             use case
=====================  ==========================  =======================
:class:`AsyncRuntime`  asyncio, micro-batching     ``repro-wsn serve``
:class:`SyncRuntime`   direct calls, wall clock    ``repro-wsn query`` CLI
:class:`SimulationRuntime`  virtual clock, instant  deterministic tests
=====================  ==========================  =======================

All three expose the same surface — ``query`` / ``query_batch`` /
``now`` — so service code (and its tests) is runtime-agnostic; only
:class:`AsyncRuntime`'s methods are coroutines.

The async runtime is where request coalescing becomes *temporal*:
queries issued by concurrent tasks funnel through one dispatcher, which
drains everything currently queued each tick and splits it into
per-class groups (same topology, shape, protocol, compile options and
``include_schedule`` — the key :meth:`~repro.service.engine.QueryEngine
.query_batch` coalesces on).  Every group is launched at once as its own
``query_batch`` call on the executor thread pool, and the dispatcher
goes straight back to draining: a group's futures resolve when *its*
batch returns, so a warm read never waits out a cold class's compile
that happened to share (or precede) its tick.

Coalescing survives the pipelining through a *single flight per key*:
arrivals whose key already has a batch in flight are parked, and when
that batch returns they launch together as one group of at most
``max_batch``.  The first batch of a class persists the class profile,
so the parked stragglers ride it at zero further compiles — N
same-class queries cost one representative compile however many ticks
they straddle, and k cold classes cost k.  Cold representatives of
different keys still compile concurrently on different cores.

Parked queries count against ``max_queue`` like queued ones; the
``shed-oldest`` policy displaces the oldest waiter, parked or queued,
and a parked query whose deadline passed is shed when its group
launches.  ``close()`` cancels every waiter — queued, parked or in
flight — so no caller is left awaiting a future nobody will resolve.
"""

from __future__ import annotations

import abc
import asyncio
import functools
import itertools
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from .engine import (DeadlineExceeded, Overloaded, Query, QueryEngine,
                     QueryResult)

#: Upper bound on one async dispatch batch (bounds per-tick latency).
MAX_BATCH = 1024

#: Default bound on queries waiting for a dispatch tick; beyond it the
#: overflow policy applies (reject the newcomer, or shed the oldest).
MAX_QUEUE = 4096

#: Overflow policies of the bounded async queue.
OVERFLOW_POLICIES = ("reject", "shed-oldest")


class Runtime(abc.ABC):
    """Common surface of the three runtimes."""

    name: str = "runtime"

    def __init__(self, engine: QueryEngine) -> None:
        self.engine = engine

    @abc.abstractmethod
    def now(self) -> float:
        """Current time in seconds (wall-clock or virtual)."""

    def stats(self):
        return self.engine.stats()


class SyncRuntime(Runtime):
    """Direct synchronous execution on the caller's thread.

    The CLI runtime: no event loop, no virtual clock — a query is a
    function call.
    """

    name = "sync"

    def now(self) -> float:
        return time.monotonic()

    def query(self, query: Query) -> QueryResult:
        return self.engine.query(query)

    def query_batch(self, queries: Sequence[Query]) -> List[QueryResult]:
        return self.engine.query_batch(queries)


class SimulationRuntime(Runtime):
    """Deterministic in-process runtime with a virtual clock.

    Queries execute immediately (simulated time does not flow while the
    engine works); the clock only moves through :meth:`advance`.  Every
    answered query is appended to :attr:`timeline` as ``(virtual_time,
    via)`` so tests can assert on serving-tier sequences without
    touching wall-clock timing or sockets.
    """

    name = "simulation"

    def __init__(self, engine: QueryEngine) -> None:
        super().__init__(engine)
        self.time = 0.0
        self.timeline: List[Tuple[float, str]] = []

    def now(self) -> float:
        return self.time

    def advance(self, seconds: float) -> None:
        """Move the virtual clock forward (never backwards)."""
        if seconds < 0:
            raise ValueError(f"cannot advance by {seconds} s")
        self.time += seconds

    def query(self, query: Query) -> QueryResult:
        result = self.engine.query(query)
        self.timeline.append((self.time, result.via))
        return result

    def query_batch(self, queries: Sequence[Query]) -> List[QueryResult]:
        results = self.engine.query_batch(queries)
        for result in results:
            self.timeline.append((self.time, result.via))
        return results


class AsyncRuntime(Runtime):
    """Asyncio runtime with micro-batching, pipelined per-class dispatch.

    Concurrent ``await runtime.query(...)`` calls enqueue onto one
    dispatcher task.  Each tick drains the queue, splits the batch into
    per-class groups and launches every group as its own ``query_batch``
    on the default executor without waiting for the others; at most one
    batch per group key is in flight, later arrivals of a busy key park
    until it returns.  Failures are group-scoped: an error in one class
    rejects that group's futures and leaves every other group (and the
    dispatcher) running.
    """

    name = "async"

    def __init__(self, engine: QueryEngine, *,
                 max_batch: int = MAX_BATCH,
                 max_queue: int = MAX_QUEUE,
                 overflow: str = "reject") -> None:
        super().__init__(engine)
        if overflow not in OVERFLOW_POLICIES:
            raise ValueError(f"unknown overflow policy {overflow!r}; "
                             f"expected one of {OVERFLOW_POLICIES}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.overflow = overflow
        #: Overload-protection counters: queries refused at the door
        #: ("reject") and waiting queries displaced by newer arrivals
        #: ("shed-oldest"), plus queries shed at launch because their
        #: deadline expired while queued or parked.
        self.rejected = 0
        self.shed_queued = 0
        self.shed_expired = 0
        self._queue: Optional[asyncio.Queue] = None
        self._task: Optional[asyncio.Task] = None
        #: Group key -> (executor future, its waiters) of the one batch
        #: in flight for that key.
        self._inflight: Dict[tuple, Tuple[asyncio.Future, list]] = {}
        #: Group key -> waiters parked behind its in-flight batch, in
        #: arrival order.  Waiters are ``(query, future, arrival)``.
        self._parked: Dict[tuple, Deque[tuple]] = {}
        self._parked_count = 0
        self._arrivals = itertools.count()

    def now(self) -> float:
        return time.monotonic()

    def stats(self):
        out = dict(self.engine.stats())
        out.update({
            "rejected": self.rejected,
            "shed_queued": self.shed_queued,
            "shed_expired": self.shed_expired,
            "queued": 0 if self._queue is None else self._queue.qsize(),
            "parked": self._parked_count,
            "inflight_groups": len(self._inflight),
            "max_queue": self.max_queue,
            "overflow": self.overflow,
        })
        return out

    async def __aenter__(self) -> "AsyncRuntime":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def start(self) -> None:
        if self._task is not None:
            return
        self._queue = asyncio.Queue()
        self._task = asyncio.create_task(self._dispatch(),
                                         name="repro-query-dispatch")

    async def close(self) -> None:
        """Stop dispatching and cancel every waiter.

        Batches already on the executor run to completion on their
        threads (a thread cannot be interrupted), but their results are
        dropped: queued, parked and in-flight waiters are all cancelled
        here, so nobody awaits a future that will never resolve.
        """
        if self._task is None:
            return
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        waiters = [item for _, group in self._inflight.values()
                   for item in group]
        for parked in self._parked.values():
            waiters.extend(parked)
        while not self._queue.empty():
            waiters.append(self._queue.get_nowait())
        for _, future, _ in waiters:
            if not future.done():
                future.cancel()
        self._inflight.clear()
        self._parked.clear()
        self._parked_count = 0
        self._task, self._queue = None, None

    async def query(self, query: Query) -> QueryResult:
        """Answer one query (coalesced with everything else in flight).

        The deadline is stamped *here*, at arrival — queue wait counts
        against the client's timeout.  When queued plus parked queries
        reach ``max_queue`` the overflow policy applies: ``"reject"``
        raises :class:`~repro.service.engine.Overloaded` to the newcomer
        (classic load shedding — cheapest possible refusal),
        ``"shed-oldest"`` fails the longest-waiting query instead, on
        the theory that its client has the least patience left anyway.
        """
        if self._task is None:
            await self.start()
        query = query.stamped(self.now())
        if self._queue.qsize() + self._parked_count >= self.max_queue:
            if self.overflow == "reject":
                self.rejected += 1
                raise Overloaded(
                    f"queue full ({self.max_queue} queries waiting)")
            _, old_future, _ = self._pop_oldest()
            self.shed_queued += 1
            if not old_future.done():
                old_future.set_exception(Overloaded(
                    "shed from a full queue by a newer arrival"))
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        await self._queue.put((query, future, next(self._arrivals)))
        return await future

    async def query_batch(self, queries: Sequence[Query]
                          ) -> List[QueryResult]:
        return list(await asyncio.gather(
            *(self.query(q) for q in queries)))

    @staticmethod
    def _group_key(query: Query) -> tuple:
        return (query.topology,
                None if query.shape is None else tuple(query.shape),
                query.protocol, query.completion, query.repair,
                query.include_schedule)

    @staticmethod
    def _split_groups(batch):
        """Partition one tick's waiters into per-class groups — the same
        key :meth:`QueryEngine.query_batch` coalesces on, plus
        ``include_schedule`` (schedule requests bypass coalescing
        anyway).  Insertion-ordered, so result delivery stays
        deterministic per group."""
        groups: "dict[tuple, list]" = {}
        for item in batch:
            groups.setdefault(AsyncRuntime._group_key(item[0]),
                              []).append(item)
        return list(groups.values())

    def _pop_oldest(self) -> tuple:
        """Remove and return the longest-waiting query.  Parked waiters
        were drained before anything still queued arrived, so the
        oldest parked one (if any) is the oldest overall."""
        if not self._parked:
            return self._queue.get_nowait()
        key = min(self._parked, key=lambda k: self._parked[k][0][2])
        parked = self._parked[key]
        item = parked.popleft()
        if not parked:
            del self._parked[key]
        self._parked_count -= 1
        return item

    def _live(self, items, where: str) -> list:
        """Drop waiters nobody awaits any more, shed expired ones."""
        now = time.monotonic()
        live = []
        for item in items:
            query, future, _ = item
            if future.done():
                continue  # cancelled by its caller or shed
            if query.expired(now):
                self.shed_expired += 1
                future.set_exception(DeadlineExceeded(
                    f"deadline exceeded while {where}"))
            else:
                live.append(item)
        return live

    async def _dispatch(self) -> None:
        while True:
            first = await self._queue.get()
            batch = [first]
            try:
                # One cooperative tick so tasks that became runnable in
                # the same burst get their queries enqueued before we
                # drain.
                await asyncio.sleep(0)
            except asyncio.CancelledError:  # runtime.close()
                first[1].cancel()
                raise
            while (not self._queue.empty()
                   and len(batch) < self.max_batch):
                batch.append(self._queue.get_nowait())
            # Shed queries whose deadline expired while they waited —
            # before they reach the engine, let alone a compile.
            batch = self._live(batch, "queued")
            if not batch:
                continue
            for group in self._split_groups(batch):
                key = self._group_key(group[0][0])
                if key in self._inflight:
                    self._parked.setdefault(key, deque()).extend(group)
                    self._parked_count += len(group)
                else:
                    self._launch(key, group)

    def _launch(self, key: tuple, group: list) -> None:
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(
            None, self.engine.query_batch, [item[0] for item in group])
        self._inflight[key] = (future, group)
        future.add_done_callback(functools.partial(self._finish, key))

    def _finish(self, key: tuple, batch: asyncio.Future) -> None:
        """Resolve one returned batch's waiters; launch its parked
        successors (event-loop thread, as a future done-callback)."""
        entry = self._inflight.get(key)
        if entry is None or entry[0] is not batch:
            return  # runtime closed: close() already cancelled these
        del self._inflight[key]
        group = entry[1]
        exc = None if batch.cancelled() else batch.exception()
        for i, (_, future, _) in enumerate(group):
            if future.done():
                continue
            if batch.cancelled():
                future.cancel()
            elif exc is not None:
                # Group-scoped failure: reject these waiters, keep
                # serving every other group and later arrivals of this
                # key.
                future.set_exception(exc)
            else:
                future.set_result(batch.result()[i])
        parked = self._parked.pop(key, None)
        while parked:
            take = min(len(parked), self.max_batch)
            self._parked_count -= take
            successors = self._live(
                [parked.popleft() for _ in range(take)], "parked")
            if successors:
                self._launch(key, successors)
                break
        if parked:
            self._parked[key] = parked
