"""Asyncio NDJSON front end: ``repro-wsn serve``.

A thin TCP server over :class:`~repro.service.runtime.AsyncRuntime`:
each connection streams newline-delimited JSON requests
(:mod:`repro.service.wire`); every line becomes a task awaiting the
shared dispatcher, so concurrent requests — across lines *and* across
connections — coalesce into batched, symmetry-reduced engine calls.

Responses are written in completion order, tagged with nothing but their
content — clients that pipeline requests and need request/response
pairing should send an ``include_schedule``-free query per line and
match on ``source`` (or run one request per connection).

Resilience surface (PR 10):

* every error is a structured ``{"ok": false, "error", "error_type"}``
  line — malformed JSON, oversized lines, unknown request types,
  deadline/overload sheds — never a traceback, never a torn connection;
* per-connection in-flight caps (:data:`MAX_INFLIGHT_PER_CONN`): a
  connection that pipelines faster than the engine serves stops being
  *read*, which pushes back through TCP instead of growing the queue;
* graceful shutdown: :func:`serve` takes a ``stop`` event (and
  :func:`run_server` wires SIGTERM/SIGINT to it) — the listener closes
  first, in-flight queries drain for up to ``drain_timeout`` seconds,
  then idle connections are dropped without a traceback;
* the ``server.drop_connection`` / ``server.garble_response`` fault
  seams (:mod:`repro.faults`) let the chaos suite prove clients
  survive both.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from typing import Optional, Set

from .. import faults
from .engine import QueryEngine
from .runtime import AsyncRuntime
from .wire import error_to_dict, request_from_dict, result_to_dict

MAX_LINE_BYTES = 1 << 20

#: Most request lines one connection may have in flight; beyond it the
#: server stops reading that connection until responses drain (TCP
#: backpressure), so one greedy client cannot monopolise the queue.
MAX_INFLIGHT_PER_CONN = 64

#: Default seconds granted to in-flight queries on graceful shutdown.
DRAIN_TIMEOUT_S = 5.0


def _error_payload(exc: Exception) -> dict:
    """Structured error for *exc* — one line, typed, no traceback.

    Exceptions carrying an ``error_type`` (deadline/overload sheds) keep
    it; malformed input maps to ``bad_request``; anything else is an
    ``internal`` error whose message is the exception's one-line
    ``str()`` only.
    """
    error_type = getattr(exc, "error_type", None)
    if error_type is None:
        error_type = ("bad_request" if isinstance(exc, ValueError)
                      else "internal")
    return error_to_dict(f"{type(exc).__name__}: {exc}", error_type)


def _health_payload(runtime: AsyncRuntime) -> dict:
    health = runtime.engine.health()
    health["engine"] = runtime.stats()  # superset: adds queue counters
    return {"ok": True, "type": "health", **health}


async def _write_response(payload: dict, writer: asyncio.StreamWriter,
                          lock: asyncio.Lock) -> None:
    blob = (json.dumps(payload, separators=(",", ":")) + "\n").encode()
    if faults.fires(faults.SERVER_DROP):
        writer.transport.abort()  # injected: connection dies, no reply
        return
    if faults.fires(faults.SERVER_GARBLE):
        blob = b"\x15garbled{not json\n"  # injected: corrupt response
    async with lock:  # interleaving-safe writes per connection
        writer.write(blob)
        await writer.drain()


async def _handle_line(runtime: AsyncRuntime, line: bytes,
                       writer: asyncio.StreamWriter,
                       lock: asyncio.Lock,
                       slots: asyncio.Semaphore) -> None:
    try:
        try:
            kind, parsed = request_from_dict(json.loads(line))
            if kind == "health":
                payload = _health_payload(runtime)
            elif kind == "batch":
                outcomes = await asyncio.gather(
                    *(runtime.query(q) for q in parsed),
                    return_exceptions=True)
                results = []
                for outcome in outcomes:
                    if isinstance(outcome, asyncio.CancelledError):
                        raise outcome
                    if isinstance(outcome, BaseException):
                        results.append(_error_payload(outcome))
                    else:
                        results.append(result_to_dict(outcome))
                payload = {"ok": True, "type": "batch",
                           "results": results}
            else:
                payload = result_to_dict(await runtime.query(parsed))
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            payload = _error_payload(exc)
        try:
            await _write_response(payload, writer, lock)
        except (ConnectionResetError, OSError):
            pass  # client went away mid-reply; nothing left to tell it
    finally:
        slots.release()


async def _handle_connection(runtime: AsyncRuntime,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter,
                             inflight: Set[asyncio.Task]) -> None:
    lock = asyncio.Lock()
    slots = asyncio.Semaphore(MAX_INFLIGHT_PER_CONN)
    pending = set()
    try:
        while True:
            try:
                line = await reader.readline()
            except ConnectionResetError:
                break
            except ValueError:
                # StreamReader.readline converts a limit overrun into
                # ValueError: tell the client why before closing rather
                # than tearing the connection down with a traceback.
                payload = error_to_dict(
                    f"request line exceeds {MAX_LINE_BYTES} bytes")
                blob = (json.dumps(payload, separators=(",", ":"))
                        + "\n").encode()
                try:
                    async with lock:
                        writer.write(blob)
                        await writer.drain()
                except (ConnectionResetError, OSError):
                    pass
                break
            if not line:
                break
            if not line.strip():
                continue
            # In-flight cap: wait for a slot before reading further —
            # the kernel's receive buffer becomes the queue, and TCP
            # flow control slows the sender down.
            await slots.acquire()
            task = asyncio.create_task(
                _handle_line(runtime, line, writer, lock, slots))
            pending.add(task)
            inflight.add(task)
            task.add_done_callback(pending.discard)
            task.add_done_callback(inflight.discard)
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
    finally:
        for task in pending:
            task.cancel()
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionResetError, OSError):
            pass


async def serve(engine: QueryEngine, host: str = "127.0.0.1",
                port: int = 8765, *,
                ready: Optional[asyncio.Event] = None,
                stop: Optional[asyncio.Event] = None,
                drain_timeout: float = DRAIN_TIMEOUT_S) -> None:
    """Run the NDJSON query server until cancelled or *stop* is set.

    *ready*, when given, is set once the socket is listening (tests use
    it to avoid polling); the bound port is published as
    ``serve.bound_port`` on the event for ``port=0`` runs.

    Setting *stop* begins a graceful shutdown: the listener closes (no
    new connections), queries already in flight get up to
    *drain_timeout* seconds to finish and write their responses, and
    only then are the remaining connections dropped.  Cancelling the
    ``serve`` task skips the drain (the old hard-stop path, still used
    by tests).
    """
    runtime = AsyncRuntime(engine)
    await runtime.start()
    if stop is None:
        stop = asyncio.Event()
    conn_tasks: Set[asyncio.Task] = set()
    inflight: Set[asyncio.Task] = set()

    async def handler(reader, writer):
        task = asyncio.current_task()
        conn_tasks.add(task)
        try:
            await _handle_connection(runtime, reader, writer, inflight)
        except asyncio.CancelledError:
            # Shutdown cancels idle connections.  asyncio.streams reads
            # this task's outcome in a done-callback that reports a
            # cancelled task as an unhandled error, so end it normally.
            pass
        finally:
            conn_tasks.discard(task)

    server = await asyncio.start_server(
        handler, host=host, port=port, limit=MAX_LINE_BYTES)
    try:
        if ready is not None:
            ready.bound_port = server.sockets[0].getsockname()[1]
            ready.set()
        stop_wait = asyncio.create_task(stop.wait())
        serve_task = asyncio.create_task(server.serve_forever())
        try:
            await asyncio.wait({stop_wait, serve_task},
                               return_when=asyncio.FIRST_COMPLETED)
        finally:
            for task in (stop_wait, serve_task):
                task.cancel()
            await asyncio.gather(stop_wait, serve_task,
                                 return_exceptions=True)
        # Graceful drain: stop accepting, let in-flight lines finish.
        server.close()
        if inflight:
            await asyncio.wait(set(inflight), timeout=drain_timeout)
    finally:
        for task in list(conn_tasks):
            task.cancel()
        if conn_tasks:
            await asyncio.gather(*list(conn_tasks),
                                 return_exceptions=True)
        server.close()
        try:
            await server.wait_closed()
        except (ConnectionResetError, OSError):  # pragma: no cover
            pass
        await runtime.close()


def run_server(engine: QueryEngine, host: str = "127.0.0.1",
               port: int = 8765, *,
               drain_timeout: float = DRAIN_TIMEOUT_S) -> None:
    """Blocking entry point for the CLI.

    SIGTERM and SIGINT (Ctrl-C) trigger the graceful path: in-flight
    queries drain for up to *drain_timeout* seconds before the process
    exits, so a rolling restart loses no answered work.
    """
    async def main():
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # platforms without loop signal handlers
        await serve(engine, host, port, stop=stop,
                    drain_timeout=drain_timeout)

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass


class BackgroundServer:
    """The server on a daemon thread, for tests, benchmarks, embedding.

    Runs :func:`serve` inside its own ``asyncio.run`` loop on a
    background thread, waits until the socket is listening, and exposes
    the bound port.  ``stop()`` (or leaving the ``with`` block) performs
    the same graceful drain as a SIGTERM.

    ::

        with BackgroundServer(engine, port=0) as srv:
            client = ServiceClient(port=srv.port)
            ...
    """

    def __init__(self, engine: QueryEngine, host: str = "127.0.0.1",
                 port: int = 0, *,
                 drain_timeout: float = DRAIN_TIMEOUT_S) -> None:
        self._engine = engine
        self._host = host
        self._request_port = port
        self._drain_timeout = drain_timeout
        self._started = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._error: Optional[BaseException] = None
        self.port: Optional[int] = None

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-ndjson-server")
        self._thread.start()
        if not self._started.wait(timeout=60.0):  # pragma: no cover
            raise RuntimeError("server did not start within 60 s")
        if self._error is not None:
            raise RuntimeError("server failed to start") from self._error
        return self

    def _run(self) -> None:
        async def main():
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            ready = asyncio.Event()
            task = asyncio.create_task(serve(
                self._engine, self._host, self._request_port,
                ready=ready, stop=self._stop,
                drain_timeout=self._drain_timeout))
            ready_wait = asyncio.create_task(ready.wait())
            done, _ = await asyncio.wait({ready_wait, task},
                                         return_when=asyncio.FIRST_COMPLETED)
            if task in done:
                ready_wait.cancel()
                task.result()  # startup failed: surface the reason
                raise RuntimeError("server exited before becoming ready")
            self.port = ready.bound_port
            self._started.set()
            await task

        try:
            asyncio.run(main())
        except BaseException as exc:  # startup failures land on start()
            self._error = exc
        finally:
            self._started.set()

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:  # pragma: no cover - loop already gone
                pass
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
