"""Server child of the serving workloads.

Builds a :class:`~repro.service.engine.QueryEngine` on ``--store``,
pre-warms it (``QueryEngine.warm``) with the ``--warm`` shapes, starts
:func:`repro.service.server.serve` on an ephemeral port and prints one
JSON ready line (port plus set-up timings).  SIGTERM triggers the
server's own graceful shutdown.  With ``--trace-out`` the layer entry
points are wrapped after warm-up (so only serving is traced) and the
spans are written to that file on exit.

Run by ``perfbench/run.py``; by hand::

    PYTHONPATH=src:perfbench python perfbench/server_main.py \
        --store /tmp/store --warm 2D-4:32x16
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import signal
import sys
import time

clock = time.perf_counter


def parse_shape(spec: str):
    label, dims = spec.split(":")
    return label, tuple(int(d) for d in dims.split("x"))


def install_tracing(tracer):
    """Wrap the serving layers' public entry points."""
    from repro.core import compiler, symmetry
    from repro.core.cache import ScheduleCache
    from repro.core.store import ArtifactStore, shard_id
    from repro.service import engine as engine_mod
    from repro.service import server as server_mod
    from repro.service.engine import QueryEngine
    from repro.service.runtime import AsyncRuntime

    tracer.wrap(server_mod, "request_from_dict", "wire.decode")
    tracer.wrap(server_mod, "result_to_dict", "wire.encode",
                name_fn=lambda a, k: ("wire.encode_schedule"
                                      if a[0].schedule is not None
                                      else "wire.encode"))

    # Queue wait: AsyncRuntime.query entry -> QueryEngine.query_batch
    # start, matched on the query object the runtime hands the engine.
    entries = {}
    qids = itertools.count(1)
    original_query = AsyncRuntime.query

    async def runtime_query(self, query):
        qid, start = next(qids), clock()
        entries[id(query)] = (qid, start)
        try:
            return await original_query(self, query)
        finally:
            tracer.record("runtime.query", start, clock(), qid)

    AsyncRuntime.query = runtime_query

    original_batch = QueryEngine.query_batch

    def query_batch(self, queries):
        start = clock()
        waiting = []
        for query in queries:
            entry = entries.pop(id(query), None)
            if entry is not None:
                waiting.append(entry)
                tracer.value("runtime.queue_wait_ms",
                             (entry[0], (start - entry[1]) * 1e3,
                              query.topology))
        try:
            return tracer.call("engine.query_batch", original_batch,
                               (self, queries), {})
        finally:
            end = clock()
            for qid, entered in waiting:
                tracer.value("server.in_runtime_ms",
                             (qid, (end - entered) * 1e3))

    QueryEngine.query_batch = query_batch
    tracer.wrap(QueryEngine, "query", "engine.query")

    def tick(result, args, kwargs, start, end):
        tracer.value("runtime.tick_queries", len(args[0]))
        tracer.value("runtime.tick_groups", len(result))

    tracer.wrap(AsyncRuntime, "_split_groups", "runtime.split_groups",
                after=tick, static=True)

    def lookup(result, args, kwargs, start, end):
        tracer.count("cache.lookups")
        if result is not None:
            tracer.count("cache.lookup_hits")

    tracer.wrap(ScheduleCache, "cached_metrics", "cache.cached_metrics",
                after=lookup)
    tracer.wrap(ScheduleCache, "admit_member", "cache.admit_member")
    tracer.wrap(ScheduleCache, "get_or_compile", "cache.get_or_compile")
    tracer.wrap(ArtifactStore, "get", "store.get")

    def publish(store, topology, protocol_name, kwargs, call):
        """Run one publishing call; add the index size if it published."""
        sid = shard_id(topology.fingerprint, protocol_name,
                       completion=kwargs.get("completion", True),
                       repair=kwargs.get("repair", True))
        path = store._index_path(sid)
        try:
            before = path.stat().st_ino
        except OSError:
            before = None
        result = call()
        try:
            st = path.stat()
        except OSError:
            return result
        if st.st_ino != before:  # os.replace publishes a fresh inode
            tracer.count("store.index_bytes_written", st.st_size)
            tracer.count("store.index_publishes")
        return result

    for attr, span in (("put", "store.put"),
                       ("store_class_profile", "store.store_class_profile")):
        original = getattr(ArtifactStore, attr)

        def wrapper(self, topology, protocol_name, *args,
                    _original=original, _span=span, **kwargs):
            return tracer.call(_span, publish, (
                self, topology, protocol_name, kwargs,
                lambda: _original(self, topology, protocol_name, *args,
                                  **kwargs)), {})

        setattr(ArtifactStore, attr, wrapper)

    def class_compiled(result, args, kwargs, start, end):
        topology, protocol, class_key, coords = args[:4]
        tracer.count("symmetry.members", len(coords))
        tracer.value("symmetry.class",
                     hash((topology.fingerprint, protocol.name, class_key)))

    tracer.wrap(engine_mod, "compile_class", "symmetry.compile_class",
                after=class_compiled)
    tracer.wrap(compiler, "compile_broadcast", "compiler.compile_broadcast")
    tracer.wrap(symmetry, "run_reactive_multi", "sim.run_reactive_multi")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--store", required=True)
    p.add_argument("--warm", nargs="*", default=[],
                   help="LABEL:AxB shapes to pre-warm")
    p.add_argument("--topologies", nargs="*", default=[],
                   help="LABEL:AxB shapes whose make_topology is timed")
    p.add_argument("--trace-out", default=None)
    args = p.parse_args(argv)

    t0 = clock()
    from repro.service.engine import QueryEngine
    from repro.service.server import serve
    from repro.topology.builder import make_topology
    import_s = clock() - t0

    build_ms = []
    for spec in args.topologies:
        label, shape = parse_shape(spec)
        t = clock()
        make_topology(label, shape=shape)
        build_ms.append((clock() - t) * 1e3)

    engine = QueryEngine(args.store)
    warm_s = 0.0
    if args.warm:
        t = clock()
        engine.warm([parse_shape(s) for s in args.warm])
        warm_s = clock() - t

    tracer = None
    if args.trace_out:
        from tracer import Tracer
        tracer = Tracer()
        install_tracing(tracer)

    async def run():
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        ready = asyncio.Event()
        server = asyncio.create_task(serve(engine, "127.0.0.1", 0,
                                           ready=ready, stop=stop))
        waiter = asyncio.create_task(ready.wait())
        done, _ = await asyncio.wait({server, waiter},
                                     return_when=asyncio.FIRST_COMPLETED)
        if server in done:
            waiter.cancel()
            server.result()
            raise RuntimeError("server exited before becoming ready")
        print(json.dumps({"ready": True, "port": ready.bound_port,
                          "import_s": import_s, "warm_s": warm_s,
                          "topology_build_ms": build_ms}), flush=True)
        await server

    asyncio.run(run())
    if tracer is not None:
        tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
