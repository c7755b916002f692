"""Monte-Carlo child of the ``mc-frontier`` workload.

Set-up (import, ``make_topology``, native kernel load) ends with one
JSON ready line.  ``--setup-only`` exits there; otherwise the child runs
``recovery_frontier`` (``engine="auto"``, default workers, the compiled
tier at :data:`THREADS` kernel thread) back to back until ``--seconds``
have passed, checks that every repetition returned identical rows and
that a seeded subset of cells matches the ``batch`` oracle tier, and
prints one JSON result line.

With ``--trace`` the same number of frontiers runs again with the
simulation layers wrapped, followed by one ``threads=1`` frontier under
:mod:`repro.profiling` for the slot-loop phase split.

Run by ``perfbench/run.py``; by hand::

    PYTHONPATH=src:perfbench python perfbench/mc_main.py --seed 1 --seconds 5
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

clock = time.perf_counter

LOSS_RATES = (0.1, 0.3)

#: Native kernel threads of the measured frontiers.  A pool as wide as
#: a shared 2-core host stalls on every hand-off its neighbours delay,
#: which spread the frontier walls of runs of the same code by 30-40%.
THREADS = 1


def _rows(points):
    return [p.as_row() for p in points]


def _strip(row):
    return {k: v for k, v in row.items() if k != "pareto"}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--shape", type=int, nargs=2, default=(64, 64))
    p.add_argument("--trials", type=int, default=64)
    p.add_argument("--oracle-cells", type=int, default=2)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    t0 = clock()
    from repro.analysis.robustness import (DEFAULT_RECOVERY_POLICIES,
                                           recovery_frontier)
    from repro.sim.native import native_available, resolve_native_threads
    from repro.topology.builder import make_topology
    import_s = clock() - t0
    t = clock()
    topology = make_topology("2D-4", shape=tuple(args.shape))
    build_ms = (clock() - t) * 1e3
    t = clock()
    native = native_available()
    native_s = clock() - t

    rng = random.Random(args.seed)
    # The seed drives the channel and the oracle's choice of cells; the
    # source stays at the centre so the work per frontier is alike
    # across seeds.
    source = (args.shape[0] // 2, args.shape[1] // 2)
    print(json.dumps({"ready": True, "import_s": import_s,
                      "topology_build_ms": build_ms, "native": native,
                      "native_load_s": native_s}), flush=True)
    if args.setup_only:
        return 0

    def frontier(**kwargs):
        kwargs.setdefault("threads", THREADS)
        return recovery_frontier(topology, source, loss_rates=LOSS_RATES,
                                 trials=args.trials, seed=args.seed,
                                 engine="auto", **kwargs)

    walls, reference, identical = [], None, True
    start = clock()
    while not walls or clock() - start < args.seconds:
        t = clock()
        rows = _rows(frontier())
        walls.append(clock() - t)
        if reference is None:
            reference = rows
        identical &= rows == reference
    strategies = len({r["strategy"] for r in reference})
    out = {"source": list(source), "frontier_s": walls,
           "cells": len(LOSS_RATES), "strategies": strategies,
           "trials": args.trials, "rows_identical": identical,
           "native_threads": resolve_native_threads(THREADS)}

    if args.trace:
        out["trace"] = trace_pass(topology, frontier, len(walls), reference)

    # Oracle: a seeded subset of (loss rate, strategy) cells on the
    # dense batch tier must reproduce the auto-tier rows exactly.
    hardening = [0, 1, 2, 3]  # recovery_frontier's default blind levels
    picks = rng.sample(range(len(hardening) + len(DEFAULT_RECOVERY_POLICIES)),
                       args.oracle_cells)
    mismatches = checked = 0
    for pick in picks:
        p_loss = rng.choice(LOSS_RATES)
        if pick < len(hardening):
            kw = {"hardening": [hardening[pick]], "policies": ()}
        else:
            kw = {"hardening": (), "policies": [
                DEFAULT_RECOVERY_POLICIES[pick - len(hardening)]]}
        oracle = _rows(recovery_frontier(
            topology, source, loss_rates=[p_loss], trials=args.trials,
            seed=args.seed, engine="batch", **kw))
        for row in oracle:
            match = [r for r in reference
                     if r["strategy"] == row["strategy"]
                     and r["loss_rate"] == row["loss_rate"]]
            checked += 1
            if len(match) != 1 or _strip(match[0]) != _strip(row):
                mismatches += 1
    out["oracle_checked"] = checked
    out["oracle_mismatches"] = mismatches
    with open("/proc/self/status") as fh:
        out["peak_rss_mb"] = next(int(line.split()[1]) / 1024.0
                                  for line in fh
                                  if line.startswith("VmHWM:"))
    print(json.dumps(out), flush=True)
    return 0


def trace_pass(topology, frontier, count, reference):
    """Traced frontiers plus one profiled ``threads=1`` frontier."""
    from repro import profiling
    from repro.analysis import robustness
    from repro.sim import backend
    from repro.sim.backend import BREAKER
    from tracer import Tracer, summarize

    tracer = Tracer()
    tracer.wrap(robustness, "run_reactive_batch_sharded",
                "sim.run_reactive_batch_sharded")
    tracer.wrap(robustness, "replay_batch_sharded",
                "sim.replay_batch_sharded")

    def tier(result, args, kwargs, start, end):
        tracer.count("sim.tier." + (result[0] if isinstance(result, tuple)
                                    else result))

    tracer.wrap(backend, "resolve_engine", "sim.resolve_engine", after=tier)
    walls, identical = [], True
    for _ in range(count):
        t = clock()
        rows = _rows(frontier())
        walls.append(clock() - t)
        identical &= rows == reference
    summary = {name: {k: v for k, v in entry.items() if k != "durations"}
               for name, entry in summarize(tracer.spans).items()}
    counts = dict(tracer.counts)
    profiling.start()
    try:
        t = clock()
        frontier(threads=1)
        profiled_s = clock() - t
    finally:
        phases = profiling.stop()
    breaker = BREAKER.state()
    return {"frontier_s": walls, "rows_identical": identical,
            "summary": summary, "counts": counts, "phases": phases,
            "profiled_s": profiled_s,
            "breaker_open": sum(1 for s in breaker.values() if s["open"])}


if __name__ == "__main__":
    sys.exit(main())
