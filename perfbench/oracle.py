"""Correctness gate of the serving workloads.

Every answer for one ``(topology, shape, source)`` must be identical to
the first one seen (metrics, and schedule where one was asked for).  A
seeded sample of the answered sources is then recompiled directly with
``protocol.compile`` -- no cache, no store, no service -- outside any
timed region, and the wire answers must equal those metrics and
schedules exactly.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple


class AnswerCheck:
    def __init__(self) -> None:
        self.metrics: Dict[tuple, dict] = {}
        self.schedules: Dict[tuple, list] = {}
        self.wrong: List[str] = []

    def see(self, label: str, shape, source, resp: dict) -> None:
        """Record one ``ok`` answer; flag it if it disagrees with an
        earlier answer for the same source."""
        key = (label, tuple(shape), tuple(source))
        metrics = resp.get("metrics")
        if metrics is None:
            self.wrong.append(f"{key}: ok answer without metrics")
            return
        first = self.metrics.setdefault(key, metrics)
        if first != metrics:
            self.wrong.append(f"{key}: answers differ between requests")
        if "schedule" in resp:
            first = self.schedules.setdefault(key, resp["schedule"])
            if first != resp["schedule"]:
                self.wrong.append(f"{key}: schedules differ between "
                                  f"requests")

    def verify_sample(self, seed: int, per_shape: int,
                      schedules: int) -> int:
        """Recompile a seeded sample directly; returns sources checked."""
        rng = random.Random(seed ^ 0x0AC1E)
        by_shape: Dict[tuple, List[tuple]] = {}
        for key in sorted(self.metrics):
            by_shape.setdefault(key[:2], []).append(key)
        picks = []
        for keys in by_shape.values():
            picks += rng.sample(keys, min(per_shape, len(keys)))
        with_schedule = sorted(self.schedules)
        picks += rng.sample(with_schedule, min(schedules, len(with_schedule)))
        for key in sorted(set(picks)):
            row, schedule = reference(*key)
            if row != self.metrics[key]:
                self.wrong.append(f"{key}: metrics differ from a direct "
                                  f"compile")
            if key in self.schedules and schedule != self.schedules[key]:
                self.wrong.append(f"{key}: schedule differs from a direct "
                                  f"compile")
        return len(set(picks))


_topologies: Dict[tuple, object] = {}


def reference(label: str, shape, source) -> Tuple[dict, list]:
    """Metrics row and schedule of a direct, uncached compile."""
    from repro.core.registry import protocol_for
    from repro.sim.metrics import compute_metrics
    from repro.topology.builder import make_topology

    topology = _topologies.get((label, shape))
    if topology is None:
        topology = _topologies[(label, shape)] = make_topology(
            label, shape=tuple(shape))
    compiled = protocol_for(topology).compile(topology, tuple(source))
    row = compute_metrics(compiled.trace, topology).as_row()
    row["source"] = list(row["source"])
    slots, nodes = compiled.schedule.to_arrays()
    return row, [[int(s), int(v)] for s, v in zip(slots.tolist(),
                                                  nodes.tolist())]


def expected_error(resp: Optional[dict]) -> bool:
    """A bad-source probe must be refused as ``bad_request``."""
    return bool(resp) and not resp.get("ok") and (
        resp.get("error_type") == "bad_request")
