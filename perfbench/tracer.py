"""In-memory span recorder that wraps public calls from the outside.

The traced run of each workload installs wrappers around the layer entry
points it names (``Tracer.wrap``) inside the process that does the work
(the server subprocess or the Monte-Carlo child).  Nothing under
``src/`` is modified: the wrapper replaces the attribute on the module or
class the caller looks it up from, so the call sites inside ``repro``
pick it up unchanged.

A span is ``(span_id, parent_id, name, start, end, qid)``.  The parent is
the innermost span open on the same thread; calls that hop threads (the
async runtime's executor hand-off) start a new root, which is why queue
wait is recorded as a per-query value rather than a span.  Spans stay in
memory until :meth:`Tracer.dump` writes them out at the end of the run;
:func:`summarize` turns them into per-name counts, total and self time.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Callable, Dict, List, Optional

clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.values: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def value(self, name: str, v) -> None:
        """Record one sample of a per-event quantity (e.g. queue wait)."""
        with self._lock:
            self.values.setdefault(name, []).append(v)

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def record(self, name: str, start: float, end: float,
               qid: Optional[int] = None) -> None:
        """Record a root span timed by the caller (e.g. a coroutine)."""
        with self._lock:
            self.spans.append((next(self._ids), 0, name, start, end, qid))

    def call(self, name: str, fn: Callable, args, kwargs,
             after: Optional[Callable] = None):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, parent, name, start, end, None))
        if after is not None:
            after(result, args, kwargs, start, end)
        return result

    def wrap(self, owner, attr: str, name: str, *,
             name_fn: Optional[Callable] = None,
             after: Optional[Callable] = None,
             static: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        *name_fn(args, kwargs)* may refine the span name per call (e.g.
        encodes with and without a schedule); *after(result, args,
        kwargs, start, end)* runs once the call returned, outside the
        span, for counters derived from the arguments or result.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = name if name_fn is None else name_fn(args, kwargs)
            return self.call(span, original, args, kwargs, after=after)

        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)

    # -- output ---------------------------------------------------------

    def dump(self, path) -> None:
        with self._lock:
            payload = {"spans": self.spans, "values": self.values,
                       "counts": self.counts}
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def summarize(spans) -> Dict[str, Dict[str, object]]:
    """Per-name ``{"n", "total_s", "self_s", "durations"}`` from spans.

    Self time is a span's duration minus the durations of its direct
    children (children always nest inside their parent on one thread).
    """
    child_time: Dict[int, float] = {}
    for span_id, parent, _, start, end, _ in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: Dict[str, Dict[str, object]] = {}
    for span_id, _, name, start, end, _ in spans:
        entry = out.setdefault(name, {"n": 0, "total_s": 0.0, "self_s": 0.0,
                                      "durations": []})
        duration = end - start
        entry["n"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_time.get(span_id, 0.0)
        entry["durations"].append(duration)
    return out
