"""Shared helpers of the benchmark: statistics, child processes, provenance."""

from __future__ import annotations

import json
import math
import os
import platform
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".benchwork"

clock = time.perf_counter

#: Percentiles considered for a tail figure, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)

#: Time slices of an open-loop leg for :func:`windowed_percentile`.
WINDOWS = 10


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(BENCH_DIR)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


# -- statistics -----------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default), no numpy needed."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> Optional[float]:
    """Highest percentile with at least ten samples beyond it, or None."""
    for q in TAIL_PERCENTILES:
        if n * (1.0 - q / 100.0) >= 10.0:
            return q
    return None


def latency_summary(values_ms: Sequence[float]) -> dict:
    """p50 plus the highest percentile with ten samples beyond it.

    With fewer than 20 samples no percentile qualifies; the tail is then
    the maximum, and ``tail_label`` says so.
    """
    n = len(values_ms)
    q = tail_percentile(n)
    tail = percentile(values_ms, q) if q is not None else (
        max(values_ms) if values_ms else 0.0)
    return {"n": n, "p50": percentile(values_ms, 50.0),
            "tail": tail, "tail_label": f"p{q:g}" if q else "max"}


def windowed_percentile(samples: Sequence[Tuple[float, float]], q: float,
                        windows: int = WINDOWS) -> float:
    """Median over *windows* equal time slices of each slice's *q*-th
    percentile; *samples* are ``(due_time, latency_ms)``.

    A shared host has stall episodes lasting a few seconds that shift
    every latency in them; a slice they hit is one vote out of ten, so
    the figure tracks the system rather than the neighbours.  Slices
    with fewer than ten samples beyond *q* do not vote.
    """
    if not samples:
        return 0.0
    t0 = min(t for t, _ in samples)
    span = (max(t for t, _ in samples) - t0) or 1.0
    slices: List[List[float]] = [[] for _ in range(windows)]
    for t, v in samples:
        slices[min(int((t - t0) / span * windows), windows - 1)].append(v)
    votes = [percentile(xs, q) for xs in slices
             if len(xs) * (1.0 - q / 100.0) >= 10.0]
    return median(votes) if votes else percentile(
        [v for _, v in samples], q)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# -- /proc probes ---------------------------------------------------------

def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_ticks() -> Tuple[int, int]:
    """``(steal, total)`` clock ticks of all CPUs so far (``/proc/stat``).

    Steal is time the hypervisor ran other guests on this machine's
    virtual CPUs; its share over a run says how starved the run was.
    """
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:9]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds consumed so far by a live process."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


# -- child processes ------------------------------------------------------

class Child:
    """A benchmark child process speaking one JSON line per message.

    The child prints a JSON line when it is ready (its set-up is over)
    and, optionally, one more when it is done; stderr goes to a file so
    the parent can count tracebacks after the child exits.
    """

    def __init__(self, script: str, args: List[str], stderr_path: Path):
        self.stderr_path = stderr_path
        self._stderr = open(stderr_path, "wb")
        self.t_spawn = clock()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / script), *args],
            stdout=subprocess.PIPE, stderr=self._stderr, stdin=None,
            env=child_env(), cwd=str(ROOT))
        self.pid = self.proc.pid

    def read_message(self, timeout: float) -> dict:
        deadline = clock() + timeout
        while True:
            left = deadline - clock()
            if left <= 0:
                raise TimeoutError(f"child {self.pid} silent for {timeout} s")
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        min(left, 1.0))
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    raise RuntimeError(
                        f"child {self.pid} exited "
                        f"(code {self.proc.poll()}): {self.stderr_tail()}")
                return json.loads(line)

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM, wait, then SIGKILL if the child does not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait(timeout=timeout)
        self.proc.stdout.close()
        self._stderr.close()
        return code

    def wait(self, timeout: float) -> int:
        try:
            return self.proc.wait(timeout=timeout)
        finally:
            if self.proc.poll() is None:
                self.stop()

    def stderr_text(self) -> str:
        try:
            return self.stderr_path.read_text(errors="replace")
        except OSError:
            return ""

    def stderr_tail(self, lines: int = 8) -> str:
        return "\n".join(self.stderr_text().splitlines()[-lines:])

    def tracebacks(self) -> int:
        return self.stderr_text().count("Traceback (most recent call last)")


# -- provenance -----------------------------------------------------------

def git_commit() -> str:
    env = dict(os.environ)
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                             capture_output=True, text=True, timeout=10,
                             env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(seed: int) -> dict:
    from repro.sim.native import (native_available, native_reason,
                                  resolve_native_threads)
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = None
    available = native_available()
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": affinity,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "native_available": available,
        "native_reason": native_reason(),
        "native_threads": resolve_native_threads(None),
        "git_commit": git_commit(),
        "seed": seed,
    }
