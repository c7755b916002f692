"""Self-test of the benchmark: every workload at a tiny budget.

Runs ``perfbench/run.py --scale smoke`` untraced and traced for each
workload of ``perfbench/layers.json`` (those of ``BENCHMARK.json`` and
any runnable one left out of it), so the correctness gate runs and
every metric named in
``BENCHMARK.json`` must come out, with its unit.  Per-layer metrics of
the layers a workload calls (``perfbench/layers.json``) must be
non-zero unless they are defect or fallback counters.  Run with::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((ROOT / "perfbench" / "layers.json").read_text())
LISTED = [w["name"] for w in SPEC["workloads"]]
WORKLOADS = list(LAYERS["workloads"])


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--scale", "smoke"],
        capture_output=True, text=True, timeout=300, cwd=str(cwd))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload, trace):
    out = run_bench(workload, trace)
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    names = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in names}
    for m in names:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0, m["name"]
            continue
        layer = LAYERS["per_layer"][m["name"]]
        if workload in layer["on"] and not layer.get("may_be_zero"):
            assert got["value"] > 0, m["name"]


def test_rationale_covers_the_benchmark():
    assert set(LISTED) <= set(WORKLOADS)
    for name, workload in LAYERS["workloads"].items():
        assert (name in LISTED) != ("not_listed_because" in workload), name
    assert set(LAYERS["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert set(LAYERS["end_to_end"]) == {m["name"]
                                         for m in SPEC["end_to_end"]}
    for workload in LAYERS["workloads"].values():
        assert set(workload["end_to_end"]) == set(LAYERS["end_to_end"])
    for layer in LAYERS["per_layer"].values():
        assert set(layer["on"]) <= set(WORKLOADS)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it must refuse."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(LISTED[0], 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
