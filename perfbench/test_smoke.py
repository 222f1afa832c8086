"""Smoke tests of the benchmark itself, at tiny scale.

Run from the repository root (about three minutes on 4 cores; do not run
them while a benchmark run is in progress, they share its work directory):

    python3 -m pytest perfbench/test_smoke.py -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = ["--seed", "3", "--seconds", "1", "--scale", "0.05"]


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=300)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(printed: dict, declared: list[dict]) -> None:
    assert set(printed) == {m["name"] for m in declared}
    for m in declared:
        assert printed[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(printed[m["name"]]["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_and_rows_check(workload):
    out = result(bench(ROOT, "--workload", workload, "--trace", "0", *TINY))
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] > 0
    assert_metrics(out["metrics"], SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_layers_corruption_and_self_times(workload):
    out = result(bench(ROOT, "--workload", workload, "--trace", "1",
                       "--corrupt-rows", "1", *TINY))
    # One corrupted row, and only that one, counts as failed.
    assert out["failed"] == 1 and out["correct"] is False
    assert_metrics(out["metrics"], SPEC["per_layer"])

    doc = json.loads((ROOT / ".perfbench_traces" / f"{workload}-seed3.json").read_text())
    spans, selfs = doc["spans"], doc["self_times"]
    assert {s["name"] for s in spans} >= {
        "bench.query", "query.compile", "windows.explode", "spark_runner.run_query",
        "events.convert", "executor.fold", "streaming.batch"}
    assert min(selfs) >= 0.0

    def root_of(i: int) -> int:
        while spans[i]["parent"] is not None:
            i = spans[i]["parent"]
        return i

    per_root: dict[int, float] = {}
    for i, t in enumerate(selfs):
        per_root[root_of(i)] = per_root.get(root_of(i), 0.0) + t
    for r, total in per_root.items():
        duration = spans[r]["end"] - spans[r]["start"]
        # Streaming batch spans carry millisecond timestamps.
        assert total == pytest.approx(duration, abs=0.005), spans[r]
        assert all(spans[i]["query_id"] == spans[r]["query_id"]
                   for i in range(len(spans)) if root_of(i) == r)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, a run exits non-zero and
    prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", WORKLOADS[0], "--trace", "0", *TINY)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
