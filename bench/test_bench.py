"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q bench/test_bench.py

Each test runs bench/run.py in a child process for one second of
measurement, so the whole file takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# counts made by the traced run that must repeat exactly for a given shape
EXACT_COUNTS = (
    "numcore.tape_records_per_example",
    "numcore.op_calls_per_example",
    "numcore.matmul_flops_per_example",
    "pipeline.cache_bytes",
    "trainer.checkpoint_bytes",
)


def run(root: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def result(workload: str, seed: int, trace: int) -> dict:
    proc = run(ROOT, workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, proc.stdout
    return out["metrics"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat_exactly(workload):
    first, again, other_seed = (result(workload, 1, 1), result(workload, 1, 1),
                                result(workload, 2, 1))
    assert set(first) == {m["name"] for m in SPEC["per_layer"]}
    for name in EXACT_COUNTS:
        values = (first[name]["value"], again[name]["value"], other_seed[name]["value"])
        assert values[0] == values[1] == values[2], (name, values)


def test_untraced_run_reports_every_end_to_end_metric():
    metrics = result("train_small", 3, 0)
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())


def test_fails_without_program_sources():
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=work))
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, "train_small", 1, 0)
    finally:
        shutil.rmtree(bare)
        if not any(work.iterdir()):
            work.rmdir()
    assert proc.returncode != 0
    assert proc.stdout == ""
