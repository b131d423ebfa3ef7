"""Smoke tests of the benchmark itself, on reduced problem sizes.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, seed, trace, cwd=ROOT, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def last_line(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_and_nothing_fails(workload, trace):
    report, result = last_line(run_bench(workload, 1, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, report["errors"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
        assert result["metrics"]["err_over_eps"]["value"] <= 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_across_runs(workload):
    _, first = last_line(run_bench(workload, 1, 1))
    _, second = last_line(run_bench(workload, 2, 1))
    exact = [
        name for name in first["metrics"]
        if name.startswith("solvers.net.") or name.endswith((".calls", ".layers", ".nnz"))
        or name in ("network.evaluate.layer_applications", "network.evaluate.flops_computed",
                    "network.evaluate.bytes_computed")
    ]
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name


def test_same_seed_gives_same_outputs():
    first, _ = last_line(run_bench("roundtrip-lap2d", 5, 0))
    second, _ = last_line(run_bench("roundtrip-lap2d", 5, 0))
    assert first["outputs_sha256"] == second["outputs_sha256"]


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("eval-richardson16", 1, 0, cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
