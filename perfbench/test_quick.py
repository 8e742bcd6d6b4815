"""Tests for the benchmark itself; every workload runs at toy size.

Run from the root of the checkout:  python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pretrain", "unlearn-sweep", "eval-large", "cli-roundtrip")

sys.path.insert(0, str(HERE))


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT, run=HERE / "run.py"):
    cmd = [sys.executable, str(run), "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in _benchmark()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    # Only the non-finite label probe fails: one op in each eval-large round
    # of three (two evaluations and the probe).
    if workload == "eval-large":
        assert result["attempted"] == 3 * result["failed"] > 0
    else:
        assert result["failed"] == 0
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_package_source_it_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("pretrain", 0, cwd=tmp_path, run=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_child_spans():
    import spans

    recorder = spans.SpanRecorder()
    recorder.spans = [
        ("nn.mlp_forward", 0.0, 10.0, -1, "op"),
        ("nn.forward_activations", 1.0, 4.0, 0, "op"),
        ("nn.forward_activations", 5.0, 6.0, 0, "op"),
    ]
    metrics = recorder.metrics()
    assert metrics["nn.mlp_forward.calls"] == 1
    assert metrics["nn.mlp_forward.self_s"] == 6.0
    assert metrics["nn.forward_activations.calls"] == 2
    assert metrics["nn.forward_activations.self_s"] == 4.0
