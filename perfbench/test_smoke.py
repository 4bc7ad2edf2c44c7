"""Smoke test of the benchmark itself, at the tiny size.

Every workload runs untraced and traced. Each run must emit exactly the
metrics BENCHMARK.json names, with numbers in them, and its passes must
agree on their output digests.
"""

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload, trace, tmp_path):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny",
           "--out", str(tmp_path)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    *_, detail_line, result_line = out.stdout.splitlines()
    return json.loads(detail_line)["detail"], json.loads(result_line)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in _spec()["workloads"]])
def test_every_metric_is_emitted_and_passes_agree(workload, trace, tmp_path):
    spec = _spec()
    detail, result = _run(workload, trace, tmp_path)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)

    assert result["correct"], detail["problems"]
    assert result["failed"] == 0
    runs = [op for op in detail["operations"] if "digests" in op]
    keys = {op["key"] for op in runs}
    for key in keys:
        seen = [op["digests"] for op in runs if op["key"] == key]
        assert len(seen) >= 2 and all(d == seen[0] for d in seen)
    env = detail["environment"]
    assert env["cpu_count"] >= 1 and set(env["threads"]) == {
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"}


def test_refuses_to_run_without_the_library(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(_spec()))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "configure",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
