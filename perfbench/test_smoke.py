"""Smoke test: every workload at tiny sizes emits every named metric.

    python3 -m pytest perfbench/test_smoke.py -q

Tiny sizes are too small for the correctness gates' thresholds, so a
gate may fail here; the test checks the output contract, not the verdicts.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode in (0, 1), proc.stderr
    lines = proc.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is (proc.returncode == 0)
    assert final["attempted"] >= 1 and 0 <= final["failed"] <= final["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in final["metrics"].items()}
    for v in final["metrics"].values():
        assert isinstance(v["value"], (int, float))
    detail = json.loads(lines[-2])["detail"]
    if trace:
        assert detail["coverage"]["missing"] == []
        assert detail["coverage"]["uncalled"] == []
    else:
        assert detail["wall_s_stats"]["samples"] >= 2
        assert set(detail["environment"]["working_set_computed"]) == set(
            detail["op_times"])


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
