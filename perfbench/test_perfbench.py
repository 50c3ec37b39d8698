"""Self-test of the benchmark at smoke sizes.

    python3 -m pytest perfbench

Every workload runs once untraced and once traced; each run must be
correct and emit exactly the metrics BENCHMARK.json names, with their
units.  A checkout without the library's sources must be refused.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(run_py, workload, trace, cwd):
    cmd = [sys.executable, str(run_py), "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    proc = _run(HERE / "run.py", workload, trace, HERE.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def test_checkout_without_the_library_is_refused():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    try:
        proc = _run(bare / "perfbench" / "run.py", SPEC["workloads"][0]["name"], 0, bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
