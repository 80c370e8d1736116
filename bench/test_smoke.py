"""Smoke test of the benchmark: every workload at tiny size, traced and not.

Run from the repository root with ``python3 -m pytest -q bench/test_smoke.py``
or ``python3 bench/test_smoke.py``. Each run must pass its own output checks
and print, on its last line, every metric BENCHMARK.json names for its mode,
with the unit given there.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CASES = [(w["name"], trace) for w in SPEC["workloads"] for trace in (0, 1)]


def run_tiny(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,trace", CASES)
def test_tiny_run_prints_every_metric(workload, trace):
    result = run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
