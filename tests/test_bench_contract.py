"""The benchmark's traced run ends in a valid result line for every workload.

`bench/run.py --trace 1` wraps every public function of the package and
derives the per-layer metrics from the spans, so a change to a traced
function's signature or result, or a metric that overflows, shows up here
as a crash or as a last line that is not strict JSON.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _reject(constant):
    raise ValueError(f"{constant} is not valid JSON")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_ends_in_strict_json(workload):
    argv = ["bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject)
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
