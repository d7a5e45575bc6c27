"""The benchmark in `perfbench/` still runs against the library.

Its tracer wraps library functions by name, and its workloads call them
with the library's signatures, so a change to either can stop it where no
other test looks.  One traced round per workload must run through, pass
the benchmark's own output checks and fail no operation.  The runs write
only to the gitignored `.perfbench_out/`.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["fixture60", "small-layered", "exact-oracle"])
def test_traced_round_runs_and_checks_out(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
