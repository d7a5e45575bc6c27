"""The benchmark in `perfbench/` still runs against the library.

Its tracer wraps library functions by name, and its workloads call them
with the library's signatures, so a change to either can stop it where no
other test looks.  One round per workload, untraced and traced, must run
through, pass the benchmark's own output checks and fail no operation.  The
untraced run is the one the benchmark's end-to-end metrics come from, so it
must also report each of them with a finite value above 0.  The runs write
only to the gitignored `.perfbench_out/`.
"""

import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.slow
@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["fixture60", "small-layered", "exact-oracle"])
def test_round_runs_and_checks_out(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    if trace == "0":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            names = [m["name"] for m in json.load(fh)["end_to_end"]]
        for name in names:
            value = result["metrics"][name]["value"]
            assert math.isfinite(value) and value > 0, (name, proc.stdout)
