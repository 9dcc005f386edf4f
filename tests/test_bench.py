"""The benchmark harness runs on the program: every name it reaches still answers.

Each workload of `perfbench/run.py` runs briefly with the span recorder
on, from a copy of `src/` and `perfbench/`, so the spans it writes land
outside the checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["groups", "subsets", "forge"])
def test_the_bench_runs_each_workload_traced_with_no_failed_op(workload, tmp_path):
    skip = shutil.ignore_patterns("__pycache__", "out")
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=skip)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "0.2",
         "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0), done.stdout
