"""The benchmark harness in perfbench/ still runs against the package in src/.

Each case copies perfbench/ and src/ into a scratch directory and runs one
round of one workload there, so the harness writes nothing into the
checkout.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "workload, trace",
    [
        ("builtin_fast", 0),
        ("builtin_pulses", 0),
        ("synthetic_sweep", 0),
        ("builtin_pulses", 1),
    ],
)
def test_worker_runs_one_round(tmp_path, workload, trace):
    skip = shutil.ignore_patterns("out", "__pycache__")
    for part in ("perfbench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=skip)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["OPENBLAS_NUM_THREADS"] = "1"
    # --seconds 0 would run no op at all; any positive time runs one round
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0.001", "--trace", str(trace)]
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "worker.py"), *argv],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, result["problems"]
