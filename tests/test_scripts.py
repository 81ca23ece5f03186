"""The example scripts run against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_hard_pulse_report_flagship_pattern():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "hard_pulse_report.py"), "100101"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "query pattern: 100101" in proc.stdout
    assert "hard vs ideal propagator distance" in proc.stdout


def test_fetch_demo_writes_its_artifacts(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "fetch_demo.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "verified:     True" in proc.stdout
    out = tmp_path / "demo_out"
    names = {f"{side}_spectrum.{ext}" for side in ("before", "after") for ext in ("csv", "svg")}
    assert {p.name for p in out.iterdir()} == names
    assert (out / "after_spectrum.csv").read_text().startswith("freq_hz,amplitude\n")


def test_artifact_digests_are_deterministic():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [
        sys.executable,
        str(ROOT / "scripts" / "artifact_digests.py"),
        "composite/simulate-hard-thermal-1010",
        "builtin/spectrum-eps",
    ]
    runs = [subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stdout + proc.stderr
    assert runs[0].stdout == runs[1].stdout
    lines = runs[0].stdout.splitlines()
    names = [line.split()[0] for line in lines]
    # cases run in matrix order, builtin register first
    case = "composite/simulate-hard-thermal-1010"
    assert names == [
        f"builtin/spectrum-eps/{name}"
        for name in ("result.json", "spectrum.csv", "spectrum.svg", "stdout", "stderr", "exit")
    ] + [
        f"{case}/{name}"
        for name in (
            "after_spectrum.csv",
            "after_spectrum.svg",
            "before_spectrum.csv",
            "before_spectrum.svg",
            "result.json",
            "stdout",
            "stderr",
            "exit",
        )
    ]
    assert all(len(line.split()[1]) == 64 for line in lines if not line.split()[0].endswith("/exit"))
    assert [line for line in lines if line.split()[0].endswith("/exit")] == [
        "builtin/spectrum-eps/exit 0",
        f"{case}/exit 0",
    ]
