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
