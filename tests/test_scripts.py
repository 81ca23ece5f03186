"""The example scripts run against the package in src/."""

import importlib.util
import json
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
        "builtin/product-hard-100101",
        "builtin/spectrum-eps",
    ]
    runs = [subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stdout + proc.stderr
    assert runs[0].stdout == runs[1].stdout
    lines = runs[0].stdout.splitlines()
    names = [line.split()[0] for line in lines]
    # cases run in matrix order, builtin register first, products last
    case = "composite/simulate-hard-thermal-1010"
    assert names == [
        f"builtin/spectrum-eps/{name}"
        for name in ("result.json", "result.json.shape", "spectrum.csv", "spectrum.svg", "stdout", "stderr", "exit")
    ] + [
        f"{case}/{name}"
        for name in (
            "after_spectrum.csv",
            "after_spectrum.svg",
            "before_spectrum.csv",
            "before_spectrum.svg",
            "result.json",
            "result.json.shape",
            "stdout",
            "stderr",
            "exit",
        )
    ] + ["builtin/product-hard-100101"]
    assert all(len(line.split()[1]) == 64 for line in lines if not line.split()[0].endswith("/exit"))
    assert [line for line in lines if line.split()[0].endswith("/exit")] == [
        "builtin/spectrum-eps/exit 0",
        f"{case}/exit 0",
    ]


def test_bench_query_layers_times_every_layer():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(ROOT / "scripts" / "bench_query_layers.py"), "1"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout)
    registers = ["builtin_100101", "builtin_10010x", "builtin_1001xx", "synthetic9_101010101"]
    assert list(out) == [f"{r}/{b}" for r in registers for b in ("ideal", "hard_pulse")]
    for case, layers in out.items():
        hard = ["expand", "duration_s"] if case.endswith("hard_pulse") else []
        assert list(layers) == ["build", *hard, "product", "apply", "run_fetch"]
        assert all(isinstance(ms, float) and ms > 0.0 for ms in layers.values()), (case, layers)


def test_bench_readout_layers_times_every_layer():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(ROOT / "scripts" / "bench_readout_layers.py"), "1"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout)
    builtin = [f"builtin_{bits}" for bits in ("100101", "10010x", "1001xx", "xxxxxx")]
    assert list(out) == [*builtin, "synthetic8_10101010"]
    layers = ["fid_row", "closed_row", "fft", "gap", "pick", "decode", "records", "verdict", "read", "run_fetch"]
    for case, got in out.items():
        assert got["points"] == 8192 and got["peaks"] == (256 if case.startswith("synthetic") else 128)
        assert list(got["ms"]) == layers
        assert all(isinstance(ms, float) and ms > 0.0 for ms in got["ms"].values()), (case, got)


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# a few cases of the digest matrix, each quick: runs that verify, refusals of
# a short pattern, listings, and commands whose summaries carry last bits
CHEAP_DIGEST_CASES = (
    "builtin/simulate-fast-eps-100101",
    "builtin/simulate-hard-thermal-100xxx",
    "composite/simulate-ideal-eps-x01x",
    "builtin/simulate-ideal-eps-10010",
    "builtin/compile-hard-10010",
    "composite/compile-ideal-0x1x",
    "composite/verify-fast-x01",
    "builtin/verify-hard-100101",
    "composite/spectrum-thermal",
)


def stable_digest_lines(digests):
    lines = [line for name, run in digests.cases() if name in CHEAP_DIGEST_CASES for line in run()]
    return [line for line in lines if digests.bit_stable(line.split()[0])]


def test_stable_artifact_digests_match_the_committed_file():
    # exit codes, refusals, verdicts, marked items and listings, on any
    # platform: these lines carry no floating-point last bits
    digests = load_script("artifact_digests")
    expected = set(digests.EXPECTED.read_text().splitlines())
    lines = stable_digest_lines(digests)
    names = [line.split()[0] for line in lines]
    assert sum(name.endswith("/exit") for name in names) == len(CHEAP_DIGEST_CASES)
    assert sum(name.endswith("/stdout") for name in names) == 6  # simulate and compile only
    assert sum(name.endswith("/result.json.shape") for name in names) == 4  # runs that answer
    assert [line for line in lines if line not in expected] == []


def test_json_shape_sees_keys_and_values_but_not_float_bits():
    digests = load_script("artifact_digests")
    shape = digests.json_shape
    base = b'{"acquisition": {"dwell_s": 0.001953125, "n_points": 16384}, "marked": [1, 2], "ok": true}'
    assert shape(base) == shape(base.replace(b"0.001953125", b"0.0019531250000000002"))
    for changed in (
        base.replace(b"dwell_s", b"dwell"),  # a renamed key
        base.replace(b'"n_points": 16384', b'"n_points": 16384, "carrier_hz": 0.0'),  # an added key
        base.replace(b"[1, 2]", b"[1]"),  # a list length
        base.replace(b"16384", b"8192"),  # an integer
        base.replace(b"true", b"false"),  # a boolean
    ):
        assert shape(changed) != shape(base)


def test_artifact_digests_check_mode():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(ROOT / "scripts" / "artifact_digests.py"), "--check", "composite/compile-ideal-0x1x"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    first, last = proc.stdout.splitlines()[0], proc.stdout.splitlines()[-1]
    assert first.startswith(("environment matches", "environment differs")) and last == "no line differs"
