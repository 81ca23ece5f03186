"""Fetch benchmark for nmrfetch: one command, every metric by name and unit.

    python3 perfbench/run.py --workload builtin_fast --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Load comes from one caller in a closed loop: each op is issued only after
the previous one returned.  ``--trace 0`` prints the end-to-end metrics of
BENCHMARK.json; set-up is timed in fresh processes, several times, and the
median is reported.  ``--trace 1`` is a separate run that prints the
per-layer metrics from spans recorded around each module's public functions.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Per-run records, with the run
environment, go to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 2  # set-up-only processes, plus the measuring process itself
RUN_TIMEOUT_S = 170.0


class RunError(RuntimeError):
    pass


def child_env() -> dict:
    """Environment of the worker processes: src/ first, BLAS threads <= nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    nproc = len(os.sched_getaffinity(0))
    current = env.get("OPENBLAS_NUM_THREADS", "")
    if not current.isdigit() or not 1 <= int(current) <= nproc:
        env["OPENBLAS_NUM_THREADS"] = str(nproc)
    return env


def start_worker(args: list[str], deadline: float) -> tuple[float, list[str]]:
    """Run worker.py; return its set-up time (start to READY) and its stdout."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or code != 0:
        raise RunError(f"worker {' '.join(args)} failed (exit {code})")
    return setup_s, rest


def tail_note(values: list[float]) -> str:
    """Sample count and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    ranked = sorted(values)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - q / 100.0) >= 10.0:
            value = ranked[max(math.ceil(q / 100.0 * n) - 1, 0)]
            return f"n={n}, p{q:g}={value:.6g}"
    return f"n={n}, no percentile has 10 samples beyond it"


def run_workload(workload: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            setups.append(start_worker(common + ["--setup-only"], deadline)[0])
    setup_s, lines = start_worker(
        common + ["--seconds", str(seconds), "--trace", str(trace)], deadline
    )
    setups.append(setup_s)
    result = json.loads(lines[-1])
    records = result["records"]
    result["attempted"] = len(records)
    result["failed"] = sum(r["failed"] for r in records)
    result["failed_frac"] = result["failed"] / len(records)
    result["workload"], result["seed"], result["trace"] = workload, seed, trace
    if trace:
        result["notes"] = {k: tail_note(v) for k, v in result.pop("samples").items()}
    else:
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["setup_samples_s"] = setups
        times = [math.inf if r["failed"] else r["seconds"] for r in records]
        result["notes"] = {"fetch_s_p50": tail_note(times), "setup_s": f"n={len(setups)}"}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(result, indent=1)
    )
    return result


def report(results: dict[str, dict], trace: int, spec: dict) -> dict:
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    single = len(results) == 1
    metrics = {}
    for workload, res in results.items():
        env = res["env"]
        blas = ", ".join(f"{b.get('library')} threads={b.get('threads')}" for b in env["blas"])
        print(f"== {workload}  seed={res['seed']}  trace={trace}")
        print(
            f"   env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
            f"scipy={env['scipy']} blas=[{blas}]"
        )
        print(
            f"   ops: attempted={res['attempted']} failed={res['failed']} "
            f"failed_frac={res['failed_frac']:.4f} correct={res['correct']}"
        )
        for problem in res["problems"]:
            print(f"   PROBLEM: {problem}")
        for name, unit in units.items():
            value = res["metrics"][name]
            note = res["notes"].get(name, "")
            print(f"   {name:<36} {value:>14.6g} {unit:<6} {note}")
            metrics[name if single else f"{workload}.{name}"] = {"value": value, "unit": unit}
        if trace:
            m = res["metrics"]
            share = m["cli.run_fetch_self_ms"] / m["cli.run_fetch_ms"]
            print(f"   run_fetch self time share: {share:.4%}; spans: {res['trace_file']}")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    # metric names, units and the default run length live in BENCHMARK.json
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "nmrfetch" / "__init__.py").is_file():
        print(f"no nmrfetch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_TIMEOUT_S * len(workloads)
    try:
        results = {
            w: run_workload(w, args.seed, args.seconds, args.trace, deadline) for w in workloads
        }
    except RunError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(json.dumps(report(results, args.trace, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
