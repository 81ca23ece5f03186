#!/usr/bin/env python
"""Time ``nmrfetch verify`` in process: best of N wall-clock runs per case.

Usage: OPENBLAS_NUM_THREADS=1 python scripts/bench_verify.py [repeats]

Cases: the builtin register with pattern 100101, and synthetic registers
of 10, 11 and 12 spins (ancilla plus superincreasing couplings
|J_0i| = 1.5 * 2^(n - i) Hz) with every database bit constrained, each on
the ideal, hard and fast backends.  Prints one JSON object mapping
"<register>/<backend>" to the best wall time in seconds and the exit code.
Run it against another source tree by pointing PYTHONPATH at its src/.
"""

import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

from nmrfetch.cli import main


def synthetic_config(n_database: int) -> str:
    text = ["ancilla = A", "[spin.A]", "species = carbon"]
    for i in range(1, n_database + 1):
        text += [f"[spin.Q{i}]", "species = carbon"]
    text.append("[couplings]")
    text += [f"A-Q{i} = {1.5 * 2 ** (n_database - i)}" for i in range(1, n_database + 1)]
    return "\n".join(text) + "\n"


def best_of(argv: list[str], repeats: int) -> tuple[float, int]:
    best, code = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        best = min(best, time.perf_counter() - start)
    return best, code


def run(repeats: int) -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        cases = {"builtin_100101": ["--pattern", "100101"]}
        for spins in (10, 11, 12):
            path = Path(tmp) / f"synthetic{spins}.cfg"
            path.write_text(synthetic_config(spins - 1))
            pattern = ("10" * spins)[: spins - 1]
            cases[f"synthetic_{spins}_spins"] = ["--system", str(path), "--pattern", pattern]
        for name, args in cases.items():
            for backend in ("ideal", "hard", "fast"):
                seconds, code = best_of(["verify", *args, "--backend", backend], repeats)
                out[f"{name}/{backend}"] = {"best_s": round(seconds, 4), "exit": code}
                print(name, backend, out[f"{name}/{backend}"], file=sys.stderr)
    return out


if __name__ == "__main__":
    print(json.dumps(run(int(sys.argv[1]) if len(sys.argv) > 1 else 3), indent=1))
