#!/usr/bin/env python
"""Time the query stage of ``run_fetch`` layer by layer, in process: best of N.

Usage: OPENBLAS_NUM_THREADS=1 python scripts/bench_query_layers.py [repeats]

Cases: the builtin register with patterns 100101, 10010x and 1001xx, and a
synthetic register of 9 database qubits (superincreasing |J_0i| =
1.5 * 2^(9 - i) Hz, on its ``for_system`` grid) with every bit
constrained, each on the ideal and the hard-pulse
backend.  Each case first runs ``run_fetch`` once, so the register is warm
as in a stream of queries, then times each layer on its own:
``build_query_network``, ``expand_to_hard_pulses`` and the schedule's
``duration_s`` (hard only), the block product, its application to the
prepared state, and the whole ``run_fetch``.  Prints one JSON object
mapping "<register>_<pattern>/<backend>" to the best wall time of each
layer in ms, or to the name of the exception a refused layer raised.
Run it against another source tree by pointing PYTHONPATH at its src/.
"""

import json
import sys
import time

from bench_verify import synthetic_config

from nmrfetch import QueryPattern, build_query_network, crotonic_default, expand_to_hard_pulses
from nmrfetch import load_spin_system
from nmrfetch.cli import RunConfig, _initial_state, run_fetch
from nmrfetch.compiler import _compressed_product
from nmrfetch.states import _apply_product


def best_ms(call, repeats: int):
    """Best wall time of ``call()`` in ms, or the name of what it raised."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        try:
            call()
        except ValueError as exc:  # every refusal of the package is one
            return type(exc).__name__
        best = min(best, time.perf_counter() - start)
    return round(best * 1e3, 4)


def layers(cfg: RunConfig, repeats: int) -> dict:
    system, pattern = cfg.system, cfg.pattern
    try:
        run_fetch(cfg)  # warms the register's caches, as earlier queries would
    except ValueError:
        pass
    network = build_query_network(system, pattern)
    out = {"build": best_ms(lambda: build_query_network(system, pattern), repeats)}
    sequence = network
    if cfg.backend == "hard_pulse":
        out["expand"] = best_ms(lambda: expand_to_hard_pulses(network, system), repeats)
        sequence = expand_to_hard_pulses(network, system)
        out["duration_s"] = best_ms(lambda: sequence.duration_s, repeats)
    out["product"] = best_ms(lambda: _compressed_product(sequence, system), repeats)
    state = _initial_state(system, cfg.init)
    product = _compressed_product(sequence, system)
    out["apply"] = best_ms(lambda: _apply_product(state, *product), repeats)
    out["run_fetch"] = best_ms(lambda: run_fetch(cfg), repeats)
    return out


def run(repeats: int) -> dict:
    builtin = crotonic_default()
    synthetic = load_spin_system(synthetic_config(9))
    cases = {f"builtin_{bits}": (builtin, bits) for bits in ("100101", "10010x", "1001xx")}
    cases["synthetic9_101010101"] = (synthetic, "101010101")
    out = {}
    for name, (system, bits) in cases.items():
        for backend in ("ideal", "hard_pulse"):
            cfg = RunConfig(system, QueryPattern.from_string(bits), backend=backend)
            out[f"{name}/{backend}"] = layers(cfg, repeats)
            print(name, backend, out[f"{name}/{backend}"], file=sys.stderr)
    return out


if __name__ == "__main__":
    print(json.dumps(run(int(sys.argv[1]) if len(sys.argv) > 1 else 50), indent=1))
