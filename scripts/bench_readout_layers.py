#!/usr/bin/env python
"""Time the readout of ``run_fetch``'s queried state layer by layer, in process: best of N.

Usage: python scripts/bench_readout_layers.py [repeats]

OpenBLAS runs on one thread (the script sets OPENBLAS_NUM_THREADS=1 before
numpy loads).  Cases: the builtin register with patterns 100101, 10010x,
1001xx and xxxxxx, and a synthetic register of 8 database qubits
(superincreasing |J_0i| = 1.5 * 2^(8 - i) Hz, on its ``for_system`` grid)
with every bit constrained, each on the fast backend from the
effective-pure state.  Each case first runs ``run_fetch`` once, so the
register's reference readout is cached as in a stream of queries, then
times each layer of the queried state's readout on its own: the FID row
and the closed-form row of its difference from the reference
(``fid_row``, ``closed_row``), the FFT core (``fft``), the route gap
(``gap``), peak picking (``pick``), decoding (``decode``), building the
``Peak`` records of a fresh queried readout (``records``) and the verdict
(``verdict``); then all of ``_read`` (``read``) and the whole
``run_fetch``, and counts the minor page faults per warm ``run_fetch``
(``faults_per_op``, ``ru_minflt`` over the timed calls).  Prints one JSON object mapping "<register>_<pattern>" to the
grid's point count, the queried state's peak count, the faults per op and
the best wall time of each layer in ms.  Its last entry,
"synthetic8_cold_reference", times the readout of a fresh register's
reference: the same synthetic register built anew for every call, then
its prepared state's FID row (``fid_row``) and its whole reference
readout (``reference_readout``), each on a register that has read out
nothing yet.
Run it against another source tree by pointing PYTHONPATH at its src/.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads

import functools
import json
import resource
import sys
import time

from bench_verify import synthetic_config

from nmrfetch import AcquisitionParams, QueryPattern, apply_query_diagonal, crotonic_default, load_spin_system
from nmrfetch.cli import RunConfig, _initial_state, run_fetch
from nmrfetch.spectrometer import (
    _PICK_THRESHOLD,
    Readout,
    Spectrum,
    _absorptive,
    _classify,
    _closed_form_row,
    _decode,
    _fid_row,
    _grid,
    _lines,
    _pick,
    _read,
    _reference_readout,
    _route_gap,
)


def best_ms(call, repeats: int) -> float:
    """Best wall time of ``call()`` in ms."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return round(best * 1e3, 4)


def layers(cfg: RunConfig, params: AcquisitionParams, repeats: int) -> dict:
    system = cfg.system
    run_fetch(cfg)  # caches the reference readout, as earlier queries would
    state = _initial_state(system, cfg.init)
    queried = apply_query_diagonal(state, cfg.pattern)
    _, reference_fid, reference_closed = _reference_readout(state, system, params)
    delta = queried.ancilla_difference() - state.ancilla_difference()
    fid = _fid_row(delta, system, params)
    fid += reference_fid
    closed = _closed_form_row(delta, system, params)
    closed += reference_closed
    spectrum = Spectrum(_grid(system, params).freqs_hz, _absorptive(fid, params.dwell_s))
    freq, amp = _pick(spectrum, _PICK_THRESHOLD)
    item = _lines(system).item[_decode(freq, system)]
    ms = {
        "fid_row": best_ms(lambda: _fid_row(delta, system, params), repeats),
        "closed_row": best_ms(lambda: _closed_form_row(delta, system, params), repeats),
        "fft": best_ms(lambda: _absorptive(fid, params.dwell_s), repeats),
        "gap": best_ms(lambda: _route_gap(spectrum.amplitude, closed), repeats),
        "pick": best_ms(lambda: _pick(spectrum, _PICK_THRESHOLD), repeats),
        "decode": best_ms(lambda: _decode(freq, system), repeats),
        # one fresh queried readout, dropped after this layer; its records are built anew per call
        "records": best_ms(functools.partial(Readout.peaks.func, _read(fid, closed, system, params)), repeats),
        "verdict": best_ms(lambda: _classify(item, amp), repeats),
        "read": best_ms(lambda: _read(fid, closed, system, params), repeats),
    }
    faults = minor_faults()
    ms["run_fetch"] = best_ms(lambda: run_fetch(cfg), repeats)
    faults_per_op = (minor_faults() - faults) / repeats
    return {"points": params.n_points, "peaks": len(freq), "faults_per_op": faults_per_op, "ms": ms}


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def cold_reference(config: str, repeats: int) -> dict:
    """Best times of a fresh register's reference FID row and whole reference readout, in ms."""
    best = {"fid_row": float("inf"), "reference_readout": float("inf")}
    for _ in range(repeats):
        for layer in best:
            system = load_spin_system(config)
            params = AcquisitionParams.for_system(system)  # builds the line table, untimed
            state = _initial_state(system, "effective_pure")
            if layer == "fid_row":
                call = lambda: _fid_row(state.ancilla_difference(), system, params)  # noqa: E731
            else:
                call = lambda: _reference_readout(state, system, params)  # noqa: E731
            best[layer] = min(best[layer], best_ms(call, 1))
    return {"points": params.n_points, "ms": best}


def run(repeats: int) -> dict:
    builtin = crotonic_default()
    config = synthetic_config(8)
    synthetic = load_spin_system(config)
    cases = {f"builtin_{bits}": (builtin, bits) for bits in ("100101", "10010x", "1001xx", "xxxxxx")}
    cases["synthetic8_10101010"] = (synthetic, "10101010")
    out = {}
    for name, (system, bits) in cases.items():
        params = AcquisitionParams.for_system(system)
        cfg = RunConfig(system, QueryPattern.from_string(bits), backend="fast_diagonal", params=params)
        out[name] = layers(cfg, params, repeats)
        print(name, out[name], file=sys.stderr)
    out["synthetic8_cold_reference"] = cold_reference(config, repeats)
    print("synthetic8_cold_reference", out["synthetic8_cold_reference"], file=sys.stderr)
    return out


if __name__ == "__main__":
    print(json.dumps(run(int(sys.argv[1]) if len(sys.argv) > 1 else 200), indent=1))
