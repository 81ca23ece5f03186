"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single [PASS]/[FAIL] line so a plain ``pytest -v`` run
doubles as the sign-off checklist.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from nmrfetch import (
    AcquisitionParams,
    DensityState,
    QueryPattern,
    apply_query_diagonal,
    bench_report,
    build_query_network,
    compile_multilinear_z_phase,
    crotonic_default,
    distance_up_to_global_phase,
    effective_pure_ancilla,
    expand_to_hard_pulses,
    line_table,
    readout,
    thermal_state,
)
from nmrfetch.cli import RunConfig, run_fetch
from nmrfetch.compiler import Delay, GateSequence, SelectivePulse, VirtualZ, ZZEvolution
from nmrfetch.spectrometer import _closed_form_row, _decode, _lines

from conftest import make_system, random_full_system
from dense_reference import apply_unitary, controlled_phase_direct, sequence_unitary


@contextmanager
def criterion(capsys, num, label):
    start = time.monotonic()
    box = {"start": start}
    try:
        yield box
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] criterion {num}: {label}")
        raise
    with capsys.disabled():
        print(f"[PASS] criterion {num}: {label} ({time.monotonic() - start:.1f}s)")


def test_criterion_01_compiler_soundness(capsys):
    with criterion(capsys, 1, "multi-controlled phase compiles exactly, 1-4 controls") as box:
        rng = random.Random(20260815)
        worst = 0.0
        for _ in range(110):
            k = rng.randint(1, 4)
            n = rng.randint(k + 1, 5)
            qubits = rng.sample(range(n), k + 1)
            target, controls_q = qubits[0], qubits[1:]
            controls = [(q, rng.randint(0, 1)) for q in controls_q]
            signs = [rng.choice([1, -1]) for _ in controls]
            angle = rng.uniform(-2 * math.pi, 2 * math.pi)
            # the sign convention folded into the polarity: eps = s (-1)^p
            logical = [(q, p ^ (s < 0)) for (q, p), s in zip(controls, signs)]
            seq = compile_multilinear_z_phase(n, target, logical, angle)
            ref = controlled_phase_direct(n, target, controls, angle, signs=signs)
            worst = max(worst, distance_up_to_global_phase(sequence_unitary(seq), ref))
        assert worst <= 1e-9, f"worst deviation {worst:.3e}"
        assert time.monotonic() - box["start"] < 10.0


def test_criterion_02_end_to_end_fetch(capsys):
    with criterion(capsys, 2, "thermal 100xxx run marks items 32-39 with one query") as box:
        cfg = RunConfig(
            crotonic_default(),
            QueryPattern.from_string("100xxx"),
            init="thermal",
            backend="ideal",
        )
        res = run_fetch(cfg)
        assert res.marked == tuple(range(32, 40))
        assert res.verified
        assert time.monotonic() - box["start"] < 30.0


def test_criterion_03_spectral_geometry(capsys):
    with criterion(capsys, 3, "128 lines in 8 groups at the expected centroids"):
        sys = crotonic_default()
        params = AcquisitionParams.for_system(sys)
        (read,) = readout((effective_pure_ancilla(sys),), sys, params)
        assert len(read.peaks) == 128
        freqs = np.sort([p.freq_hz for p in read.peaks])
        centroids = freqs.reshape(8, 16).mean(axis=1)
        expected = [-133.65, -92.05, -63.95, -22.35, 22.35, 63.95, 92.05, 133.65]
        assert np.max(np.abs(centroids - expected)) <= 0.01
        gaps = np.diff(centroids)
        assert int(np.argmax(gaps)) == 3  # widest gap splits the two halves
        assert gaps[1] == pytest.approx(gaps[5], abs=1e-6)
        assert {int(i) for i in np.argsort(gaps)[:2]} == {1, 5}


def test_criterion_04_methyl_intensity_ratio(capsys):
    with criterion(capsys, 4, "methyl inner/outer intensity ratio 3.0 within 2%"):
        sys = crotonic_default()
        params = AcquisitionParams.for_system(sys)
        (read,) = readout((effective_pure_ancilla(sys),), sys, params)
        by_freq = {}
        for line in line_table(sys):
            by_freq[round(line.freq_hz, 6)] = line
        inner = outer = 0.0
        for p in read.peaks:
            key = min(by_freq, key=lambda f: abs(f - p.freq_hz))
            line = by_freq[key]
            if line.manifold == "inner":
                inner += abs(p.amplitude)
            elif line.manifold == "outer":
                outer += abs(p.amplitude)
        ratio = inner / outer
        assert abs(ratio - 3.0) / 3.0 <= 0.02, f"ratio {ratio:.4f}"


def test_criterion_05_fid_route_agreement(capsys):
    with criterion(capsys, 5, "sampled-FID spectrum matches line-sum to 1e-6") as box:
        sys = crotonic_default()
        params = AcquisitionParams(n_points=16384, dwell_s=1.0 / 512.0, t2_s=2.0)
        before = effective_pure_ancilla(sys)
        after = apply_query_diagonal(before, QueryPattern.from_string("100xxx"))
        for state, read in zip((before, after), readout((before, after), sys, params)):
            closed = _closed_form_row(state.ancilla_difference(), sys, params)
            gap = np.max(np.abs(read.spectrum.amplitude - closed)) / np.max(np.abs(closed))
            assert gap <= 1e-6, f"route gap {gap:.3e}"
        assert time.monotonic() - box["start"] < 60.0


def test_criterion_06_thermal_equals_effective_pure(capsys):
    with criterion(capsys, 6, "thermal and effective-pure preparations agree"):
        sys = crotonic_default()
        pat = QueryPattern.from_string("100xxx")
        results = {}
        spectra = {}
        for init in ("thermal", "effective_pure"):
            res = run_fetch(RunConfig(sys, pat, init=init, backend="ideal"))
            results[init] = res
            spectra[init] = res.after.spectrum.amplitude
        a, b = spectra["thermal"], spectra["effective_pure"]
        cosine = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert cosine >= 0.999, f"cosine similarity {cosine:.6f}"
        assert results["thermal"].marked == results["effective_pure"].marked
        assert results["thermal"].inconsistent == results["effective_pure"].inconsistent == ()


def test_criterion_07_hard_pulse_equals_ideal(capsys):
    with criterion(capsys, 7, "hard-pulse expansion reproduces ideal gates to 1e-6") as box:
        rng = random.Random(715)
        worst = 0.0
        for case in range(24):
            n_db = 2 + case % 2  # alternate 3- and 4-spin registers
            sys = random_full_system(rng, n_db)
            n = n_db + 1
            gates = []
            for _ in range(rng.randint(4, 8)):
                kind = rng.choice(["pulse", "zz", "vz"])
                if kind == "pulse":
                    gates.append(
                        SelectivePulse(
                            rng.randrange(n),
                            rng.choice(["x", "y", "-x", "-y"]),
                            rng.uniform(0.1, 2 * math.pi),
                        )
                    )
                elif kind == "zz":
                    a = rng.randrange(n)
                    b = (a + 1 + rng.randrange(n - 1)) % n
                    gates.append(ZZEvolution(a, b, rng.uniform(-math.pi, math.pi)))
                else:
                    gates.append(VirtualZ(rng.randrange(n), rng.uniform(-3, 3)))
            seq = GateSequence(n, tuple(gates))
            hard = expand_to_hard_pulses(seq, sys)
            assert not any(isinstance(g, ZZEvolution) for g in hard.gates)
            assert any(isinstance(g, Delay) for g in hard.gates) or not any(
                isinstance(g, ZZEvolution) for g in seq.gates
            )
            gap = distance_up_to_global_phase(
                sequence_unitary(hard, sys), sequence_unitary(seq, sys)
            )
            worst = max(worst, gap)
        assert worst <= 1e-6, f"worst hard/ideal gap {worst:.3e}"
        assert time.monotonic() - box["start"] < 30.0


def test_criterion_08_diagonal_shortcut_equals_dense(capsys):
    with criterion(capsys, 8, "population shortcut matches dense evolution"):
        rng = random.Random(808)
        worst = 0.0
        for n in range(1, 5):
            couplings = [40.0, 17.0, 8.0, 3.5][:n]
            sys = make_system(couplings)
            dim = 2 ** (n + 1)
            raw = np.array([rng.uniform(0.01, 1.0) for _ in range(dim)])
            state = DensityState(raw / raw.sum())
            for symbols in itertools.product("01x", repeat=n):
                pat = QueryPattern.from_string("".join(symbols))
                fast = apply_query_diagonal(state, pat)
                u = sequence_unitary(build_query_network(sys, pat), sys)
                dense = apply_unitary(state, u)
                worst = max(
                    worst, float(np.max(np.abs(fast.populations - dense.populations)))
                )
        sys6 = crotonic_default()
        state6 = thermal_state(sys6, polarization=1e-3)
        for _ in range(50):
            pat = QueryPattern.from_string("".join(rng.choice("01x") for _ in range(6)))
            fast = apply_query_diagonal(state6, pat)
            u = sequence_unitary(build_query_network(sys6, pat), sys6)
            dense = apply_unitary(state6, u)
            worst = max(
                worst, float(np.max(np.abs(fast.populations - dense.populations)))
            )
        assert worst <= 1e-9, f"worst population gap {worst:.3e}"


def test_criterion_09_unambiguous_monotonic_decode(capsys):
    with criterion(capsys, 9, "every item decodes uniquely; inner lines order items"):
        sys = crotonic_default()
        lines = line_table(sys)
        table = _lines(sys)
        decoded = _decode(np.array([line.freq_hz for line in lines]), sys)
        for line, k in zip(lines, decoded.tolist()):
            assert (table.item[k], table.manifold[k]) == (line.item, line.manifold)
        inner = sorted(
            (l for l in lines if l.manifold == "inner"), key=lambda l: -l.freq_hz
        )
        assert [l.item for l in inner] == list(range(64))


def test_criterion_10_query_count_comparison(capsys):
    with criterion(capsys, 10, "query-count table for the 56-bit example"):
        rep = bench_report(56, 1)
        q = rep["queries"]
        assert abs(q["grover"] - 0.8 * 2**28) / (0.8 * 2**28) <= 0.10
        assert q["per_bit_bisection"] == 56
        assert q["ensemble_fetch"] == 1
