"""Planted defects: one wrong side of one cross-check must fail the run.

Each case monkeypatches a single defect into one of the two models that a
check compares and asserts that the check catches it: ``verify`` exits 2,
the route guard of ``run_fetch`` raises ``DecodeError`` (exit 4 from
``simulate``), the decoded items miss the classical enumeration (exit 2
from ``simulate``), or the query refuses a product that is not unitary
(exit 3 from ``simulate``).  The same run passes on the same register
without the defect, so the failure is the defect's doing.  Registers: the
builtin crotonic acid register and a synthetic 8-spin one with a
sign-flipped bit.  Readout keeps a model per register, so every defect is
planted before the register's first readout.
"""

import dataclasses
import math

import numpy as np
import pytest

import nmrfetch.cli as climod
import test_spectrometer
from nmrfetch import (
    AcquisitionParams,
    DecodeError,
    DensityState,
    GateSequence,
    QueryPattern,
    SelectivePulse,
    SpinSystem,
    ZZEvolution,
    crotonic_default,
    load_spin_system,
    spectrometer,
)
from nmrfetch.cli import EXIT_CONFIG, EXIT_MISMATCH, EXIT_NUMERICAL, EXIT_OK, RunConfig, main, run_fetch

from conftest import superincreasing_config


@pytest.fixture(params=["builtin", "synthetic"])
def register(request, tmp_path):
    """(--system value, pattern with constrained and wildcard bits)."""
    if request.param == "builtin":
        return "builtin", "100101"
    path = tmp_path / "synthetic.cfg"
    path.write_text(superincreasing_config(7, negative=(3,)))
    return str(path), "1010x10"


def verify(system, pattern, backend):
    return main(["verify", "--system", system, "--pattern", pattern, "--backend", backend])


def without(seq, index):
    return GateSequence(seq.n_qubits, seq.gates[:index] + seq.gates[index + 1 :], seq.mode)


def drop_one_subset_period(real):
    # a ZZ period that carries a control subset's phase, not one of the
    # pi/2 periods that conjugate a chain
    def build(system, pattern):
        net = real(system, pattern)
        index = next(
            i for i, g in enumerate(net.gates) if isinstance(g, ZZEvolution) and abs(g.angle) != math.pi / 2
        )
        return without(net, index)

    return build


def drop_one_refocusing_pulse(real):
    # the query network itself has no pi pulse about y: every one in the
    # schedule refocuses a spin inside an echo block
    def expand(seq, system):
        hard = real(seq, system)
        index = next(
            i
            for i, g in enumerate(hard.gates)
            if isinstance(g, SelectivePulse) and g.axis == "y" and g.angle == math.pi
        )
        return without(hard, index)

    return expand


def move_toggle_to_qubit_1(real):
    def build(system, pattern):
        net = real(system, pattern)
        toggle = net.gates[:2]
        assert toggle == net.gates[-2:] and all(g.qubit == system.ancilla for g in toggle)
        moved = tuple(dataclasses.replace(g, qubit=1) for g in toggle)
        return GateSequence(net.n_qubits, moved + net.gates[2:-2] + moved, net.mode)

    return build


def flip_one_unmatched_item(real):
    def query(state, pattern):
        pops = real(state, pattern).populations.copy()
        half = pops.size // 2
        item = next(i for i in range(half) if not pattern.matches(i))
        pops[[item, item + half]] = pops[[item + half, item]]
        return DensityState(pops)

    return query


# defect, the cli name it replaces, the verify backend whose check must catch it
DEFECTS = {
    "dropped-subset-period": (drop_one_subset_period, "build_query_network", "ideal"),
    "dropped-refocusing-pulse": (drop_one_refocusing_pulse, "expand_to_hard_pulses", "hard"),
    "toggle-on-qubit-1": (move_toggle_to_qubit_1, "build_query_network", "ideal"),
    "toggle-on-qubit-1-fast": (move_toggle_to_qubit_1, "build_query_network", "fast"),
    "flipped-unmatched-item": (flip_one_unmatched_item, "apply_query_diagonal", "fast"),
}


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_verify_catches_planted_defect(monkeypatch, capsys, register, defect):
    plant, name, backend = DEFECTS[defect]
    system, pattern = register
    assert verify(system, pattern, backend) == EXIT_OK
    monkeypatch.setattr(climod, name, plant(getattr(climod, name)))
    assert verify(system, pattern, backend) == EXIT_MISMATCH
    assert "-> FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# readout: defects that reach only the queried state of a warm register
# ---------------------------------------------------------------------------


def flip_fid_carrier(real):
    # the FID demodulated at minus the carrier
    def fid_row(difference, system, params):
        return real(difference, system, dataclasses.replace(params, carrier_hz=-params.carrier_hz))

    return fid_row


def scale_closed_form_row(real):
    def closed_form_row(difference, system, params):
        return 1.01 * real(difference, system, params)

    return closed_form_row


def drop_half_first_point(real):
    # the FFT core of fft_spectrum without halving the first sample
    def absorptive(fid, dwell_s):
        work = fid.copy()
        work[0] *= 2.0
        return real(work, dwell_s)

    return absorptive


# defect, the spectrometer name it replaces
READOUT_DEFECTS = {
    "fid-carrier-sign": (flip_fid_carrier, "_fid_row"),
    "scaled-difference-row": (scale_closed_form_row, "_closed_form_row"),
    "no-half-first-point": (drop_half_first_point, "_absorptive"),
}


@pytest.fixture(params=["builtin", "synthetic"])
def warm_run(request):
    """A register with a nonzero carrier (so the carrier's sign matters) and a pattern."""
    if request.param == "builtin":
        system, pattern = crotonic_default(), "100101"
    else:
        system, pattern = load_spin_system(superincreasing_config(7, negative=(3,))), "1010x10"
    params = AcquisitionParams.for_system(system, carrier_hz=1.25)
    return system, QueryPattern.from_string(pattern), params


@pytest.mark.parametrize("backend", ["fast_diagonal", "ideal"])
@pytest.mark.parametrize("defect", sorted(READOUT_DEFECTS))
def test_warm_readout_catches_planted_defect(monkeypatch, warm_run, backend, defect):
    system, pattern, params = warm_run
    cfg = RunConfig(system, pattern, init="thermal", backend=backend, params=params)
    clean = run_fetch(cfg)  # caches the reference readout
    assert clean.verified
    references = dict(spectrometer._model(system).references)
    plant, name = READOUT_DEFECTS[defect]
    calls = []
    defective = plant(getattr(spectrometer, name))

    def counted(*args):
        calls.append(args)
        return defective(*args)

    monkeypatch.setattr(spectrometer, name, counted)
    with pytest.raises(DecodeError):  # a stray peak or the route guard
        run_fetch(cfg)
    # the defect reached the queried state alone: one call, and the cached
    # reference was neither read out again nor replaced
    assert len(calls) == 1
    assert spectrometer._model(system).references == references
    monkeypatch.undo()
    again = run_fetch(cfg)
    assert again.verified and again.before is clean.before
    assert np.array_equal(again.after.amplitude, clean.after.amplitude)


def test_a_reference_readout_that_raises_is_not_cached(monkeypatch):
    system = crotonic_default()
    cfg = RunConfig(system, QueryPattern.from_string("100xxx"), backend="fast_diagonal")
    pick = spectrometer._pick

    def stray_peak(spectrum, threshold_frac):
        # one extra peak far from every line: decoding must refuse it
        freq, amp = pick(spectrum, threshold_frac)
        return np.r_[freq, spectrum.freqs_hz[0]], np.r_[amp, 1.0]

    monkeypatch.setattr(spectrometer, "_pick", stray_peak)
    for _ in range(2):  # the second run reads the reference afresh and fails again
        with pytest.raises(DecodeError, match="no expected line"):
            run_fetch(cfg)
        assert spectrometer._model(system).references == {}
    monkeypatch.undo()
    result = run_fetch(cfg)
    fresh = run_fetch(RunConfig(crotonic_default(), cfg.pattern, backend=cfg.backend))
    assert result.verified and result.peaks_before == fresh.peaks_before
    assert np.array_equal(result.before.amplitude, fresh.before.amplitude)


# ---------------------------------------------------------------------------
# register and decoding: defects planted before the register is built, so
# every run reads them from its first readout on
# ---------------------------------------------------------------------------


def flip_bit_sign_of_qubit_4(real):
    # the derived sign convention of builtin qubit 4 (the methyl group) reversed
    def bit_signs(self):
        signs = list(real.fget(self))
        signs[3] = -signs[3]
        return tuple(signs)

    return property(bit_signs)


def equal_manifold_weights(real):
    # the closed-form route's composite lines all equally tall
    def manifolds(multiplicity, bit):
        pairs = real(multiplicity, bit)
        return [(m, 1.0 / len(pairs)) for m, _ in pairs]

    return manifolds


def shift_decode_one_block(real):
    # every frequency read as the line frequency above its own
    def decode(freq, system):
        table = spectrometer._lines(system)
        real(freq, system)  # the real checks still run
        near = np.abs(np.subtract.outer(freq, table.block_freq)).argmin(axis=1)
        above = np.minimum(near + 1, len(table.block_freq) - 1)
        return table.by_freq[table.block_start[above]]

    return decode


def count_edge_samples(real):
    # the first and last samples taken as extrema when they pass their one
    # neighbour, against the find_peaks rule
    def extrema(x):
        maxima, minima = real(x)
        if len(x) < 2:
            return maxima, minima
        ends = [(0, 1), (len(x) - 1, len(x) - 2)]
        high = [i for i, j in ends if x[i] > x[j]]
        low = [i for i, j in ends if x[i] < x[j]]
        return np.sort(np.r_[maxima, high]).astype(int), np.sort(np.r_[minima, low]).astype(int)

    return extrema


def simulate(pattern, backend):
    return main(["simulate", "--pattern", pattern, "--backend", backend])


@pytest.mark.parametrize("backend", ["fast", "ideal", "hard"])
def test_route_guard_catches_flipped_bit_sign(monkeypatch, capsys, backend):
    # only the time-domain route reads the sign (through logical_coupling),
    # so the FID puts qubit 4's lines on the wrong side and the routes part
    assert simulate("100101", backend) == EXIT_OK
    monkeypatch.setattr(SpinSystem, "bit_signs", flip_bit_sign_of_qubit_4(SpinSystem.bit_signs))
    assert crotonic_default().bit_signs[3] == 1
    assert simulate("100101", backend) == EXIT_NUMERICAL
    assert "time-domain and closed-form spectra disagree (1.90e+00 relative)" in capsys.readouterr().err
    # with qubit 4 a wildcard, both of its sides change alike and the
    # spectra cannot tell them apart
    assert simulate("100xxx", backend) == EXIT_OK


@pytest.mark.parametrize("backend", ["fast", "ideal", "hard"])
def test_route_guard_catches_equal_manifold_weights(monkeypatch, capsys, backend):
    assert simulate("100101", backend) == EXIT_OK
    monkeypatch.setattr(spectrometer, "_manifolds", equal_manifold_weights(spectrometer._manifolds))
    assert simulate("100101", backend) == EXIT_NUMERICAL
    assert "time-domain and closed-form spectra disagree" in capsys.readouterr().err


@pytest.mark.parametrize("backend", ["fast", "ideal", "hard"])
def test_oracle_check_catches_shifted_decode(monkeypatch, capsys, backend):
    assert simulate("100101", backend) == EXIT_OK
    monkeypatch.setattr(spectrometer, "_decode", shift_decode_one_block(spectrometer._decode))
    assert simulate("100101", backend) == EXIT_MISMATCH
    assert "verification: FAIL" in capsys.readouterr().out


def test_scipy_reference_catches_edge_extrema(monkeypatch):
    monkeypatch.setattr(spectrometer, "_extrema", count_edge_samples(spectrometer._extrema))
    # a run misses it: the spectrum's edge samples lie far below the 5 %
    # peak threshold, so the extra candidates are dropped
    assert simulate("100101", "fast") == EXIT_OK
    # the picker's property test against scipy.signal.find_peaks does not:
    # an edge extremum is a peak the reference never reports
    with pytest.raises(Exception) as caught:
        test_spectrometer.test_pick_peaks_matches_scipy_reference()
    # hypothesis may report a wrong peak list and a refinement past the
    # last sample together
    errors = getattr(caught.value, "exceptions", (caught.value,))
    assert {type(e) for e in errors} <= {AssertionError, IndexError}


# ---------------------------------------------------------------------------
# query: the product whose rounding decides which populations are put back
# ---------------------------------------------------------------------------


def scale_one_row(real):
    # row 0 (ancilla 0, the unmatched item 0) off unit norm by ~2e-6:
    # a rounding bound read from this product would hide a change that size
    def product(seq, system=None):
        acc, cols, embed = real(seq, system)
        acc = acc.copy()
        acc[0] *= 1.0 + 1e-6
        return acc, cols, embed

    return product


@pytest.mark.parametrize("backend", ["ideal", "hard"])
def test_query_refuses_a_product_off_unit_norm(monkeypatch, capsys, backend):
    assert simulate("100101", backend) == EXIT_OK
    monkeypatch.setattr(climod, "_compressed_product", scale_one_row(climod._compressed_product))
    assert simulate("100101", backend) == EXIT_CONFIG
    assert "product rows deviate from unit norm by 2e-06; not unitary" in capsys.readouterr().err
