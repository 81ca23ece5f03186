"""Planted defects: one wrong side of one cross-check must fail the run.

Each case monkeypatches a single defect into one of the two models that a
check compares and asserts that the check catches it: ``verify`` exits 2,
the route guard of ``run_fetch`` raises ``DecodeError`` (exit 4 from
``simulate``), the decoded items miss the classical enumeration (exit 2
from ``simulate``), the query refuses a product that is not unitary
(exit 3 from ``simulate``), the expansion refuses an echo block that
mixes a qubit (exit 3 from ``verify``), the product refuses a network that
mixes a database qubit (exit 3 from ``verify`` and ``simulate``), or the
committed artifact digests that carry no floating-point last bits no
longer match.  The same run
passes on the same register without the defect, so the failure is the
defect's doing.  Registers: the builtin crotonic acid register and a
synthetic 8-spin one with a sign-flipped bit.  Readout keeps a model per register, so every defect is
planted before the register's first readout.
"""

import dataclasses
import math

import numpy as np
import pytest

import nmrfetch.cli as climod
import test_metamorphic
import test_scripts
import test_spectrometer
from nmrfetch import (
    AcquisitionParams,
    CompileError,
    DecodeError,
    DensityState,
    GateSequence,
    QueryPattern,
    SelectivePulse,
    Spectrum,
    SpinSystem,
    ZZEvolution,
    compiler,
    crotonic_default,
    load_spin_system,
    spectrometer,
)
from nmrfetch.cli import EXIT_CONFIG, EXIT_MISMATCH, EXIT_NUMERICAL, EXIT_OK, RunConfig, main, run_fetch

from conftest import ancilla_shifted, superincreasing_config


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


def append_a_flip_on_qubit_1(real):
    # a pi pulse about x on the first database qubit moves every item to
    # its partner without mixing any qubit
    def build(system, pattern):
        net = real(system, pattern)
        return GateSequence(net.n_qubits, net.gates + (SelectivePulse(1, "x", math.pi),), net.mode)

    return build


def flip_one_unmatched_item(real):
    def query(state, pattern):
        pops = real(state, pattern).populations.copy()
        half = pops.size // 2
        item = next(i for i in range(half) if not pattern.matches(i))
        pops[[item, item + half]] = pops[[item + half, item]]
        return DensityState(pops)

    return query


MISMATCH = (EXIT_MISMATCH, "out", "-> FAIL")
MIXES_QUBIT_1 = (EXIT_CONFIG, "err", "mixes qubit 1; a query mixes only the ancilla")

# defect, the cli name it replaces, the verify backend whose check must
# catch it, and how it is caught: exit code, stream and a line of it
DEFECTS = {
    "dropped-subset-period": (drop_one_subset_period, "build_query_network", "ideal", MISMATCH),
    "dropped-refocusing-pulse": (drop_one_refocusing_pulse, "expand_to_hard_pulses", "hard", MISMATCH),
    "flip-on-qubit-1": (append_a_flip_on_qubit_1, "build_query_network", "ideal", MISMATCH),
    "flip-on-qubit-1-hard": (append_a_flip_on_qubit_1, "build_query_network", "hard", MISMATCH),
    "flip-on-qubit-1-fast": (append_a_flip_on_qubit_1, "build_query_network", "fast", MISMATCH),
    "flipped-unmatched-item": (flip_one_unmatched_item, "apply_query_diagonal", "fast", MISMATCH),
    # the product refuses the network before any check or state
    "toggle-on-qubit-1": (move_toggle_to_qubit_1, "build_query_network", "ideal", MIXES_QUBIT_1),
    "toggle-on-qubit-1-fast": (move_toggle_to_qubit_1, "build_query_network", "fast", MIXES_QUBIT_1),
}


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_verify_catches_planted_defect(monkeypatch, capsys, register, defect):
    plant, name, backend, (code, stream, line) = DEFECTS[defect]
    system, pattern = register
    assert verify(system, pattern, backend) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr(climod, name, plant(getattr(climod, name)))
    assert verify(system, pattern, backend) == code
    assert line in getattr(capsys.readouterr(), stream)


def test_verify_catches_a_dropped_refocusing_pulse_on_a_warm_register(monkeypatch, capsys, register):
    # the register's memo already holds every composed run of its clean
    # schedules; the defective schedule's runs must be composed from its
    # own gates
    spec, pattern = register
    system = climod._load_system(spec)
    for bits in (pattern, pattern.replace("x", "1"), pattern.replace("x", "0")):
        assert run_fetch(RunConfig(system, QueryPattern.from_string(bits), backend="hard_pulse")).verified
    monkeypatch.setattr(climod, "_load_system", lambda spec: system)
    assert verify(spec, pattern, "hard") == EXIT_OK
    plant = drop_one_refocusing_pulse(climod.expand_to_hard_pulses)
    monkeypatch.setattr(climod, "expand_to_hard_pulses", plant)
    assert verify(spec, pattern, "hard") == EXIT_MISMATCH
    assert "-> FAIL" in capsys.readouterr().out


def drop_one_refocusing_pulse_from_each_block(real):
    # inside the echo block itself, so the register keeps the defective
    # block and every later expansion reads it back
    def echo_block(gate, system):
        gates = real(gate, system)
        index = next(i for i, g in enumerate(gates) if isinstance(g, SelectivePulse))
        return gates[:index] + gates[index + 1 :]

    return echo_block


def test_verify_catches_a_dropped_refocusing_pulse_in_a_cached_echo_block(monkeypatch, capsys, register):
    spec, pattern = register
    system = climod._load_system(spec)  # no block of it expanded yet
    monkeypatch.setattr(climod, "_load_system", lambda spec: system)
    monkeypatch.setattr(compiler, "_echo_block", drop_one_refocusing_pulse_from_each_block(compiler._echo_block))
    for _ in range(2):  # the first run caches the defective blocks, the second reads them back
        assert verify(spec, pattern, "hard") == EXIT_MISMATCH
        assert "hard-pulse expansion vs ideal gates: products differ in support" in capsys.readouterr().out
    assert compiler._REGISTER_WORK[system].blocks
    monkeypatch.undo()
    assert verify(spec, pattern, "hard") == EXIT_OK  # a fresh register, clean blocks


def add_a_mixing_pulse_to_each_block(real):
    # a half turn about x on the second partner before the block, and back after
    def echo_block(gate, system):
        half = SelectivePulse(gate.q2, "x", math.pi / 2)
        return [half, *real(gate, system), dataclasses.replace(half, axis="-x")]

    return echo_block


def test_an_echo_block_that_mixes_a_qubit_is_refused(monkeypatch, capsys, register):
    # such a block is not one monomial factor: the expansion refuses it and
    # keeps nothing, so a second run refuses it afresh
    spec, pattern = register
    system = climod._load_system(spec)
    monkeypatch.setattr(climod, "_load_system", lambda spec: system)
    monkeypatch.setattr(compiler, "_echo_block", add_a_mixing_pulse_to_each_block(compiler._echo_block))
    network = climod.build_query_network(system, QueryPattern.from_string(pattern))
    with pytest.raises(CompileError, match="mixes qubit"):
        compiler.expand_to_hard_pulses(network, system)
    for _ in range(2):
        assert verify(spec, pattern, "hard") == EXIT_CONFIG
        assert "mixes qubit" in capsys.readouterr().err
        assert not compiler._REGISTER_WORK[system].blocks
    monkeypatch.undo()
    assert verify(spec, pattern, "hard") == EXIT_OK  # a fresh register, clean blocks


def test_a_network_that_mixes_a_database_qubit_is_refused(monkeypatch, capsys, register):
    # the basis-toggling pulses moved to qubit 1 would mix two items: the
    # product refuses the network before any state, in ``simulate`` as in
    # ``verify`` (the toggle-on-qubit-1 defects above)
    spec, pattern = register
    monkeypatch.setattr(climod, "build_query_network", move_toggle_to_qubit_1(climod.build_query_network))
    monkeypatch.setattr(climod, "_initial_state", None)  # refused before any state
    assert main(["simulate", "--system", spec, "--pattern", pattern, "--backend", "ideal"]) == EXIT_CONFIG
    assert "mixes qubit 1; a query mixes only the ancilla" in capsys.readouterr().err
    monkeypatch.undo()
    assert verify(spec, pattern, "ideal") == EXIT_OK


# ---------------------------------------------------------------------------
# readout: defects that reach only the queried state of a warm register
# ---------------------------------------------------------------------------


def mirror_fid(real):
    # the FID conjugated, so that its spectrum is mirrored about 0 Hz
    def fid_row(difference, system, params):
        return real(difference, system, params).conj()

    return fid_row


def scale_closed_form_row(real):
    def closed_form_row(difference, system, params):
        return 1.01 * real(difference, system, params)

    return closed_form_row


def drop_half_first_point(real):
    # the FFT step of readout without halving the first sample
    def absorptive(fid, dwell_s, *work):
        doubled = fid.copy()
        doubled[0] *= 2.0
        return real(doubled, dwell_s, *work)

    return absorptive


# defect, the spectrometer name it replaces
READOUT_DEFECTS = {
    "mirrored-fid": (mirror_fid, "_fid_row"),
    "scaled-difference-row": (scale_closed_form_row, "_closed_form_row"),
    "no-half-first-point": (drop_half_first_point, "_absorptive"),
}


@pytest.fixture(params=["builtin", "synthetic"])
def warm_run(request):
    """A register with its multiplet off 0 Hz (so a mirrored spectrum moves it) and a pattern."""
    if request.param == "builtin":
        system, pattern = crotonic_default(), "100101"
    else:
        system, pattern = load_spin_system(superincreasing_config(7, negative=(3,))), "1010x10"
    system = ancilla_shifted(system, -1.25)
    params = AcquisitionParams.for_system(system)
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
    # every frequency read as the line frequency above its own, the highest
    # as the lowest, so no two peaks share a line
    def decode(freq, system):
        table = spectrometer._lines(system)
        real(freq, system)  # the real checks still run
        near = np.abs(np.subtract.outer(freq, table.block_freq)).argmin(axis=1)
        above = (near + 1) % len(table.block_freq)
        return table.by_freq[table.block_start[above]]

    return decode


def count_edge_samples(real):
    # the first and last samples taken as extrema when they pass their one
    # neighbour, against the find_peaks rule
    def extrema(x, *height):
        maxima, minima = real(x, *height)
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
def test_wildcard_union_catches_flipped_bit_sign_on_a_wildcard(monkeypatch, backend):
    # 100xxx alone passes under the defect; the relation also queries the
    # register with qubit 4 constrained, and those runs cannot answer
    text = test_metamorphic.config_text(crotonic_default())
    assert test_metamorphic.wildcard_union(text, "100xxx", 3, backend, "eps")
    monkeypatch.setattr(SpinSystem, "bit_signs", flip_bit_sign_of_qubit_4(SpinSystem.bit_signs))
    assert simulate("100xxx", backend) == EXIT_OK
    with pytest.raises(AssertionError):
        test_metamorphic.wildcard_union(text, "100xxx", 3, backend, "eps")


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


def unrebased_high_half(real):
    # the high half's sum not re-based: omega(0, 0) counted twice
    def halves(omega):
        high, low = real(omega)
        return high + omega[0], low

    return halves


def dropped_half(real):
    # the low half's sum dropped: one term at 0 rad/s in its place
    def halves(omega):
        high, _ = real(omega)
        return high, np.zeros(1)

    return halves


@pytest.mark.parametrize("init", ["thermal", "eps"])
@pytest.mark.parametrize("backend", ["fast", "ideal", "hard"])
@pytest.mark.parametrize("plant", [unrebased_high_half, dropped_half])
def test_route_guard_catches_a_wrong_two_half_fid(monkeypatch, capsys, plant, backend, init):
    # every prepared state is the same on every item, so its FID is the
    # product of the two half-register sums, and only that FID reads them.
    # The wrong FID's lines sit off the line table, so decoding refuses
    # them before the route guard is asked; the guard would refuse them too
    argv = ["simulate", "--pattern", "100101", "--backend", backend, "--init", init]
    assert main(argv) == EXIT_OK
    monkeypatch.setattr(spectrometer, "_halves", plant(spectrometer._halves))
    assert main(argv) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical failure: ")
    system = crotonic_default()
    params = AcquisitionParams.for_system(system)
    state = climod._initial_state(system, "thermal" if init == "thermal" else "effective_pure")
    difference = state.ancilla_difference()
    fid = spectrometer._fid_row(difference, system, params)
    closed = spectrometer._closed_form_row(difference, system, params)
    assert spectrometer._route_gap(spectrometer._absorptive(fid, params.dwell_s), closed) > 1e3 * spectrometer._ROUTE_GUARD


def keep_one_sidelobe(real):
    # the ripple one bin beside the tallest peak kept as a peak of its own,
    # a tenth as tall and of the other sign, as a truncation sidelobe sits:
    # it decodes onto its peak's line and would make that item inconsistent
    def pick(spectrum, threshold_frac):
        freq, amp = real(spectrum, threshold_frac)
        k = int(np.argmax(np.abs(amp)))
        freq = np.r_[freq, freq[k] + (spectrum.freqs_hz[1] - spectrum.freqs_hz[0])]
        amp = np.r_[amp, -0.1 * amp[k]]
        order = np.argsort(freq, kind="stable")
        return freq[order], amp[order]

    return pick


@pytest.mark.parametrize("backend", ["fast", "ideal", "hard"])
def test_one_peak_per_line_catches_a_kept_sidelobe(monkeypatch, capsys, backend):
    assert simulate("100101", backend) == EXIT_OK
    monkeypatch.setattr(spectrometer, "_pick", keep_one_sidelobe(spectrometer._pick))
    assert simulate("100101", backend) == EXIT_NUMERICAL
    assert "both decode to the line at" in capsys.readouterr().err


def test_committed_digests_catch_a_moved_verdict(monkeypatch):
    # the platform-independent digest lines alone see a decode shifted by one line
    digests = test_scripts.load_script("artifact_digests")
    expected = set(digests.EXPECTED.read_text().splitlines())
    monkeypatch.setattr(spectrometer, "_decode", shift_decode_one_block(spectrometer._decode))
    moved = [line for line in test_scripts.stable_digest_lines(digests) if line not in expected]
    names = {line.split()[0] for line in moved}
    assert "builtin/simulate-fast-eps-100101/exit" in names
    assert "builtin/simulate-fast-eps-100101/stdout" in names


def test_scipy_reference_catches_edge_extrema(monkeypatch):
    monkeypatch.setattr(spectrometer, "_extrema", count_edge_samples(spectrometer._extrema))
    # a run misses it: the picker never keeps an edge sample
    assert simulate("100101", "fast") == EXIT_OK
    # the picker's property test against scipy.signal.find_peaks does not:
    # an edge extremum is one the reference never reports
    with pytest.raises(Exception) as caught:
        test_spectrometer.test_pick_peaks_matches_scipy_reference()
    errors = getattr(caught.value, "exceptions", (caught.value,))
    assert {type(e) for e in errors} == {AssertionError}


def add_both_edges(real):
    def extrema(x, *height):
        maxima, minima = real(x, *height)
        ends = [0, len(x) - 1]
        return np.sort(np.r_[maxima, ends]).astype(int), np.sort(np.r_[minima, ends]).astype(int)

    return extrema


@pytest.mark.parametrize("amp", [[5.0, 1.0, 0.0, 3.0, 0.0, 1.0, 5.0], [-4.0, 0.0, 2.0, -1.0, 3.0]])
def test_picker_drops_edge_extrema(monkeypatch, amp):
    # edges far above the threshold, as a maximum and as a minimum
    spectrum = Spectrum(0.5 * np.arange(len(amp)), np.array(amp))
    clean = spectrometer._pick(spectrum, 0.05)
    monkeypatch.setattr(spectrometer, "_extrema", add_both_edges(spectrometer._extrema))
    picked = spectrometer._pick(spectrum, 0.05)
    assert all(map(np.array_equal, picked, clean))


# ---------------------------------------------------------------------------
# query: the product whose rounding decides which populations are put back
# ---------------------------------------------------------------------------


def scale_one_row(real):
    # row 0 (ancilla 0, the unmatched item 0) off unit norm by ~2e-6:
    # a rounding bound read from this product would hide a change that size
    def product(seq, system=None):
        blocks, src = real(seq, system)
        blocks = blocks.copy()
        blocks[0, 0] *= 1.0 + 1e-6
        return blocks, src

    return product


@pytest.mark.parametrize("backend", ["ideal", "hard"])
def test_query_refuses_a_product_off_unit_norm(monkeypatch, capsys, backend):
    assert simulate("100101", backend) == EXIT_OK
    monkeypatch.setattr(climod, "_compressed_product", scale_one_row(climod._compressed_product))
    assert simulate("100101", backend) == EXIT_CONFIG
    assert "product rows deviate from unit norm by 2e-06; not unitary" in capsys.readouterr().err
