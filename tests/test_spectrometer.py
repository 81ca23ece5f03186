"""Readout chain: line tables, time-domain acquisition, decoding."""

import dataclasses
import gc
import itertools
import math
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.signal import find_peaks

from nmrfetch import (
    AcquisitionParams,
    DecodeError,
    DensityState,
    QueryPattern,
    Spectrum,
    SpectrometerError,
    Spin,
    SpinSystem,
    apply_query_diagonal,
    build_query_network,
    crotonic_default,
    effective_pure_ancilla,
    expand_to_hard_pulses,
    line_table,
    load_spin_system_file,
    readout,
    thermal_state,
)
from nmrfetch import cli as climod
from nmrfetch import spectrometer
from nmrfetch.cli import RunConfig, run_fetch
from nmrfetch.operators import zz_hamiltonian_diagonal
from nmrfetch.spectrometer import (
    _PICK_THRESHOLD,
    MarkedClassification,
    Peak,
    _absorptive,
    _classify,
    _closed_form_row,
    _decode,
    _extrema,
    _fid_row,
    _pick,
    spectrum_csv,
)

from conftest import ancilla_shifted, make_system
from dense_reference import apply_unitary, rotation, sequence_unitary


# ---------------------------------------------------------------------------
# reference implementations: the dense-pulse FID, the per-line sum, the
# brute-force nearest-line decoder and the scipy peak loop that the array
# code replaced
# ---------------------------------------------------------------------------


def reference_pick_peaks(spectrum, threshold_frac):
    """scipy.signal.find_peaks on the spectrum and its negation, refined peak by peak.

    The refinement is the parabola through the reciprocals of the three
    samples, exact for a Lorentzian, or through the samples themselves where
    a neighbour is not positive or the reciprocals' vertex is not.
    (frequency, amplitude) pairs, by frequency.
    """

    def vertex(y0, y1, y2):
        denom = y0 - 2.0 * y1 + y2
        shift = 0.5 * (y0 - y2) / denom if denom != 0.0 else 0.0
        return shift, y1 - 0.25 * (y0 - y2) * shift

    amp = spectrum.amplitude
    top = float(np.max(np.abs(amp))) if amp.size else 0.0
    if top == 0.0:
        return []
    height = threshold_frac * top
    peaks = []
    for signed in (amp, -amp):
        idxs, _ = find_peaks(signed, height=height)
        for i in idxs:
            y0, y1, y2 = signed[i - 1], signed[i], signed[i + 1]
            shift, value = vertex(y0, y1, y2)
            if y0 > 0.0 and y2 > 0.0:
                with np.errstate(over="ignore", invalid="ignore"):  # subnormal samples
                    inverse_shift, inverse = vertex(1.0 / y0, 1.0 / y1, 1.0 / y2)
                if inverse > 0.0:
                    shift, value = inverse_shift, 1.0 / inverse
            freq = spectrum.freqs_hz[i] + shift * (
                spectrum.freqs_hz[1] - spectrum.freqs_hz[0]
            )
            sign = 1.0 if signed is amp else -1.0
            peaks.append((float(freq), float(sign * value)))
    return sorted(peaks, key=lambda p: p[0])


def reference_fid(state, system, params):
    """Dense-pulse FID of the register unfolded spin by spin, summed coherence by coherence.

    A qubit of multiplicity mu becomes mu copies with its offset and
    couplings and no coupling among them.  A configuration reads 1 on the
    qubit when its copies' total z is negative, and each logical label's
    population is spread evenly over the configurations that read it.
    """
    owner = [q for q, spin in enumerate(system.spins) for _ in range(spin.multiplicity)]
    n_phys = len(owner)
    offsets = np.array([system.spins[q].offset_hz for q in owner])
    couplings = np.array(
        [[0.0 if a == b else system.logical_j_hz[a, b] for b in owner] for a in owner]
    )
    labels = []
    for config in range(2**n_phys):
        label = 0
        for q, spin in enumerate(system.spins):
            down = sum((config >> (n_phys - 1 - p)) & 1 for p, o in enumerate(owner) if o == q)
            label = 2 * label + int(spin.multiplicity / 2.0 - down < 0)
        labels.append(label)
    labels = np.array(labels)
    phys_pops = state.populations[labels] / np.bincount(labels)[labels]
    pulse = rotation(0, "x", math.pi / 2.0, n_phys)
    rho = pulse @ np.diag(phys_pops.astype(complex)) @ pulse.conj().T
    energies = zz_hamiltonian_diagonal(offsets, couplings)
    half = 2 ** (n_phys - 1)
    coherence = rho[half:, :half].diagonal()
    delta = energies[half:] - energies[:half]
    times = params.times()
    fid = np.zeros(params.n_points, dtype=complex)
    for c, d in zip(coherence, delta):
        if c != 0.0:
            fid += c * np.exp(-1.0j * d * times)
    fid *= np.exp(-times / params.t2_s)
    return 1.0j * fid


def reference_analytic(state, system, params):
    """Closed-form spectrum summed one line at a time."""
    return reference_row(state.ancilla_difference(), system, params)


def reference_row(diff, system, params):
    """Closed-form row of per-item ancilla differences, summed one line at a time.

    Each line is the finite sum (1 - z^N)/(1 - z) - 1/2 of its N samples
    with the first halved, in complex arithmetic at every bin: no split of
    z^N into per-line and per-bin factors.
    """
    grid = params.frequency_grid()
    dt = params.dwell_s
    decay = math.exp(-dt / params.t2_s)
    amp = np.zeros_like(grid)
    for line in line_table(system):
        line_amp = 0.5 * diff[line.item] * line.fraction
        if line_amp == 0.0:
            continue
        z = decay * np.exp(2.0j * math.pi * (line.freq_hz - grid) * dt)
        amp += line_amp * dt * ((1.0 - z**params.n_points) / (1.0 - z) - 0.5).real
    return amp


def brute_decode(freq_hz, lines):
    """Rank every line by distance (ties to the lower frequency, then table order).

    The tolerance is half the smallest gap between distinct line
    frequencies, and the lines at the best frequency must all belong to one
    item; same errors as ``_decode``.
    """
    distinct = sorted({ln.freq_hz for ln in lines})
    tolerance = min((b - a for a, b in zip(distinct, distinct[1:])), default=math.inf) / 2.0
    best_d, _, _, best = min(
        (abs(freq_hz - ln.freq_hz), ln.freq_hz, k, ln) for k, ln in enumerate(lines)
    )
    if best_d >= tolerance:
        raise DecodeError(f"no expected line within {tolerance:.4g} Hz of {freq_hz:.4f} Hz")
    items = sorted({ln.item for ln in lines if ln.freq_hz == best.freq_hz})
    if len(items) > 1:
        raise DecodeError(
            f"ambiguous peak at {freq_hz:.4f} Hz: items {items[0]} and {items[-1]} share its line"
        )
    return best.item, best.manifold


def decode_all(freqs_hz, system):
    """``_decode`` on a list of frequencies, as (item, manifold) per frequency."""
    table = spectrometer._lines(system)
    lines = _decode(np.array(freqs_hz, dtype=float), system).tolist()
    return [(int(table.item[k]), table.manifold[k]) for k in lines]


def decode_one(freq_hz, system):
    """``_decode`` of one frequency, as (item, manifold)."""
    (decoded,) = decode_all([freq_hz], system)
    return decoded


def fid_of(state, system, params):
    """The FID route's row of one state: ``_fid_row`` on its ancilla differences."""
    return _fid_row(state.ancilla_difference(), system, params)


def closed_of(state, system, params):
    """The closed-form route's row of one state: ``_closed_form_row`` on its ancilla differences."""
    return _closed_form_row(state.ancilla_difference(), system, params)


def on_grid(amplitude, params):
    """A row as a spectrum on the acquisition's frequency axis."""
    return Spectrum(params.frequency_grid(), amplitude)


def fft_of(fid, params):
    """The FFT route's spectrum of an FID: ``_absorptive`` on the acquisition's axis."""
    return on_grid(_absorptive(fid, params.dwell_s), params)


def outcome(fn, *args):
    try:
        return fn(*args)
    except DecodeError as exc:
        return ("DecodeError", str(exc))


def relative_gap(got, want):
    return float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))


def superincreasing_system(rng, n):
    scale = rng.uniform(1.25, 1.75)
    row = [rng.choice((-1, 1)) * scale * 2 ** (n - i) for i in range(1, n + 1)]
    offsets = [rng.uniform(-10.0, 10.0)] + [0.0] * n
    return make_system(row, offsets=offsets)


@st.composite
def small_composite_systems(draw):
    """1-3 database qubits, one of them a three-spin group, couplings of either sign."""
    n = draw(st.integers(1, 3))
    coupling = st.floats(2.0, 30.0).map(lambda v: round(v, 2))
    row = [draw(coupling) * draw(st.sampled_from((-1, 1))) for _ in range(n)]
    mults = [1] * n
    mults[draw(st.integers(0, n - 1))] = 3
    offsets = [round(draw(st.floats(-10.0, 10.0)), 2) for _ in range(n + 1)]
    return make_system(row, multiplicities=mults, offsets=offsets)


def random_population_state(system, seed):
    rng = np.random.default_rng(seed)
    pops = rng.random(2**system.n_spins)
    return DensityState(pops / pops.sum())


# ---------------------------------------------------------------------------
# acquisition parameters
# ---------------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(SpectrometerError):
        AcquisitionParams(n_points=1000)  # not a power of two
    with pytest.raises(SpectrometerError):
        AcquisitionParams(n_points=128)  # too short
    with pytest.raises(SpectrometerError):
        AcquisitionParams(dwell_s=0.0)
    with pytest.raises(SpectrometerError):
        AcquisitionParams(t2_s=-1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["dwell_s", "t2_s"])
def test_params_refuse_non_finite_fields(name, value):
    with pytest.raises(SpectrometerError, match="must be finite"):
        AcquisitionParams(**{name: value})
    if name != "dwell_s":  # for_system derives the dwell itself
        with pytest.raises(SpectrometerError, match="must be finite"):
            AcquisitionParams.for_system(crotonic_default(), **{name: value})


def test_for_system_refuses_bad_fields_before_using_them():
    # t2 = 0 used to divide by zero while sizing the spectral width
    with pytest.raises(SpectrometerError, match="positive"):
        AcquisitionParams.for_system(crotonic_default(), t2_s=0.0)
    with pytest.raises(SpectrometerError, match="power of two"):
        AcquisitionParams.for_system(crotonic_default(), n_points=1000)
    # a float or bool point count used to escape as a TypeError from the bit test
    for n_points in (4096.0, np.float64(4096.0), True):
        with pytest.raises(SpectrometerError, match="must be an integer"):
            AcquisitionParams(n_points=n_points)
        with pytest.raises(SpectrometerError, match="must be an integer"):
            AcquisitionParams.for_system(crotonic_default(), n_points=n_points)
    assert AcquisitionParams(n_points=np.int64(4096)).n_points == 4096
    # a non-real field used to escape as a TypeError from math.isfinite, and True read as 1 s
    for name, value in (("t2_s", "2"), ("t2_s", None), ("dwell_s", 1j), ("dwell_s", True)):
        with pytest.raises(SpectrometerError, match="finite real numbers"):
            AcquisitionParams(**{name: value})
        if name != "dwell_s":  # for_system derives the dwell itself
            with pytest.raises(SpectrometerError, match="finite real numbers"):
                AcquisitionParams.for_system(crotonic_default(), **{name: value})
    assert AcquisitionParams(t2_s=np.float64(2.0)).t2_s == 2.0


def test_params_derived_quantities():
    p = AcquisitionParams(n_points=1024, dwell_s=1.0 / 512.0, t2_s=2.0)
    assert p.spectral_width_hz == pytest.approx(512.0)
    assert p.linewidth_hz == pytest.approx(1.0 / (math.pi * 2.0))
    t = p.times()
    assert len(t) == 1024 and t[0] == 0.0 and t[1] == pytest.approx(1.0 / 512.0)
    grid = p.frequency_grid()
    assert len(grid) == 1024
    assert grid[0] == pytest.approx(-256.0)
    assert np.all(np.diff(grid) > 0)
    for n_points, dwell_s in ((1024, 1.0 / 512.0), (16384, 1.0 / 37.3), (65536, 0.0123)):
        axis = AcquisitionParams(n_points, dwell_s).frequency_grid()
        assert axis.tobytes() == np.fft.fftshift(np.fft.fftfreq(n_points, dwell_s)).tobytes()


def test_for_system_covers_all_lines():
    sys = crotonic_default()
    p = AcquisitionParams.for_system(sys)
    span = max(abs(l.freq_hz) for l in line_table(sys))
    assert p.spectral_width_hz >= 2 * (span + 3 * p.linewidth_hz)
    # frequency bins fine enough to split the closest line pair
    freqs = sorted(l.freq_hz for l in line_table(sys))
    min_gap = min(b - a for a, b in zip(freqs, freqs[1:]))
    assert p.spectral_width_hz / p.n_points <= min_gap / 4


def test_for_system_sizes_the_grid_from_the_closest_lines():
    # 0.2 Hz apart: four bins across the gap, and no more points than that needs
    p = AcquisitionParams.for_system(make_system([10.0, 10.2]), n_points=256)
    assert p.spectral_width_hz / p.n_points <= 0.2 / 4 < 2 * p.spectral_width_hz / p.n_points
    # 2e-12 Hz apart: refused before the point count could grow to 2**50 and beyond
    with pytest.raises(SpectrometerError, match="not resolved"):
        AcquisitionParams.for_system(make_system([10.0, 10.0 + 2e-12]))


def test_grid_above_the_cap_is_refused_not_shrunk():
    assert AcquisitionParams(n_points=2**22).n_points == 2**22
    with pytest.raises(SpectrometerError, match="exceed the 4194304-point acquisition cap"):
        AcquisitionParams(n_points=2**23)
    # 1e-9 Hz apart is resolved at T2 = 1e12 s, but would need 2**37 points
    with pytest.raises(SpectrometerError, match="137438953472 points exceed"):
        AcquisitionParams.for_system(make_system([10.0, 10.0 + 1e-9]), t2_s=1e12)


def test_for_system_raises_the_points_to_the_readout_floor():
    # the builtin register needs 512 Hz and, for four bins across its
    # closest lines, 4096 points; the 8 T2 floor asks for 16 s at T2 = 2 s,
    # so 8192 points, and a hair past T2 = 2 s twice that
    system = crotonic_default()
    assert AcquisitionParams.for_system(system).n_points == 8192
    assert AcquisitionParams.for_system(system, t2_s=2.0 * (1.0 + 1e-12)).n_points == 16384
    # on both sides of every doubling, the grid is the smallest power of two
    # that covers, resolves and lasts, and the run's own check passes it
    min_gap = spectrometer._lines(system).min_gap_hz
    for t2 in sorted({*np.geomspace(0.6, 40.0, 23), *(2.0**k * (1 + e) for k in range(5) for e in (-1e-9, 1e-9))}):
        p = AcquisitionParams.for_system(system, t2_s=t2)
        assert p.n_points * p.dwell_s >= 8.0 * t2 and p.spectral_width_hz / p.n_points <= min_gap / 4.0
        half = p.n_points // 2
        assert half < 256 or half * p.dwell_s < 8.0 * t2 or p.spectral_width_hz / half > min_gap / 4.0
        spectrometer._check_duration(p)
    # --points is a lower bound
    assert AcquisitionParams.for_system(system, n_points=32768).n_points == 32768
    # the ancilla at 1000 Hz with the receiver left at 0 Hz needs a 4 kHz
    # spectral width, so 65536 points last 8 T2
    ancilla = system.spins[0]
    moved = SpinSystem((dataclasses.replace(ancilla, offset_hz=1000.0),) + system.spins[1:], system.j_hz)
    assert AcquisitionParams.for_system(moved).n_points == 65536
    # an explicit grid short of the floor is refused, and the floor does not
    # move with the route guard
    spectrometer._check_duration(AcquisitionParams(8192, 1.0 / 512.0, 2.0))
    with mock.patch.object(spectrometer, "_ROUTE_GUARD", math.inf):
        with pytest.raises(SpectrometerError, match=r"4096 points lasts 8 s = 4 T2, under the 8 T2"):
            spectrometer._check_duration(AcquisitionParams(4096, 1.0 / 512.0, 2.0))


def test_narrow_window_rejected():
    sys = crotonic_default()
    params = AcquisitionParams(n_points=256, dwell_s=0.01)  # SW = 100 Hz
    state = effective_pure_ancilla(sys)
    with pytest.raises(SpectrometerError, match="spectral width 100 Hz too small"):
        closed_of(state, sys, params)
    with pytest.raises(SpectrometerError, match="spectral width 100 Hz too small"):
        fid_of(state, sys, params)


# ---------------------------------------------------------------------------
# line table
# ---------------------------------------------------------------------------


def test_crotonic_line_positions():
    sys = crotonic_default()
    lines = line_table(sys)
    assert len(lines) == 128
    freqs = sorted(l.freq_hz for l in lines)
    inner0 = [l for l in lines if l.item == 0 and l.manifold == "inner"]
    assert len(inner0) == 1
    assert inner0[0].freq_hz == pytest.approx(138.25)
    assert max(freqs) == pytest.approx(145.35)  # outer companion of item 0
    gaps = [b - a for a, b in zip(freqs, freqs[1:])]
    assert min(gaps) == pytest.approx(0.7, abs=1e-9)


def test_methyl_manifold_weights():
    sys = crotonic_default()
    for item in (0, 63):
        pair = [l for l in lines_for(sys, item)]
        weights = {l.manifold: l.fraction for l in pair}
        assert set(weights) == {"inner", "outer"}
        assert weights["inner"] / weights["outer"] == pytest.approx(3.0)


def lines_for(system, item):
    return [l for l in line_table(system) if l.item == item]


def test_line_symmetry_under_item_negation():
    sys = crotonic_default()
    lines = line_table(sys)
    by_key = {(l.item, l.manifold): l.freq_hz for l in lines}
    for item in range(64):
        for manifold in ("inner", "outer"):
            assert by_key[(item, manifold)] == pytest.approx(
                -by_key[(63 - item, manifold)]
            )


def test_simple_system_has_no_manifold_tag():
    lines = line_table(make_system([10.0]))
    assert {l.manifold for l in lines} == {"n/a"}
    assert sorted(l.freq_hz for l in lines) == [-5.0, 5.0]


def test_spectral_lines_scale_with_ancilla_difference():
    sys = make_system([10.0])

    def line_amplitudes(state):
        amps = spectrometer._line_amplitudes(state.ancilla_difference(), spectrometer._lines(sys))
        return {l.freq_hz: a for l, a in zip(line_table(sys), amps.tolist())}

    state = effective_pure_ancilla(sys)  # difference 1/2 per item
    for amp in line_amplitudes(state).values():
        assert amp == pytest.approx(0.25)
    flipped = apply_query_diagonal(state, QueryPattern.from_string("1"))
    lines2 = line_amplitudes(flipped)
    assert lines2[5.0] == pytest.approx(0.25)  # item 0 unaffected
    assert lines2[-5.0] == pytest.approx(-0.25)  # item 1 inverted


# ---------------------------------------------------------------------------
# time-domain acquisition
# ---------------------------------------------------------------------------


def test_maximally_mixed_state_gives_no_signal():
    sys = make_system([10.0])
    state = thermal_state(sys, polarization=0.0)
    fid = fid_of(state, sys, AcquisitionParams(n_points=512))
    assert np.max(np.abs(fid)) < 1e-15


def test_two_spin_doublet():
    sys = make_system([10.0])
    params = AcquisitionParams(n_points=4096, dwell_s=1.0 / 64.0, t2_s=4.0)
    state = effective_pure_ancilla(sys)
    spec = fft_of(fid_of(state, sys, params), params)
    freq, amps = _pick(spec, 0.2)
    assert np.round(freq, 2).tolist() == [-5.0, 5.0]
    assert amps[0] == pytest.approx(amps[1], rel=1e-6)


def test_ancilla_only_line_at_zero_hz():
    # a lone ancilla at offset 0 reads at the centre of the register's frame
    sys = SpinSystem((Spin("c", species="carbon"),), np.zeros((1, 1)))
    params = AcquisitionParams(n_points=512, dwell_s=1.0 / 64.0)
    state = DensityState(np.array([1.0, 0.0]))
    spec = fft_of(fid_of(state, sys, params), params)
    (freq,), _ = _pick(spec, 0.5)
    assert freq == pytest.approx(0.0, abs=1e-6)


def test_fft_damped_cosine_lorentzian_shape():
    # injected synthetic signal: absorptive line of area-normalized height
    # amplitude * t2 and width 1/(pi t2)
    t2, nu = 0.5, 17.0
    params = AcquisitionParams(n_points=16384, dwell_s=1.0 / 512.0, t2_s=t2)
    t = params.times()
    fid = np.exp((2j * math.pi * nu - 1.0 / t2) * t)
    spec = fft_of(fid, params)
    k = int(np.argmax(spec.amplitude))
    assert spec.freqs_hz[k] == pytest.approx(nu, abs=params.spectral_width_hz / params.n_points)
    assert spec.amplitude[k] == pytest.approx(t2, rel=2e-3)
    above = spec.freqs_hz[spec.amplitude > spec.amplitude[k] / 2]
    fwhm = above.max() - above.min()
    assert fwhm == pytest.approx(1.0 / (math.pi * t2), rel=0.15)


def test_fft_linear_in_amplitude():
    params = AcquisitionParams(n_points=2048, dwell_s=1.0 / 128.0, t2_s=1.0)
    t = params.times()
    one = np.exp((2j * math.pi * 11.0 - 1.0) * t)
    two = 0.01 * np.exp((2j * math.pi * -23.0 - 1.0) * t)
    spec = fft_of(one + two, params)
    i1 = int(np.argmin(np.abs(spec.freqs_hz - 11.0)))
    i2 = int(np.argmin(np.abs(spec.freqs_hz + 23.0)))
    assert spec.amplitude[i2] / spec.amplitude[i1] == pytest.approx(0.01, rel=0.01)


def test_zero_fid_zero_spectrum():
    params = AcquisitionParams(n_points=512)
    amplitude = _absorptive(np.zeros(512, dtype=complex), params.dwell_s)
    assert amplitude.shape == (512,) and np.all(amplitude == 0.0)


def test_fid_matches_analytic_route():
    # dual-route check on the real register, no query applied: the readout's
    # FFT spectrum against its closed-form row, on the acquisition's axis
    sys = crotonic_default()
    params = AcquisitionParams.for_system(sys)
    (read,) = readout((effective_pure_ancilla(sys),), sys, params)
    assert np.array_equal(read.spectrum.freqs_hz, params.frequency_grid())
    assert relative_gap(read.spectrum.amplitude, read.closed) < 1e-6


def test_methyl_composite_closed_form():
    # three equivalent copies of one proton behave as a 1:3:3:1 multiplet:
    # acquire on the expanded register and compare against the four-line sum
    sys = make_system([30.0], multiplicities=[3])
    params = AcquisitionParams(n_points=8192, dwell_s=1.0 / 256.0, t2_s=1.0)
    state = effective_pure_ancilla(sys)
    via_fft = _absorptive(fid_of(state, sys, params), params.dwell_s)
    direct = closed_of(state, sys, params)
    assert relative_gap(via_fft, direct) < 1e-6
    freq, amps = _pick(on_grid(direct, params), 0.1)
    assert np.round(freq, 1).tolist() == [-45.0, -15.0, 15.0, 45.0]
    inner = amps[1] + amps[2]
    outer = amps[0] + amps[3]
    assert inner / outer == pytest.approx(3.0, rel=0.02)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_points=st.sampled_from((1024, 4096)),
    shift=st.sampled_from((0.0, 3.5)),
)
def test_fid_matches_dense_pulse_reference_builtin(seed, n_points, shift):
    sys = ancilla_shifted(crotonic_default(), shift)
    params = AcquisitionParams(n_points=n_points, dwell_s=1.0 / 512.0, t2_s=0.5)
    state = random_population_state(sys, seed)
    assert relative_gap(fid_of(state, sys, params), reference_fid(state, sys, params)) <= 1e-12
    assert relative_gap(closed_of(state, sys, params), reference_analytic(state, sys, params)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    sys=small_composite_systems(),
    seed=st.integers(0, 2**32 - 1),
    t2=st.floats(0.5, 4.0),
    shift=st.floats(-20.0, 20.0),
)
def test_fid_matches_dense_pulse_reference_composite(sys, seed, t2, shift):
    sys = ancilla_shifted(sys, shift)
    params = AcquisitionParams(n_points=2048, dwell_s=1.0 / 256.0, t2_s=t2)
    state = random_population_state(sys, seed)
    assert relative_gap(fid_of(state, sys, params), reference_fid(state, sys, params)) <= 1e-12
    assert relative_gap(closed_of(state, sys, params), reference_analytic(state, sys, params)) <= 1e-12


def panel_switch(n_points):
    """The fewest nonzero lines whose closed-form row is evaluated by panels."""
    return next(L for L in itertools.count(1) if spectrometer._panel_width(L, n_points) < n_points)


@settings(max_examples=60, deadline=None)
@given(
    register=st.sampled_from(("plain", "composite")),
    seed=st.integers(0, 2**32 - 1),
    n_points=st.sampled_from((1024, 4096, 16384, 65536)),
    shift=st.floats(-20.0, 20.0),
    edge=st.booleans(),
    rows=st.sampled_from(("zero", "one", "few", "below", "above", "all")),
)
@example(register="plain", seed=1, n_points=65536, shift=0.0, edge=True, rows="all")
@example(register="composite", seed=2, n_points=1024, shift=0.0, edge=True, rows="above")
@example(register="plain", seed=3, n_points=16384, shift=-3.0, edge=False, rows="below")
def test_closed_form_row_matches_the_per_line_sum(register, seed, n_points, shift, edge, rows):
    # the closed-form row, dense or by panels, against the line-by-line sum.
    # T2 is 512 dwells on every grid, so neither sum's rounding nears the
    # tolerance (both grow as T2 / dwell).  An edge grid is as narrow as
    # the coverage check allows and centred on the lines, so the outermost
    # line on each side lies three linewidths, well under a panel, from its
    # band edge and wraps onto the panel at the other edge
    rng = np.random.default_rng(seed)
    if register == "plain":
        system = superincreasing_system(rng, 6)
    else:
        row = [rng.choice((-1, 1)) * 1.5 * 2 ** (5 - i) for i in range(1, 6)]
        system = make_system(row, multiplicities=[1, 1, 3, 1, 1], offsets=[1.0] + [0.0] * 5)
    freq = spectrometer._lines(system).freq_hz
    if edge:
        shift = -(freq.min() + freq.max()) / 2.0
    system = ancilla_shifted(system, shift)
    span = float(np.max(np.abs(freq + shift)))
    # with T2 = 512 dwell the coverage check asks for 2 span / (1 - 6 / (512 pi))
    need = 2.0 * span / (1.0 - 6.0 / (512.0 * math.pi))
    width = need * (1.0 + 1e-9) if edge else 2.0 ** math.ceil(math.log2(need + 10.0))
    params = AcquisitionParams(n_points, 1.0 / width, 512.0 / width)

    items, per_item = 2**system.n_database, len(freq) // 2**system.n_database
    switch = panel_switch(n_points)
    count = {
        "zero": 0,
        "one": 1,
        "few": int(rng.integers(2, 5)),
        "below": (switch - 1) // per_item,
        "above": -(-switch // per_item),
        "all": items,
    }[rows]
    diff = np.zeros(items)
    diff[rng.permutation(items)[:count]] = rng.uniform(-1.0, 1.0, count)
    lines = count * per_item
    if rows in ("below", "above"):  # the two sides of the switch are both reached
        assert (spectrometer._panel_width(lines, n_points) < n_points) == (rows == "above")
    got = spectrometer._closed_form_row(diff, system, params)
    if not count:
        assert not got.any()
        return
    assert relative_gap(got, reference_row(diff, system, params)) <= 1e-12


def test_off_centre_multiplet_routes_agree_and_decode():
    sys = ancilla_shifted(crotonic_default(), -5.0)
    params = AcquisitionParams.for_system(sys)
    (read,) = readout((effective_pure_ancilla(sys),), sys, params)
    assert relative_gap(read.spectrum.amplitude, read.closed) < 1e-6
    assert sorted((p.item, p.manifold) for p in read.peaks) == sorted(
        (l.item, l.manifold) for l in line_table(sys)
    )


def masked_population_state(system, rng, zero_difference):
    """Random population state whose ancilla difference is exactly 0 on the masked items."""
    half = 2**system.n_database
    p0, p1 = rng.random(half), rng.random(half)
    p1[zero_difference] = p0[zero_difference]
    pops = np.concatenate([p0, p1])
    return DensityState(pops / pops.sum())


def readout_pair(system, seed, second):
    """A population state and a partner that shares only part of its nonzero terms.

    The first state has zero ancilla difference on a random half of the
    items, never on all of them.  ``second`` picks the partner: zero
    difference on the other half (each state keeps terms and lines the
    other drops), zero difference on every item, or the first state after
    a hard-pulse query through the dense route.
    """
    rng = np.random.default_rng(seed)
    mask = rng.random(2**system.n_database) < 0.5
    mask[rng.integers(mask.size)] = False
    first = masked_population_state(system, rng, mask)
    if second == "complement":
        return first, masked_population_state(system, rng, ~mask)
    if second == "zero":
        return first, masked_population_state(system, rng, np.ones_like(mask))
    pattern = QueryPattern.from_string("".join(rng.choice(list("01x"), system.n_database)))
    network = expand_to_hard_pulses(build_query_network(system, pattern), system)
    return first, apply_unitary(first, sequence_unitary(network, system))


def assert_readout_matches_references(state, system, params):
    """One state's FID and closed-form row against the dense-pulse FID and the per-line sum.

    Relative to the reference's maximum.  A state with zero ancilla
    difference on every item must read out as exactly zero.
    """
    fid = fid_of(state, system, params)
    closed = closed_of(state, system, params)
    assert fid.shape == closed.shape == (params.n_points,)
    if not state.ancilla_difference().any():
        assert not fid.any() and not closed.any()
        return
    assert relative_gap(fid, reference_fid(state, system, params)) <= 1e-12
    assert relative_gap(closed, reference_analytic(state, system, params)) <= 1e-12


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    second=st.sampled_from(("complement", "zero")),
    shift=st.sampled_from((0.0, 3.5)),
)
def test_readout_with_zero_differences_matches_references_builtin(seed, second, shift):
    sys = ancilla_shifted(crotonic_default(), shift)
    params = AcquisitionParams(n_points=1024, dwell_s=1.0 / 512.0, t2_s=0.5)
    for state in readout_pair(sys, seed, second):
        assert_readout_matches_references(state, sys, params)


@settings(max_examples=30, deadline=None)
@given(
    sys=small_composite_systems(),
    seed=st.integers(0, 2**32 - 1),
    second=st.sampled_from(("complement", "zero", "dense")),
    shift=st.floats(-20.0, 20.0),
)
def test_readout_with_zero_differences_matches_references_composite(sys, seed, second, shift):
    sys = ancilla_shifted(sys, shift)
    params = AcquisitionParams(n_points=2048, dwell_s=1.0 / 256.0, t2_s=1.0)
    for state in readout_pair(sys, seed, second):
        assert_readout_matches_references(state, sys, params)


def test_readout_shows_only_items_with_a_difference():
    # item 0 differs only in the first state, item 1 only in the second:
    # each readout shows only its own line
    sys = make_system([10.0])
    params = AcquisitionParams(n_points=4096, dwell_s=1.0 / 64.0, t2_s=4.0)
    states = (
        DensityState(np.array([0.5, 0.25, 0.0, 0.25])),
        DensityState(np.array([0.25, 0.5, 0.25, 0.0])),
    )
    for state, item_freq in zip(states, (5.0, -5.0)):
        via_fft = _absorptive(fid_of(state, sys, params), params.dwell_s)
        for row in (via_fft, closed_of(state, sys, params)):
            freq, _ = _pick(on_grid(row, params), 0.05)
            assert np.round(freq, 2).tolist() == [item_freq]
        assert_readout_matches_references(state, sys, params)


def queried_state(state, system, pattern, backend):
    """The query applied to a state by one backend, as ``run_fetch`` applies it."""
    if backend == "fast_diagonal":
        return apply_query_diagonal(state, pattern)
    network = build_query_network(system, pattern)
    if backend == "hard_pulse":
        network = expand_to_hard_pulses(network, system)
    return apply_unitary(state, sequence_unitary(network, system))


@st.composite
def reference_readout_cases(draw):
    """A register, its grid and a query: the builtin register or a small composite one."""
    if draw(st.booleans()):
        system = ancilla_shifted(crotonic_default(), draw(st.sampled_from((0.0, 3.5))))
        params = AcquisitionParams(n_points=1024, dwell_s=1.0 / 512.0, t2_s=0.5)
    else:
        system = ancilla_shifted(draw(small_composite_systems()), draw(st.floats(-20.0, 20.0)))
        params = AcquisitionParams(n_points=2048, dwell_s=1.0 / 256.0, t2_s=1.0)
    bits = draw(st.text("01x", min_size=system.n_database, max_size=system.n_database))
    return system, params, QueryPattern.from_string(bits)


@settings(max_examples=40, deadline=None)
@given(
    case=reference_readout_cases(),
    backend=st.sampled_from(("fast_diagonal", "ideal", "hard_pulse")),
    init=st.sampled_from(("thermal", "effective_pure")),
)
def test_reference_plus_difference_matches_direct_readout(case, backend, init):
    # the run's readout (cached reference plus the difference) against the
    # direct two-state routes, per state, relative to that state's maximum;
    # no peaks are picked, since these grids need not resolve every line.
    # The builtin grid covers only 4 T2 and the composite one 8 T2; both
    # routes model the same finite acquisition, so the route guard holds
    system, params, pattern = case
    state = climod._initial_state(system, init)
    states = (state, queried_state(state, system, pattern, backend))
    no_peaks = lambda spectrum, frac: (np.empty(0), np.empty(0))
    with mock.patch.object(spectrometer, "_pick", no_peaks):
        readouts = list(readout(states, system, params))
    fids = [fid_of(s, system, params) for s in states]
    rows = [closed_of(s, system, params) for s in states]
    for read, want_fid, want in zip(readouts, fids, rows):
        fid, closed = read.fid, read.closed
        assert np.max(np.abs(fid - want_fid)) <= 1e-12 * np.max(np.abs(want_fid))
        assert np.max(np.abs(closed - want)) <= 1e-12 * np.max(np.abs(want))
        # the spectrum and the gap are those of the FFT step on these rows
        amplitude = _absorptive(fid, params.dwell_s)
        assert np.array_equal(read.spectrum.amplitude, amplitude)
        assert np.array_equal(read.spectrum.freqs_hz, params.frequency_grid())
        top = np.max(np.abs(closed))
        assert read.gap == float(np.max(np.abs(amplitude - closed))) / top
    # the reference is read out alone, so its rows are the one-state rows exactly
    assert np.array_equal(readouts[0].fid, fid_of(state, system, params))
    assert np.array_equal(readouts[0].closed, closed_of(state, system, params))


def per_configuration_fid(difference, system, params):
    """The FID row summed configuration by configuration in complex arithmetic, a few at a time."""
    item, omega, share = spectrometer._transitions(system)
    amp = 0.5 * difference[item] * share
    t = params.times()
    fid = np.zeros(params.n_points, dtype=complex)
    for lo in range(0, len(omega), 64):
        fid += amp[lo : lo + 64] @ np.exp(1.0j * np.outer(omega[lo : lo + 64], t))
    return fid * np.exp(-t / params.t2_s)


def uniform_fid_cases():
    """(name, register, acquisition): builtin, the composite example and synthetic n = 2-11."""
    builtin = crotonic_default()
    composite = load_spin_system_file(Path(__file__).resolve().parents[1] / "scripts" / "composite_negative.cfg")
    yield "builtin", builtin, AcquisitionParams.for_system(builtin)
    yield "composite", composite, AcquisitionParams.for_system(composite)
    rng = np.random.default_rng(11)
    for n in range(2, 12):
        system = superincreasing_system(rng, n)
        # a short grid of the register's own width keeps the reference sum small
        yield f"synthetic{n}", system, AcquisitionParams(1024, AcquisitionParams.for_system(system).dwell_s)


@pytest.mark.parametrize("name, system, params", list(uniform_fid_cases()), ids=lambda x: x if isinstance(x, str) else "")
def test_two_half_fid_equals_the_per_configuration_sum(monkeypatch, name, system, params):
    halves = []
    real = spectrometer._halves

    def spy(omega):
        halves.append(len(omega))
        return real(omega)

    monkeypatch.setattr(spectrometer, "_halves", spy)
    n = system.n_database
    for state in (thermal_state(system), effective_pure_ancilla(system)):
        queried = apply_query_diagonal(state, QueryPattern.from_string("x" * n))
        base = state.ancilla_difference()
        delta = queried.ancilla_difference() - base  # matches every item: -2 base, on every item
        for difference in (base, delta):
            assert np.unique(difference).size == 1
            got = _fid_row(difference, system, params)
            assert relative_gap(got, per_configuration_fid(difference, system, params)) <= 1e-12
    zero = _fid_row(np.zeros(2**n), system, params)
    assert zero.shape == (params.n_points,) and not zero.any()
    assert halves == [len(spectrometer._transitions(system)[1])] * 5


def test_term_sum_in_blocks_equals_the_per_configuration_sum(monkeypatch):
    # a difference that varies by item is summed term by term, a block of
    # terms at a time: 256 terms in blocks of 32 on the builtin grid
    tables = []
    real = spectrometer._phasors

    def spy(times, omega):
        tables.append(len(omega))
        return real(times, omega)

    monkeypatch.setattr(spectrometer, "_phasors", spy)
    system = crotonic_default()
    params = AcquisitionParams.for_system(system)
    difference = np.random.default_rng(5).normal(size=2**system.n_database)
    got = _fid_row(difference, system, params)
    assert relative_gap(got, per_configuration_fid(difference, system, params)) <= 1e-12
    assert tables == [spectrometer._TERM_ELEMENTS // 128] * 16


@pytest.mark.parametrize("backend", ["fast_diagonal", "ideal"])
def test_difference_reads_only_the_items_that_changed(monkeypatch, backend):
    # FID terms and kernel lines of each readout pass, counted where they are made
    terms, lines = [], []
    phasors, line_amplitudes = spectrometer._phasors, spectrometer._line_amplitudes

    def counting_phasors(times, omega):
        terms.append(len(omega))
        return phasors(times, omega)

    def counting_lines(difference, table):
        amps = line_amplitudes(difference, table)
        lines.append(int(np.count_nonzero(amps)))
        return amps

    monkeypatch.setattr(spectrometer, "_phasors", counting_phasors)
    monkeypatch.setattr(spectrometer, "_line_amplitudes", counting_lines)
    sys = crotonic_default()
    params = AcquisitionParams(n_points=1024, dwell_s=1.0 / 512.0, t2_s=0.5)
    state = thermal_state(sys)
    queried = queried_state(state, sys, QueryPattern.from_string("100101"), backend)
    delta = queried.ancilla_difference() - state.ancilla_difference()
    for _ in range(2):  # cold, then warm: the reference is read out once
        list(readout((state, queried), sys, params))
    changed = int(np.count_nonzero(delta))
    # two passes per table (starts and in-block); the reference, the same on
    # every item, is two half-register sums of 16 of its 256 configurations;
    # 4 configurations and 2 lines per changed item
    assert terms == [16] * 4 + [4 * changed] * 4 and lines == [128] + [2 * changed] * 2
    if backend == "fast_diagonal":
        assert np.flatnonzero(delta).tolist() == [37]
    else:  # rounding-level differences are read too: no threshold
        assert changed > 1 and np.sort(np.abs(delta))[-2] < 1e-15


def hexes(result):
    """Every float of a run's spectra and peaks, as float.hex strings."""
    arrays = (result.before.freqs_hz, result.before.amplitude, result.after.freqs_hz, result.after.amplitude)
    peaks = [
        (p.freq_hz.hex(), p.amplitude.hex(), p.item, p.manifold)
        for p in result.peaks_before + result.peaks_after
    ]
    return [[x.hex() for x in a.tolist()] for a in arrays], peaks


@pytest.mark.parametrize(
    "backend, init",
    [
        ("fast_diagonal", "thermal"),
        ("ideal", "effective_pure"),
        ("hard_pulse", "thermal"),
        ("fast_diagonal", "effective_pure"),
        ("ideal", "thermal"),
        ("hard_pulse", "effective_pure"),
    ],
)
def test_warm_run_is_bit_identical_to_a_fresh_register(backend, init):
    warm = crotonic_default()
    for bits in ("10x1x0", "100xxx", "100101"):
        pattern = QueryPattern.from_string(bits)
        cfg = RunConfig(warm, pattern, init=init, backend=backend)
        first = run_fetch(cfg)
        second = run_fetch(cfg)  # reads the whole reference readout from the cache
        fresh = run_fetch(RunConfig(crotonic_default(), pattern, init=init, backend=backend))
        assert second.verified and hexes(second) == hexes(first) == hexes(fresh)
        # the before readout is the cached one, shared and read-only; the
        # after spectrum is computed afresh on every run
        assert second.before is first.before and second.peaks_before is first.peaks_before
        assert not first.before.amplitude.flags.writeable
        _, *fresh_pairs = itertools.product(  # all but (before, before)
            (first.before.amplitude, first.after.amplitude),
            (second.before.amplitude, second.after.amplitude),
        )
        for a, b in fresh_pairs:
            assert not np.shares_memory(a, b)


def test_cached_readout_arrays_are_read_only():
    sys = crotonic_default()
    for init in ("thermal", "effective_pure"):
        assert run_fetch(RunConfig(sys, QueryPattern.from_string("100xxx"), init=init)).verified
    model = spectrometer._model(sys)
    assert len(model.references) == 2 and len(model.covered) == 1
    readouts = list(model.references.values())
    assert all(isinstance(r.peaks, tuple) and r.peaks for r in readouts)
    (params,) = model.covered
    grid = spectrometer._grid(sys, params)
    item, omega, share = model.transitions
    assert isinstance(share, float)
    arrays = [grid.freqs_hz, grid.bin_cs, grid.bin_cs2, grid.envelope, item, omega]
    for r in readouts:
        assert r.spectrum.freqs_hz is grid.freqs_hz
        # the peak arrays are the records' items and amplitudes, peak by peak
        assert r.peak_item.tolist() == [p.item for p in r.peaks]
        assert r.peak_amplitude.tolist() == [p.amplitude for p in r.peaks]
        arrays += [r.fid, r.closed, r.spectrum.amplitude, r.peak_item, r.peak_amplitude]
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_reference_cache_hit_needs_the_same_populations_bit_for_bit():
    sys = crotonic_default()
    params = AcquisitionParams(n_points=1024, dwell_s=1.0 / 512.0, t2_s=0.5)
    state = effective_pure_ancilla(sys)
    cached = spectrometer._reference_readout(state, sys, params)
    assert spectrometer._reference_readout(effective_pure_ancilla(sys), sys, params) is cached
    # one ulp on one population is another reference, read out afresh
    pops = state.populations.copy()
    pops[5] = np.nextafter(pops[5], 1.0)
    nudged = DensityState(pops)
    other = spectrometer._reference_readout(nudged, sys, params)
    assert other is not cached and not np.array_equal(other.fid, cached.fid)
    assert np.array_equal(other.fid, fid_of(nudged, sys, params))
    # and another grid is another reference too
    wider = AcquisitionParams(n_points=2048, dwell_s=1.0 / 512.0, t2_s=0.5)
    assert spectrometer._reference_readout(state, sys, wider).fid.shape == (2048,)


def test_grid_tables_are_kept_per_acquisition():
    # grids that differ in one field only: each gets its own axis, bin table
    # and envelope, and a warm register reads out as a fresh one on each
    warm = crotonic_default()
    base = AcquisitionParams.for_system(warm)
    grids = [
        base,
        dataclasses.replace(base, t2_s=1.5),
        dataclasses.replace(base, dwell_s=base.dwell_s * 1.25),
        dataclasses.replace(base, n_points=2 * base.n_points),
    ]
    pattern = QueryPattern.from_string("10x1x0")
    for _ in range(2):
        for params in grids:
            got = run_fetch(RunConfig(warm, pattern, backend="fast_diagonal", params=params))
            fresh = run_fetch(RunConfig(crotonic_default(), pattern, backend="fast_diagonal", params=params))
            assert got.verified and hexes(got) == hexes(fresh)
            grid = spectrometer._grid(warm, params)
            assert np.array_equal(grid.freqs_hz, params.frequency_grid())
            assert np.array_equal(grid.envelope, np.exp(-params.times() / params.t2_s))
            assert grid is spectrometer._acquisition_grid(params)  # one grid per acquisition
    assert spectrometer._model(warm).covered == set(grids)


def test_readout_cache_does_not_keep_the_register_alive():
    sys = crotonic_default()
    result = run_fetch(RunConfig(sys, QueryPattern.from_string("100xxx"), backend="fast_diagonal"))
    assert result.verified and sys in spectrometer._MODELS
    alive = weakref.ref(sys)
    del sys, result
    gc.collect()
    assert alive() is None


def test_route_guard_applies_to_a_cached_reference(monkeypatch):
    # the cache keeps arrays, not verdicts: a reference cached under the
    # normal guard still fails a tighter one, with the first run's message
    sys = crotonic_default()
    cfg = RunConfig(sys, QueryPattern.from_string("100xxx"), backend="fast_diagonal")
    assert run_fetch(cfg).verified
    monkeypatch.setattr(spectrometer, "_ROUTE_GUARD", 0.0)
    messages = []
    for config in (RunConfig(crotonic_default(), cfg.pattern, backend="fast_diagonal"), cfg, cfg):
        with pytest.raises(DecodeError, match="disagree") as exc:
            run_fetch(config)
        messages.append(str(exc.value))
    params = AcquisitionParams.for_system(sys)
    with pytest.raises(DecodeError) as alone:
        list(readout((climod._initial_state(sys, cfg.init),), sys, params))
    assert messages == [str(alone.value)] * 3


# ---------------------------------------------------------------------------
# peak picking and decoding
# ---------------------------------------------------------------------------


def test_pick_peaks_subbin_accuracy():
    t2 = 1.0
    params = AcquisitionParams(n_points=4096, dwell_s=1.0 / 256.0, t2_s=t2)
    t = params.times()
    lw = 1.0 / (math.pi * t2)
    nus = (-20.0, -20.0 + 5 * lw)
    fid = sum(np.exp((2j * math.pi * nu - 1.0 / t2) * t) for nu in nus)
    found, _ = _pick(fft_of(fid, params), 0.2)
    assert len(found) == 2
    for got, want in zip(found, sorted(nus)):
        assert abs(got - want) < 0.1 * lw


def test_pick_peaks_sees_inverted_lines():
    params = AcquisitionParams(n_points=2048, dwell_s=1.0 / 128.0, t2_s=1.0)
    t = params.times()
    fid = -np.exp((2j * math.pi * 13.0 - 1.0) * t)
    (freq,), (amp,) = _pick(fft_of(fid, params), 0.2)
    assert amp < 0
    assert freq == pytest.approx(13.0, abs=0.05)


@pytest.mark.parametrize(
    "samples, maxima, minima",
    [
        ([], [], []),
        ([1.0], [], []),
        ([0.0, 1.0], [], []),
        ([0.0, 1.0, 0.0], [1], []),
        ([1.0, 0.0, 1.0], [], [1]),
        ([0.0, 2.0, 2.0, 2.0, 2.0, 0.0], [2], []),  # flat top: (1 + 4) // 2
        ([0.0, 2.0, 2.0, 2.0, 0.0], [2], []),
        ([2.0, 2.0, 0.0, 1.0, 1.0], [], [2]),  # plateaus on both edges
        ([0.0, 1.0, 1.0, 2.0, 0.0], [3], []),  # a step is not a peak
        ([3.0, 3.0, 3.0], [], []),
    ],
)
def test_extrema_follow_the_find_peaks_rule(samples, maxima, minima):
    got_max, got_min = _extrema(np.array(samples))
    assert got_max.tolist() == maxima and got_min.tolist() == minima
    assert got_max.tolist() == find_peaks(np.array(samples))[0].tolist()
    assert got_min.tolist() == find_peaks(-np.array(samples))[0].tolist()


def picked(spectrum, threshold_frac=_PICK_THRESHOLD):
    """``_pick`` as a list of (frequency, amplitude) pairs."""
    freq, amp = _pick(spectrum, threshold_frac)
    return list(zip(freq.tolist(), amp.tolist()))


def test_pick_peaks_finds_none_on_a_flat_or_weak_spectrum():
    assert picked(Spectrum(np.arange(5.0), np.zeros(5))) == []
    # the tallest sample is an edge, never an extremum, and the one maximum
    # is 2 % of it
    weak = Spectrum(np.arange(5.0), np.array([10.0, 0.0, 0.2, 0.0, 0.1]))
    assert picked(weak) == []
    assert picked(weak, threshold_frac=0.01) == [(2.0, 0.2)]


def test_pick_peaks_height_is_inclusive():
    spec = Spectrum(np.arange(7.0), np.array([0.0, 2.0, 0.0, 4.0, 0.0, -2.0, 0.0]))
    assert [a for _, a in picked(spec, threshold_frac=0.5)] == [2.0, 4.0, -2.0]
    assert [a for _, a in picked(spec, threshold_frac=0.75)] == [4.0]


_finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
_spectra = st.one_of(
    # random spectra, lengths 1-3 included
    st.lists(_finite, min_size=1, max_size=80).map(np.array),
    st.lists(_finite, min_size=1, max_size=3).map(np.array),
    # quantised spectra: runs of equal levels, so plateaus of every width
    # sit inside the spectrum and on either edge
    st.tuples(
        st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 5)), min_size=1, max_size=30),
        st.floats(0.01, 100.0),
    ).map(lambda d: np.repeat([lv for lv, _ in d[0]], [w for _, w in d[0]]) * d[1]),
    # all-equal, all-zero included
    st.tuples(st.sampled_from([0.0, -0.0, 1.0, -2.5]), st.integers(1, 20)).map(
        lambda d: np.full(d[1], d[0])
    ),
)


@settings(max_examples=300, deadline=None)
@example(amp=np.array([0.0]), start=0.0, step=1.0, threshold_frac=0.05)  # no grid step
# runs of equal samples that touch the first or the last sample, above the threshold
@example(amp=np.array([1.0, 1.0, 0.0, 1.0, 1.0]), start=0.0, step=1.0, threshold_frac=0.05)
@example(amp=np.array([-3.0, 2.0, 2.0, 2.0]), start=0.0, step=1.0, threshold_frac=0.05)
@example(amp=np.array([2.0, 2.0, -3.0, 0.5, -3.0, -3.0]), start=0.0, step=1.0, threshold_frac=0.05)
# equal maxima apart, each its own run
@example(amp=np.array([0.0, 2.0, 0.0, 2.0, 0.0]), start=0.0, step=1.0, threshold_frac=0.05)
# plateaus, a maximum and a minimum, whose magnitude is exactly the threshold (0.25 x 4)
@example(
    amp=np.array([0.0, 1.0, 1.0, 1.0, 0.0, 4.0, 0.0, -1.0, -1.0, 0.0]), start=0.0, step=1.0, threshold_frac=0.25
)
@given(
    amp=_spectra,
    start=st.floats(-500.0, 500.0),
    step=st.floats(0.01, 10.0),
    # 0.25, 0.5 and 0.75 of a quantised top of 4 levels land exactly on a level
    threshold_frac=st.one_of(st.sampled_from([0.05, 0.25, 0.5, 0.75]), st.floats(0.001, 0.999)),
)
def test_pick_peaks_matches_scipy_reference(amp, start, step, threshold_frac):
    # read from the module, so that a defect planted there shows
    extrema = spectrometer._extrema(amp)
    assert all(map(np.array_equal, extrema, (find_peaks(amp)[0], find_peaks(-amp)[0])))
    spec = Spectrum(start + step * np.arange(len(amp)), amp)
    got = picked(spec, threshold_frac)
    want = reference_pick_peaks(spec, threshold_frac)
    assert got == want
    # bit for bit, signed zeros included
    assert [(f.hex(), a.hex()) for f, a in got] == [(f.hex(), a.hex()) for f, a in want]


@pytest.mark.parametrize("t2_dwells", [256.0, 1024.0, 4096.0])
def test_refinement_recovers_a_sampled_line_centre(t2_dwells):
    # one line of the closed-form kernel, (1 - d^2) / (2 |1 - z|^2), sampled on
    # 8192 bins with its centre anywhere between two of them, 32, 8 and 2 T2
    # long: the 1/y parabola puts the centre back within 1e-8 bins (checked
    # to 1e-6), where the parabola through the samples misses by 0.007-0.24
    n, dwell = 8192, 1.0 / 512.0
    params = AcquisitionParams(n, dwell, t2_dwells * dwell)
    axis = params.frequency_grid()
    d = math.exp(-1.0 / t2_dwells)
    step = axis[1] - axis[0]
    for offset in np.linspace(-0.5, 0.5, 21):
        centre = axis[n // 2 + 17] + offset * step
        z = d * np.exp(2.0j * math.pi * (centre - axis) * dwell)
        row = (1.0 - d * d) / (2.0 * np.abs(1.0 - z) ** 2)
        (freq,), (amp,) = _pick(on_grid(row, params), 0.5)
        assert abs(freq - centre) <= 1e-6 * step
        assert amp == pytest.approx((1.0 + d) / (2.0 * (1.0 - d)), rel=1e-6)


def test_decode_round_trip_every_item():
    sys = crotonic_default()
    for line in line_table(sys):
        item, manifold = decode_one(line.freq_hz, sys)
        assert item == line.item
        assert manifold == line.manifold


def test_decode_rejects_far_frequency():
    sys = crotonic_default()
    with pytest.raises(DecodeError):
        decode_one(500.0, sys)


def test_decode_rejects_ambiguous_frequency():
    # items 1 and 2 sit 0.2 Hz apart: midway between them is no closer to
    # either than half the smallest gap
    sys = make_system([10.0, 10.2])
    with pytest.raises(DecodeError, match="no expected line within 0.1 Hz of 0.0000 Hz"):
        decode_one(0.0, sys)
    assert decode_one(0.099, sys) == (2, "n/a")


def decode_probes(lines, spread_hz):
    """Every line, points just off it, at half the smallest gap, halfway between neighbours and far outside."""
    freqs = sorted({l.freq_hz for l in lines})
    half_gap = min((b - a for a, b in zip(freqs, freqs[1:])), default=math.inf) / 2.0
    probes = list(freqs)
    probes += [f + d * spread_hz for f in freqs for d in (-31 / 30, -2 / 3, 1 / 6, 1.0)]
    if math.isfinite(half_gap):
        probes += [f + d * half_gap for f in freqs for d in (-1.0, 1.0 - 1e-9)]
    probes += [(a + b) / 2.0 for a, b in zip(freqs, freqs[1:])]
    probes += [freqs[0] - 50.0, freqs[-1] + 50.0]
    return probes


@pytest.mark.parametrize(
    "sys",
    [
        crotonic_default(),
        make_system([10.0, 10.0]),  # items 1 and 2 exactly degenerate
        make_system([10.0, 10.2]),
        make_system([30.0, -8.0], multiplicities=[3, 1], offsets=[1.5, 0.0, 0.0]),
    ]
    + [superincreasing_system(np.random.default_rng(seed), n) for seed, n in ((1, 6), (2, 8), (3, 9))],
)
@pytest.mark.parametrize("spread_hz", [0.3, 6.0])
def test_decode_matches_brute_force(sys, spread_hz):
    lines = line_table(sys)
    probes = decode_probes(lines, spread_hz)
    for freq in probes:
        assert outcome(decode_one, freq, sys) == outcome(brute_decode, freq, lines)
    # _decode fails on the first frequency that fails, as a loop over them would
    want = []
    for freq in probes:
        got = outcome(brute_decode, freq, lines)
        if got[0] == "DecodeError":
            want = got
            break
        want.append(got)
    assert outcome(decode_all, probes, sys) == want


def test_decode_degenerate_lines_are_ambiguous():
    sys = make_system([10.0, 10.0])
    with pytest.raises(DecodeError, match="items 1 and 2"):
        decode_one(0.0, sys)
    assert decode_one(10.1, sys) == (0, "n/a")


def test_decode_reads_a_single_line_at_any_distance():
    # one line frequency has no gap to halve: every peak is that line
    sys = SpinSystem((Spin("c", species="carbon"),), np.zeros((1, 1)))
    assert decode_one(0.0, sys) == decode_one(1e6, sys) == (0, "n/a")


def test_run_fetch_builds_line_table_once_per_register(monkeypatch):
    calls = []
    build = spectrometer._build_line_table

    def counting(system):
        calls.append(system)
        return build(system)

    monkeypatch.setattr(spectrometer, "_build_line_table", counting)
    sys = crotonic_default()  # a fresh register, so nothing is cached yet
    cfg = RunConfig(sys, QueryPattern.from_string("100xxx"), backend="fast_diagonal")
    assert run_fetch(cfg).verified
    assert calls == [sys]
    assert run_fetch(cfg).verified and len(line_table(sys)) == 128
    assert calls == [sys]


@st.composite
def fuzz_registers(draw):
    """3-5 database qubits, optional three-spin groups, signed couplings,
    offsets and database-database couplings."""
    n = draw(st.integers(3, 5))
    j = np.zeros((n + 1, n + 1))
    for i in range(1, n + 1):
        j[0, i] = j[i, 0] = round(draw(st.floats(0.5, 40.0)), 2) * draw(st.sampled_from((-1, 1)))
    for a, b in itertools.combinations(range(1, n + 1), 2):
        if draw(st.booleans()):
            j[a, b] = j[b, a] = round(draw(st.floats(-20.0, 20.0)), 2)
    mults = [draw(st.sampled_from((1, 3))) for _ in range(n)]
    offsets = [round(draw(st.floats(-10.0, 10.0)), 2) for _ in range(n + 1)]
    return make_system(list(j[0, 1:]), multiplicities=mults, offsets=offsets, full_j=j)


@settings(max_examples=60, deadline=None)
@given(
    system=fuzz_registers(),
    t2=st.floats(0.2, 3.0),
    init=st.sampled_from(("thermal", "effective_pure")),
    data=st.data(),
)
def test_refused_or_every_item_classifies(system, t2, init, data):
    # the line table's decision is the whole story: a register it accepts
    # reads every item right from the closed-form spectra of the prepared and
    # queried states, with the default peak threshold
    n = system.n_database
    pattern = QueryPattern.from_string(data.draw(st.text("01x", min_size=n, max_size=n)))
    try:
        params = AcquisitionParams.for_system(system, t2_s=t2)
    except SpectrometerError as exc:
        assert not isinstance(exc, DecodeError)
        return
    state = climod._initial_state(system, init)
    queried = apply_query_diagonal(state, pattern)
    expected = tuple(climod.classical_oracle(pattern, n))
    table = spectrometer._lines(system)
    for s, marked in zip((state, queried), ((), expected)):
        freq, amp = _pick(on_grid(closed_of(s, system, params), params), _PICK_THRESHOLD)
        verdict = _classify(table.item[_decode(freq, system)], amp)
        assert verdict.marked == marked and verdict.inconsistent == ()
        assert verdict.unmarked == tuple(i for i in range(2**n) if i not in marked)


def brute_buried(table, width_hz):
    """First block whose weight does not exceed every other block's Lorentzian tail summed there."""
    for k, (f, w) in enumerate(zip(table.block_freq, table.block_weight)):
        tails = sum(
            v / (1.0 + (2.0 * (f - g) / width_hz) ** 2)
            for j, (g, v) in enumerate(zip(table.block_freq, table.block_weight))
            if j != k
        )
        if tails >= w:
            return k
    return None


@settings(max_examples=60, deadline=None)
@given(system=fuzz_registers(), t2=st.floats(0.05, 3.0))
def test_buried_block_matches_the_pairwise_sum(system, t2):
    # the closed-form bound only ever skips tables with nothing buried
    table = spectrometer._lines(system)
    width = 1.0 / (math.pi * t2)
    assert spectrometer._buried_block(table, width) == brute_buried(table, width)


def test_weak_line_under_a_strong_neighbour_is_refused():
    # two three-spin groups: outer lines carry 1/16 of an item, inner ones
    # 9/16.  At T2 = 0.2 s the closest lines are 1.08 widths apart, yet a
    # weak line sits under the tail of a strong one, and the queried
    # spectrum shows an extremum that is no line
    sys = make_system([-32.62, -17.17, -22.38], multiplicities=[3, 3, 1])
    params = AcquisitionParams(n_points=16384, dwell_s=1.0 / 256.0, t2_s=0.2)
    assert params.linewidth_hz < spectrometer._lines(sys).min_gap_hz
    with pytest.raises(SpectrometerError, match="buried under its neighbours' tails"):
        spectrometer._check_decodable(sys, params)
    queried = apply_query_diagonal(effective_pure_ancilla(sys), QueryPattern.from_string("100"))
    freq, _ = _pick(on_grid(closed_of(queried, sys, params), params), _PICK_THRESHOLD)
    with pytest.raises(DecodeError, match="no expected line within 0.86 Hz of -10.9995 Hz"):
        _decode(freq, sys)
    spectrometer._check_decodable(sys, AcquisitionParams(t2_s=0.3))


def test_decode_peaks_annotates():
    assert decode_one(138.25, crotonic_default()) == (0, "inner")


def test_decode_and_classify_take_no_peaks():
    assert decode_all([], crotonic_default()) == []
    assert _classify(np.empty(0, dtype=int), np.empty(0)) == MarkedClassification((), (), ())


def test_monotonic_item_order():
    # inner lines in descending frequency enumerate items in ascending order
    sys = crotonic_default()
    inner = [l for l in line_table(sys) if l.manifold == "inner"]
    inner.sort(key=lambda l: -l.freq_hz)
    assert [l.item for l in inner] == list(range(64))


def test_classify_marked():
    # items 3, 3, 1, 2, 2: item 2's manifolds disagree in sign
    cls = _classify(np.array([3, 3, 1, 2, 2]), np.array([-1.0, -0.4, 1.0, 1.0, -1.0]))
    assert cls.marked == (3,)
    assert cls.unmarked == (1,)
    assert cls.inconsistent == (2,)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 7), st.sampled_from([-2.0, -0.5, 0.0, 0.5, 2.0])),
        max_size=20,
    )
)
def test_classify_marked_matches_per_item_grouping(entries):
    by_item = {}
    for item, amp in entries:
        by_item.setdefault(item, []).append(amp)
    item = np.array([i for i, _ in entries], dtype=int)
    cls = _classify(item, np.array([a for _, a in entries], dtype=float))
    negative = [i for i, a in sorted(by_item.items()) if all(x < 0 for x in a)]
    positive = [i for i, a in sorted(by_item.items()) if all(x > 0 for x in a)]
    assert cls.marked == tuple(negative)
    assert cls.unmarked == tuple(positive)
    assert cls.inconsistent == tuple(i for i in sorted(by_item) if i not in negative + positive)
    assert all(type(i) is int for i in cls.marked + cls.unmarked + cls.inconsistent)


def test_classify_requires_decoded_peaks():
    # a record is built decoded or not at all, so the verdict never meets an undecoded peak
    with pytest.raises(TypeError, match="item"):
        Peak(1.0, 1.0)
    with pytest.raises(TypeError, match="manifold"):
        Peak(1.0, 1.0, 3)


def assert_records_carry_arrays(read):
    """A readout's ``Peak`` records hold its peak arrays' items and amplitudes, bit for bit, in order."""
    assert [p.item for p in read.peaks] == read.peak_item.tolist()
    assert [p.amplitude.hex() for p in read.peaks] == [a.hex() for a in read.peak_amplitude.tolist()]


def record_verdict(peaks):
    """The verdict over ``Peak`` records, from arrays rebuilt out of their fields."""
    item = np.array([p.item for p in peaks], dtype=int)
    return _classify(item, np.array([p.amplitude for p in peaks], dtype=float))


@settings(max_examples=200, deadline=None)
@example(entries=[])
@example(entries=[(3, 0.0), (3, -0.0), (5, -0.0), (5, -1.0), (7, 1.0)])
@given(
    entries=st.lists(
        st.tuples(
            st.integers(0, 127),
            st.one_of(
                st.sampled_from([-2.0, -0.0, 0.0, 2.0, -5e-324, 5e-324]),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
        ),
        max_size=40,
    )
)
def test_array_verdict_matches_classify_marked_over_records(entries):
    # records built from peak arrays of builtin lines, read-only as the
    # readout keeps them, carry those arrays exactly (signed zeros and
    # subnormals included), so a verdict over the records is the array verdict
    table = spectrometer._lines(crotonic_default())
    lines = np.array([k for k, _ in entries], dtype=int)
    amp = np.array([a for _, a in entries], dtype=float)
    freq = table.freq_hz[lines]
    item = table.item[lines]
    item.flags.writeable = amp.flags.writeable = False
    peaks = spectrometer._peak_records(freq, amp, lines, table)
    manifold = [table.manifold[k] for k in lines]
    assert [(p.freq_hz, p.manifold) for p in peaks] == list(zip(freq.tolist(), manifold))
    assert [p.item for p in peaks] == item.tolist()
    assert [p.amplitude.hex() for p in peaks] == [a.hex() for a in amp.tolist()]
    assert all(type(p.amplitude) is float and type(p.item) is int for p in peaks)
    got = _classify(item, amp)
    assert got == record_verdict(peaks)
    assert all(type(i) is int for i in got.marked + got.unmarked + got.inconsistent)
    # an item with a zero peak, of either sign, is neither marked nor unmarked
    zero = {int(table.item[k]) for k, a in entries if a == 0.0}
    assert zero <= set(got.inconsistent)


@pytest.mark.parametrize("backend", ["fast_diagonal", "ideal", "hard_pulse"])
@pytest.mark.parametrize("init", ["thermal", "effective_pure"])
def test_run_fetch_verdict_is_classify_marked_of_its_peaks(monkeypatch, backend, init):
    # result.json writes the records while the verdict comes from the arrays:
    # each readout of the run must carry the same peaks both ways
    reads = []

    def keeping(states, system, params):
        for read in readout(states, system, params):
            reads.append(read)
            yield read

    monkeypatch.setattr(climod, "readout", keeping)
    for bits in ("100101", "10x1x0"):
        reads.clear()
        result = run_fetch(RunConfig(crotonic_default(), QueryPattern.from_string(bits), init=init, backend=backend))
        before, after = reads
        assert (result.peaks_before, result.peaks_after) == (before.peaks, after.peaks)
        for read in reads:
            assert_records_carry_arrays(read)
        verdict = record_verdict(result.peaks_after)
        assert (result.marked, result.inconsistent) == (verdict.marked, verdict.inconsistent)
        assert result.verified and result.marked == result.expected


def test_peak_record_contract():
    assert Peak._fields == ("freq_hz", "amplitude", "item", "manifold")
    assert Peak._field_defaults == {}
    peak = Peak(2.0, -0.5, item=3, manifold="inner")
    assert peak == Peak(2.0, -0.5, 3, "inner")
    for name in Peak._fields:
        with pytest.raises(AttributeError):
            setattr(peak, name, 1)
    # a readout's records are decoded, by frequency, of plain Python types
    sys = crotonic_default()
    (read,) = readout((effective_pure_ancilla(sys),), sys, AcquisitionParams.for_system(sys))
    assert len(read.peaks) == 128 and all(type(p) is Peak for p in read.peaks)
    assert [p.freq_hz for p in read.peaks] == sorted(p.freq_hz for p in read.peaks)
    assert {type(v) for p in read.peaks for v in p} == {float, int, str}
    assert_records_carry_arrays(read)


# ---------------------------------------------------------------------------
# integral bookkeeping
# ---------------------------------------------------------------------------


def test_query_scales_total_integral():
    # flipping m of 2**n items scales the summed spectrum by 1 - 2 m / 2**n
    sys = make_system([40.0, 17.0, 8.0])
    params = AcquisitionParams.for_system(sys)
    before = effective_pure_ancilla(sys)
    after = apply_query_diagonal(before, QueryPattern.from_string("1xx"))  # 4 of 8 items -> integral 0
    after2 = apply_query_diagonal(before, QueryPattern.from_string("11x"))  # 2 of 8 -> factor 1/2
    int_before, int_after, int_after2 = (
        r.closed.sum() for r in readout((before, after, after2), sys, params)
    )
    assert int_after == pytest.approx(0.0, abs=1e-9 * abs(int_before))
    assert int_after2 / int_before == pytest.approx(0.5, rel=1e-9)


def test_spectrum_csv_header():
    spec = Spectrum(np.array([1.0, 2.0]), np.array([0.5, -0.25]))
    text = spectrum_csv(spec)
    lines = text.splitlines()
    assert lines[0] == "freq_hz,amplitude"
    assert lines[1].startswith("1,") or lines[1].startswith("1.0,")
