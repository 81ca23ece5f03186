"""Ensemble preparations and how queries act on them."""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nmrfetch import (
    CompileError,
    DensityState,
    QueryPattern,
    Spin,
    SpinSystem,
    StateError,
    apply_query_diagonal,
    build_query_network,
    crotonic_default,
    effective_pure_ancilla,
    expand_to_hard_pulses,
    thermal_state,
)
from nmrfetch.compiler import (
    Delay,
    GateSequence,
    SelectivePulse,
    VirtualZ,
    ZZEvolution,
    _compressed_product,
)
from nmrfetch.spin_system import SPECIES_GAMMA
from nmrfetch.states import _apply_product, _conjugate_blocks

from conftest import make_system, random_full_system, rounding_bound
from dense_reference import apply_unitary, rotation, sequence_unitary


def purity(state):
    return float(np.sum(state.populations**2))


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_populations_must_normalize():
    with pytest.raises(StateError):
        DensityState(np.array([0.7, 0.5]))


def test_exactly_one_representation():
    # the population vector is the whole state; a density matrix is refused
    assert [f.name for f in dataclasses.fields(DensityState)] == ["populations"]
    with pytest.raises(StateError):
        DensityState(np.eye(2) / 2)


def test_negative_population_rejected():
    with pytest.raises(StateError):
        DensityState(np.array([1.2, -0.2]))


def test_non_finite_populations_rejected():
    # nan passes every comparison-based check, so it needs its own
    with pytest.raises(StateError, match="finite"):
        DensityState(np.full(4, np.nan))
    with pytest.raises(StateError, match="finite"):
        DensityState(np.array([np.inf, 0.0]))


@pytest.mark.parametrize("n_entries", [0, 1, 2, 3, 4])
def test_vector_length_is_a_power_of_two_with_an_ancilla(n_entries):
    # an ancilla needs at least one qubit: 2 or 4 entries, never 0, 1 or 3
    pops = np.full(n_entries, 1.0 / max(n_entries, 1))
    if n_entries in (2, 4):
        state = DensityState(pops)
        assert 2**state.n_qubits == n_entries
        assert state.ancilla_difference().shape == (n_entries // 2,)
    else:
        with pytest.raises(StateError, match=r"2\*\*n entries"):
            DensityState(pops)


def test_as_populations_rejects_coherent_matrix():
    # |+><+| is refused as a population state whichever way it arrives:
    # handed over as a matrix, or produced by a pi/2 y pulse on |0><0|
    mat = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(StateError):
        DensityState(mat)
    ground = DensityState(np.array([1.0, 0.0]))
    with pytest.raises(StateError, match="off-diagonal weight"):
        apply_unitary(ground, rotation(0, "y", math.pi / 2, 1))


# ---------------------------------------------------------------------------
# preparations
# ---------------------------------------------------------------------------


def test_effective_pure_single_database_qubit():
    state = effective_pure_ancilla(make_system([10.0]))
    assert np.allclose(state.populations, [0.5, 0.5, 0.0, 0.0])


def test_effective_pure_uniform_over_items():
    state = effective_pure_ancilla(crotonic_default())
    pops = state.populations
    assert pops.shape == (128,)
    assert np.allclose(pops[:64], 1.0 / 64.0)
    assert np.allclose(pops[64:], 0.0)
    assert np.allclose(state.ancilla_difference(), 1.0 / 64.0)


def test_thermal_single_spin_small_polarization():
    one = SpinSystem((Spin("c", species="carbon"),), np.zeros((1, 1)))
    state = thermal_state(one, polarization=0.1)
    assert np.allclose(state.populations, [(1 + 0.1) / 2, (1 - 0.1) / 2])


def test_thermal_deviation_scales_with_gamma():
    j = np.array([[0.0, 5.0], [5.0, 0.0]])
    sys = SpinSystem((Spin("c", gamma_rel=1.0), Spin("h", gamma_rel=3.977)), j)
    p = thermal_state(sys, polarization=1e-5).populations
    dev_first = p[0] + p[1] - p[2] - p[3]
    dev_second = p[0] - p[1] + p[2] - p[3]
    assert dev_second / dev_first == pytest.approx(3.977, rel=1e-9)


def test_thermal_zero_polarization_is_maximally_mixed():
    sys = make_system([10.0, 20.0])
    state = thermal_state(sys, polarization=0.0)
    assert np.allclose(state.populations, 1.0 / 8.0)
    assert purity(state) == pytest.approx(1.0 / 8.0)


def test_thermal_polarization_bounds():
    sys = make_system([10.0])
    with pytest.raises(StateError):
        thermal_state(sys, polarization=-0.1)
    with pytest.raises(StateError):
        thermal_state(sys, polarization=0.6)  # 0.6 * (1 + 1) > 1


def test_thermal_refuses_nan_polarization():
    with pytest.raises(StateError, match="finite"):
        thermal_state(crotonic_default(), polarization=math.nan)


@pytest.mark.parametrize("polarization", [1e-5, 1e-3, 0.1])
def test_thermal_populations_are_exact(polarization):
    # every spin's deviation sits on the 2^-52 grid, so the populations sum
    # to exactly 1 and the ancilla difference is one double on every item
    proton = SPECIES_GAMMA["proton"]
    registers = [
        make_system([10.0, 20.0, 5.0]),
        SpinSystem(
            (Spin("c", gamma_rel=1.0), Spin("h", gamma_rel=proton), Spin("n", gamma_rel=0.4)),
            np.array([[0.0, 5.0, 3.0], [5.0, 0.0, 0.0], [3.0, 0.0, 0.0]]),
        ),
    ]
    if polarization * sum(s.gamma_rel for s in crotonic_default().spins) < 1.0:
        registers.append(crotonic_default())
    for sys in registers:
        state = thermal_state(sys, polarization=polarization)
        assert math.fsum(state.populations) == 1.0
        diff = state.ancilla_difference()
        assert np.unique(diff.view(np.int64)).size == 1  # bit for bit
        assert diff[0] == pytest.approx(2.0 * polarization * sys.spins[0].gamma_rel / 2**sys.n_spins, rel=1e-10)


def test_thermal_trace_and_positivity():
    state = thermal_state(crotonic_default(), polarization=1e-3)
    assert state.populations.sum() == pytest.approx(1.0)
    assert (state.populations > 0).all()


# ---------------------------------------------------------------------------
# unitary evolution
# ---------------------------------------------------------------------------


def test_apply_identity_is_noop():
    state = thermal_state(make_system([10.0]), polarization=1e-3)
    out = apply_unitary(state, np.eye(4))
    assert np.array_equal(out.populations, state.populations)


def test_apply_unitary_moves_populations_forward():
    # U|k> = e^{i phi_k} |k+1 mod 4> carries the population of k to k + 1;
    # the query networks are involutions, so they cannot tell U from U^dagger
    state = DensityState(np.array([0.4, 0.3, 0.2, 0.1]))
    u = np.roll(np.diag(np.exp(1j * np.array([0.3, -1.2, 2.0, 0.7]))), 1, axis=0)
    out = apply_unitary(state, u)
    assert np.allclose(out.populations, [0.1, 0.4, 0.3, 0.2], atol=1e-15)


def test_apply_unitary_preserves_trace_hermiticity_purity():
    # a population vector is a real diagonal, hence Hermitian, operator
    sys = make_system([10.0, 20.0])
    state = thermal_state(sys, polarization=1e-3)
    u = sequence_unitary(build_query_network(sys, QueryPattern.from_string("1x")), sys)
    out = apply_unitary(state, u)
    assert out.populations.dtype == np.float64
    assert out.populations.sum() == pytest.approx(1.0)
    assert purity(out) == pytest.approx(purity(state))


def test_apply_unitary_refuses_coherence():
    # a pi/2 y pulse on the polarized ancilla leaves a transverse coherence
    sys = make_system([10.0, 20.0])
    state = effective_pure_ancilla(sys)
    with pytest.raises(StateError, match="off-diagonal weight"):
        apply_unitary(state, rotation(0, "y", math.pi / 2, sys.n_spins))


def test_apply_product_refuses_coherence():
    # a lone pi/2 pulse on the polarized ancilla leaves coherence behind;
    # one on a database qubit would mix two items, so no product is made
    sys = make_system([10.0, 20.0])
    seq = GateSequence(3, (SelectivePulse(0, "y", math.pi / 2),))
    with pytest.raises(StateError, match="off-diagonal weight"):
        _apply_product(effective_pure_ancilla(sys), *_compressed_product(seq, sys))
    with pytest.raises(CompileError, match="mixes qubit 1"):
        _compressed_product(GateSequence(3, (SelectivePulse(1, "y", math.pi / 2),)), sys)


def test_apply_product_refuses_a_non_unitary_product():
    # one row scaled past 1e-10 of unit norm is refused before it could widen
    # the rounding bound; well inside it, the query still runs
    sys = crotonic_default()
    state = thermal_state(sys)
    blocks, src = _compressed_product(build_query_network(sys, QueryPattern.from_string("100101")), sys)
    for scale, refused in ((1.0 + 1e-6, True), (1.0 + 1e-12, False)):
        bent = blocks.copy()
        bent[0, 0] *= scale
        if refused:
            with pytest.raises(StateError, match="unit norm"):
                _apply_product(state, bent, src)
        else:
            out = _apply_product(state, bent, src).populations
            assert np.flatnonzero(out != state.populations).tolist() == [37, 101]


def _dense_conjugation(populations, u):
    """Diagonal of U diag(p) U^dagger and its largest off-diagonal entry."""
    rho = (u * populations) @ u.conj().T
    pops = np.real(np.diag(rho)).copy()
    np.fill_diagonal(rho, 0.0)
    return pops, float(np.max(np.abs(rho)))


_AXES = st.sampled_from(["x", "y", "-x", "-y"])
# pi multiples are signed flips (monomial gates) on any qubit; the rest mix
# their qubit, so they go on the ancilla
_FLIP_ANGLES = [math.pi, -math.pi, 3 * math.pi]
_PULSE_ANGLES = st.sampled_from([*_FLIP_ANGLES, math.pi / 2, 0.7])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_block_conjugation_matches_dense(data):
    # sequences are drawn from a small alphabet of gate runs, so equal runs
    # recur between different neighbours and the product's run cache is hit
    n = data.draw(st.integers(1, 8))
    mode = data.draw(st.sampled_from(["ideal", "hard_pulse"]))
    sys = random_full_system(random.Random(data.draw(st.integers(0, 10**6))), n - 1)
    qubit = st.integers(0, n - 1)
    kinds = ["pulse", "vz"]
    if mode == "hard_pulse":
        kinds.append("delay")
    elif n > 1:
        kinds.append("zz")

    def gate():
        kind = data.draw(st.sampled_from(kinds))
        if kind == "pulse":
            angle = data.draw(_PULSE_ANGLES)
            return SelectivePulse(data.draw(qubit) if angle in _FLIP_ANGLES else 0, data.draw(_AXES), angle)
        if kind == "vz":
            return VirtualZ(data.draw(qubit), data.draw(st.floats(-3.0, 3.0)))
        if kind == "zz":
            q1, q2 = data.draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            return ZZEvolution(q1, q2, data.draw(st.floats(-3.0, 3.0)))
        return Delay(data.draw(st.floats(0.0, 0.05)))

    alphabet = [
        tuple(gate() for _ in range(data.draw(st.integers(1, 4))))
        for _ in range(data.draw(st.integers(1, 4)))
    ]
    picks = data.draw(st.lists(st.integers(0, len(alphabet) - 1), max_size=10))
    seq = GateSequence(n, tuple(g for i in picks for g in alphabet[i]), mode=mode)

    init = data.draw(st.sampled_from(["thermal", "eps", "random"]))
    if init == "thermal":
        state = thermal_state(sys, polarization=1e-3)
    elif init == "eps":
        state = effective_pure_ancilla(sys)
    else:
        raw = np.array([data.draw(st.floats(0.01, 1.0)) for _ in range(2**n)])
        state = DensityState(raw / raw.sum())

    want, want_worst = _dense_conjugation(state.populations, sequence_unitary(seq, sys))
    product = _compressed_product(seq, sys)
    got, worst = _conjugate_blocks(state.populations, *product)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert abs(worst - want_worst) <= 1e-12
    if want_worst > 1e-10 + 1e-12:
        with pytest.raises(StateError, match="off-diagonal weight"):
            _apply_product(state, *product)
    elif want_worst < 1e-10 - 1e-12:
        # each population is the conjugation's own, or was put back to its
        # prepared value from within the product's rounding of it
        out = _apply_product(state, *product).populations
        kept = out == got
        restored = ~kept & (out == state.populations)
        assert np.all(kept | restored)
        bound = rounding_bound(product[0], state.populations)
        assert np.all(np.abs(got - state.populations)[restored] <= bound)


# ---------------------------------------------------------------------------
# diagonal query shortcut
# ---------------------------------------------------------------------------


def test_query_diagonal_swaps_matching_halves():
    sys = make_system([10.0, 20.0])
    state = effective_pure_ancilla(sys)
    out = apply_query_diagonal(state, QueryPattern.from_string("0x"))
    pops = out.populations
    # items 0,1 match: their weight moves to the ancilla=1 half
    assert np.allclose(pops, [0, 0, 0.25, 0.25, 0.25, 0.25, 0, 0])


def test_query_diagonal_is_an_involution():
    sys = make_system([10.0, 20.0, 30.0])
    state = thermal_state(sys, polarization=1e-3)
    pat = QueryPattern.from_string("x10")
    twice = apply_query_diagonal(apply_query_diagonal(state, pat), pat)
    assert np.allclose(twice.populations, state.populations, atol=1e-15)


def test_query_diagonal_requires_diagonal_state():
    # the permutation shortcut only sees population states: a coherent
    # matrix cannot be made into one, and the diagonal one is queried exactly
    h = np.full((2, 2), 0.5)
    with pytest.raises(StateError):
        DensityState(h)
    out = apply_query_diagonal(DensityState(np.diag(h)), QueryPattern.from_string(""))
    assert isinstance(out, DensityState)
    assert np.array_equal(out.populations, [0.5, 0.5])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_query_diagonal_matches_dense_route(data):
    n_db = data.draw(st.integers(1, 3))
    couplings = [10.0 * (i + 1) for i in range(n_db)]
    sys = make_system(couplings)
    init = data.draw(st.sampled_from(["random", "thermal", "eps"]))
    if init == "random":
        raw = np.array([data.draw(st.floats(0.01, 1.0)) for _ in range(2 ** (n_db + 1))])
        state = DensityState(raw / raw.sum())
    elif init == "thermal":
        state = thermal_state(sys, polarization=1e-3)
    else:
        state = effective_pure_ancilla(sys)
    pat = QueryPattern.from_string(
        "".join(data.draw(st.sampled_from("01x")) for _ in range(n_db))
    )
    network = build_query_network(sys, pat)
    if data.draw(st.booleans()):
        network = expand_to_hard_pulses(network, sys)
    u = sequence_unitary(network, sys)
    dense = apply_unitary(state, u)
    fast = apply_query_diagonal(state, pat)
    assert np.max(np.abs(fast.populations - dense.populations)) < 1e-9
    blocks = _apply_product(state, *_compressed_product(network, sys))
    assert np.max(np.abs(blocks.populations - dense.populations)) <= 1e-12
    reference = np.real(np.diag(u @ np.diag(state.populations) @ u.conj().T))
    assert np.max(np.abs(dense.populations - reference)) <= 1e-12
