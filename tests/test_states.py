"""Ensemble preparations and how queries act on them."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nmrfetch import (
    DensityState,
    QueryPattern,
    Spin,
    SpinSystem,
    StateError,
    apply_query_diagonal,
    apply_unitary,
    build_query_network,
    crotonic_default,
    effective_pure_ancilla,
    sequence_unitary,
    thermal_state,
)

from conftest import make_system


def purity(state):
    return float(np.real(np.trace(state.as_matrix() @ state.as_matrix())))


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_populations_must_normalize():
    with pytest.raises(StateError):
        DensityState(1, populations=np.array([0.7, 0.5]))


def test_exactly_one_representation():
    with pytest.raises(StateError):
        DensityState(1)
    with pytest.raises(StateError):
        DensityState(1, populations=np.array([1.0, 0.0]), matrix=np.eye(2) / 2)


def test_matrix_must_be_hermitian():
    with pytest.raises(StateError):
        DensityState(1, matrix=np.array([[0.5, 0.4], [0.1, 0.5]]))


def test_negative_population_rejected():
    with pytest.raises(StateError):
        DensityState(1, populations=np.array([1.2, -0.2]))


def test_length_must_match_qubit_count():
    with pytest.raises(StateError):
        DensityState(2, populations=np.array([1.0, 0.0]))


def test_as_populations_rejects_coherent_matrix():
    mat = np.array([[0.5, 0.5], [0.5, 0.5]])
    state = DensityState(1, matrix=mat)
    with pytest.raises(StateError):
        state.as_populations()


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
    assert np.allclose(out.as_matrix(), state.as_matrix())


def test_apply_unitary_preserves_trace_hermiticity_purity():
    sys = make_system([10.0, 20.0])
    state = thermal_state(sys, polarization=1e-3)
    u = sequence_unitary(build_query_network(sys, QueryPattern.from_string("1x")), sys)
    out = apply_unitary(state, u)
    mat = out.as_matrix()
    assert np.trace(mat).real == pytest.approx(1.0)
    assert np.allclose(mat, mat.conj().T)
    assert purity(out) == pytest.approx(purity(state))


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
    h = np.full((2, 2), 0.5)
    state = DensityState(1, matrix=h)
    with pytest.raises(StateError):
        apply_query_diagonal(state, QueryPattern.from_string(""))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_query_diagonal_matches_dense_route(data):
    n_db = data.draw(st.integers(1, 3))
    couplings = [10.0 * (i + 1) for i in range(n_db)]
    sys = make_system(couplings)
    dim = 2 ** (n_db + 1)
    raw = np.array([data.draw(st.floats(0.01, 1.0)) for _ in range(dim)])
    pops = raw / raw.sum()
    state = DensityState(n_db + 1, populations=pops)
    pat = QueryPattern.from_string(
        "".join(data.draw(st.sampled_from("01x")) for _ in range(n_db))
    )
    fast = apply_query_diagonal(state, pat)
    u = sequence_unitary(build_query_network(sys, pat), sys)
    dense = apply_unitary(state, u)
    assert np.max(np.abs(fast.populations - dense.as_populations())) < 1e-9

