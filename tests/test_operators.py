"""Rotation blocks, the direct oracle's blocks, the dense test reference and phase-blind comparison.

The independent oracle here is scipy's expm applied to explicitly built
generators; the package itself never uses expm.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from nmrfetch import QueryPattern, distance_up_to_global_phase
from nmrfetch.cli import direct_oracle_unitary
from nmrfetch.operators import basis_bits, rotation_block, zz_hamiltonian_diagonal

from conftest import make_system
from dense_reference import controlled_phase_direct, rotation, toggle

SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def unitarity_defect(u):
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


angles = st.floats(min_value=-4 * math.pi, max_value=4 * math.pi)


# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------


def test_z_rotation_diagonal():
    u = rotation_block("z", math.pi)
    assert np.allclose(u, np.diag([np.exp(-1j * math.pi / 2), np.exp(1j * math.pi / 2)]))


def test_full_turn_is_minus_identity():
    # spinor sign: a 2*pi rotation is -1, not +1
    u = rotation_block("x", 2 * math.pi)
    assert np.allclose(u, -np.eye(2))


def test_embedded_y_rotation_block():
    # the dense reference's Kronecker embedding, qubit 0 most significant
    u = rotation(1, "y", math.pi / 2, 2)
    block = expm(-1j * (math.pi / 4) * SIGMA["y"])
    assert np.allclose(u, np.kron(np.eye(2), block))


@settings(max_examples=60)
@given(axis=st.sampled_from(["x", "y", "z", "-x", "-y", "-z"]), angle=angles)
def test_rotation_matches_expm_oracle(axis, angle):
    sign = -1.0 if axis.startswith("-") else 1.0
    want = expm(-1j * angle * sign * SIGMA[axis[-1]] / 2)
    assert np.max(np.abs(rotation_block(axis, angle) - want)) < 1e-12


@settings(max_examples=40)
@given(axis=st.sampled_from(["x", "y", "z"]), a1=angles, a2=angles)
def test_rotation_additivity(axis, a1, a2):
    u = rotation_block(axis, a1) @ rotation_block(axis, a2)
    v = rotation_block(axis, a1 + a2)
    assert np.max(np.abs(u - v)) < 1e-12


@settings(max_examples=30)
@given(a1=angles, a2=angles)
def test_rotations_on_distinct_qubits_commute(a1, a2):
    u = rotation(0, "x", a1, 2)
    v = rotation(1, "y", a2, 2)
    assert np.max(np.abs(u @ v - v @ u)) < 1e-12


def test_negative_axes():
    for axis in "xyz":
        u = rotation_block(f"-{axis}", math.pi / 3)
        v = rotation_block(axis, -math.pi / 3)
        assert np.allclose(u, v)
    with pytest.raises(ValueError, match="unknown axis"):
        rotation_block("w", 1.0)


# ---------------------------------------------------------------------------
# basis conventions
# ---------------------------------------------------------------------------


def test_qubit_zero_is_most_significant():
    bits = basis_bits(2, 0)
    assert bits.tolist() == [0, 0, 1, 1]
    assert basis_bits(2, 1).tolist() == [0, 1, 0, 1]


def test_hamiltonian_doublet_splitting():
    # one J=10 coupling splits the ancilla transition to +-5 Hz
    energies = zz_hamiltonian_diagonal(np.array([0.0, 0.0]), np.array([[0, 10.0], [10.0, 0]]))
    delta = energies[2:] - energies[:2]  # ancilla flip per database state
    freqs = -delta / (2 * math.pi)
    assert sorted(freqs) == pytest.approx([-5.0, 5.0])


# ---------------------------------------------------------------------------
# the direct oracle's per-item blocks, built on the hadamard-like pulse pair
# H = exp(-i pi I_x) exp(-i pi/2 I_y) = -i (Hadamard)
# ---------------------------------------------------------------------------


def oracle_blocks(system, pattern):
    """The direct oracle's 2x2 ancilla block of every item, (items, 2, 2)."""
    blocks, src = direct_oracle_unitary(system, QueryPattern.from_string(pattern))
    assert src.tolist() == list(range(2**system.n_database))  # no item moves
    return blocks


def test_hadamard_like_closed_form():
    # H diag(-i, i) H on a matching item, H H on any other, with H = -i Had
    had = (1 / math.sqrt(2)) * np.array([[1, 1], [1, -1]], dtype=complex)
    kick = np.diag([-1j, 1j])
    miss, hit = oracle_blocks(make_system([10.0]), "1")
    assert np.allclose(miss, (-1j * had) @ (-1j * had))
    assert np.allclose(hit, (-1j * had) @ kick @ (-1j * had))
    # closed forms: -1 off the pattern, i sigma_x on it
    assert np.allclose(miss, -np.eye(2))
    assert np.allclose(hit, 1j * SIGMA["x"])


def test_hadamard_like_involution_up_to_phase():
    # the toggle pair undoes itself on every item the pattern misses
    blocks = oracle_blocks(make_system([40.0, 17.0, 8.0]), "10x")
    for item, block in enumerate(blocks):
        if item not in (4, 5):
            assert distance_up_to_global_phase(block, np.eye(2)) < 1e-12


def test_hadamard_maps_z_to_x():
    # the z phase kick between the toggles becomes a population flip
    blocks = oracle_blocks(make_system([40.0, 17.0, 8.0]), "10x")
    for item in (4, 5):
        assert np.max(np.abs(np.abs(blocks[item]) - np.abs(SIGMA["x"]))) < 1e-12


# ---------------------------------------------------------------------------
# controlled phase, built two independent ways
# ---------------------------------------------------------------------------


def phase_oracle(n, target, controls, angle):
    """Brute-force basis enumeration of the controlled z phase."""
    dim = 2**n
    diag = np.ones(dim, dtype=complex)
    for idx in range(dim):
        if all((idx >> (n - 1 - q)) & 1 == pol for q, pol in controls):
            z = 0.5 - ((idx >> (n - 1 - target)) & 1)
            diag[idx] = np.exp(-1j * angle * z)
    return np.diag(diag)


def test_three_control_branch_structure():
    # only the |100> control branch acts on the target
    u = controlled_phase_direct(4, target=3, controls=[(0, 1), (1, 0), (2, 0)], angle=math.pi)
    assert unitarity_defect(u) < 1e-12
    d = np.diag(u)
    for idx in range(16):
        bits = [(idx >> (3 - q)) & 1 for q in range(4)]
        if bits[:3] == [1, 0, 0]:
            want = np.exp(-1j * math.pi * (0.5 - bits[3]))
        else:
            want = 1.0
        assert abs(d[idx] - want) < 1e-12


def test_zero_controls_is_z_rotation():
    u = controlled_phase_direct(2, target=1, controls=[], angle=0.7)
    assert np.allclose(u, rotation(1, "z", 0.7, 2))


def test_zero_angle_identity():
    u = controlled_phase_direct(3, target=0, controls=[(1, 1), (2, 0)], angle=0.0)
    assert np.allclose(u, np.eye(8))


@settings(max_examples=60)
@given(
    n_controls=st.integers(1, 3),
    data=st.data(),
)
def test_controlled_phase_matches_enumeration(n_controls, data):
    n = n_controls + 1
    target = 0
    controls = [(q, data.draw(st.integers(0, 1))) for q in range(1, n_controls + 1)]
    angle = data.draw(angles)
    u = controlled_phase_direct(n, target, controls, angle)
    ref = phase_oracle(n, target, controls, angle)
    assert np.max(np.abs(u - ref)) < 1e-12


def test_controlled_phase_with_signs():
    # a negative sign on a control inverts which spin state counts as that bit
    u_neg = controlled_phase_direct(2, 0, [(1, 1)], math.pi, signs=[-1])
    u_pos = controlled_phase_direct(2, 0, [(1, 0)], math.pi, signs=[1])
    assert np.max(np.abs(u_neg - u_pos)) < 1e-12


def test_controlled_phase_target_in_controls_rejected():
    with pytest.raises(ValueError):
        controlled_phase_direct(2, 0, [(0, 1)], 1.0)


def test_controlled_phase_diagonal_unit_modulus():
    u = controlled_phase_direct(3, 2, [(0, 1)], 1.234)
    assert np.allclose(u, np.diag(np.diag(u)))
    assert np.allclose(np.abs(np.diag(u)), 1.0)


# ---------------------------------------------------------------------------
# comparison helper
# ---------------------------------------------------------------------------


def test_distance_ignores_global_phase():
    u = toggle(0, 2)
    assert distance_up_to_global_phase(u, u * np.exp(1j * math.pi / 3)) < 1e-14


def test_distance_detects_disjoint_supports():
    x = SIGMA["x"]
    assert distance_up_to_global_phase(np.eye(2), x) == pytest.approx(1.0)


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        distance_up_to_global_phase(np.eye(2), np.eye(4))


def test_constructors_are_unitary():
    for u in (
        rotation(1, "y", 0.3, 3),
        toggle(2, 3),
        controlled_phase_direct(3, 1, [(0, 0), (2, 1)], 2.2),
    ):
        assert unitarity_defect(u) < 1e-10
