"""Single-spin blocks, z-basis diagonals and the phase-blind distance.

Everything the simulator exponentiates is a sum of commuting products of
single-spin angular momentum operators I_a = sigma_a / 2, so all unitaries
have closed forms: a selective rotation is a 2x2 block and the
coupling/phase gates are diagonal.  No general matrix exponential is used,
and no operator on the whole register is built here: the compiler applies
blocks and diagonals to its column-compressed product directly.

Basis convention: qubit 0 occupies the most significant bit of the basis
index (plain Kronecker ordering), and sigma_z |0> = +|0>, i.e. basis state
0 of a spin is the I_z = +1/2 state.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "MAX_DENSE_QUBITS",
    "basis_bits",
    "z_eigenvalues",
    "rotation_block",
    "zz_hamiltonian_diagonal",
    "distance_up_to_global_phase",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_ID2 = np.eye(2, dtype=complex)

_AXIS_SIGMA = {
    "x": SIGMA_X,
    "y": SIGMA_Y,
    "z": SIGMA_Z,
    "-x": -SIGMA_X,
    "-y": -SIGMA_Y,
    "-z": -SIGMA_Z,
}

#: the most spins a register may have where an array grows as 2^spins: the
#: logical register of a query's column-compressed product (2^n rows) and
#: readout's expanded register (2^n_phys configurations)
MAX_DENSE_QUBITS = 12


def basis_bits(n_qubits: int, qubit: int) -> np.ndarray:
    """Bit value of one qubit across all 2**n basis states."""
    idx = np.arange(2**n_qubits)
    return (idx >> (n_qubits - 1 - qubit)) & 1


def z_eigenvalues(n_qubits: int, qubit: int) -> np.ndarray:
    """I_z eigenvalue (+1/2 or -1/2) of one qubit across the basis."""
    return 0.5 - basis_bits(n_qubits, qubit)


def rotation_block(axis: str, angle: float) -> np.ndarray:
    """2x2 unitary exp(-i * angle * I_axis)."""
    try:
        sigma = _AXIS_SIGMA[axis]
    except KeyError as exc:
        raise ValueError(f"unknown axis {axis!r}") from exc
    half = 0.5 * angle
    return np.cos(half) * _ID2 - 1.0j * np.sin(half) * sigma


def zz_hamiltonian_diagonal(offsets_hz: np.ndarray, j_hz: np.ndarray) -> np.ndarray:
    """Diagonal of the weak-coupling Hamiltonian, rad/s.

    H = 2 pi sum_i  nu_i I_z^i  +  2 pi sum_{i<j} J_ij I_z^i I_z^j

    restricted to a z-product basis, so each coupled partner in state
    m = +-1/2 shifts a line by J*m Hz (a doublet split by J).
    """
    offsets_hz = np.asarray(offsets_hz, dtype=float)
    j_hz = np.asarray(j_hz, dtype=float)
    m = len(offsets_hz)
    if j_hz.shape != (m, m):
        raise ValueError("offset / coupling shape mismatch")
    diag = np.zeros(2**m)
    zs = [z_eigenvalues(m, q) for q in range(m)]
    for q in range(m):
        diag += 2.0 * np.pi * offsets_hz[q] * zs[q]
    for a in range(m):
        for b in range(a + 1, m):
            if j_hz[a, b] != 0.0:
                diag += 2.0 * np.pi * j_hz[a, b] * zs[a] * zs[b]
    return diag


def distance_up_to_global_phase(u: np.ndarray, v: np.ndarray) -> float:
    """Max-norm distance between two arrays modulo one global phase.

    The phase is fixed by aligning the entries at the position where |v|
    is largest; exact for arrays that truly differ by a phase.  The arrays
    may be matrices or the ``acc`` blocks of two column-compressed products
    with the same support (see ``compiler._product_distance``).
    """
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch {u.shape} vs {v.shape}")
    idx = np.unravel_index(np.argmax(np.abs(v)), v.shape)
    uref, vref = u[idx], v[idx]
    if abs(uref) == 0.0 or abs(vref) == 0.0:
        phase = 1.0
    else:
        phase = (uref / abs(uref)) * (abs(vref) / vref)
    return float(np.max(np.abs(u - phase * v)))

