"""Dense multi-spin operator kernel.

Everything the simulator exponentiates is a sum of commuting products of
single-spin angular momentum operators I_a = sigma_a / 2, so all unitaries
here have closed forms: selective rotations are embedded 2x2 blocks and the
coupling/phase gates are diagonal.  No general matrix exponential is used.

Basis convention: qubit 0 occupies the most significant bit of the basis
index (plain Kronecker ordering), and sigma_z |0> = +|0>, i.e. basis state
0 of a spin is the I_z = +1/2 state.

Dense construction is intended for small registers; callers should keep
the spin count at or below MAX_DENSE_QUBITS.
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
    "embed_operator",
    "rotation_block",
    "single_spin_rotation",
    "hadamard_like",
    "controlled_phase_direct",
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

#: dense matrices above this register size are refused (16 MB of complex128)
MAX_DENSE_QUBITS = 12


def _check_dims(n_qubits: int, *qubits: int) -> None:
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    if n_qubits > MAX_DENSE_QUBITS:
        raise ValueError(
            f"dense operators limited to {MAX_DENSE_QUBITS} qubits, got {n_qubits}"
        )
    for q in qubits:
        if not 0 <= q < n_qubits:
            raise IndexError(f"qubit {q} out of range for {n_qubits}-qubit register")


def basis_bits(n_qubits: int, qubit: int) -> np.ndarray:
    """Bit value of one qubit across all 2**n basis states."""
    idx = np.arange(2**n_qubits)
    return (idx >> (n_qubits - 1 - qubit)) & 1


def z_eigenvalues(n_qubits: int, qubit: int) -> np.ndarray:
    """I_z eigenvalue (+1/2 or -1/2) of one qubit across the basis."""
    return 0.5 - basis_bits(n_qubits, qubit)


def embed_operator(block: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    """Kronecker-embed a 2x2 block on one qubit, identity elsewhere."""
    _check_dims(n_qubits, qubit)
    left = np.eye(2**qubit, dtype=complex)
    right = np.eye(2 ** (n_qubits - qubit - 1), dtype=complex)
    return np.kron(np.kron(left, block), right)


def rotation_block(axis: str, angle: float) -> np.ndarray:
    """2x2 unitary exp(-i * angle * I_axis)."""
    try:
        sigma = _AXIS_SIGMA[axis]
    except KeyError as exc:
        raise ValueError(f"unknown axis {axis!r}") from exc
    half = 0.5 * angle
    return np.cos(half) * _ID2 - 1.0j * np.sin(half) * sigma


def single_spin_rotation(
    qubit: int, axis: str, angle: float, n_qubits: int
) -> np.ndarray:
    """exp(-i * angle * I_axis) acting on one spin of the register."""
    return embed_operator(rotation_block(axis, angle), qubit, n_qubits)


def hadamard_like(qubit: int, n_qubits: int) -> np.ndarray:
    """Basis-toggling pulse pair exp(-i pi I_x) exp(-i pi/2 I_y).

    Proportional to the usual Hadamard ([[1, 1], [1, -1]] / sqrt(2)) up to
    a global phase; applying it twice is the identity up to phase, and it
    converts a z-phase flip into a population flip on the spin.
    """
    return single_spin_rotation(qubit, "x", np.pi, n_qubits) @ single_spin_rotation(
        qubit, "y", np.pi / 2.0, n_qubits
    )


def controlled_phase_direct(
    n_qubits: int,
    target: int,
    controls: list[tuple[int, int]],
    angle: float,
    signs: list[int] | None = None,
) -> np.ndarray:
    """Closed-form multi-controlled z phase on the target spin.

    Implements exp(-i * angle * I_z^target * prod_c P_c) where each control
    factor P_c = (1 + s_c (-1)^{p_c} 2 I_z^c) / 2 projects onto the spin
    state selected by polarity p_c under sign convention s_c.  With all
    signs +1 the phase fires exactly on basis states whose control bits
    equal the polarities.  This is the reference ("direct") construction
    the pulse-level compiler is checked against.
    """
    _check_dims(n_qubits, target, *(q for q, _ in controls))
    if signs is None:
        signs = [1] * len(controls)
    if len(signs) != len(controls):
        raise ValueError("need one sign per control")
    seen = {target}
    proj = np.ones(2**n_qubits)
    for (qubit, polarity), sign in zip(controls, signs):
        if qubit in seen:
            raise ValueError(f"qubit {qubit} used twice in controlled phase")
        seen.add(qubit)
        if polarity not in (0, 1):
            raise ValueError("polarity must be 0 or 1")
        if sign not in (-1, 1):
            raise ValueError("signs must be +1 or -1")
        proj *= 0.5 * (1.0 + sign * (-1.0) ** polarity * 2.0 * z_eigenvalues(n_qubits, qubit))
    phases = np.exp(-1.0j * angle * z_eigenvalues(n_qubits, target) * proj)
    return np.diag(phases)


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
    """Max-norm distance between two matrices modulo a global phase.

    The phase is fixed by aligning the entries at the position where |v|
    is largest; exact for matrices that truly differ by a phase.
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

