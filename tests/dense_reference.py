"""Dense reference for the tests: whole-register matrices, built the plain way.

The package never builds a 2^n x 2^n matrix: it compiles, applies and
compares queries as one 2x2 ancilla block per item.  These helpers build
the dense operators with Kronecker products and full matrix algebra, gate
by gate and without the compiler's product, so the block-wise routes can
be checked against them on small registers.
"""

import math

import numpy as np

from nmrfetch import Delay, DensityState, SelectivePulse, StateError, VirtualZ, ZZEvolution
from nmrfetch.operators import MAX_DENSE_QUBITS, rotation_block, z_eigenvalues, zz_hamiltonian_diagonal


def _check_dims(n_qubits, *qubits):
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    if n_qubits > MAX_DENSE_QUBITS:
        raise ValueError(
            f"dense operators limited to {MAX_DENSE_QUBITS} qubits, got {n_qubits}"
        )
    for q in qubits:
        if not 0 <= q < n_qubits:
            raise IndexError(f"qubit {q} out of range for {n_qubits}-qubit register")


def embed(block, qubit, n_qubits):
    """Kronecker-embed a 2x2 block on one qubit, identity elsewhere."""
    _check_dims(n_qubits, qubit)
    left = np.eye(2**qubit, dtype=complex)
    right = np.eye(2 ** (n_qubits - qubit - 1), dtype=complex)
    return np.kron(np.kron(left, block), right)


def rotation(qubit, axis, angle, n_qubits):
    """exp(-i * angle * I_axis) acting on one spin of the register."""
    return embed(rotation_block(axis, angle), qubit, n_qubits)


def toggle(qubit, n_qubits):
    """Basis-toggling pulse pair exp(-i pi I_x) exp(-i pi/2 I_y) on one spin."""
    return rotation(qubit, "x", math.pi, n_qubits) @ rotation(qubit, "y", math.pi / 2.0, n_qubits)


def controlled_phase_direct(n_qubits, target, controls, angle, signs=None):
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


def sequence_unitary(seq, system=None):
    """Gate-by-gate product: one dense 2^n x 2^n update for every gate.

    A hard-pulse sequence needs the register: a delay evolves under its
    always-on Hamiltonian in the logical frame.
    """
    n = seq.n_qubits
    ham = None
    if seq.mode == "hard_pulse":
        ham = zz_hamiltonian_diagonal(system.offsets_hz(), system.logical_j_hz)
    u = np.eye(2**n, dtype=complex)
    for gate in seq.gates:
        if isinstance(gate, SelectivePulse):
            view = u.reshape(2**gate.qubit, 2, -1)
            block = rotation_block(gate.axis, gate.angle)
            u = np.einsum("ab,qbr->qar", block, view).reshape(u.shape)
        elif isinstance(gate, ZZEvolution):
            zz = z_eigenvalues(n, gate.q1) * z_eigenvalues(n, gate.q2)
            u = np.exp(-2.0j * gate.angle * zz)[:, None] * u
        elif isinstance(gate, VirtualZ):
            u = np.exp(-1.0j * gate.angle * z_eigenvalues(n, gate.qubit))[:, None] * u
        elif isinstance(gate, Delay):
            u = np.exp(-1.0j * ham * gate.seconds)[:, None] * u
    return u


def scatter(blocks, src):
    """The dense matrix of a block product: row (a, i) holds blocks[i, a] in the columns (0, src[i]) and (1, src[i])."""
    items = len(src)
    u = np.zeros((2, items, 2, items), dtype=complex)
    for a, b in np.ndindex(2, 2):
        u[a, np.arange(items), b, src] = blocks[:, a, b]
    return u.reshape(2 * items, 2 * items)


def dense_oracle(system, pattern):
    """Direct oracle as one dense matrix: toggle, pi z phase on matching items, toggle."""
    n = system.n_spins
    half = 2**n // 2
    mask = pattern.match_mask(system.n_database)
    phases = np.ones(2**n, dtype=complex)
    phases[:half][mask] = np.exp(-0.5j * math.pi)
    phases[half:][mask] = np.exp(0.5j * math.pi)
    h = toggle(0, n)
    return h @ (phases[:, None] * h)


def apply_unitary(state, unitary):
    """Conjugate the state, rho -> U rho U^dagger (dense), and keep it a population state.

    Only the diagonal of the product is kept, so a unitary that leaves
    off-diagonal weight above 1e-10 is refused.
    """
    if state.n_qubits > MAX_DENSE_QUBITS:
        raise StateError("dense conjugation limited to small registers")
    dim = state.populations.size
    unitary = np.asarray(unitary, dtype=complex)
    if unitary.shape != (dim, dim):
        raise StateError(f"unitary must be {dim}x{dim}")
    rho = (unitary * state.populations) @ unitary.conj().T
    pops = np.real(np.diag(rho)).copy()
    np.fill_diagonal(rho, 0.0)
    worst = float(np.max(np.abs(rho)))
    if worst > 1e-10:
        raise StateError(f"state has off-diagonal weight {worst:.3g}; not a population state")
    return DensityState(pops)
