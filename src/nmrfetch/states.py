"""Mixed-state engine for the spin ensemble.

States are density operators over the register's logical basis (qubit 0 =
ancilla = most significant bit).  Two representations are supported: a
plain population vector for the diagonal states the standard pipeline
produces, and a dense matrix for anything conjugated by a non-diagonal
unitary.  The engine is deliberately convention-free about which physical
spin state is "0"; that bookkeeping lives in the spectrometer.

The thermal state follows the high-temperature expansion

    rho = (1/N) (1 + eps0 * sum_i gamma_i sigma_z^i)

with the lower-energy (more populated) spin state on the +1 side of
sigma_z, so the thermal deviation of the ancilla is a scaled copy of the
effective-pure preparation and both initializations give identically
classified spectra.  The identity part is inert under conjugation and
contributes nothing to readout, but every state keeps it: states are
full density operators with unit trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import MAX_DENSE_QUBITS
from .spin_system import QueryPattern, SpinSystem

__all__ = [
    "DensityState",
    "StateError",
    "effective_pure_ancilla",
    "thermal_state",
    "apply_unitary",
    "apply_query_diagonal",
]

_HERMITICITY_ATOL = 1e-12
_DIAGONAL_ATOL = 1e-10


class StateError(ValueError):
    """Raised for malformed or unsupported ensemble states."""


@dataclass(frozen=True, eq=False)
class DensityState:
    """Density operator, stored as populations (diagonal) or full matrix."""

    n_qubits: int
    populations: np.ndarray | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if (self.populations is None) == (self.matrix is None):
            raise StateError("state needs exactly one of populations or matrix")
        dim = 2**self.n_qubits
        if self.populations is not None:
            pops = np.asarray(self.populations, dtype=float)
            if pops.shape != (dim,):
                raise StateError(f"population vector must have length {dim}")
            if np.any(pops < -_HERMITICITY_ATOL):
                raise StateError("negative population")
            if abs(pops.sum() - 1.0) > 1e-9:
                raise StateError("populations must sum to 1")
            object.__setattr__(self, "populations", pops)
            pops.flags.writeable = False
        else:
            mat = np.asarray(self.matrix, dtype=complex)
            if mat.shape != (dim, dim):
                raise StateError(f"matrix must be {dim}x{dim}")
            if np.max(np.abs(mat - mat.conj().T)) > _HERMITICITY_ATOL:
                raise StateError("matrix is not Hermitian")
            if abs(np.trace(mat).real - 1.0) > 1e-9:
                raise StateError("matrix trace must be 1")
            object.__setattr__(self, "matrix", mat)
            mat.flags.writeable = False

    @classmethod
    def from_populations(cls, pops: np.ndarray) -> "DensityState":
        pops = np.asarray(pops, dtype=float)
        n = int(np.log2(len(pops)))
        if 2**n != len(pops):
            raise StateError("population length must be a power of two")
        return cls(n_qubits=n, populations=pops)

    @property
    def is_diagonal(self) -> bool:
        return self.populations is not None

    @property
    def n_database(self) -> int:
        return self.n_qubits - 1

    def as_matrix(self) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix
        return np.diag(self.populations.astype(complex))

    def as_populations(self, atol: float = _DIAGONAL_ATOL) -> np.ndarray:
        """Population vector; dense states must be diagonal to ``atol``."""
        if self.populations is not None:
            return self.populations
        off = self.matrix - np.diag(np.diag(self.matrix))
        worst = float(np.max(np.abs(off))) if off.size else 0.0
        if worst > atol:
            raise StateError(
                f"state has off-diagonal weight {worst:.3g}; not a population state"
            )
        return np.real(np.diag(self.matrix)).copy()

    def ancilla_difference(self) -> np.ndarray:
        """p(ancilla=0, item) - p(ancilla=1, item) per database item."""
        pops = self.as_populations()
        half = len(pops) // 2
        return pops[:half] - pops[half:]


def effective_pure_ancilla(system: SpinSystem) -> DensityState:
    """Ancilla polarized, database maximally mixed.

    Populations are 1/2**n on every (ancilla=0, item) label and zero on the
    ancilla=1 half: the unsorted-database preparation.
    """
    dim = 2**system.n_spins
    pops = np.zeros(dim)
    pops[: dim // 2] = 1.0 / (dim // 2)
    return DensityState(n_qubits=system.n_spins, populations=pops)


def thermal_state(system: SpinSystem, polarization: float = 1e-5) -> DensityState:
    """High-temperature equilibrium state of the register.

    ``polarization`` is the small per-unit-gamma deviation scale (about
    1e-5 for a real spectrometer).  Each spin contributes a sigma_z term
    weighted by its relative gyromagnetic ratio; the result is diagonal
    with populations (1 + polarization * sum_i gamma_i z_i) / N over the
    basis, z_i = +-1.
    """
    if polarization < 0:
        raise StateError("polarization must be non-negative")
    gammas = system.gammas()
    if polarization * gammas.sum() >= 1.0:
        raise StateError(
            "polarization too large: populations would go negative"
        )
    m = system.n_spins
    dim = 2**m
    idx = np.arange(dim)
    dev = np.zeros(dim)
    for q in range(m):
        z = 1.0 - 2.0 * ((idx >> (m - 1 - q)) & 1)
        dev += gammas[q] * z
    pops = (1.0 + polarization * dev) / dim
    return DensityState(n_qubits=m, populations=pops)


def apply_unitary(state: DensityState, unitary: np.ndarray) -> DensityState:
    """Conjugate the state: rho -> U rho U^dagger (dense)."""
    if state.n_qubits > MAX_DENSE_QUBITS:
        raise StateError("dense conjugation limited to small registers")
    dim = 2**state.n_qubits
    unitary = np.asarray(unitary, dtype=complex)
    if unitary.shape != (dim, dim):
        raise StateError(f"unitary must be {dim}x{dim}")
    rho = unitary @ state.as_matrix() @ unitary.conj().T
    rho = 0.5 * (rho + rho.conj().T)  # scrub rounding-level anti-Hermitian noise
    return DensityState(n_qubits=state.n_qubits, matrix=rho)


def apply_query_diagonal(state: DensityState, pattern: QueryPattern) -> DensityState:
    """Exact population-permutation form of the query on a diagonal state.

    For every basis label (a, item) the population moves to
    (a XOR match(item), item).  Applying the same pattern twice is the
    identity.
    """
    pops = state.as_populations()
    n = state.n_database
    mask = pattern.match_mask(n)
    half = 2**n
    out = pops.copy()
    sel = np.nonzero(mask)[0]
    out[sel], out[sel + half] = pops[sel + half], pops[sel]
    return DensityState(n_qubits=state.n_qubits, populations=out)

