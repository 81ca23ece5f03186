"""Mixed-state engine for the spin ensemble.

A state is a population vector over the register's logical basis (qubit 0 =
ancilla = most significant bit): every molecule holds one basis label, the
query permutes populations and readout reads population differences, so no
coherent state ever arises.  A query is applied by ``_apply_product``, which
conjugates the populations with the compiler's product, one 2x2 ancilla
block per item, and keeps only the diagonal.  It refuses a product
whose rows miss unit norm, or that leaves coherence behind, by more than
1e-10, and puts every population that moved by no more than the product's
own rounding, 4 (row-norm defect + eps) times the largest population, back
to its prepared value, so a query changes the populations of the items it
matches and no others; ``apply_query_diagonal`` is the same query as a
population permutation.  The engine is deliberately convention-free about
which physical spin state is "0"; that bookkeeping lives in the
spectrometer.

The thermal state follows the high-temperature expansion

    rho = (1/N) (1 + eps0 * sum_i gamma_i sigma_z^i)

with the lower-energy (more populated) spin state on the +1 side of
sigma_z, so the thermal deviation of the ancilla is a scaled copy of the
effective-pure preparation and both initializations give identically
classified spectra.  The identity part is inert under conjugation and
contributes nothing to readout, but every state keeps it: populations sum
to one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin_system import QueryPattern, SpinSystem

__all__ = [
    "DensityState",
    "StateError",
    "effective_pure_ancilla",
    "thermal_state",
    "apply_query_diagonal",
]

_NEGATIVE_ATOL = 1e-12
_DIAGONAL_ATOL = 1e-10


class StateError(ValueError):
    """Raised for malformed or unsupported ensemble states."""


@dataclass(frozen=True, eq=False)
class DensityState:
    """Diagonal density operator: one population per basis label, ancilla first."""

    populations: np.ndarray

    def __post_init__(self):
        pops = np.asarray(self.populations, dtype=float)
        if pops.ndim != 1 or pops.size < 2 or pops.size & (pops.size - 1):
            raise StateError(
                "population vector needs 2**n entries with n >= 1 (ancilla first)"
            )
        if not np.all(np.isfinite(pops)):
            raise StateError("populations must be finite")
        if np.any(pops < -_NEGATIVE_ATOL):
            raise StateError("negative population")
        if abs(pops.sum() - 1.0) > 1e-9:
            raise StateError("populations must sum to 1")
        object.__setattr__(self, "populations", pops)
        pops.flags.writeable = False

    @property
    def n_qubits(self) -> int:
        return self.populations.size.bit_length() - 1

    @property
    def n_database(self) -> int:
        return self.n_qubits - 1

    def ancilla_difference(self) -> np.ndarray:
        """p(ancilla=0, item) - p(ancilla=1, item) per database item."""
        half = self.populations.size // 2
        return self.populations[:half] - self.populations[half:]


def effective_pure_ancilla(system: SpinSystem) -> DensityState:
    """Ancilla polarized, database maximally mixed.

    Populations are 1/2**n on every (ancilla=0, item) label and zero on the
    ancilla=1 half: the unsorted-database preparation.
    """
    dim = 2**system.n_spins
    pops = np.zeros(dim)
    pops[: dim // 2] = 1.0 / (dim // 2)
    return DensityState(pops)


def thermal_state(system: SpinSystem, polarization: float = 1e-5) -> DensityState:
    """High-temperature equilibrium state of the register.

    ``polarization`` is the small per-unit-gamma deviation scale (about
    1e-5 for a real spectrometer).  Each spin contributes a sigma_z term
    weighted by its relative gyromagnetic ratio; the result is diagonal
    with populations (1 + sum_i e_i z_i) / N over the basis, z_i = +-1,
    where e_i is polarization * gamma_i rounded to a multiple of 2^-52.
    Every partial sum is then a multiple of 2^-52 below 2 in magnitude, so
    every population is exact: the populations sum to exactly 1 and the
    ancilla difference is 2 e_0 / N on every item, bit for bit, as the
    effective-pure state's is 1 / 2^n.
    """
    if polarization < 0:
        raise StateError("polarization must be non-negative")
    gammas = system.gammas()
    if polarization * gammas.sum() >= 1.0:
        raise StateError(
            "polarization too large: populations would go negative"
        )
    # each spin's deviation on the 2^-52 grid, so every sum below is exact
    spin_dev = np.ldexp(np.rint(np.ldexp(polarization * gammas, 52)), -52)
    m = system.n_spins
    dim = 2**m
    idx = np.arange(dim)
    dev = np.zeros(dim)
    for q in range(m):
        z = 1.0 - 2.0 * ((idx >> (m - 1 - q)) & 1)
        dev += spin_dev[q] * z
    pops = (1.0 + dev) / dim
    return DensityState(pops)


def _conjugate_blocks(populations: np.ndarray, blocks: np.ndarray, src: np.ndarray) -> tuple[np.ndarray, float]:
    """Diagonal of U diag(p) U^dagger and its largest off-diagonal entry.

    ``(blocks, src)`` is ``compiler._compressed_product``'s form of U: rows
    (0, i) and (1, i) hold item i's 2x2 block in the columns (0, src[i])
    and (1, src[i]).  Two rows of U rho U^dagger can only meet where their
    columns do, so its support is one 2x2 block per item, the block times
    the populations of (0, src[i]) and (1, src[i]) times its adjoint: O(2^n)
    in all.
    """
    half = populations.size // 2
    pops = populations.reshape(2, half)[:, src].T
    rho = (blocks * pops[:, None, :]) @ blocks.conj().transpose(0, 2, 1)
    out = np.real(rho[:, [0, 1], [0, 1]]).T.ravel()
    rho[:, [0, 1], [0, 1]] = 0.0
    return out, float(np.max(np.abs(rho)))


def _apply_product(state: DensityState, blocks: np.ndarray, src: np.ndarray) -> DensityState:
    """Conjugate the state by a block product, item by item.

    The populations are the diagonal of U rho U^dagger, but no 2^n x 2^n
    matrix is built.  The product's row-norm defect max |sum_b |blocks[i,
    a, b]|^2 - 1| bounds how far rounding can move a population that U
    leaves in place: every population within 4 (defect + eps) max(p) of
    its prepared value gets that exact value back, so the items a query
    does not match differ from the prepared state by exactly 0.0.  A
    defect above 1e-10 is refused before the conjugation, since it would
    widen that bound until it hid a real change, and so is off-diagonal
    weight above 1e-10 after it.
    """
    before = state.populations
    defect = float(np.max(np.abs(np.sum(blocks.real**2 + blocks.imag**2, axis=2) - 1.0)))
    if defect > _DIAGONAL_ATOL:
        raise StateError(f"product rows deviate from unit norm by {defect:.3g}; not unitary")
    pops, worst = _conjugate_blocks(before, blocks, src)
    if worst > _DIAGONAL_ATOL:
        raise StateError(
            f"state has off-diagonal weight {worst:.3g}; not a population state"
        )
    rounding = 4.0 * (defect + np.finfo(float).eps) * float(np.max(before))
    unmoved = np.abs(pops - before) <= rounding
    pops[unmoved] = before[unmoved]
    return DensityState(pops)


def apply_query_diagonal(state: DensityState, pattern: QueryPattern) -> DensityState:
    """Exact population-permutation form of the query on a diagonal state.

    For every basis label (a, item) the population moves to
    (a XOR match(item), item).  Applying the same pattern twice is the
    identity.
    """
    pops = state.populations
    n = state.n_database
    mask = pattern.match_mask(n)
    half = 2**n
    out = pops.copy()
    sel = np.nonzero(mask)[0]
    out[sel], out[sel + half] = pops[sel + half], pops[sel]
    return DensityState(out)

