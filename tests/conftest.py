"""Shared builders for synthetic spin registers and a product's rounding bound."""

import dataclasses

import numpy as np
import pytest

from nmrfetch import Spin, SpinSystem


def make_system(ancilla_row, multiplicities=None, offsets=None, full_j=None):
    """Register with the given ancilla couplings (Hz), optionally a full J matrix.

    ancilla_row: couplings J_0i for database qubits i = 1..n.
    full_j: optional (n+1, n+1) symmetric matrix overriding everything.
    """
    n = len(ancilla_row)
    mults = multiplicities or [1] * n
    offs = offsets or [0.0] * (n + 1)
    spins = [Spin("A0", species="carbon", offset_hz=offs[0])]
    for i in range(n):
        spins.append(
            Spin(
                f"Q{i + 1}",
                species="carbon",
                offset_hz=offs[i + 1],
                multiplicity=mults[i],
            )
        )
    if full_j is not None:
        j = np.asarray(full_j, dtype=float)
    else:
        j = np.zeros((n + 1, n + 1))
        j[0, 1:] = ancilla_row
        j[1:, 0] = ancilla_row
    return SpinSystem(spins=tuple(spins), j_hz=j)


def superincreasing_config(n_database, negative=(), composite=()):
    """Config-file text: ancilla plus n plain spins with |J_0i| = 1.5 * 2**(n - i) Hz.

    Database qubits listed in ``negative`` (1-based) couple with a negative
    sign, so their bit is stored in the flipped spin state; those listed in
    ``composite`` are methyl-like groups of three equivalent spins.
    """
    lines = ["ancilla = A", "[spin.A]", "species = carbon"]
    for i in range(1, n_database + 1):
        lines += [f"[spin.Q{i}]", "species = carbon"]
        if i in composite:
            lines.append("multiplicity = 3")
    lines.append("[couplings]")
    for i in range(1, n_database + 1):
        sign = -1 if i in negative else 1
        lines.append(f"A-Q{i} = {sign * 1.5 * 2 ** (n_database - i)}")
    return "\n".join(lines) + "\n"


def ancilla_shifted(system, delta_hz):
    """The register with its ancilla's offset moved by ``delta_hz``: its multiplet moves with it."""
    ancilla = system.spins[0]
    moved = dataclasses.replace(ancilla, offset_hz=ancilla.offset_hz + delta_hz)
    return SpinSystem((moved,) + system.spins[1:], system.j_hz)


def random_full_system(rng, n_database, j_scale=40.0, offset_scale=30.0):
    """All couplings nonzero and nondegenerate; offsets on every spin."""
    m = n_database + 1
    j = np.zeros((m, m))
    for a in range(m):
        for b in range(a + 1, m):
            val = 0.0
            while abs(val) < 2.0:  # keep delays bounded and couplings resolved
                val = rng.uniform(-j_scale, j_scale)
            j[a, b] = j[b, a] = round(val, 3)
    offsets = [round(rng.uniform(-offset_scale, offset_scale), 3) for _ in range(m)]
    return make_system(list(j[0, 1:]), offsets=offsets, full_j=j)


def rounding_bound(product, populations):
    """4 (row-norm defect + eps) max(p): how far a product's rounding may move a population.

    The row-norm defect is max |sum |u|^2 - 1| over the rows of a dense
    product, or of a block product's blocks; a population moved by no more
    than this is put back to its prepared value after a conjugation.
    """
    defect = np.max(np.abs(np.sum(np.abs(product) ** 2, axis=-1) - 1.0))
    return 4.0 * (defect + np.finfo(float).eps) * np.max(populations)


@pytest.fixture
def two_spin():
    """Ancilla plus one database qubit, J = 10 Hz."""
    return make_system([10.0])


@pytest.fixture
def three_spin():
    """Ancilla plus two database qubits with distinct couplings."""
    return make_system([30.0, 8.0])
