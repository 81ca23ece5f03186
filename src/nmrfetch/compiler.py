"""Pulse-level compiler for multi-controlled z phases and query networks.

The query that inverts the readout spin on matching database items is a
z phase on the ancilla conditioned on up to n database qubits, sandwiched
between basis-toggling pulse pairs.  The conditioned phase

    exp(-i * theta * I_z^t * prod_c (1 + eps_c 2 I_z^c) / 2)

is compiled by expanding the product: each subset S of controls yields one
commuting diagonal factor exp(-i lambda_S 2^|S| I_z..I_z) over |S|+1 spins.
Factors on 0 or 1 control map directly to a software z rotation or a ZZ
coupling period; higher factors are lowered one spin at a time with the
conjugation identity

    exp(-i lam 2^k I_{c1 z}..I_{ck z} I_{t z})
        = V exp(-i lam 2^{k-1} I_{c1 z}..I_{c(k-1) z} I_{t z}) V^dagger,
    V = exp(-i pi/2 I_x^t) exp(-i pi I_z^ck I_z^t)
        exp(+i pi/2 I_x^t) exp(-i pi/2 I_y^t)

whose middle factor is half a ZZ turn, so each conjugation costs two ZZ
periods and six selective pulses.  The subsets that hold the same outer
control share one conjugation by it: one recursion from the outermost
control (the last one given) inward emits, per control, the subsets of
the inner controls, that control's own ZZ period, and one conjugation by
it around the subsets it shares with an inner control.  So no gate is
emitted only to be undone by its inverse, and k controls cost
2^(k+1) - 3 ZZ periods in 2^(k-1) - 1 conjugations, the last control
conjugated only once.  A query network gives its controls strongest
ancilla coupling first, so that one has the weakest coupling and the
longest ZZ period.  The ideal gate list can further be expanded into a
hard-pulse schedule (delays under the always-on coupling Hamiltonian plus
refocusing pi pulses) in which every unwanted coupling and chemical shift
integrates to zero over the block.

Each distinct ZZ period is expanded once per register and the block,
checked, kept for later calls.  An expanded schedule's index is the ideal
network's, with each ZZ period's entry replaced by its echo block, so a
query pays per echo block, not per expanded gate.

``_compressed_product`` simulates either list exactly as one 2x2 ancilla
block per database item.  Delays, ZZ periods and frame z rotations are
diagonal, and a pi pulse about x or y is -i sigma, a signed bit flip; a
diagonal moved through a signed flip stays diagonal (Pauli-frame
bookkeeping), so every maximal run of such gates, and every echo block, is
one signed permutation times a diagonal phase, and every maximal run of
the other pulses is one 2x2 block on the ancilla.  A pulse that mixes a
database qubit is refused: a query never mixes two items.  A query network
repeats the same few runs many times, and queries on one register share
most of them, so each distinct run is composed once per register (once
per call without one) and applied once per occurrence.  A population state
is conjugated by the product item by item (``states._apply_product``), and
``_product_distance`` compares two products block by block, so no
2^n x 2^n matrix is ever built.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import weakref
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .operators import (
    MAX_DENSE_QUBITS,
    distance_up_to_global_phase,
    rotation_block,
    z_eigenvalues,
    zz_hamiltonian_diagonal,
)
from .spin_system import QueryPattern, SpinSystem

__all__ = [
    "SelectivePulse",
    "ZZEvolution",
    "VirtualZ",
    "Delay",
    "Gate",
    "GateSequence",
    "SequenceReport",
    "CompileError",
    "compile_multilinear_z_phase",
    "build_query_network",
    "expand_to_hard_pulses",
    "sequence_report",
    "format_sequence",
    "free_hamiltonian_diagonal",
]

_PULSE_AXES = ("x", "-x", "y", "-y")


class CompileError(ValueError):
    """Raised when a gate sequence cannot be produced for a register."""


@dataclass(frozen=True)
class SelectivePulse:
    """Ideal instantaneous rotation exp(-i angle I_axis) on one spin."""

    qubit: int
    axis: str  # x, y, -x or -y
    angle: float  # radians, canonically >= 0 (sign lives in the axis)


@dataclass(frozen=True)
class ZZEvolution:
    """Coupling phase exp(-i angle 2 I_z I_z) between two spins."""

    q1: int
    q2: int
    angle: float


@dataclass(frozen=True)
class VirtualZ:
    """Software frame rotation exp(-i angle I_z); takes no real time."""

    qubit: int
    angle: float


@dataclass(frozen=True)
class Delay:
    """Free evolution under the register's coupling Hamiltonian."""

    seconds: float


Gate = SelectivePulse | ZZEvolution | VirtualZ | Delay


@dataclass(frozen=True, eq=False)
class _EchoBlock:
    """One ZZ period's echo block on one register, as one entry of a schedule's index.

    Its gates were checked as a hard-pulse sequence when the register
    cached the block, and none of them mixes a qubit (``_expansion``
    refuses one that does), so the whole block lies inside one monomial
    run of a product.  A register keeps one block per distinct period, so
    a block compares and hashes by identity: a run that holds it is keyed
    by one hash for the block, not one per gate.
    """

    gates: tuple[Gate, ...]


Entry = Gate | _EchoBlock


def _gates_of(entry: Entry) -> tuple[Gate, ...]:
    """The gates of one index entry: an echo block's own, or the gate itself."""
    return entry.gates if isinstance(entry, _EchoBlock) else (entry,)


def _is_qubit(q) -> bool:
    # the exact type first: an abstract isinstance is slow, and a bool is an Integral
    return type(q) is int or (isinstance(q, numbers.Integral) and not isinstance(q, bool))


def _is_real(x) -> bool:
    return type(x) is float or isinstance(x, numbers.Real)


def _check_gate(gate, n_qubits: int, mode: str) -> None:
    """Refuse a gate that a sequence of this size and mode cannot hold."""
    if isinstance(gate, Delay):
        if mode != "hard_pulse":
            raise CompileError("delays only appear in hard-pulse sequences")
        if not (_is_real(gate.seconds) and 0 <= gate.seconds < math.inf):
            raise CompileError(f"delay must be finite and non-negative: {gate!r}")
        return
    if not isinstance(gate, (SelectivePulse, ZZEvolution, VirtualZ)):
        raise CompileError(f"unknown gate {gate!r}")
    if not (_is_real(gate.angle) and math.isfinite(gate.angle)):
        raise CompileError(f"gate angle must be a finite real number: {gate!r}")
    if isinstance(gate, ZZEvolution):
        if mode != "ideal":
            raise CompileError("ZZ periods only appear in ideal sequences")
        qubits = (gate.q1, gate.q2)
    else:
        if isinstance(gate, SelectivePulse) and gate.axis not in _PULSE_AXES:
            raise CompileError(f"bad pulse axis {gate.axis!r}")
        qubits = (gate.qubit,)
    for q in qubits:
        if not _is_qubit(q):
            raise CompileError(f"gate qubit {q!r} is not an integer: {gate!r}")
        if not 0 <= q < n_qubits:
            raise CompileError(f"gate qubit {q} out of range for {n_qubits}-qubit register")
    if len(qubits) == 2 and qubits[0] == qubits[1]:
        raise CompileError("ZZ period needs two distinct qubits")


@dataclass(frozen=True, init=False, eq=False, repr=False)
class GateSequence:
    """Time-ordered gate list (first gate acts first) on a register.

    ``mode`` is "ideal" (rotations, ZZ periods and virtual z only) or
    "hard_pulse" (rotations, delays and virtual z only).  Pulses are
    instantaneous, so the duration of a sequence is the sum of its delays.
    Every qubit must be an integer in range (not a bool), every angle and
    delay a finite real number, and no delay negative.

    A sequence is its index: ``_entries`` holds each distinct entry once,
    in order of first occurrence, and ``_codes`` the index into it of every
    entry in time order.  An entry is a gate, or, in an expanded schedule,
    a register's cached echo block (``expand_to_hard_pulses``).  ``gates``
    is derived from the index, each block giving its own gates.  The
    constructor indexes a flat gate list: an ideal network repeats its
    shared ``nest`` tuples, so the same gate objects recur, and they are
    first told apart by identity (the list keeps them alive, so ids stay
    unique); each object is checked, then looked up by value, once.
    """

    n_qubits: int
    mode: str
    _entries: tuple[Entry, ...]
    _codes: tuple[int, ...]

    def __init__(self, n_qubits: int, gates: tuple[Gate, ...], mode: str = "ideal"):
        if mode not in ("ideal", "hard_pulse"):
            raise CompileError(f"unknown sequence mode {mode!r}")
        if not (_is_qubit(n_qubits) and n_qubits >= 1):
            raise CompileError(f"sequence needs a positive integer number of qubits, not {n_qubits!r}")
        gates = tuple(gates)
        ids = list(map(id, gates))
        distinct: dict[Gate, int] = {}
        code_of = {}
        for key, gate in dict(zip(ids, gates)).items():  # first occurrence first
            _check_gate(gate, n_qubits, mode)  # before it is hashed: a non-gate may be unhashable
            code_of[key] = distinct.setdefault(gate, len(distinct))
        self._fill(n_qubits, mode, tuple(distinct), tuple(map(code_of.__getitem__, ids)))

    def _fill(self, n_qubits: int, mode: str, entries: tuple[Entry, ...], codes: tuple[int, ...]) -> None:
        for name, value in zip(("n_qubits", "mode", "_entries", "_codes"), (n_qubits, mode, entries, codes)):
            object.__setattr__(self, name, value)

    @classmethod
    def _indexed(
        cls, n_qubits: int, mode: str, entries: tuple[Entry, ...], codes: tuple[int, ...]
    ) -> GateSequence:
        """A sequence whose entries the caller checked and indexed (``expand_to_hard_pulses``)."""
        seq = object.__new__(cls)
        seq._fill(n_qubits, mode, entries, codes)
        return seq

    @property
    def gates(self) -> tuple[Gate, ...]:
        """The gates in time order: the entries as indexed, each echo block as its gates."""
        parts = list(map(_gates_of, self._entries))
        return tuple(itertools.chain.from_iterable(map(parts.__getitem__, self._codes)))

    def __len__(self) -> int:
        return len(self.gates)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GateSequence):
            return NotImplemented
        return (self.n_qubits, self.mode, self.gates) == (other.n_qubits, other.mode, other.gates)

    def __hash__(self) -> int:
        return hash((self.n_qubits, self.mode, self.gates))

    def __repr__(self) -> str:
        return f"GateSequence(n_qubits={self.n_qubits}, gates={self.gates!r}, mode={self.mode!r})"

    @property
    def duration_s(self) -> float:
        """The sum of the delays, in gate order."""
        delays = [[g.seconds for g in _gates_of(entry) if isinstance(g, Delay)] for entry in self._entries]
        return sum(itertools.chain.from_iterable(map(delays.__getitem__, self._codes)), 0.0)


def _conjugation(control: int, target: int) -> tuple[tuple[Gate, ...], tuple[Gate, ...]]:
    """V and V^dagger, as gate lists, of the conjugation by one control."""
    half = np.pi / 2
    v = (
        SelectivePulse(target, "y", half),
        SelectivePulse(target, "-x", half),
        ZZEvolution(control, target, half),
        SelectivePulse(target, "x", half),
    )
    v_dag = (
        SelectivePulse(target, "-x", half),
        ZZEvolution(control, target, -half),
        SelectivePulse(target, "x", half),
        SelectivePulse(target, "-y", half),
    )
    return v, v_dag


def _phase_gates(target: int, controls: list[tuple[int, int]], angle: float) -> list[Gate]:
    """The gates of ``compile_multilinear_z_phase``; its ``GateSequence`` checks qubits, angles."""
    seen = {target}
    eps: dict[int, float] = {}
    for qubit, polarity in controls:
        if qubit in seen:
            raise CompileError(f"qubit {qubit} used twice")
        seen.add(qubit)
        if polarity not in (0, 1):
            raise CompileError("polarity must be 0 or 1")
        eps[qubit] = (-1.0) ** polarity
    order = list(eps)  # as given; the last control is the outermost
    base = angle / 2.0 ** len(order)
    conjugations = [_conjugation(c, target) for c in order]

    @functools.cache
    def nest(j: int, sign: float) -> tuple[Gate, ...]:
        # the subsets of the first j controls that hold at least one of
        # them; sign is the product of the outer controls' polarities.  Each
        # (j, sign) is made once, so its ZZ period is one object however
        # often it recurs, and the sequence checks it once
        if j == 0:
            return ()
        c = order[j - 1]
        gates = nest(j - 1, sign) + (ZZEvolution(c, target, base * (sign * eps[c])),)
        if j > 1:
            v, v_dag = conjugations[j - 1]
            gates += v_dag + nest(j - 1, sign * eps[c]) + v
        return gates

    return [VirtualZ(target, base), *nest(len(order), 1.0)]


def compile_multilinear_z_phase(
    n_qubits: int, target: int, controls: list[tuple[int, int]], angle: float
) -> GateSequence:
    """Compile the conditioned z phase into pulses, ZZ periods and frame z.

    ``controls`` holds (qubit, polarity) pairs: the phase is
    exp(-i angle I_z^target prod_c P_c) with P_c = (1 + eps_c 2 I_z^c) / 2
    and eps_c = (-1)^{p_c}, so it fires exactly where the control bits
    equal the polarities.  The last control given is the outermost: with
    s the product of the polarities already conjugated outside, the
    subsets that hold some of controls C + [c] are emitted as

        N(C + [c], s) = N(C, s)  ZZ(c, t, base s eps_c)  [V_c^dagger N(C, s eps_c) V_c]

    (the bracket only for a nonempty C) after one frame z of angle
    base = angle / 2^k on the target.  So k controls cost 2^(k+1) - 3 ZZ
    periods and 6 (2^(k-1) - 1) pulses, and the last control is
    conjugated only once.  Non-finite angles raise ``CompileError``.
    """
    gates = _phase_gates(target, controls, angle)
    return GateSequence(n_qubits=n_qubits, gates=tuple(gates), mode="ideal")


def build_query_network(system: SpinSystem, pattern: QueryPattern) -> GateSequence:
    """Ideal gate network that inverts the ancilla on matching items.

    Layout: basis-toggling pulse pair on the ancilla, conditioned pi phase
    on the constrained qubits, closing pulse pair.  Conjugating a diagonal
    ensemble state by the result swaps the two ancilla populations exactly
    on the database items that match the pattern and leaves every other
    population untouched.

    The network is built in the logical basis, where a negative-sign qubit
    already has logical 0 in its flipped spin state, so the constrained
    bits are the phase's control polarities exactly as written.  The
    controls are passed strongest ancilla coupling first (ties by index),
    so the weakest, whose ZZ period is the longest, is conjugated only once.
    A pattern whose length is not the database size raises ``ConfigError``.
    """
    absj = system.ancilla_couplings_abs()
    controls = sorted(pattern.constrained_qubits(system.n_database), key=lambda c: -absj[c[0] - 1])
    core = _phase_gates(system.ancilla, controls, np.pi)
    toggle = (
        SelectivePulse(system.ancilla, "y", np.pi / 2),
        SelectivePulse(system.ancilla, "x", np.pi),
    )
    return GateSequence(n_qubits=system.n_spins, gates=(*toggle, *core, *toggle), mode="ideal")


# ---------------------------------------------------------------------------
# hard-pulse expansion
# ---------------------------------------------------------------------------


def free_hamiltonian_diagonal(system: SpinSystem) -> np.ndarray:
    """Always-on Hamiltonian diagonal (rad/s) in the logical frame."""
    return zz_hamiltonian_diagonal(system.offsets_hz(), system.logical_j_hz)


def _walsh_pattern(sequency: int, n_segments: int) -> np.ndarray:
    """+-1 sign pattern with the given number of sign changes.

    Sequency-ordered Walsh function on 2**k equal segments, realized as the
    Paley function of the bit-reversed Gray code.  Distinct sequencies are
    orthogonal and every sequency >= 1 integrates to zero.
    """
    bits = n_segments.bit_length() - 1
    paley = sequency ^ (sequency >> 1)
    paley = int(bin(paley)[2:].zfill(bits)[::-1], 2)  # bit reversal
    segs = np.arange(n_segments)
    parity = np.zeros(n_segments, dtype=int)
    for b in range(bits):
        if (paley >> b) & 1:
            parity ^= (segs >> b) & 1
    return 1 - 2 * parity


def _echo_block(gate: ZZEvolution, system: SpinSystem) -> list[Gate]:
    """Delays plus refocusing pi pulses realizing one ZZ period.

    The wanted coupling accrues for the whole block; every spectator spin
    follows its own orthogonal sign pattern (toggled by pi-y pulses) so all
    spectator couplings and shifts integrate to zero, and the pair's own
    chemical-shift phases are cancelled by trailing frame rotations.  A
    target phase whose sign disagrees with the coupling is obtained by
    holding one partner inverted for the whole block.
    """
    q1, q2 = gate.q1, gate.q2
    coupling = float(system.logical_j_hz[q1, q2])
    if coupling == 0.0:
        raise CompileError(
            f"qubits {q1} and {q2} are uncoupled; ZZ period not realizable"
        )
    # shortest representative of the angle modulo a full turn (2 pi is a
    # global phase for the 2 I_z I_z generator)
    theta = math.remainder(gate.angle, 2.0 * math.pi)
    if theta == 0.0:
        return []
    flip_q1 = (theta > 0) != (coupling > 0)
    tau = abs(theta) / (math.pi * abs(coupling))

    spectators = [
        s
        for s in range(system.n_spins)
        if s not in (q1, q2) and np.any(system.j_hz[s] != 0.0)
    ]
    n_segments = 2
    while n_segments < len(spectators) + 1:
        n_segments *= 2

    patterns: dict[int, np.ndarray] = {}
    for rank, spin in enumerate(spectators, start=1):
        patterns[spin] = _walsh_pattern(rank, n_segments)
    if flip_q1:
        patterns[q1] = -np.ones(n_segments, dtype=int)

    gates: list[Gate] = []
    for boundary in range(n_segments + 1):
        for spin in sorted(patterns):
            before = 1 if boundary == 0 else patterns[spin][boundary - 1]
            after = 1 if boundary == n_segments else patterns[spin][boundary]
            if before != after:
                gates.append(SelectivePulse(spin, "y", np.pi))
        if boundary < n_segments:
            gates.append(Delay(tau / n_segments))

    # spins on a Walsh pattern see zero net shift; everyone else accrued a
    # frame phase over the block that a software z rotation undoes
    for spin in range(system.n_spins):
        if spin in spectators:
            continue
        offset = system.spins[spin].offset_hz
        if offset == 0.0:
            continue
        w_integral = -tau if (spin == q1 and flip_q1) else tau
        gates.append(VirtualZ(spin, -2.0 * math.pi * offset * w_integral))
    return gates


@dataclass
class _RegisterWork:
    """The compiler's work that depends only on one register.

    ``blocks`` maps each distinct ZZ period to its echo block
    (``_expansion``), made and checked once.  ``runs`` maps
    the entries of each distinct run that a product on this register
    composed to the composed run (see ``_compressed_product``), which never
    leaves that function.
    """

    blocks: dict[ZZEvolution, _EchoBlock] = field(default_factory=dict)
    runs: dict[tuple[Entry, ...], tuple | np.ndarray] = field(default_factory=dict)


# SpinSystem is frozen, compares by identity and its j_hz is read-only, so
# this work stays valid for as long as its register exists; it holds no
# reference to the register, so the weak cache can drop both
_REGISTER_WORK: "weakref.WeakKeyDictionary[SpinSystem, _RegisterWork]" = weakref.WeakKeyDictionary()


def _register_work(system: SpinSystem) -> _RegisterWork:
    work = _REGISTER_WORK.get(system)
    if work is None:
        work = _REGISTER_WORK[system] = _RegisterWork()
    return work


def _expansion(gate: ZZEvolution, system: SpinSystem) -> _EchoBlock:
    """One ZZ period's echo block, checked as a hard-pulse sequence.

    A block that holds a pulse that mixes a qubit is not one monomial
    factor, so it is refused with ``CompileError``.
    """
    gates = GateSequence(system.n_spins, tuple(_echo_block(gate, system)), "hard_pulse").gates
    for g in gates:
        if _mixed_qubit(g) >= 0:
            raise CompileError(f"echo block of {gate!r} mixes qubit {g.qubit} with {g!r}")
    return _EchoBlock(gates)


def expand_to_hard_pulses(seq: GateSequence, system: SpinSystem) -> GateSequence:
    """Replace every ZZ period by a refocused delay block.

    Selective pulses and virtual z rotations pass through unchanged.  The
    result reproduces the ideal sequence's unitary up to a global phase.
    Equal ZZ periods recur many times in a query network and across
    queries, so each distinct one is expanded once per register and its
    block, checked, reused by later calls.  The result's index is the ideal
    sequence's, each ZZ period's entry replaced by its block, and its codes
    are the ideal sequence's own: no gate is checked or looked up again.
    """
    if seq.mode != "ideal":
        raise CompileError("only ideal sequences can be expanded")
    if seq.n_qubits != system.n_spins:
        raise CompileError("sequence register size does not match the system")
    blocks = _register_work(system).blocks
    entries = []
    for entry in seq._entries:
        if isinstance(entry, ZZEvolution):
            if entry not in blocks:
                blocks[entry] = _expansion(entry, system)
            entry = blocks[entry]
        entries.append(entry)
    return GateSequence._indexed(seq.n_qubits, "hard_pulse", tuple(entries), seq._codes)


# ---------------------------------------------------------------------------
# simulation and reporting
# ---------------------------------------------------------------------------


# The diagonal of a pi pulse's 2x2 block is cos(pi/2) in floating point,
# about 6e-17.  A block whose diagonal is below this bound is applied as the
# exact signed bit flip its off-diagonal describes.
_FLIP_DIAGONAL = 1e-15


def _mixed_qubit(entry: Entry) -> int:
    """The qubit a pulse that is not a signed flip mixes, or -1 for a monomial entry."""
    if isinstance(entry, SelectivePulse) and abs(math.cos(0.5 * entry.angle)) >= _FLIP_DIAGONAL:
        return entry.qubit
    return -1


def _compressed_product(seq: GateSequence, system: SpinSystem | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The unitary of a gate sequence as one 2x2 ancilla block per item: ``(blocks, src)``.

    Time order is a right-to-left product.  Hard-pulse sequences need the
    register to evaluate delays under the always-on Hamiltonian.

    blocks[i, a, b] is the product's entry in row (a, i) and column
    (b, src[i]), a and b being ancilla bits and i and src[i] items; every
    other entry is zero.  So blocks has shape (items, 2, 2), and src is the
    item permutation of the database flips.  A pulse that mixes a database
    qubit would mix two items; it is refused with ``CompileError``, as an
    echo block that mixes a qubit is (``_expansion``).

    Each distinct entry of the index is labelled 0 if it is a pulse that
    mixes the ancilla, else -1: an echo block, a delay (ham * t under the
    always-on Hamiltonian), a virtual z, a ZZ period or a pulse whose block
    is a signed bit flip (angle = pi mod 2 pi).  One loop walks the codes
    in maximal runs of one label, and each distinct run is composed once
    and applied once per occurrence.  Given a register, a run is looked up
    by its entries in the register's memo (``_RegisterWork.runs``) and
    composed only on a miss, so queries on one register compose each run
    once per register; an echo block is one entry of a run, keyed by one
    hash.  A composed run depends only on its gates and the register, so a
    sequence built by hand composes the runs its own gates make.  A run is
    composed gate by gate, each echo block's gates in place, so an expanded
    schedule and its flat gate list give bit-identical products.  A
    monomial run is a signed permutation times a diagonal phase, stored as
    a source row and a complex coefficient per row, (M A)[r] = coef[r]
    A[perm[r]]: it is composed at O(2^n) per gate (a diagonal adds to a
    phase, a flip permutes the vectors and scales the sign).  The running
    product is kept as a (2^n, 2) array, row (a, i) being row a of item
    i's block.  A monomial run that permutes nothing (its source map is
    the identity, stored as None) scales it in place and leaves ``src``
    alone; one that does is applied as one row gather and scale, which
    gathers ``src`` with the items (a flip's source map is r ^ F for a
    fixed mask F, so the two rows of an item move together).  In a query
    network the two runs that hold the toggle's pi pulse on the ancilla
    permute, since that pulse swaps the ancilla rows; the others do not.
    A run of ancilla pulses is one 2x2 block, applied in place as one
    broadcast product and one sum over the two ancilla halves.

    Every gate is still applied exactly (a pi pulse's dropped diagonal is
    rounding, see ``_FLIP_DIAGONAL``); only the representation of the
    running product differs from a gate-by-gate multiplication.
    """
    n = seq.n_qubits
    if n > MAX_DENSE_QUBITS:
        raise CompileError(
            f"query simulation limited to {MAX_DENSE_QUBITS} spins; the register has {n}"
        )
    if system is not None and system.n_spins != n:
        raise CompileError("sequence register size does not match the system")
    if seq.mode == "hard_pulse" and system is None:
        raise CompileError("hard-pulse simulation needs the spin system")
    labels = list(map(_mixed_qubit, seq._entries))
    for entry, label in zip(seq._entries, labels):
        if label > 0:
            raise CompileError(f"{entry!r} mixes qubit {label}; a query mixes only the ancilla, qubit 0")
    dim = 2**n
    half = dim // 2
    rows = np.arange(dim)
    masks = 1 << (n - 1 - np.arange(n))  # index bit of each qubit

    z = functools.cache(lambda q: z_eigenvalues(n, q))
    ham = functools.cache(lambda: free_hamiltonian_diagonal(system))

    @functools.cache
    def step(gate: Gate):
        # the 2x2 block of a pulse that mixes the ancilla, a flip (source
        # rows and coefficients) or a diagonal phase
        if isinstance(gate, SelectivePulse):
            block = rotation_block(gate.axis, gate.angle)
            if _mixed_qubit(gate) >= 0:
                return block
            # row r takes its partner with block[0, 1] if the qubit is 0 in
            # r, with block[1, 0] if it is 1
            return rows ^ masks[gate.qubit], np.where(z(gate.qubit) < 0, block[1, 0], block[0, 1])
        if isinstance(gate, Delay):
            return ham() * gate.seconds
        if isinstance(gate, VirtualZ):
            return gate.angle * z(gate.qubit)
        return 2.0 * gate.angle * z(gate.q1) * z(gate.q2)

    def compose(run: tuple[Entry, ...]):
        # an echo block's gates in place, so the arithmetic is the flat schedule's
        gates = [g for entry in run for g in _gates_of(entry)]
        if gates and _mixed_qubit(gates[0]) >= 0:  # the first pulse acts first
            return functools.reduce(lambda block, g: step(g) @ block, gates[1:], step(gates[0]))
        perm, sign, phase = rows, np.ones(dim, dtype=complex), np.zeros(dim)
        for gate in gates:
            factor = step(gate)
            if isinstance(factor, tuple):
                flip, coef = factor
                perm, sign, phase = perm[flip], coef * sign[flip], phase[flip]
            else:
                phase = phase + factor
        return (None if np.array_equal(perm, rows) else perm), sign * np.exp(-1.0j * phase)

    memo = {} if system is None else _register_work(system).runs
    acc = np.repeat(np.eye(2, dtype=complex), half, axis=0)  # identity blocks
    src = rows[:half]
    runs = {}
    for label, group in itertools.groupby(seq._codes, labels.__getitem__):
        run = tuple(group)
        factor = runs.get(run)
        if factor is None:
            key = tuple(map(seq._entries.__getitem__, run))
            factor = memo.get(key)
            if factor is None:
                factor = memo[key] = compose(key)
            runs[run] = factor
        if label == 0:
            # halves[a] <- factor[a, 0] halves[0] + factor[a, 1] halves[1]
            halves = acc.reshape(2, -1)
            terms = factor[:, :, None] * halves
            np.add(terms[:, 0], terms[:, 1], out=halves)
        else:
            perm, coef = factor
            if perm is None:  # coefficient first, as in the gather: numpy rounds a * b and b * a apart
                np.multiply(coef[:, None], acc, out=acc)
            else:
                acc, src = coef[:, None] * acc[perm], src[perm[:half] & (half - 1)]
    return acc.reshape(2, half, 2).transpose(1, 0, 2), src


def _product_distance(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]) -> float:
    """Max-norm distance between two block products, modulo one global phase.

    Products with the same ``src`` hold their blocks at the same places of
    the dense matrix and are zero elsewhere, so the distance of their block
    arrays, one phase for all blocks, is their dense distance at O(items).
    The blocks are read in the dense matrix's row order (ancilla bit, item,
    column), so even the entry that fixes the phase is the dense one's.
    Products with different ``src`` are not compared: their distance is
    inf.  So a product that moves an item where the other does not fails
    even if that move cancels overall; nothing is projected away.
    """
    (blocks_a, src_a), (blocks_b, src_b) = a, b
    if not np.array_equal(src_a, src_b):
        return math.inf
    return distance_up_to_global_phase(blocks_a.transpose(1, 0, 2), blocks_b.transpose(1, 0, 2))


@dataclass(frozen=True)
class SequenceReport:
    """Inventory of a gate sequence: counts by kind and total duration."""

    n_pulses: int
    pulse_counts: dict[tuple[str, float], int] = field(hash=False)
    n_zz: int = 0
    n_virtual_z: int = 0
    n_delays: int = 0
    total_duration_s: float = 0.0


def sequence_report(seq: GateSequence) -> SequenceReport:
    """Count the gates by kind and the pulses by (axis, degrees to 6 places); sum the delays.

    The counts are tallied per distinct gate, from the counts of the
    sequence's index entries, so only the distinct pulses are converted to
    rounded degrees and merged, since a hard-pulse schedule has thousands
    of pulses but a handful of angles.  The duration is the sequence's
    ``duration_s``.
    """
    counts: Counter = Counter()
    for code, count in Counter(seq._codes).items():
        for gate in _gates_of(seq._entries[code]):
            counts[gate] += count
    kinds: Counter = Counter()
    pulse_counts: Counter = Counter()
    for gate, count in counts.items():
        kinds[type(gate)] += count
        if isinstance(gate, SelectivePulse):
            pulse_counts[gate.axis, round(math.degrees(gate.angle), 6)] += count
    return SequenceReport(
        n_pulses=kinds[SelectivePulse],
        pulse_counts=dict(sorted(pulse_counts.items())),
        n_zz=kinds[ZZEvolution],
        n_virtual_z=kinds[VirtualZ],
        n_delays=kinds[Delay],
        total_duration_s=seq.duration_s,
    )


def format_sequence(seq: GateSequence) -> str:
    """Plain-text listing: one line per gate plus a trailing report block."""
    lines = []
    for gate in seq.gates:
        if isinstance(gate, SelectivePulse):
            lines.append(
                f"PULSE q={gate.qubit} axis={gate.axis} deg={math.degrees(gate.angle):.6g}"
            )
        elif isinstance(gate, ZZEvolution):
            lines.append(f"ZZ q={gate.q1},{gate.q2} rad={gate.angle:.12g}")
        elif isinstance(gate, VirtualZ):
            lines.append(f"VZ q={gate.qubit} rad={gate.angle:.12g}")
        elif isinstance(gate, Delay):
            lines.append(f"DELAY s={gate.seconds:.12g}")
    report = sequence_report(seq)
    lines.append("# ---- report ----")
    lines.append(f"# mode: {seq.mode}  qubits: {seq.n_qubits}  gates: {len(seq)}")
    for (axis, deg), count in report.pulse_counts.items():
        lines.append(f"# pulses {deg:g} deg along {axis}: {count}")
    lines.append(
        f"# pulses: {report.n_pulses}  zz: {report.n_zz}"
        f"  virtual-z: {report.n_virtual_z}  delays: {report.n_delays}"
    )
    lines.append(f"# duration: {report.total_duration_s:.6g} s")
    return "\n".join(lines) + "\n"
