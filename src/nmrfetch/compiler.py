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
periods and six selective pulses.  Lowered one subset at a time, the same
outer conjugation would be undone and redone for every subset that shares
it.  Instead the subsets are emitted in nested order (member tuples read
from the outermost control, the highest index, inward), so consecutive
subsets share their outer conjugations, and one stack pass drops every
adjacent pair of exactly inverse gates: V followed by V^dagger vanishes.
k controls then cost 2^(k+1) - 3 ZZ periods in 2^(k-1) - 1 conjugations,
and the highest-index control is conjugated only once.  The ideal gate
list can further be expanded into a hard-pulse schedule (delays under the
always-on coupling Hamiltonian plus refocusing pi pulses) in which every
unwanted coupling and chemical shift integrates to zero over the block.

Each distinct ZZ period is expanded once per register and the block kept
for later calls.

``_compressed_product`` simulates either list exactly, but does dense work
only where a pulse mixes basis states.  Delays, ZZ periods and frame z
rotations are diagonal, and a pi pulse about x or y is -i sigma, a signed
bit flip; a diagonal moved through a signed flip stays diagonal
(Pauli-frame bookkeeping), so every maximal run of such gates is one signed
permutation times a diagonal phase.  A query network repeats the same few
runs many times, so each distinct run is composed once per call and every
occurrence applied as one row gather and scale.  The running product keeps
only 2^|M| columns per row, M being the qubits that some non-flip pulse
mixes (the ancilla alone in a query network).  A population state is
conjugated by that product block by block (``states._apply_product``), and
``_product_distance`` compares two such products block by block, so no
2^n x 2^n matrix is ever built.
"""

from __future__ import annotations

import math
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

_FLIP_AXIS = {"x": "-x", "-x": "x", "y": "-y", "-y": "y"}


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


@dataclass(frozen=True)
class GateSequence:
    """Time-ordered gate list (first gate acts first) on a register.

    ``mode`` is "ideal" (rotations, ZZ periods and virtual z only) or
    "hard_pulse" (rotations, delays and virtual z only).  Pulses are
    instantaneous, so the duration of a sequence is the sum of its delays.
    """

    n_qubits: int
    gates: tuple[Gate, ...]
    mode: str = "ideal"

    def __post_init__(self):
        if self.mode not in ("ideal", "hard_pulse"):
            raise CompileError(f"unknown sequence mode {self.mode!r}")
        if self.n_qubits < 1:
            raise CompileError("sequence needs at least one qubit")
        for gate in self.gates:
            if isinstance(gate, ZZEvolution):
                if self.mode != "ideal":
                    raise CompileError("ZZ periods only appear in ideal sequences")
                if gate.q1 == gate.q2:
                    raise CompileError("ZZ period needs two distinct qubits")
                self._check_qubit(gate.q1)
                self._check_qubit(gate.q2)
            elif isinstance(gate, Delay):
                if self.mode != "hard_pulse":
                    raise CompileError("delays only appear in hard-pulse sequences")
                if gate.seconds < 0:
                    raise CompileError("delay cannot be negative")
            elif isinstance(gate, SelectivePulse):
                if gate.axis not in _FLIP_AXIS:
                    raise CompileError(f"bad pulse axis {gate.axis!r}")
                self._check_qubit(gate.qubit)
            elif isinstance(gate, VirtualZ):
                self._check_qubit(gate.qubit)
            else:
                raise CompileError(f"unknown gate {gate!r}")

    def _check_qubit(self, q: int) -> None:
        if not 0 <= q < self.n_qubits:
            raise CompileError(
                f"gate qubit {q} out of range for {self.n_qubits}-qubit register"
            )

    def __len__(self) -> int:
        return len(self.gates)


def _pulse(qubit: int, axis: str, angle: float) -> SelectivePulse:
    if angle < 0:
        axis, angle = _FLIP_AXIS[axis], -angle
    return SelectivePulse(qubit, axis, angle)


def _lower_chain(chain: list[int], angle: float) -> list[Gate]:
    """Gates for exp(-i angle 2^k I_z..I_z) over chain (target last)."""
    if len(chain) == 2:
        return [ZZEvolution(chain[0], chain[1], angle)]
    ctrl, tgt = chain[-2], chain[-1]
    v = [
        _pulse(tgt, "y", np.pi / 2),
        _pulse(tgt, "-x", np.pi / 2),
        ZZEvolution(ctrl, tgt, np.pi / 2),
        _pulse(tgt, "x", np.pi / 2),
    ]
    v_dag = [
        _pulse(tgt, "-x", np.pi / 2),
        ZZEvolution(ctrl, tgt, -np.pi / 2),
        _pulse(tgt, "x", np.pi / 2),
        _pulse(tgt, "-y", np.pi / 2),
    ]
    inner = _lower_chain(chain[:-2] + [tgt], angle)
    return v_dag + inner + v


def compile_multilinear_z_phase(
    n_qubits: int,
    target: int,
    controls: list[tuple[int, int]],
    angle: float,
    signs: list[int] | None = None,
) -> GateSequence:
    """Compile the conditioned z phase into pulses, ZZ periods and frame z.

    ``controls`` holds (qubit, polarity) pairs and ``signs`` the per-control
    sign convention: the phase is exp(-i angle I_z^target prod_c P_c) with
    P_c = (1 + s_c (-1)^{p_c} 2 I_z^c) / 2, so with all signs +1 it fires
    exactly where the control bits equal the polarities; only the products
    eps_c = s_c * (-1)^{p_c} enter the expansion.  The subsets are emitted
    in nested order, each lowered by conjugating with its controls from the
    highest index inward, and adjacent inverse gates are then cancelled, so
    k controls cost 2^(k+1) - 3 ZZ periods.
    """
    if signs is None:
        signs = [1] * len(controls)
    if len(signs) != len(controls):
        raise CompileError("need one sign per control")
    seen = {target}
    eps: dict[int, float] = {}
    for (qubit, polarity), sign in zip(controls, signs):
        if qubit in seen:
            raise CompileError(f"qubit {qubit} used twice")
        seen.add(qubit)
        if polarity not in (0, 1) or sign not in (-1, 1):
            raise CompileError("polarity must be 0/1 and sign +-1")
        eps[qubit] = sign * (-1.0) ** polarity
    ctrl_qubits = sorted(eps)
    k = len(ctrl_qubits)
    base = angle / 2.0**k

    # nested order: member tuples read from the outermost control inward
    subsets = sorted(
        ([q for b, q in enumerate(ctrl_qubits) if (mask >> b) & 1] for mask in range(2**k)),
        key=lambda members: members[::-1],
    )

    gates: list[Gate] = []
    for members in subsets:
        lam = base * math.prod(eps[q] for q in members)
        if not members:
            gates.append(VirtualZ(target, lam))
        else:
            gates.extend(_lower_chain(members + [target], lam))
    return GateSequence(n_qubits=n_qubits, gates=tuple(_cancel_inverses(gates)), mode="ideal")


def _inverse_pair(a: Gate, b: Gate) -> bool:
    """Is b exactly a^-1: a pulse reversed in axis, or a ZZ period in angle?"""
    if isinstance(a, SelectivePulse) and isinstance(b, SelectivePulse):
        return a.qubit == b.qubit and a.angle == b.angle and b.axis == _FLIP_AXIS[a.axis]
    if isinstance(a, ZZEvolution) and isinstance(b, ZZEvolution):
        return {a.q1, a.q2} == {b.q1, b.q2} and a.angle == -b.angle
    return False


def _cancel_inverses(gates: list[Gate]) -> list[Gate]:
    """Drop every adjacent pair of exactly inverse gates, cascading."""
    kept: list[Gate] = []
    for gate in gates:
        if kept and _inverse_pair(kept[-1], gate):
            kept.pop()
        else:
            kept.append(gate)
    return kept


def build_query_network(system: SpinSystem, pattern: QueryPattern) -> GateSequence:
    """Ideal gate network that inverts the ancilla on matching items.

    Layout: basis-toggling pulse pair on the ancilla, conditioned pi phase
    on the constrained qubits, closing pulse pair.  Conjugating a diagonal
    ensemble state by the result swaps the two ancilla populations exactly
    on the database items that match the pattern and leaves every other
    population untouched.

    Negative-sign qubits store logical 0 in the flipped spin state, so each
    stated polarity is translated to the spin frame before being handed to
    the phase compiler together with the register's bit_signs; the engine's
    logical basis therefore sees the match condition exactly as written.
    """
    if len(pattern) != system.n_database:
        raise CompileError(
            f"pattern length {len(pattern)} != database size {system.n_database}"
        )
    controls = []
    signs = []
    for qubit, bit in pattern.constrained_qubits():
        sign = system.sign_of(qubit)
        controls.append((qubit, bit ^ (sign < 0)))
        signs.append(sign)
    core = compile_multilinear_z_phase(
        system.n_spins, system.ancilla, controls, np.pi, signs
    )
    toggle = (
        _pulse(system.ancilla, "y", np.pi / 2),
        _pulse(system.ancilla, "x", np.pi),
    )
    return GateSequence(
        n_qubits=system.n_spins,
        gates=toggle + core.gates + toggle,
        mode="ideal",
    )


# ---------------------------------------------------------------------------
# hard-pulse expansion
# ---------------------------------------------------------------------------


def free_hamiltonian_diagonal(system: SpinSystem) -> np.ndarray:
    """Always-on Hamiltonian diagonal (rad/s) in the logical frame."""
    m = system.n_spins
    j = np.zeros((m, m))
    for a in range(m):
        for b in range(a + 1, m):
            j[a, b] = j[b, a] = system.logical_coupling(a, b)
    return zz_hamiltonian_diagonal(system.offsets_hz(), j)


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
    coupling = system.logical_coupling(q1, q2)
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
                gates.append(_pulse(spin, "y", np.pi))
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


def _fold_virtual_z(gates: list[Gate]) -> list[Gate]:
    folded: list[Gate] = []
    for gate in gates:
        if (
            isinstance(gate, VirtualZ)
            and folded
            and isinstance(folded[-1], VirtualZ)
            and folded[-1].qubit == gate.qubit
        ):
            merged = VirtualZ(gate.qubit, folded[-1].angle + gate.angle)
            folded[-1] = merged
            if merged.angle == 0.0:
                folded.pop()
        else:
            folded.append(gate)
    return folded


# SpinSystem is frozen, compares by identity and its j_hz is read-only, so
# an echo block stays valid for as long as its register exists; the blocks
# hold no reference to the register, so the weak cache can drop both
_ECHO_BLOCKS: "weakref.WeakKeyDictionary[SpinSystem, dict[ZZEvolution, tuple[Gate, ...]]]" = (
    weakref.WeakKeyDictionary()
)


def expand_to_hard_pulses(seq: GateSequence, system: SpinSystem) -> GateSequence:
    """Replace every ZZ period by a refocused delay block.

    Selective pulses pass through unchanged and virtual z rotations stay
    virtual (adjacent ones on the same spin are folded together).  The
    result reproduces the ideal sequence's unitary up to a global phase.
    Equal ZZ periods recur many times in a query network and across
    queries, so each distinct one is expanded once per register and its
    block, an immutable tuple, reused by later calls.
    """
    if seq.mode != "ideal":
        raise CompileError("only ideal sequences can be expanded")
    if seq.n_qubits != system.n_spins:
        raise CompileError("sequence register size does not match the system")
    blocks = _ECHO_BLOCKS.get(system)
    if blocks is None:
        blocks = _ECHO_BLOCKS[system] = {}
    gates: list[Gate] = []
    for gate in seq.gates:
        if isinstance(gate, ZZEvolution):
            block = blocks.get(gate)
            if block is None:
                block = blocks[gate] = tuple(_echo_block(gate, system))
            gates.extend(block)
        else:
            gates.append(gate)
    return GateSequence(
        n_qubits=seq.n_qubits,
        gates=tuple(_fold_virtual_z(gates)),
        mode="hard_pulse",
    )


# ---------------------------------------------------------------------------
# simulation and reporting
# ---------------------------------------------------------------------------


# The diagonal of a pi pulse's 2x2 block is cos(pi/2) in floating point,
# about 6e-17.  A block whose diagonal is below this bound is applied as the
# exact signed bit flip its off-diagonal describes.
_FLIP_DIAGONAL = 1e-15


def _mix_rows(acc: np.ndarray, qubit: int, block: np.ndarray) -> None:
    """acc <- (block on ``qubit``) @ acc, in place: one two-row combination."""
    view = acc.reshape(2**qubit, 2, -1)
    top, bottom = view[:, 0], view[:, 1]
    new_top = block[0, 0] * top + block[0, 1] * bottom
    view[:, 1] = block[1, 0] * top + block[1, 1] * bottom
    view[:, 0] = new_top


def _compressed_product(
    seq: GateSequence, system: SpinSystem | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-compressed unitary of a gate sequence: ``(acc, cols, embed)``.

    Time order is a right-to-left product.  Hard-pulse sequences need the
    register to evaluate delays under the always-on Hamiltonian.

    Row i of the product is nonzero only in the columns whose bits outside
    M equal cols[i], M being the qubits that receive a pulse other than a
    signed flip, and acc[i, m] is its entry in the column whose M bits are
    embed[m].  So the accumulator holds 2^n x 2^|M| entries; a query
    network mixes only its ancilla, and with every qubit mixed acc is the
    dense product itself.

    The gates fall into two kinds:

    * monomial gates: delays (ham * t under the always-on Hamiltonian),
      virtual z, ZZ periods and every pulse whose block is a signed bit
      flip (angle = pi mod 2 pi).  A maximal run of them is one monomial M
      (a signed permutation times a diagonal phase), stored as a source
      row and a complex coefficient per row: (M A)[i] = coef[i] A[src[i]].
      Each distinct run, keyed by its gate tuple, is composed once per
      call at O(2^n) per gate (a diagonal adds to a phase, a flip permutes
      the vectors and scales the sign), and each occurrence is applied as
      one row gather and scale, which gathers ``cols`` with the rows.
    * other pulses, collected per run of consecutive pulses on one qubit
      into one 2x2 block, applied as one two-row linear combination.  Such
      a qubit is in M, and the two rows it combines always share their
      columns (a flip's source map is i ^ F for a fixed mask F, so partner
      rows stay partners), so ``cols`` is left alone.

    Every gate is still applied exactly (a pi pulse's dropped diagonal is
    rounding, see ``_FLIP_DIAGONAL``); only the representation of the
    running product differs from a gate-by-gate multiplication.
    """
    n = seq.n_qubits
    if n > MAX_DENSE_QUBITS:
        raise CompileError(
            f"query simulation limited to {MAX_DENSE_QUBITS} spins; the register has {n}"
        )
    dim = 2**n
    ham = None
    if seq.mode == "hard_pulse":
        if system is None:
            raise CompileError("hard-pulse simulation needs the spin system")
        if system.n_spins != n:
            raise CompileError("sequence register size does not match the system")
        ham = free_hamiltonian_diagonal(system)
    rows = np.arange(dim)
    z = np.array([z_eigenvalues(n, q) for q in range(n)])
    masks = 1 << (n - 1 - np.arange(n))  # index bit of each qubit

    # one code per distinct gate.  The gates of an echo block are the same
    # objects in every occurrence, so the gates are first told apart by
    # identity (seq.gates keeps them alive, so ids stay unique) and only one
    # object per id is looked up by value.
    ids = list(map(id, seq.gates))
    distinct: dict[Gate, int] = {}
    code_of = {
        key: distinct.setdefault(gate, len(distinct))
        for key, gate in dict(zip(ids, seq.gates)).items()
    }
    codes = list(map(code_of.__getitem__, ids))

    # per distinct gate: the 2x2 block of a pulse that mixes its qubit, or
    # the monomial step of any other gate, a flip (source rows and
    # coefficients) or a diagonal phase
    rots: dict[int, np.ndarray] = {}
    steps: dict[int, tuple[np.ndarray, np.ndarray] | np.ndarray] = {}
    qubit_of: dict[int, int] = {}  # the qubit of each mixing pulse
    for code, gate in enumerate(distinct):
        if isinstance(gate, SelectivePulse):
            rot = rotation_block(gate.axis, gate.angle)
            if abs(rot[0, 0]) >= _FLIP_DIAGONAL:
                rots[code], qubit_of[code] = rot, gate.qubit
            else:
                # row i takes its partner with rot[0, 1] if the qubit is 0
                # in i, with rot[1, 0] if it is 1
                coef = np.where(z[gate.qubit] < 0, rot[1, 0], rot[0, 1])
                steps[code] = (rows ^ masks[gate.qubit], coef)
        elif isinstance(gate, Delay):
            steps[code] = ham * gate.seconds
        elif isinstance(gate, VirtualZ):
            steps[code] = gate.angle * z[gate.qubit]
        else:
            steps[code] = 2.0 * gate.angle * z[gate.q1] * z[gate.q2]
    mixed = sorted(set(qubit_of.values()))

    embed = np.zeros(1, dtype=rows.dtype)
    for q in mixed:
        embed = np.concatenate([embed, embed | masks[q]])
    in_mixed = rows & int(masks[mixed].sum())

    def monomial(run: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        src, sign, phase = rows, np.ones(dim, dtype=complex), np.zeros(dim)
        for code in run:
            step = steps[code]
            if isinstance(step, tuple):
                flip, coef = step
                src, sign, phase = src[flip], coef * sign[flip], phase[flip]
            else:
                phase = phase + step
        return src, sign * np.exp(-1.0j * phase)

    acc = (in_mixed[:, None] == embed).astype(complex)
    cols = rows - in_mixed
    runs: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
    mixing = np.zeros(len(distinct), dtype=bool)
    mixing[list(rots)] = True
    stops = np.flatnonzero(mixing[codes]).tolist()
    start = 0  # first gate of the monomial run not yet in acc
    block, block_qubit = None, -1
    for stop in stops + [len(codes)]:  # the end closes the last run
        if start < stop:
            if block is not None:
                _mix_rows(acc, block_qubit, block)
                block = None
            run = tuple(codes[start:stop])
            entry = runs.get(run)
            if entry is None:
                entry = runs[run] = monomial(run)
            src, coef = entry
            acc, cols = coef[:, None] * acc[src], cols[src]
        if stop == len(codes):
            break
        qubit, rot = qubit_of[codes[stop]], rots[codes[stop]]
        if block is not None and block_qubit != qubit:
            _mix_rows(acc, block_qubit, block)
            block = None
        block = rot if block is None else rot @ block
        block_qubit = qubit
        start = stop + 1
    if block is not None:
        _mix_rows(acc, block_qubit, block)
    return acc, cols, embed


def _product_distance(
    a: tuple[np.ndarray, np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> float:
    """Max-norm distance between two column-compressed products, modulo one global phase.

    Products with the same ``cols`` and ``embed`` hold their entries at
    the same places of the dense matrix and are zero elsewhere, so the
    distance of their ``acc`` arrays, one phase for all blocks, is their
    dense distance at O(2^n 2^|M|) (with ascending ``embed``, as in a query,
    even the entry that fixes the phase is the same).  Products with
    different ``cols`` or ``embed`` are not compared: their distance is inf.
    So a product that moves a basis state, or has a pulse that mixes a
    qubit, where the other does not fails even if that mixing cancels
    overall; nothing is projected away.
    """
    (acc_a, cols_a, embed_a), (acc_b, cols_b, embed_b) = a, b
    if not (np.array_equal(embed_a, embed_b) and np.array_equal(cols_a, cols_b)):
        return math.inf
    return distance_up_to_global_phase(acc_a, acc_b)


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

    Pulses are collected as raw (axis, angle) pairs and tallied at once;
    only the distinct pairs are converted to rounded degrees and merged,
    since a hard-pulse schedule has thousands of pulses but a handful of
    angles.  Delays are summed one by one, in gate order.
    """
    pulses = []
    n_zz = n_vz = n_delay = 0
    duration = 0.0
    for gate in seq.gates:
        if isinstance(gate, SelectivePulse):
            pulses.append((gate.axis, gate.angle))
        elif isinstance(gate, ZZEvolution):
            n_zz += 1
        elif isinstance(gate, VirtualZ):
            n_vz += 1
        elif isinstance(gate, Delay):
            n_delay += 1
            duration += gate.seconds
    pulse_counts: Counter = Counter()
    for (axis, angle), count in Counter(pulses).items():
        pulse_counts[axis, round(math.degrees(angle), 6)] += count
    return SequenceReport(
        n_pulses=sum(pulse_counts.values()),
        pulse_counts=dict(sorted(pulse_counts.items())),
        n_zz=n_zz,
        n_virtual_z=n_vz,
        n_delays=n_delay,
        total_duration_s=duration,
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
