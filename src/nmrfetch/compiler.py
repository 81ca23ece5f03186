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


@dataclass(frozen=True)
class GateSequence:
    """Time-ordered gate list (first gate acts first) on a register.

    ``mode`` is "ideal" (rotations, ZZ periods and virtual z only) or
    "hard_pulse" (rotations, delays and virtual z only).  Pulses are
    instantaneous, so the duration of a sequence is the sum of its delays.
    Every angle and delay must be finite, and no delay negative.
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
            if isinstance(gate, Delay):
                if self.mode != "hard_pulse":
                    raise CompileError("delays only appear in hard-pulse sequences")
                if not 0 <= gate.seconds < math.inf:
                    raise CompileError(f"delay must be finite and non-negative: {gate!r}")
                continue
            if not isinstance(gate, (SelectivePulse, ZZEvolution, VirtualZ)):
                raise CompileError(f"unknown gate {gate!r}")
            if not math.isfinite(gate.angle):
                raise CompileError(f"gate angle must be finite: {gate!r}")
            if isinstance(gate, ZZEvolution):
                if self.mode != "ideal":
                    raise CompileError("ZZ periods only appear in ideal sequences")
                if gate.q1 == gate.q2:
                    raise CompileError("ZZ period needs two distinct qubits")
                self._check_qubit(gate.q1)
                self._check_qubit(gate.q2)
            else:
                if isinstance(gate, SelectivePulse) and gate.axis not in _PULSE_AXES:
                    raise CompileError(f"bad pulse axis {gate.axis!r}")
                self._check_qubit(gate.qubit)

    def _check_qubit(self, q: int) -> None:
        if not 0 <= q < self.n_qubits:
            raise CompileError(
                f"gate qubit {q} out of range for {self.n_qubits}-qubit register"
            )

    def __len__(self) -> int:
        return len(self.gates)

    @property
    def duration_s(self) -> float:
        """The sum of the delays, in gate order."""
        return sum((gate.seconds for gate in self.gates if isinstance(gate, Delay)), 0.0)


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
    gates: list[Gate] = [VirtualZ(target, base)]

    def nest(j: int, sign: float) -> None:
        # the subsets of the first j controls that hold at least one of
        # them; sign is the product of the outer controls' polarities
        if j == 0:
            return
        c = order[j - 1]
        nest(j - 1, sign)
        gates.append(ZZEvolution(c, target, base * (sign * eps[c])))
        if j > 1:
            v, v_dag = conjugations[j - 1]
            gates.extend(v_dag)
            nest(j - 1, sign * eps[c])
            gates.extend(v)

    nest(len(order), 1.0)
    return gates


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


# SpinSystem is frozen, compares by identity and its j_hz is read-only, so
# an echo block stays valid for as long as its register exists; the blocks
# hold no reference to the register, so the weak cache can drop both
_ECHO_BLOCKS: "weakref.WeakKeyDictionary[SpinSystem, dict[ZZEvolution, tuple[Gate, ...]]]" = (
    weakref.WeakKeyDictionary()
)


def expand_to_hard_pulses(seq: GateSequence, system: SpinSystem) -> GateSequence:
    """Replace every ZZ period by a refocused delay block.

    Selective pulses and virtual z rotations pass through unchanged.  The
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
        gates=tuple(gates),
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
    angles.  The duration is the sequence's ``duration_s``.
    """
    pulses = []
    n_zz = n_vz = n_delay = 0
    for gate in seq.gates:
        if isinstance(gate, SelectivePulse):
            pulses.append((gate.axis, gate.angle))
        elif isinstance(gate, ZZEvolution):
            n_zz += 1
        elif isinstance(gate, VirtualZ):
            n_vz += 1
        elif isinstance(gate, Delay):
            n_delay += 1
    pulse_counts: Counter = Counter()
    for (axis, angle), count in Counter(pulses).items():
        pulse_counts[axis, round(math.degrees(angle), 6)] += count
    return SequenceReport(
        n_pulses=sum(pulse_counts.values()),
        pulse_counts=dict(sorted(pulse_counts.items())),
        n_zz=n_zz,
        n_virtual_z=n_vz,
        n_delays=n_delay,
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
