"""Spin register descriptions for the ensemble fetch simulator.

A register is one readout (ancilla) spin plus ``n`` database spins.  Every
database spin is scalar-coupled to the ancilla; the magnitudes of those
couplings encode database items as resolvable lines in the ancilla
multiplet.  Database items are labelled by the logical bits ``b1..bn``
(qubit 1 is the most significant bit), and the logical peak frequency of
item ``b`` is

    freq(b) = sum_i (1 - 2*b_i) * |J_0i| / 2        [Hz]

so bit 0 shifts a line up by half the coupling and bit 1 shifts it down.
A negatively signed coupling simply swaps which physical spin state plays
"logical 0" for that qubit.  That sign convention (``bit_signs``) follows
from the couplings, and the register turns it into numbers once, when it
is made: ``logical_j_hz`` is the coupling matrix in the logical frame,
where every ancilla coupling is |J_0i|.  The compiler and the time-domain
readout read that matrix and work in the logical basis; no other module
applies the signs.

Items are decodable from peak positions alone when the ancilla-coupling
magnitudes form a superincreasing sequence, which the builtin seven-spin
register (crotonic acid) satisfies.  The spectrometer decides it for a
given register from its full line table, composite manifolds included.
"""

from __future__ import annotations

import configparser
import io
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "Spin",
    "SpinSystem",
    "QueryPattern",
    "SpinSystemError",
    "ConfigError",
    "crotonic_default",
    "load_spin_system",
    "load_spin_system_file",
]

#: relative gyromagnetic ratios used when a config file omits gamma_rel
SPECIES_GAMMA = {"carbon": 1.0, "proton": 3.977}

_PATTERN_CHARS = {"0": "0", "1": "1", "x": "x", "X": "x", "*": "x"}

_SPIN_KEYS = {"species", "gamma_rel", "offset_hz", "multiplicity"}


class SpinSystemError(ValueError):
    """Raised when a spin register fails validation."""


class ConfigError(ValueError):
    """Raised when a spin-system config cannot be parsed or a pattern does not fit its register."""


@dataclass(frozen=True)
class Spin:
    """One spin (or group of equivalent spins) in the register.

    ``multiplicity`` counts magnetically equivalent physical spins folded
    into one logical qubit (3 for a methyl group).  ``offset_hz`` is the
    rotating-frame chemical-shift offset relative to the ancilla carrier.
    """

    label: str
    species: str = "other"
    gamma_rel: float = 1.0
    offset_hz: float = 0.0
    multiplicity: int = 1


@dataclass(frozen=True, eq=False)
class SpinSystem:
    """Immutable register: spins and coupling matrix.

    Qubit 0 is always the ancilla.  ``j_hz`` is the symmetric scalar
    coupling matrix in Hz (zero diagonal).  Offsets, gammas and couplings
    must be finite, and offsets and gammas real numbers, not bools.

    ``logical_j_hz`` is derived when the register is made: the couplings in
    the logical frame, s_i * s_j * J_ij with s_0 = +1 and s_i the
    ``bit_signs``.  Relabelling a negative-sign qubit (swapping its basis
    states) flips the sign of every coupling involving it, so the ancilla
    row is |J_0i|.  Both matrices are read-only.
    """

    spins: tuple[Spin, ...]
    j_hz: np.ndarray
    logical_j_hz: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        j = np.asarray(self.j_hz, dtype=float)
        object.__setattr__(self, "j_hz", j)
        m = len(self.spins)
        if m < 1:
            raise SpinSystemError("register needs at least the ancilla spin")
        if j.shape != (m, m):
            raise SpinSystemError(f"coupling matrix shape {j.shape} != ({m}, {m})")
        bad = np.argwhere(~np.isfinite(j))
        if bad.size:
            a, b = sorted(bad[0])
            raise SpinSystemError(
                f"coupling {self.spins[a].label}-{self.spins[b].label} must be finite"
            )
        if not np.allclose(j, j.T, atol=0.0):
            raise SpinSystemError("coupling matrix must be symmetric")
        if np.any(np.diag(j) != 0.0):
            raise SpinSystemError("coupling matrix must have a zero diagonal")
        for s in self.spins:
            if not isinstance(s.label, str) or not s.label or any(c in s.label for c in "-.[]= \t"):
                raise SpinSystemError(f"bad spin label {s.label!r}")
        labels = [s.label for s in self.spins]
        if len(set(labels)) != len(labels):
            raise SpinSystemError("spin labels must be unique")
        for s in self.spins:
            for name in ("gamma_rel", "offset_hz"):
                value = getattr(s, name)
                if isinstance(value, bool) or not isinstance(value, numbers.Real):
                    raise SpinSystemError(f"{s.label}: {name} must be a real number, not {value!r}")
                if not math.isfinite(value):
                    raise SpinSystemError(f"{s.label}: {name} must be finite")
            if s.gamma_rel <= 0:
                raise SpinSystemError(f"{s.label}: gamma_rel must be positive")
            mu = s.multiplicity
            integer = isinstance(mu, numbers.Integral) and not isinstance(mu, bool)
            if not integer or mu < 1 or mu % 2 == 0:
                raise SpinSystemError(
                    f"{s.label}: multiplicity must be an odd positive integer"
                )
        if self.spins[0].multiplicity != 1:
            raise SpinSystemError("the ancilla cannot be a composite spin")
        j.flags.writeable = False
        signs = np.array((1,) + self.bit_signs, dtype=float)
        logical = np.outer(signs, signs) * j
        logical.flags.writeable = False
        object.__setattr__(self, "logical_j_hz", logical)

    # -- basic geometry -------------------------------------------------
    @property
    def n_spins(self) -> int:
        return len(self.spins)

    @property
    def n_database(self) -> int:
        return len(self.spins) - 1

    @property
    def ancilla(self) -> int:
        return 0

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.spins)

    @property
    def bit_signs(self) -> tuple[int, ...]:
        """Sign of J_0i per database qubit, +1 where it is zero.

        A negative sign means logical 0 sits in the flipped spin state of
        that qubit.
        """
        return tuple(-1 if j < 0 else 1 for j in self.j_hz[0, 1:].tolist())

    def ancilla_couplings_abs(self) -> np.ndarray:
        """|J_0i| for database qubits, in qubit order."""
        return np.abs(self.j_hz[0, 1:])

    def offsets_hz(self) -> np.ndarray:
        return np.array([s.offset_hz for s in self.spins], dtype=float)

    def gammas(self) -> np.ndarray:
        return np.array([s.gamma_rel for s in self.spins], dtype=float)


@dataclass(frozen=True)
class QueryPattern:
    """Per-qubit constraints: '0', '1' or 'x' (wildcard), qubit 1 first."""

    constraints: tuple[str, ...]

    def __post_init__(self):
        for c in self.constraints:
            if c not in ("0", "1", "x"):
                raise SpinSystemError(f"bad pattern symbol {c!r}")

    @classmethod
    def from_string(cls, text: str) -> "QueryPattern":
        try:
            return cls(tuple(_PATTERN_CHARS[c] for c in text))
        except KeyError as exc:
            raise SpinSystemError(
                f"pattern may only contain 0, 1 or x: {text!r}"
            ) from exc

    def __len__(self) -> int:
        return len(self.constraints)

    def __str__(self) -> str:
        return "".join(self.constraints)

    def constrained_qubits(self, n_database: int) -> list[tuple[int, int]]:
        """(qubit index, required bit) for every non-wild position.

        This is where a pattern meets a register, and the one place its
        length is checked: it must be the database size ``n_database``.
        """
        if len(self) != n_database:
            raise ConfigError(f"pattern length {len(self)} != database size {n_database}")
        return [
            (i + 1, int(c)) for i, c in enumerate(self.constraints) if c != "x"
        ]

    def matches(self, item: int) -> bool:
        n = len(self.constraints)
        if not 0 <= item < 2**n:
            raise IndexError(f"item {item} out of range for {n} bits")
        return all((item >> (n - qubit)) & 1 == bit for qubit, bit in self.constrained_qubits(n))

    def match_mask(self, n_database: int) -> np.ndarray:
        """Boolean match flags for all 2**n items."""
        items = np.arange(2**n_database)
        mask = np.ones(2**n_database, dtype=bool)
        for qubit, bit in self.constrained_qubits(n_database):
            mask &= ((items >> (n_database - qubit)) & 1) == bit
        return mask


def crotonic_default() -> SpinSystem:
    """Builtin seven-spin register (crotonic acid), read from ``data/crotonic_acid.cfg``.

    The ancilla is the C2 carbon; database qubits are ordered by
    decreasing coupling magnitude.  Qubit 4 is the methyl group: three
    equivalent protons folded into one logical qubit.  Couplings among
    database spins are zero (override via a config file if they matter
    for an experiment).
    """
    return load_spin_system_file(Path(__file__).with_name("data") / "crotonic_acid.cfg")


# ---------------------------------------------------------------------------
# config-file loading
#
# Grammar (line oriented, '#'/';' comments, configparser syntax):
#
#   ancilla = <label>            # before any section (or in [system])
#   [spin.<label>]
#   species = carbon|proton|<name>
#   gamma_rel = <float>          # optional when species is carbon/proton
#   offset_hz = <float>          # optional, default 0
#   multiplicity = <odd int>     # optional, default 1
#   [couplings]
#   <labelA>-<labelB> = <Hz>     # symmetric, one line per pair
#
# Spin section order fixes the qubit numbering (ancilla is moved to 0).
# Unknown keys or sections are rejected.
# ---------------------------------------------------------------------------


def load_spin_system(text: str) -> SpinSystem:
    """Parse a spin-system description (see module grammar notes)."""
    parser = configparser.ConfigParser(
        strict=True, interpolation=None, delimiters=("=",)
    )
    parser.optionxform = str
    try:
        parser.read_file(io.StringIO("[system]\n" + text))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse spin-system config: {exc}") from exc

    system_keys = dict(parser.items("system")) if parser.has_section("system") else {}
    unknown = set(system_keys) - {"ancilla"}
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    ancilla_label = system_keys.get("ancilla")
    if not ancilla_label:
        raise ConfigError("missing 'ancilla = <label>' line")

    spin_order: list[str] = []
    spin_defs: dict[str, dict[str, str]] = {}
    coupling_items: list[tuple[str, str]] = []
    for section in parser.sections():
        if section == "system":
            continue
        if section == "couplings":
            coupling_items = list(parser.items(section))
        elif section.startswith("spin."):
            label = section[len("spin."):]
            keys = dict(parser.items(section))
            unknown = set(keys) - _SPIN_KEYS
            if unknown:
                raise ConfigError(f"[{section}] unknown keys: {sorted(unknown)}")
            spin_order.append(label)
            spin_defs[label] = keys
        else:
            raise ConfigError(f"unknown section [{section}]")

    if ancilla_label not in spin_defs:
        raise ConfigError(f"ancilla label {ancilla_label!r} has no [spin.*] section")
    order = [ancilla_label] + [lb for lb in spin_order if lb != ancilla_label]

    def build_spin(label: str) -> Spin:
        keys = spin_defs[label]
        species = keys.get("species", "other")
        try:
            gamma = float(keys["gamma_rel"]) if "gamma_rel" in keys else SPECIES_GAMMA[species]
        except KeyError as exc:
            raise ConfigError(
                f"[spin.{label}] needs gamma_rel (species {species!r} has no default)"
            ) from exc
        try:
            return Spin(
                label=label,
                species=species,
                gamma_rel=gamma,
                offset_hz=float(keys.get("offset_hz", 0.0)),
                multiplicity=int(keys.get("multiplicity", 1)),
            )
        except ValueError as exc:
            raise ConfigError(f"[spin.{label}] bad value: {exc}") from exc

    spins = tuple(build_spin(label) for label in order)
    index = {label: i for i, label in enumerate(order)}

    m = len(spins)
    j = np.zeros((m, m))
    seen: set[frozenset[str]] = set()
    for key, value in coupling_items:
        parts = key.split("-")
        if len(parts) != 2 or not all(p in index for p in parts):
            raise ConfigError(f"[couplings] bad pair key {key!r}")
        a, b = parts
        if a == b:
            raise ConfigError(f"[couplings] self coupling {key!r}")
        pair = frozenset((a, b))
        if pair in seen:
            raise ConfigError(f"[couplings] pair {key!r} given more than once")
        seen.add(pair)
        try:
            val = float(value)
        except ValueError as exc:
            raise ConfigError(f"[couplings] {key}: bad value {value!r}") from exc
        j[index[a], index[b]] = j[index[b], index[a]] = val

    try:
        return SpinSystem(spins=spins, j_hz=j)
    except SpinSystemError as exc:
        raise ConfigError(str(exc)) from exc


def load_spin_system_file(path) -> SpinSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return load_spin_system(fh.read())
