"""Ancilla readout: spectra, peaks and item decoding.

Readout observes only the ancilla multiplet.  Every database item
contributes one line (or one line per composite-spin manifold) whose
frequency is set by the ancilla coupling magnitudes:

    freq(item) = offset_anc + sum_plain |J_0i| (1 - 2 b_i) / 2
                            + sum_composite |J_0i| * m_i

where a composite qubit (multiplicity mu, e.g. a methyl group) in logical
state b occupies the total-z manifolds of matching sign, m in
{mu/2, ..., 1/2} for b = 0, with binomial weights - a 1:3:3:1 quartet for
mu = 3, inner lines three times taller than outer ones.  Line amplitude is
half the ancilla population difference of the item, so items flipped by a
query show up as inverted peaks.

Two independent readout routes are provided: a closed-form sum of
absorptive lines on the frequency grid, and a time-domain FID of the
physically expanded register after a 90-degree ancilla pulse, Fourier
transformed with the half-first-point correction.  Both model the same
finite acquisition of N samples, so they agree to rounding on every grid
(5e-13 of the maximum amplitude on the builtin one).  The closed-form
route takes its line frequencies from the line table; the FID takes them
from the diagonal Hamiltonian of the expanded register, so neither route
can inherit an error of the other.  The closed-form sum of many lines is
evaluated by panels of bins: exactly for the lines near a panel, and
interpolated from a few Chebyshev nodes for the lines far from it, each
far line within 3.3e-14 of its peak (``_closed_form_row``).  It calls no
FFT and synthesises no sample, so it stays independent of the FID.

All of readout is array code.  Each register gets one readout model,
built on first use and kept while the register lives: its line table,
sorted by frequency so that decoding a peak is a binary search, the
ancilla transitions of its expanded register and the one population
share of their configurations, the acquisitions whose grid covers its
lines, and the readouts and rows of the reference states it has been
read against.  What depends on the acquisition alone - the frequency
axis, the closed-form kernel's bin tables, the FID's decay envelope and the
work arrays that readout writes into - is built once per acquisition and
shared by every register (``_acquisition_grid``): a fresh register
rebuilds none of it, and readout writes its kernel blocks, kernel sums,
FID term blocks and FFT row into arrays that are already there.  The FID
needs no pulse matrix (see ``_fid_row``) and is synthesised in blocks, as
one matrix product; a difference that is the same on every item, as
every prepared state's is, costs two half-register sums, not one term
per configuration.

The line table also decides whether a register can be read at all: every
line frequency must belong to one item, distinct frequencies must lie a
linewidth apart, and no line may sit under the others' summed tails
(``_check_decodable``).  It also sizes the grid: ``for_system`` takes the
fewest points, a power of two, that cover the lines, give the closest two
four bins and last ``_MIN_ACQUISITION_T2`` T2, since readout work is
linear in the point count.  Each peak is refined by the parabola through
the reciprocals of its three samples, exact for a Lorentzian, and then
decodes as the line frequency closer than half the smallest gap; two peaks
on one line frequency are refused.

Both routes are linear in the per-item ancilla differences, and a query
changes those only on the items it matches.  So a run reads out against a
reference (``readout``).  The reference state's readout - FFT spectrum,
decoded peaks and route gap - and its FID and closed-form rows are made
once per acquisition grid and cached in the register's model, read-only; a
readout that raises is not cached.  Every later state of the run is that
reference's rows plus the readout of its difference from it, which
synthesises FID terms and evaluates kernel rows only where the difference
is nonzero, and is then transformed, picked, decoded and compared with
its closed-form row in full.  Every gap, cached or not, is checked
against ``_ROUTE_GUARD``.  ``readout`` is the one public route, and
reads one state as a one-state tuple.  A readout keeps each peak once, as
arrays; its ``Peak`` records are built only when they are read.
"""

from __future__ import annotations

import functools
import math
import numbers
import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .operators import MAX_DENSE_QUBITS, zz_hamiltonian_diagonal
from .spin_system import SpinSystem
from .states import DensityState

__all__ = [
    "AcquisitionParams",
    "SpectralLine",
    "Spectrum",
    "Peak",
    "SpectrometerError",
    "DecodeError",
    "Readout",
    "line_table",
    "readout",
    "spectrum_csv",
]

# elements per work buffer of the closed-form line sum (512 KiB of float64):
# a block of dense kernel rows, of near-field panels or of far-field node rows
_CHUNK_ELEMENTS = 1 << 16

# phasor table entries per block of an FID term sum (64 KiB of complex): a
# difference of many terms is summed a block of terms at a time, each later
# block's product added from the grid's work row
_TERM_ELEMENTS = 1 << 12

# Chebyshev nodes per panel of the closed-form far field, the fewest that
# keep each far line within 2 (3 + sqrt 8)^-q <= 1e-13 of its peak (18,
# 3.3e-14; see ``_closed_form_row``)
_PANEL_NODES = math.ceil(math.log(2e13) / math.log(3.0 + math.sqrt(8.0)))


class SpectrometerError(ValueError):
    """Raised for unusable acquisition settings or states."""


class DecodeError(SpectrometerError):
    """Raised when a peak cannot be matched to exactly one expected line."""


# Largest acquisition grid: one complex FID row of 2^22 points is 64 MiB,
# and readout holds a few such rows per state.  A grid beyond it is refused,
# never shrunk.
_MAX_POINTS = 2**22

# Smallest acquisition grid, and the lower bound ``for_system`` starts from
_MIN_POINTS = 256

# An extremum counts as a peak when its magnitude is at least this fraction
# of the tallest one.  Every readout picks at it, and ``cli`` refuses a
# schedule long enough for T2 decay to push the signal below it.
_PICK_THRESHOLD = 0.05

# A readout whose FFT and closed-form spectra disagree beyond this (relative
# L-inf) is a numerical failure (``DecodeError``).  Both routes model the same
# finite acquisition, so they part only by rounding.
_ROUTE_GUARD = 1e-9

# Shortest acquisition, in T2, that ``_check_duration`` lets a run read out.
# Under it the truncated FID's sidelobes grow into extra peaks (about 1 T2)
# and the peaks' positions drift from their lines.  At 8 T2 the decoded
# peaks of the builtin register lie closer to their lines than at 16 T2 with
# the parabola on the samples themselves; at 4 T2 they lie farther.
_MIN_ACQUISITION_T2 = 8.0


@dataclass(frozen=True)
class AcquisitionParams:
    """Sampling grid for readout.

    ``dwell_s`` sets the spectral width (1/dwell); ``t2_s`` the coherence
    decay and hence the Lorentzian full width 1/(pi t2).  The receiver is
    the register's rotating frame, where every ``Spin.offset_hz`` is
    stated, so the frequency axis is centred on 0 Hz.
    """

    n_points: int = 16384
    dwell_s: float = 1.0 / 512.0
    t2_s: float = 2.0

    def __post_init__(self):
        if not isinstance(self.n_points, numbers.Integral) or isinstance(self.n_points, bool):
            raise SpectrometerError(f"n_points must be an integer, not {self.n_points!r}")
        if self.n_points < _MIN_POINTS or self.n_points & (self.n_points - 1):
            raise SpectrometerError(f"n_points must be a power of two, at least {_MIN_POINTS}")
        if self.n_points > _MAX_POINTS:
            raise SpectrometerError(
                f"{self.n_points} points exceed the {_MAX_POINTS}-point acquisition cap"
            )
        for x in (self.dwell_s, self.t2_s):
            if isinstance(x, bool) or not isinstance(x, numbers.Real) or not math.isfinite(x):
                raise SpectrometerError("dwell_s and t2_s must be finite real numbers")
        if self.dwell_s <= 0 or self.t2_s <= 0:
            raise SpectrometerError("dwell_s and t2_s must be positive")

    @property
    def spectral_width_hz(self) -> float:
        return 1.0 / self.dwell_s

    @property
    def linewidth_hz(self) -> float:
        """Full width at half maximum of each line."""
        return 1.0 / (math.pi * self.t2_s)

    def times(self) -> np.ndarray:
        return np.arange(self.n_points) * self.dwell_s

    def frequency_grid(self) -> np.ndarray:
        """Ascending frequency axis of the matching FFT spectrum: bin b at (b - N/2) / (N dwell).

        Bit for bit the values of ``fftshift(fftfreq(N, dwell))``.
        """
        n = self.n_points
        return np.arange(-(n // 2), n // 2) * (1.0 / (n * self.dwell_s))

    @classmethod
    def for_system(
        cls,
        system: SpinSystem,
        n_points: int = _MIN_POINTS,
        t2_s: float = t2_s,  # the field's own default, read in the class body
    ) -> "AcquisitionParams":
        """Choose the smallest grid centred on 0 Hz that covers, resolves and lasts.

        The spectral width is the smallest power of two at least 10 Hz
        beyond the width that covers the lines (``_coverage``).  The point
        count is the smallest power of two, at least ``n_points``, that
        lasts ``_MIN_ACQUISITION_T2`` T2 (``_floor_points``) and gives the
        closest pair of distinct lines at least four bins.  So the readout
        work, linear in the point count, is what the register needs.  An
        undecodable register is refused first (``_check_decodable``), so
        that pair is a linewidth apart; a grid that then needs more than
        ``_MAX_POINTS`` points (a very long T2) is refused.
        """
        params = cls(n_points=n_points, t2_s=t2_s)  # refuse bad fields first
        _check_decodable(system, params)
        table = _lines(system)
        _, width = _coverage(table, params)
        sw = 2.0 ** math.ceil(math.log2(width + 10.0))
        n_points = max(n_points, _floor_points(1.0 / sw, t2_s))
        while sw / n_points > table.min_gap_hz / 4.0:
            n_points *= 2
        return cls(n_points=n_points, dwell_s=1.0 / sw, t2_s=t2_s)


@dataclass(frozen=True)
class SpectralLine:
    """One expected transition: item, manifold tag and weight fraction."""

    freq_hz: float
    item: int
    manifold: str  # "inner", "outer", "mixed" or "n/a"
    fraction: float


@dataclass(frozen=True)
class Spectrum:
    freqs_hz: np.ndarray
    amplitude: np.ndarray

    def __post_init__(self):
        if self.freqs_hz.shape != self.amplitude.shape:
            raise SpectrometerError("frequency and amplitude grids differ in length")


class Peak(NamedTuple):
    """One picked and decoded peak: its item and the manifold of its line."""

    freq_hz: float
    amplitude: float
    item: int
    manifold: str


# ---------------------------------------------------------------------------
# expected-line enumeration
# ---------------------------------------------------------------------------


def _manifolds(multiplicity: int, bit: int) -> list[tuple[float, float]]:
    """(m, weight fraction) for one composite spin in a logical state.

    Logical 0 occupies the positive-m half of the 2**mu configurations;
    weights are binomial, normalized within the half.
    """
    half = 2.0 ** (multiplicity - 1)
    out = []
    for down in range(multiplicity + 1):
        m = multiplicity / 2.0 - down
        if (m > 0) == (bit == 0):
            out.append((m, math.comb(multiplicity, down) / half))
    return out


@dataclass(frozen=True, eq=False)
class _LineTable:
    """Expected lines of one register as arrays, in ``line_table`` order.

    Lines run item by item; within an item, composite manifolds vary in
    ``itertools.product`` order.  ``by_freq`` sorts the lines by frequency
    (stable, so equal frequencies keep table order) and the distinct
    frequencies form blocks: ``block_freq[k]`` is shared by the lines
    ``by_freq[block_start[k] : block_start[k] + block_size[k]]``.
    ``block_one_item[k]`` says whether those lines all belong to one item,
    ``block_weight[k]`` sums their weight fractions, and ``min_gap_hz`` is
    the smallest gap between distinct frequencies (inf for a single one).
    These decide decodability (see ``_check_decodable``).
    """

    freq_hz: np.ndarray
    item: np.ndarray
    manifold: tuple[str, ...]
    fraction: np.ndarray
    by_freq: np.ndarray
    block_freq: np.ndarray
    block_start: np.ndarray
    block_size: np.ndarray
    block_one_item: np.ndarray
    block_weight: np.ndarray
    min_gap_hz: float


@dataclass(frozen=True, eq=False)
class _Grid:
    """What readout derives from one acquisition alone, and the work arrays it writes into.

    ``freqs_hz`` is the ascending frequency axis of the FFT spectrum,
    ``bin_cs`` the (2 x points) cosines and sines of the half angle
    b = pi dwell f per bin that the closed-form kernel multiplies by,
    ``bin_cs2`` those of 2 b, which weigh the closed form's finite-sum rows,
    and ``envelope`` the FID's decay exp(-t / T2) per sample; these are
    read-only.  The rest are work arrays, overwritten by every readout on
    the grid: ``sums`` the (3 x points) kernel sums of a closed-form row,
    ``kernel`` its kernel blocks (max(points, ``_CHUNK_ELEMENTS``) float64)
    and then one (3 x points) product of weights and a block, or of the far
    field and its interpolation, and ``row`` one complex row: the FFT's
    input and output, a two-half FID's low half and the later blocks of an
    FID term sum.  So readout is not reentrant: two threads must not read
    out on one acquisition at once.
    """

    freqs_hz: np.ndarray
    bin_cs: np.ndarray
    bin_cs2: np.ndarray
    envelope: np.ndarray
    sums: np.ndarray
    kernel: np.ndarray
    row: np.ndarray


@dataclass(frozen=True, eq=False)
class Readout:
    """One state's readout: FFT spectrum, route gap and decoded peaks.

    Each picked peak is kept once, by frequency, in three read-only arrays:
    its refined frequency ``peak_freq_hz``, signed amplitude
    ``peak_amplitude`` and index ``peak_line`` into the register's line
    table ``table``.  The verdict reads the amplitudes and ``peak_item``,
    the lines' items (``_classify``).  ``peaks``, one ``Peak`` record per
    peak, is built on first read and kept, so a cached readout's records
    are one shared tuple.
    """

    spectrum: Spectrum
    gap: float
    peak_freq_hz: np.ndarray
    peak_amplitude: np.ndarray
    peak_line: np.ndarray
    table: _LineTable

    @functools.cached_property
    def peak_item(self) -> np.ndarray:
        item = self.table.item[self.peak_line]
        _read_only(item)
        return item

    @functools.cached_property
    def peaks(self) -> tuple[Peak, ...]:
        manifold = map(self.table.manifold.__getitem__, self.peak_line.tolist())
        fields = (self.peak_freq_hz.tolist(), self.peak_amplitude.tolist(), self.peak_item.tolist())
        return tuple(map(Peak, *fields, manifold))


@dataclass(eq=False)
class _ReadoutModel:
    """What readout keeps of one register.

    ``lines`` is the line table.  ``transitions`` is built on first use,
    since only the FID route needs the expanded register: two arrays over
    the configurations of its non-ancilla spins, the logical item each
    belongs to and its ancilla transition in rad/s, and the one share of
    an item's populations that every configuration holds (see
    ``_transitions``).  ``covered`` holds the acquisitions whose grid
    covers the lines (see ``_grid``).  ``references`` maps (acquisition,
    populations bit pattern) to a reference state's ``Readout`` and its
    FID and closed-form rows (see ``_reference_readout``).  Every array is
    read-only, and the model holds no reference to its register, so the
    weak cache can drop both.
    """

    lines: _LineTable
    transitions: tuple[np.ndarray, np.ndarray, float] | None = None
    covered: set = field(default_factory=set)
    references: dict = field(default_factory=dict)


# SpinSystem is frozen, compares by identity and its j_hz is read-only, so
# a model stays valid for as long as its register exists
_MODELS: "weakref.WeakKeyDictionary[SpinSystem, _ReadoutModel]" = weakref.WeakKeyDictionary()


def _model(system: SpinSystem) -> _ReadoutModel:
    """The register's readout model, built on first use."""
    model = _MODELS.get(system)
    if model is None:
        model = _MODELS[system] = _ReadoutModel(_build_line_table(system))
    return model


def _lines(system: SpinSystem) -> _LineTable:
    """The register's line table."""
    return _model(system).lines


def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.flags.writeable = False


# Acquisition grids kept at once.  Two suffice: every benchmark workload and
# every command-line run reads out on at most two acquisitions (the 8- and
# 9-qubit registers of the synthetic sweep), and an evicted grid is only
# rebuilt.  A grid holds 15 float64 per point, its kernel blocks included
# once the points outnumber ``_CHUNK_ELEMENTS``, so at ``_MAX_POINTS`` the
# cache holds at most 2 x 15 x 8 x 2^22 B = 960 MiB.
_GRIDS_KEPT = 2


@functools.lru_cache(maxsize=_GRIDS_KEPT)
def _acquisition_grid(params: AcquisitionParams) -> _Grid:
    """The acquisition's frequency axis, bin tables, decay envelope and work arrays, built once."""
    points = params.n_points
    freqs = params.frequency_grid()
    bin_angle = math.pi * params.dwell_s * freqs
    grid = _Grid(
        freqs_hz=freqs,
        bin_cs=np.stack([np.cos(bin_angle), np.sin(bin_angle)]),
        bin_cs2=np.stack([np.cos(2.0 * bin_angle), np.sin(2.0 * bin_angle)]),
        envelope=np.exp(-params.times() / params.t2_s),
        sums=np.empty((3, points)),
        kernel=np.empty(max(_CHUNK_ELEMENTS, points) + 3 * points),
        row=np.empty(points, dtype=complex),
    )
    _read_only(grid.freqs_hz, grid.bin_cs, grid.bin_cs2, grid.envelope)
    return grid


def _grid(system: SpinSystem, params: AcquisitionParams) -> _Grid:
    """The acquisition's grid (``_acquisition_grid``), once it is known to cover the register's lines.

    A grid too narrow for the lines is refused (``_check_coverage``); the
    register's model keeps which acquisitions passed.
    """
    model = _model(system)
    if params not in model.covered:
        _check_coverage(model.lines, params)
        model.covered.add(params)
    return _acquisition_grid(params)


def _build_line_table(system: SpinSystem) -> _LineTable:
    n = system.n_database
    if n > 16:
        raise SpectrometerError("line enumeration capped at 16 database qubits")
    absj = system.ancilla_couplings_abs()
    items = np.arange(2**n)

    # plain spins shift each item's frequency; composite spins fan it out
    # into one line per manifold combination, (items, combos) arrays below
    freq = np.full(2**n, float(system.spins[0].offset_hz))
    shift = np.zeros((2**n, 1))
    fraction = np.ones((2**n, 1))
    inner = np.ones((2**n, 1), dtype=bool)
    outer = np.ones((2**n, 1), dtype=bool)
    composite = False

    def fan(acc, new, op):
        return op(acc[:, :, None], new[:, None, :]).reshape(2**n, -1)

    for i, spin in enumerate(system.spins[1:]):
        bit = (items >> (n - 1 - i)) & 1
        mu = spin.multiplicity
        if mu == 1:
            freq = freq + absj[i] * (1 - 2 * bit) / 2.0
            continue
        composite = True
        (m0, w0), (m1, w1) = (np.array(_manifolds(mu, b)).T for b in (0, 1))
        m = np.where(bit[:, None] == 0, m0, m1)
        w = np.where(bit[:, None] == 0, w0, w1)
        shift = fan(shift, absj[i] * m, np.add)
        fraction = fan(fraction, w, np.multiply)
        inner = fan(inner, np.abs(m) == 0.5, np.logical_and)
        outer = fan(outer, np.abs(m) == mu / 2.0, np.logical_and)

    per_item = shift.shape[1]
    if composite:
        freq = (freq[:, None] + shift).ravel()
        tags = np.where(inner, "inner", np.where(outer, "outer", "mixed")).ravel()
        manifold = tuple(str(t) for t in tags)
    else:
        manifold = ("n/a",) * len(freq)
    by_freq = np.argsort(freq, kind="stable")
    ordered = freq[by_freq]
    block_start = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    block_size = np.diff(np.r_[block_start, len(freq)])
    block_freq = ordered[block_start]
    item = np.repeat(items, per_item)
    # items never decrease in table order, so a block's first and last lines
    # hold its smallest and largest item
    block_one_item = item[by_freq[block_start]] == item[by_freq[block_start + block_size - 1]]
    fraction = fraction.ravel()
    return _LineTable(
        freq_hz=freq,
        item=item,
        manifold=manifold,
        fraction=fraction,
        by_freq=by_freq,
        block_freq=block_freq,
        block_start=block_start,
        block_size=block_size,
        block_one_item=block_one_item,
        block_weight=np.add.reduceat(fraction[by_freq], block_start),
        min_gap_hz=float(np.diff(block_freq).min()) if len(block_freq) > 1 else math.inf,
    )


def _block_items(table: _LineTable, block: int) -> tuple[int, int]:
    """Smallest and largest item among the lines of one block."""
    start = table.block_start[block]
    first, last = table.by_freq[[start, start + table.block_size[block] - 1]]
    return int(table.item[first]), int(table.item[last])


def _check_decodable(system: SpinSystem, params: AcquisitionParams) -> None:
    """Refuse a register whose lines cannot all be read apart on this acquisition.

    The expanded register must fit readout (``_multiplicities``), every
    line frequency must hold one item, distinct frequencies must lie a
    linewidth 1/(pi T2) apart (the usual Lorentzian resolution criterion)
    and no line may be buried (``_buried_block``).  Readout checks only
    the first, so an undecodable register can still be read out.
    """
    _multiplicities(system)
    table = _lines(system)
    mixed = np.flatnonzero(~table.block_one_item)
    if mixed.size:
        a, b = _block_items(table, mixed[0])
        raise SpectrometerError(
            f"items {a} and {b} share the line at {table.block_freq[mixed[0]]:.4f} Hz; "
            "the register cannot be decoded"
        )
    width = params.linewidth_hz
    if table.min_gap_hz < width:
        raise SpectrometerError(
            f"lines {table.min_gap_hz:.4g} Hz apart are not resolved at linewidth "
            f"{width:.4g} Hz (T2 {params.t2_s:g} s)"
        )
    buried = _buried_block(table, width)
    if buried is not None:
        raise SpectrometerError(
            f"the line at {table.block_freq[buried]:.4f} Hz is buried under its "
            f"neighbours' tails at linewidth {width:.4g} Hz (T2 {params.t2_s:g} s)"
        )


def _floor_points(dwell_s: float, t2_s: float) -> int:
    """Fewest points, a power of two, whose acquisition lasts ``_MIN_ACQUISITION_T2`` T2.

    Twice ``_MAX_POINTS`` where none up to the cap does.
    """
    points = _MIN_POINTS
    while points <= _MAX_POINTS and points * dwell_s < _MIN_ACQUISITION_T2 * t2_s:
        points *= 2
    return points


def _check_duration(params: AcquisitionParams) -> None:
    """Refuse a grid that lasts under ``_MIN_ACQUISITION_T2`` T2, too short to read out.

    ``cli.run_fetch`` asks it of every grid, and ``for_system`` chooses
    none shorter (``_floor_points``).  Readout does not ask, so the route
    comparisons can still read a short grid on purpose.
    """
    if params.n_points < _floor_points(params.dwell_s, params.t2_s):
        seconds = params.n_points * params.dwell_s
        raise SpectrometerError(
            f"acquisition of {params.n_points} points lasts {seconds:.4g} s = {seconds / params.t2_s:.5g} T2,"
            f" under the {_MIN_ACQUISITION_T2:g} T2 readout needs; use more points or a shorter T2"
        )


def _buried_block(table: _LineTable, width_hz: float) -> int | None:
    """First line frequency whose weight does not exceed the others' summed tails there.

    Heights follow the weights (prepared states differ equally on every
    item, and a query flips signs), so a weak line under a neighbour's tail
    can vanish or leave a spurious extremum when the query inverts it; the
    one-width rule misses this for the outer lines of composite groups.
    With the k-th neighbour at least k gaps away, the tails sum to at most
    the largest weight times x coth x - 1, x = pi width / (2 gap); only a
    table above that bound is summed pair by pair, a few rows at a time.
    """
    weight = table.block_weight
    x = math.pi * width_hz / (2.0 * table.min_gap_hz)
    if x == 0.0 or weight.min() > weight.max() * (x / math.tanh(x) - 1.0):
        return None
    rows = max(1, _CHUNK_ELEMENTS // len(weight))
    for lo in range(0, len(weight), rows):
        own = weight[lo : lo + rows]
        offset = (table.block_freq[lo : lo + rows, None] - table.block_freq) / (width_hz / 2.0)
        tails = (weight / (1.0 + offset * offset)).sum(axis=1) - own
        buried = np.flatnonzero(tails >= own)
        if buried.size:
            return lo + int(buried[0])
    return None


def line_table(system: SpinSystem) -> list[SpectralLine]:
    """All expected ancilla lines of the register, item by item."""
    table = _lines(system)
    return [
        SpectralLine(f, i, m, w)
        for f, i, m, w in zip(
            table.freq_hz.tolist(), table.item.tolist(), table.manifold, table.fraction.tolist()
        )
    ]


def _difference(state: DensityState, system: SpinSystem) -> np.ndarray:
    """Per-item ancilla differences p(0, item) - p(1, item) of one state."""
    if state.n_qubits != system.n_spins:
        raise SpectrometerError("state and system register sizes differ")
    return state.ancilla_difference()


def _line_amplitudes(difference: np.ndarray, table: _LineTable) -> np.ndarray:
    """Signed amplitude per line: half the item's ancilla difference times its weight."""
    return 0.5 * difference[table.item] * table.fraction


def _coverage(table: _LineTable, params: AcquisitionParams) -> tuple[float, float]:
    """The outermost line's distance from 0 Hz, the grid's centre, and the width that covers it.

    The width is 2 (span + 3 linewidths), every line with three linewidths
    of tail: ``_check_coverage`` refuses a narrower grid, and
    ``AcquisitionParams.for_system`` sizes its grid from it.
    """
    span = float(np.max(np.abs(table.block_freq)))
    return span, 2.0 * (span + 3.0 * params.linewidth_hz)


def _check_coverage(table: _LineTable, params: AcquisitionParams) -> None:
    span, width = _coverage(table, params)
    if params.spectral_width_hz < width:
        raise SpectrometerError(
            f"spectral width {params.spectral_width_hz:g} Hz too small for lines "
            f"spanning +-{span:g} Hz"
        )


def _closed_form_row(
    difference: np.ndarray, system: SpinSystem, params: AcquisitionParams
) -> np.ndarray:
    """Closed-form absorptive spectrum of per-item ancilla differences on the acquisition grid.

    Each line is the DFT of its own N sampled, decaying points with the
    first point halved, as ``_absorptive`` reads the FID, summed as a
    finite geometric series: amplitude * dwell * Re[(1 - z^N)/(1 - z) - 1/2]
    with z = exp((i 2 pi (f - nu) - 1/t2) * dwell).  With d = |z| and
    theta = 2 pi (f - nu) dwell, the infinite part Re[(1+z)/(2(1-z))] is
    (1 - d^2) / (2 |1-z|^2) and |1-z|^2 = (1-d)^2 + 4 d sin^2(theta/2).
    As dwell -> 0 and N -> inf this is the textbook Lorentzian
    A*t2 / (1 + (2 pi (nu-f) t2)^2); at finite dwell and N it also carries
    the spectral-window images and the truncation ripple, so it is the
    ideal noiseless FFT readout of the same grid, and the two routes part
    by rounding alone on every grid (Hoch and Stern, NMR Data Processing,
    1996, on the DFT of a truncated decaying signal).

    The half angle splits into a per-line angle l = pi dwell f and a
    per-bin angle b = pi dwell nu, so sines and cosines are taken once,
    and a block of the line x bin kernel 1 / |1-z|^2 is its
    2 sqrt(d) sin(l - b) as one (lines x 2) @ (2 x bins) product
    (``_kernel``).  At the FFT's bins nu N dwell is a whole number offset
    by N/2, so z^N = c = d^N exp(i 2 pi f N dwell) is one number per line,
    and the truncation term -Re[c / (1 - z)] = -Re[c (1 - conj z)] / |1-z|^2
    has the numerator -Re c + d Re[c e^(-2il) e^(2ib)].  So each line puts
    three weights over the same kernel, alpha = A dwell ((1 - d^2)/2 - Re c),
    beta = A dwell d Re w and gamma = -A dwell d Im w with w = c e^(-2il),
    the three weighted kernel sums are taken as (3 x lines) @ block, and
    each bin combines them as alpha + cos 2b beta + sin 2b gamma, with the
    bin factors cached in the grid.  Lines that are exactly zero are
    skipped.

    In bins the kernel is 1 / ((1-d)^2 + 4 d sin^2(pi (s - b) / N)) for a
    line at position s: it depends on the distance alone, is periodic in
    the N bins, and is a sum of Lorentzians of half width
    gamma = N dwell / (2 pi T2) bins over the periodic images of the line.
    So a row with enough lines is evaluated by panels, a one-level
    near/far split (Greengard and Rokhlin 1987; Dutt, Gu and Rokhlin
    1996).  The bins are cut into panels of width m (``_panel_width``).
    Each panel sums exactly the lines of its own and its two neighbouring
    panels, cyclically.  Every other line lies over m bins away, where its
    kernel is smooth: the panel sums those at q = ``_PANEL_NODES``
    Chebyshev nodes and interpolates the sum to its m bins with one
    barycentric matrix, the same for every panel.  The error bound: for a
    pole 1 / (x0 - u) the interpolant at the zeros of T_q misses by
    T_q(u) / (T_q(x0) (x0 - u)), at most 2 rho^-q of the pole term, and a
    far pole lies on or beyond the Bernstein ellipse rho = 3 + sqrt 8 of
    the panel (1.5 panel widths from its centre).  So at a bin t bins from
    a far line, each of the line's three kernel sums is off by at most
    2 rho^-q gamma / sqrt(t^2 + gamma^2) of its own peak, under 3.3e-14 at
    q = 18.  The bin factors are applied after interpolation and are at
    most 1, so the line is off by at most that times
    |alpha| + |beta| + |gamma| <= (1 + 5 d^N / (1 - d^2)) A dwell (1 - d^2)/2,
    the infinite sum's weight: a factor 1.9 on the builtin grid.  A far
    line's node values are summed with the entries of the panels it is
    near set to zero, so no rounding of a near line's peak leaks into the
    far field.  Where the dense sum costs fewer operations (few lines), it
    runs alone, a few lines at a time; rows of one kind or the other agree
    to rounding.  Both share the sin split, which is exact to about
    eps / (1 - d) relative at a peak: 2e-13 at 16 T2 over 16384 points,
    1.6e-12 at 4 T2 over 65536.
    """
    table = _lines(system)
    amps = _line_amplitudes(difference, table)
    grid = _grid(system, params)
    bin_cs = grid.bin_cs
    points = params.n_points
    dt = params.dwell_s
    decay = math.exp(-dt / params.t2_s)
    one_minus_d = -math.expm1(-dt / params.t2_s)  # no cancellation
    floor = one_minus_d * one_minus_d
    keep = amps != 0.0
    scale = amps[keep] * dt
    freq = table.freq_hz[keep]
    line_angle = math.pi * dt * freq
    # sin(l - b) = sin l cos b - cos l sin b; 2 sqrt(d) folds 4 d into the square
    line_sc = 2.0 * math.sqrt(decay) * np.stack([np.sin(line_angle), -np.cos(line_angle)], axis=1)
    # the phase of z^N in whole turns is f N dwell, cut to its fraction first
    end_angle = 2.0 * math.pi * np.fmod(freq * (points * dt), 1.0)
    tail = math.exp(-points * dt / params.t2_s)  # d^N
    w_angle = end_angle - 2.0 * line_angle
    weights = np.stack(
        [
            scale * (one_minus_d * (1.0 + decay) / 2.0 - tail * np.cos(end_angle)),
            scale * (decay * tail) * np.cos(w_angle),
            scale * (-decay * tail) * np.sin(w_angle),
        ]
    )

    lines = len(scale)
    width = _panel_width(lines, points)
    amp = grid.sums
    amp.fill(0.0)
    blocks, product = grid.kernel[: -3 * points], grid.kernel[-3 * points :].reshape(3, points)
    if width == points:
        rows = max(1, _CHUNK_ELEMENTS // points)
        work = blocks[: rows * points].reshape(rows, points)
        for lo in range(0, lines, rows):
            hi = min(lo + rows, lines)
            block = _kernel(line_sc[lo:hi], bin_cs, floor, work[: hi - lo])
            amp += np.matmul(weights[:, lo:hi], block, out=product)
        return _combine(amp, grid)

    panels, q = points // width, _PANEL_NODES
    # bin b has frequency (b - N/2) / (N dwell)
    position = freq * (points * dt) + points / 2.0
    panel = np.floor(position / width).astype(int) % panels

    # near field: panel p sums the lines of panels p - 1, p and p + 1, which
    # run cyclically through the lines sorted by panel from panel p - 1's
    # first; a panel with no line near has none
    order = np.argsort(panel, kind="stable")
    count = np.bincount(panel, minlength=panels)
    near_count = np.roll(count, 1) + count + np.roll(count, -1)
    active = np.flatnonzero(near_count)
    k = np.arange(near_count.max())
    near = order[(np.roll(np.cumsum(count) - count, 1)[active, None] + k) % lines]
    # (panels x 3 x near lines), padding weighs 0
    near_weight = np.where(k < near_count[active, None], weights[:, near], 0.0).transpose(1, 0, 2)
    near_sc = line_sc[near]
    panel_cs = bin_cs.reshape(2, panels, width).swapaxes(0, 1)
    budget = max(1, _CHUNK_ELEMENTS // width)  # near lines x panels per block
    cols = min(len(k), budget)
    group = max(1, budget // cols)
    amp = amp.reshape(3, panels, width)
    work = blocks[: group * cols * width].reshape(group, cols, width)
    for lo in range(0, len(active), group):
        hi = min(lo + group, len(active))
        which = active[lo:hi]
        cs = panel_cs[which]
        for start in range(0, len(k), cols):
            stop = min(start + cols, len(k))
            block = _kernel(near_sc[lo:hi, start:stop], cs, floor, work[: hi - lo, : stop - start])
            amp[:, which] += np.matmul(near_weight[lo:hi, :, start:stop], block).swapaxes(0, 1)

    # far field at the Chebyshev nodes of the first kind on each panel's bins
    angle = (2 * np.arange(q) + 1) * (math.pi / (2 * q))
    node = (width - 1) / 2.0 * (1.0 - np.cos(angle))
    node_freq = (np.arange(0, points, width)[:, None] + node - points / 2.0) / (points * dt)
    node_angle = math.pi * dt * node_freq.ravel()
    node_cs = np.stack([np.cos(node_angle), np.sin(node_angle)])
    far = np.zeros((3, panels * q))
    rows = max(1, _CHUNK_ELEMENTS // (panels * q))
    work = blocks[: rows * panels * q].reshape(rows, panels * q)
    for lo in range(0, lines, rows):
        hi = min(lo + rows, lines)
        block = _kernel(line_sc[lo:hi], node_cs, floor, work[: hi - lo])
        own = (panel[lo:hi, None] + np.arange(-1, 2)) % panels  # a near line is not far
        block.reshape(hi - lo, panels, q)[np.arange(hi - lo)[:, None], own] = 0.0
        far += weights[:, lo:hi] @ block
    bary = (-1.0) ** np.arange(q) * np.sin(angle)
    interpolate = bary[:, None] / (np.arange(width) - node[:, None])
    interpolate /= interpolate.sum(axis=0)
    amp += np.matmul(far.reshape(3, panels, q), interpolate, out=product.reshape(amp.shape))
    return _combine(grid.sums, grid)


def _combine(amp: np.ndarray, grid: _Grid) -> np.ndarray:
    """One closed-form row from its three kernel sums: alpha + cos 2b beta + sin 2b gamma per bin."""
    row = amp[1] * grid.bin_cs2[0]
    row += amp[0]
    row += amp[2] * grid.bin_cs2[1]
    return row


def _kernel(line_sc: np.ndarray, bin_cs: np.ndarray, floor: float, out: np.ndarray) -> np.ndarray:
    """1 / (floor + (line_sc @ bin_cs)^2), written into ``out``: a block of the closed-form kernel."""
    den = np.matmul(line_sc, bin_cs, out=out)
    np.square(den, out=den)
    den += floor
    return np.reciprocal(den, out=den)


def _panel_width(lines: int, points: int) -> int:
    """Panel width of a closed-form row, ``points`` where the dense sum is cheaper.

    Per row the dense sum costs lines x points kernel entries, and panels
    of width m cost about 3 lines m (near field), points q lines / m (far
    lines at q nodes per panel) and points q (interpolation).  The width
    is the power of two, at most a quarter of the points, that costs
    least.
    """
    q = _PANEL_NODES
    width, cost = points, lines * points
    for m in (1 << e for e in range(1, (points // 4).bit_length())):
        panel_cost = 3 * lines * m + points * q * lines // m + points * q
        if panel_cost < cost:
            width, cost = m, panel_cost
    return width


# ---------------------------------------------------------------------------
# time-domain route
# ---------------------------------------------------------------------------


def _multiplicities(system: SpinSystem) -> list[int]:
    """Physical spins per logical qubit, ancilla first.

    The expanded register has 2^n_phys configurations, so one above
    ``MAX_DENSE_QUBITS`` spins is refused.
    """
    mults = [1] + [s.multiplicity for s in system.spins[1:]]
    if sum(mults) > MAX_DENSE_QUBITS:
        raise SpectrometerError(
            f"expanded register has {sum(mults)} spins; readout is limited to {MAX_DENSE_QUBITS}"
        )
    return mults


def _phasors(times: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """exp(i omega t) as a (times x omega) table, for evenly spaced times from 0.

    With a power-of-two count of times, t = (j F + k) step splits the table
    into a coarse factor exp(i omega j F step) and a fine factor
    exp(i omega k step), F ~ sqrt(count): exp is taken on about
    2 sqrt(count) rows and each entry costs one complex multiply.
    """
    fine = 1 << (len(times).bit_length() - 1) // 2
    coarse = np.exp(1.0j * np.outer(times[::fine], omega))
    table = coarse[:, None, :] * np.exp(1.0j * np.outer(times[:fine], omega))
    return table.reshape(len(times), len(omega))


def _transitions(system: SpinSystem) -> tuple[np.ndarray, np.ndarray, float]:
    """(item, omega, share) of the expanded register: composite qubits unfolded.

    Each composite qubit of multiplicity mu becomes mu equivalent spin
    copies, with the qubit's offset and couplings and no coupling among
    themselves.  Per configuration of the spins other than the ancilla,
    ``item`` is the logical database item (a qubit reads 1 when most of its
    copies are down) and ``omega`` = E(0, d) - E(1, d) the ancilla
    transition in rad/s, from the diagonal Hamiltonian of the expanded
    register.  Every item spreads its populations evenly over the
    2^(mu - 1) matching configurations of each composite qubit, so each
    configuration holds the same ``share`` of its item's, 2^-sum(mu - 1).
    Built once per register and kept in its model.
    """
    model = _model(system)
    if model.transitions is None:
        mults = _multiplicities(system)
        owner = np.repeat(np.arange(system.n_spins), mults)  # logical qubit per physical spin
        couplings = system.logical_j_hz[np.ix_(owner, owner)]
        couplings[owner[:, None] == owner] = 0.0  # equivalent copies: mutual J is silent
        energies = zz_hamiltonian_diagonal(system.offsets_hz()[owner], couplings)
        half = len(energies) // 2  # the ancilla is the leading physical spin
        down = (np.arange(half)[:, None] >> np.arange(len(owner) - 2, -1, -1)) & 1
        copies = owner[1:, None] == np.arange(1, system.n_spins)  # spin x database qubit
        downs = down @ copies.astype(float)  # float, so that the product runs in BLAS
        majority = downs > np.array(mults[1:]) // 2
        item = majority @ (1 << np.arange(system.n_database - 1, -1, -1))
        omega = energies[:half] - energies[half:]
        _read_only(item, omega)
        model.transitions = (item, omega, 2.0 ** (system.n_spins - len(owner)))
    return model.transitions


def _fid_row(
    difference: np.ndarray, system: SpinSystem, params: AcquisitionParams
) -> np.ndarray:
    """FID of per-item ancilla differences: 90-degree ancilla pulse, free evolution, decay.

    Composite qubits are unfolded into their physical spin copies and the
    ancilla coherence Tr(rho(t) I+) is sampled on the acquisition grid in
    the register's rotating frame.  For a diagonal rho an x pulse
    exp(-i pi/2 I_x) on the ancilla leaves exactly
    <1,d| rho |0,d> = -i/2 (p(0,d) - p(1,d)) for each configuration d of
    the other spins: the closed form of the conjugation, with no matrix
    needed.  Each coherence then precesses at the ancilla transition of
    its configuration, taken from the diagonal Hamiltonian of the expanded
    register.  The receiver phase is fixed so that positive ancilla
    polarization gives positive absorptive lines after ``_absorptive``.

    A configuration's population difference is its item's times the
    register's one ``share`` (see ``_transitions``).  Samples are
    synthesised in blocks: with t = (m B + b) dwell, a term sum is one
    (blocks x terms) @ (terms x B) product of two exponential tables
    (``_term_sum``), written into the preallocated row.  Where the
    difference is the same on every item - every prepared state, and a
    query that matches every item - every configuration has one amplitude,
    and the sum over the 2^m configurations is the product of two
    half-register sums of 2^(m - m // 2) and 2^(m // 2) terms (``_halves``):
    the row costs 2 2^(m/2) N instead of 2^m N.  Any other difference is
    summed term by term over its nonzero configurations, a block of terms
    at a time (``_TERM_ELEMENTS``), so that no phasor table is a large
    temporary.
    """
    grid = _grid(system, params)
    item, omega, share = _transitions(system)
    block = 1 << (params.n_points.bit_length() - 1) // 2  # ~sqrt(n_points)
    starts = np.arange(0, params.n_points, block) * params.dwell_s
    offsets = np.arange(block) * params.dwell_s
    fid = np.empty(params.n_points, dtype=complex)
    rows, work = fid.reshape(len(starts), block), grid.row.reshape(len(starts), block)
    # receiver phase i times the coherence -i/2 (p0 - p1): a real amplitude
    if difference.min() == difference.max():  # one amplitude on every configuration
        high, low = _halves(omega)
        _term_sum(starts, offsets, high, 0.5 * difference[0] * share, rows)
        _term_sum(starts, offsets, low, 1.0, work)
        fid *= grid.row
    else:
        amp = 0.5 * difference[item] * share
        keep = np.flatnonzero(amp)
        step = max(1, _TERM_ELEMENTS // len(starts))
        for lo in range(0, max(len(keep), 1), step):  # exp(-i (E1 - E0) t)
            terms = keep[lo : lo + step]
            _term_sum(starts, offsets, omega[terms], amp[terms], work if lo else rows)
            if lo:
                fid += grid.row
    fid *= grid.envelope
    return fid


def _halves(omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two half-register term sets of the ancilla transitions: omega(hi, 0) - omega(0, 0) and omega(0, lo).

    A configuration d = (hi, lo) splits into its leading m - m // 2 and
    trailing m // 2 spins.  omega(d) = E(0, d) - E(1, d) holds only the
    ancilla's offset and its couplings to the spins of d, so it is a sum of
    one term per spin, and omega(hi, lo) = (omega(hi, 0) - omega(0, 0)) +
    omega(0, lo): exp(i omega(d) t) summed over d is the product of the two
    sets' sums.
    """
    low = 1 << (len(omega).bit_length() - 1) // 2
    return omega[::low] - omega[0], omega[:low]


def _term_sum(starts: np.ndarray, offsets: np.ndarray, omega: np.ndarray, amp, out: np.ndarray) -> None:
    """sum_k amp_k exp(i omega_k (s + o)) for every start s and offset o, into ``out`` (starts x offsets).

    exp(i w (s + o)) is exp(i w s) * exp(i w o), so the sum is one
    (starts x terms) @ (terms x offsets) product of the two ``_phasors``
    tables, with the amplitudes folded into the left one.
    """
    table = _phasors(starts, omega)
    table *= amp
    np.matmul(table, _phasors(offsets, omega).T, out=out)


def _read(
    fid: np.ndarray, closed: np.ndarray, system: SpinSystem, params: AcquisitionParams
) -> Readout:
    """One state's FFT spectrum, route gap (``_route_gap``) and decoded peaks, from its two rows.

    Peaks are picked at ``_PICK_THRESHOLD`` and decoded as arrays; a peak
    that does not decode raises ``DecodeError``, and so do two peaks that
    decode to one line frequency, since a line has one peak: the second is
    a sidelobe or an artefact, which would otherwise be read as the item's
    sign.  The spectrum takes the grid's cached axis.
    """
    grid = _grid(system, params)
    spectrum = Spectrum(grid.freqs_hz, _absorptive(fid, params.dwell_s, grid.row))
    freq, amp = _pick(spectrum, _PICK_THRESHOLD)
    table, lines = _lines(system), _decode(freq, system)
    twice = np.flatnonzero(lines[1:] == lines[:-1])  # peaks come by frequency
    if twice.size:
        k = int(twice[0])
        raise DecodeError(
            f"peaks at {freq[k]:.4f} and {freq[k + 1]:.4f} Hz both decode to the line at"
            f" {table.freq_hz[lines[k]]:.4f} Hz"
        )
    _read_only(freq, amp, lines)
    return Readout(spectrum, _route_gap(spectrum.amplitude, closed), freq, amp, lines, table)


def _route_gap(amplitude: np.ndarray, closed: np.ndarray) -> float:
    """Largest difference of the FFT spectrum from the closed-form row, relative to the row's peak."""
    top = float(np.max(np.abs(closed)))
    return float(np.max(np.abs(amplitude - closed))) / top if top > 0.0 else 0.0


def _reference_readout(
    state: DensityState, system: SpinSystem, params: AcquisitionParams
) -> tuple[Readout, np.ndarray, np.ndarray]:
    """A reference state's ``Readout``, FID row and closed-form row, cached in the register's model.

    The rows are kept because later states add their differences to them
    (``readout``).  The cache key is the acquisition and the bit pattern of
    the state's populations, so a hit is the same state on the same grid,
    bit for bit, and a cached and a freshly computed reference are
    identical.  A readout that raises is not cached, and the cached arrays
    are read-only.
    """
    difference = _difference(state, system)
    references = _model(system).references
    key = (params, state.populations.tobytes())
    cached = references.get(key)
    if cached is None:
        fid = _fid_row(difference, system, params)
        closed = _closed_form_row(difference, system, params)
        read = _read(fid, closed, system, params)
        _read_only(fid, closed, read.spectrum.amplitude)
        cached = references[key] = (read, fid, closed)
    return cached


def readout(
    states: tuple[DensityState, ...], system: SpinSystem, params: AcquisitionParams
):
    """Each state's ``Readout``, yielded state by state, each route gap checked.

    The first state is the reference (see ``_reference_readout``).  Both
    routes are linear in the ancilla differences, so every later state's
    rows are the reference's plus the readout of its difference from the
    reference, which has FID terms and kernel rows only for the items where
    the two states differ.  No threshold applies: an item whose difference
    is not exactly zero is read out.  Every later state is then
    transformed, picked and decoded and its route gap measured in full
    (``_read``).  State by state, in order, the peaks are decoded and then
    the gap is checked against ``_ROUTE_GUARD``, for cached and fresh
    readouts alike, so the first state's decode and route failures come
    before the second's.  Readouts are made only when asked for, so a
    failure on one state stops the work on the next.
    """
    reference, reference_fid, reference_closed = _reference_readout(states[0], system, params)
    base = states[0].ancilla_difference()
    for k, state in enumerate(states):
        read = reference
        if k:
            delta = _difference(state, system) - base
            fid = _fid_row(delta, system, params)
            fid += reference_fid
            closed = _closed_form_row(delta, system, params)
            closed += reference_closed
            read = _read(fid, closed, system, params)
        if read.gap > _ROUTE_GUARD:
            raise DecodeError(
                f"time-domain and closed-form spectra disagree ({read.gap:.2e} relative)"
            )
        yield read


def _absorptive(fid: np.ndarray, dwell_s: float, work: np.ndarray | None = None) -> np.ndarray:
    """Real part of the dwell-scaled, centred DFT of a complex FID, first point halved.

    The FID is copied into ``work``, a complex row of its length (a fresh
    one when None), and transformed there in place.
    """
    if work is None:
        work = np.empty_like(fid)
    np.copyto(work, fid)
    work[0] *= 0.5
    spec = np.fft.fft(work, out=work)
    spec *= dwell_s
    return np.fft.fftshift(spec.real)


# ---------------------------------------------------------------------------
# peaks and decoding
# ---------------------------------------------------------------------------


def _extrema(x: np.ndarray, height: float = -math.inf) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the local maxima and minima of ``x`` whose magnitude reaches ``height``.

    This is the rule of ``scipy.signal.find_peaks``: a maximum is a strict
    rise followed by a strict fall, a flat top counts once, at the middle
    index (left + right) // 2 of its run of equal samples, and the first
    and last samples are never extrema.  Minima are the maxima of -x.
    Only the inner samples with |x| >= ``height`` are looked at, and a run
    of equal samples is all in or all out, so the runs among them are
    found once: each is compared with the samples just outside it.  A run
    that reaches an edge is cut short there, so it keeps an equal sample
    beside it and is neither kind of extremum.
    """
    at = np.flatnonzero(np.abs(x[1:-1]) >= height) + 1
    if not at.size:
        return at, at
    level = x[at]
    same = (at[1:] == at[:-1] + 1) & (level[1:] == level[:-1])  # sample k + 1 continues k's run
    start, end = at[np.concatenate(([True], ~same))], at[np.concatenate((~same, [True]))]
    before, level, after = x[start - 1], x[start], x[end + 1]
    mid = (start + end) // 2
    return mid[(before < level) & (after < level)], mid[(before > level) & (after > level)]


def _pick(spectrum: Spectrum, threshold_frac: float) -> tuple[np.ndarray, np.ndarray]:
    """Local extrema above a fraction of the tallest magnitude, as (frequency, amplitude) arrays.

    Extrema are found by ``_extrema``; a maximum counts when its sample is
    at least the threshold, a minimum when its negation is.  Only samples
    whose magnitude reaches the threshold can be kept, so the extrema are
    looked for among those alone.  Each peak's position and height are
    refined by the parabola through the reciprocals 1/y of the three
    samples around it: an absorptive Lorentzian's reciprocal is a
    parabola, so its vertex is the line's centre and height, and line
    centres are recovered far below the grid spacing.  Where a neighbour
    sample is not positive, the parabola runs through the samples
    themselves, and so it does where the 1/y parabola's vertex is not
    positive: a line well under a bin wide, whose 1/y samples are no
    parabola (the readout floor, ``_MIN_ACQUISITION_T2``, makes every line
    8 / pi bins wide at half height).  The refinement runs on the
    sign-flipped samples of a minimum, so both kinds are refined as maxima,
    all of them at once.  The peaks come back by frequency.
    """
    amp = spectrum.amplitude
    height = threshold_frac * np.max(np.abs(amp), initial=0.0)
    maxima, minima = _extrema(amp, height)
    idx = np.concatenate([maxima, minima])
    sign = np.repeat([1.0, -1.0], [len(maxima), len(minima)])
    keep = sign * amp[idx] >= height
    # an edge sample is never a peak, and its refinement would read past the grid
    keep &= (idx > 0) & (idx < amp.size - 1)
    idx, sign = idx[keep], sign[keep]
    if not idx.size:  # also a flat or one-sample spectrum, which has no grid step
        return np.empty(0), np.empty(0)
    y0, y1, y2 = (sign * amp[idx + k] for k in (-1, 0, 1))
    shift, value = _vertex(y0, y1, y2)
    lorentz = (y0 > 0.0) & (y2 > 0.0)  # y1 reaches the threshold, so it is positive
    with np.errstate(over="ignore", invalid="ignore"):  # a subnormal y: inf, then nan, falls back
        inverse_shift, inverse = _vertex(*(1.0 / np.where(lorentz, y, 1.0) for y in (y0, y1, y2)))
    lorentz &= inverse > 0.0
    shift = np.where(lorentz, inverse_shift, shift)
    value = sign * np.where(lorentz, 1.0 / np.where(lorentz, inverse, 1.0), value)
    freq = spectrum.freqs_hz[idx] + shift * (spectrum.freqs_hz[1] - spectrum.freqs_hz[0])
    order = np.argsort(freq, kind="stable")
    return freq[order], value[order]


def _vertex(y0: np.ndarray, y1: np.ndarray, y2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Offset in bins and value of the vertex of the parabola through (-1, y0), (0, y1), (1, y2).

    The offset is 0 where the three samples are collinear.
    """
    denom = y0 - 2.0 * y1 + y2
    shift = np.divide(0.5 * (y0 - y2), denom, out=np.zeros_like(denom), where=denom != 0.0)
    return shift, y1 - 0.25 * (y0 - y2) * shift


def _decode(freq: np.ndarray, system: SpinSystem) -> np.ndarray:
    """Line-table index per frequency; DecodeError for the first that fails.

    A frequency reads as its nearest line frequency (the lower one on a
    tie), and only when it lies closer than half the smallest gap between
    line frequencies, so no frequency is close to two.  It decodes as the
    first line there in table order, and is ambiguous when lines of two
    items share that frequency.
    """
    table = _lines(system)
    block_freq = table.block_freq
    right = np.minimum(np.searchsorted(block_freq, freq), len(block_freq) - 1)
    left = np.maximum(right - 1, 0)
    block = np.where(np.abs(freq - block_freq[left]) <= np.abs(freq - block_freq[right]), left, right)
    tolerance = table.min_gap_hz / 2.0
    far = np.abs(freq - block_freq[block]) >= tolerance
    bad = far | ~table.block_one_item[block]
    if bad.any():
        k = int(np.argmax(bad))
        if far[k]:
            raise DecodeError(f"no expected line within {tolerance:.4g} Hz of {freq[k]:.4f} Hz")
        a, b = _block_items(table, block[k])
        raise DecodeError(f"ambiguous peak at {freq[k]:.4f} Hz: items {a} and {b} share its line")
    return table.by_freq[table.block_start[block]]


def _classify(item: np.ndarray, amps: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The marked and the inconsistent items of decoded peaks, given as arrays, in ascending order.

    An item counts as marked only when every one of its resolved manifold
    peaks is negative; items whose manifolds disagree in sign, or that
    have a zero peak, are reported as inconsistent rather than silently
    resolved.
    """
    items, where = np.unique(item, return_inverse=True)
    count = np.bincount(where, minlength=len(items))
    negative = np.bincount(where, amps < 0, minlength=len(items)) == count
    positive = np.bincount(where, amps > 0, minlength=len(items)) == count
    return tuple(items[negative].tolist()), tuple(items[~negative & ~positive].tolist())


def spectrum_csv(spectrum: Spectrum) -> str:
    lines = ["freq_hz,amplitude"]
    for f, a in zip(spectrum.freqs_hz, spectrum.amplitude):
        lines.append(f"{f:.9g},{a:.12g}")
    return "\n".join(lines) + "\n"
