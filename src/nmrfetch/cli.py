"""Command-line driver for the ensemble fetch experiment.

Subcommands
-----------
simulate   full pipeline: prepare, apply the query once, read out before
           and after spectra, decode marked items, check against the
           classical enumeration
spectrum   pre-query readout only
compile    print the pulse-sequence listing for a pattern
verify     dual-route consistency checks, item by item on the block
           product (compiled vs. direct oracle, hard-pulse vs. ideal,
           fast diagonal vs. block conjugation)
bench      query-count comparison table for search strategies

Exit codes: 0 success (and verified), 2 verification mismatch,
3 configuration error (an undecodable register, an acquisition grid above
its cap and a hard-pulse schedule longer than ln 20 T2 included), 4 numerical
failure.  All artifacts are byte-deterministic for a fixed
configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .compiler import (
    CompileError,
    GateSequence,
    _compressed_product,
    _product_distance,
    build_query_network,
    expand_to_hard_pulses,
    format_sequence,
    sequence_report,
)
from .operators import rotation_block
from .plotting import spectrum_svg
from .spectrometer import (
    _MIN_POINTS,
    _PICK_THRESHOLD,
    _ROUTE_GUARD,
    AcquisitionParams,
    DecodeError,
    Peak,
    Readout,
    SpectrometerError,
    _check_decodable,
    _check_duration,
    _classify,
    _grid,
    readout,
    spectrum_csv,
)
from .spin_system import (
    ConfigError,
    QueryPattern,
    SpinSystem,
    SpinSystemError,
    crotonic_default,
    load_spin_system_file,
)
from .states import (
    DensityState,
    StateError,
    _apply_product,
    apply_query_diagonal,
    effective_pure_ancilla,
    thermal_state,
)

__all__ = [
    "RunConfig",
    "RunResult",
    "run_fetch",
    "classical_oracle",
    "bench_report",
    "direct_oracle_unitary",
    "main",
]

_BACKENDS = {"ideal": "ideal", "hard": "hard_pulse", "fast": "fast_diagonal"}
_INITS = {"thermal": "thermal", "eps": "effective_pure"}

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4

# No relaxation acts during a simulated sequence, but the ancilla is
# transverse through the query, so in the experiment its signal would fall
# by about exp(-duration / T2).  Past ln(1 / threshold) = ln 20 T2 that
# factor is below the 5 % peak-pick threshold, and such a hard-pulse
# schedule is refused.
_MAX_SCHEDULE_T2 = math.log(1.0 / _PICK_THRESHOLD)


@dataclass(frozen=True)
class RunConfig:
    system: SpinSystem
    pattern: QueryPattern
    init: str = "effective_pure"  # or "thermal"
    backend: str = "ideal"  # "ideal" | "hard_pulse" | "fast_diagonal"
    params: AcquisitionParams | None = None

    def __post_init__(self):
        if self.init not in ("thermal", "effective_pure"):
            raise ConfigError(f"unknown init mode {self.init!r}")
        if self.backend not in ("ideal", "hard_pulse", "fast_diagonal"):
            raise ConfigError(f"unknown backend {self.backend!r}")


@dataclass(frozen=True)
class RunResult:
    """What one fetch read out and concluded.

    ``before`` is the register's cached reference ``Readout``: every run
    with the same register, acquisition and prepared state shares it, so
    its arrays are read-only.  ``after`` is read out afresh on every run;
    its frequency axis is the acquisition's shared, read-only one.  The
    spectra are ``before.spectrum`` and ``after.spectrum``.  The verdict
    (``marked``, ``inconsistent``) is taken from the queried readout's
    peak arrays; ``peaks_before`` and ``peaks_after`` are the readouts'
    decoded ``Peak`` records, built when first read.
    """

    before: Readout
    after: Readout
    marked: tuple[int, ...]
    expected: tuple[int, ...]
    inconsistent: tuple[int, ...]
    verified: bool
    sequence: GateSequence | None

    @property
    def peaks_before(self) -> tuple[Peak, ...]:
        return self.before.peaks

    @property
    def peaks_after(self) -> tuple[Peak, ...]:
        return self.after.peaks


def classical_oracle(pattern: QueryPattern, n: int) -> list[int]:
    """Ground truth: every matching item, in ascending order.

    The constrained bits fix one base item; each wildcard bit, most
    significant first, doubles the list with that bit clear and set.  This
    reads the constrained bits directly, independent of ``match_mask``.
    """
    if n > 30:
        raise ConfigError("exhaustive oracle capped at 30 bits")
    fixed = dict(pattern.constrained_qubits(n))
    items = np.zeros(1, dtype=np.int64)
    for qubit in range(1, n + 1):
        bit = 1 << (n - qubit)
        if qubit not in fixed:
            items = (items[:, None] | np.array([0, bit])).ravel()
        elif fixed[qubit]:
            items |= bit
    return items.tolist()


def direct_oracle_unitary(system: SpinSystem, pattern: QueryPattern) -> tuple[np.ndarray, np.ndarray]:
    """Reference oracle built from first principles, bypassing the compiler.

    A matching item picks up exp(-i pi I_z) on the ancilla between two
    basis-toggle pulse pairs H = exp(-i pi I_x) exp(-i pi/2 I_y); everything
    else is untouched.  The oracle never mixes two items, so it is one 2x2
    ancilla block per item, H diag(e^{-i pi/2}, e^{+i pi/2}) H if the item
    matches and H H otherwise, returned in ``compiler._compressed_product``'s
    ``(blocks, src)`` form with every item reading its own columns.
    """
    items = 2**system.n_database
    toggle = rotation_block("x", math.pi) @ rotation_block("y", math.pi / 2.0)
    kick = np.exp(-0.5j * math.pi * np.array([1.0, -1.0]))
    phases = np.where(pattern.match_mask(system.n_database)[:, None], kick, 1.0)
    return (toggle * phases[:, None, :]) @ toggle, np.arange(items)


def _initial_state(system: SpinSystem, init: str) -> DensityState:
    if init == "thermal":
        return thermal_state(system)
    return effective_pure_ancilla(system)


def run_fetch(cfg: RunConfig) -> RunResult:
    """Refuse an unworkable run, then prepare, query once, read out, decode, verify.

    An undecodable register, an acquisition too narrow for its lines or
    shorter than the readout floor (``_check_duration``: only an explicit
    ``params`` can be), a pattern whose length is not the database size
    (``ConfigError``), a hard-pulse schedule longer than
    ``_MAX_SCHEDULE_T2`` T2 and a network that mixes a database qubit
    (``CompileError`` from the product) are refused before any state is
    prepared.  The query is applied to the populations through the block
    product, so no 2^n x 2^n matrix is built.  The prepared state is the
    readout reference, cached per register and acquisition; the queried
    state is read out as its difference from it, and every state's route
    gap is checked (``spectrometer.readout``).  The verdict is taken from
    the queried state's decoded peak arrays (``spectrometer._classify``).
    """
    params = cfg.params
    if params is None:
        params = AcquisitionParams.for_system(cfg.system)  # refuses an undecodable register
    else:
        _check_decodable(cfg.system, params)
    _check_duration(params)
    _grid(cfg.system, params)  # refuses a grid too narrow for the lines
    expected = tuple(classical_oracle(cfg.pattern, cfg.system.n_database))

    sequence: GateSequence | None = None
    if cfg.backend != "fast_diagonal":
        sequence = build_query_network(cfg.system, cfg.pattern)
        if cfg.backend == "hard_pulse":
            sequence = expand_to_hard_pulses(sequence, cfg.system)
            seconds = sequence.duration_s
            if seconds > _MAX_SCHEDULE_T2 * params.t2_s:
                raise CompileError(
                    f"hard-pulse schedule lasts {seconds:.6g} s ({seconds / params.t2_s:.4g} T2),"
                    f" longer than ln 20 = {_MAX_SCHEDULE_T2:.4g} T2: the ancilla signal"
                    " would decay below the 5 % peak-pick threshold"
                )

    # the product refuses a network that mixes a database qubit, so it comes first
    product = None if sequence is None else _compressed_product(sequence, cfg.system)
    state = _initial_state(cfg.system, cfg.init)
    if product is None:
        queried = apply_query_diagonal(state, cfg.pattern)
    else:
        queried = _apply_product(state, *product)

    before, after = readout((state, queried), cfg.system, params)

    marked, inconsistent = _classify(after.peak_item, after.peak_amplitude)
    verified = marked == expected and not inconsistent
    return RunResult(before, after, marked, expected, inconsistent, verified, sequence)


def bench_report(n_bits: int, n_marked: int) -> dict:
    """Query counts for competing search strategies on N = 2**n_bits items."""
    if n_bits < 1:
        raise ConfigError("n_bits must be at least 1")
    if n_bits >= sys.float_info.max_exp:  # 2**n_bits and the ratios below overflow a float
        raise ConfigError(f"n_bits must be below {sys.float_info.max_exp}")
    n_items = 2**n_bits
    if not 1 <= n_marked <= n_items:
        raise ConfigError("n_marked must lie in [1, 2**n_bits]")
    grover = math.ceil((math.pi / 4.0) * math.sqrt(n_items / n_marked))
    return {
        "n_bits": n_bits,
        "n_items": n_items,
        "n_marked": n_marked,
        "queries": {
            "classical_expected": n_items / (n_marked + 1),
            "grover": grover,
            "per_bit_bisection": n_bits,
            "ensemble_fetch": 1,
        },
        "notes": {
            "classical_expected": "mean draws without replacement, N/(M+1)",
            "grover": "ceil((pi/4) * sqrt(N/M)) amplitude-amplification rounds",
            "per_bit_bisection": "one ensemble query per address bit (single match)",
            "ensemble_fetch": "this package: one query, all matches read out at once",
        },
    }


# ---------------------------------------------------------------------------
# artifact plumbing
# ---------------------------------------------------------------------------


def _peak_dict(p) -> dict:
    return {**p._asdict(), "marked": p.amplitude < 0}


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _system_dict(system: SpinSystem) -> dict:
    return {
        "labels": list(system.labels),
        "n_database": system.n_database,
        "ancilla": system.spins[0].label,
        "bit_signs": list(system.bit_signs),
    }


def _report_dict(rep, params: AcquisitionParams) -> dict:
    return {
        "n_pulses": rep.n_pulses,
        "pulse_counts": {f"{axis},{deg:g}": c for (axis, deg), c in sorted(rep.pulse_counts.items())},
        "n_zz": rep.n_zz,
        "n_virtual_z": rep.n_virtual_z,
        "n_delays": rep.n_delays,
        "total_duration_s": rep.total_duration_s,
        "duration_t2": rep.total_duration_s / params.t2_s,
    }


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; remap to the config-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _load_system(spec: str) -> SpinSystem:
    if spec == "builtin":
        return crotonic_default()
    return load_spin_system_file(spec)


def _acq_from_args(system: SpinSystem, args) -> AcquisitionParams:
    return AcquisitionParams.for_system(system, n_points=args.points, t2_s=args.t2)


def _add_common(p: argparse.ArgumentParser, pattern_required: bool) -> None:
    p.add_argument("--system", default="builtin", help="'builtin' or a config file path")
    if pattern_required is not None:
        p.add_argument(
            "--pattern",
            required=pattern_required,
            help="query string over {0,1,x}, qubit 1 leftmost",
        )


def _add_acquisition(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--points",
        type=int,
        default=_MIN_POINTS,
        help="least FID length (power of two); raised to what the register needs",
    )
    p.add_argument(
        "--t2", type=float, default=AcquisitionParams.t2_s, help="coherence decay time in seconds"
    )


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="artifact directory")
    p.add_argument(
        "--emit",
        default="",
        help="comma list from csv,json,svg,seq (requires --out)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nmrfetch", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sim = sub.add_parser("simulate", help="full fetch run with verification")
    _add_common(sim, pattern_required=True)
    sim.add_argument("--init", choices=sorted(_INITS), default="eps")
    sim.add_argument("--backend", choices=sorted(_BACKENDS), default="ideal")
    _add_acquisition(sim)
    _add_output(sim)

    spec = sub.add_parser("spectrum", help="pre-query spectrum only")
    _add_common(spec, pattern_required=None)
    spec.add_argument("--init", choices=sorted(_INITS), default="eps")
    _add_acquisition(spec)
    _add_output(spec)

    comp = sub.add_parser("compile", help="pulse-sequence listing for a pattern")
    _add_common(comp, pattern_required=True)
    comp.add_argument("--backend", choices=["ideal", "hard"], default="ideal")
    _add_output(comp)

    ver = sub.add_parser("verify", help="dual-route oracle comparison")
    _add_common(ver, pattern_required=True)
    ver.add_argument("--backend", choices=sorted(_BACKENDS), default="ideal")

    ben = sub.add_parser("bench", help="query-count comparison table")
    ben.add_argument("--bits", type=int, default=56)
    ben.add_argument("--marked", type=int, default=1)
    _add_output(ben)
    return parser


def _artifact_writer(args, allowed: set[str]):
    """Check ``--out`` and ``--emit`` before any work; return the writer.

    The writer takes ``{kind: render}``, where ``render()`` returns the
    kind's ``{filename: text}`` files, renders the kinds ``--emit`` chose
    (and only those) and writes their files into ``--out``.
    """
    kinds = sorted({tok for tok in args.emit.split(",") if tok})
    if kinds and args.out is None:
        raise ConfigError("--emit requires --out")
    bad = [kind for kind in kinds if kind not in allowed]
    if bad:
        raise ConfigError(
            f"cannot emit {','.join(bad)} here; choose from {','.join(sorted(allowed))}"
        )

    def write(artifacts) -> None:
        for kind in kinds:
            for name, text in artifacts[kind]().items():
                path = Path(args.out) / name
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text)

    return write


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    emit = _artifact_writer(
        args, {"csv", "json", "svg"} | (set() if args.backend == "fast" else {"seq"})
    )
    system = _load_system(args.system)
    cfg = RunConfig(
        system=system,
        pattern=QueryPattern.from_string(args.pattern),
        init=_INITS[args.init],
        backend=_BACKENDS[args.backend],
        params=_acq_from_args(system, args),
    )
    result = run_fetch(cfg)
    params = cfg.params
    print(f"system: {', '.join(system.labels)} (ancilla {system.spins[0].label})")
    print(f"pattern: {''.join(cfg.pattern.constraints)}  init: {cfg.init}  backend: {cfg.backend}")
    print("oracle calls: 1")
    report = None if result.sequence is None else sequence_report(result.sequence)
    if cfg.backend == "hard_pulse":
        seconds = report.total_duration_s
        print(f"schedule: {seconds:.6g} s ({seconds / params.t2_s:.3g} T2)")
    print(f"peaks: {len(result.peaks_before)} before, {len(result.peaks_after)} after")
    print(f"marked items: {_format_items(result.marked)}")
    print(f"expected items: {_format_items(result.expected)}")
    if result.inconsistent:
        print(f"inconsistent items: {_format_items(result.inconsistent)}")
    print(f"verification: {'PASS' if result.verified else 'FAIL'}")
    payload = {
        "system": _system_dict(system),
        "pattern": "".join(cfg.pattern.constraints),
        "init": cfg.init,
        "backend": cfg.backend,
        "acquisition": asdict(params),
        "marked_items": list(result.marked),
        "expected_items": list(result.expected),
        "inconsistent_items": list(result.inconsistent),
        "verified": result.verified,
        "peaks_before": [_peak_dict(p) for p in result.peaks_before],
        "peaks_after": [_peak_dict(p) for p in result.peaks_after],
        "sequence_report": None if report is None else _report_dict(report, params),
    }
    emit(
        {
            "csv": lambda: {
                "before_spectrum.csv": spectrum_csv(result.before.spectrum),
                "after_spectrum.csv": spectrum_csv(result.after.spectrum),
            },
            "svg": lambda: {
                "before_spectrum.svg": spectrum_svg(result.before.spectrum, title="before query"),
                "after_spectrum.svg": spectrum_svg(result.after.spectrum, title="after query"),
            },
            "seq": lambda: {"sequence.seq": format_sequence(result.sequence)},
            "json": lambda: {"result.json": _json_text(payload)},
        }
    )
    return EXIT_OK if result.verified else EXIT_MISMATCH


def _format_items(items) -> str:
    return "{" + ", ".join(str(i) for i in items) + "}" if items else "{}"


def _cmd_spectrum(args) -> int:
    emit = _artifact_writer(args, {"csv", "json", "svg"})
    system = _load_system(args.system)
    params = _acq_from_args(system, args)  # refuses an undecodable register
    init = _INITS[args.init]
    state = _initial_state(system, init)
    (read,) = readout((state,), system, params)
    spec = read.spectrum
    print(f"spectral width: {params.spectral_width_hz:g} Hz, {params.n_points} points")
    print(f"route gap: {read.gap:.2e} (fails above {_ROUTE_GUARD:g})")
    print(f"peaks found: {len(read.peaks)}")
    for p in read.peaks:
        print(
            f"  {p.freq_hz:+10.3f} Hz  amp {p.amplitude:+.6g}  "
            f"item {p.item} ({p.manifold})"
        )
    payload = {
        "system": _system_dict(system),
        "init": init,
        "acquisition": asdict(params),
        "peaks": [_peak_dict(p) for p in read.peaks],
    }
    emit(
        {
            "csv": lambda: {"spectrum.csv": spectrum_csv(spec)},
            "svg": lambda: {"spectrum.svg": spectrum_svg(spec, title="pre-query spectrum")},
            "json": lambda: {"result.json": _json_text(payload)},
        }
    )
    return EXIT_OK


def _cmd_compile(args) -> int:
    emit = _artifact_writer(args, {"seq"})
    system = _load_system(args.system)
    pattern = QueryPattern.from_string(args.pattern)
    seq = build_query_network(system, pattern)
    if args.backend == "hard":
        seq = expand_to_hard_pulses(seq, system)
    listing = format_sequence(seq)
    print(listing, end="")
    emit({"seq": lambda: {"sequence.seq": listing}})
    return EXIT_OK


def _verdict(name: str, value: float, tol: float) -> bool:
    """Print one verify check and say whether it passed."""
    good = value <= tol
    shown = f"max deviation {value:.3e}" if math.isfinite(value) else "products differ in support"
    print(f"{name}: {shown} (tolerance {tol:g}) -> {'ok' if good else 'FAIL'}")
    return good


def _cmd_verify(args) -> int:
    """Check the compiled query against the direct oracle, then the chosen backend.

    Each check compares two models item by item: block products by
    ``_product_distance`` (inf where their item maps differ), and the fast
    backend's populations against the block conjugation that ``run_fetch``
    runs.  A failed oracle check ends the run with exit 2 before the
    backend check.
    """
    system = _load_system(args.system)
    pattern = QueryPattern.from_string(args.pattern)
    network = build_query_network(system, pattern)
    product = _compressed_product(network, system)
    oracle = direct_oracle_unitary(system, pattern)
    if not _verdict("compiled network vs direct oracle", _product_distance(product, oracle), 1e-9):
        return EXIT_MISMATCH
    ok = True
    if args.backend == "hard":
        hard = _compressed_product(expand_to_hard_pulses(network, system), system)
        ok = _verdict("hard-pulse expansion vs ideal gates", _product_distance(hard, product), 1e-6)
    elif args.backend == "fast":
        state = thermal_state(system, polarization=1e-3)
        blocks = _apply_product(state, *product).populations
        fast = apply_query_diagonal(state, pattern).populations
        gap = float(np.max(np.abs(blocks - fast)))
        ok = _verdict("fast diagonal vs block-conjugated populations", gap, 1e-9)
    return EXIT_OK if ok else EXIT_MISMATCH


def _cmd_bench(args) -> int:
    emit = _artifact_writer(args, {"json"})
    report = bench_report(args.bits, args.marked)
    q = report["queries"]
    print(f"database: {report['n_items']} items ({report['n_bits']} bits), {report['n_marked']} marked")
    rows = [
        ("classical (expected)", f"{q['classical_expected']:.6g}"),
        ("grover", str(q["grover"])),
        ("per-bit bisection", str(q["per_bit_bisection"])),
        ("ensemble fetch", str(q["ensemble_fetch"])),
    ]
    width = max(len(r[0]) for r in rows)
    print(f"{'strategy':<{width}}  queries")
    for name, val in rows:
        print(f"{name:<{width}}  {val}")
    emit({"json": lambda: {"bench.json": _json_text(report)}})
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on bad flags and on --help
        return int(exc.code or 0)
    handlers = {
        "simulate": _cmd_simulate,
        "spectrum": _cmd_spectrum,
        "compile": _cmd_compile,
        "verify": _cmd_verify,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except DecodeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, SpinSystemError, CompileError, StateError, SpectrometerError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
