"""Outside-in spans around the public functions of each nmrfetch module.

The tracer swaps a module attribute (``nmrfetch.cli.acquire_fid``,
``nmrfetch.spectrometer.line_table``, ...) for a timing wrapper in every
``nmrfetch`` module that holds it, so it sees both the calls ``run_fetch``
makes and the calls one module function makes to another through its module
globals.  ``install`` and ``uninstall`` are cheap, so a traced and an
untraced op can alternate in one process.  Nothing under ``src/`` changes.

``operators`` is not wrapped: it is reached only from inside ``compiler``,
``states`` and ``spectrometer``, so its time stays in their spans.
``cli.classical_oracle`` is not wrapped either, so it stays in the self time
of ``run_fetch``.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import dataclass, field

# (layer, function) pairs; each becomes a span named "layer.function".
# A function missing from the module is skipped, and its metrics read 0.
TRACED = {
    "spin_system": ("crotonic_default", "load_spin_system"),
    "compiler": ("build_query_network", "expand_to_hard_pulses", "sequence_unitary"),
    "states": (
        "effective_pure_ancilla",
        "thermal_state",
        "apply_unitary",
        "apply_query_diagonal",
    ),
    "spectrometer": (
        "AcquisitionParams.for_system",
        "line_table",
        "analytic_spectrum",
        "acquire_fid",
        "fft_spectrum",
        "pick_peaks",
        "decode_peaks",
        "classify_marked",
    ),
    "cli": ("run_fetch",),
}

# per-op time metrics: metric name -> span names summed (outermost only)
TIME_METRICS = {
    "spin_system.load_ms": tuple(f"spin_system.{f}" for f in TRACED["spin_system"]),
    "compiler.build_query_network_ms": ("compiler.build_query_network",),
    "compiler.expand_to_hard_pulses_ms": ("compiler.expand_to_hard_pulses",),
    "compiler.sequence_unitary_ms": ("compiler.sequence_unitary",),
    "states.prepare_ms": ("states.effective_pure_ancilla", "states.thermal_state"),
    "states.apply_unitary_ms": ("states.apply_unitary",),
    "states.apply_query_diagonal_ms": ("states.apply_query_diagonal",),
    "spectrometer.for_system_ms": ("spectrometer.for_system",),
    "spectrometer.line_table_ms": ("spectrometer.line_table",),
    "spectrometer.acquire_fid_ms": ("spectrometer.acquire_fid",),
    "spectrometer.fft_spectrum_ms": ("spectrometer.fft_spectrum",),
    "spectrometer.analytic_spectrum_ms": ("spectrometer.analytic_spectrum",),
    "spectrometer.pick_peaks_ms": ("spectrometer.pick_peaks",),
    "spectrometer.decode_peaks_ms": ("spectrometer.decode_peaks",),
    "spectrometer.classify_marked_ms": ("spectrometer.classify_marked",),
    "cli.run_fetch_ms": ("cli.run_fetch",),
}

COUNT_METRICS = (
    "compiler.gates",
    "compiler.zz_periods",
    "compiler.hard_pulses",
    "compiler.schedule_t2",
    "compiler.unitary_bytes",
    "states.dense_readouts",
    "spectrometer.line_table_calls",
    "spectrometer.lines",
    "spectrometer.points",
    "spectrometer.peaks",
    "spectrometer.fid_terms",
    "spectrometer.analytic_terms",
    "spectrometer.pulse_bytes",
)


@dataclass(eq=False)
class Span:
    idx: int
    name: str
    op: int | str | None
    parent: int | None
    start_ns: int
    end_ns: int = 0
    args: tuple = ()
    result: object = None

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


@dataclass
class Tracer:
    """In-memory span recorder; spans are written out when the run ends."""

    op: int | str | None = None  # op id stamped on new spans
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _swaps: list[tuple[object, str, object, object]] = field(default_factory=list)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(idx, name, tracer.op, parent, time.perf_counter_ns())
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                span.result = fn(*args, **kwargs)
                span.args = args
                return span.result
            finally:
                span.end_ns = time.perf_counter_ns()
                tracer._stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever an nmrfetch module holds it."""
        if self._swaps:
            return
        modules = [m for k, m in sys.modules.items() if k == "nmrfetch" or k.startswith("nmrfetch.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"nmrfetch.{layer}"]
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                if owner_name:  # a classmethod such as AcquisitionParams.for_system
                    owner = getattr(home, owner_name, None)
                    raw = owner.__dict__.get(attr) if owner is not None else None
                    if not isinstance(raw, classmethod):
                        continue
                    wrapped = classmethod(self._wrap(f"{layer}.{attr}", raw.__func__))
                    self._swap(owner, attr, raw, wrapped)
                    continue
                original = getattr(home, attr, None)
                if original is None:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._swap(module, key, original, wrapped)

    def _swap(self, owner, key, original, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._swaps.append((owner, key, original, wrapped))

    def uninstall(self) -> None:
        for owner, key, original, _ in reversed(self._swaps):
            setattr(owner, key, original)
        self._swaps.clear()

    def take(self, op: int | str | None) -> list[Span]:
        """The spans of one op; their captured arguments are kept."""
        return [s for s in self.spans if s.op == op]

    def release(self, spans: list[Span]) -> None:
        """Drop captured arguments and results once counts are taken."""
        for s in spans:
            s.args, s.result = (), None

    def dump(self) -> list[dict]:
        base = self.spans[0].start_ns if self.spans else 0
        return [
            {
                "name": s.name,
                "op": s.op,
                "parent": s.parent,
                "start_us": (s.start_ns - base) / 1e3,
                "end_us": (s.end_ns - base) / 1e3,
            }
            for s in self.spans
        ]


def _outermost(spans: list[Span], all_spans: list[Span], names: tuple[str, ...]) -> list[Span]:
    """Spans with one of ``names`` that have no ancestor with one of them."""
    out = []
    for s in spans:
        if s.name not in names:
            continue
        parent = s.parent
        while parent is not None and all_spans[parent].name not in names:
            parent = all_spans[parent].parent
        if parent is None:
            out.append(s)
    return out


def op_times(spans: list[Span], all_spans: list[Span]) -> dict[str, float]:
    """Per-op time in ms per layer metric, plus the self time of run_fetch."""
    times = {
        metric: sum(s.ms for s in _outermost(spans, all_spans, names))
        for metric, names in TIME_METRICS.items()
    }
    self_ms = 0.0
    for s in spans:
        if s.name == "cli.run_fetch":
            children = sum(c.ms for c in spans if c.parent == s.idx)
            self_ms += s.ms - children
    times["cli.run_fetch_self_ms"] = self_ms
    return times


def _kind(gate) -> str:
    return type(gate).__name__


def op_counts(spans: list[Span]) -> dict[str, float]:
    """Deterministic work counts of one op, from the captured arguments.

    Byte counts are computed from array sizes, not measured.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return [s for s in by_name.get(name, []) if s.end_ns and s.args]

    counts = dict.fromkeys(COUNT_METRICS, 0)
    params = next((s.result for s in calls("spectrometer.for_system")), None)
    t2_s = params.t2_s if params is not None else float("nan")
    tables = [s.result for s in calls("spectrometer.line_table")]

    for s in calls("compiler.build_query_network"):
        counts["compiler.zz_periods"] += sum(_kind(g) == "ZZEvolution" for g in s.result.gates)
    for s in calls("compiler.expand_to_hard_pulses"):
        gates = s.result.gates
        counts["compiler.hard_pulses"] += sum(_kind(g) == "SelectivePulse" for g in gates)
        delay_s = sum(g.seconds for g in gates if _kind(g) == "Delay")
        counts["compiler.schedule_t2"] += delay_s / t2_s
    for s in calls("compiler.sequence_unitary"):
        counts["compiler.gates"] += len(s.args[0].gates)
        counts["compiler.unitary_bytes"] = max(counts["compiler.unitary_bytes"], s.result.nbytes)

    counts["spectrometer.line_table_calls"] = len(by_name.get("spectrometer.line_table", []))
    counts["spectrometer.lines"] = len(tables[0]) if tables else 0
    counts["spectrometer.points"] = params.n_points if params is not None else 0
    counts["spectrometer.peaks"] = sum(len(s.result) for s in calls("spectrometer.pick_peaks"))

    for s in calls("spectrometer.acquire_fid"):
        state, system, acq = s.args[:3]
        counts["states.dense_readouts"] += not state.is_diagonal
        mults = [spin.multiplicity for spin in system.spins]
        per_item = math.prod(2 ** (mu - 1) for mu in mults[1:])  # physical configs per item
        coherences = int((state.ancilla_difference() != 0.0).sum()) * per_item
        counts["spectrometer.fid_terms"] += coherences * acq.n_points
        pulse = 16 * 4 ** sum(mults)
        counts["spectrometer.pulse_bytes"] = max(counts["spectrometer.pulse_bytes"], pulse)
    for s in calls("spectrometer.analytic_spectrum"):
        state, _, acq = s.args[:3]
        diff = state.ancilla_difference()
        table = tables[0] if tables else ()
        counts["spectrometer.analytic_terms"] += sum(diff[ln.item] != 0.0 for ln in table) * acq.n_points
    return {k: (float(v) if k == "compiler.schedule_t2" else int(v)) for k, v in counts.items()}
