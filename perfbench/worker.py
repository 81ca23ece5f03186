"""One benchmark process: set up, then run one workload in a closed loop.

Started by ``run.py``.  It prints ``READY`` once the first op can be issued
(the parent times set-up up to that line), then runs ops one after another
until ``--seconds`` have passed and the current round is complete, and
prints one JSON line with its records.  With ``--setup-only`` it exits right
after ``READY``.  With ``--trace 1`` every op is run twice, traced and
untraced in alternating order, so tracing overhead is measured on the same
inputs; op 0 is traced once more at the end to check that its counts repeat.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

from spans import COUNT_METRICS, TIME_METRICS, Tracer, op_counts, op_times  # noqa: E402
from workloads import WORKLOADS, expected_items, ops, round_size  # noqa: E402


def import_program():
    """Import nmrfetch from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import nmrfetch

    if Path(nmrfetch.__file__).resolve().parent != (src / "nmrfetch").resolve():
        raise SystemExit(f"nmrfetch imported from {nmrfetch.__file__}, not from {src}")
    return nmrfetch


def _openblas_call(lib, name: str, restype):
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            fn = getattr(lib, prefix + name + suffix, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], restype
                return fn()
    return None


def environment() -> dict:
    """nproc, versions, and every loaded OpenBLAS with its thread count."""
    import numpy
    import scipy

    maps = Path("/proc/self/maps")
    libs = set()
    if maps.exists():
        for line in maps.read_text().splitlines():
            path = line.split()[-1]
            if path.startswith("/") and "openblas" in Path(path).name.lower():
                libs.add(path)
    blas = []
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        config = _openblas_call(lib, "get_config", ctypes.c_char_p) or b""
        blas.append(
            {
                "library": Path(path).name,
                "threads": _openblas_call(lib, "get_num_threads", ctypes.c_int),
                "config": config.decode(),
            }
        )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


@dataclass
class Record:
    op: int
    n_database: int
    seconds: float
    failed: bool  # raised, or returned a wrong or unverified answer
    wrong: bool  # a wrong answer, or a verdict that disagrees with the enumeration
    items: int  # items correctly classified (0 unless the op passed)
    decode_err_hz: float  # nan when the op raised
    error: str = ""
    traced: bool = False


class Runner:
    def __init__(self, nmr, workload: str, seed: int):
        self.nmr = nmr
        self.errors = (
            nmr.ConfigError,
            nmr.SpinSystemError,
            nmr.CompileError,
            nmr.StateError,
            nmr.SpectrometerError,
        )
        # the builtin register is built once, as part of set-up
        self.register = None if workload == "synthetic_sweep" else nmr.crotonic_default()
        self.stream = ops(workload, seed)
        self.pending = [next(self.stream)]
        self._register_lines = None

    def next_op(self):
        return self.pending.pop() if self.pending else next(self.stream)

    def fetch(self, op):
        """The timed part of an op: config load where there is one, then run_fetch."""
        nmr = self.nmr
        system = self.register
        t0 = time.perf_counter()
        try:
            if op.config_text is not None:
                system = nmr.load_spin_system(op.config_text)
            cfg = nmr.RunConfig(
                system=system,
                pattern=nmr.QueryPattern.from_string(op.pattern),
                init=op.init,
                backend=op.backend,
            )
            outcome = nmr.run_fetch(cfg)
        except self.errors as exc:
            outcome = exc
        return time.perf_counter() - t0, system, outcome

    def check(self, op, seconds: float, system, outcome) -> Record:
        """Judge an op's answer against the benchmark's own enumeration."""
        if isinstance(outcome, Exception):
            error = f"{type(outcome).__name__}: {outcome}"
            return Record(op.index, op.n_database, seconds, True, False, 0, math.nan, error)
        expected = expected_items(op.pattern)
        wrong = tuple(outcome.marked) != expected or bool(outcome.inconsistent)
        failed = wrong or not outcome.verified
        items = 0 if failed else 2**op.n_database
        err = self.decode_error(system, outcome.peaks_after)
        # a wrong answer, or a verdict that disagrees with the enumeration
        bad = wrong or outcome.verified == wrong
        rec = Record(op.index, op.n_database, seconds, failed, bad, items, err)
        if bad:
            rec.error = (
                f"marked {list(outcome.marked)}, enumeration {list(expected)}, "
                f"inconsistent {list(outcome.inconsistent)}, verified={outcome.verified}"
            )
        return rec

    def run(self, op) -> Record:
        return self.check(op, *self.fetch(op))

    def decode_error(self, system, peaks) -> float:
        """Largest distance from a decoded peak to the nearest line of its item."""
        freqs = self._register_lines if system is self.register else None
        if freqs is None:
            freqs = {}
            for line in self.nmr.line_table(system):
                freqs.setdefault(line.item, []).append(line.freq_hz)
            if system is self.register:
                self._register_lines = freqs
        return max(
            (min(abs(p.freq_hz - f) for f in freqs[p.item]) for p in peaks),
            default=0.0,
        )


def median(values):
    return statistics.median(values) if values else math.nan


def untraced_loop(runner: Runner, workload: str, seconds: float) -> list[Record]:
    records = []
    deadline = time.perf_counter() + seconds
    size = round_size(workload)
    while len(records) % size or time.perf_counter() < deadline:
        records.append(runner.run(runner.next_op()))
    return records


def traced_loop(runner: Runner, tracer: Tracer, workload: str, seconds: float):
    records, per_op = [], {}
    deadline = time.perf_counter() + seconds
    size = round_size(workload)
    first = None

    def traced_run(op, op_id):
        tracer.op = op_id
        tracer.install()
        try:
            fetched = runner.fetch(op)
        finally:
            tracer.uninstall()
        rec = runner.check(op, *fetched)
        spans = tracer.take(op_id)
        entry = {"times_ms": op_times(spans, tracer.spans), "counts": op_counts(spans)}
        tracer.release(spans)
        rec.traced = True
        return rec, entry

    n_ops = 0
    while n_ops % size or time.perf_counter() < deadline:
        op = runner.next_op()
        first = first or op
        # alternate which twin goes first, so warm caches favour neither side
        for traced in ((True, False) if n_ops % 2 == 0 else (False, True)):
            if traced:
                rec, per_op[op.index] = traced_run(op, op.index)
            else:
                rec = runner.run(op)
            records.append(rec)
        n_ops += 1
    _, repeat = traced_run(first, f"{first.index}-repeat")
    return records, per_op, repeat


def summarize_untraced(records: list[Record]) -> dict:
    times = [math.inf if r.failed else r.seconds for r in records]
    returned = [r.decode_err_hz for r in records if not math.isnan(r.decode_err_hz)]
    return {
        "fetch_s_p50": median(times),
        "items_per_s": sum(r.items for r in records) / sum(r.seconds for r in records),
        "verified_frac": sum(not r.failed for r in records) / len(records),
        "decode_err_hz_max": max(returned, default=math.nan),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# Byte counts are sizes of the largest array an op allocates, so they are
# reported as the largest over ops; every other per-layer metric is a median.
_MAX_OVER_OPS = ("compiler.unitary_bytes", "spectrometer.pulse_bytes")


def summarize_traced(records, per_op, setup_spans, all_spans) -> tuple[dict, dict]:
    """Per-layer metrics, and the per-op samples behind each median."""
    samples = {name: [e["times_ms"][name] for e in per_op.values()] for name in TIME_METRICS}
    samples["cli.run_fetch_self_ms"] = [e["times_ms"]["cli.run_fetch_self_ms"] for e in per_op.values()]
    samples.update({name: [e["counts"][name] for e in per_op.values()] for name in COUNT_METRICS})
    for traced in (True, False):
        name = f"trace.fetch_s_p50_{'traced' if traced else 'untraced'}"
        samples[name] = [math.inf if r.failed else r.seconds for r in records if r.traced == traced]
    metrics = {
        name: max(values) if name in _MAX_OVER_OPS else median(values)
        for name, values in samples.items()
    }
    metrics["spin_system.setup_ms"] = op_times(setup_spans, all_spans)["spin_system.load_ms"]
    metrics["trace.overhead_ratio"] = (
        metrics["trace.fetch_s_p50_traced"] / metrics["trace.fetch_s_p50_untraced"]
    )
    return metrics, samples


def check_counts(workload: str, seed: int, per_op: dict, repeat: dict, first: int) -> list[str]:
    """Counts must repeat exactly: within the run and against earlier runs."""
    problems = []
    if repeat["counts"] != per_op[first]["counts"]:
        problems.append(f"op {first} counts differ when run again: {repeat['counts']}")
    path = OUT / f"counts-{workload}-seed{seed}-src{source_digest()}.json"
    earlier = json.loads(path.read_text()) if path.exists() else {}
    current = {str(k): v["counts"] for k, v in per_op.items()}
    for key in sorted(set(earlier) & set(current), key=int):
        if earlier[key] != current[key]:
            problems.append(f"op {key} counts differ from an earlier run of this source")
    OUT.mkdir(exist_ok=True)
    path.write_text(json.dumps({**earlier, **current}, sort_keys=True))
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    nmr = import_program()
    tracer = Tracer(op="setup") if args.trace else None
    if tracer:
        tracer.install()
    runner = Runner(nmr, args.workload, args.seed)
    if tracer:
        tracer.uninstall()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    env = environment()
    out = {"env": env, "correct": True, "problems": []}
    too_many = [b for b in env["blas"] if (b["threads"] or 0) > env["nproc"]]
    if too_many:
        print(f"BLAS threads exceed nproc={env['nproc']}: {too_many}", file=sys.stderr)
        return 2
    if tracer:
        setup_spans = tracer.take("setup")
        records, per_op, repeat = traced_loop(runner, tracer, args.workload, args.seconds)
        first = min(per_op)
        out["problems"] = check_counts(args.workload, args.seed, per_op, repeat, first)
        out["metrics"], out["samples"] = summarize_traced(
            records, per_op, setup_spans, tracer.spans
        )
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(
            json.dumps(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "env": env,
                    "per_op": {str(k): v for k, v in per_op.items()},
                    "repeat": repeat,
                    "spans": tracer.dump(),
                }
            )
        )
        out["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        records = untraced_loop(runner, args.workload, args.seconds)
        out["metrics"] = summarize_untraced(records)
    out["problems"] += [f"op {r.op}: {r.error}" for r in records if r.wrong]
    out["correct"] = not out["problems"]
    out["records"] = [asdict(r) for r in records]
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
