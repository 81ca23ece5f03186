#!/usr/bin/env python
"""Print a sha256 digest of every artifact and stdout of a fixed CLI matrix.

Usage: python scripts/artifact_digests.py [--write | --check] [case-substring ...]

Runs ``nmrfetch.cli.main`` in process on two registers: the builtin one
and ``scripts/composite_negative.cfg`` (a composite group and negative
couplings).  Per register it runs ``simulate`` (three backends x both
inits x four patterns, ``--emit json,csv,svg``), ``spectrum`` (both inits,
``--emit json,csv,svg``), ``compile`` (ideal and hard, four patterns) and
``verify`` (three backends, four patterns), and refuses a pattern one
symbol short of the database size in ``simulate`` (three backends),
``compile`` (ideal and hard) and ``verify`` (three backends).  Each case
prints one ``<case>/<file> <sha256>`` line per artifact it writes, one
``<case>/result.json.shape`` line per ``result.json`` (the digest of its
structure, ``json_shape``), one for its stdout and one for its stderr,
then ``<case>/exit <code>``.
Then, for every pattern over ``01x`` of the database size (3^6 builtin,
3^4 composite) and both networks (``ideal`` and its ``hard`` expansion),
one ``<register>/product-<backend>-<pattern> <sha256>`` line digests the
compiled network's product, its per-item ancilla blocks and item map
``(blocks, src)`` from ``_compressed_product``, and its
``format_sequence`` listing.  Arguments keep only the cases whose name
contains one of them.

Two source trees give byte-identical artifacts when the outputs of

    PYTHONPATH=<tree>/src python scripts/artifact_digests.py

are equal, which ``diff`` shows.

``--write`` writes every line to ``artifact_digests.txt`` beside this
script, after a header naming the Python, numpy and BLAS it came from.
``--check`` compares the selected cases with that file.  Where the
environment matches the header it compares every line; elsewhere it says
so and compares only the lines that ``bit_stable`` names, which carry no
floating-point last bits, and exits 1 on any difference.
"""

import contextlib
import functools
import hashlib
import io
import itertools
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from nmrfetch import QueryPattern, build_query_network, expand_to_hard_pulses, format_sequence
from nmrfetch.cli import _load_system, main
from nmrfetch.compiler import _compressed_product

EXPECTED = Path(__file__).resolve().with_name("artifact_digests.txt")

REGISTERS = {
    "builtin": ("builtin", ("100xxx", "100101", "x1x0xx", "0x1x10")),
    "composite": (
        str(Path(__file__).resolve().parent / "composite_negative.cfg"),
        ("1010", "x01x", "0x1x", "1111"),
    ),
}


def cases():
    """(name, run) of every case; run() returns the case's lines."""
    for name, argv in cli_cases():
        yield name, functools.partial(run_case, name, argv)
    for register, (spec, _) in REGISTERS.items():
        system = _load_system(spec)
        for symbols in itertools.product("01x", repeat=system.n_database):
            pattern = "".join(symbols)
            for backend in ("ideal", "hard"):
                name = f"{register}/product-{backend}-{pattern}"
                yield name, functools.partial(product_case, name, system, pattern, backend)


def cli_cases():
    """(name, argv) of every CLI case; argv holds "{out}" where --out goes."""
    emit = ["--out", "{out}", "--emit", "json,csv,svg"]
    for register, (system, patterns) in REGISTERS.items():
        common = ["--system", system]
        for pattern in patterns:
            for backend in ("ideal", "hard", "fast"):
                for init in ("eps", "thermal"):
                    yield (
                        f"{register}/simulate-{backend}-{init}-{pattern}",
                        ["simulate", *common, "--pattern", pattern, "--backend", backend, "--init", init, *emit],
                    )
            for backend in ("ideal", "hard"):
                yield (
                    f"{register}/compile-{backend}-{pattern}",
                    ["compile", *common, "--pattern", pattern, "--backend", backend],
                )
            for backend in ("ideal", "hard", "fast"):
                yield (
                    f"{register}/verify-{backend}-{pattern}",
                    ["verify", *common, "--pattern", pattern, "--backend", backend],
                )
        short = patterns[1][:-1]  # one symbol short of the database size
        for backend in ("ideal", "hard", "fast"):
            yield (
                f"{register}/simulate-{backend}-eps-{short}",
                ["simulate", *common, "--pattern", short, "--backend", backend, *emit],
            )
        for backend in ("ideal", "hard"):
            yield (
                f"{register}/compile-{backend}-{short}",
                ["compile", *common, "--pattern", short, "--backend", backend],
            )
        for backend in ("ideal", "hard", "fast"):
            yield f"{register}/verify-{backend}-{short}", ["verify", *common, "--pattern", short, "--backend", backend]
        for init in ("eps", "thermal"):
            yield f"{register}/spectrum-{init}", ["spectrum", *common, "--init", init, *emit]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def json_shape(data: bytes) -> bytes:
    """The parsed JSON with every float replaced by a placeholder, keys sorted.

    Its digest moves with a key that is added, dropped or renamed, and with
    any string, integer, boolean or list length, but not with a float's
    last bits.
    """
    return json.dumps(json.loads(data, parse_float=lambda _: "<float>"), sort_keys=True).encode()


def run_case(name: str, argv: list[str]) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([tmp if arg == "{out}" else arg for arg in argv])
        lines = []
        for path in sorted(Path(tmp).rglob("*")):
            if path.is_file():
                file, data = f"{name}/{path.relative_to(tmp)}", path.read_bytes()
                lines.append(f"{file} {sha256(data)}")
                if path.name == "result.json":
                    lines.append(f"{file}.shape {sha256(json_shape(data))}")
    lines.append(f"{name}/stdout {sha256(out.getvalue().encode())}")
    lines.append(f"{name}/stderr {sha256(err.getvalue().encode())}")
    lines.append(f"{name}/exit {code}")
    return lines


def product_case(name: str, system, pattern: str, backend: str) -> list[str]:
    seq = build_query_network(system, QueryPattern.from_string(pattern))
    if backend == "hard":
        seq = expand_to_hard_pulses(seq, system)
    blocks, src = _compressed_product(seq, system)
    digest = hashlib.sha256(blocks.tobytes())  # in (items, 2, 2) order
    digest.update(src.tobytes())
    digest.update(format_sequence(seq).encode())
    return [f"{name} {digest.hexdigest()}"]


def bit_stable(name: str) -> bool:
    """Whether the line ``name`` carries no floating-point last bits.

    Exit codes, standard error (refusal messages), the structure of each
    ``result.json`` (``json_shape``), the ``simulate`` summary (peak counts,
    marked and expected items, the verdict, the schedule length to 6
    digits) and the ``compile`` listings: 342 of the 2248 lines.  Measured,
    not assumed: none of them moved when the outputs of the FFT, the FID
    row, the closed-form row or the product's blocks were scaled by
    1 + 2^-50, one at a time, or when the FFT's were scaled by 1 + 2^-30.
    Under those the spectrum CSVs, ``result.json`` files, ``verify``
    summaries (deviations near 1e-16) and product digests moved, and so
    did the ``spectrum`` summary (its route gap and amplitudes) at 2^-30.
    The SVGs never moved, but they draw floats and are left out.
    """
    case, _, stream = name.rpartition("/")
    if stream in ("exit", "stderr", "result.json.shape"):
        return True
    command = case.rpartition("/")[2].split("-")[0]
    return stream == "stdout" and command in ("simulate", "compile")


def environment() -> list[str]:
    """Header lines: the Python, numpy and BLAS that produced the digests."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 has no "dicts" mode
        blas = "unknown"
    return [f"# python {platform.python_version()}", f"# numpy {np.__version__}", f"# blas {blas}"]


def selected(filters: list[str]):
    for name, run in cases():
        if not filters or any(f in name for f in filters):
            yield from run()


def check(filters: list[str]) -> int:
    """Compare the selected cases with ``EXPECTED``; the number of lines that differ."""
    text = EXPECTED.read_text().splitlines()
    header = [line for line in text if line.startswith("#")]
    expected = dict(line.split() for line in text if not line.startswith("#"))
    full = header == environment()
    if full:
        print(f"environment matches {EXPECTED.name}: comparing every line")
    else:
        now, then = ("; ".join(h[2:] for h in lines) for lines in (environment(), header))
        print(f"environment ({now}) differs from {EXPECTED.name} ({then}): "
              "comparing only the lines without floating-point last bits")
    bad, seen = 0, set()
    for line in selected(filters):
        name, digest = line.split()
        seen.add(name)
        if (full or bit_stable(name)) and expected.get(name) != digest:
            print(f"differs: {line} (expected {expected.get(name)})")
            bad += 1
    if not filters:
        for name in expected.keys() - seen:
            print(f"missing: {name}")
            bad += 1
    return bad


if __name__ == "__main__":
    mode, filters = None, sys.argv[1:]
    if filters and filters[0] in ("--write", "--check"):
        mode, filters = filters[0], filters[1:]
    if mode == "--write":
        if filters:
            sys.exit("--write records every case; give no filter")
        EXPECTED.write_text("\n".join(environment() + list(selected([]))) + "\n")
    elif mode == "--check":
        bad = check(filters)
        print(f"{bad} lines differ" if bad else "no line differs")
        sys.exit(1 if bad else 0)
    else:
        for line in selected(filters):
            print(line, flush=True)
