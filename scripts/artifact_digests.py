#!/usr/bin/env python
"""Print a sha256 digest of every artifact and stdout of a fixed CLI matrix.

Usage: python scripts/artifact_digests.py [case-substring ...]

Runs ``nmrfetch.cli.main`` in process on two registers: the builtin one
and ``scripts/composite_negative.cfg`` (a composite group and negative
couplings).  Per register it runs ``simulate`` (three backends x both
inits x four patterns, ``--emit json,csv,svg``), ``spectrum`` (both inits,
``--emit json,csv,svg``), ``compile`` (ideal and hard, four patterns) and
``verify`` (three backends, four patterns), and refuses a pattern one
symbol short of the database size in ``simulate`` (three backends),
``compile`` (ideal and hard) and ``verify`` (three backends).  Each case
prints one ``<case>/<file> <sha256>`` line per artifact it writes, one
for its stdout and one for its stderr, then ``<case>/exit <code>``.
Then, for every pattern over ``01x`` of the database size (3^6 builtin,
3^4 composite) and both networks (``ideal`` and its ``hard`` expansion),
one ``<register>/product-<backend>-<pattern> <sha256>`` line digests the
compiled network's ``_compressed_product`` arrays and its
``format_sequence`` listing.  Arguments keep only the cases whose name
contains one of them.

Two source trees give byte-identical artifacts when the outputs of

    PYTHONPATH=<tree>/src python scripts/artifact_digests.py

are equal, which ``diff`` shows.
"""

import contextlib
import functools
import hashlib
import io
import itertools
import sys
import tempfile
from pathlib import Path

from nmrfetch import QueryPattern, build_query_network, expand_to_hard_pulses, format_sequence
from nmrfetch.cli import _load_system, main
from nmrfetch.compiler import _compressed_product

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


def run_case(name: str, argv: list[str]) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([tmp if arg == "{out}" else arg for arg in argv])
        lines = [
            f"{name}/{path.relative_to(tmp)} {sha256(path.read_bytes())}"
            for path in sorted(Path(tmp).rglob("*"))
            if path.is_file()
        ]
    lines.append(f"{name}/stdout {sha256(out.getvalue().encode())}")
    lines.append(f"{name}/stderr {sha256(err.getvalue().encode())}")
    lines.append(f"{name}/exit {code}")
    return lines


def product_case(name: str, system, pattern: str, backend: str) -> list[str]:
    seq = build_query_network(system, QueryPattern.from_string(pattern))
    if backend == "hard":
        seq = expand_to_hard_pulses(seq, system)
    digest = hashlib.sha256()
    for array in _compressed_product(seq, system):
        digest.update(array.tobytes())
    digest.update(format_sequence(seq).encode())
    return [f"{name} {digest.hexdigest()}"]


if __name__ == "__main__":
    filters = sys.argv[1:]
    for name, run in cases():
        if not filters or any(f in name for f in filters):
            print("\n".join(run()), flush=True)
