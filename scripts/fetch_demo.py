#!/usr/bin/env python
"""End-to-end demo: fetch all items whose first three bits are 100.

Runs the flagship experiment on the built-in seven-spin register directly
from thermal equilibrium, prints the decoded items and the verdict, and
writes the spectra before and after the query (CSV and SVG) into
./demo_out.  Exits 1 when the fetch is not verified.
"""

import sys
from pathlib import Path

from nmrfetch import QueryPattern, RunConfig, crotonic_default, run_fetch
from nmrfetch.plotting import spectrum_svg
from nmrfetch.spectrometer import spectrum_csv


def main() -> int:
    out = Path("demo_out")
    system = crotonic_default()
    cfg = RunConfig(
        system=system,
        pattern=QueryPattern.from_string("100xxx"),
        init="thermal",
        backend="ideal",
    )
    result = run_fetch(cfg)

    print("queried pattern 100xxx with 1 oracle call")
    print(f"marked items: {sorted(result.marked)}")
    print(f"expected:     {result.expected and list(result.expected)}")
    print(f"verified:     {result.verified}")

    out.mkdir(exist_ok=True)
    (out / "before_spectrum.csv").write_text(spectrum_csv(result.before.spectrum))
    (out / "after_spectrum.csv").write_text(spectrum_csv(result.after.spectrum))
    (out / "before_spectrum.svg").write_text(
        spectrum_svg(result.before.spectrum, title="thermal register, before query")
    )
    (out / "after_spectrum.svg").write_text(
        spectrum_svg(result.after.spectrum, title="after query 100xxx: items 32-39 inverted")
    )
    print(f"artifacts in {out}/")
    return 0 if result.verified else 1


if __name__ == "__main__":
    sys.exit(main())
