#!/usr/bin/env python
"""Compile a query to refocused hard pulses and check it against ideal gates.

Usage: python scripts/hard_pulse_report.py [pattern]

Prints gate counts and total duration for the soft (frequency-selective)
and hard-pulse versions of the query network, then verifies the two
propagators agree up to a global phase, block by block on their
column-compressed products, as ``nmrfetch verify --backend hard`` does.
"""

import sys

from nmrfetch import (
    QueryPattern,
    build_query_network,
    crotonic_default,
    expand_to_hard_pulses,
    sequence_report,
)
from nmrfetch.compiler import _compressed_product, _product_distance


def describe(name, seq):
    rep = sequence_report(seq)
    print(
        f"{name:>12}: {rep.n_pulses:4d} pulses, {rep.n_zz:3d} couplings, "
        f"{rep.n_virtual_z:3d} frame rotations, {rep.n_delays:4d} delays, "
        f"duration {rep.total_duration_s * 1e3:9.3f} ms"
    )


def main() -> int:
    pattern = sys.argv[1] if len(sys.argv) > 1 else "100xxx"
    system = crotonic_default()
    network = build_query_network(system, QueryPattern.from_string(pattern))
    hard = expand_to_hard_pulses(network, system)

    print(f"query pattern: {pattern}")
    describe("ideal", network)
    describe("hard pulse", hard)

    gap = _product_distance(_compressed_product(hard, system), _compressed_product(network))
    print(f"hard vs ideal propagator distance (global phase removed): {gap:.3e}")
    return 0 if gap < 1e-6 else 1


if __name__ == "__main__":
    sys.exit(main())
