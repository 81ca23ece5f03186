"""Seeded inputs for the fetch benchmark.

Each workload is an endless, deterministic stream of operations: op ``i`` of
a given workload and seed is always the same input.  The stream is cut into
rounds of a fixed composition, and a run always finishes the round it has
started, so the mix of op kinds in a run does not depend on how many ops fit
into the measured time.  This module imports nothing from ``nmrfetch``: the
program only ever sees the generated pattern strings and config text.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

DEFAULT_SEED = 1
HELDOUT_SEED = 7919  # keep out of tuning; use it to confirm a claimed gain

INITS = ("thermal", "effective_pure")


@dataclass(frozen=True)
class Op:
    index: int
    pattern: str
    init: str
    backend: str
    n_database: int
    config_text: str | None = None  # None: the builtin register, built at set-up


def _random_pattern(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01x") for _ in range(n))


def _constrained_pattern(rng: random.Random, n: int, k: int) -> str:
    fixed = set(rng.sample(range(n), k))
    return "".join(rng.choice("01") if i in fixed else "x" for i in range(n))


def _builtin_fast(rng: random.Random):
    # rounds of two ops, one per init
    for i in itertools.count():
        pattern = {0: "100xxx", 1: "100101"}.get(i) or _random_pattern(rng, 6)
        yield Op(i, pattern, INITS[i % 2], "fast_diagonal", 6)


# (backend, constrained bits) per slot of a five-op round.  The two k = 5
# hard-pulse ops sit at the median of the op times, so fetch_s_p50 tracks
# one op kind instead of jumping between neighbouring kinds from run to run.
_PULSE_ROUND = (
    ("hard_pulse", 6),
    ("hard_pulse", 5),
    ("hard_pulse", 5),
    ("hard_pulse", 4),
    ("ideal", None),
)


def _builtin_pulses(rng: random.Random):
    for i in itertools.count():
        backend, k = _PULSE_ROUND[i % len(_PULSE_ROUND)]
        if i == 0:
            pattern = "100101"
        else:
            pattern = _constrained_pattern(rng, 6, k or rng.randint(4, 6))
        yield Op(i, pattern, INITS[i % 2], backend, 6)


def synthetic_config(rng: random.Random, n: int) -> str:
    """Ancilla plus n plain spins with |J_0i| = s * 2**(n - i) Hz."""
    scale = rng.uniform(1.25, 1.75)
    offset = rng.uniform(-10.0, 10.0)
    text = ["ancilla = A", "[spin.A]", "species = carbon", f"offset_hz = {offset:.6f}"]
    couplings = []
    for i in range(1, n + 1):
        text += [f"[spin.D{i}]", "species = carbon"]
        sign = rng.choice((-1, 1))
        couplings.append(f"A-D{i} = {sign * scale * 2 ** (n - i):.6f}")
    return "\n".join(text + ["[couplings]"] + couplings) + "\n"


# Three n = 8 registers, then one n = 9 register.  The n = 9 ops fail today
# (see README.md) and must stay in the mix until the program handles them.
_SWEEP_ROUND = (8, 8, 8, 9)


def _synthetic_sweep(rng: random.Random):
    for i in itertools.count():
        n = _SWEEP_ROUND[i % len(_SWEEP_ROUND)]
        config = synthetic_config(rng, n)
        yield Op(i, _random_pattern(rng, n), INITS[i % 2], "fast_diagonal", n, config)


WORKLOADS = {
    "builtin_fast": (_builtin_fast, 2),
    "builtin_pulses": (_builtin_pulses, len(_PULSE_ROUND)),
    "synthetic_sweep": (_synthetic_sweep, len(_SWEEP_ROUND)),
}


def ops(workload: str, seed: int):
    """The op stream of a workload; the same seed gives the same ops."""
    make, _ = WORKLOADS[workload]
    return make(random.Random(f"{workload}:{seed}"))


def round_size(workload: str) -> int:
    return WORKLOADS[workload][1]


def expected_items(pattern: str) -> tuple[int, ...]:
    """Items matching the pattern, by direct enumeration of item indices.

    Bit i of the pattern (0-based, left to right) is the item's bit
    n - 1 - i, most significant first.
    """
    n = len(pattern)
    return tuple(
        item
        for item in range(2**n)
        if all(c == "x" or int(c) == (item >> (n - 1 - i)) & 1 for i, c in enumerate(pattern))
    )
