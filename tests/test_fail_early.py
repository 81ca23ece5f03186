"""Fail early or verify: ``run_fetch`` on random registers and grids around the readout floor.

An input that cannot work must be refused before any state is prepared
(exit 3 from the command line).  Every other run must verify: it must not
raise ``DecodeError`` (exit 4) and must not return a wrong verdict (exit 2).
Below the floor, with the refusal lifted, a truncated acquisition's
sidelobes are caught as a second peak on one line, not read as a verdict.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

import nmrfetch.cli as climod
from nmrfetch import (
    AcquisitionParams,
    CompileError,
    ConfigError,
    DecodeError,
    QueryPattern,
    SpectrometerError,
    SpinSystemError,
    crotonic_default,
    spectrometer,
)
from nmrfetch.cli import RunConfig, run_fetch

from conftest import make_system

# the refusals ``run_fetch`` may raise before it prepares a state
REFUSALS = (ConfigError, SpinSystemError, CompileError, SpectrometerError)


@st.composite
def registers(draw):
    """2-6 database qubits, some of them three-spin groups, signed couplings and offsets off 0 Hz."""
    n = draw(st.integers(2, 6))
    mults = [draw(st.sampled_from((1, 1, 1, 3))) for _ in range(n)]
    while sum(mults) > 10:  # at most 11 physical spins keep each run fast
        mults[mults.index(3)] = 1
    ratio, base = draw(st.floats(2.1, 3.0)), draw(st.floats(1.5, 4.0))
    row = [draw(st.sampled_from((-1.0, 1.0))) * base * ratio ** (n - i) for i in range(1, n + 1)]
    offsets = [draw(st.floats(-25.0, 25.0)) for _ in range(n + 1)]
    j = np.zeros((n + 1, n + 1))
    j[0, 1:] = j[1:, 0] = row
    for _ in range(draw(st.integers(0, 2))):  # couplings among database spins
        a, b = sorted(draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)))
        j[a, b] = j[b, a] = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.3, 3.0))
    return make_system(row, multiplicities=mults, offsets=offsets, full_j=j)


@st.composite
def fetches(draw):
    """A run on a random register: pattern, backend, init, T2 and how its grid is made.

    The grid is the register's own (``for_system``), or that grid with half
    or all of its points at a T2 that makes it last 6-10 T2: grids on both
    sides of the 8 T2 floor, and some with fewer than four bins per gap.
    """
    system = draw(registers())
    n = system.n_database
    pattern = QueryPattern.from_string(draw(st.text("01x", min_size=n, max_size=n)))
    backend = draw(st.sampled_from(("fast_diagonal", "ideal", "hard_pulse")))
    init = draw(st.sampled_from(("thermal", "effective_pure")))
    t2 = draw(st.floats(1.0, 4.0))
    explicit = draw(st.none() | st.tuples(st.booleans(), st.integers(60, 100).map(lambda k: k / 10.0)))
    return system, pattern, backend, init, t2, explicit


@settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(case=fetches())
def test_a_run_is_refused_before_any_state_or_verifies(case):
    system, pattern, backend, init, t2, explicit = case
    prepared = []
    real = climod._initial_state

    def spy(system, init):
        prepared.append(init)
        return real(system, init)

    lasts, refusal = None, None
    with mock.patch.object(climod, "_initial_state", spy):
        try:
            params = AcquisitionParams.for_system(system, t2_s=t2)
            if explicit:
                halve, t2s = explicit
                points = max(256, params.n_points >> halve)
                params = AcquisitionParams(points, params.dwell_s, points * params.dwell_s / t2s)
            lasts = params.n_points * params.dwell_s / params.t2_s
            result = run_fetch(RunConfig(system, pattern, init, backend, params))
        except REFUSALS as exc:
            assert not isinstance(exc, DecodeError), exc
            assert prepared == [], exc
            refusal = str(exc).split(" ")[0]
    # what share of the runs landed where shows under --hypothesis-show-statistics
    side = "no grid" if lasts is None else "under 8 T2" if lasts < 8.0 else "8 T2 or more"
    outcome = "verified" if refusal is None else f"refused ({refusal})"
    event(f"{'explicit' if explicit else 'own'} grid, {side}: {outcome}")
    if refusal is None:
        assert prepared == [init]
        assert result.verified and not result.inconsistent, (result.marked, result.expected)


@pytest.mark.parametrize("init", ["thermal", "effective_pure"])
@pytest.mark.parametrize("points", [4096, 16384])
def test_a_one_t2_acquisition_raises_decode_error_not_a_verdict(monkeypatch, init, points):
    # with the floor and the route guard lifted, the builtin register read on
    # a grid that lasts 1.0 T2 picks truncation sidelobes beside its lines.
    # Each decodes onto its line's item and would turn the verdict wrong
    # (exit 2); the second peak on one line is refused instead
    monkeypatch.setattr(spectrometer, "_MIN_ACQUISITION_T2", 0.0)
    monkeypatch.setattr(spectrometer, "_ROUTE_GUARD", math.inf)
    system = crotonic_default()
    dwell = AcquisitionParams.for_system(system).dwell_s
    params = AcquisitionParams(points, dwell, points * dwell)
    for bits in ("100101", "1001xx", "111111"):
        cfg = RunConfig(system, QueryPattern.from_string(bits), init, "fast_diagonal", params)
        with pytest.raises(DecodeError, match="both decode to the line at"):
            run_fetch(cfg)
