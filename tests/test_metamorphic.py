"""Metamorphic relations: the same experiment, described another way, gives the same answer.

Every other cross-check compares two models built from one description of
the register, so a defect that enters through the description moves both
sides together.  Here two descriptions of the same physics are run end to
end through ``simulate`` and their answers compared:

* listing order: the database spins listed in another order, and the
  pattern's symbols with them, fetch the same items (renumbered), with the
  same verdict, exit code and hard-pulse duration;
* global coupling sign: every ancilla coupling negated flips every
  ``bit_signs`` entry and nothing else, so spectra, peaks and verdicts are
  bit-identical;
* whole-bin shift: the ancilla's offset moved by k bins of a fixed grid
  moves every line, and so every peak, by k bins (within 1e-9 Hz), and
  keeps the marked and expected items, the verdict, each peak's decoded
  item and any refusal.  The grid is fixed, so this relation runs
  ``run_fetch`` directly;
* wildcard union: a pattern with a wildcard marks exactly the union of
  what its two completions on that qubit mark.  It queries the register
  with that qubit constrained, so it reaches a defect that only a
  constrained bit can show (a wrong sign on a wildcard qubit moves both of
  its sides alike).

Registers are the builtin one, ``scripts/composite_negative.cfg`` and
random superincreasing ones with signed couplings, offsets and couplings
among the database spins.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from nmrfetch import (
    AcquisitionParams,
    QueryPattern,
    crotonic_default,
    load_spin_system,
    load_spin_system_file,
    spectrometer,
)
from nmrfetch.cli import EXIT_CONFIG, RunConfig, main, run_fetch

from conftest import ancilla_shifted

COMPOSITE = Path(__file__).resolve().parents[1] / "scripts" / "composite_negative.cfg"
BACKENDS = ("ideal", "hard", "fast")
INITS = ("eps", "thermal")


def config_text(system, order=None, ancilla_sign=1.0):
    """Config text of a register, its database spins listed in ``order`` (0-based)."""
    order = list(range(system.n_database)) if order is None else list(order)
    listed = [0] + [q + 1 for q in order]
    lines = [f"ancilla = {system.spins[0].label}"]
    for q in listed:
        s = system.spins[q]
        lines += [
            f"[spin.{s.label}]",
            f"species = {s.species}",
            f"gamma_rel = {s.gamma_rel!r}",
            f"offset_hz = {s.offset_hz!r}",
            f"multiplicity = {s.multiplicity}",
        ]
    lines.append("[couplings]")
    for a in range(len(listed)):
        for b in range(a + 1, len(listed)):
            j = float(system.j_hz[listed[a], listed[b]])
            if j != 0.0:
                j *= ancilla_sign if a == 0 else 1.0
                lines.append(f"{system.spins[listed[a]].label}-{system.spins[listed[b]].label} = {j!r}")
    return "\n".join(lines) + "\n"


@st.composite
def registers(draw):
    """A register: builtin, the composite test register, or a random superincreasing one."""
    kind = draw(st.sampled_from(("builtin", "composite", "random")))
    if kind == "builtin":
        return crotonic_default()
    if kind == "composite":
        return load_spin_system_file(COMPOSITE)
    n = draw(st.integers(2, 4))
    listed = draw(st.permutations([3.0 * 2**k for k in range(n)]))
    signs = draw(st.lists(st.sampled_from((1.0, -1.0)), min_size=n, max_size=n))
    lines = ["ancilla = A", "[spin.A]", "species = carbon", f"offset_hz = {draw(st.sampled_from((0.0, 2.5)))}"]
    for i in range(1, n + 1):
        lines += [f"[spin.Q{i}]", "species = carbon", f"offset_hz = {draw(st.floats(-20.0, 20.0))!r}"]
    lines.append("[couplings]")
    lines += [f"A-Q{i} = {s * m!r}" for i, (s, m) in enumerate(zip(signs, listed), start=1)]
    if n > 2 and draw(st.booleans()):
        lines.append(f"Q1-Q{n} = {draw(st.sampled_from((0.7, -1.3)))}")
    return load_spin_system("\n".join(lines) + "\n")


@st.composite
def queries(draw):
    """A register and a pattern over its database."""
    system = draw(registers())
    n = system.n_database
    return system, draw(st.text("01x", min_size=n, max_size=n))


@st.composite
def relistings(draw):
    """A register, a pattern and another order of its database spins (0-based)."""
    system, pattern = draw(queries())
    return system, pattern, draw(st.permutations(range(system.n_database)))


def simulate(text, pattern, backend, init, emit="json"):
    """Exit code, result.json (None when refused) and the bytes of every artifact of one run."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "register.cfg"
        path.write_text(text)
        out = Path(tmp) / "out"
        argv = ["simulate", "--system", str(path), "--pattern", pattern, "--backend", backend, "--init", init]
        code = main(argv + ["--out", str(out), "--emit", emit])
        files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))} if out.exists() else {}
    result = json.loads(files["result.json"]) if "result.json" in files else None
    return code, result, files


def renumber(item, order, n):
    """The item of the register listed in ``order`` that holds the same spin states."""
    return sum(((item >> (n - 1 - old)) & 1) << (n - 1 - new) for new, old in enumerate(order))


@settings(max_examples=30, deadline=None)
@given(case=relistings(), backend=st.sampled_from(BACKENDS), init=st.sampled_from(INITS))
# the builtin register listed in reverse with 101001 was refused at 6.80 T2
# while its controls were nested by qubit index
@example(case=(crotonic_default(), "100101", [5, 4, 3, 2, 1, 0]), backend="hard", init="eps")
def test_listing_order_does_not_change_the_fetch(case, backend, init):
    system, pattern, order = case
    n = system.n_database
    listed = "".join(pattern[q] for q in order)
    code, result, _ = simulate(config_text(system), pattern, backend, init)
    code_listed, result_listed, _ = simulate(config_text(system, order), listed, backend, init)
    assert code_listed == code
    if result is None:
        assert result_listed is None
        return
    for key in ("marked_items", "expected_items", "inconsistent_items"):
        assert sorted(renumber(i, order, n) for i in result[key]) == result_listed[key]
    assert result_listed["verified"] == result["verified"]
    if backend == "hard":
        duration = result["sequence_report"]["total_duration_s"]
        assert result_listed["sequence_report"]["total_duration_s"] == duration


@settings(max_examples=20, deadline=None)
@given(case=queries(), backend=st.sampled_from(BACKENDS), init=st.sampled_from(INITS))
def test_negating_every_ancilla_coupling_changes_only_the_bit_signs(case, backend, init):
    system, pattern = case
    code, result, files = simulate(config_text(system), pattern, backend, init, emit="json,csv")
    code_neg, result_neg, files_neg = simulate(
        config_text(system, ancilla_sign=-1.0), pattern, backend, init, emit="json,csv"
    )
    assert code_neg == code
    assert files_neg.keys() == files.keys()
    for name in files.keys() - {"result.json"}:
        assert files_neg[name] == files[name], name
    if result is None:
        return
    signs, signs_neg = result["system"].pop("bit_signs"), result_neg["system"].pop("bit_signs")
    assert signs_neg == [-s for s in signs]
    assert result_neg == result


def fetches(system, pattern, params):
    """Per backend and init: marked, expected, verdict and peaks, or the refusal.

    Each peak is its decoded item and its frequency.
    """
    outcomes = []
    for backend in ("ideal", "hard_pulse", "fast_diagonal"):
        for init in ("effective_pure", "thermal"):
            try:
                r = run_fetch(RunConfig(system, QueryPattern.from_string(pattern), init, backend, params))
            except ValueError as exc:  # every refusal of run_fetch is one
                outcomes.append(type(exc).__name__)
                continue
            peaks = [[(p.item, p.freq_hz) for p in ps] for ps in (r.peaks_before, r.peaks_after)]
            outcomes.append((r.marked, r.expected, r.verified, peaks))
    return outcomes


def assert_whole_bin_shift_keeps_the_fetch(system, pattern, params, k):
    """The ancilla's offset moved by ``k`` bins of ``params``: the same outcomes, peaks ``k`` bins higher.

    Every peak keeps its item and moves within 1e-9 Hz.  Returns the
    unshifted register's outcomes.
    """
    shift_hz = k * params.spectral_width_hz / params.n_points
    want = fetches(system, pattern, params)
    got = fetches(ancilla_shifted(system, shift_hz), pattern, params)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(g, str) or isinstance(w, str):
            assert g == w
            continue
        assert g[:3] == w[:3]
        for peaks_g, peaks_w in zip(g[3], w[3]):
            assert [item for item, _ in peaks_g] == [item for item, _ in peaks_w]
            assert max((abs(a - b - shift_hz) for (_, a), (_, b) in zip(peaks_g, peaks_w)), default=0.0) <= 1e-9
    return want


@pytest.mark.parametrize("pattern", ["100101", "1001x1", "x1x0xx"])
@pytest.mark.parametrize("k", [1, -37, 1200, -3400])
def test_a_whole_bin_ancilla_shift_moves_the_builtin_peaks(pattern, k):
    # the shift is k / 16384 of the grid's points, at least one bin: the
    # slack is 0.215 of the points each side (3525 / 16384), so the
    # register's own 8192 points shift by 1, 18, 600 and 1700 bins
    system = crotonic_default()
    params = AcquisitionParams.for_system(system)
    k = (1 if k > 0 else -1) * max(1, round(abs(k) * params.n_points / 16384))
    outcomes = assert_whole_bin_shift_keeps_the_fetch(system, pattern, params, k)
    assert all(isinstance(o, tuple) and o[2] for o in outcomes)


@settings(max_examples=25, deadline=None)
@given(case=queries(), data=st.data())
def test_a_whole_bin_ancilla_shift_moves_the_peaks(case, data):
    # k is drawn within the slack of the register's own grid, so both
    # multiplets are covered and any refusal is not the coverage check's
    system, pattern = case
    params = AcquisitionParams.for_system(system)
    _, width = spectrometer._coverage(spectrometer._lines(system), params)
    slack = int((params.spectral_width_hz - width) / 2.0 * params.n_points / params.spectral_width_hz)
    k = data.draw(st.integers(-slack, slack), label="k")
    assert_whole_bin_shift_keeps_the_fetch(system, pattern, params, k)


def wildcard_union(text, pattern, position, backend, init):
    """Check that ``pattern`` marks the union of what its completions on ``position`` mark.

    A run refused with exit 3 gives no answer, so when one of the three is
    refused there is nothing to compare and this returns False.  Every
    other run must answer: a run that fails without writing its marked
    items (a decode error, exit 4) breaks the relation like a wrong set.
    """
    assert pattern[position] == "x"
    patterns = [pattern] + [pattern[:position] + bit + pattern[position + 1 :] for bit in "01"]
    runs = [simulate(text, p, backend, init)[:2] for p in patterns]
    if any(code == EXIT_CONFIG for code, _ in runs):
        return False
    assert all(result is not None for _, result in runs), [code for code, _ in runs]
    whole, zero, one = (set(result["marked_items"]) for _, result in runs)
    assert whole == zero | one
    return True


@st.composite
def wildcard_queries(draw):
    """A register, a pattern over its database and the position of one wildcard in it."""
    system, pattern = draw(queries())
    position = draw(st.integers(0, len(pattern) - 1))
    return system, pattern[:position] + "x" + pattern[position + 1 :], position


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=10, deadline=None)
@given(case=wildcard_queries(), init=st.sampled_from(INITS))
def test_a_wildcard_marks_the_union_of_its_completions(backend, case, init):
    system, pattern, position = case
    wildcard_union(config_text(system), pattern, position, backend, init)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("pattern, position", [("100xxx", 3), ("x1x0xx", 0), ("1001x1", 4)])
def test_the_builtin_wildcard_union_is_compared(backend, pattern, position):
    # on the builtin register no side is refused, so the relation compares
    assert wildcard_union(config_text(crotonic_default()), pattern, position, backend, "thermal")
