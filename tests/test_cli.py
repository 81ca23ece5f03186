"""Command-line front end: runs, artifacts, exit codes."""

import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import nmrfetch.cli as climod
from nmrfetch import spectrometer
from nmrfetch import (
    AcquisitionParams,
    ConfigError,
    DecodeError,
    QueryPattern,
    SpectrometerError,
    apply_query_diagonal,
    build_query_network,
    crotonic_default,
    distance_up_to_global_phase,
    expand_to_hard_pulses,
    load_spin_system_file,
)
from nmrfetch.compiler import _compressed_product, _product_distance
from nmrfetch.states import _apply_product
from nmrfetch.cli import (
    EXIT_CONFIG,
    EXIT_MISMATCH,
    EXIT_NUMERICAL,
    EXIT_OK,
    RunConfig,
    bench_report,
    classical_oracle,
    main,
    run_fetch,
)

from conftest import make_system, random_full_system, rounding_bound, superincreasing_config
from dense_reference import apply_unitary, dense_oracle, scatter, sequence_unitary


# ---------------------------------------------------------------------------
# classical reference behaviour
# ---------------------------------------------------------------------------


def test_classical_oracle_enumerates_matches():
    assert classical_oracle(QueryPattern.from_string("100xxx"), 6) == list(range(32, 40))
    assert classical_oracle(QueryPattern.from_string("1x"), 2) == [2, 3]
    assert classical_oracle(QueryPattern.from_string("101"), 3) == [5]
    assert classical_oracle(QueryPattern.from_string("xx"), 2) == [0, 1, 2, 3]


def test_classical_oracle_agrees_with_pattern_matching():
    # every pattern on up to five bits, against the scalar QueryPattern.matches
    for n in range(1, 6):
        for symbols in itertools.product("01x", repeat=n):
            pat = QueryPattern(symbols)
            assert classical_oracle(pat, n) == [i for i in range(2**n) if pat.matches(i)]
    with pytest.raises(ValueError, match="pattern length 3 != database size 4"):
        classical_oracle(QueryPattern.from_string("1x0"), 4)


def test_every_direct_caller_refuses_a_wrong_length_pattern():
    # the length is checked in one place, which every caller reaches
    sys = crotonic_default()
    state = climod._initial_state(sys, "thermal")
    for text in ("10x", "10x1001"):
        pat = QueryPattern.from_string(text)
        for call in (
            lambda: classical_oracle(pat, 6),
            lambda: build_query_network(sys, pat),
            lambda: pat.match_mask(6),
            lambda: apply_query_diagonal(state, pat),
            lambda: climod.direct_oracle_unitary(sys, pat),
        ):
            with pytest.raises(ConfigError, match=f"pattern length {len(text)} != database size 6"):
                call()


def test_classical_oracle_refuses_huge_registers():
    pat = QueryPattern.from_string("x" * 40)
    with pytest.raises(ValueError):
        classical_oracle(pat, 40)


def test_bench_report_values():
    rep = bench_report(56, 1)
    q = rep["queries"]
    assert q["ensemble_fetch"] == 1
    assert q["per_bit_bisection"] == 56
    assert q["grover"] == 210828715
    assert q["grover"] == math.ceil((math.pi / 4) * math.sqrt(2**56 / 1))
    assert q["classical_expected"] == 2**56 // 2

    assert bench_report(1, 1)["queries"]["grover"] == 2
    assert bench_report(6, 8)["queries"]["grover"] == 3


def test_bench_report_validation():
    with pytest.raises(ValueError):
        bench_report(0, 1)
    with pytest.raises(ValueError):
        bench_report(4, 0)
    with pytest.raises(ValueError):
        bench_report(4, 17)  # more marked items than the database holds


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def test_run_config_validation(monkeypatch):
    sys = crotonic_default()

    def never(*args):
        raise AssertionError("a wrong-length pattern got past the length check")

    # every backend refuses a wrong-length pattern alike, before it
    # compiles a network or prepares a state
    monkeypatch.setattr(climod, "build_query_network", never)
    monkeypatch.setattr(climod, "_initial_state", never)
    for text in ("1x", "10010"):
        for backend in ("ideal", "hard_pulse", "fast_diagonal"):
            cfg = RunConfig(sys, QueryPattern.from_string(text), backend=backend)
            with pytest.raises(ConfigError, match=f"pattern length {len(text)} != database size 6"):
                run_fetch(cfg)
    with pytest.raises(Exception):
        RunConfig(sys, QueryPattern.from_string("x" * 6), init="cold")
    with pytest.raises(Exception):
        RunConfig(sys, QueryPattern.from_string("x" * 6), backend="analog")


def test_run_fetch_marks_expected_items():
    sys = crotonic_default()
    cfg = RunConfig(sys, QueryPattern.from_string("100xxx"), init="thermal")
    res = run_fetch(cfg)
    assert res.verified
    assert res.marked == tuple(range(32, 40))
    assert res.inconsistent == ()
    assert len(res.peaks_before) == 128


@pytest.mark.parametrize("init", ["thermal", "effective_pure"])
@pytest.mark.parametrize("backend", ["fast_diagonal", "ideal", "hard_pulse"])
def test_run_fetch_applies_the_query_once(monkeypatch, backend, init):
    # the query acts on the populations once, through the block product
    # or the population permutation; no route builds a 2^n x 2^n matrix
    calls = []

    def counted(name):
        real = getattr(climod, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)

        return wrapper

    for name in ("apply_query_diagonal", "_apply_product"):
        monkeypatch.setattr(climod, name, counted(name))
    for pattern, marked in (("100x01", (33, 37)), ("1001x1", (37, 39))):
        calls.clear()
        res = run_fetch(
            RunConfig(crotonic_default(), QueryPattern.from_string(pattern), init=init, backend=backend)
        )
        assert res.verified and res.marked == marked
        assert calls == ["apply_query_diagonal" if backend == "fast_diagonal" else "_apply_product"]


@pytest.mark.parametrize("init", ["thermal", "effective_pure"])
@pytest.mark.parametrize("backend", ["ideal", "hard_pulse"])
def test_pulse_level_query_changes_only_the_matched_items(monkeypatch, backend, init):
    # the block product's rounding is put back, so the queried state
    # that run_fetch reads out differs from the prepared one on the matched
    # items' populations alone, as on fast_diagonal
    seen = []
    readout = climod.readout

    def capture(states, system, params):
        seen.append(states)
        return readout(states, system, params)

    monkeypatch.setattr(climod, "readout", capture)
    sys = crotonic_default()
    half = 2**sys.n_database
    for pattern, marked in (("100101", [37]), ("1001x1", [37, 39])):
        seen.clear()
        cfg = RunConfig(sys, QueryPattern.from_string(pattern), init=init, backend=backend)
        assert run_fetch(cfg).verified
        [(state, queried)] = seen
        delta = queried.ancilla_difference() - state.ancilla_difference()
        assert np.flatnonzero(delta).tolist() == marked
        moved = np.flatnonzero(queried.populations != state.populations)
        assert moved.tolist() == marked + [item + half for item in marked]
        # and the dense gate-by-gate conjugation by the same network agrees
        # within the sum of the two products' rounding bounds
        network = build_query_network(sys, cfg.pattern)
        if backend == "hard_pulse":
            network = expand_to_hard_pulses(network, sys)
        u = sequence_unitary(network, sys)
        bound = rounding_bound(_compressed_product(network, sys)[0], state.populations)
        bound += rounding_bound(u, state.populations)
        dense = apply_unitary(state, u)
        assert np.max(np.abs(queried.populations - dense.populations)) <= bound


@pytest.mark.parametrize("backend", ["fast_diagonal", "ideal", "hard_pulse"])
def test_warm_run_transforms_and_picks_only_the_queried_state(monkeypatch, backend):
    # the FFT and the peak picker of run_fetch's readout, counted per run
    calls = []

    def counted(name):
        real = getattr(spectrometer, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)

        return wrapper

    for name in ("_absorptive", "_pick"):
        monkeypatch.setattr(spectrometer, name, counted(name))
    sys = crotonic_default()
    per_run = []
    for init in ("thermal", "effective_pure", "thermal"):
        calls.clear()
        result = run_fetch(RunConfig(sys, QueryPattern.from_string("100101"), init=init, backend=backend))
        assert result.verified and not result.before.amplitude.flags.writeable
        per_run.append(sorted(calls))
    cold, warm = ["_absorptive", "_absorptive", "_pick", "_pick"], ["_absorptive", "_pick"]
    assert per_run == [cold, cold, warm]  # each init is its own reference


def test_run_fetch_refuses_schedules_beyond_ln20_t2(monkeypatch):
    # the 100101 schedule lasts 3.906 s, so the bound ln 20 T2 falls between
    # T2 = 1.30 s (3.004 T2, refused) and T2 = 1.31 s (2.98 T2, run)
    sys = crotonic_default()
    pat = QueryPattern.from_string("100101")
    seconds = 3.9056284783851116
    assert seconds / 1.31 < math.log(20.0) < seconds / 1.30
    ran = run_fetch(RunConfig(sys, pat, backend="hard_pulse", params=AcquisitionParams.for_system(sys, t2_s=1.31)))
    assert ran.verified
    monkeypatch.setattr(climod, "_initial_state", None)  # refused before any state
    with pytest.raises(climod.CompileError, match=r"3\.90563 s \(3\.004 T2\), longer than ln 20 = 2\.996 T2"):
        run_fetch(RunConfig(sys, pat, backend="hard_pulse", params=AcquisitionParams.for_system(sys, t2_s=1.30)))


@pytest.mark.parametrize("backend", ["ideal", "hard_pulse", "fast_diagonal"])
def test_run_fetch_refuses_a_narrow_acquisition_before_any_state(monkeypatch, backend):
    # the builtin lines span +-145.35 Hz; a 128 Hz spectral width cannot
    # hold them, and that is known before a state or a product exists
    def never(*args):
        raise AssertionError("a run on a too narrow acquisition did work first")

    monkeypatch.setattr(climod, "_initial_state", never)
    monkeypatch.setattr(climod, "_compressed_product", never)
    params = AcquisitionParams(dwell_s=1.0 / 128.0)
    cfg = RunConfig(crotonic_default(), QueryPattern.from_string("100101"), backend=backend, params=params)
    with pytest.raises(SpectrometerError, match=r"spectral width 128 Hz too small for lines spanning \+-145\.35 Hz"):
        run_fetch(cfg)


def test_simulate_refuses_a_long_schedule_before_simulating_it(monkeypatch, capsys):
    # at T2 = 0.6 s the register is still decodable and the ideal query runs,
    # but the hard-pulse schedule lasts 6.5 T2
    assert main(["simulate", "--pattern", "100101", "--backend", "ideal", "--t2", "0.6"]) == EXIT_OK

    def product(*args):
        raise AssertionError("a refused schedule was simulated")

    monkeypatch.setattr(climod, "_compressed_product", product)
    assert main(["simulate", "--pattern", "100101", "--backend", "hard", "--t2", "0.6"]) == EXIT_CONFIG
    assert "configuration error: hard-pulse schedule lasts 3.90563 s (6.509 T2)" in capsys.readouterr().err


@pytest.mark.parametrize("t2", [1.5, 1.9, 1.999, 2.0, 2.001, 2.1, 3.0, 4.0])
@pytest.mark.parametrize("init", ["thermal", "effective_pure"])
def test_an_explicit_grid_short_of_the_floor_is_refused_before_any_state(monkeypatch, t2, init):
    # the builtin's 16 s grid lasts 8 T2 at T2 = 2 s: at or above the floor
    # it verifies on every backend, and below it run_fetch refuses before
    # a state exists (exit 3 from the command line)
    prepared = []
    real = climod._initial_state

    def spy(system, init):
        prepared.append(init)
        return real(system, init)

    monkeypatch.setattr(climod, "_initial_state", spy)
    params = AcquisitionParams(n_points=8192, dwell_s=1.0 / 512.0, t2_s=t2)
    for backend in ("ideal", "hard_pulse", "fast_diagonal"):
        prepared.clear()
        cfg = RunConfig(crotonic_default(), QueryPattern.from_string("100xxx"), init, backend, params)
        if t2 <= 2.0:
            assert run_fetch(cfg).verified and prepared == [init]
        else:
            with pytest.raises(SpectrometerError, match=r"lasts 16 s = .* T2, under the 8 T2"):
                run_fetch(cfg)
            assert prepared == []


@pytest.mark.parametrize("command", ["simulate", "spectrum"])
def test_the_command_line_raises_the_points_to_the_floor(capsys, command):
    # --points is a lower bound: at T2 = 3 s, 8 T2 is 24 s, so the builtin
    # register needs 16384 points of 1/512 s; a larger lower bound is kept
    argv = [command, "--t2", "3"] + (["--pattern", "100xxx", "--backend", "fast"] if command == "simulate" else [])
    for points, chosen in (("256", 16384), ("16384", 16384), ("32768", 32768)):
        assert main([*argv, "--points", points]) == EXIT_OK
        out = capsys.readouterr().out
        if command == "spectrum":
            assert f"512 Hz, {chosen} points" in out


def test_the_route_gap_reproducer_at_11_52_t2_verifies(capsys):
    # at T2 = 2.7778 s a 32 s grid lasts 11.52 T2, where a closed form of the
    # infinite-time signal misses the truncated FID by 1.01e-5, above a 1e-5
    # guard (exit 4); the finite sum meets it to rounding
    assert main(["simulate", "--pattern", "100101", "--t2", "2.7778"]) == EXIT_OK
    assert main(["spectrum", "--t2", "2.7778", "--points", "16384"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "verification: PASS" in out
    assert float(re.search(r"route gap: (\S+) \(fails above 1e-09\)", out).group(1)) < 1e-11


@pytest.mark.parametrize("n", range(6, 12))
def test_size_sweep_runs_are_refused_before_any_state_or_verify(monkeypatch, tmp_path, capsys, n):
    # superincreasing registers, one negative coupling: every backend and
    # pattern either verifies or is refused before a state exists.  Every
    # grid lasts the 8 T2 floor, so n <= 9 verifies on every backend; from
    # n = 10 on, fast and ideal verify and the hard-pulse schedule of the
    # all-constrained pattern (3.0 T2 and more) is refused on its length
    cfg = tmp_path / f"superincreasing{n}.cfg"
    cfg.write_text(superincreasing_config(n, negative=(2,)))
    patterns = [("10" * n)[:n], "x" * n, ("1x0" * n)[:n]]
    prepared = []
    real = climod._initial_state

    def spy(system, init):
        prepared.append(init)
        return real(system, init)

    monkeypatch.setattr(climod, "_initial_state", spy)
    for backend in ("ideal", "hard", "fast"):
        for pattern in patterns:
            prepared.clear()
            code = main(["simulate", "--system", str(cfg), "--pattern", pattern, "--backend", backend])
            out, err = capsys.readouterr()
            if code == EXIT_OK:
                assert "verification: PASS" in out and prepared, (backend, pattern)
            else:
                assert code == EXIT_CONFIG and not prepared, (backend, pattern, code, err)
            refused = n >= 10 and backend == "hard" and "x" not in pattern
            assert code == (EXIT_CONFIG if refused else EXIT_OK), (backend, pattern, err)
            if refused:
                assert "hard-pulse schedule lasts" in err


def test_run_fetch_all_wild_marks_everything():
    sys = make_system([40.0, 17.0])
    cfg = RunConfig(sys, QueryPattern.from_string("xx"))
    res = run_fetch(cfg)
    assert res.verified
    assert res.marked == (0, 1, 2, 3)


def test_thermal_and_effective_pure_agree():
    sys = crotonic_default()
    pat = QueryPattern.from_string("x1x0xx")
    marked = {}
    for init in ("thermal", "effective_pure"):
        res = run_fetch(RunConfig(sys, pat, init=init, backend="fast_diagonal"))
        assert res.verified
        marked[init] = res.marked
    assert marked["thermal"] == marked["effective_pure"]


def test_backends_agree_on_small_system():
    sys = make_system([40.0, 17.0, 8.0])
    pat = QueryPattern.from_string("10x")
    marked = set()
    for backend in ("ideal", "hard_pulse", "fast_diagonal"):
        res = run_fetch(RunConfig(sys, pat, backend=backend))
        assert res.verified, backend
        marked.add(res.marked)
    assert marked == {(4, 5)}


def test_run_fetch_hard_pulse_flagship_pattern():
    # the paper's run: the full refocused hard-pulse schedule for 100101
    sys = crotonic_default()
    pat = QueryPattern.from_string("100101")
    res = run_fetch(RunConfig(sys, pat, backend="hard_pulse"))
    assert res.verified
    assert res.marked == (37,)
    assert res.sequence.mode == "hard_pulse"
    ideal = sequence_unitary(build_query_network(sys, pat), sys)
    hard = sequence_unitary(res.sequence, sys)
    assert distance_up_to_global_phase(hard, ideal) <= 1e-6


# ---------------------------------------------------------------------------
# command line: argument handling and exit codes
# ---------------------------------------------------------------------------


def test_simulate_success_exit_zero(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        [
            "simulate",
            "--pattern",
            "100xxx",
            "--init",
            "thermal",
            "--out",
            str(out),
            "--emit",
            "csv,json,seq,svg",
        ]
    )
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "oracle calls: 1" in text
    assert "verification: PASS" in text
    names = {p.name for p in out.iterdir()}
    assert names >= {
        "before_spectrum.csv",
        "after_spectrum.csv",
        "before_spectrum.svg",
        "after_spectrum.svg",
        "result.json",
        "sequence.seq",
    }
    data = json.loads((out / "result.json").read_text())
    assert data["marked_items"] == list(range(32, 40))
    assert data["verified"] is True
    marked_flags = {p["item"]: p["marked"] for p in data["peaks_after"]}
    assert marked_flags[32] is True and marked_flags[0] is False


def test_simulate_deterministic_artifacts(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(
            ["simulate", "--pattern", "01x10x", "--out", str(out), "--emit", "csv,json"]
        ) == EXIT_OK
        outs.append(out)
    for fname in ("before_spectrum.csv", "after_spectrum.csv", "result.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_result_json_ignores_the_environment(tmp_path, monkeypatch):
    texts = []
    for seed in ("1234", None):
        if seed is None:
            monkeypatch.delenv("FETCH_SEED", raising=False)
        else:
            monkeypatch.setenv("FETCH_SEED", seed)
        out = tmp_path / str(seed)
        assert main(["simulate", "--pattern", "xxxxxx", "--out", str(out), "--emit", "json"]) == 0
        texts.append((out / "result.json").read_bytes())
    assert texts[0] == texts[1]


def test_simulate_hard_reports_schedule_in_t2(tmp_path, capsys):
    out = tmp_path / "hard"
    code = main(
        ["simulate", "--pattern", "100101", "--backend", "hard", "--out", str(out), "--emit", "json"]
    )
    assert code == EXIT_OK
    report = json.loads((out / "result.json").read_text())["sequence_report"]
    assert report["duration_t2"] == pytest.approx(report["total_duration_s"] / 2.0)
    assert 1.9 < report["duration_t2"] < 2.0
    line = re.search(r"^schedule: (\S+) s \((\S+) T2\)$", capsys.readouterr().out, re.M)
    assert line is not None
    assert float(line.group(1)) == pytest.approx(report["total_duration_s"], rel=1e-5)
    assert float(line.group(2)) == pytest.approx(report["duration_t2"], rel=1e-2)


def test_simulate_bad_pattern_length_exit_config():
    assert main(["simulate", "--pattern", "10"]) == EXIT_CONFIG


def test_compile_and_verify_bad_pattern_length_exit_config(capsys):
    assert main(["compile", "--pattern", "10"]) == EXIT_CONFIG
    assert main(["verify", "--pattern", "10"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("pattern length 2 != database size 6") == 2


@pytest.mark.parametrize("t2", ["nan", "inf"])
def test_non_finite_t2_exit_config(capsys, t2):
    # nan used to escape as a ValueError traceback (exit 1), and inf ran a
    # decay-free acquisition whose truncation wiggles failed to decode (exit 2)
    assert main(["simulate", "--pattern", "100xxx", "--backend", "fast", "--t2", t2]) == EXIT_CONFIG
    assert main(["spectrum", "--t2", t2]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("configuration error: dwell_s and t2_s must be finite") == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "field, message",
    [("offset_hz", "B: offset_hz"), ("gamma_rel", "B: gamma_rel"), ("coupling", "coupling A-B")],
)
def test_non_finite_register_values_exit_config(tmp_path, capsys, field, message, value):
    # a nan offset used to die with a ValueError traceback (exit 1) in
    # simulate and spectrum and to fail verify (exit 2); an infinite
    # coupling was refused only for sharing a line at inf Hz; a nan
    # gamma_rel passed verify
    cfg = Path(two_qubit_config(tmp_path, value if field == "coupling" else 10.0, 4.0))
    if field != "coupling":
        cfg.write_text(cfg.read_text().replace("[spin.C]", f"{field} = {value}\n[spin.C]"))
    for argv in (
        ["simulate", "--pattern", "1x"],
        ["spectrum"],
        ["compile", "--pattern", "1x"],
        ["verify", "--pattern", "1x", "--backend", "hard"],
    ):
        assert main(argv + ["--system", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count(f"configuration error: {message} must be finite") == 4


def test_bit_sign_config_key_exit_config(tmp_path, capsys):
    # the sign convention follows from the couplings and cannot be declared
    cfg = Path(two_qubit_config(tmp_path, -10.0, 4.0))
    cfg.write_text(cfg.read_text().replace("[spin.C]", "bit_sign = -1\n[spin.C]"))
    assert main(["simulate", "--system", str(cfg), "--pattern", "1x"]) == EXIT_CONFIG
    assert "[spin.B] unknown keys: ['bit_sign']" in capsys.readouterr().err


def test_simulate_bad_flag_exit_config(capsys):
    assert main(["simulate", "--pattern", "xxxxxx", "--backend", "warp"]) == EXIT_CONFIG
    assert main(["frobnicate"]) == EXIT_CONFIG
    capsys.readouterr()


def test_simulate_missing_system_file_exit_config():
    assert main(["simulate", "--system", "/nonexistent.cfg", "--pattern", "xxxxxx"]) == EXIT_CONFIG


def test_emit_without_out_exit_config():
    assert main(["simulate", "--pattern", "xxxxxx", "--emit", "csv"]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--pattern", "100xxx", "--emit", "csv"],
        ["simulate", "--backend", "fast", "--pattern", "100xxx", "--out", "{out}", "--emit", "seq"],
        ["simulate", "--pattern", "100xxx", "--out", "{out}", "--emit", "csv,pdf"],
        ["spectrum", "--emit", "csv"],
        ["spectrum", "--out", "{out}", "--emit", "seq"],
        ["compile", "--pattern", "100xxx", "--out", "{out}", "--emit", "json"],
        ["bench", "--out", "{out}", "--emit", "csv"],
    ],
)
def test_artifact_flags_are_checked_before_the_run(monkeypatch, tmp_path, capsys, argv):
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran before the artifact flags were checked")

    for name in ("run_fetch", "readout", "build_query_network", "bench_report"):
        monkeypatch.setattr(climod, name, must_not_run)
    out = tmp_path / "d"
    assert main([arg.replace("{out}", str(out)) for arg in argv]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--emit" in captured.err or "cannot emit" in captured.err
    assert not out.exists()


def test_simulate_oracle_mismatch_exit_two(monkeypatch):
    def wrong(pattern, n):
        return [0]

    monkeypatch.setattr(climod, "classical_oracle", wrong)
    assert main(["simulate", "--pattern", "100xxx", "--backend", "fast"]) == EXIT_MISMATCH


def two_qubit_config(tmp_path, j_b, j_c):
    path = tmp_path / "pair.cfg"
    path.write_text(
        textwrap.dedent(
            f"""
            ancilla = A
            [spin.A]
            species = carbon
            [spin.B]
            species = proton
            [spin.C]
            species = proton
            [couplings]
            A-B = {j_b}
            A-C = {j_c}
            """
        )
    )
    return str(path)


def test_simulate_undecodable_system_exit_config(tmp_path, capsys):
    # items 1 and 2 share a line: refused before anything is simulated
    cfg = two_qubit_config(tmp_path, 10.0, 10.0)
    assert main(["simulate", "--system", cfg, "--pattern", "1x"]) == EXIT_CONFIG
    assert "items 1 and 2 share the line at 0.0000 Hz" in capsys.readouterr().err


@pytest.mark.parametrize("backend", ["fast", "ideal", "hard"])
def test_simulate_lines_a_linewidth_apart_verify(tmp_path, capsys, backend):
    # items 1 and 2 sit 0.2 Hz apart, 1.26 linewidths at T2 = 2 s: resolved,
    # and the query inverts one of the two
    cfg = two_qubit_config(tmp_path, 10.0, 10.2)
    assert main(["simulate", "--system", cfg, "--pattern", "1x", "--backend", backend]) == EXIT_OK
    assert "marked items: {2, 3}" in capsys.readouterr().out


@pytest.mark.parametrize("t2", ["0.2", "0.25", "0.3"])
def test_simulate_unresolved_builtin_exit_config(capsys, t2):
    # the closest builtin lines are 0.7 Hz apart, less than a linewidth
    # 1/(pi T2) here; 0.25 and 0.3 used to decode wrong items, 0.2 to fail
    # the decode
    argv = ["simulate", "--pattern", "100xxx", "--backend", "fast", "--t2", t2]
    assert main(argv) == EXIT_CONFIG
    assert "not resolved at linewidth" in capsys.readouterr().err


def test_spectrum_subcommand_writes_csv(tmp_path, capsys):
    out = tmp_path / "spec"
    code = main(
        ["spectrum", "--init", "eps", "--points", "16384", "--out", str(out), "--emit", "csv"]
    )
    assert code == EXIT_OK
    csv = (out / "spectrum.csv").read_text().splitlines()
    assert csv[0] == "freq_hz,amplitude"
    assert len(csv) == 16385
    capsys.readouterr()


def test_spectrum_honours_acquisition_flags(tmp_path):
    out = tmp_path / "spec2"
    code = main(
        ["spectrum", "--points", "32768", "--t2", "1.0", "--out", str(out), "--emit", "csv,json"]
    )
    assert code == EXIT_OK
    want = AcquisitionParams.for_system(crotonic_default(), n_points=32768, t2_s=1.0)
    acquisition = json.loads((out / "result.json").read_text())["acquisition"]
    assert acquisition == {"n_points": 32768, "dwell_s": want.dwell_s, "t2_s": 1.0}
    rows = (out / "spectrum.csv").read_text().splitlines()[1:]
    freqs = np.array([float(r.split(",")[0]) for r in rows])
    assert np.allclose(freqs, want.frequency_grid(), rtol=1e-8, atol=0.0)


@pytest.mark.parametrize("command", ["simulate", "spectrum"])
def test_points_above_the_grid_cap_exit_config(monkeypatch, capsys, command):
    monkeypatch.setattr(climod, "_initial_state", None)  # refused before any state
    argv = [command, "--points", str(2**23)] + (["--pattern", "100xxx"] if command == "simulate" else [])
    assert main(argv) == EXIT_CONFIG
    assert "8388608 points exceed the 4194304-point acquisition cap" in capsys.readouterr().err


def test_spectrum_unresolvable_settings_exit_config(capsys):
    # at T2 = 0.2 s the lines are 1.6 Hz wide and the closest pairs, 0.7 Hz
    # apart, merge; at 0.05 s they are 6.4 Hz wide
    for t2 in ("0.2", "0.05"):
        assert main(["spectrum", "--t2", t2]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("configuration error: lines 0.7 Hz apart are not resolved") == 2


@pytest.mark.parametrize("command", ["simulate", "spectrum", "run_fetch"])
def test_refused_run_prepares_no_state(monkeypatch, capsys, command):
    prepared = []

    def spy(system, init):
        prepared.append(init)
        raise AssertionError("a refused run prepared a state")

    monkeypatch.setattr(climod, "_initial_state", spy)
    if command == "run_fetch":  # explicit acquisition, so for_system is not asked
        cfg = RunConfig(
            crotonic_default(),
            QueryPattern.from_string("100xxx"),
            params=AcquisitionParams(n_points=16384, dwell_s=1.0 / 512.0, t2_s=0.3),
        )
        with pytest.raises(SpectrometerError, match="not resolved"):
            run_fetch(cfg)
    else:
        argv = [command, "--t2", "0.3"] + (["--pattern", "100xxx"] if command == "simulate" else [])
        assert main(argv) == EXIT_CONFIG
    assert prepared == []
    capsys.readouterr()


def test_route_guard_fails_simulate_and_spectrum_reports_gap(monkeypatch, capsys):
    assert main(["spectrum"]) == EXIT_OK
    out = capsys.readouterr().out
    gap = float(re.search(r"route gap: (\S+) \(fails above 1e-09\)", out).group(1))
    assert 0.0 < gap < 1e-11
    monkeypatch.setattr(spectrometer, "_ROUTE_GUARD", 0.0)  # tighter than any real gap
    assert main(["simulate", "--pattern", "100xxx", "--backend", "fast"]) == EXIT_NUMERICAL
    assert main(["spectrum"]) == EXIT_NUMERICAL
    assert capsys.readouterr().err.count("disagree") == 2


def test_route_guard_fails_on_the_before_state_first(monkeypatch, capsys):
    # one readout pass covers both states, but the before state is still
    # checked first: the run stops at its gap, and the queried state's rows
    # are never made.  The two gaps are both rounding and may print alike,
    # so the order shows in which FID rows were synthesised
    monkeypatch.setattr(spectrometer, "_ROUTE_GUARD", 0.0)
    sys = crotonic_default()
    cfg = RunConfig(sys, QueryPattern.from_string("100xxx"), backend="fast_diagonal")
    params = AcquisitionParams.for_system(sys)
    state = climod._initial_state(sys, cfg.init)
    with pytest.raises(DecodeError, match="disagree") as exc:
        list(spectrometer.readout((state,), crotonic_default(), params))
    before = str(exc.value)
    rows = []
    real = spectrometer._fid_row

    def spy(difference, system, params):
        rows.append(difference.copy())
        return real(difference, system, params)

    monkeypatch.setattr(spectrometer, "_fid_row", spy)
    with pytest.raises(DecodeError) as exc:
        run_fetch(cfg)
    assert str(exc.value) == before
    assert len(rows) == 1 and np.array_equal(rows[0], state.ancilla_difference())
    assert main(["simulate", "--pattern", "100xxx", "--backend", "fast"]) == EXIT_NUMERICAL
    assert before in capsys.readouterr().err


def test_decode_failure_comes_before_route_failure(monkeypatch):
    # readout itself does not refuse an undecodable register: items 1 and 2
    # share a line, the before state fails to decode, and that error wins
    # over the route gap of the same state
    monkeypatch.setattr(spectrometer, "_ROUTE_GUARD", 0.0)
    sys = make_system([10.0, 10.0])
    state = climod._initial_state(sys, "effective_pure")
    params = AcquisitionParams(n_points=4096, dwell_s=1.0 / 64.0)
    with pytest.raises(DecodeError, match="ambiguous peak"):
        list(spectrometer.readout((state,), sys, params))


def test_compile_listing_grammar(capsys):
    assert main(["compile", "--pattern", "100xxx"]) == EXIT_OK
    out = capsys.readouterr().out
    body = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    grammar = re.compile(
        r"^(PULSE q=\d+ axis=-?[xy] deg=-?[\d.]+"
        r"|ZZ q=\d+,\d+ rad=-?[\d.]+"
        r"|VZ q=\d+ rad=-?[\d.]+"
        r"|DELAY s=-?[\d.e-]+)$"
    )
    assert body
    for ln in body:
        assert grammar.match(ln), ln
    assert "# ---- report ----" in out


def test_compile_hard_backend_emits_delays(capsys):
    assert main(["compile", "--pattern", "100xxx", "--backend", "hard"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "DELAY s=" in out
    assert "ZZ q=" not in out


def test_verify_subcommand_passes(capsys):
    assert main(["verify", "--pattern", "10x01x"]) == EXIT_OK
    out = capsys.readouterr().out.lower()
    assert "-> ok" in out
    assert "compiled network vs direct oracle" in out


def test_verify_hard_backend(capsys):
    assert main(["verify", "--pattern", "1xxxxx", "--backend", "hard"]) == EXIT_OK
    capsys.readouterr()


def test_verify_fast_backend(capsys):
    assert main(["verify", "--pattern", "x0xxx1", "--backend", "fast"]) == EXIT_OK
    capsys.readouterr()


def test_verify_refuses_registers_beyond_the_dense_limit(tmp_path, capsys):
    # 13 spins: the block product refuses the register before it exists
    n_db = 12
    cfg = tmp_path / "thirteen.cfg"
    cfg.write_text(superincreasing_config(n_db))
    code = main(["verify", "--system", str(cfg), "--pattern", "1" + "x" * (n_db - 1)])
    assert code == EXIT_CONFIG
    assert "query simulation limited to 12 spins; the register has 13" in capsys.readouterr().err


@pytest.mark.parametrize("register", ["builtin", "synthetic"])
def test_blockwise_verify_matches_the_dense_reference(register):
    # verify's block-wise deviations are the dense ones of the same
    # matrices: each product scattered to a dense matrix, against the dense
    # oracle, the scattered hard-pulse product and dense conjugation.  Negative bit signs: builtin bits 4 and
    # 6, synthetic bits 1, 4 and 6
    if register == "builtin":
        system = crotonic_default()
        patterns = ["100101", "xxxxxx", "x1x0xx", "0x1x10", "1xxxx0"]
    else:
        system = random_full_system(random.Random(11), 7)
        patterns = ["1010101", "xxxxxxx", "0x1x0x1", "x11x00x"]
    state = climod.thermal_state(system, polarization=1e-3)
    for text in patterns:
        pattern = QueryPattern.from_string(text)
        network = build_query_network(system, pattern)
        hard = expand_to_hard_pulses(network, system)
        product = _compressed_product(network)
        hard_product = _compressed_product(hard, system)
        dense = scatter(*product)
        fast = apply_query_diagonal(state, pattern).populations
        pairs = [
            (
                _product_distance(product, climod.direct_oracle_unitary(system, pattern)),
                distance_up_to_global_phase(dense, dense_oracle(system, pattern)),
            ),
            (
                _product_distance(hard_product, product),
                distance_up_to_global_phase(scatter(*hard_product), dense),
            ),
            (
                np.max(np.abs(_apply_product(state, *product).populations - fast)),
                np.max(np.abs(apply_unitary(state, dense).populations - fast)),
            ),
        ]
        for blockwise, reference in pairs:
            assert abs(blockwise - reference) <= 1e-15, (text, blockwise, reference)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--backend", "ideal"],
        ["simulate", "--backend", "hard"],
        ["simulate", "--backend", "fast", "--init", "thermal"],
        ["spectrum"],
        ["verify", "--backend", "ideal"],
        ["verify", "--backend", "hard"],
        ["verify", "--backend", "fast"],
    ],
    ids=lambda argv: "-".join(a for a in argv if not a.startswith("-")),
)
def test_thirteen_spins_exit_config_before_any_state(monkeypatch, tmp_path, capsys, argv):
    # 12 database qubits: readout refuses the register from _check_decodable,
    # the first thing simulate and spectrum ask; verify builds no product
    def refused(*args):
        raise AssertionError("a refused register was simulated")

    for name in ("_initial_state", "thermal_state", "_apply_product"):
        monkeypatch.setattr(climod, name, refused)
    cfg = tmp_path / "thirteen.cfg"
    cfg.write_text(superincreasing_config(12))
    pattern = [] if argv[0] == "spectrum" else ["--pattern", "1" + "x" * 11]
    if argv[0] != "verify":
        monkeypatch.setattr(climod, "_compressed_product", refused)
    assert main([*argv, "--system", str(cfg), *pattern]) == EXIT_CONFIG
    err = capsys.readouterr().err
    if argv[0] == "verify":
        assert "query simulation limited to 12 spins; the register has 13" in err
    else:
        assert "expanded register has 13 spins; readout is limited to 12" in err


def test_run_fetch_refuses_thirteen_spins_before_any_state(monkeypatch, tmp_path):
    monkeypatch.setattr(climod, "_initial_state", None)
    cfg = tmp_path / "thirteen.cfg"
    cfg.write_text(superincreasing_config(12))
    system = load_spin_system_file(str(cfg))
    params = AcquisitionParams(n_points=2**20, dwell_s=1.0 / 16384.0)
    for backend in ("ideal", "hard_pulse", "fast_diagonal"):
        cfg_run = RunConfig(system, QueryPattern.from_string("1" + "x" * 11), backend=backend, params=params)
        with pytest.raises(SpectrometerError, match="expanded register has 13 spins"):
            run_fetch(cfg_run)


@pytest.mark.parametrize("backend", ["ideal", "hard", "fast"])
def test_verify_takes_twelve_logical_spins_with_a_composite_one(monkeypatch, tmp_path, capsys, backend):
    # 11 database qubits, one a three-spin group: 12 logical spins, 14
    # physical ones.  verify never reads out, so only the logical count
    # matters; simulate is refused by readout before any state
    cfg = tmp_path / "composite.cfg"
    cfg.write_text(superincreasing_config(11, composite=(11,)))
    pattern = "1" + "x" * 9 + "0"
    assert main(["verify", "--system", str(cfg), "--pattern", pattern, "--backend", backend]) == EXIT_OK
    assert "-> ok" in capsys.readouterr().out
    monkeypatch.setattr(climod, "_initial_state", None)
    assert main(["simulate", "--system", str(cfg), "--pattern", pattern, "--backend", backend]) == EXIT_CONFIG
    assert "expanded register has 14 spins; readout is limited to 12" in capsys.readouterr().err


def test_bench_subcommand_table(capsys):
    assert main(["bench", "--bits", "56", "--marked", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "210828715" in out
    assert re.search(r"ensemble fetch\s+1\b", out)
    assert re.search(r"per-bit bisection\s+56\b", out)


def test_bench_rejects_bad_counts():
    assert main(["bench", "--bits", "0", "--marked", "1"]) == EXIT_CONFIG


def test_bench_sizes_up_to_a_float(capsys):
    # 2**1024 items overflow a float: that size used to die with an
    # OverflowError traceback (exit 1)
    assert main(["bench", "--bits", "1023", "--marked", "1"]) == EXIT_OK
    assert re.search(r"classical \(expected\)\s+4\.49423e\+307\b", capsys.readouterr().out)
    assert main(["bench", "--bits", "1024", "--marked", "1"]) == EXIT_CONFIG
    assert "configuration error: n_bits must be below 1024" in capsys.readouterr().err


def test_simulate_loads_no_scipy():
    # scipy is a test-only dependency: neither the import nor a hard-pulse run loads it
    code = textwrap.dedent(
        """
        import sys
        import nmrfetch
        from nmrfetch import cli
        assert cli.main(["simulate", "--pattern", "100101", "--backend", "hard"]) == 0
        print("scipy modules:", sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "scipy modules: []" in proc.stdout
