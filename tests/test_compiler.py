"""Query compilation: multilinear lowering, networks, hard-pulse echoes."""

import dataclasses
import gc
import itertools
import math
import pickle
import random
import re
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nmrfetch import (
    CompileError,
    ConfigError,
    Delay,
    QueryPattern,
    SelectivePulse,
    VirtualZ,
    ZZEvolution,
    build_query_network,
    compile_multilinear_z_phase,
    crotonic_default,
    distance_up_to_global_phase,
    expand_to_hard_pulses,
    format_sequence,
    load_spin_system,
    load_spin_system_file,
    sequence_report,
)
from nmrfetch import compiler
from nmrfetch.compiler import GateSequence

from conftest import make_system, random_full_system, superincreasing_config
from dense_reference import controlled_phase_direct, dense_oracle, scatter, sequence_unitary


# ---------------------------------------------------------------------------
# multilinear compilation vs direct construction
# ---------------------------------------------------------------------------


def test_zero_controls_single_virtual_z():
    seq = compile_multilinear_z_phase(2, target=1, controls=[], angle=0.9)
    assert len(seq.gates) == 1
    gate = seq.gates[0]
    assert isinstance(gate, VirtualZ) and gate.qubit == 1 and gate.angle == 0.9


def test_one_control_matches_direct():
    seq = compile_multilinear_z_phase(2, target=0, controls=[(1, 1)], angle=math.pi)
    direct = controlled_phase_direct(2, 0, [(1, 1)], math.pi)
    assert distance_up_to_global_phase(sequence_unitary(seq), direct) < 1e-10


def test_three_control_gate_counts():
    # nested expansion: empty set -> 1 virtual z; 7 ZZ periods, one per
    # nonempty subset; 3 conjugation nodes (V(2) at the top, V(3) around
    # the subsets holding 3, V(2) inside it) -> 6 pulses + 2 ZZ each
    seq = compile_multilinear_z_phase(4, 0, [(1, 1), (2, 0), (3, 0)], math.pi)
    rep = sequence_report(seq)
    assert rep.n_pulses == 18
    assert rep.n_zz == 13
    assert rep.n_virtual_z == 1


def test_two_control_phase_gate_order():
    # the outer control 2 (polarity 1) is conjugated once, around the inner
    # control's period with its sign folded in
    quarter, half = math.pi / 4, math.pi / 2
    seq = compile_multilinear_z_phase(3, 0, [(1, 0), (2, 1)], math.pi)
    assert seq.gates == (
        VirtualZ(0, quarter),
        ZZEvolution(1, 0, quarter),
        ZZEvolution(2, 0, -quarter),
        SelectivePulse(0, "-x", half),
        ZZEvolution(2, 0, -half),
        SelectivePulse(0, "x", half),
        SelectivePulse(0, "-y", half),
        ZZEvolution(1, 0, -quarter),
        SelectivePulse(0, "y", half),
        SelectivePulse(0, "-x", half),
        ZZEvolution(2, 0, half),
        SelectivePulse(0, "x", half),
    )


def _adjacent_inverse(a, b):
    if isinstance(a, SelectivePulse) and isinstance(b, SelectivePulse):
        flipped = {"x": "-x", "-x": "x", "y": "-y", "-y": "y"}[a.axis]
        return a.qubit == b.qubit and a.angle == b.angle and b.axis == flipped
    if isinstance(a, ZZEvolution) and isinstance(b, ZZEvolution):
        return {a.q1, a.q2} == {b.q1, b.q2} and a.angle == -b.angle
    return False


def _absorb_signs(controls, signs):
    # a control of polarity p under sign convention s fires where the bit is
    # p ^ (s < 0): eps = s (-1)^p is one polarity alone
    return [(q, p ^ (s < 0)) for (q, p), s in zip(controls, signs)]


@pytest.mark.parametrize("k", range(1, 7))
def test_nested_lowering_counts_and_exactness(k):
    rng = random.Random(100 + k)
    n = k + 1
    target = rng.randrange(n)
    ctrl = [q for q in range(n) if q != target]
    rng.shuffle(ctrl)
    controls = [(q, rng.randrange(2)) for q in ctrl]
    signs = [rng.choice([1, -1]) for _ in range(k)]
    angle = rng.uniform(-2 * math.pi, 2 * math.pi)
    seq = compile_multilinear_z_phase(n, target, _absorb_signs(controls, signs), angle)
    report = sequence_report(seq)
    assert report.n_zz == 2 ** (k + 1) - 3
    assert report.n_pulses == 6 * (2 ** (k - 1) - 1)
    assert report.n_virtual_z == 1
    assert not any(_adjacent_inverse(a, b) for a, b in zip(seq.gates, seq.gates[1:]))
    direct = controlled_phase_direct(n, target, controls, angle, signs=signs)
    assert distance_up_to_global_phase(sequence_unitary(seq), direct) <= 1e-9


@pytest.mark.parametrize("pattern, bound_s", [("100101", 4.0), ("1001x1", 2.5)])
def test_builtin_hard_schedules_stay_short(pattern, bound_s):
    sys = crotonic_default()
    net = build_query_network(sys, QueryPattern.from_string(pattern))
    assert sequence_report(expand_to_hard_pulses(net, sys)).total_duration_s < bound_s


def test_controls_nest_in_the_order_given():
    # ZZ periods per control depend on its place in the list, not its index:
    # the last control given is the outermost, conjugated only once
    for order in itertools.permutations([(1, 0), (2, 1), (3, 0)]):
        seq = compile_multilinear_z_phase(4, 0, list(order), math.pi)
        periods = Counter(g.q1 for g in seq.gates if isinstance(g, ZZEvolution))
        assert [periods[q] for q, _ in order] == [4, 6, 3]
        direct = controlled_phase_direct(4, 0, list(order), math.pi)
        assert distance_up_to_global_phase(sequence_unitary(seq), direct) < 1e-9


def test_query_controls_go_strongest_coupling_first():
    # listed weakest first, the register compiles the same schedule as
    # listed strongest first: the weakest control is conjugated only once
    strong_first = make_system([24.0, 12.0, 6.0, 3.0])
    weak_first = make_system([3.0, 6.0, 12.0, 24.0])
    durations = []
    for system, pattern in ((strong_first, "1011"), (weak_first, "1101")):
        net = build_query_network(system, QueryPattern.from_string(pattern))
        periods = Counter(g.q1 for g in net.gates if isinstance(g, ZZEvolution))
        weakest = int(np.argmin(system.ancilla_couplings_abs())) + 1
        assert periods[weakest] == min(periods.values())
        durations.append(expand_to_hard_pulses(net, system).duration_s)
    assert durations[0] == durations[1]


def test_three_control_embedded_in_seven_qubits():
    controls = [(1, 1), (2, 0), (3, 0)]
    seq = compile_multilinear_z_phase(7, 0, controls, math.pi)
    direct = controlled_phase_direct(7, 0, controls, math.pi)
    assert distance_up_to_global_phase(sequence_unitary(seq), direct) < 1e-9


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_compile_matches_direct_random(data):
    k = data.draw(st.integers(1, 4))
    n = k + 1
    controls = [(q, data.draw(st.integers(0, 1))) for q in range(1, k + 1)]
    signs = [data.draw(st.sampled_from([1, -1])) for _ in range(k)]
    angle = data.draw(st.floats(min_value=-2 * math.pi, max_value=2 * math.pi))
    seq = compile_multilinear_z_phase(n, 0, _absorb_signs(controls, signs), angle)
    direct = controlled_phase_direct(n, 0, controls, angle, signs=signs)
    assert distance_up_to_global_phase(sequence_unitary(seq), direct) < 1e-9


def test_compile_rejects_target_in_controls():
    with pytest.raises(CompileError):
        compile_multilinear_z_phase(3, 0, [(0, 1)], 1.0)


# ---------------------------------------------------------------------------
# query networks
# ---------------------------------------------------------------------------


def flip_semantics(system, pattern):
    """Population truth table of the compiled network on basis states."""
    u = sequence_unitary(build_query_network(system, pattern), system)
    probs = np.abs(u) ** 2
    n = system.n_database
    half = 2**n
    moved = []
    for item in range(half):
        out = int(np.argmax(probs[:, item]))
        moved.append(out)
    return moved


def test_network_flips_only_matching_items(three_spin):
    pat = QueryPattern.from_string("1x")
    moved = flip_semantics(three_spin, pat)
    # items 2,3 match -> ancilla flips (index + half); others stay
    assert moved == [0, 1, 6, 7]


def test_network_flips_only_matching_items_explicit(three_spin):
    pat = QueryPattern.from_string("1x")
    u = sequence_unitary(build_query_network(three_spin, pat), three_spin)
    probs = np.abs(u) ** 2
    for item in range(4):
        col_in = item  # ancilla |0>
        expect = item + 4 if pat.matches(item) else item
        assert probs[expect, col_in] == pytest.approx(1.0, abs=1e-12)


def test_network_matches_first_principles_oracle():
    sys = crotonic_default()
    for pattern in ("100xxx", "xxx1xx", "010101", "xxxxxx", "1xxxx0"):
        pat = QueryPattern.from_string(pattern)
        u = sequence_unitary(build_query_network(sys, pat), sys)
        ref = dense_oracle(sys, pat)
        assert distance_up_to_global_phase(u, ref) < 1e-9


def test_single_constraint_two_qubit_flip():
    sys = make_system([10.0])
    u = sequence_unitary(build_query_network(sys, QueryPattern.from_string("1")), sys)
    probs = np.abs(u) ** 2
    assert probs[3, 1] == pytest.approx(1.0, abs=1e-12)  # |0,1> -> |1,1>
    assert probs[0, 0] == pytest.approx(1.0, abs=1e-12)  # |0,0> untouched


def test_all_wild_flips_every_item(three_spin):
    u = sequence_unitary(build_query_network(three_spin, QueryPattern.from_string("xx")), three_spin)
    probs = np.abs(u) ** 2
    for item in range(4):
        assert probs[item + 4, item] == pytest.approx(1.0, abs=1e-12)


def test_negative_sign_qubits_translate_polarity():
    # constraining a negatively-coupled qubit must still mark the right items
    sys = crotonic_default()
    pat = QueryPattern.from_string("xxx1xx")
    u = sequence_unitary(build_query_network(sys, pat), sys)
    probs = np.abs(u) ** 2
    for item in range(64):
        expect = item + 64 if pat.matches(item) else item
        assert probs[expect, item] == pytest.approx(1.0, abs=1e-12)


def test_network_pattern_length_mismatch():
    with pytest.raises(ConfigError, match="pattern length 3 != database size 6"):
        build_query_network(crotonic_default(), QueryPattern.from_string("10x"))


# ---------------------------------------------------------------------------
# gate sequence invariants
# ---------------------------------------------------------------------------


def test_mode_gate_mixing_rejected():
    with pytest.raises(CompileError):
        GateSequence(2, (Delay(0.1),), mode="ideal")
    with pytest.raises(CompileError):
        GateSequence(2, (ZZEvolution(0, 1, 0.5),), mode="hard_pulse")


def test_gate_qubit_out_of_range_rejected():
    for gate in (SelectivePulse(2, "x", 1.0), VirtualZ(-1, 0.3), ZZEvolution(0, 2, 0.5)):
        with pytest.raises(CompileError, match="out of range for 2-qubit register"):
            GateSequence(2, (gate,))


@pytest.mark.parametrize(
    "gate, mode",
    [
        (SelectivePulse(0, "x", math.nan), "ideal"),
        (SelectivePulse(0, "y", math.inf), "hard_pulse"),
        (ZZEvolution(0, 1, math.nan), "ideal"),
        (ZZEvolution(0, 1, -math.inf), "ideal"),
        (VirtualZ(1, math.nan), "ideal"),
        (VirtualZ(1, math.inf), "hard_pulse"),
        (Delay(math.nan), "hard_pulse"),
        (Delay(math.inf), "hard_pulse"),
        (Delay(-0.1), "hard_pulse"),
    ],
)
def test_non_finite_gates_rejected(gate, mode):
    with pytest.raises(CompileError, match="finite"):
        GateSequence(2, (gate,), mode)


@pytest.mark.parametrize(
    "gate, mode",
    [
        (SelectivePulse(1.5, "x", 1.0), "ideal"),
        (SelectivePulse(True, "x", 1.0), "ideal"),
        (VirtualZ(2.5, 1.0), "hard_pulse"),
        (ZZEvolution(0, 1.5, 1.0), "ideal"),
        (ZZEvolution(False, 1, 1.0), "ideal"),
        (SelectivePulse(0, "x", "1.0"), "ideal"),
        (VirtualZ(0, 1j), "ideal"),
        (ZZEvolution(0, 1, None), "ideal"),
        (Delay("0.1"), "hard_pulse"),
        (Delay(np.complex128(0.1)), "hard_pulse"),
    ],
)
def test_gates_of_the_wrong_type_rejected(gate, mode):
    # bool and non-integer qubits, non-real angles and delays: refused when
    # the sequence is made, not by numpy or math later
    with pytest.raises(CompileError, match="not an integer|finite real|non-negative"):
        GateSequence(3, (gate,), mode)


@pytest.mark.parametrize("n_qubits", [2.5, np.float64(3.0), True, "3", None])
def test_register_size_of_the_wrong_type_rejected(n_qubits):
    # refused when the sequence is made, not by numpy's left_shift in the product
    with pytest.raises(CompileError, match="positive integer number of qubits"):
        GateSequence(n_qubits, (VirtualZ(0, 0.5),))


def test_numpy_integer_qubits_and_real_angles_accepted():
    # each product on a register of its own, so neither reads the other's composed runs
    registers = [make_system([30.0, 8.0], offsets=[5.0, -3.0, 2.0]) for _ in range(2)]
    plain = (SelectivePulse(1, "x", math.pi), VirtualZ(2, 0.5), SelectivePulse(0, "y", 0.7), Delay(0.01))
    numpy_typed = (
        SelectivePulse(np.int64(1), "x", np.float64(math.pi)),
        VirtualZ(np.uint8(2), np.float32(0.5)),
        SelectivePulse(np.int32(0), "y", 0.7),
        Delay(np.float64(0.01)),
    )
    want = sequence_unitary(GateSequence(3, plain, "hard_pulse"), registers[0])
    got = sequence_unitary(GateSequence(3, numpy_typed, "hard_pulse"), registers[1])
    assert np.array_equal(got, want)  # float32(0.5) is 0.5 exactly


@pytest.mark.parametrize("controls", [[], [(1, 0)], [(1, 0), (2, 1)]])
def test_non_finite_phase_angle_rejected(controls):
    for angle in (math.nan, math.inf):
        with pytest.raises(CompileError, match="finite"):
            compile_multilinear_z_phase(3, 0, controls, angle)


def test_unhashable_non_gate_rejected():
    # each object is checked before the sequence's index hashes it
    with pytest.raises(CompileError, match=r"unknown gate \[0, 1\]"):
        GateSequence(2, (VirtualZ(0, 0.5), [0, 1]))


def test_equal_gates_hash_alike_and_survive_pickling():
    # a gate hashes its field tuple, so 0.0 and -0.0 gates are equal and hash alike
    pairs = [
        (SelectivePulse(0, "x", 0.0), SelectivePulse(0, "x", -0.0)),
        (ZZEvolution(0, 1, 0.0), ZZEvolution(0, 1, -0.0)),
        (VirtualZ(1, 0.0), VirtualZ(1, -0.0)),
        (Delay(0.0), Delay(-0.0)),
        (SelectivePulse(2, "-y", math.pi), SelectivePulse(2, "-y", math.pi)),
    ]
    for a, b in pairs:
        fields = tuple(getattr(a, f.name) for f in dataclasses.fields(a))
        assert a == b and hash(a) == hash(b) == hash(fields)
        copy = pickle.loads(pickle.dumps(a))
        assert copy == a and hash(copy) == hash(a)


def test_pulse_angles_canonicalized_nonnegative():
    seq = compile_multilinear_z_phase(3, 0, [(1, 1), (2, 0)], 0.8)
    for g in seq.gates:
        if isinstance(g, SelectivePulse):
            assert g.angle >= 0
            assert g.axis in ("x", "y", "-x", "-y")


def test_empty_sequence_report():
    rep = sequence_report(GateSequence(2, ()))
    assert rep.n_pulses == 0 and rep.n_zz == 0 and rep.n_delays == 0
    # a float zero, so result.json writes 0.0 for an ideal sequence
    assert rep.total_duration_s == 0.0 and isinstance(rep.total_duration_s, float)


def per_pulse_report(seq):
    """The report's tallies by the per-pulse rule: convert and count every pulse."""
    counts, kinds, duration = {}, {}, 0.0
    for gate in seq.gates:
        kinds[type(gate)] = kinds.get(type(gate), 0) + 1
        if isinstance(gate, SelectivePulse):
            key = (gate.axis, round(math.degrees(gate.angle), 6))
            counts[key] = counts.get(key, 0) + 1
        elif isinstance(gate, Delay):
            duration += gate.seconds
    return dict(sorted(counts.items())), kinds, duration


@pytest.mark.parametrize("bits", ["100101", "1001x1", "100xxx"])
def test_sequence_report_matches_the_per_pulse_rule(bits):
    sys = crotonic_default()
    net = build_query_network(sys, QueryPattern.from_string(bits))
    # angles a rounding apart in degrees, and both signs of zero, merge into one key
    odd = GateSequence(
        2,
        (
            SelectivePulse(0, "x", -0.0),
            SelectivePulse(1, "x", 0.0),
            SelectivePulse(0, "y", math.pi),
            SelectivePulse(0, "y", math.pi * (1 + 1e-12)),
            SelectivePulse(1, "y", math.pi * (1 - 1e-12)),
        ),
    )
    for seq in (expand_to_hard_pulses(net, sys), net, odd):
        rep = sequence_report(seq)
        counts, kinds, duration = per_pulse_report(seq)
        assert list(rep.pulse_counts.items()) == list(counts.items())
        assert [str(deg) for _, deg in rep.pulse_counts] == [str(deg) for _, deg in counts]
        assert rep.n_pulses == kinds.get(SelectivePulse, 0) == sum(counts.values())
        assert (rep.n_zz, rep.n_virtual_z, rep.n_delays) == tuple(
            kinds.get(kind, 0) for kind in (ZZEvolution, VirtualZ, Delay)
        )
        assert rep.total_duration_s == duration
    assert sequence_report(odd).pulse_counts == {("x", -0.0): 2, ("y", 180.0): 3}


# ---------------------------------------------------------------------------
# hard-pulse expansion
# ---------------------------------------------------------------------------


def test_bare_coupling_needs_no_refocusing():
    # lone spin pair: the gate is pure free evolution, split symmetrically
    sys = make_system([156.0])
    seq = GateSequence(2, (ZZEvolution(0, 1, math.pi / 2),))
    hard = expand_to_hard_pulses(seq, sys)
    delays = [g for g in hard.gates if isinstance(g, Delay)]
    pulses = [g for g in hard.gates if isinstance(g, SelectivePulse)]
    assert pulses == []
    assert len(delays) == 2
    assert sum(d.seconds for d in delays) == pytest.approx(1.0 / 312.0)


def test_spectator_couplings_get_refocused():
    # embed the same gate among spectators with couplings: echo pulses appear
    j = np.array(
        [
            [0.0, 50.0, 9.0, 4.0],
            [50.0, 0.0, 6.0, 3.0],
            [9.0, 6.0, 0.0, 2.0],
            [4.0, 3.0, 2.0, 0.0],
        ]
    )
    sys = make_system([50.0, 9.0, 4.0], full_j=j)
    seq = GateSequence(4, (ZZEvolution(0, 1, math.pi / 2),))
    hard = expand_to_hard_pulses(seq, sys)
    pulses = [g for g in hard.gates if isinstance(g, SelectivePulse)]
    assert pulses, "spectators must be actively refocused"
    ideal = sequence_unitary(seq, sys)
    got = sequence_unitary(hard, sys)
    assert distance_up_to_global_phase(got, ideal) < 1e-9


def test_negative_angle_embeds_correctly():
    j = np.array(
        [
            [0.0, 30.0, 7.0],
            [30.0, 0.0, 5.0],
            [7.0, 5.0, 0.0],
        ]
    )
    sys = make_system([30.0, 7.0], full_j=j)
    seq = GateSequence(3, (ZZEvolution(0, 1, -math.pi / 2),))
    hard = expand_to_hard_pulses(seq, sys)
    assert distance_up_to_global_phase(
        sequence_unitary(hard, sys), sequence_unitary(seq, sys)
    ) < 1e-9
    for d in (g for g in hard.gates if isinstance(g, Delay)):
        assert d.seconds >= 0


def test_chemical_shifts_are_compensated():
    # offsets on every spin, including ones with no couplings in the gate
    j = np.array(
        [
            [0.0, 20.0, 0.0],
            [20.0, 0.0, 0.0],
            [0.0, 0.0, 0.0],
        ]
    )
    sys = make_system([20.0, 0.0], offsets=[11.0, -17.0, 23.0], full_j=j)
    seq = GateSequence(3, (ZZEvolution(0, 1, 1.3),))
    hard = expand_to_hard_pulses(seq, sys)
    assert distance_up_to_global_phase(
        sequence_unitary(hard, sys), sequence_unitary(seq, sys)
    ) < 1e-9


def test_zero_coupling_pair_rejected():
    sys = make_system([10.0, 0.0])
    seq = GateSequence(3, (ZZEvolution(1, 2, 0.5),))
    with pytest.raises(CompileError):
        expand_to_hard_pulses(seq, sys)


def test_sequence_without_couplings_passes_through():
    sys = make_system([10.0])
    seq = GateSequence(
        2, (SelectivePulse(0, "y", math.pi / 2), VirtualZ(1, 0.3), VirtualZ(1, 0.4))
    )
    hard = expand_to_hard_pulses(seq, sys)
    assert hard.mode == "hard_pulse"
    assert not any(isinstance(g, Delay) for g in hard.gates)


def _two_controls(offsets):
    j = [[0.0, 30.0, 8.0], [30.0, 0.0, 5.0], [8.0, 5.0, 0.0]]
    return make_system([30.0, 8.0], offsets=offsets, full_j=j)


def test_echo_blocks_are_cached_per_register():
    # equal couplings, different offsets: the blocks' frame corrections differ
    a = _two_controls([5.0, -3.0, 2.0])
    b = _two_controls([-4.0, 1.0, 7.0])
    net = compile_multilinear_z_phase(3, 0, [(1, 0), (2, 1)], math.pi)
    first = expand_to_hard_pulses(net, a)
    blocks = dict(compiler._REGISTER_WORK[a].blocks)
    assert expand_to_hard_pulses(net, a) == first
    assert all(compiler._REGISTER_WORK[a].blocks[zz] is block for zz, block in blocks.items())
    # each period expands into one echo block, its gates a tuple
    assert all(isinstance(block, compiler._EchoBlock) for block in blocks.values())
    assert all(isinstance(block.gates, tuple) for block in blocks.values())
    other = expand_to_hard_pulses(net, b)
    assert compiler._REGISTER_WORK[b].blocks.keys() == blocks.keys()
    assert all(compiler._REGISTER_WORK[b].blocks[zz].gates != block.gates for zz, block in blocks.items())
    for sys, hard in ((a, first), (b, other)):
        gap = distance_up_to_global_phase(sequence_unitary(hard, sys), sequence_unitary(net, sys))
        assert gap < 1e-6


def test_echo_block_cache_lets_its_register_go():
    sys = _two_controls([5.0, -3.0, 2.0])
    net = compile_multilinear_z_phase(3, 0, [(1, 0), (2, 1)], math.pi)
    compiler._compressed_product(expand_to_hard_pulses(net, sys), sys)
    work = compiler._REGISTER_WORK[sys]
    assert work.blocks and work.runs  # the blocks and the composed runs
    ref = weakref.ref(sys)
    del sys
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("spec", ["builtin", "composite"])
def test_expanded_index_is_the_ideal_one_with_blocks(spec):
    # an expanded schedule keeps the ideal network's codes, each ZZ period's
    # entry replaced by the register's echo block and every other entry
    # kept; its gates are the blocks' gates in place of the periods, and
    # the flat index GateSequence builds from them gives the same schedule
    path = Path(__file__).resolve().parent.parent / "scripts" / "composite_negative.cfg"
    sys = crotonic_default() if spec == "builtin" else load_spin_system_file(path)
    blocks = compiler._register_work(sys).blocks
    for symbols in itertools.product("01x", repeat=sys.n_database):
        net = build_query_network(sys, QueryPattern.from_string("".join(symbols)))
        hard = expand_to_hard_pulses(net, sys)
        assert hard._codes is net._codes
        assert len(hard._entries) == len(net._entries)
        for ideal, entry in zip(net._entries, hard._entries):
            if isinstance(ideal, ZZEvolution):
                assert blocks[ideal] is entry and isinstance(entry, compiler._EchoBlock)
            else:
                assert entry is ideal
        assert {compiler._mixed_qubit(e) for e in net._entries} <= {-1, 0}  # only the ancilla mixes
        flat = [blocks[g].gates if isinstance(g, ZZEvolution) else (g,) for g in net.gates]
        assert hard.gates == tuple(itertools.chain.from_iterable(flat))
        again = GateSequence(sys.n_spins, hard.gates, "hard_pulse")
        assert again == hard and again.duration_s == hard.duration_s


def test_composed_runs_are_kept_per_register():
    # one delay: the same gate values, a different run under each register
    a = _two_controls([5.0, -3.0, 2.0])
    b = _two_controls([-4.0, 1.0, 7.0])
    seq = GateSequence(3, (Delay(0.01),), "hard_pulse")
    for sys in (a, b, a):
        assert np.max(np.abs(product_unitary(seq, sys) - sequence_unitary(seq, sys))) <= 1e-12


def _products(sys, bits):
    """The bytes of the ideal and the hard product of one query on a register."""
    net = build_query_network(sys, QueryPattern.from_string(bits))
    products = (compiler._compressed_product(seq, sys) for seq in (net, expand_to_hard_pulses(net, sys)))
    return [[(a.dtype, a.shape, a.tobytes()) for a in product] for product in products]


def test_warm_register_products_match_a_fresh_register():
    # runs composed for other queries and read back from the register's
    # memo give the bytes that composing every run afresh gives
    warm = crotonic_default()
    patterns = ["".join(p) for p in itertools.product("01x", repeat=warm.n_database)]
    for bits in patterns[::7]:
        _products(warm, bits)
    assert compiler._REGISTER_WORK[warm].runs
    for bits in random.Random(5).sample(patterns, 16) + ["100101", "xxxxxx"]:
        assert _products(warm, bits) == _products(crotonic_default(), bits)


_SCHEDULE_REGISTERS = {
    "builtin": crotonic_default(),
    "negative_n7": load_spin_system(superincreasing_config(7, negative=(3,))),
}


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(_SCHEDULE_REGISTERS)),
    symbols=st.lists(st.sampled_from("01x"), min_size=7, max_size=7),
)
def test_expanded_schedule_is_its_flat_gate_list(name, symbols):
    # the block-indexed schedule against the same gates indexed flat by
    # GateSequence: equal gates, bit-equal duration, the same product (a
    # run composes a block's gates in place, so even bit for bit)
    sys = _SCHEDULE_REGISTERS[name]
    pattern = QueryPattern.from_string("".join(symbols[: sys.n_database]))
    hard = expand_to_hard_pulses(build_query_network(sys, pattern), sys)
    flat = GateSequence(sys.n_spins, hard.gates, "hard_pulse")
    assert flat.gates == hard.gates
    assert flat.duration_s.hex() == hard.duration_s.hex()
    products = [compiler._compressed_product(seq, sys) for seq in (hard, flat)]
    assert compiler._product_distance(*products) <= 1e-12
    assert all(map(np.array_equal, *products))


def test_monomial_runs_in_place_and_gathered_match_the_reference():
    # one hand-built schedule of each kind of monomial run: a diagonal run
    # (scaled in place), a run with a single pi pulse (gathered), a pair of
    # pi pulses that cancel (in place again), and mixing pulses between them
    sys = make_system([30.0, 8.0], offsets=[5.0, -3.0, 2.0])
    flip, mix = SelectivePulse(1, "y", math.pi), SelectivePulse(0, "x", math.pi / 3)
    gates = (
        Delay(0.004), VirtualZ(2, 0.3), mix,
        Delay(0.002), flip, VirtualZ(0, -0.2), mix,
        flip, Delay(0.003), flip, SelectivePulse(0, "-y", 0.4),
        SelectivePulse(2, "x", math.pi), Delay(0.001),
    )  # fmt: skip
    seq = GateSequence(sys.n_spins, gates, "hard_pulse")
    assert np.max(np.abs(product_unitary(seq, sys) - sequence_unitary(seq, sys))) <= 1e-12
    monomial = [f for f in compiler._REGISTER_WORK[sys].runs.values() if isinstance(f, tuple)]
    assert {f[0] is None for f in monomial} == {True, False}  # both branches ran


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_random_sequences_expand_exactly(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n_db = data.draw(st.integers(2, 3))
    sys = random_full_system(rng, n_db)
    gates = []
    for _ in range(data.draw(st.integers(1, 5))):
        kind = rng.choice(["pulse", "zz", "vz"])
        if kind == "pulse":
            gates.append(
                SelectivePulse(
                    rng.randrange(n_db + 1),
                    rng.choice(["x", "y", "-x", "-y"]),
                    rng.uniform(0, 2 * math.pi),
                )
            )
        elif kind == "zz":
            a = rng.randrange(n_db + 1)
            b = (a + 1 + rng.randrange(n_db)) % (n_db + 1)
            gates.append(ZZEvolution(a, b, rng.uniform(-math.pi, math.pi)))
        else:
            gates.append(VirtualZ(rng.randrange(n_db + 1), rng.uniform(-3, 3)))
    seq = GateSequence(n_db + 1, tuple(gates))
    hard = expand_to_hard_pulses(seq, sys)
    gap = distance_up_to_global_phase(
        sequence_unitary(hard, sys), sequence_unitary(seq, sys)
    )
    assert gap < 1e-6


def test_full_query_expansion_on_builtin():
    sys = crotonic_default()
    net = build_query_network(sys, QueryPattern.from_string("100xxx"))
    hard = expand_to_hard_pulses(net, sys)
    gap = distance_up_to_global_phase(
        sequence_unitary(hard, sys), sequence_unitary(net, sys)
    )
    assert gap < 1e-6
    rep = sequence_report(hard)
    # timed free evolution dominated by the weakest constrained coupling
    assert rep.total_duration_s > 0.05
    assert rep.n_delays > 0


def test_pulse_durations_add_to_total():
    # pulses are instantaneous: the duration is the sum of the delays
    seq = GateSequence(
        2,
        (
            SelectivePulse(0, "x", math.pi),
            Delay(0.01),
            SelectivePulse(1, "y", math.pi),
            Delay(0.0025),
        ),
        mode="hard_pulse",
    )
    rep = sequence_report(seq)
    assert rep.total_duration_s == seq.duration_s == 0.01 + 0.0025


# ---------------------------------------------------------------------------
# folded product vs gate-by-gate product
# ---------------------------------------------------------------------------


def product_unitary(seq, sys):
    """The compiler's block product of a sequence as a dense matrix, to meet the gate-by-gate one."""
    return scatter(*compiler._compressed_product(seq, sys))


# pi-multiples exercise the signed-flip path (3 pi and -pi included), 0 and
# pi/2 the dense 2x2 path, arbitrary floats either.  Both products round each
# phase to about eps relative, so they may differ by about eps times the
# total phase turned; delays of at most 50 ms and angles of at most 10 rad
# keep that below 1e-12, inside the tolerance.
_ANGLES = st.one_of(
    st.sampled_from([0.0, math.pi / 2, math.pi, 3 * math.pi, -math.pi]),
    st.floats(min_value=-10.0, max_value=10.0),
)
# odd multiples of pi: signed flips, the only pulses a database qubit may take
_PI_MULTIPLES = st.sampled_from([math.pi, 3 * math.pi, -math.pi, -3 * math.pi])


def _draw_sequence(data, n, mode, runs, max_size):
    """A drawn sequence: pulses on the ancilla at any angle, flips anywhere, diagonals anywhere.

    ``runs`` draws how many pulses each pulse run holds, so pulses meet
    pulses on other qubits.
    """
    kinds = ["pulses", "vz"]
    if mode == "hard_pulse":
        kinds.append("delay")
    elif n > 1:
        kinds.append("zz")
    qubit = st.integers(0, n - 1)
    axis = st.sampled_from(["x", "y", "-x", "-y"])
    gates = []
    for kind in data.draw(st.lists(st.sampled_from(kinds), max_size=max_size)):
        if kind == "pulses":
            for _ in range(data.draw(runs)):
                q = data.draw(qubit)
                gates.append(SelectivePulse(q, data.draw(axis), data.draw(_ANGLES if q == 0 else _PI_MULTIPLES)))
        elif kind == "vz":
            gates.append(VirtualZ(data.draw(qubit), data.draw(_ANGLES)))
        elif kind == "zz":
            q1, q2 = data.draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            gates.append(ZZEvolution(q1, q2, data.draw(_ANGLES)))
        else:
            gates.append(Delay(data.draw(st.floats(min_value=0.0, max_value=0.05))))
    return gates


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_sequence_unitary_matches_per_gate_product(data):
    n = data.draw(st.integers(1, 4))
    mode = data.draw(st.sampled_from(["ideal", "hard_pulse"]))
    sys = random_full_system(random.Random(data.draw(st.integers(0, 10**6))), n - 1)
    seq = GateSequence(n, tuple(_draw_sequence(data, n, mode, st.integers(1, 3), 20)), mode=mode)
    assert np.max(np.abs(product_unitary(seq, sys) - sequence_unitary(seq, sys))) <= 1e-11


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_sequence_unitary_with_few_mixed_qubits(data):
    # single pulses, and on a drawn share of the sequences no pulse that
    # mixes at all, so that every run is monomial
    n = data.draw(st.integers(1, 5))
    mode = data.draw(st.sampled_from(["ideal", "hard_pulse"]))
    sys = random_full_system(random.Random(data.draw(st.integers(0, 10**6))), n - 1)
    gates = _draw_sequence(data, n, mode, st.just(1), 30)
    if data.draw(st.booleans()):
        gates = [g for g in gates if compiler._mixed_qubit(g) < 0]
    seq = GateSequence(n, tuple(gates), mode=mode)
    assert np.max(np.abs(product_unitary(seq, sys) - sequence_unitary(seq, sys))) <= 1e-11


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_pulse_that_mixes_a_database_qubit_is_refused(data):
    # any angle that is not an odd multiple of pi mixes two items, 0 and
    # 2 pi included; no network or schedule of the package holds one
    n = data.draw(st.integers(2, 5))
    mode = data.draw(st.sampled_from(["ideal", "hard_pulse"]))
    sys = random_full_system(random.Random(data.draw(st.integers(0, 10**6))), n - 1)
    gates = _draw_sequence(data, n, mode, st.integers(1, 3), 10)
    angle = data.draw(
        st.one_of(
            st.sampled_from([0.0, 2 * math.pi, -2 * math.pi, math.pi / 2]),
            st.floats(-10.0, 10.0).filter(lambda a: abs(math.cos(0.5 * a)) >= 1e-15),
        )
    )
    bad = SelectivePulse(data.draw(st.integers(1, n - 1)), data.draw(st.sampled_from(["x", "-y"])), angle)
    gates.insert(data.draw(st.integers(0, len(gates))), bad)
    seq = GateSequence(n, tuple(gates), mode=mode)
    with pytest.raises(CompileError, match=re.escape(f"{bad!r} mixes qubit {bad.qubit};")):
        compiler._compressed_product(seq, sys)


@pytest.mark.parametrize("mode", ["ideal", "hard_pulse"])
def test_empty_sequence_product_is_the_identity(mode):
    sys = crotonic_default()
    blocks, src = compiler._compressed_product(GateSequence(sys.n_spins, (), mode), sys)
    items = 2**sys.n_database
    assert np.array_equal(blocks, np.broadcast_to(np.eye(2), (items, 2, 2)))
    assert np.array_equal(src, np.arange(items))


def test_sequence_unitary_matches_per_gate_product_on_flagship_schedule():
    sys = crotonic_default()
    net = build_query_network(sys, QueryPattern.from_string("100101"))
    hard = expand_to_hard_pulses(net, sys)
    assert np.max(np.abs(product_unitary(hard, sys) - sequence_unitary(hard, sys))) <= 1e-11


# ---------------------------------------------------------------------------
# listing format
# ---------------------------------------------------------------------------


def test_listing_line_grammar():
    sys = make_system([25.0])
    net = build_query_network(sys, QueryPattern.from_string("1"))
    text = format_sequence(net)
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    grammar = re.compile(
        r"^(PULSE q=\d+ axis=-?[xy] deg=-?[\d.]+"
        r"|ZZ q=\d+,\d+ rad=-?[\d.]+"
        r"|VZ q=\d+ rad=-?[\d.]+"
        r"|DELAY s=-?[\d.e-]+)$"
    )
    assert body
    for ln in body:
        assert grammar.match(ln), ln


def test_listing_has_report_block():
    sys = make_system([25.0])
    net = build_query_network(sys, QueryPattern.from_string("1"))
    text = format_sequence(net)
    assert "# ---- report ----" in text
    hard_text = format_sequence(expand_to_hard_pulses(net, sys))
    assert "DELAY s=" in hard_text
