"""Planted defects: one wrong side of one cross-check must fail the run.

Each case monkeypatches a single defect into one of the two models that a
check compares and asserts that the check catches it: ``verify`` exits 2.
The same command passes on the same register without the defect, so the
exit code is the defect's doing.  Registers: the builtin crotonic acid
register and a synthetic 8-spin one with a sign-flipped bit.
"""

import dataclasses
import math

import pytest

import nmrfetch.cli as climod
from nmrfetch import DensityState, GateSequence, SelectivePulse, ZZEvolution
from nmrfetch.cli import EXIT_MISMATCH, EXIT_OK, main

from conftest import superincreasing_config


@pytest.fixture(params=["builtin", "synthetic"])
def register(request, tmp_path):
    """(--system value, pattern with constrained and wildcard bits)."""
    if request.param == "builtin":
        return "builtin", "100101"
    path = tmp_path / "synthetic.cfg"
    path.write_text(superincreasing_config(7, negative=(3,)))
    return str(path), "1010x10"


def verify(system, pattern, backend):
    return main(["verify", "--system", system, "--pattern", pattern, "--backend", backend])


def without(seq, index):
    return GateSequence(seq.n_qubits, seq.gates[:index] + seq.gates[index + 1 :], seq.mode)


def drop_one_subset_period(real):
    # a ZZ period that carries a control subset's phase, not one of the
    # pi/2 periods that conjugate a chain
    def build(system, pattern):
        net = real(system, pattern)
        index = next(
            i for i, g in enumerate(net.gates) if isinstance(g, ZZEvolution) and abs(g.angle) != math.pi / 2
        )
        return without(net, index)

    return build


def drop_one_refocusing_pulse(real):
    # the query network itself has no pi pulse about y: every one in the
    # schedule refocuses a spin inside an echo block
    def expand(seq, system):
        hard = real(seq, system)
        index = next(
            i
            for i, g in enumerate(hard.gates)
            if isinstance(g, SelectivePulse) and g.axis == "y" and g.angle == math.pi
        )
        return without(hard, index)

    return expand


def move_toggle_to_qubit_1(real):
    def build(system, pattern):
        net = real(system, pattern)
        toggle = net.gates[:2]
        assert toggle == net.gates[-2:] and all(g.qubit == system.ancilla for g in toggle)
        moved = tuple(dataclasses.replace(g, qubit=1) for g in toggle)
        return GateSequence(net.n_qubits, moved + net.gates[2:-2] + moved, net.mode)

    return build


def flip_one_unmatched_item(real):
    def query(state, pattern):
        pops = real(state, pattern).populations.copy()
        half = pops.size // 2
        item = next(i for i in range(half) if not pattern.matches(i))
        pops[[item, item + half]] = pops[[item + half, item]]
        return DensityState(pops)

    return query


# defect, the cli name it replaces, the verify backend whose check must catch it
DEFECTS = {
    "dropped-subset-period": (drop_one_subset_period, "build_query_network", "ideal"),
    "dropped-refocusing-pulse": (drop_one_refocusing_pulse, "expand_to_hard_pulses", "hard"),
    "toggle-on-qubit-1": (move_toggle_to_qubit_1, "build_query_network", "ideal"),
    "toggle-on-qubit-1-fast": (move_toggle_to_qubit_1, "build_query_network", "fast"),
    "flipped-unmatched-item": (flip_one_unmatched_item, "apply_query_diagonal", "fast"),
}


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_verify_catches_planted_defect(monkeypatch, capsys, register, defect):
    plant, name, backend = DEFECTS[defect]
    system, pattern = register
    assert verify(system, pattern, backend) == EXIT_OK
    monkeypatch.setattr(climod, name, plant(getattr(climod, name)))
    assert verify(system, pattern, backend) == EXIT_MISMATCH
    assert "-> FAIL" in capsys.readouterr().out
