"""Register definition, config parsing, and frequency decodability."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nmrfetch import (
    AcquisitionParams,
    ConfigError,
    QueryPattern,
    SpectrometerError,
    Spin,
    SpinSystem,
    SpinSystemError,
    crotonic_default,
    line_table,
    load_spin_system,
    load_spin_system_file,
)
from nmrfetch.spectrometer import _check_decodable, _lines

from conftest import make_system


# ---------------------------------------------------------------------------
# built-in register
# ---------------------------------------------------------------------------


def test_crotonic_couplings():
    sys = crotonic_default()
    assert sys.j_hz[0, 1] == 156.0
    assert tuple(sys.j_hz[0, 1:]) == (156.0, 69.7, 41.6, -7.1, 1.4, -0.7)
    assert sys.n_database == 6
    assert sys.labels == ("C2", "H1", "C3", "C1", "H3", "C4", "H2")


def test_crotonic_bit_signs():
    # the negative ancilla couplings of qubits 4 and 6 flip their
    # spin-state-to-bit assignment
    sys = crotonic_default()
    assert sys.bit_signs == (1, 1, 1, -1, 1, -1)


def test_crotonic_gammas():
    sys = crotonic_default()
    gammas = {s.label: s.gamma_rel for s in sys.spins}
    assert gammas["C2"] == 1.0
    assert abs(gammas["H1"] / gammas["C2"] - 3.977) < 0.01


def test_crotonic_methyl_multiplicity():
    sys = crotonic_default()
    assert [s.multiplicity for s in sys.spins] == [1, 1, 1, 1, 3, 1, 1]


def test_logical_couplings_absorb_signs():
    sys = crotonic_default()
    # ancilla row becomes |J|; sign bookkeeping moves into the bit convention
    assert sys.logical_j_hz[0, 4] == sys.logical_j_hz[4, 0] == 7.1
    assert sys.logical_j_hz[0, 6] == sys.logical_j_hz[6, 0] == 0.7
    assert sys.logical_j_hz[0, 1] == 156.0
    assert tuple(sys.ancilla_couplings_abs()) == (156.0, 69.7, 41.6, 7.1, 1.4, 0.7)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_asymmetric_j_rejected():
    j = np.zeros((2, 2))
    j[0, 1] = 10.0
    j[1, 0] = 12.0
    with pytest.raises(SpinSystemError):
        SpinSystem(spins=(Spin("a"), Spin("b")), j_hz=j)


def test_nonzero_diagonal_rejected():
    j = np.zeros((2, 2))
    j[0, 0] = 1.0
    with pytest.raises(SpinSystemError):
        SpinSystem(spins=(Spin("a"), Spin("b")), j_hz=j)


def test_duplicate_labels_rejected():
    j = np.zeros((2, 2))
    with pytest.raises(SpinSystemError):
        SpinSystem(spins=(Spin("a"), Spin("a")), j_hz=j)


def test_bit_signs_must_match_couplings():
    # the signs follow from the couplings: they can be neither passed in
    # nor set apart from them
    j = np.zeros((2, 2))
    j[0, 1] = j[1, 0] = -5.0
    with pytest.raises(TypeError):
        SpinSystem(spins=(Spin("a"), Spin("b")), j_hz=j, bit_signs=(1,))
    sys = SpinSystem(spins=(Spin("a"), Spin("b")), j_hz=j)
    assert sys.bit_signs == (-1,)
    with pytest.raises(AttributeError):
        sys.bit_signs = (1,)


@given(
    st.lists(
        st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-200.0, 200.0, allow_nan=False)),
        min_size=1,
        max_size=8,
    )
)
def test_bit_signs_are_the_signs_of_the_ancilla_couplings(row):
    sys = make_system(row)
    assert sys.bit_signs == tuple(int(np.sign(j)) or 1 for j in row)
    for i, j in enumerate(row, start=1):
        assert sys.logical_j_hz[0, i] == sys.logical_j_hz[i, 0] == abs(j)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_logical_j_hz_is_the_sign_folded_coupling_matrix(data):
    # a random signed register: ancilla row, database couplings and zeros
    m = data.draw(st.integers(1, 8))
    value = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-200.0, 200.0, allow_nan=False))
    j = np.zeros((m, m))
    for a in range(m):
        for b in range(a + 1, m):
            j[a, b] = j[b, a] = data.draw(value)
    sys = SpinSystem(spins=tuple(Spin(f"q{i}") for i in range(m)), j_hz=j)
    s = np.array((1,) + sys.bit_signs)
    assert np.array_equal(sys.logical_j_hz, np.outer(s, s) * sys.j_hz)
    assert np.array_equal(sys.logical_j_hz[0, 1:], sys.ancilla_couplings_abs())
    assert np.array_equal(sys.logical_j_hz, sys.logical_j_hz.T)
    with pytest.raises(ValueError, match="read-only"):
        sys.logical_j_hz[0, -1] = 1.0
    with pytest.raises(AttributeError):
        sys.logical_j_hz = j
    with pytest.raises(TypeError):
        SpinSystem(spins=sys.spins, j_hz=j, logical_j_hz=j)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_values_rejected(value):
    j = np.array([[0.0, 5.0], [5.0, 0.0]])
    for spins, field in (
        ((Spin("a"), Spin("b", offset_hz=value)), "b: offset_hz"),
        ((Spin("a"), Spin("b", gamma_rel=value)), "b: gamma_rel"),
    ):
        with pytest.raises(SpinSystemError, match=f"{field} must be finite"):
            SpinSystem(spins, j)
    bad = j.copy()
    bad[0, 1] = bad[1, 0] = value
    with pytest.raises(SpinSystemError, match="coupling a-b must be finite"):
        SpinSystem((Spin("a"), Spin("b")), bad)


def test_even_multiplicity_rejected():
    # an even group has m = 0 manifolds that carry no bit information
    with pytest.raises(SpinSystemError):
        make_system([10.0], multiplicities=[2])


@pytest.mark.parametrize("mu", [2.5, 3.0, True])
def test_non_integer_multiplicity_rejected(mu):
    # a float passed the odd-positive test and then broke readout; True ran as a plain spin
    with pytest.raises(SpinSystemError, match="odd positive integer"):
        make_system([10.0], multiplicities=[mu])
    assert make_system([10.0], multiplicities=[np.int64(3)]).spins[1].multiplicity == 3


def test_ancilla_multiplicity_must_be_one():
    j = np.zeros((2, 2))
    j[0, 1] = j[1, 0] = 10.0
    with pytest.raises(SpinSystemError):
        SpinSystem(spins=(Spin("a", multiplicity=3), Spin("b")), j_hz=j)


def test_ancilla_only_register_allowed():
    sys = SpinSystem(spins=(Spin("a"),), j_hz=np.zeros((1, 1)))
    assert sys.n_database == 0
    assert sys.n_database == 0 and sys.bit_signs == ()


def test_gamma_must_be_positive():
    spins = (Spin("a"), Spin("b", gamma_rel=-1.0))
    with pytest.raises(SpinSystemError):
        SpinSystem(spins, np.array([[0.0, 5.0], [5.0, 0.0]]))


# ---------------------------------------------------------------------------
# frequencies and decodability
# ---------------------------------------------------------------------------


def test_decodability_crotonic():
    # the register's line table decides: its closest lines, the two
    # manifolds of items differing only in the 0.7 Hz qubit, need a
    # linewidth 1/(pi T2) of at most 0.7 Hz
    sys = crotonic_default()
    assert _lines(sys).min_gap_hz == pytest.approx(0.7)
    assert _lines(sys).block_one_item.all()
    _check_decodable(sys, AcquisitionParams())
    _check_decodable(sys, AcquisitionParams(t2_s=0.46))
    with pytest.raises(SpectrometerError, match="not resolved at linewidth 0.7074 Hz"):
        _check_decodable(sys, AcquisitionParams(t2_s=0.45))


def test_decodability_collision():
    sys = make_system([10.0, 10.0])  # items 01 and 10 coincide
    with pytest.raises(SpectrometerError, match="items 1 and 2 share the line at 0.0000 Hz"):
        _check_decodable(sys, AcquisitionParams())


def test_decodability_negation_symmetric():
    plus, minus = make_system([12.0, 5.0, 2.0]), make_system([-12.0, -5.0, -2.0])
    for sys in (plus, minus):
        _check_decodable(sys, AcquisitionParams())
    assert _lines(plus).min_gap_hz == pytest.approx(_lines(minus).min_gap_hz)


@given(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=6))
def test_sign_flips_leave_magnitudes_invariant(signs):
    base = [50.0, 20.0, 8.0, 3.0, 1.2, 0.5][: len(signs)]
    sys_plus = make_system(base)
    sys_mixed = make_system([s * j for s, j in zip(signs, base)])
    f_plus = sorted(line.freq_hz for line in line_table(sys_plus))
    f_mixed = sorted(line.freq_hz for line in line_table(sys_mixed))
    assert np.allclose(f_plus, f_mixed)
    assert sys_mixed.bit_signs == tuple(signs)


# ---------------------------------------------------------------------------
# query patterns
# ---------------------------------------------------------------------------


def test_pattern_parse_and_match():
    pat = QueryPattern.from_string("100xxx")
    assert pat.constraints == ("1", "0", "0", "x", "x", "x")
    matches = [i for i in range(64) if pat.matches(i)]
    assert matches == list(range(32, 40))


def test_pattern_wildcards_and_case():
    assert QueryPattern.from_string("1X*0").constraints == ("1", "x", "x", "0")


def test_pattern_match_mask(three_spin):
    pat = QueryPattern.from_string("1x")
    mask = pat.match_mask(2)
    assert mask.tolist() == [False, False, True, True]


def test_pattern_rejects_garbage():
    with pytest.raises(SpinSystemError):
        QueryPattern.from_string("10z")


def test_constrained_qubits():
    pat = QueryPattern.from_string("1x0")
    assert pat.constrained_qubits(3) == [(1, 1), (3, 0)]
    for n in (2, 4):
        with pytest.raises(ConfigError, match=f"pattern length 3 != database size {n}"):
            pat.constrained_qubits(n)
        with pytest.raises(ConfigError, match=f"pattern length 3 != database size {n}"):
            pat.match_mask(n)


# ---------------------------------------------------------------------------
# config text grammar
# ---------------------------------------------------------------------------

MINIMAL = """\
ancilla = A

[spin.A]
species = carbon

[spin.B]
species = proton

[couplings]
A-B = 10.0
"""


def test_load_minimal():
    sys = load_spin_system(MINIMAL)
    assert sys.n_database == 1
    assert sys.labels == ("A", "B")
    assert sys.j_hz[0, 1] == 10.0
    assert sys.bit_signs == (1,)
    assert sys.spins[1].gamma_rel == pytest.approx(3.977)


def test_load_ancilla_reordered_to_front():
    text = MINIMAL.replace("ancilla = A", "ancilla = B")
    sys = load_spin_system(text)
    assert sys.labels == ("B", "A")
    assert sys.j_hz[0, 1] == 10.0


def test_load_rejects_unknown_spin_key():
    with pytest.raises(ConfigError):
        load_spin_system(MINIMAL.replace("species = proton", "species = proton\nfrequency = 3"))


def test_load_rejects_unknown_section():
    with pytest.raises(ConfigError):
        load_spin_system(MINIMAL + "\n[detector]\ngain = 2\n")


def test_load_rejects_unknown_coupling_label():
    with pytest.raises(ConfigError):
        load_spin_system(MINIMAL.replace("A-B = 10.0", "A-C = 10.0"))


def test_load_rejects_duplicate_pair():
    with pytest.raises(ConfigError):
        load_spin_system(MINIMAL + "B-A = 11.0\n")


def test_load_rejects_self_coupling():
    with pytest.raises(ConfigError):
        load_spin_system(MINIMAL.replace("A-B = 10.0", "A-A = 10.0"))


def test_load_rejects_missing_ancilla():
    with pytest.raises(ConfigError):
        load_spin_system(MINIMAL.replace("ancilla = A\n", ""))


def test_shipped_config_equals_builtin():
    # the builtin register is read from the shipped file, so both are
    # pinned against the literal register here
    import nmrfetch

    path = __import__("pathlib").Path(nmrfetch.__file__).parent / "data" / "crotonic_acid.cfg"
    spins = [
        ("C2", "carbon", 1.0, 1),
        ("H1", "proton", 3.977, 1),
        ("C3", "carbon", 1.0, 1),
        ("C1", "carbon", 1.0, 1),
        ("H3", "proton", 3.977, 3),
        ("C4", "carbon", 1.0, 1),
        ("H2", "proton", 3.977, 1),
    ]
    j = np.zeros((7, 7))
    j[0, 1:] = j[1:, 0] = (156.0, 69.7, 41.6, -7.1, 1.4, -0.7)
    for register in (load_spin_system_file(str(path)), crotonic_default()):
        assert [(s.label, s.species, s.gamma_rel, s.multiplicity) for s in register.spins] == spins
        assert all(s.offset_hz == 0.0 for s in register.spins)
        assert np.array_equal(register.j_hz, j)
        assert register.bit_signs == (1, 1, 1, -1, 1, -1)
