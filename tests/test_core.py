"""Tests for shared state types, parameter records, and constants."""

import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gravsim.core import (
    _NORM_TOL,
    DEFAULT_G,
    DEFAULT_K_EFF,
    HBAR,
    RB87_MASS,
    PulseParams,
    SequenceParams,
    ThreeLevelState,
    TwoLevelState,
    state_probability,
)
from gravsim.errors import InvalidSequenceError, InvalidStateError
from gravsim.raman import RamanState


def test_constant_values():
    # [TRIVIAL] pinned default constants
    assert HBAR == 1.054571817e-34
    assert DEFAULT_G == 9.81
    assert RB87_MASS == 1.443e-25
    assert DEFAULT_K_EFF == 1.610e7


def test_two_level_state_builders():
    g = TwoLevelState.ground()
    e = TwoLevelState.excited()
    assert g.c_a == 1.0 and g.c_b == 0.0
    assert e.c_a == 0.0 and e.c_b == 1.0


def test_two_level_state_rejects_unnormalized():
    with pytest.raises(InvalidStateError):
        TwoLevelState(c_a=1.0, c_b=1.0)
    with pytest.raises(InvalidStateError):
        TwoLevelState(c_a=0.5, c_b=0.5)


def test_three_level_state_norm_and_momentum():
    s = ThreeLevelState.ground(p=1.2e-27)
    assert s.c_g == 1.0 and s.c_i == 0.0 and s.c_e == 0.0
    assert s.p == 1.2e-27
    with pytest.raises(InvalidStateError):
        ThreeLevelState(c_g=1.0, c_i=1.0, c_e=0.0)


@pytest.mark.parametrize(
    "build, label",
    [
        (lambda c: TwoLevelState(c_a=c, c_b=0.0), "|c_a|^2 + |c_b|^2"),
        (lambda c: ThreeLevelState(c_g=c, c_i=0.0, c_e=0.0), "three-level norm"),
        (lambda c: RamanState(c_g=c, c_e=0.0, p_g=0.0, p_e=0.0), "|c_g|^2 + |c_e|^2"),
    ],
    ids=["two-level", "three-level", "raman"],
)
def test_every_state_applies_the_one_norm_rule(build, label):
    # The admission edge is the same for all three states, and each keeps
    # its own message naming its sum.
    build(math.sqrt(1.0 + 0.9 * _NORM_TOL))
    for amp in (math.sqrt(1.0 + 1.1 * _NORM_TOL), 2.0, math.nan, math.inf):
        norm = abs(amp) ** 2
        with pytest.raises(InvalidStateError) as info:
            build(amp)
        assert str(info.value) == f"{label} = {norm!r}, expected 1 within {_NORM_TOL}"


def test_pulse_params_validation_and_properties():
    with pytest.raises(ValueError):
        PulseParams(rabi_mod=-1.0, detuning=0.0, duration=1.0)
    with pytest.raises(ValueError):
        PulseParams(rabi_mod=1.0, detuning=0.0, duration=0.0)
    # NaN fails every comparison, so each check must be a positive one.
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="rabi_mod must be finite"):
            PulseParams(rabi_mod=bad, detuning=0.0, duration=1.0)
        with pytest.raises(ValueError, match="duration must be finite"):
            PulseParams(rabi_mod=1.0, detuning=0.0, duration=bad)
    # The drive phase is one keyword-only field: a fourth positional
    # argument is refused rather than read as a phase.
    p = PulseParams(2.0, 0.0, 1.0, laser_phase=0.3, start_time=0.1)
    assert (p.laser_phase, p.start_time) == (0.3, 0.1)
    with pytest.raises(TypeError):
        PulseParams(1.0, 0.0, 1.0, 0.3)


@pytest.mark.parametrize("field", ["detuning", "laser_phase", "start_time"])
def test_pulse_params_refuses_non_finite(field):
    # Each field is named in the refusal, before any propagator or oracle
    # turns the NaN or inf into a misleading error of its own.
    for bad in (math.nan, math.inf, -math.inf):
        fields = {"rabi_mod": 1.0, "detuning": 0.0, "duration": 1.0, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            PulseParams(**fields)


def test_sequence_params_validation_and_derived():
    with pytest.raises(InvalidSequenceError):
        SequenceParams(t_interrogation=-0.1, tau_p=1e-5)
    with pytest.raises(InvalidSequenceError):
        SequenceParams(t_interrogation=0.1, tau_p=0.0)
    # The dark interval must outlast the pi pulse, as in SensitivityProfile.
    for big_t in (1e-5, 0.5e-5):
        with pytest.raises(InvalidSequenceError, match="t_interrogation > tau_p"):
            SequenceParams(t_interrogation=big_t, tau_p=1e-5)
    # NaN fails every comparison, so each check must be a positive one.
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidSequenceError, match="finite"):
            SequenceParams(t_interrogation=bad, tau_p=1e-5)
        with pytest.raises(InvalidSequenceError, match="finite"):
            SequenceParams(t_interrogation=0.1, tau_p=bad)
    # A subnormal tau_p overflows the Rabi rate pi / tau_p; T = 1e308 the
    # span 2 (T + tau_p); T / tau_p = 1e300 / 2.2e-308 their product.
    for big_t, tau_p in ((0.1, 1e-310), (1e308, 1e-5), (1e300, sys.float_info.min)):
        with pytest.raises(InvalidSequenceError, match="finite pi/tau_p and a finite "
                           "Rabi phase"):
            SequenceParams(t_interrogation=big_t, tau_p=tau_p)
    assert SequenceParams(t_interrogation=8e307, tau_p=10.0).span == 1.6e308
    for k_eff in (0.0, math.inf, math.nan):
        with pytest.raises(InvalidSequenceError, match="k_eff"):
            SequenceParams(t_interrogation=0.1, tau_p=1e-5, k_eff=k_eff)
    for phase in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidSequenceError, match="phases must be finite"):
            SequenceParams(t_interrogation=0.1, tau_p=1e-5, phases=(0.0, phase, 0.0))
    for phases in ((0.0, 0.0), (0.0, 0.0, 0.0, 0.0)):
        with pytest.raises(InvalidSequenceError, match="exactly three entries"):
            SequenceParams(t_interrogation=0.1, tau_p=1e-5, phases=phases)
    seq = SequenceParams(t_interrogation=0.1, tau_p=1e-5, phases=(0.1, 0.2, 0.7))
    # [TRIVIAL] phi_1 - 2 phi_2 + phi_3
    assert seq.dphi_laser == pytest.approx(0.1 - 0.4 + 0.7)
    assert seq.span == pytest.approx(0.2 + 2e-5)


def test_state_probability_two_level_labels():
    # [PAPER] a state with amplitude sqrt(1/10) on the excited level is found
    # excited in 10% of measurements
    s = TwoLevelState(c_a=math.sqrt(9.0 / 10.0), c_b=math.sqrt(1.0 / 10.0))
    assert state_probability(s, "b") == pytest.approx(0.1, abs=1e-12)
    assert state_probability(s, "a") == pytest.approx(0.9, abs=1e-12)


def test_state_probability_equal_moduli_phases_ignored():
    # [PAPER] amplitudes (1+i)/2 and (1-i)/2 both give probability 1/2
    s = TwoLevelState(c_a=0.5 + 0.5j, c_b=0.5 - 0.5j)
    assert state_probability(s, "a") == pytest.approx(0.5, abs=1e-12)
    assert state_probability(s, "b") == pytest.approx(0.5, abs=1e-12)


def test_state_probability_three_level_and_errors():
    s = ThreeLevelState(c_g=0.6, c_i=0.0, c_e=0.8)
    assert state_probability(s, "g") == pytest.approx(0.36)
    assert state_probability(s, "e") == pytest.approx(0.64)
    assert state_probability(s, "i") == 0.0
    with pytest.raises(ValueError):
        state_probability(s, "x")
    with pytest.raises(TypeError):
        state_probability(object(), "a")  # type: ignore[arg-type]


@pytest.mark.parametrize(
    "state, labels",
    [
        (TwoLevelState(c_a=0.6, c_b=0.8),
         ["g", "e", "i", "ground", "excited", "A", "B", ""]),
        (ThreeLevelState(c_g=0.6, c_i=0.0, c_e=0.8),
         ["a", "b", "ground", "intermediate", "excited", "G", "I", "E", ""]),
    ],
    ids=["two_level", "three_level"],
)
def test_state_probability_knows_only_its_field_letters(state, labels):
    # One label per amplitude, the letter of its field: no word, no label of
    # the other record, no other case.
    for label in labels:
        with pytest.raises(ValueError, match="unknown .* component"):
            state_probability(state, label)


@st.composite
def normalized_two_level(draw):
    parts = [
        draw(st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False))
        for _ in range(4)
    ]
    c_a = complex(parts[0], parts[1])
    c_b = complex(parts[2], parts[3])
    norm = math.sqrt(abs(c_a) ** 2 + abs(c_b) ** 2)
    if norm < 1e-3:
        c_a, c_b, norm = 1.0 + 0.0j, 0.0j, 1.0
    return TwoLevelState(c_a=c_a / norm, c_b=c_b / norm)


@given(normalized_two_level())
def test_probabilities_sum_to_one(state):
    total = state_probability(state, "a") + state_probability(state, "b")
    assert total == pytest.approx(1.0, abs=1e-12)
