"""Tests for elementary Gaussian elements and the gain/squeezing dictionary."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modecomb import (
    AmplifierSpec,
    FieldError,
    SymplecticTransform,
    Witness,
    apply_symplectic,
    beamsplitter,
    check_physicality,
    gain_to_squeezing,
    loss_channel,
    phase_shift,
    squeezing_to_gain,
    two_mode_squeezer,
    vacuum_state,
    witness_variance,
)
from modecomb.elements import MAX_GAIN, MAX_SQUEEZING, _squeezed_vacuum

# exp(-2r) for r = 1, the two-mode squeezed witness floor
EXP_MINUS_TWO = 0.1353352832366127
# 3 - 2*sqrt(2), the same floor expressed through G = 2
G2_WITNESS_FLOOR = 0.1715728752538097


def test_amplifier_spec_roundtrips_gain_and_squeezing():
    spec = AmplifierSpec.from_gain(2.0)
    assert spec.gain == 2.0
    assert spec.r == pytest.approx(math.acosh(math.sqrt(2.0)), abs=1e-15)

    spec2 = AmplifierSpec.from_squeezing(spec.r)
    assert spec2.gain == pytest.approx(2.0, rel=1e-14)

    # Unit gain is the identity amplifier.
    assert AmplifierSpec.from_gain(1.0).r == 0.0


def test_amplifier_spec_rejects_inconsistent_pairs():
    with pytest.raises(ValueError):
        AmplifierSpec(gain=2.0, r=1.0)
    with pytest.raises(ValueError):
        AmplifierSpec.from_gain(0.5)
    with pytest.raises(ValueError):
        AmplifierSpec.from_squeezing(-0.1)


@pytest.mark.parametrize("r", [0.0, 1.0, 0.7, MAX_SQUEEZING])
def test_amplifier_spec_builds_its_squeezer_once(r):
    spec = AmplifierSpec.from_squeezing(r)
    squeezer = spec.squeezer
    assert spec.squeezer is squeezer
    expected = two_mode_squeezer(r).matrix
    assert squeezer.matrix.tobytes() == expected.tobytes()

    # The kept squeezer is no field: equality, hashing, repr and replace
    # see only the operating point, and an equal spec builds its own.
    fresh = AmplifierSpec.from_squeezing(r)
    assert spec == fresh and hash(spec) == hash(fresh)
    assert repr(spec) == repr(fresh)
    assert "squeezer" not in {f.name for f in dataclasses.fields(spec)}
    assert fresh.squeezer is not squeezer
    moved_r = 0.5 * r + 0.1
    moved = dataclasses.replace(
        spec, gain=squeezing_to_gain(moved_r), r=moved_r
    )
    assert moved.squeezer.matrix.tobytes() == (
        two_mode_squeezer(moved_r).matrix.tobytes()
    )


def test_amplifier_spec_has_no_pump_phase():
    # The amplifier is phase-insensitive: its witnesses read phase 0.
    assert [f.name for f in dataclasses.fields(AmplifierSpec)] == ["gain", "r"]
    with pytest.raises(TypeError):
        AmplifierSpec.from_gain(2.0, pump_phase=math.pi)
    with pytest.raises(TypeError):
        AmplifierSpec.from_squeezing(1.0, math.pi)
    with pytest.raises(TypeError):
        AmplifierSpec(squeezing_to_gain(1.0), 1.0, math.pi)


def test_gain_squeezing_dictionary():
    assert gain_to_squeezing(1.0) == 0.0
    assert gain_to_squeezing(2.0) == pytest.approx(0.881373587019543, abs=1e-15)
    assert squeezing_to_gain(0.0) == 1.0
    for gain in (1.0, 1.5, 2.0, 5.0, 25.0):
        assert squeezing_to_gain(gain_to_squeezing(gain)) == pytest.approx(
            gain, rel=1e-12
        )
    with pytest.raises(ValueError):
        gain_to_squeezing(0.99)
    with pytest.raises(ValueError):
        squeezing_to_gain(-1e-3)


def test_two_mode_squeezer_builds_epr_correlations():
    state = apply_symplectic(vacuum_state(2), two_mode_squeezer(1.0))
    x_diff = Witness.from_terms(2, {(0, "x"): 1.0, (1, "x"): -1.0})
    p_sum = Witness.from_terms(2, {(0, "p"): 1.0, (1, "p"): 1.0})
    assert witness_variance(state, x_diff) == pytest.approx(EXP_MINUS_TWO, abs=1e-14)
    assert witness_variance(state, p_sum) == pytest.approx(EXP_MINUS_TWO, abs=1e-14)
    # Single-mode marginals are thermal: variance cosh(2r) in every quadrature.
    assert state.cov[0, 0] == pytest.approx(math.cosh(2.0), rel=1e-14)
    assert state.cov[2, 2] == pytest.approx(math.cosh(2.0), rel=1e-14)


#: (n_modes, pairs) layouts of squeezed sources: one pair, pairs given out
#: of order around an unsqueezed mode, and a wire's three sources.
SOURCE_LAYOUTS = [(2, [(0, 1)]), (5, [(3, 1), (0, 4)]),
                  (6, [(0, 1), (2, 3), (4, 5)])]

#: Bound, in units of eps * max |C|, on the covariance of the squeezed
#: sources against two_mode_squeezer folded onto vacuum; 1.55 is the
#: largest gap seen.
SOURCE_COV_EPS = 4


@pytest.mark.parametrize("r", [0.37, 1.0, 2.9, 6.9])
@pytest.mark.parametrize("n_modes, pairs", SOURCE_LAYOUTS)
def test_squeezed_vacuum_is_a_squeezer_on_each_pair(n_modes, pairs, r):
    state = _squeezed_vacuum(n_modes, r, pairs)
    SymplecticTransform(state.factor, n_modes)  # a symplectic factor
    folded = vacuum_state(n_modes)
    for modes in pairs:
        folded = apply_symplectic(folded, two_mode_squeezer(r), modes)
    scale = np.abs(folded.cov).max()
    gap = np.abs(state.cov - folded.cov).max()
    assert gap <= SOURCE_COV_EPS * np.finfo(float).eps * scale


def test_two_mode_squeezer_zero_strength_is_identity():
    assert np.array_equal(two_mode_squeezer(0.0).matrix, np.eye(4))


def test_two_mode_squeezer_rejects_bad_strength():
    with pytest.raises(ValueError):
        two_mode_squeezer(-0.5)
    with pytest.raises(ValueError):
        two_mode_squeezer(float("nan"))


def test_squeezing_and_gain_rules_end_at_the_documented_reach():
    assert two_mode_squeezer(MAX_SQUEEZING).n_modes == 2
    assert AmplifierSpec.from_gain(MAX_GAIN).r == pytest.approx(
        MAX_SQUEEZING, abs=1e-12
    )
    for bad in (MAX_SQUEEZING * (1 + 1e-12), 1000, -0.1, math.nan, math.inf,
                True, "0.5", None):
        for build in (two_mode_squeezer, squeezing_to_gain,
                      AmplifierSpec.from_squeezing):
            with pytest.raises(FieldError) as excinfo:
                build(bad)
            assert excinfo.value.field == "r"
    for bad in (MAX_GAIN * (1 + 1e-12), 1e308, 0.5, math.nan, -math.inf,
                True, "2"):
        for build in (gain_to_squeezing, AmplifierSpec.from_gain):
            with pytest.raises(FieldError) as excinfo:
                build(bad)
            assert excinfo.value.field == "gain"


def test_element_angles_and_efficiencies_are_finite_numbers():
    cases = [
        (beamsplitter, "theta"),
        (lambda v: beamsplitter(0.1, v), "phi"),
        (phase_shift, "phi"),
        (lambda v: two_mode_squeezer(0.5, v), "phase"),
        (lambda v: loss_channel(vacuum_state(1), 0, v), "eta"),
    ]
    for build, field in cases:
        for bad in (math.nan, math.inf, -math.inf, True, "0.1"):
            with pytest.raises(FieldError) as excinfo:
                build(bad)
            assert excinfo.value.field == field


def test_two_mode_squeezer_pump_phase_rotates_correlation():
    # With pump phase pi the correlated quadrature pair swaps sign.
    state = apply_symplectic(vacuum_state(2), two_mode_squeezer(1.0, math.pi))
    x_sum = Witness.from_terms(2, {(0, "x"): 1.0, (1, "x"): 1.0})
    assert witness_variance(state, x_sum) == pytest.approx(EXP_MINUS_TWO, abs=1e-14)


def test_balanced_beamsplitter_splits_power_evenly():
    bs = beamsplitter(math.pi / 4)
    assert np.allclose(bs.matrix @ bs.matrix.T, np.eye(4), atol=1e-15)
    # A single-mode displacement splits 50/50 between the outputs.
    amplitude = bs.matrix @ np.array([1.0, 0.0, 0.0, 0.0])
    assert amplitude[0] ** 2 == pytest.approx(0.5, abs=1e-15)
    assert amplitude[1] ** 2 == pytest.approx(0.5, abs=1e-15)


def test_beamsplitter_is_passive_and_periodic():
    bs = beamsplitter(0.3, 1.1)
    assert np.allclose(bs.matrix @ bs.matrix.T, np.eye(4), atol=1e-14)
    # theta = 0 is the identity; theta = pi/2 swaps modes up to phase.
    assert np.allclose(beamsplitter(0.0).matrix, np.eye(4))
    swap = beamsplitter(math.pi / 2.0).matrix
    assert abs(swap[0, 1]) == pytest.approx(1.0, abs=1e-15)
    assert swap[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_phase_shift_quarter_turn_exchanges_quadratures():
    quarter = phase_shift(-math.pi / 2.0).matrix
    # x -> -p, p -> x under a -pi/2 rotation
    x_out = quarter @ np.array([1.0, 0.0])
    assert x_out == pytest.approx([0.0, 1.0], abs=1e-15)
    full_turn = phase_shift(2.0 * math.pi).matrix
    assert np.allclose(full_turn, np.eye(2), atol=1e-15)


def test_loss_channel_interpolates_to_vacuum():
    state = apply_symplectic(vacuum_state(2), two_mode_squeezer(1.0))
    untouched = loss_channel(state, 0, 1.0)
    assert np.allclose(untouched.cov, state.cov, atol=1e-15)

    dark = loss_channel(state, 0, 0.0)
    assert np.allclose(dark.cov[0, :], np.eye(4)[0], atol=1e-15)
    assert np.allclose(dark.cov[2, :], np.eye(4)[2], atol=1e-15)


def test_loss_channel_matches_closed_form_on_witness():
    # TMS -> loss on both modes -> witness variance equals 1 + eta(e^{-2r}-1).
    for eta in (1.0, 0.99, 0.9, 0.5):
        state = apply_symplectic(vacuum_state(2), two_mode_squeezer(1.0))
        state = loss_channel(loss_channel(state, 0, eta), 1, eta)
        w = Witness.from_terms(2, {(0, "x"): 1.0, (1, "x"): -1.0})
        expected = 1.0 + eta * (EXP_MINUS_TWO - 1.0)
        assert witness_variance(state, w) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("mode", [1.5, 1.0, True, np.bool_(False)])
def test_loss_channel_rejects_non_integer_modes(mode):
    with pytest.raises(ValueError, match="must be an integer"):
        loss_channel(vacuum_state(2), mode, 0.5)


def test_loss_channel_rejects_bad_arguments():
    state = vacuum_state(2)
    with pytest.raises(ValueError):
        loss_channel(state, 2, 0.5)
    with pytest.raises(ValueError):
        loss_channel(state, 0, 1.5)
    with pytest.raises(ValueError):
        loss_channel(state, 0, -0.1)


@settings(deadline=None, max_examples=60)
@given(
    r=st.floats(min_value=0.0, max_value=2.0),
    eta=st.floats(min_value=0.0, max_value=1.0),
    mode=st.integers(min_value=0, max_value=1),
)
def test_loss_never_breaks_physicality(r, eta, mode):
    state = apply_symplectic(vacuum_state(2), two_mode_squeezer(r))
    lossy = loss_channel(state, mode, eta)
    ok, min_eig = check_physicality(lossy)
    assert ok, f"min eig {min_eig} at r={r}, eta={eta}"


def test_gain_identity_matches_squeezing_form_on_grid():
    # 1 + 2*eta*(G - 1 - sqrt(G(G-1))) == 1 + eta*(e^{-2r} - 1) with G = cosh^2 r
    for gain in (1.0, 1.2, 1.5, 2.0, 3.0, 4.0):
        r = gain_to_squeezing(gain)
        for eta in (1.0, 0.99, 0.95, 0.8):
            via_gain = 1.0 + 2.0 * eta * (gain - 1.0 - math.sqrt(gain * (gain - 1.0)))
            via_r = 1.0 + eta * (math.exp(-2.0 * r) - 1.0)
            assert via_gain == pytest.approx(via_r, abs=1e-12)


#: Angles and pump phases: any finite float, out to +-1e300.
ANGLES = st.floats(min_value=-1e300, max_value=1e300)


def _passes_the_public_check(transform):
    checked = SymplecticTransform(transform.matrix, transform.n_modes)
    assert checked.matrix.tobytes() == transform.matrix.tobytes()


@settings(deadline=None, max_examples=200)
@given(r=st.floats(min_value=0.0, max_value=MAX_SQUEEZING), phase=ANGLES,
       theta=ANGLES, phi=ANGLES)
def test_every_factory_matrix_passes_the_public_check(r, phase, theta, phi):
    # The factories build their transforms without the symplectic check;
    # this is the check they skip, over every accepted parameter.
    _passes_the_public_check(two_mode_squeezer(r, phase))
    _passes_the_public_check(beamsplitter(theta, phi))
    _passes_the_public_check(phase_shift(phi))
    _passes_the_public_check(AmplifierSpec.from_squeezing(r).squeezer)


@pytest.mark.parametrize("angle", [-1e300, -math.pi, -0.0, 1e-300, 2.5, 1e300])
@pytest.mark.parametrize("r", [0.0, 1e-12, 3.3, MAX_SQUEEZING])
def test_factory_matrices_pass_the_public_check_at_the_ends_of_the_grid(
        r, angle):
    _passes_the_public_check(two_mode_squeezer(r, angle))
    _passes_the_public_check(beamsplitter(angle, -angle))
    _passes_the_public_check(phase_shift(angle))
