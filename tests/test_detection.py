"""Tests for noise reports: closed forms, worked examples, simulation parity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modecomb import (
    AmplifierSpec,
    DualRailSpec,
    FieldError,
    GaussianState,
    NoiseReport,
    OverlapSpec,
    amplify_comb,
    build_comb,
    build_dual_rail,
    ideal_epr_noise,
    loss_channel,
    measure_witness,
    misaligned_noise,
    pair_witnesses,
    squeezing_db,
    vacuum_state,
    wire_witnesses,
    witness_variance,
)
from modecomb import detection
from modecomb.gaussian import Witness, _step_rows

# Frozen reference values (independent closed-form evaluations).
G2_ETA1 = 0.1715728752538097            # 3 - 2 sqrt(2)
G2_ETA95 = 0.2129942314911193           # 1 + 1.9 (1 - sqrt 2)
EX1_SINGLE_STRAY = 0.25027345210469787  # G=2, P0=0.9, P1=0.1, eta1=0.5
EX2_TWO_STRAYS = 0.4502734521046979     # G=2, P0=0.9, P1=P2=0.05, eta=0.5
DB_G2_ETA1 = -7.655513706757267


def test_ideal_epr_noise_known_values():
    assert ideal_epr_noise(2.0, 1.0).variance == pytest.approx(G2_ETA1, abs=1e-12)
    assert ideal_epr_noise(2.0, 0.95).variance == pytest.approx(G2_ETA95, abs=1e-12)
    assert ideal_epr_noise(1.0, 1.0).variance == 1.0
    assert ideal_epr_noise(2.0, 0.0).variance == 1.0
    assert ideal_epr_noise(2.0, 1.0).db == pytest.approx(DB_G2_ETA1, abs=1e-10)


def test_ideal_epr_noise_matches_squeezing_identity():
    # 1 + 2 eta (G - 1 - sqrt(G(G-1))) == 1 + eta (e^{-2r} - 1), G = cosh^2 r
    for gain in (1.0, 1.3, 2.0, 3.7, 10.0):
        r = math.acosh(math.sqrt(gain))
        for eta in (1.0, 0.9, 0.4):
            expected = 1.0 + eta * (math.exp(-2.0 * r) - 1.0)
            assert ideal_epr_noise(gain, eta).variance == pytest.approx(
                expected, abs=1e-12
            )


def test_ideal_epr_noise_validation():
    with pytest.raises(ValueError):
        ideal_epr_noise(0.5, 1.0)
    with pytest.raises(ValueError):
        ideal_epr_noise(2.0, 1.5)
    with pytest.raises(ValueError):
        ideal_epr_noise(2.0, -0.1)


def test_overlap_spec_rejects_bad_efficiencies():
    spec = OverlapSpec(0.1, 0.95, (0.5,))
    assert spec.eta_d == 0.95

    with pytest.raises(ValueError):
        OverlapSpec(0.1, 0.95, (0.95,))  # stray eta too high
    with pytest.raises(ValueError):
        OverlapSpec(0.1, 0.0, (0.0,))  # detector eta zero


def test_overlap_spec_splits_power_exactly():
    spec = OverlapSpec(0.3, 0.9, (0.2, 0.4, 0.6))
    assert spec.misalignment == 0.3
    assert spec.stray_power == 0.3 / 3
    assert spec.stray_etas == (0.2, 0.4, 0.6)
    assert OverlapSpec(0.3, 0.9, [0.2, 0.4, 0.6]) == spec
    assert OverlapSpec() == OverlapSpec(0.0, 1.0, ())
    assert OverlapSpec().stray_power == 0.0
    # m / k rounds to 0.0 below half the smallest subnormal.
    assert OverlapSpec(5e-324, 0.9, (0.1, 0.3, 0.5)).stray_power == 0.0
    assert OverlapSpec(5e-324, 0.9, (0.1,)).stray_power == 5e-324
    cases = [
        ((0.1, 0.9, ()), "stray_etas"),
        ((1.5, 0.9, (0.5,)), "misalignment"),
        ((0.1, 0.0, (0.0,)), "eta_d"),
        ((0.1, 0.9, (0.95,)), "stray_etas"),
        ((0.1, float("nan"), (0.5,)), "eta_d"),
    ]
    for args, field in cases:
        with pytest.raises(FieldError) as excinfo:
            OverlapSpec(*args)
        assert excinfo.value.field == field


@pytest.mark.parametrize(
    "args, field",
    [
        ((0.1, 0.95, (0.95,)), "stray_etas"),
        ((0.1, 0.0, (0.0,)), "eta_d"),
        ((0.0, 1.5, ()), "eta_d"),
        ((0.1, 0.95, "0.5"), "stray_etas"),
        ((0.1, 0.95, 0.5), "stray_etas"),
        ((0.1, 0.95, (math.nan,)), "stray_etas"),
        ((0.1, "0.95", (0.5,)), "eta_d"),
        # The first broken rule is named: not a list, then the misalignment,
        # then the stray it needs, then eta_d, then each stray eta.
        ((2.0, 0.0, "x"), "stray_etas"),
        ((2.0, 0.0, ()), "misalignment"),
        ((0.5, 0.0, ()), "stray_etas"),
        ((0.5, 0.0, (2.0,)), "eta_d"),
    ],
)
def test_overlap_spec_names_the_offending_field(args, field):
    with pytest.raises(FieldError) as excinfo:
        OverlapSpec(*args)
    assert excinfo.value.field == field


@pytest.mark.parametrize("misalignment", [-0.1, math.nan, True, "0.1"])
def test_overlap_spec_misalignment_is_a_fraction(misalignment):
    with pytest.raises(FieldError) as excinfo:
        OverlapSpec(misalignment, 0.9, (0.5,))
    assert excinfo.value.field == "misalignment"


@pytest.mark.parametrize("eta_d", ["1", None, True, math.nan, math.inf,
                                   -1.0, 0.0])
def test_overlap_spec_names_a_bad_eta_d(eta_d):
    with pytest.raises(FieldError) as excinfo:
        OverlapSpec(0.5, eta_d, (0.5,))
    assert excinfo.value.field == "eta_d"


@settings(max_examples=300, deadline=None)
@given(
    misalignment=st.floats(0.0, 1.0),
    eta=st.floats(1e-9, 1.0),
    fractions=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1,
                       max_size=4),
    gain=st.floats(1.0, 1e3),
)
def test_misaligned_noise_keeps_unit_power_arithmetic(
    misalignment, eta, fractions, gain
):
    # The components of the unit-power bookkeeping, in plain floats: the
    # aligned share 1 - m, the stray share m / k and the leftover
    # 1 - (1 - m) - m / k, each times its own noise term.
    strays = tuple(eta * f for f in fractions)
    k = len(strays)
    aligned, share = 1.0 - misalignment, misalignment / k
    leftover = 1.0 - (1.0 - misalignment) - misalignment / k
    correlation = gain - 1.0 - math.sqrt(gain * (gain - 1.0))
    expected = {"aligned": aligned * (1.0 + 2.0 * eta * correlation)}
    for i, eta_i in enumerate(strays):
        expected[f"overlap{i}"] = share * (1.0 + 2.0 * eta_i * correlation)
        expected[f"excess{i}"] = leftover * (1.0 + 2.0 * eta_i * (gain - 1.0))
    spec = OverlapSpec(misalignment, eta, strays)
    components = misaligned_noise(spec, gain).components
    assert list(components) == list(expected)
    for key, value in expected.items():
        assert components[key] == value, key


def test_misaligned_noise_single_stray_worked_example():
    spec = OverlapSpec(0.1, 0.95, (0.5,))
    report = misaligned_noise(spec, 2.0)
    assert report.variance == pytest.approx(EX1_SINGLE_STRAY, abs=1e-12)
    # Single stray: all unmatched power belongs to that stray, no excess term.
    assert report.components["excess0"] == pytest.approx(0.0, abs=1e-15)
    assert report.components["aligned"] == pytest.approx(0.9 * G2_ETA95, abs=1e-12)


def test_misaligned_noise_two_strays_worked_example():
    spec = OverlapSpec(0.1, 0.95, (0.5, 0.5))
    report = misaligned_noise(spec, 2.0)
    assert report.variance == pytest.approx(EX2_TWO_STRAYS, abs=1e-12)
    # Each stray now sees the other's power as uncorrelated amplified noise.
    assert report.components["excess0"] == pytest.approx(0.1, abs=1e-12)
    assert report.components["excess1"] == pytest.approx(0.1, abs=1e-12)


def test_perfect_overlap_reduces_to_ideal_noise():
    for gain in (1.0, 2.0, 3.5):
        for eta in (1.0, 0.95, 0.8):
            spec = OverlapSpec(0.0, eta, ())
            assert misaligned_noise(spec, gain).variance == ideal_epr_noise(
                gain, eta
            ).variance


def test_noise_is_monotone_in_aligned_fraction():
    previous = None
    for misalignment in np.linspace(1.0, 0.0, 11):
        etas = (0.5,) if misalignment > 0.0 else ()
        spec = OverlapSpec(float(misalignment), 0.95, etas)
        variance = misaligned_noise(spec, 2.0).variance
        if previous is not None:
            assert variance < previous
        previous = variance


def test_measure_witness_matches_closed_form_on_amplified_pair():
    for gain in (1.0, 1.5, 2.0, 4.0):
        comb = build_comb(2, AmplifierSpec.from_gain(gain))
        state = amplify_comb(vacuum_state(2), comb)
        (wx, wp), = pair_witnesses(comb)
        for eta in (1.0, 0.95, 0.8):
            expected = ideal_epr_noise(gain, eta).variance
            for witness in (wx, wp):
                report = measure_witness(state, witness, eta)
                assert report.variance == pytest.approx(expected, abs=1e-10)
                assert report.components["vacuum_admixture"] == pytest.approx(
                    1.0 - eta, abs=1e-15
                )


def test_measure_witness_on_wire():
    spec = DualRailSpec(n_pairs=3, r=1.0)
    state = build_dual_rail(spec)
    expected = 1.0 + 0.95 * (math.exp(-2.0) - 1.0)
    for _, witness in wire_witnesses(spec):
        report = measure_witness(state, witness, 0.95)
        assert report.variance == pytest.approx(expected, abs=1e-12)
    assert report.variance == pytest.approx(0.1785685190747821, abs=1e-12)


def test_measure_witness_validation():
    comb = build_comb(2, AmplifierSpec.from_gain(2.0))
    state = amplify_comb(vacuum_state(2), comb)
    (wx, _), = pair_witnesses(comb)
    with pytest.raises(ValueError):
        measure_witness(state, wx, -0.1)
    with pytest.raises(ValueError):
        measure_witness(state, wx, 1.2)
    # A dead detector sees pure vacuum noise; that is valid, just useless.
    assert measure_witness(state, wx, 0.0).variance == pytest.approx(1.0)


@pytest.mark.parametrize("eta_d", [1.5, math.nan, True, "0.9"])
def test_measure_witness_names_its_own_efficiency_field(eta_d):
    comb = build_comb(2, AmplifierSpec.from_gain(2.0))
    state = amplify_comb(vacuum_state(2), comb)
    (wx, _), = pair_witnesses(comb)
    with pytest.raises(FieldError) as excinfo:
        measure_witness(state, wx, eta_d)
    assert excinfo.value.field == "eta_d"


def _full_state_readout(state, witness, eta_d):
    """The reference readout: loss on every support mode of the whole state,
    then the witness variance of the whole covariance."""
    for mode in witness.support(state.n_modes):
        state = loss_channel(state, mode, eta_d)
    return witness_variance(state, witness)


@pytest.mark.parametrize("gain", [1.2, 9.0, 1e3])
@pytest.mark.parametrize("cells", [1, 2])
@pytest.mark.parametrize("M", [2, 6, 96])
def test_comb_rows_read_from_the_marginal_are_bit_equal_to_the_full_state(
    M, cells, gain
):
    # The command line's comb vacuum: a covariance without a factor, read
    # through the marginal.
    comb = build_comb(M, AmplifierSpec.from_gain(gain), cells)
    vacuum = GaussianState(comb.n_modes, np.eye(2 * comb.n_modes))
    state = amplify_comb(vacuum, comb)
    for witnesses in pair_witnesses(comb):
        # One cell's pairs have evenly spaced rows, read through a slice;
        # two cells' pairs, through an index array.
        rows = _step_rows(comb.n_modes, witnesses[0].support(comb.n_modes))
        assert isinstance(rows, slice if cells == 1 else np.ndarray)
        for witness in witnesses:
            for eta in (0.5, 0.99, 1.0):
                assert measure_witness(state, witness, eta).variance == (
                    _full_state_readout(state, witness, eta)
                )


def _factorless_wire(spec):
    """The covariance alone of the wire ``spec``: a state read through its
    marginal, as the command line's comb states are."""
    state = build_dual_rail(spec)
    return GaussianState(state.n_modes, state.cov)


@pytest.mark.parametrize("convention", ["odd_mode_minus_half_pi", "none"])
@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_wire_rows_read_from_the_marginal_agree_with_the_full_state(
    r, convention
):
    # A wire witness has three or four terms, summed in another order over
    # the block than over the whole state. Both readouts lose about
    # eps * e^{4r} of the value, so their gap grows with r; at r = 3 it is
    # already 4e-12 relative, and the oracle tests bound each readout.
    spec = DualRailSpec(8, r, convention)
    state = _factorless_wire(spec)
    for _, witness in wire_witnesses(spec):
        for eta in (0.5, 0.99, 1.0):
            assert measure_witness(state, witness, eta).variance == (
                pytest.approx(_full_state_readout(state, witness, eta),
                              rel=1e-12, abs=0.0)
            )


def test_witness_on_every_mode_reads_the_whole_state():
    spec = DualRailSpec(4, 1.5)
    state = _factorless_wire(spec)
    witness = Witness(np.random.default_rng(5).normal(size=state.dim))
    assert witness.support(state.n_modes) == tuple(range(state.n_modes))
    for eta in (0.5, 0.99, 1.0):
        assert measure_witness(state, witness, eta).variance == (
            _full_state_readout(state, witness, eta)
        )


@pytest.mark.parametrize("convention", ["odd_mode_minus_half_pi", "none"])
@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_wire_rows_read_from_the_factor_agree_with_the_covariance(
    r, convention
):
    # The factor readout loses about eps * e^{2r} and the covariance
    # readout eps * e^{4r}, so at these r they agree as the two covariance
    # readouts above do.
    spec = DualRailSpec(8, r, convention)
    state = build_dual_rail(spec)
    factorless = _factorless_wire(spec)
    for _, witness in wire_witnesses(spec):
        for eta in (0.5, 0.99, 1.0):
            assert measure_witness(state, witness, eta).variance == (
                pytest.approx(measure_witness(factorless, witness, eta)
                              .variance, rel=1e-12, abs=0.0)
            )


@pytest.mark.parametrize("support", ["wire row", "every mode"])
def test_a_factor_readout_is_the_witness_variance_behind_the_loss(support):
    spec = DualRailSpec(4, 2.5)
    state = build_dual_rail(spec)
    if support == "wire row":
        witness = wire_witnesses(spec)[3][1]
    else:
        witness = Witness(np.random.default_rng(5).normal(size=state.dim))
    variance = witness_variance(state, witness)
    assert measure_witness(state, witness, 1.0).variance == variance
    for eta in (0.0, 0.5, 0.99):
        assert measure_witness(state, witness, eta).variance == (
            eta * variance + (1.0 - eta)
        )


@pytest.mark.parametrize("holding", ["factor", "covariance"])
@pytest.mark.parametrize("read", [
    witness_variance,
    lambda state, witness: measure_witness(state, witness, 0.9),
], ids=["witness_variance", "measure_witness"])
def test_every_readout_rejects_another_mode_count_with_one_message(read,
                                                                  holding):
    state = vacuum_state(3)
    if holding == "covariance":
        state = GaussianState(3, np.eye(6))
    for n_modes in (2, 4):
        witness = Witness.from_terms(n_modes, {(0, "x"): 1.0, (1, "p"): 1.0})
        with pytest.raises(ValueError,
                           match=f"^witness has {n_modes} modes, not 3$"):
            read(state, witness)


def test_wire_rows_form_no_covariance_and_call_no_loss_channel(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return loss_channel(*args)

    monkeypatch.setattr(detection, "loss_channel", counted)
    spec = DualRailSpec(16, 6.9)
    state = build_dual_rail(spec)
    for _, witness in wire_witnesses(spec):
        for eta in (0.5, 1.0):
            measure_witness(state, witness, eta)
    assert calls == []
    assert "cov" not in vars(state)


def test_squeezing_db_round_trip():
    assert squeezing_db(1.0) == 0.0
    assert squeezing_db(0.1) == pytest.approx(-10.0, abs=1e-12)
    assert squeezing_db(10.0) == pytest.approx(10.0, abs=1e-12)
    with pytest.raises(ValueError):
        squeezing_db(0.0)
    with pytest.raises(ValueError):
        squeezing_db(-0.2)


def test_noise_report_consistency_contract():
    report = ideal_epr_noise(2.0, 0.95)
    assert math.fsum(report.components.values()) == pytest.approx(
        report.variance, abs=1e-12
    )
    assert report.db == pytest.approx(
        10.0 * math.log10(report.variance), abs=1e-12
    )
    # The stored component map is a copy, not a live reference.
    report.components["shot_noise"] = 99.0
    assert ideal_epr_noise(2.0, 0.95).components["shot_noise"] == 1.0


def test_noise_report_rejects_inconsistent_fields():
    with pytest.raises(ValueError):
        NoiseReport(variance=0.5, components={"shot_noise": 0.7})
    with pytest.raises(ValueError):
        NoiseReport(variance=-0.5, components={})


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "variance, components",
    [
        (NAN, {"a": NAN}),
        (INF, {"a": INF}),
        (-INF, {"a": -INF}),
        (1.0, {"a": 1.0, "b": NAN}),
        (1.0, {"a": INF, "b": -INF}),
    ],
    ids=["nan", "inf", "-inf", "nan-component", "cancelling-infinities"],
)
def test_non_finite_reports_and_decibels_are_rejected(variance, components):
    with pytest.raises(ValueError):
        NoiseReport(variance, components)
    if not math.isfinite(variance):
        with pytest.raises(ValueError, match="finite and positive"):
            squeezing_db(variance)
