"""Tests for noise reports: closed forms, worked examples, simulation parity."""

import math

import numpy as np
import pytest

from modecomb import (
    AmplifierSpec,
    DualRailSpec,
    FieldError,
    NoiseReport,
    OverlapSpec,
    amplify_comb,
    build_comb,
    build_dual_rail,
    ideal_epr_noise,
    measure_witness,
    misaligned_noise,
    pair_witnesses,
    squeezing_db,
    vacuum_state,
    wire_witnesses,
)

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


def test_overlap_spec_enforces_power_budget():
    spec = OverlapSpec(1.0, 0.9, (0.1,), 0.95, (0.5,))
    assert spec.total_power == 1.0

    with pytest.raises(ValueError):
        OverlapSpec(1.0, 0.9, (0.2,), 0.95, (0.5,))  # budget exceeded
    with pytest.raises(ValueError):
        OverlapSpec(1.0, 1.1, (), 0.95, ())  # aligned above total
    with pytest.raises(ValueError):
        OverlapSpec(1.0, 0.9, (0.1,), 0.95, (0.95,))  # stray eta too high
    with pytest.raises(ValueError):
        OverlapSpec(1.0, 0.9, (0.1, 0.0), 0.95, (0.5,))  # length mismatch
    with pytest.raises(ValueError):
        OverlapSpec(1.0, 0.9, (0.1,), 0.0, (0.0,))  # detector eta zero
    with pytest.raises(ValueError):
        OverlapSpec(0.0, 0.0, (), 0.95, ())  # no power at all


def test_overlap_spec_from_misalignment_splits_power_exactly():
    spec = OverlapSpec.from_misalignment(1.0, 0.3, 0.9, (0.2, 0.4, 0.6))
    assert spec.aligned_power == 1.0 - 0.3
    assert spec.stray_powers == (0.3 / 3,) * 3
    assert spec.stray_etas == (0.2, 0.4, 0.6)
    cases = [
        ((1.0, 0.1, 0.9, ()), "stray_etas"),
        ((1.0, 1.5, 0.9, (0.5,)), "misalignment"),
        ((1.0, 0.1, 0.0, (0.0,)), "detector_eta"),
        ((1.0, 0.1, 0.9, (0.95,)), "stray_etas"),
        ((1.0, 0.1, float("nan"), (0.5,)), "detector_eta"),
        ((0.0, 0.0, 0.9, ()), "total_power"),
    ]
    for args, field in cases:
        with pytest.raises(FieldError) as excinfo:
            OverlapSpec.from_misalignment(*args)
        assert excinfo.value.field == field


@pytest.mark.parametrize(
    "args, field",
    [
        ((1.0, 0.9, (0.2,), 0.95, (0.5,)), "stray_powers"),
        ((1.0, 0.9, (math.nan,), 0.95, (0.5,)), "stray_powers"),
        ((1.0, 1.1, (), 0.95, ()), "aligned_power"),
        ((1.0, -0.1, (1.1,), 0.95, (0.5,)), "aligned_power"),
        ((1.0, 0.9, (0.1,), 0.95, (0.95,)), "stray_etas"),
        ((1.0, 0.9, (0.1, 0.0), 0.95, (0.5,)), "stray_etas"),
        ((1.0, 0.9, (0.1,), 0.0, (0.0,)), "detector_eta"),
        ((1.0, 1.0, (), 1.5, ()), "detector_eta"),
        ((0.0, 0.0, (), 0.95, ()), "total_power"),
        (("1", 1.0, (), 0.95, ()), "total_power"),
    ],
)
def test_overlap_spec_names_the_offending_field(args, field):
    with pytest.raises(FieldError) as excinfo:
        OverlapSpec(*args)
    assert excinfo.value.field == field


@pytest.mark.parametrize("total_power", ["1", None, True, math.nan, math.inf,
                                         -1.0, 0.0])
def test_from_misalignment_names_a_bad_total_power(total_power):
    with pytest.raises(FieldError) as excinfo:
        OverlapSpec.from_misalignment(total_power, 0.5, 0.9, (0.5,))
    assert excinfo.value.field == "total_power"


@pytest.mark.parametrize("misalignment", [-0.1, math.nan, True, "0.1"])
def test_from_misalignment_is_a_fraction(misalignment):
    with pytest.raises(FieldError) as excinfo:
        OverlapSpec.from_misalignment(1.0, misalignment, 0.9, (0.5,))
    assert excinfo.value.field == "misalignment"


def test_from_misalignment_scales_with_total_power():
    spec = OverlapSpec.from_misalignment(2, 0.3, 0.9, (0.4, 0.4, 0.4))
    assert spec.total_power == 2.0
    assert spec.aligned_power == pytest.approx(1.4, abs=1e-15)
    assert spec.stray_powers == pytest.approx((0.2, 0.2, 0.2), abs=1e-15)
    perfect = OverlapSpec.from_misalignment(2.0, 0.0, 0.9, ())
    assert perfect.aligned_power == perfect.total_power
    assert perfect.stray_powers == ()


def test_misaligned_noise_single_stray_worked_example():
    spec = OverlapSpec(1.0, 0.9, (0.1,), 0.95, (0.5,))
    report = misaligned_noise(spec, 2.0)
    assert report.variance == pytest.approx(EX1_SINGLE_STRAY, abs=1e-12)
    # Single stray: all unmatched power belongs to that stray, no excess term.
    assert report.components["excess0"] == pytest.approx(0.0, abs=1e-15)
    assert report.components["aligned"] == pytest.approx(0.9 * G2_ETA95, abs=1e-12)


def test_misaligned_noise_two_strays_worked_example():
    spec = OverlapSpec(1.0, 0.9, (0.05, 0.05), 0.95, (0.5, 0.5))
    report = misaligned_noise(spec, 2.0)
    assert report.variance == pytest.approx(EX2_TWO_STRAYS, abs=1e-12)
    # Each stray now sees the other's power as uncorrelated amplified noise.
    assert report.components["excess0"] == pytest.approx(0.1, abs=1e-12)
    assert report.components["excess1"] == pytest.approx(0.1, abs=1e-12)


def test_perfect_overlap_reduces_to_ideal_noise():
    for gain in (1.0, 2.0, 3.5):
        for eta in (1.0, 0.95, 0.8):
            spec = OverlapSpec(2.0, 2.0, (), eta, ())
            assert misaligned_noise(spec, gain).variance == ideal_epr_noise(
                gain, eta
            ).variance


def test_noise_is_monotone_in_aligned_fraction():
    previous = None
    for aligned in np.linspace(0.0, 1.0, 11):
        strays = (1.0 - float(aligned),) if aligned < 1.0 else ()
        etas = (0.5,) if aligned < 1.0 else ()
        spec = OverlapSpec(1.0, float(aligned), strays, 0.95, etas)
        variance = misaligned_noise(spec, 2.0).variance
        if previous is not None:
            assert variance < previous
        previous = variance


def test_misaligned_noise_scale_invariance():
    # Only power fractions matter, not the absolute LO power.
    a = misaligned_noise(OverlapSpec(1.0, 0.9, (0.1,), 0.95, (0.5,)), 2.0)
    b = misaligned_noise(OverlapSpec(5.0, 4.5, (0.5,), 0.95, (0.5,)), 2.0)
    assert a.variance == pytest.approx(b.variance, abs=1e-14)


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
