"""Tests for the spatial mode comb: layout, amplification, LO bookkeeping."""

import json
import math

import numpy as np
import pytest

from modecomb import (
    AmplifierSpec,
    FieldError,
    OverlapSpec,
    SpatialComb,
    Witness,
    amplify_comb,
    apply_symplectic,
    build_comb,
    check_physicality,
    lo_overlap,
    overlap_spec_from_alignment,
    pair_witnesses,
    purity,
    synthesize_lo,
    two_mode_squeezer,
    vacuum_state,
    witness_variance,
)

from modecomb.cli import main
from modecomb.detection import DEFAULT_DETECTOR_ETA

EXP_MINUS_TWO = 0.1353352832366127


@pytest.fixture
def comb8():
    return build_comb(8, AmplifierSpec.from_squeezing(1.0))


def test_build_comb_layout_single_cell(comb8):
    assert comb8.n_modes == 8
    assert comb8.n_pairs == 4
    # Probe m, in the first half of the ring, pairs with conjugate m + 4.
    assert comb8.pairs == ((0, 4), (1, 5), (2, 6), (3, 7))


def test_build_comb_layout_multi_cell():
    comb = build_comb(4, AmplifierSpec.from_gain(2.0), cells=3)
    assert comb.n_modes == 12
    assert comb.n_pairs == 6
    # Cell-major, ring order inside each cell.
    assert comb.pairs == ((0, 2), (1, 3), (4, 6), (5, 7), (8, 10), (9, 11))


def test_pairs_cover_every_mode_once(comb8):
    covered = [m for pair in comb8.pairs for m in pair]
    assert sorted(covered) == list(range(comb8.n_modes))
    assert all(type(m) is int for m in covered)


def test_build_comb_rejects_bad_shapes():
    amp = AmplifierSpec.from_gain(2.0)
    with pytest.raises(ValueError):
        build_comb(3, amp)
    with pytest.raises(ValueError):
        build_comb(0, amp)
    with pytest.raises(ValueError):
        build_comb(4, amp, cells=0)


@pytest.mark.parametrize("make", [build_comb, SpatialComb])
def test_build_comb_names_the_offending_field(make):
    amp = AmplifierSpec.from_gain(2.0)
    for m, cells, field in (
        (3, 1, "M"), (True, 1, "M"), (2.0, 1, "M"), (None, 1, "M"),
        (4, 0, "cells"), (4, "1", "cells"),
    ):
        with pytest.raises(FieldError) as excinfo:
            make(m, amp, cells)
        assert excinfo.value.field == field


def test_build_comb_is_the_spatial_comb_of_its_arguments():
    amp = AmplifierSpec.from_gain(2.0)
    comb = build_comb(np.int64(4), amp, np.intp(2))
    assert comb == SpatialComb(4, amp, 2)
    assert (comb.M, comb.amp, comb.cells) == (4, amp, 2)
    assert type(comb.M) is int and type(comb.cells) is int


def test_amplified_pairs_reach_the_twin_beam_floor(comb8):
    state = amplify_comb(vacuum_state(8), comb8)
    for wx, wp in pair_witnesses(comb8):
        assert witness_variance(state, wx) == pytest.approx(EXP_MINUS_TWO, abs=1e-12)
        assert witness_variance(state, wp) == pytest.approx(EXP_MINUS_TWO, abs=1e-12)
    ok, _ = check_physicality(state)
    assert ok
    assert purity(state) == pytest.approx(1.0, abs=1e-10)


def test_distinct_pairs_stay_uncorrelated(comb8):
    state = amplify_comb(vacuum_state(8), comb8)
    cov = state.cov
    for a, b in comb8.pairs:
        others = [m for m in range(8) if m not in (a, b)]
        for m in others:
            for i in (a, b, a + 8, b + 8):
                assert cov[i, m] == 0.0
                assert cov[i, m + 8] == 0.0


def test_zero_gain_amplifier_leaves_vacuum_untouched():
    comb = build_comb(4, AmplifierSpec.from_gain(1.0))
    state = amplify_comb(vacuum_state(4), comb)
    assert np.array_equal(state.cov, np.eye(8))


@pytest.mark.parametrize("amp", [
    AmplifierSpec.from_squeezing(0.8),
    AmplifierSpec.from_squeezing(1.5, 0.4),
    AmplifierSpec.from_gain(1.0),
    AmplifierSpec.from_squeezing(0.0, 1.0),
])
def test_amplify_comb_matches_fresh_squeezers_bit_for_bit(amp):
    comb = build_comb(12, amp)
    start = amplify_comb(vacuum_state(12),
                         build_comb(12, AmplifierSpec.from_squeezing(0.8)))
    expected = start
    for pair in comb.pairs:
        squeezer = two_mode_squeezer(amp.r, amp.pump_phase)
        expected = apply_symplectic(expected, squeezer, pair)
    for _ in range(2):  # the second call reuses the kept squeezer
        state = amplify_comb(start, comb)
        for name in ("mean", "cov", "factor"):
            assert getattr(state, name).tobytes() == (
                getattr(expected, name).tobytes()
            )


def test_amplify_comb_rejects_mode_count_mismatch(comb8):
    with pytest.raises(ValueError):
        amplify_comb(vacuum_state(4), comb8)


def test_pair_witness_coefficients(comb8):
    witnesses = pair_witnesses(comb8)
    assert len(witnesses) == 4
    wx, wp = witnesses[0]
    # x_probe - x_conjugate and p_probe + p_conjugate on modes (0, 4)
    assert wx.coeffs[0] == 1.0 and wx.coeffs[4] == -1.0
    assert np.count_nonzero(wx.coeffs) == 2
    assert wp.coeffs[8 + 0] == 1.0 and wp.coeffs[8 + 4] == 1.0
    assert np.count_nonzero(wp.coeffs) == 2


@pytest.fixture
def witness_count(monkeypatch):
    """Count every Witness constructed while the test runs."""
    count = [0]
    check = Witness.__post_init__

    def counted(self):
        count[0] += 1
        check(self)

    monkeypatch.setattr(Witness, "__post_init__", counted)
    return count


def test_comb_simulate_builds_one_witness_per_row(tmp_path, witness_count):
    config = tmp_path / "comb.json"
    config.write_text(json.dumps({
        "version": "v1", "name": "comb", "comb": {"M": 6, "gain": 2.0},
        "detection": {"eta_d": 0.9},
        "sweep": {"parameter": "comb.gain", "values": [1.5, 2.0, 3.0]},
    }), encoding="utf-8")
    assert main(["simulate", str(config), "--out-dir", str(tmp_path)]) == 0
    rows = (tmp_path / "comb_witness.csv").read_text().splitlines()[1:]
    assert len(rows) == 9
    assert witness_count[0] == 9


def test_noise_table_builds_one_witness_per_gain(tmp_path, witness_count):
    argv = ["noise-table", "--gains", "1.5,2,3", "--etas", "0.8,0.9,1",
            "--misalignments", "0,0.1", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert witness_count[0] == 3


def test_lo_synthesis_normalizes_and_overlaps(comb8):
    weights = np.zeros(8)
    weights[2] = 3.0  # arbitrary scale; synthesis normalizes
    lo_a = synthesize_lo(comb8, weights, power=2.0)
    assert lo_a.power == 2.0
    assert np.linalg.norm(lo_a.coeffs) == pytest.approx(1.0, abs=1e-15)
    assert lo_a.support == (2,)

    lo_b = synthesize_lo(comb8, np.eye(8)[3])
    assert lo_overlap(lo_a, lo_a) == pytest.approx(1.0, abs=1e-15)
    assert lo_overlap(lo_a, lo_b) == 0.0

    uniform = synthesize_lo(comb8, np.ones(8))
    assert abs(lo_overlap(lo_a, uniform)) == pytest.approx(
        1.0 / np.sqrt(8.0), abs=1e-12
    )


def test_lo_overlap_requires_matching_combs(comb8):
    other = build_comb(4, AmplifierSpec.from_gain(2.0))
    lo_a = synthesize_lo(comb8, np.eye(8)[0])
    lo_b = synthesize_lo(other, np.eye(4)[0])
    with pytest.raises(ValueError):
        lo_overlap(lo_a, lo_b)


def test_synthesize_lo_rejects_degenerate_input(comb8):
    with pytest.raises(ValueError):
        synthesize_lo(comb8, np.zeros(8))
    with pytest.raises(ValueError):
        synthesize_lo(comb8, np.ones(4))
    with pytest.raises(ValueError):
        synthesize_lo(comb8, np.ones(8), power=0.0)


@pytest.mark.parametrize(
    "entry, phase",
    [
        (1e200, 1.0),
        (1e-200, 1.0),
        (5e-324, 1.0),
        (complex(1.7e308, -1.7e308), complex(1.0, -1.0) / math.sqrt(2)),
    ],
)
def test_local_oscillator_normalizes_extreme_coefficients(comb8, entry, phase):
    lo = synthesize_lo(comb8, np.full(8, entry))
    assert np.linalg.norm(lo.coeffs) == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(lo.coeffs, phase / math.sqrt(8), rtol=0, atol=1e-15)
    assert lo.support == tuple(range(8))


def test_local_oscillator_leaves_the_callers_coefficients_alone(comb8):
    coeffs = np.arange(1.0, 9.0).astype(complex)
    synthesize_lo(comb8, coeffs)
    assert np.array_equal(coeffs, np.arange(1.0, 9.0))


@pytest.mark.parametrize("power", [math.nan, math.inf, -math.inf, True, 0.0,
                                   -1.0, "1"])
def test_local_oscillator_power_is_a_finite_positive_number(comb8, power):
    with pytest.raises(FieldError) as info:
        synthesize_lo(comb8, np.eye(8)[0], power)
    assert info.value.field == "power"


@pytest.mark.parametrize("entry", [math.nan, math.inf, complex(1.0, math.nan),
                                   complex(-math.inf, 0.0)])
def test_local_oscillator_rejects_non_finite_coefficients(comb8, entry):
    coeffs = np.ones(8, dtype=complex)
    coeffs[5] = entry
    with pytest.raises(FieldError) as info:
        synthesize_lo(comb8, coeffs)
    assert info.value.field == "coeffs"


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


def test_overlap_spec_from_alignment_splits_power_equally(comb8):
    lo = synthesize_lo(comb8, np.eye(8)[1], power=2.0)
    spec = overlap_spec_from_alignment(
        lo, 1, 0.3, stray_etas=(0.4, 0.4, 0.4), detector_eta=0.9
    )
    assert spec.total_power == 2.0
    assert spec.aligned_power == pytest.approx(1.4, abs=1e-15)
    assert spec.stray_powers == pytest.approx((0.2, 0.2, 0.2), abs=1e-15)
    assert spec.detector_eta == 0.9

    perfect = overlap_spec_from_alignment(lo, 1, 0.0, stray_etas=())
    assert perfect.aligned_power == perfect.total_power
    assert perfect.stray_powers == ()
    assert perfect.detector_eta == DEFAULT_DETECTOR_ETA


def test_overlap_spec_from_alignment_validation(comb8):
    lo = synthesize_lo(comb8, np.eye(8)[1])
    with pytest.raises(ValueError):
        overlap_spec_from_alignment(lo, 1, -0.1, ())
    with pytest.raises(ValueError):
        overlap_spec_from_alignment(lo, 1, 0.1, ())  # no stray declared
    with pytest.raises(ValueError):
        overlap_spec_from_alignment(lo, 0, 0.1, (0.5,))  # no LO weight there
    with pytest.raises(ValueError):
        overlap_spec_from_alignment(lo, 99, 0.1, (0.5,))
    for target in (True, 1.0, 1.5):
        with pytest.raises(ValueError, match="must be an integer"):
            overlap_spec_from_alignment(lo, target, 0.0, ())


def test_comb_equality_is_structural():
    a = build_comb(4, AmplifierSpec.from_gain(2.0))
    b = build_comb(4, AmplifierSpec.from_gain(2.0))
    c = build_comb(4, AmplifierSpec.from_gain(3.0))
    assert a == b
    assert a != c
    assert a != build_comb(4, AmplifierSpec.from_gain(2.0), cells=2)
    assert hash(a) == hash(b)
