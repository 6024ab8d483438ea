"""Tests for the spatial mode comb: layout, amplification, pair witnesses."""

import json

import numpy as np
import pytest

from modecomb import (
    AmplifierSpec,
    FieldError,
    GaussianState,
    SpatialComb,
    Witness,
    amplify_comb,
    apply_symplectic,
    build_comb,
    check_physicality,
    pair_witnesses,
    purity,
    two_mode_squeezer,
    vacuum_state,
    witness_variance,
)

import modecomb.cli
from modecomb.cli import main

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
    for m, a, cells, field in (
        (3, amp, 1, "M"), (True, amp, 1, "M"), (2.0, amp, 1, "M"),
        (None, amp, 1, "M"), (4, amp, 0, "cells"), (4, amp, "1", "cells"),
    ):
        with pytest.raises(FieldError) as excinfo:
            make(m, a, cells)
        assert excinfo.value.field == field


@pytest.mark.parametrize("make", [build_comb, SpatialComb])
@pytest.mark.parametrize("amp", [None, 2.0, "x"])
def test_comb_amp_must_be_an_amplifier_spec(make, amp):
    with pytest.raises(FieldError) as excinfo:
        make(4, amp)
    assert excinfo.value.field == "amp"


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
    AmplifierSpec.from_squeezing(1.5),
    AmplifierSpec.from_gain(1.0),
    AmplifierSpec.from_squeezing(0.0),
])
def test_amplify_comb_matches_fresh_squeezers_bit_for_bit(amp):
    comb = build_comb(12, amp)
    start = amplify_comb(vacuum_state(12),
                         build_comb(12, AmplifierSpec.from_squeezing(0.8)))
    expected = start
    for pair in comb.pairs:
        squeezer = two_mode_squeezer(amp.r)
        expected = apply_symplectic(expected, squeezer, pair)
    for _ in range(2):  # the second call reuses the kept squeezer
        state = amplify_comb(start, comb)
        for name in ("cov", "factor"):
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


@pytest.fixture
def vacuum_count(monkeypatch):
    """Count every vacuum state the CLI builds, through GaussianState, while
    the test runs."""
    count = [0]
    build = modecomb.cli.GaussianState

    def counted(n_modes, cov):
        count[0] += 1
        return build(n_modes, cov)

    monkeypatch.setattr(modecomb.cli, "GaussianState", counted)
    return count


@pytest.fixture
def full_checks(monkeypatch):
    """Count every run of the full ``GaussianState`` check."""
    count = [0]
    check = GaussianState.__post_init__

    def counted(self):
        count[0] += 1
        check(self)

    monkeypatch.setattr(GaussianState, "__post_init__", counted)
    return count


def test_comb_simulate_builds_one_witness_per_pair(
    tmp_path, witness_count, vacuum_count, full_checks
):
    # The points differ only in gain, so they share one vacuum and one
    # witness per pair; each point still gets its own row per pair. The
    # vacuum is built with one full check.
    config = tmp_path / "comb.json"
    config.write_text(json.dumps({
        "version": "v1", "name": "comb", "comb": {"M": 6, "gain": 2.0},
        "detection": {"eta_d": 0.9},
        "sweep": {"parameter": "comb.gain", "values": [1.5, 2.0, 3.0]},
    }), encoding="utf-8")
    assert main(["simulate", str(config), "--out-dir", str(tmp_path)]) == 0
    rows = (tmp_path / "comb_witness.csv").read_text().splitlines()[1:]
    assert len(rows) == 9
    assert witness_count[0] == 3
    assert vacuum_count[0] == 1
    assert full_checks[0] == 1


def test_closed_form_sweep_builds_no_vacuum(
    tmp_path, witness_count, vacuum_count
):
    config = tmp_path / "stray.json"
    config.write_text(json.dumps({
        "version": "v1", "name": "stray", "comb": {"M": 6, "gain": 2.0},
        "detection": {"eta_d": 0.9, "stray_etas": [0.3, 0.5]},
        "sweep": {"parameter": "detection.misalignment",
                  "values": [0.1, 0.2, 1.0]},
    }), encoding="utf-8")
    assert main(["simulate", str(config), "--out-dir", str(tmp_path)]) == 0
    rows = (tmp_path / "stray_witness.csv").read_text().splitlines()[1:]
    assert len(rows) == 9
    assert witness_count[0] == 0
    assert vacuum_count[0] == 0


def test_noise_table_builds_one_witness_and_vacuum_for_all_gains(
    tmp_path, witness_count, vacuum_count, full_checks
):
    argv = ["noise-table", "--gains", "1.5,2,3", "--etas", "0.8,0.9,1",
            "--misalignments", "0,0.1", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert witness_count[0] == 1
    assert vacuum_count[0] == 1
    assert full_checks[0] == 1


@pytest.mark.parametrize("gain", [1.2, 9.0, 1e3])
@pytest.mark.parametrize("cells", [1, 2])
@pytest.mark.parametrize("M", [2, 8, 96])
def test_both_pair_witnesses_read_exp_minus_two_r(M, cells, gain):
    comb = build_comb(M, AmplifierSpec.from_gain(gain), cells)
    state = amplify_comb(vacuum_state(comb.n_modes), comb)
    floor = np.exp(-2 * comb.amp.r)
    for wx, wp in pair_witnesses(comb):
        assert witness_variance(state, wx) == pytest.approx(floor, rel=1e-12)
        assert witness_variance(state, wp) == pytest.approx(floor, rel=1e-12)


def test_comb_equality_is_structural():
    a = build_comb(4, AmplifierSpec.from_gain(2.0))
    b = build_comb(4, AmplifierSpec.from_gain(2.0))
    c = build_comb(4, AmplifierSpec.from_gain(3.0))
    assert a == b
    assert a != c
    assert a != build_comb(4, AmplifierSpec.from_gain(2.0), cells=2)
    assert hash(a) == hash(b)
