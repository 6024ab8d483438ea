"""Tests for the passive-squeeze-passive factorization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modecomb import (
    Decomposition,
    SymplecticTransform,
    beamsplitter,
    decompose,
    phase_shift,
    recompose,
    two_mode_squeezer,
)

from conftest import embed, random_network, random_passive


def _roundtrip_error(transform):
    return np.linalg.norm(recompose(decompose(transform)).matrix - transform.matrix)


def test_two_mode_squeezer_splits_into_equal_single_mode_squeezers():
    result = decompose(two_mode_squeezer(0.8))
    assert result.squeeze == pytest.approx([0.8, 0.8], abs=1e-12)
    assert _roundtrip_error(two_mode_squeezer(0.8)) < 1e-12


def test_identity_decomposes_to_zero_squeezing():
    identity = SymplecticTransform(np.eye(6), 3)
    result = decompose(identity)
    assert result.squeeze == pytest.approx([0.0, 0.0, 0.0], abs=0.0)
    assert _roundtrip_error(identity) == 0.0


def test_passive_network_short_circuits():
    # A passive input needs no squeezing; the factorization is exact.
    mixed = SymplecticTransform(
        beamsplitter(math.pi / 4).matrix @ phase_shift_pair().matrix, 2
    )
    result = decompose(mixed)
    assert result.squeeze == pytest.approx([0.0, 0.0], abs=0.0)
    assert np.allclose(recompose(result).matrix, mixed.matrix, atol=1e-14)


def phase_shift_pair():
    full = embed(2, phase_shift(0.4), (0,)) @ embed(2, phase_shift(-1.2), (1,))
    return SymplecticTransform(full, 2)


def test_squeeze_spectrum_is_sorted_descending():
    rng = np.random.default_rng(2)
    for _ in range(10):
        result = decompose(random_network(rng, 4, 12, r_max=1.0))
        spectrum = np.asarray(result.squeeze)
        assert np.all(np.diff(spectrum) <= 1e-12)
        assert np.all(spectrum >= 0.0)


def test_random_networks_recompose():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        transform = random_network(rng, n, int(rng.integers(1, 16)))
        worst = max(worst, _roundtrip_error(transform))
    assert worst < 1e-10


def test_degenerate_spectrum_recomposes():
    # Two identical squeezers on disjoint pairs: a fourfold-degenerate
    # spectrum exercising the subspace-gauge branch.
    full = embed(4, two_mode_squeezer(0.6), (0, 1)) @ embed(
        4, two_mode_squeezer(0.6), (2, 3)
    )
    transform = SymplecticTransform(full, 4)
    result = decompose(transform)
    assert result.squeeze == pytest.approx([0.6] * 4, abs=1e-12)
    assert _roundtrip_error(transform) < 1e-11


def test_spectrum_invariant_under_passive_conjugation():
    rng = np.random.default_rng(5)
    base = random_network(rng, 4, 10, r_max=1.0)
    reference = np.asarray(decompose(base).squeeze)
    for _ in range(10):
        left = random_passive(rng, 4)
        right = random_passive(rng, 4)
        conjugated = SymplecticTransform(
            left.matrix @ base.matrix @ right.matrix, 4
        )
        spectrum = np.asarray(decompose(conjugated).squeeze)
        assert np.allclose(spectrum, reference, atol=1e-10)


@settings(deadline=None, max_examples=40)
@given(r=st.floats(min_value=0.0, max_value=3.0))
def test_embedded_squeezer_spectrum(r):
    full = embed(3, two_mode_squeezer(r), (0, 2))
    result = decompose(SymplecticTransform(full, 3))
    assert result.squeeze == pytest.approx([r, r, 0.0], abs=1e-9)


def test_decomposition_validates_factors():
    good = decompose(two_mode_squeezer(0.5))
    with pytest.raises(ValueError):
        # An active transform cannot serve as a passive factor.
        Decomposition(
            passive_out=two_mode_squeezer(0.5),
            squeeze=good.squeeze,
            passive_in=good.passive_in,
        )
    with pytest.raises(ValueError):
        Decomposition(
            passive_out=good.passive_out,
            squeeze=(0.1, 0.5),  # not sorted descending
            passive_in=good.passive_in,
        )
    with pytest.raises(ValueError):
        Decomposition(
            passive_out=good.passive_out,
            squeeze=(0.5, -0.1),
            passive_in=good.passive_in,
        )
    with pytest.raises(ValueError):
        Decomposition(
            passive_out=good.passive_out,
            squeeze=(0.5,),
            passive_in=good.passive_in,
        )


@pytest.mark.parametrize(
    "squeeze",
    [(np.nan, 0.0), (0.5, np.nan), (np.inf, 1.0), (1.0, -np.inf)],
)
def test_decomposition_rejects_non_finite_squeeze(squeeze):
    identity = SymplecticTransform(np.eye(4), 2)
    with pytest.raises(ValueError, match="finite"):
        Decomposition(identity, squeeze, identity)


def test_decomposition_keeps_its_own_squeeze():
    identity = SymplecticTransform(np.eye(4), 2)
    s = np.array([0.5, 0.1])
    d = Decomposition(identity, s, identity)
    s[1] = -np.inf
    assert np.array_equal(d.squeeze, [0.5, 0.1])


def test_decomposition_factors_are_orthogonal_symplectics():
    rng = np.random.default_rng(9)
    result = decompose(random_network(rng, 3, 8))
    for factor in (result.passive_out, result.passive_in):
        m = factor.matrix
        assert np.allclose(m @ m.T, np.eye(6), atol=1e-10)


def test_single_beamsplitter_angle_sweep_recomposes():
    for theta in np.linspace(0.0, np.pi, 7):
        transform = beamsplitter(float(theta), 0.3)
        assert _roundtrip_error(transform) < 1e-12


def _dense_recomposition(result):
    r = result.squeeze
    core = np.diag(np.concatenate([np.exp(r), np.exp(-r)]))
    return result.passive_out.matrix @ core @ result.passive_in.matrix


def test_recompose_equals_the_dense_diagonal_product_bit_for_bit():
    rng = np.random.default_rng(17)
    networks = [
        random_network(rng, int(rng.integers(1, 9)), 12, r_max=1.5)
        for _ in range(20)
    ]
    networks += [random_passive(rng, 3), SymplecticTransform(np.eye(4), 2)]
    # Degenerate spectra: equal squeezers on disjoint pairs, mixed by passive
    # networks or not.
    for n in (2, 4, 6):
        full = np.eye(2 * n)
        for a in range(0, n, 2):
            full = embed(n, two_mode_squeezer(0.7), (a, a + 1)) @ full
        left, right = random_passive(rng, n), random_passive(rng, n)
        networks += [
            SymplecticTransform(full, n),
            SymplecticTransform(left.matrix @ full @ right.matrix, n),
        ]
    for transform in networks:
        result = decompose(transform)
        matrix = recompose(result).matrix
        dense = _dense_recomposition(result)
        assert matrix.tobytes() == dense.tobytes()
        error = np.linalg.norm(matrix - transform.matrix)
        assert error.tobytes() == (
            np.linalg.norm(dense - transform.matrix).tobytes()
        )
