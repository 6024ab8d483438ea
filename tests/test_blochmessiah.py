"""Tests for the passive-squeeze-passive factorization."""

import math
import warnings

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

from modecomb.blochmessiah import (
    SQUEEZE_CLAMP,
    _complex_blocks,
    _degenerate_groups,
    _real_orthogonal,
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


def test_recompose_of_an_overflowing_squeeze_raises_the_checks_error():
    # e^800 overflows and inf * 0 is NaN: the product is rejected by the
    # public check as not finite, with no numpy warning on the way.
    eye = SymplecticTransform(np.eye(2), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=r"^matrix must be finite$"):
            recompose(Decomposition(eye, [800.0], eye))


def _oracle_unitary_sqrt(x):
    """The square root of one symmetric unitary at a time: the reference
    that each matrix of a stacked ``_unitary_sqrt`` must equal bit for
    bit."""
    angles = np.sort(np.angle(np.linalg.eigvals(x)))
    gaps = np.diff(angles, append=angles[0] + 2 * np.pi)
    widest = np.argmax(gaps)
    alpha = angles[widest] + 0.5 * gaps[widest] - np.pi
    u, _, vh = np.linalg.svd(np.eye(len(x)) + np.exp(-1j * alpha) * x)
    return np.exp(0.5j * alpha) * (u @ vh)


def _oracle_takagi(block):
    """The Takagi factorization of one block, one group at a time."""
    if block.shape == (1, 1):
        value = block[0, 0]
        unitary = np.array([[np.exp(0.5j * np.angle(value))]])
        return unitary, np.array([abs(value)])
    v, svals, wh = np.linalg.svd(block)
    w = wh.conj().T
    root = np.zeros(block.shape, dtype=complex)
    for start, count in _degenerate_groups(svals):
        sub = slice(start, start + count)
        root[sub, sub] = _oracle_unitary_sqrt(v[:, sub].T @ w[:, sub])
    return v @ np.conj(root), svals


def _oracle_decompose(transform):
    """(passive_out, squeeze, passive_in) of ``transform``, an active
    network, with one Takagi call per degenerate group."""
    n = transform.n_modes
    e_block, f_block = _complex_blocks(transform.matrix)
    a_mat, e_svals, bh_mat = np.linalg.svd(e_block)
    b_mat = bh_mat.conj().T
    coupling = a_mat.conj().T @ f_block @ b_mat.conj()
    sinh_vals = np.zeros(n)
    gauge = np.zeros((n, n), dtype=complex)
    for start, count in _degenerate_groups(e_svals):
        sub = slice(start, start + count)
        block = coupling[sub, sub]
        gauge[sub, sub], sinh_vals[sub] = _oracle_takagi(
            0.5 * (block + block.T)
        )
    squeeze = np.arcsinh(sinh_vals)
    squeeze[squeeze < SQUEEZE_CLAMP] = 0.0
    return (_real_orthogonal(a_mat @ gauge), squeeze,
            _real_orthogonal((b_mat @ gauge).conj().T))


def _squeezer_bank(n_modes, rs, rng, mixed):
    """Two-mode squeezers of strengths ``rs`` on modes (0, 1), (2, 3), ...,
    at random pump phases, between random interferometers if ``mixed``."""
    full = np.eye(2 * n_modes)
    for k, r in enumerate(rs):
        squeezer = two_mode_squeezer(r, float(rng.uniform(0, 2 * np.pi)))
        full = embed(n_modes, squeezer, (2 * k, 2 * k + 1)) @ full
    if mixed:
        left = random_passive(rng, n_modes, 3 * n_modes)
        right = random_passive(rng, n_modes, 3 * n_modes)
        full = left.matrix @ full @ right.matrix
    return SymplecticTransform(full, n_modes)


def _degenerate_networks():
    rng = np.random.default_rng(23)
    banks = [
        (7, [0.5, 0.5, 0.9]),  # groups of 4, 2 and 1
        (9, [0.4, 0.4, 0.7, 0.7]),  # two groups of 4 and one of 1
        (12, [0.5, 0.5, 0.5, 0.2, 0.2, 0.9]),  # groups of 6, 4 and 2
        (12, [0.2, 0.35, 0.5, 0.65, 0.8, 0.95]),  # six groups of 2
        (10, [0.4, 0.4, 1e-7]),  # zeros and 1e-7 share a group of 6
        (96, [0.8] * 48),  # one group of 96
    ]
    for n, rs in banks:
        for mixed in (False, True):
            yield _squeezer_bank(n, rs, rng, mixed)


def _random_networks():
    rng = np.random.default_rng(29)
    for _ in range(12):
        n = int(rng.integers(2, 9))
        yield random_network(rng, n, 4 * n, r_max=2.0)


@pytest.mark.parametrize(
    "transform", [*_degenerate_networks(), *_random_networks()]
)
def test_stacked_takagi_equals_the_per_group_loop_bit_for_bit(transform):
    result = decompose(transform)
    passive_out, squeeze, passive_in = _oracle_decompose(transform)
    assert result.squeeze.tobytes() == squeeze.tobytes()
    assert result.passive_out.matrix.tobytes() == passive_out.tobytes()
    assert result.passive_in.matrix.tobytes() == passive_in.tobytes()


def test_the_oracle_networks_hold_groups_of_every_tested_size():
    sizes = set()
    for transform in _degenerate_networks():
        e_block, _ = _complex_blocks(transform.matrix)
        e_svals = np.linalg.svd(e_block, compute_uv=False)
        sizes.update(count for _, count in _degenerate_groups(e_svals))
    assert {1, 2, 4, 96} <= sizes


@pytest.mark.parametrize(
    "transform",
    [*_degenerate_networks(), *_random_networks(), beamsplitter(0.3, 2.0),
     SymplecticTransform(np.eye(6), 3)],
)
def test_passive_factors_pass_the_public_check(transform):
    # decompose builds its factors without the symplectic check;
    # Decomposition checks that they are orthogonal.
    result = decompose(transform)
    for factor in (result.passive_out, result.passive_in):
        checked = SymplecticTransform(factor.matrix, factor.n_modes)
        assert checked.matrix.tobytes() == factor.matrix.tobytes()
