"""Tests for the covariance-matrix core: states, transforms, witnesses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modecomb import (
    AmplifierSpec,
    DualRailSpec,
    FieldError,
    GaussianState,
    SymplecticTransform,
    Witness,
    amplify_comb,
    apply_symplectic,
    balanced_beamsplitter,
    build_comb,
    build_dual_rail,
    check_physicality,
    condition_on_homodyne,
    loss_channel,
    purity,
    symplectic_form,
    two_mode_squeezer,
    vacuum_state,
    witness_variance,
)

from modecomb.gaussian import MAX_MODES

from conftest import embed, random_network, random_passive


def test_symplectic_form_squares_to_minus_identity():
    for n in (1, 2, 5):
        omega = symplectic_form(n)
        assert np.array_equal(omega @ omega, -np.eye(2 * n))
        assert np.array_equal(omega.T, -omega)


@pytest.mark.parametrize("n", [1, 2, 96])
def test_symplectic_form_equals_its_block_definition(n):
    eye, zero = np.eye(n), np.zeros((n, n))
    expected = np.block([[zero, eye], [-eye, zero]])
    assert np.array_equal(symplectic_form(n), expected)


def test_vacuum_state_is_shot_noise_limited():
    state = vacuum_state(3)
    assert state.n_modes == 3
    assert np.array_equal(state.mean, np.zeros(6))
    assert np.array_equal(state.cov, np.eye(6))
    assert np.array_equal(state.factor, np.eye(6))
    ok, min_eig = check_physicality(state)
    assert ok
    assert min_eig >= -1e-10
    assert purity(state) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_state_symmetrizes_small_asymmetry():
    cov = np.eye(2)
    cov[0, 1] = 1e-14
    state = GaussianState(1, np.zeros(2), cov)
    assert state.cov[0, 1] == state.cov[1, 0]


def test_gaussian_state_rejects_bad_inputs():
    with pytest.raises(ValueError):
        GaussianState(2, np.zeros(3), np.eye(4))
    with pytest.raises(ValueError):
        GaussianState(2, np.zeros(4), np.eye(3))
    lopsided = np.eye(4)
    lopsided[0, 1] = 1e-3
    with pytest.raises(ValueError):
        GaussianState(2, np.zeros(4), lopsided)
    with pytest.raises(ValueError, match="factor"):
        GaussianState(2, np.zeros(4), np.eye(4), np.eye(3))


@pytest.mark.parametrize("n_modes", [True, 1.5, None, 0, MAX_MODES + 1])
@pytest.mark.parametrize("make", [
    vacuum_state,
    lambda n: GaussianState(n, np.zeros(2), np.eye(2)),
    lambda n: SymplecticTransform(np.eye(2), n),
], ids=["vacuum_state", "GaussianState", "SymplecticTransform"])
def test_mode_counts_are_integers_up_to_max_modes(make, n_modes):
    with pytest.raises(FieldError) as excinfo:
        make(n_modes)
    assert excinfo.value.field == "n_modes"


def test_mode_counts_are_stored_as_int():
    assert type(vacuum_state(np.int64(2)).n_modes) is int
    assert type(SymplecticTransform(np.eye(2), np.intp(1)).n_modes) is int


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["diagonal", "off-diagonal", "mean"])
def test_gaussian_state_rejects_non_finite_entries(entry, where):
    mean, cov = np.zeros(4), np.eye(4)
    if where == "diagonal":
        cov[0, 0] = entry
    elif where == "off-diagonal":
        cov[1, 2] = cov[2, 1] = entry
    else:
        mean[3] = entry
    with pytest.raises(ValueError, match="finite"):
        GaussianState(2, mean, cov)


def test_symplectic_transform_rejects_non_symplectic():
    bad = np.eye(4)
    bad[0, 0] = 2.0
    with pytest.raises(ValueError, match="symplectic"):
        SymplecticTransform(bad, 2)


def test_squeezer_defect_stays_at_rounding_level_relative_to_its_scale():
    # The rounding of cosh^2 - sinh^2 grows as eps e^{2r}; an absolute bound
    # rejected 53 of these r, the first at 6.375.
    omega = symplectic_form(2)
    for r in [i / 1000 for i in range(6901)]:
        s = two_mode_squeezer(r).matrix
        defect = np.linalg.norm(s @ omega @ s.T - omega)
        assert defect <= 1e-15 * max(1.0, np.linalg.norm(s) ** 2), r


@pytest.mark.parametrize("r", [0.5, 3.0, 6.5])
def test_relative_symplectic_check_still_rejects_a_perturbed_squeezer(r):
    matrix = two_mode_squeezer(r).matrix.copy()
    matrix[0, 1] *= 1.0 + 1e-8
    with pytest.raises(ValueError, match="symplectic"):
        SymplecticTransform(matrix, 2)


def test_inverse_composes_to_identity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = random_network(rng, 3, 8)
        product = s.compose(s.inverse())
        assert np.linalg.norm(product.matrix - np.eye(6)) < 1e-10


def test_compose_applies_right_operand_first():
    tms = two_mode_squeezer(0.7)
    bs = balanced_beamsplitter()
    combined = bs.compose(tms)
    assert np.allclose(combined.matrix, bs.matrix @ tms.matrix)

    # Applying the composite must equal applying the factors in sequence.
    via_composite = apply_symplectic(vacuum_state(2), combined)
    via_steps = apply_symplectic(apply_symplectic(vacuum_state(2), tms), bs)
    assert np.allclose(via_composite.cov, via_steps.cov, atol=1e-14)


def test_composition_law_on_random_pairs():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = random_network(rng, 2, 5)
        b = random_network(rng, 2, 5)
        composed = a.compose(b)
        assert np.linalg.norm(composed.matrix - a.matrix @ b.matrix) < 1e-10
        assert abs(np.linalg.det(composed.matrix) - 1.0) < 1e-8


def test_apply_symplectic_on_mode_subset_matches_embedding():
    rng = np.random.default_rng(5)
    state = apply_symplectic(vacuum_state(4), random_network(rng, 4, 10))
    tms = two_mode_squeezer(0.4)

    on_subset = apply_symplectic(state, tms, modes=(1, 3))

    full = SymplecticTransform(embed(4, tms, (1, 3)), 4)
    on_full = apply_symplectic(state, full)
    assert np.allclose(on_subset.cov, on_full.cov, atol=1e-13)
    assert np.allclose(on_subset.mean, on_full.mean, atol=1e-13)


def test_apply_symplectic_rejects_wrong_mode_count():
    with pytest.raises(ValueError):
        apply_symplectic(vacuum_state(3), two_mode_squeezer(0.2), modes=(0,))
    with pytest.raises(ValueError):
        apply_symplectic(vacuum_state(3), two_mode_squeezer(0.2), modes=(0, 3))


@pytest.mark.parametrize(
    "modes", [(0.7, 1.9), (0, 1.0), (True, 2), (np.bool_(False), 1), ("0", 1)]
)
def test_apply_symplectic_rejects_non_integer_modes(modes):
    with pytest.raises(ValueError, match="must be an integer"):
        apply_symplectic(vacuum_state(3), two_mode_squeezer(0.5), modes)


@pytest.mark.parametrize("mode", [True, np.bool_(True), 1.0, 0.5, "1"])
def test_witness_from_terms_rejects_non_integer_modes(mode):
    with pytest.raises(ValueError, match="must be an integer"):
        Witness.from_terms(2, {(mode, "x"): 1.0})


def test_witness_from_terms_places_coefficients():
    w = Witness.from_terms(3, {(0, "x"): 1.0, (2, "x"): -1.0})
    assert np.array_equal(w.coeffs, [1.0, 0.0, -1.0, 0.0, 0.0, 0.0])
    assert w.normalization == 2.0
    assert w.support(3) == (0, 2)

    wp = Witness.from_terms(2, {(0, "p"): 1.0, (np.int64(1), "p"): 1.0})
    assert np.array_equal(wp.coeffs, [0.0, 0.0, 1.0, 1.0])


def test_witness_support_is_found_once_for_its_own_mode_count():
    w = Witness.from_terms(3, {(2, "p"): 1.0})
    assert w.support(3) == (2,)
    assert w.support(3) is w.support(3)
    assert type(w.support(3)[0]) is np.intp
    assert "_support" not in repr(w)
    for wrong in (1, 2, 4):
        with pytest.raises(ValueError, match=f"3 modes, not {wrong}"):
            w.support(wrong)


def test_witness_rejects_degenerate_or_out_of_range_terms():
    with pytest.raises(ValueError):
        Witness.from_terms(2, {})
    with pytest.raises(ValueError):
        Witness.from_terms(2, {(2, "x"): 1.0})
    with pytest.raises(ValueError):
        Witness.from_terms(2, {(0, "y"): 1.0})
    with pytest.raises(ValueError):
        Witness(np.zeros(4))


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_witness_rejects_non_finite_coefficients(entry):
    with pytest.raises(ValueError, match="finite"):
        Witness([entry, 0.0])
    with pytest.raises(ValueError, match="finite"):
        Witness([1.0, 0.0, entry, 0.0])


@settings(deadline=None, max_examples=50)
@given(
    coeffs=st.lists(
        st.floats(min_value=-5, max_value=5).filter(lambda c: abs(c) > 1e-3),
        min_size=1,
        max_size=6,
    )
)
def test_normalized_witness_variance_is_one_on_vacuum(coeffs):
    # Any quadrature combination on vacuum sits exactly at the shot-noise
    # bound once normalized by the sum of squared coefficients.
    n = len(coeffs)
    w = Witness.from_terms(n, {(i, "x"): c for i, c in enumerate(coeffs)})
    assert witness_variance(vacuum_state(n), w) == pytest.approx(1.0, abs=1e-12)


def test_witness_variance_on_epr_pair():
    state = apply_symplectic(vacuum_state(2), two_mode_squeezer(1.0))
    w_minus = Witness.from_terms(2, {(0, "x"): 1.0, (1, "x"): -1.0})
    w_plus = Witness.from_terms(2, {(0, "p"): 1.0, (1, "p"): 1.0})
    w_anti = Witness.from_terms(2, {(0, "x"): 1.0, (1, "x"): 1.0})
    assert witness_variance(state, w_minus) == pytest.approx(np.exp(-2.0), rel=1e-12)
    assert witness_variance(state, w_plus) == pytest.approx(np.exp(-2.0), rel=1e-12)
    assert witness_variance(state, w_anti) == pytest.approx(np.exp(2.0), rel=1e-12)


def test_random_symplectic_evolution_preserves_physicality_and_purity():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        state = apply_symplectic(vacuum_state(n), random_network(rng, n, 12))
        ok, min_eig = check_physicality(state)
        assert ok, f"unphysical: min eig {min_eig}"
        assert purity(state) == pytest.approx(1.0, abs=1e-8)


def test_purity_rejects_degenerate_covariance():
    squashed = GaussianState(1, np.zeros(2), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        purity(squashed)


def _factor_defect(state):
    """Relative Frobenius distance between ``cov`` and ``S S^T``."""
    s = state.factor
    return np.linalg.norm(state.cov - s @ s.T) / np.linalg.norm(state.cov)


def _random_subset_evolution(rng, n_modes, n_steps):
    """Apply random two-mode networks to random mode pairs of the vacuum."""
    state = vacuum_state(n_modes)
    for _ in range(n_steps):
        modes = rng.choice(n_modes, size=2, replace=False)
        state = apply_symplectic(
            state, random_network(rng, 2, 6, r_max=1.0), modes
        )
    return state


def test_factor_reproduces_covariance():
    wire = build_dual_rail(DualRailSpec(4, 5.0))
    comb = build_comb(200, AmplifierSpec.from_squeezing(1.0))
    states = [wire, amplify_comb(vacuum_state(comb.n_modes), comb)]
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        states.append(_random_subset_evolution(rng, n, 5))
        states.append(
            apply_symplectic(vacuum_state(n), random_network(rng, n, 12))
        )
    for state in states:
        assert _factor_defect(state) <= 1e-13


def test_non_unitary_steps_and_direct_construction_drop_the_factor():
    state = apply_symplectic(vacuum_state(3), two_mode_squeezer(0.8), (0, 2))
    assert state.factor is not None
    assert loss_channel(state, 1, 1.0).factor is None
    assert loss_channel(state, 0, 0.9).factor is None
    assert condition_on_homodyne(state, 2, "x", 0.3).factor is None
    assert GaussianState(3, state.mean, state.cov).factor is None


def test_purity_from_factor_matches_covariance_at_moderate_squeezing():
    states = [
        build_dual_rail(DualRailSpec(n_pairs, r))
        for n_pairs in (2, 4, 8)
        for r in (0.0, 0.3, 0.7, 1.0)
    ]
    # A squeezer of strength r mixed by a passive network keeps r <= 1.
    rng = np.random.default_rng(37)
    for r in (0.5, 1.0):
        squeezed = apply_symplectic(vacuum_state(4), two_mode_squeezer(r))
        states += [
            apply_symplectic(squeezed, random_passive(rng, 4))
            for _ in range(5)
        ]
    for state in states:
        bare = GaussianState(state.n_modes, state.mean, state.cov)
        assert abs(purity(state) - purity(bare)) <= 1e-12


def test_purity_from_factor_holds_on_strongly_squeezed_wire():
    for r in (5.0, 6.0, 6.9):
        state = build_dual_rail(DualRailSpec(4, r))
        assert abs(purity(state) - 1.0) <= 1e-8
