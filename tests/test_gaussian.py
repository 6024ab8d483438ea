"""Tests for the covariance-matrix core: states, transforms, witnesses."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modecomb import (
    AmplifierSpec,
    DualRailSpec,
    FieldError,
    GaussianState,
    NotAGraphStateError,
    SymplecticTransform,
    Witness,
    amplify_comb,
    apply_symplectic,
    beamsplitter,
    build_comb,
    build_dual_rail,
    check_physicality,
    extract_graph,
    loss_channel,
    measure_witness,
    pair_witnesses,
    purity,
    symplectic_form,
    two_mode_squeezer,
    vacuum_state,
    wire_witnesses,
    witness_variance,
)

from modecomb.gaussian import MAX_MODES, SYMPLECTIC_TOL

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
    assert np.array_equal(state.cov, np.eye(6))
    assert np.array_equal(state.factor, np.eye(6))
    ok, min_eig = check_physicality(state)
    assert ok
    assert min_eig >= -1e-10
    assert purity(state) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_state_symmetrizes_small_asymmetry():
    cov = np.eye(2)
    cov[0, 1] = 1e-14
    state = GaussianState(1, cov)
    assert state.cov[0, 1] == state.cov[1, 0]


def test_gaussian_state_rejects_bad_inputs():
    with pytest.raises(ValueError):
        GaussianState(2, np.eye(3))
    lopsided = np.eye(4)
    lopsided[0, 1] = 1e-3
    with pytest.raises(ValueError):
        GaussianState(2, lopsided)
    # Only the library writes a factor, and a state has no mean: the
    # constructor takes two arguments.
    with pytest.raises(TypeError):
        GaussianState(2, np.eye(4), np.eye(4))
    with pytest.raises(TypeError):
        GaussianState(2, np.zeros(4), np.eye(4))


@pytest.mark.parametrize("n_modes", [True, 1.5, None, 0, -1, MAX_MODES + 1])
@pytest.mark.parametrize("make", [
    vacuum_state,
    lambda n: GaussianState(n, np.eye(2)),
    lambda n: SymplecticTransform(np.eye(2), n),
    lambda n: Witness.from_terms(n, {(0, "x"): 1.0}),
], ids=["vacuum_state", "GaussianState", "SymplecticTransform",
        "Witness.from_terms"])
def test_mode_counts_are_integers_up_to_max_modes(make, n_modes):
    with pytest.raises(FieldError) as excinfo:
        make(n_modes)
    assert excinfo.value.field == "n_modes"


def test_mode_counts_are_stored_as_int():
    assert type(vacuum_state(np.int64(2)).n_modes) is int
    assert type(SymplecticTransform(np.eye(2), np.intp(1)).n_modes) is int


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
def test_gaussian_state_rejects_non_finite_entries(entry, where):
    cov = np.eye(4)
    if where == "diagonal":
        cov[0, 0] = entry
    else:
        cov[1, 2] = cov[2, 1] = entry
    with pytest.raises(ValueError, match="finite"):
        GaussianState(2, cov)


def test_a_caller_cannot_vouch_for_a_factor():
    # A thermal state (purity 1/9) given the identity as its factor was
    # read as pure, and a graph was extracted from it.
    thermal = 3.0 * np.eye(4)
    with pytest.raises(TypeError):
        GaussianState(2, thermal, factor=np.eye(4))
    state = GaussianState(2, thermal)
    assert state.factor is None
    assert purity(state) == pytest.approx(1 / 9, rel=1e-12)
    with pytest.raises(NotAGraphStateError):
        extract_graph(state)
    fields = [f.name for f in dataclasses.fields(GaussianState) if f.init]
    assert fields == ["n_modes", "cov"]


def test_a_callers_symplectic_matrix_gives_a_checked_factor():
    rng = np.random.default_rng(5)
    transform = random_network(rng, 3, 8)
    state = apply_symplectic(vacuum_state(3), transform)
    assert np.array_equal(state.factor, transform.matrix)


def test_symplectic_transform_rejects_non_symplectic():
    bad = np.eye(4)
    bad[0, 0] = 2.0
    with pytest.raises(ValueError, match="symplectic"):
        SymplecticTransform(bad, 2)


def test_symplectic_transform_keeps_its_own_matrix():
    m = np.eye(2)
    t = SymplecticTransform(m, 1)
    m[0, 0] = np.nan
    assert np.array_equal(t.matrix, np.eye(2))


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


@pytest.mark.parametrize("diagonal", [[1e155, 1e155], [1e160, 1e-160]],
                         ids=["determinant 1e310", "determinant 1"])
def test_symplectic_transform_rejects_a_matrix_whose_norm_overflows(
        diagonal):
    # |S|_F^2 overflows to inf, against which any defect would pass.
    with pytest.raises(ValueError, match="overflows"):
        SymplecticTransform(np.diag(diagonal), 1)


def _reference_check(matrix, n_modes):
    """The message of the symplectic check on ``matrix`` computed with a
    formed ``Omega``, as two dense products; None if it would pass."""
    if not np.isfinite(matrix).all():
        return "matrix must be finite"
    omega = symplectic_form(n_modes)
    with np.errstate(over="ignore", invalid="ignore"):
        gap = matrix @ omega @ matrix.T - omega
    defect = math.sqrt(np.vdot(gap, gap))
    scale = max(1.0, float(np.vdot(matrix, matrix)))
    if not math.isfinite(scale):
        return "matrix is too large to check: |S|^2 overflows"
    if not defect <= SYMPLECTIC_TOL * scale:
        return (f"matrix is not symplectic: |S Omega S^T - Omega| = "
                f"{defect:.3e} against |S|^2 = {scale:.3e}")
    return None


def _check_message(matrix, n_modes):
    """The message of ``SymplecticTransform(matrix, n_modes)``; None if it
    passes."""
    try:
        SymplecticTransform(matrix, n_modes)
    except ValueError as exc:
        return str(exc)
    return None


def test_symplectic_check_decides_as_the_product_with_a_formed_omega():
    # Random networks perturbed from 1e-14 to 1e-8 relative: the bound of
    # 1e-10 |S|^2 falls inside the range, so both decisions are seen.
    rng = np.random.default_rng(41)
    decisions = set()
    for _ in range(300):
        n = int(rng.integers(1, 9))
        matrix = random_network(rng, n, 3 * n, r_max=3.0).matrix
        noise = rng.standard_normal(matrix.shape)
        size = 10.0 ** rng.uniform(-14, -8) * np.linalg.norm(matrix)
        matrix = matrix + size * noise / np.linalg.norm(noise)
        expected = _reference_check(matrix, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert _check_message(matrix, n) == expected
        decisions.add(expected is None)
    assert decisions == {True, False}


@pytest.mark.parametrize("matrix", [
    np.diag([1e155, 1e155]),
    np.diag([1e160, 1e-160]),
    np.array([[np.nan, 0.0], [0.0, 1.0]]),
    np.array([[1.0, np.inf], [0.0, 1.0]]),
    np.array([[1e200, 1e200], [-1e200, 1e200]]),
    np.array([[1e150, 1e150], [1e150, 1e150]]),
], ids=["norm 1e310", "determinant 1", "nan", "inf", "entries 1e200",
        "singular"])
def test_symplectic_check_keeps_its_messages_on_extreme_matrices(matrix):
    message = _check_message(matrix, 1)
    assert message is not None
    assert message == _reference_check(matrix, 1)


def test_symplectic_check_keeps_its_messages_on_malformed_input():
    assert _check_message(np.eye(2, dtype=complex), 1) == (
        "matrix must be real, got a complex array")
    assert _check_message(np.eye(4), 1) == (
        "matrix must be 2x2 for 1 modes, got (4, 4)")


def test_applying_a_product_applies_its_right_factor_first():
    tms = two_mode_squeezer(0.7)
    bs = beamsplitter(math.pi / 4)
    combined = SymplecticTransform(bs.matrix @ tms.matrix, 2)
    via_composite = apply_symplectic(vacuum_state(2), combined)
    via_steps = apply_symplectic(apply_symplectic(vacuum_state(2), tms), bs)
    assert np.allclose(via_composite.cov, via_steps.cov, atol=1e-14)


def test_apply_symplectic_on_mode_subset_matches_embedding():
    rng = np.random.default_rng(5)
    state = apply_symplectic(vacuum_state(4), random_network(rng, 4, 10))
    tms = two_mode_squeezer(0.4)

    on_subset = apply_symplectic(state, tms, modes=(1, 3))

    full = SymplecticTransform(embed(4, tms, (1, 3)), 4)
    on_full = apply_symplectic(state, full)
    assert np.allclose(on_subset.cov, on_full.cov, atol=1e-13)


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


@pytest.mark.parametrize(
    "modes, reason",
    [
        (5, "must list 2 distinct mode indices below 3"),
        ((0, 0), "must list 2 distinct mode indices below 3"),
        ((0,), "must list 2 distinct mode indices below 3"),
        ((0, 1, 2), "must list 2 distinct mode indices below 3"),
        ((0, 5), "mode 5 out of range for 3 modes"),
        ((-1, 0), "mode -1 out of range for 3 modes"),
        ((True, 1), "mode index must be an integer, got True"),
        (("0", 1), "mode index must be an integer, got '0'"),
    ],
)
def test_apply_symplectic_names_modes_for_every_bad_mode_list(modes, reason):
    with pytest.raises(FieldError) as excinfo:
        apply_symplectic(vacuum_state(3), two_mode_squeezer(0.5), modes)
    assert excinfo.value.field == "modes"
    assert excinfo.value.reason == reason


@pytest.mark.parametrize("modes", [np.array([0, 2]), (np.int64(0), 2)])
def test_apply_symplectic_takes_numpy_mode_indices(modes):
    state, squeezer = vacuum_state(3), two_mode_squeezer(0.5)
    given = apply_symplectic(state, squeezer, modes)
    expected = apply_symplectic(state, squeezer, (0, 2))
    assert np.array_equal(given.cov, expected.cov)
    assert np.array_equal(given.factor, expected.factor)


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


def test_witness_keeps_its_own_coefficients():
    c = np.array([1.0, 0.0, 0.0, 0.0])
    w = Witness(c)
    c[0] = np.nan
    c[1] = 2.0
    assert np.array_equal(w.coeffs, [1.0, 0.0, 0.0, 0.0])
    assert w.normalization == 1.0
    assert w.support(2) == (0,)


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


def test_state_rejects_an_asymmetry_beyond_the_float_range_without_a_warning():
    # 1e308 - (-1e308) overflows; it reads as an infinite asymmetry.
    with pytest.raises(ValueError, match="covariance is not symmetric"):
        GaussianState(1, [[1.0, 1e308], [-1e308, 1.0]])


def test_witness_rejects_an_overflowing_square_sum_without_a_warning():
    with pytest.raises(ValueError, match="finite square sum"):
        Witness([1e200, 0.0])


@pytest.mark.parametrize("make, field", [
    (lambda: GaussianState(1, np.eye(2) * (1 + 2j)), "covariance"),
    (lambda: SymplecticTransform(np.eye(2, dtype=complex), 1), "matrix"),
    (lambda: Witness([1 + 5j, 0]), "witness coefficients"),
], ids=["GaussianState", "SymplecticTransform", "Witness"])
def test_a_complex_array_is_rejected_not_cast(make, field):
    # Casting to float would drop the imaginary part, with a ComplexWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"{field} must be real"):
            make()


def _assert_same_as_dense(witness):
    """``witness`` equals the witness given its dense coefficients: the same
    coefficients, sparse rows, normalization bits and support."""
    dense = Witness(witness.coeffs)
    n = dense.n_modes
    assert witness.n_modes == n
    assert np.array_equal(witness.coeffs, dense.coeffs)
    assert np.array_equal(witness.rows, dense.rows)
    assert np.array_equal(witness.vals, dense.vals)
    assert witness.normalization == dense.normalization
    assert witness.support(n) == dense.support(n)
    assert all(type(m) is np.intp for m in witness.support(n))
    return dense


def _assert_same_readouts(state, witness, dense):
    factorless = GaussianState(state.n_modes, state.cov)
    for s in (state, factorless):
        assert witness_variance(s, witness) == witness_variance(s, dense)
        for eta in (0.5, 1.0):
            assert (measure_witness(s, witness, eta).variance
                    == measure_witness(s, dense, eta).variance)


@pytest.mark.parametrize("n_pairs", [2, 3, 5, 17, 64])
@pytest.mark.parametrize("convention", ["odd_mode_minus_half_pi", "none"])
def test_wire_witnesses_equal_their_dense_form(n_pairs, convention):
    spec = DualRailSpec(n_pairs, 0.8, convention)
    state = build_dual_rail(spec)
    for _, witness in wire_witnesses(spec):
        _assert_same_readouts(state, witness, _assert_same_as_dense(witness))


@pytest.mark.parametrize("M, cells", [(2, 1), (8, 1), (8, 2), (96, 2)])
def test_comb_witnesses_equal_their_dense_form(M, cells):
    comb = build_comb(M, AmplifierSpec.from_gain(2.5), cells)
    state = amplify_comb(vacuum_state(comb.n_modes), comb)
    for pair in pair_witnesses(comb):
        for witness in pair:
            _assert_same_readouts(state, witness,
                                  _assert_same_as_dense(witness))


@pytest.mark.parametrize("seed", range(5))
def test_witnesses_from_terms_of_random_vectors_equal_their_dense_form(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    coeffs = rng.normal(size=2 * n) * (rng.random(2 * n) < 0.5)
    coeffs[rng.integers(2 * n)] = 1.5  # at least one nonzero
    terms = {(i % n, "xp"[i // n]): float(c) for i, c in enumerate(coeffs)}
    witness = Witness.from_terms(n, terms)
    dense = _assert_same_as_dense(witness)
    assert np.array_equal(witness.coeffs, coeffs)
    state = apply_symplectic(vacuum_state(n), random_network(rng, n, 3 * n))
    _assert_same_readouts(state, witness, dense)


class _Alias(int):
    """A mode index equal to an int, but a dict key of its own."""

    __hash__ = object.__hash__
    __eq__ = object.__eq__


def test_terms_on_one_row_add_up_and_a_zero_row_is_dropped():
    witness = Witness.from_terms(3, {
        (0, "x"): 1.0,
        (_Alias(1), "x"): 0.5, (_Alias(1), "x"): -0.5,  # cancel
        (_Alias(2), "p"): 0.25, (_Alias(2), "p"): 0.5,  # add up
        (1, "p"): 0.0,
    })
    assert witness.rows.tolist() == [0, 5]
    assert witness.vals.tolist() == [1.0, 0.75]
    assert witness.support(3) == (0, 2)
    _assert_same_as_dense(witness)


@pytest.mark.parametrize("value", [True, "1", None])
def test_witness_from_terms_takes_each_coefficient_as_a_real(value):
    with pytest.raises(FieldError) as excinfo:
        Witness.from_terms(2, {(0, "x"): 1.0, (1, "p"): value})
    assert excinfo.value.field == "terms[1, 'p']"


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
    squashed = GaussianState(1, np.zeros((2, 2)))
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
    assert GaussianState(3, state.cov).factor is None


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
        bare = GaussianState(state.n_modes, state.cov)
        assert abs(purity(state) - purity(bare)) <= 1e-12


def test_purity_from_factor_holds_on_strongly_squeezed_wire():
    for r in (5.0, 6.0, 6.9):
        state = build_dual_rail(DualRailSpec(4, r))
        assert abs(purity(state) - 1.0) <= 1e-8
