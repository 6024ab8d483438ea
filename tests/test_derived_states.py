"""Tests for states derived on the rows an element touches.

``apply_symplectic`` and ``loss_channel`` check and symmetrize only the rows
and columns of the modes they change, and ``build_dual_rail`` updates one
working copy. These tests hold them to the full ``GaussianState`` check: the
same arrays bit for bit, the same rejections, and no per-element full pass.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modecomb import (
    AmplifierSpec,
    DualRailSpec,
    GaussianState,
    SymplecticTransform,
    amplify_comb,
    apply_symplectic,
    beamsplitter,
    build_comb,
    build_dual_rail,
    loss_channel,
    phase_shift,
    two_mode_squeezer,
    vacuum_state,
)
from modecomb.cluster import _rotated_modes
from modecomb.gaussian import _derived_state

from conftest import random_network


def _quadrature_index(n_modes, modes):
    return np.array([*modes, *(n_modes + m for m in modes)])


def _random_state(rng, n_modes, kind):
    """A valid state: pure with its factor, lossy, or a symmetrized random
    covariance with a small asymmetry and a nonzero mean."""
    if kind == "pure":
        return apply_symplectic(
            vacuum_state(n_modes), random_network(rng, n_modes, 3 * n_modes)
        )
    if kind == "lossy":
        state = apply_symplectic(
            vacuum_state(n_modes), random_network(rng, n_modes, 3 * n_modes)
        )
        return loss_channel(state, int(rng.integers(n_modes)), rng.uniform())
    dim = 2 * n_modes
    a = rng.normal(size=(dim, dim))
    cov = a @ a.T + np.eye(dim)
    cov[0, -1] += 1e-14 * cov[0, -1]
    return GaussianState(n_modes, rng.normal(size=dim), cov)


def _random_element(rng, n_modes):
    if n_modes == 1 or rng.random() < 0.3:
        return phase_shift(rng.uniform(0, 2 * np.pi))
    if rng.random() < 0.5:
        return two_mode_squeezer(rng.uniform(0, 3), rng.uniform(0, 2 * np.pi))
    return beamsplitter(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))


def _assert_bit_equal(derived, reference):
    assert np.array_equal(derived.mean, reference.mean)
    assert np.array_equal(derived.cov, reference.cov)
    if reference.factor is None:
        assert derived.factor is None
    else:
        assert np.array_equal(derived.factor, reference.factor)


STATES = st.tuples(
    st.sampled_from([1, 2, 7, 32]),
    st.sampled_from(["pure", "lossy", "random"]),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None)
@given(STATES)
def test_apply_symplectic_equals_the_fully_checked_update(case):
    n_modes, kind, seed = case
    rng = np.random.default_rng(seed)
    state = _random_state(rng, n_modes, kind)
    element = _random_element(rng, n_modes)
    modes = tuple(int(m) for m in rng.permutation(n_modes)[:element.n_modes])

    # Reference: the plain row-then-column update, through the full check.
    idx = _quadrature_index(n_modes, modes)
    s = element.matrix
    mean, cov = state.mean.copy(), state.cov.copy()
    mean[idx] = s @ mean[idx]
    cov[idx, :] = s @ cov[idx, :]
    cov[:, idx] = cov[:, idx] @ s.T
    factor = None
    if state.factor is not None:
        factor = state.factor.copy()
        factor[idx, :] = s @ factor[idx, :]
    reference = GaussianState(n_modes, mean, cov, factor)

    _assert_bit_equal(apply_symplectic(state, element, modes), reference)


@settings(max_examples=60, deadline=None)
@given(STATES, st.floats(0.0, 1.0))
def test_loss_channel_equals_the_fully_checked_update(case, eta):
    n_modes, kind, seed = case
    rng = np.random.default_rng(seed)
    state = _random_state(rng, n_modes, kind)
    mode = int(rng.integers(n_modes))

    idx = _quadrature_index(n_modes, (mode,))
    root = math.sqrt(eta)
    mean, cov = state.mean.copy(), state.cov.copy()
    mean[idx] *= root
    cov[idx, :] *= root
    cov[:, idx] *= root
    cov[idx, idx] += 1.0 - eta
    reference = GaussianState(n_modes, mean, cov)

    _assert_bit_equal(loss_channel(state, mode, eta), reference)


def _fancy_loss_reference(state, mode, eta):
    """The loss update of the test above: fancy-indexed, fully checked."""
    n_modes = state.n_modes
    idx = _quadrature_index(n_modes, (mode,))
    root = math.sqrt(eta)
    mean, cov = state.mean.copy(), state.cov.copy()
    mean[idx] *= root
    cov[idx, :] *= root
    cov[:, idx] *= root
    cov[idx, idx] += 1.0 - eta
    return GaussianState(n_modes, mean, cov)


@pytest.mark.parametrize("eta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("last", [False, True], ids=["first", "last"])
@pytest.mark.parametrize("n_modes", [1, 2, 3])
@pytest.mark.parametrize("kind", ["pure", "random"])
def test_loss_channel_on_the_end_modes_equals_the_fancy_indexed_update(
        kind, n_modes, last, eta):
    # The loss addresses rows mode and n + mode as slice(mode, None, n):
    # the first and last modes are where a wrong stride or stop shows.
    state = _random_state(np.random.default_rng(n_modes), n_modes, kind)
    mode = n_modes - 1 if last else 0
    _assert_bit_equal(loss_channel(state, mode, eta),
                      _fancy_loss_reference(state, mode, eta))


def _wire_steps(spec):
    """The wire's elements in build order, as (transform, modes) pairs."""
    steps = []
    if spec.r > 0:
        squeezer = two_mode_squeezer(spec.r)
        steps += [(squeezer, (2 * k, 2 * k + 1)) for k in range(spec.n_pairs)]
    splitter = beamsplitter(math.pi / 4)
    steps += [(splitter, (2 * k + 1, 2 * k + 2))
              for k in range(spec.n_pairs - 1)]
    if spec.phase_convention == "odd_mode_minus_half_pi":
        rotation = phase_shift(-math.pi / 2)
        steps += [(rotation, (m,)) for m in _rotated_modes(spec.n_pairs)]
    return steps


@pytest.mark.parametrize("n_pairs", [2, 3, 32])
@pytest.mark.parametrize("convention", ["odd_mode_minus_half_pi", "none"])
@pytest.mark.parametrize("r", [0.0, 0.37, 1.0, 2.9, 6.9])
def test_build_dual_rail_equals_folding_apply_symplectic(n_pairs, convention,
                                                         r):
    spec = DualRailSpec(n_pairs, r, convention)
    folded = vacuum_state(2 * n_pairs)
    for transform, modes in _wire_steps(spec):
        folded = apply_symplectic(folded, transform, modes)

    state = build_dual_rail(spec)
    _assert_bit_equal(state, folded)


def test_an_overflowing_update_is_rejected():
    blowup = SymplecticTransform(np.diag([1e150, 1e-150]), 1)
    state = apply_symplectic(vacuum_state(2), blowup, (0,))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError,
                           match="covariance and mean must be finite"):
            apply_symplectic(state, blowup, (0,))


@pytest.mark.parametrize("offset", [1e-14, 1e-6])
def test_derived_state_checks_and_symmetrizes_its_rows_as_the_full_check(
        offset):
    state = apply_symplectic(vacuum_state(3), two_mode_squeezer(1.0), (0, 2))
    cov = state.cov.copy()
    cov[0, 4] += offset  # row 0 only; column 0 keeps the old value
    idx = _quadrature_index(3, (0,))
    if offset > 1e-12:
        with pytest.raises(ValueError, match="not symmetric"):
            _derived_state(3, state.mean.copy(), cov, None, idx)
        return
    reference = GaussianState(3, state.mean, cov)
    derived = _derived_state(3, state.mean.copy(), cov.copy(), None, idx)
    _assert_bit_equal(derived, reference)
    assert np.array_equal(derived.cov, derived.cov.T)


_TOUCHED_MODE_0 = pytest.mark.parametrize(
    "idx", [_quadrature_index(3, (0,)), slice(0, None, 3)],
    ids=["index array", "slice"],
)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@_TOUCHED_MODE_0
def test_derived_state_rejects_a_non_finite_column_entry_as_the_full_check(
        value, idx):
    state = apply_symplectic(vacuum_state(3), two_mode_squeezer(1.0), (0, 2))
    cov = state.cov.copy()
    cov[4, 0] = value  # column 0 only; row 0 keeps its finite entry
    with pytest.raises(ValueError) as full:
        GaussianState(3, state.mean, cov)
    with pytest.raises(ValueError) as derived:
        _derived_state(3, state.mean.copy(), cov, None, idx)
    assert str(derived.value) == str(full.value)
    assert str(full.value) == "covariance and mean must be finite"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@_TOUCHED_MODE_0
def test_derived_state_rejects_a_non_finite_mean_on_symmetric_rows(
        value, idx):
    state = apply_symplectic(vacuum_state(3), two_mode_squeezer(1.0), (0, 2))
    cov = state.cov.copy()
    assert np.array_equal(cov[idx].view(np.uint64),
                          cov[:, idx].T.view(np.uint64))
    mean = state.mean.copy()
    mean[3] = value  # the p quadrature of mode 0
    with pytest.raises(ValueError,
                       match="^covariance and mean must be finite$"):
        _derived_state(3, mean, cov, None, idx)


@_TOUCHED_MODE_0
def test_derived_state_averages_signed_zeros_as_the_full_check(idx):
    state = apply_symplectic(vacuum_state(3), two_mode_squeezer(1.0), (1, 2))
    cov = state.cov.copy()
    cov[0, 1] = cov[1, 0] = 0.0
    cov[0, 2], cov[2, 0] = -0.0, 0.0  # equal values, different bits
    reference = GaussianState(3, state.mean, cov)
    derived = _derived_state(3, state.mean.copy(), cov.copy(), None, idx)
    assert reference.cov.tobytes() == derived.cov.tobytes()
    assert not np.signbit(derived.cov[[0, 2], [2, 0]]).any()


@pytest.mark.parametrize("symmetric", [True, False],
                         ids=["symmetric", "one ulp apart"])
@_TOUCHED_MODE_0
def test_entries_beyond_half_the_float_range_average_without_overflow(
        symmetric, idx):
    big = 1.7e308  # 2 * big overflows
    cov = np.eye(6)
    cov[0, 0] = big
    cov[0, 1] = big
    cov[1, 0] = big if symmetric else np.nextafter(big, math.inf)
    expected = cov.copy()
    expected[0, 1] = expected[1, 0] = 0.5 * cov[0, 1] + 0.5 * cov[1, 0]
    mean = np.zeros(6)
    full = GaussianState(3, mean, cov)
    derived = _derived_state(3, mean.copy(), cov.copy(), None, idx)
    assert full.cov.tobytes() == expected.tobytes()
    assert derived.cov.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# cost guard: the O(N^2) full check runs at most once per built state
# ---------------------------------------------------------------------------

@pytest.fixture
def full_checks(monkeypatch):
    """Mode counts of the states given the full ``__post_init__`` check."""
    checked = []
    original = GaussianState.__post_init__

    def counted(self):
        checked.append(self.n_modes)
        original(self)

    monkeypatch.setattr(GaussianState, "__post_init__", counted)
    return checked


def test_amplify_comb_runs_no_per_pair_full_check(full_checks):
    comb = build_comb(400, AmplifierSpec.from_squeezing(0.8))
    state = vacuum_state(comb.n_modes)
    full_checks.clear()
    amplify_comb(state, comb)
    assert len(full_checks) <= 1


def test_build_dual_rail_runs_one_full_check(full_checks):
    build_dual_rail(DualRailSpec(n_pairs=64, r=1.2))
    assert len(full_checks) <= 1
