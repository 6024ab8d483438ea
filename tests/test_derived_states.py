"""Tests for states derived on the rows an element touches.

``apply_symplectic`` and ``loss_channel`` change only the rows and columns
of the modes they touch, writing the columns as the rows transposed, and
``build_dual_rail`` updates one working copy. These tests hold them to the
full ``GaussianState`` check: the same arrays bit for bit, the same
rejections, and no per-element full pass.
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
    check_physicality,
    extract_graph,
    ideal_wire_graph,
    loss_channel,
    measure_witness,
    nullifier_residual,
    pair_witnesses,
    phase_shift,
    purity,
    two_mode_squeezer,
    vacuum_state,
    witness_variance,
)
from modecomb.cluster import _rotated_modes
from modecomb.elements import _squeezed_vacuum
from modecomb.gaussian import _apply_cov, _step_rows

from conftest import random_network


def _quadrature_index(n_modes, modes):
    return np.array([*modes, *(n_modes + m for m in modes)])


def _random_state(rng, n_modes, kind):
    """A valid state: pure with its factor, lossy, or a symmetrized random
    covariance with a small asymmetry."""
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
    return GaussianState(n_modes, cov)


def _random_element(rng, n_modes):
    if n_modes == 1 or rng.random() < 0.3:
        return phase_shift(rng.uniform(0, 2 * np.pi))
    if rng.random() < 0.5:
        return two_mode_squeezer(rng.uniform(0, 3), rng.uniform(0, 2 * np.pi))
    return beamsplitter(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))


def _assert_bit_equal(derived, reference, factor=None):
    """``derived`` has ``reference``'s covariance and the factor array
    ``factor`` (None: no factor), bit for bit."""
    assert np.array_equal(derived.cov, reference.cov)
    if factor is None:
        assert derived.factor is None
    else:
        assert np.array_equal(derived.factor, factor)


def _fancy_apply_reference(state, element, modes):
    """The plain update, fancy-indexed: the state of the reference
    covariance through the full check, and the factor array (None without
    one). A constructed state has no factor, so the array is returned next
    to it.

    A state with a factor is held by it: only the factor's rows update, and
    the covariance is the factor times its transpose, which is exactly
    symmetric and so passes the full check with its own bits. A state
    without one has its covariance's rows, then columns, updated."""
    n_modes = state.n_modes
    idx = _quadrature_index(n_modes, modes)
    s = element.matrix
    if state.factor is not None:
        factor = state.factor.copy()
        factor[idx, :] = s @ factor[idx, :]
        return GaussianState(n_modes, factor @ factor.T), factor
    cov = state.cov.copy()
    cov[idx, :] = s @ cov[idx, :]
    cov[:, idx] = cov[:, idx] @ s.T
    return GaussianState(n_modes, cov), None


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

    _assert_bit_equal(apply_symplectic(state, element, modes),
                      *_fancy_apply_reference(state, element, modes))


@settings(max_examples=60, deadline=None)
@given(STATES, st.floats(0.0, 1.0))
def test_loss_channel_equals_the_fully_checked_update(case, eta):
    n_modes, kind, seed = case
    rng = np.random.default_rng(seed)
    state = _random_state(rng, n_modes, kind)
    mode = int(rng.integers(n_modes))

    idx = _quadrature_index(n_modes, (mode,))
    root = math.sqrt(eta)
    cov = state.cov.copy()
    cov[idx, :] *= root
    cov[:, idx] *= root
    cov[idx, idx] += 1.0 - eta
    reference = GaussianState(n_modes, cov)

    _assert_bit_equal(loss_channel(state, mode, eta), reference)


def _fancy_loss_reference(state, mode, eta):
    """The loss update of the test above: fancy-indexed, fully checked."""
    n_modes = state.n_modes
    idx = _quadrature_index(n_modes, (mode,))
    root = math.sqrt(eta)
    cov = state.cov.copy()
    cov[idx, :] *= root
    cov[:, idx] *= root
    cov[idx, idx] += 1.0 - eta
    return GaussianState(n_modes, cov)


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


# (n_modes, modes, rows form a slice): the layouts of the comb, the wire and
# the noise table, where rows m.., n + m.. are or are not evenly spaced.
LAYOUTS = {
    "comb pair, 1 cell": (8, (1, 5), True),
    "comb pair, 2 cells": (16, (9, 13), False),
    "adjacent pair": (5, (2, 3), False),
    "first mode": (3, (0,), True),
    "last mode": (3, (2,), True),
    "only mode": (1, (0,), True),
    "two-mode state": (2, (0, 1), True),
    "decreasing pair": (8, (5, 1), False),
    "decreasing two-mode state": (2, (1, 0), False),
    "uneven pair": (5, (0, 3), False),
}


@pytest.mark.parametrize("kind", ["pure", "lossy", "random"])
@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_apply_symplectic_on_each_row_layout_equals_the_fancy_indexed_update(
        layout, kind):
    # Evenly spaced rows are written and checked through slice views, the
    # rest through index arrays; the hypothesis test above rarely draws the
    # evenly spaced layouts, so each is pinned here.
    n_modes, modes, _ = LAYOUTS[layout]
    rng = np.random.default_rng(len(layout))
    state = _random_state(rng, n_modes, kind)
    if len(modes) == 1:
        elements = [phase_shift(0.7)]
    else:
        elements = [two_mode_squeezer(1.3, 0.4), beamsplitter(0.6, 2.1)]
    for element in elements:
        _assert_bit_equal(apply_symplectic(state, element, modes),
                          *_fancy_apply_reference(state, element, modes))


@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_step_rows_are_a_slice_exactly_when_evenly_spaced(layout):
    n_modes, modes, even = LAYOUTS[layout]
    rows = _step_rows(n_modes, modes)
    assert isinstance(rows, slice) == even
    assert np.array_equal(np.arange(2 * n_modes)[rows],
                          _quadrature_index(n_modes, modes))


def _wire_source(spec):
    """The wire's sources: its squeezed pairs held by their splitter-times-
    squeeze factor, or the vacuum at ``r = 0``."""
    n_modes = 2 * spec.n_pairs
    if spec.r == 0:
        return vacuum_state(n_modes)
    pairs = [(2 * k, 2 * k + 1) for k in range(spec.n_pairs)]
    return _squeezed_vacuum(n_modes, spec.r, pairs)


def _wire_steps(spec):
    """The wire's passive elements in build order, as (transform, modes)
    pairs: its links, then the rotations of its phase convention."""
    splitter = beamsplitter(math.pi / 4)
    steps = [(splitter, (2 * k + 1, 2 * k + 2))
             for k in range(spec.n_pairs - 1)]
    if spec.phase_convention == "odd_mode_minus_half_pi":
        rotation = phase_shift(-math.pi / 2)
        steps += [(rotation, (m,)) for m in _rotated_modes(spec)]
    return steps


@pytest.mark.parametrize("n_pairs", [2, 3, 32])
@pytest.mark.parametrize("convention", ["odd_mode_minus_half_pi", "none"])
@pytest.mark.parametrize("r", [0.0, 0.37, 1.0, 2.9, 6.9])
def test_build_dual_rail_equals_folding_apply_symplectic(n_pairs, convention,
                                                         r):
    spec = DualRailSpec(n_pairs, r, convention)
    folded = _wire_source(spec)
    for transform, modes in _wire_steps(spec):
        folded = apply_symplectic(folded, transform, modes)

    state = build_dual_rail(spec)
    _assert_bit_equal(state, folded, folded.factor)


@pytest.mark.parametrize("build", [
    lambda: vacuum_state(2),
    lambda: GaussianState(2, np.eye(4)),
], ids=["factor", "covariance"])
def test_an_overflowing_update_is_rejected(build):
    blowup = SymplecticTransform(np.diag([1e150, 1e-150]), 1)
    state = apply_symplectic(build(), blowup, (0,))
    with pytest.raises(ValueError, match="covariance must be finite"):
        apply_symplectic(state, blowup, (0,))


@pytest.mark.parametrize("offset", [1e-14, 1e-6])
def test_an_asymmetry_is_averaged_within_the_bound_and_rejected_beyond_it(
        offset):
    state = apply_symplectic(vacuum_state(3), two_mode_squeezer(1.0), (0, 2))
    cov = state.cov.copy()
    cov[0, 4] += offset  # row 0 only; column 0 keeps the old value
    if offset > 1e-12:
        with pytest.raises(ValueError, match="not symmetric"):
            GaussianState(3, cov)
        return
    checked = GaussianState(3, cov)
    assert np.array_equal(checked.cov, 0.5 * (cov + cov.T))
    assert np.array_equal(checked.cov, checked.cov.T)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_entry_in_a_column_only_is_rejected(value):
    state = apply_symplectic(vacuum_state(3), two_mode_squeezer(1.0), (0, 2))
    cov = state.cov.copy()
    cov[4, 0] = value  # column 0 only; row 0 keeps its finite entry
    with pytest.raises(ValueError) as full:
        GaussianState(3, cov)
    assert str(full.value) == "covariance must be finite"


@pytest.mark.parametrize("symmetric", [True, False],
                         ids=["symmetric", "one ulp apart"])
def test_entries_beyond_half_the_float_range_average_without_overflow(
        symmetric):
    big = 1.7e308  # 2 * big overflows
    cov = np.eye(6)
    cov[0, 0] = big
    cov[0, 1] = big
    cov[1, 0] = big if symmetric else np.nextafter(big, math.inf)
    expected = cov.copy()
    expected[0, 1] = expected[1, 0] = 0.5 * cov[0, 1] + 0.5 * cov[1, 0]
    full = GaussianState(3, cov)
    assert full.cov.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# a covariance step, on either row layout of the same mode
# ---------------------------------------------------------------------------

_TOUCHED_MODE_0 = pytest.mark.parametrize(
    "idx", [_quadrature_index(3, (0,)), slice(0, None, 3)],
    ids=["index array", "slice"],
)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@_TOUCHED_MODE_0
def test_a_covariance_step_rejects_a_non_finite_new_row_unwritten(value,
                                                                  idx):
    state = apply_symplectic(vacuum_state(3), two_mode_squeezer(1.0), (0, 2))
    cov = state.cov.copy()
    s = np.array([[value, 0.0], [0.0, 1.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="covariance must be finite"):
            _apply_cov(cov, s, idx)
    assert cov.tobytes() == state.cov.tobytes()


@_TOUCHED_MODE_0
def test_a_covariance_step_writes_its_columns_as_its_rows_bit_for_bit(idx):
    state = apply_symplectic(vacuum_state(3), two_mode_squeezer(1.0), (1, 2))
    cov = state.cov.copy()
    cov[0, 1], cov[1, 0] = -0.0, 0.0  # equal values, different bits
    cov[0, 2], cov[2, 0] = -0.0, 0.0
    element = phase_shift(0.3)
    reference, _ = _fancy_apply_reference(GaussianState(3, cov), element,
                                          (0,))
    _apply_cov(cov, element.matrix, idx)
    assert cov.tobytes() == cov.T.copy().tobytes()
    assert np.array_equal(cov, reference.cov)


@pytest.mark.parametrize("whole_block", [False, True],
                         ids=["diagonal", "whole block"])
@_TOUCHED_MODE_0
def test_a_covariance_step_averages_its_block_without_overflow(whole_block,
                                                               idx):
    big = 1.7e308  # 2 * big overflows
    cov = np.eye(6)
    cov[0, 0] = big
    if whole_block:
        cov[3, 3] = cov[0, 3] = cov[3, 0] = big
    expected = cov.copy()
    _apply_cov(cov, np.eye(2), idx)
    assert cov.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# the full check stores a new array, never the caller's covariance
# ---------------------------------------------------------------------------

def _read_only(cov):
    cov = cov.copy()
    cov.flags.writeable = False
    return cov


def _fortran_asymmetric(cov):
    cov = np.asfortranarray(cov)
    cov[2, 0] = np.nextafter(cov[0, 2], 1.0)
    return cov


@pytest.mark.parametrize("given", [np.copy, _read_only, _fortran_asymmetric],
                         ids=["C", "read-only", "F-ordered asymmetric"])
def test_a_state_does_not_share_its_callers_covariance(given):
    cov = np.eye(4)
    cov[0, 2] = cov[2, 0] = 0.25
    cov = given(cov)
    before = cov.tobytes()
    expected = 0.5 * (cov + cov.T)
    state = GaussianState(2, cov)
    assert state.cov.flags.c_contiguous
    assert not np.shares_memory(state.cov, cov)
    assert cov.tobytes() == before
    assert state.cov.tobytes() == expected.tobytes()
    if cov.flags.writeable:
        cov[0, 2] = cov[2, 0] = 7.0
        cov[1, 1] = math.nan
        assert state.cov.tobytes() == expected.tobytes()


def _first_xdiff(M, cells):
    comb = build_comb(M, AmplifierSpec.from_gain(2.0), cells)
    return pair_witnesses(comb)[0][0]


# (n_modes, call on a state of n_modes): every public operation that takes a
# state. A marginal's block on evenly spaced rows is a view of the input's
# covariance, so measure_witness is run on each of its three marginal
# branches, which read a factorless input, and on the factor rows of a pure
# one. The readers take their blocks of the covariance as views too. A
# factorless input, as the command line's comb vacuum is, updates the
# covariance alone.
OPERATIONS = {
    "apply_symplectic": (
        5, lambda s: apply_symplectic(s, two_mode_squeezer(0.9), (3, 1))),
    "apply_symplectic, no factor": (
        5, lambda s: apply_symplectic(s, two_mode_squeezer(0.9), (3, 1))),
    "loss_channel": (3, lambda s: loss_channel(s, 1, 0.6)),
    "amplify_comb": (
        8, lambda s: amplify_comb(
            s, build_comb(4, AmplifierSpec.from_gain(3.0), 2))),
    "amplify_comb, no factor": (
        8, lambda s: amplify_comb(
            s, build_comb(4, AmplifierSpec.from_gain(3.0), 2))),
    "measure_witness, factor rows": (
        8, lambda s: measure_witness(s, _first_xdiff(4, 2), 0.7)),
    "measure_witness, slice marginal, no factor": (
        8, lambda s: measure_witness(s, _first_xdiff(8, 1), 0.7)),
    "measure_witness, index-array marginal, no factor": (
        8, lambda s: measure_witness(s, _first_xdiff(4, 2), 0.7)),
    "measure_witness, whole state, no factor": (
        2, lambda s: measure_witness(s, _first_xdiff(2, 1), 0.7)),
    "witness_variance": (
        8, lambda s: witness_variance(s, _first_xdiff(8, 1))),
    "witness_variance, no factor": (
        8, lambda s: witness_variance(s, _first_xdiff(8, 1))),
    "purity": (4, purity),
    "check_physicality": (4, check_physicality),
    "extract_graph": (4, extract_graph),
    "nullifier_residual": (
        4, lambda s: nullifier_residual(s, ideal_wire_graph(2))),
}


def _factor_bytes(state):
    return None if state.factor is None else state.factor.tobytes()


@pytest.mark.parametrize("operation", list(OPERATIONS))
def test_public_operations_leave_their_input_state_unchanged(operation):
    n_modes, call = OPERATIONS[operation]
    state = _random_state(np.random.default_rng(n_modes), n_modes, "pure")
    if operation.endswith(", no factor"):
        state = GaussianState(n_modes, state.cov)
    cov, factor = state.cov.tobytes(), _factor_bytes(state)
    call(state)
    assert state.cov.tobytes() == cov
    assert _factor_bytes(state) == factor


@pytest.mark.parametrize("build", [
    lambda: vacuum_state(3),
    lambda: build_dual_rail(DualRailSpec(4, 6.9)),
    lambda: apply_symplectic(vacuum_state(5),
                             random_network(np.random.default_rng(2), 5, 15)),
], ids=["vacuum", "wire", "network"])
def test_a_unitary_only_state_is_its_factor_until_its_covariance_is_read(
        build):
    state = build()
    assert "cov" not in vars(state)
    cov = state.cov
    assert cov.tobytes() == (state.factor @ state.factor.T).tobytes()
    assert np.array_equal(cov, cov.T)
    assert state.cov is cov


def test_vacuum_covariance_and_factor_are_separate_arrays():
    state = vacuum_state(3)
    assert not np.shares_memory(state.cov, state.factor)
    state.factor[0, 0] = 2.0
    assert state.cov[0, 0] == 1.0


@pytest.mark.parametrize("order", ["C", "F"])
def test_an_exactly_symmetric_covariance_keeps_its_bits(order):
    cov = np.eye(6)
    cov[0, 4] = cov[4, 0] = -0.0
    cov[1, 2] = cov[2, 1] = -5e-324
    cov[3, 5] = cov[5, 3] = 1.7e308
    given = np.array(cov, order=order)
    state = GaussianState(3, given)
    assert state.cov.tobytes() == cov.tobytes()
    assert state.cov.flags.c_contiguous
    assert np.signbit(state.cov[[0, 4], [4, 0]]).all()


def test_a_one_ulp_asymmetry_is_averaged():
    cov = np.eye(4)
    cov[0, 3] = 0.3
    cov[3, 0] = np.nextafter(0.3, 1.0)
    cov[1, 2], cov[2, 1] = -0.0, 0.0
    expected = 0.5 * (cov + cov.T)
    state = GaussianState(2, cov)
    assert state.cov.tobytes() == expected.tobytes()
    assert not np.signbit(state.cov[[1, 2], [2, 1]]).any()


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
