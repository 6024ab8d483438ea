"""The factorization across scales, checked against a 50-digit SVD oracle.

Each probe puts a small squeeze beside a strong one: one ``r = 6.9``
squeezer on 4 modes (within the CLI's reach), or two stacked ``r = 6.9``
squeezers on 16 or 96 modes (beyond it; the library accepts them). Every
other mode is unsqueezed, so the small squeeze shares a degenerate group
with the vacuum modes and must be resolved by the Takagi step.
"""

import mpmath
import numpy as np
import pytest

from modecomb import SymplecticTransform, decompose, recompose, two_mode_squeezer
from modecomb.blochmessiah import ORTHOGONALITY_TOL, _unitary_sqrt

from conftest import embed

#: (modes, stacked r = 6.9 squeezers on modes 0 and 1)
SCALES = [(4, 1), (16, 2), (96, 2)]
SMALL_SQUEEZE = [0.0, 1e-13, 1e-10, 1e-7, 1e-4, 0.1]
SEEDS = range(5)


def _random_passive(rng, n_modes):
    """Orthogonal symplectic matrix of a random n-mode interferometer."""
    gaussian = rng.standard_normal((n_modes, 2 * n_modes))
    unitary, _ = np.linalg.qr(gaussian[:, :n_modes] + 1j * gaussian[:, n_modes:])
    x, y = unitary.real, unitary.imag
    return np.block([[x, -y], [y, x]])


def _probe(n_modes, stacked, small, seed):
    rng = np.random.default_rng(seed)
    matrix = embed(n_modes, two_mode_squeezer(small, 0.7), (2, 3))
    for _ in range(stacked):
        matrix = embed(n_modes, two_mode_squeezer(6.9), (0, 1)) @ matrix
    matrix = _random_passive(rng, n_modes) @ matrix @ _random_passive(rng, n_modes)
    return SymplecticTransform(matrix, n_modes)


def _log_singular_values(matrix, count):
    """The ``count`` largest log singular values, from a 50-digit SVD."""
    with mpmath.workdps(50):
        values = mpmath.svd_r(mpmath.matrix(matrix.tolist()), compute_uv=False)
        logs = sorted((mpmath.log(v) for v in values), reverse=True)
        return np.array([float(v) for v in logs[:count]])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("small", SMALL_SQUEEZE)
@pytest.mark.parametrize("n_modes, stacked", SCALES)
def test_decomposition_across_scales(n_modes, stacked, small, seed):
    transform = _probe(n_modes, stacked, small, seed)
    result = decompose(transform)
    eye = np.eye(2 * n_modes)
    for factor in (result.passive_out, result.passive_in):
        assert np.linalg.norm(factor.matrix.T @ factor.matrix - eye) < ORTHOGONALITY_TOL
    scale = np.linalg.norm(transform.matrix)
    error = np.linalg.norm(recompose(result).matrix - transform.matrix)
    assert error <= 1e-9 * scale
    assert result.squeeze[:2] == pytest.approx([6.9 * stacked] * 2, abs=1e-9)
    if n_modes <= 8:
        oracle = _log_singular_values(transform.matrix, n_modes)
        assert np.abs(result.squeeze - oracle).max() <= 1e-10


def _symmetric_unitaries():
    """``O diag(e^{i angles}) O^T`` for random real orthogonal O, with
    eigenvalues at +-1, near -1 and in degenerate clusters; then a generic
    ``U U^T``."""
    rng = np.random.default_rng(3)
    spectra = [
        [0.0],
        [np.pi],
        [np.pi] * 4,
        [0.0] * 5,
        [0.0, 0.0, np.pi, np.pi],
        [np.pi, -np.pi, np.pi - 1e-12, -np.pi + 1e-12, 0.0],
        [1e-13, -1e-13, np.pi, 0.5, 0.5 + 1e-10, 0.5 - 1e-10],
        2 * np.pi * np.arange(8) / 8,
        rng.uniform(-np.pi, np.pi, 7),
    ]
    for angles in spectra:
        o, _ = np.linalg.qr(rng.standard_normal((len(angles), len(angles))))
        yield o @ np.diag(np.exp(1j * np.asarray(angles))) @ o.T
    unitary = _random_passive(rng, 6)
    unitary = unitary[:6, :6] + 1j * unitary[6:, :6]
    yield unitary @ unitary.T


@pytest.mark.parametrize("x", list(_symmetric_unitaries()))
def test_unitary_sqrt_of_symmetric_unitaries(x):
    root = _unitary_sqrt(x[None])[0]  # a stack of one
    assert np.abs(root @ root - x).max() < 1e-13
    assert np.abs(root - root.T).max() < 1e-13
    assert np.abs(root.conj().T @ root - np.eye(len(x))).max() < 1e-13
