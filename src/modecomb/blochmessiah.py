"""Passive-squeeze-passive factorization of Gaussian networks.

Any symplectic matrix S factors as ``S = P_out * D * P_in`` with orthogonal
symplectic (passive, photon-number-preserving) factors and a diagonal
squeezing core ``D = diag(e^{r_1}..e^{r_n}, e^{-r_1}..e^{-r_n})``. Physically:
every multimode nonlinear network is equivalent to an interferometer, a bank
of independent single-mode squeezers, and a second interferometer.

The construction runs in the complex (annihilation-operator) picture, where
S corresponds to the Bogoliubov pair ``a' = E a + F conj(a)``. A singular
value decomposition ``E = A cosh(r) B^+`` supplies the passive factors and
the squeeze spectrum; a Takagi gauge rotation inside each degenerate
singular-value group aligns the anomalous block ``F`` with ``sinh(r)``;
the Takagi factor is completed by a square root of a symmetric unitary
(:func:`_unitary_sqrt`), so numpy's SVD and eigenvalues are all it needs.
Because the passive factors are built directly from unitary matrices, they
are orthogonal symplectic to machine precision even when the spectrum is
degenerate or nearly so.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import SymplecticTransform, _unchecked_transform

#: Frobenius-norm tolerance for detecting passive (orthogonal) factors.
ORTHOGONALITY_TOL = 1e-10

#: Squeeze values below this magnitude are clamped to zero.
SQUEEZE_CLAMP = 1e-10

#: Relative gap below which neighboring singular values are treated as one
#: degenerate group. Unresolved subspaces are re-resolved by the Takagi
#: step, so merging is safe; splitting a too-small gap is not, because
#: singular subspace accuracy degrades as (machine epsilon / gap).
NEAR_DEGENERACY_GAP = 1e-4


@dataclass(frozen=True, eq=False)
class Decomposition:
    """A passive-squeeze-passive factorization.

    Attributes:
        passive_out (SymplecticTransform): orthogonal symplectic factor
            applied last
        squeeze (array[float]): per-mode squeeze parameters, finite,
            nonnegative and sorted descending
        passive_in (SymplecticTransform): orthogonal symplectic factor
            applied first
    """

    passive_out: SymplecticTransform
    squeeze: np.ndarray
    passive_in: SymplecticTransform

    def __post_init__(self):
        n = self.passive_out.n_modes
        if self.passive_in.n_modes != n:
            raise ValueError("passive factors act on different mode counts")
        squeeze = np.array(self.squeeze, dtype=float).reshape(-1)
        if squeeze.size != n:
            raise ValueError(
                f"need one squeeze value per mode: got {squeeze.size} for "
                f"{n} modes"
            )
        if not np.isfinite(squeeze).all():
            raise ValueError("squeeze values must be finite")
        if np.any(squeeze < 0):
            raise ValueError("squeeze values must be >= 0")
        if np.any(np.diff(squeeze) > 1e-12):
            raise ValueError("squeeze values must be sorted descending")
        for name, factor in (
            ("passive_out", self.passive_out),
            ("passive_in", self.passive_in),
        ):
            defect = np.linalg.norm(
                factor.matrix.T @ factor.matrix - np.eye(2 * n)
            )
            if not defect <= ORTHOGONALITY_TOL:
                raise ValueError(
                    f"{name} is not orthogonal: |P^T P - I| = {defect:.3e}"
                )
        object.__setattr__(self, "squeeze", squeeze)

    @property
    def n_modes(self):
        return self.passive_out.n_modes


def _degenerate_groups(values):
    """Contiguous (start, count) runs of nearly-equal descending values."""
    threshold = NEAR_DEGENERACY_GAP * values[0] if len(values) else 0.0
    groups = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i - 1] - values[i] > threshold:
            groups.append((start, i - start))
            start = i
    return groups


def _complex_blocks(matrix):
    """Bogoliubov blocks (E, F) of a quadrature-ordered symplectic matrix.

    With ``a = (x + ip) / sqrt(2)`` the action ``(x, p) -> S (x, p)``
    reads ``a' = E a + F conj(a)``.
    """
    n = matrix.shape[0] // 2
    a = matrix[:n, :n]
    b = matrix[:n, n:]
    c = matrix[n:, :n]
    d = matrix[n:, n:]
    e_block = 0.5 * ((a + d) + 1j * (c - b))
    f_block = 0.5 * ((a - d) + 1j * (b + c))
    return e_block, f_block


def _real_orthogonal(unitary):
    """The orthogonal symplectic matrix acting as ``unitary`` on amplitudes."""
    x = np.real(unitary)
    y = np.imag(unitary)
    return np.block([[x, -y], [y, x]])


def _by_size(groups):
    """The ``(start, count)`` runs of :func:`_degenerate_groups`, each
    tagged with the index of the value list it came from, as
    ``{count: (owners, starts)}`` int arrays."""
    runs = {}
    for owner, owned in enumerate(groups):
        for start, count in owned:
            runs.setdefault(count, []).append((owner, start))
    return {count: tuple(np.array(members).T)
            for count, members in runs.items()}


def _unitary_sqrt(x):
    """A square root of each unitary matrix of the ``(K, c, c)`` stack
    ``x`` that is a function of it.

    A spectrum is turned by ``e^{-i alpha}`` so that -1 sits in the middle
    of its widest gap on the unit circle; the unitary polar factor of
    ``I + e^{-i alpha} x`` is then the principal root of the turned matrix,
    and is well conditioned. Being a function of ``x``, the root is
    symmetric whenever ``x`` is, also with eigenvalues at +-1. numpy's
    ``eigvals`` and ``svd`` run LAPACK once per matrix of a stack, so each
    root has the bits it has alone.
    """
    angles = np.sort(np.angle(np.linalg.eigvals(x)))
    gaps = np.diff(angles, append=angles[:, :1] + 2 * np.pi)
    widest = np.argmax(gaps, axis=1)[:, None]
    alpha = (np.take_along_axis(angles, widest, 1)
             + 0.5 * np.take_along_axis(gaps, widest, 1) - np.pi)[:, :, None]
    u, _, vh = np.linalg.svd(np.eye(x.shape[1]) + np.exp(-1j * alpha) * x)
    return np.exp(0.5j * alpha) * (u @ vh)


def _takagi(blocks):
    """Autonne-Takagi factorization of each complex symmetric matrix of the
    ``(K, c, c)`` stack ``blocks``.

    Returns (W, d), stacks of K unitaries and of K nonnegative descending
    value lists, such that ``blocks[k] = W[k] diag(d[k]) W[k]^T``. Within
    degenerate singular-value subspaces a factor is completed by the square
    root of a symmetric unitary; those subspaces of all K matrices are
    rooted in one stack per size.
    """
    if blocks.shape[1] == 1:
        # np.angle and np.hypot read the strided real and imaginary parts
        # element by element, as they read one complex scalar.
        return (np.exp(0.5j * np.angle(blocks)),
                np.hypot(blocks.real, blocks.imag)[:, 0])
    v, svals, wh = np.linalg.svd(blocks)
    root = np.zeros(blocks.shape, dtype=complex)
    inner = _by_size([_degenerate_groups(values) for values in svals])
    for count, (owners, starts) in inner.items():
        sub = starts[:, None] + np.arange(count)
        # v[:, sub]^T w[:, sub] with w = wh^H, each operand the transposed
        # view it is when taken from one matrix.
        v_sub = np.take_along_axis(v[owners], sub[:, None, :], 2)
        wh_sub = np.take_along_axis(wh[owners], sub[:, :, None], 1)
        x = v_sub.swapaxes(1, 2) @ wh_sub.conj().swapaxes(1, 2)
        root[owners[:, None, None], sub[:, :, None], sub[:, None, :]] = (
            _unitary_sqrt(x)
        )
    return v @ np.conj(root), svals


def decompose(transform):
    """Factor a symplectic transform into passive-squeeze-passive form.

    Args:
        transform (SymplecticTransform): the network to factor

    Returns:
        Decomposition: factors satisfying
        ``recompose(result) == transform`` to high accuracy; the squeeze
        spectrum (the log-singular-value pairs of the matrix) is unique,
        while the passive factors are gauge-dependent for degenerate
        squeeze values. Each passive factor is ``[[X, -Y], [Y, X]]`` for
        a unitary ``X + iY``, so ``Decomposition``'s orthogonality check
        implies that it is symplectic, and it is not checked again.
    """
    s = transform.matrix
    n = transform.n_modes
    dim = 2 * n

    if np.linalg.norm(s.T @ s - np.eye(dim)) <= ORTHOGONALITY_TOL:
        # Already passive: conventionally place it on the output side.
        return Decomposition(
            passive_out=transform,
            squeeze=np.zeros(n),
            passive_in=_unchecked_transform(np.eye(dim), n),
        )

    e_block, f_block = _complex_blocks(s)
    a_mat, e_svals, bh_mat = np.linalg.svd(e_block)
    b_mat = bh_mat.conj().T
    coupling = a_mat.conj().T @ f_block @ b_mat.conj()

    # Within each degenerate group of singular values of E the coupling
    # block is complex symmetric; its Takagi rotation, applied to both
    # passive factors, turns it into the nonnegative diagonal sinh(r).
    # Reading sinh(r) off the Takagi values (rather than as arccosh of the
    # singular values of E) keeps unsqueezed modes exactly at zero instead
    # of sqrt(machine-epsilon) noise, and resolves the spectrum correctly
    # even when nearly-equal values fall into one group. The groups of one
    # size are factored as one stack.
    sinh_vals = np.zeros(n)
    gauge = np.zeros((n, n), dtype=complex)
    for count, (_, starts) in _by_size([_degenerate_groups(e_svals)]).items():
        sub = starts[:, None] + np.arange(count)
        rows, cols = sub[:, :, None], sub[:, None, :]
        blocks = coupling[rows, cols]
        gauge[rows, cols], sinh_vals[sub] = _takagi(
            0.5 * (blocks + blocks.swapaxes(1, 2))
        )

    squeeze = np.arcsinh(sinh_vals)
    squeeze[squeeze < SQUEEZE_CLAMP] = 0.0

    a_final = a_mat @ gauge
    b_final = b_mat @ gauge
    return Decomposition(
        passive_out=_unchecked_transform(_real_orthogonal(a_final), n),
        squeeze=squeeze,
        passive_in=_unchecked_transform(
            _real_orthogonal(b_final.conj().T), n
        ),
    )


def recompose(decomposition):
    """Multiply a decomposition back into a single symplectic transform.

    Args:
        decomposition (Decomposition): factors to combine

    Returns:
        SymplecticTransform: ``passive_out * diag(e^r, e^{-r}) * passive_in``
    """
    squeeze = decomposition.squeeze
    # Column scaling matches the dense product with diag(core): there each
    # entry is the same one product plus exact zeros. A squeeze whose e^r
    # overflows gives a product the check below rejects, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        core = np.concatenate([np.exp(squeeze), np.exp(-squeeze)])
        matrix = (decomposition.passive_out.matrix * core) @ (
            decomposition.passive_in.matrix
        )
    return SymplecticTransform(matrix, decomposition.n_modes)
