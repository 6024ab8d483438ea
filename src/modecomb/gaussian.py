"""Gaussian states and symplectic transformations in the covariance-matrix picture.

Conventions used throughout the package:

* Shot-noise units: the vacuum state has quadrature variance 1, so every
  noise figure is directly a shot-noise-normalized number.
* Quadratures are ordered x-major, ``(x_1, ..., x_N, p_1, ..., p_N)``.
* The symplectic form is ``Omega = [[0, I], [-I, 0]]``; a Gaussian unitary
  is any real matrix ``S`` with ``S Omega S^T = Omega``.

States and transforms are immutable values; every operation returns a new
object, so scenarios can be evaluated concurrently without shared state.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

#: Covariance matrices are re-symmetrized after every update; asymmetry
#: beyond this budget indicates a bug upstream, not numerical drift.
SYMMETRY_TOL = 1e-12

#: Frobenius-norm tolerance on ``S Omega S^T - Omega``, per unit of
#: ``max(1, |S|_F^2)``.
SYMPLECTIC_TOL = 1e-10

#: Lower bound on the minimum eigenvalue of ``cov + i Omega``.
PHYSICALITY_TOL = -1e-10

#: Largest total mode count N of a comb, wire or network. A 2N x 2N float64
#: matrix takes 32 N^2 bytes, so a state at the bound holds its covariance,
#: its factor and one copy of each in 4 * 32 * 4096^2 bytes = 2.1 GB.
MAX_MODES = 4096


class FieldError(ValueError):
    """Invalid input, raised by the type or function that owns the field.

    Attributes:
        field (str): dotted path of the offending field, e.g. ``"r"``, to
            which the owner of an enclosing section prepends its name
        reason (str): what is wrong with the value
    """

    def __init__(self, field, reason):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason


def _real(field, value, low=-math.inf, high=math.inf, *, open_low=False,
          open_high=False):
    """Return ``value`` as a float if it is a finite number, not a bool, in
    ``[low, high]`` (opened at an end by ``open_low`` / ``open_high``);
    raise a FieldError naming ``field`` otherwise."""
    number = math.nan
    # A plain float skips the abstract-base-class check, as in _mode.
    if type(value) is float:
        number = value
    elif isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            pass
    if (
        math.isfinite(number)
        and (low < number if open_low else low <= number)
        and (number < high if open_high else number <= high)
    ):
        return number
    interval = "" if math.isinf(low) and math.isinf(high) else (
        f" in {'(' if open_low else '['}{low:g}, "
        f"{high:g}{')' if open_high else ']'}"
    )
    raise FieldError(
        field, f"must be a finite number{interval}, got {value!r}"
    )


def _integer(field, value, low, high=math.inf):
    """Return ``value`` as an int if it is an integer, not a bool, in
    ``[low, high]``; raise a FieldError naming ``field`` otherwise. ``high``
    bounds a mode count, so its message cites :data:`MAX_MODES`."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < low
    ):
        raise FieldError(field, f"must be an integer >= {low}, got {value!r}")
    if value > high:
        raise FieldError(
            field,
            f"must be at most {high}, got {value!r}: a state has at most "
            f"MAX_MODES = {MAX_MODES} modes",
        )
    return int(value)


def _mode(mode, n_modes):
    """Return ``mode`` as an int if it is an integer (numpy integers too),
    not a bool, in ``[0, n_modes)``; raise ValueError otherwise."""
    # A plain int or a numpy index, as Witness.support gives, skips the
    # abstract-base-class check, which costs ~0.5 us.
    if type(mode) not in (int, np.intp) and (
        isinstance(mode, bool) or not isinstance(mode, numbers.Integral)
    ):
        raise ValueError(f"mode index must be an integer, got {mode!r}")
    if not 0 <= mode < n_modes:
        raise ValueError(f"mode {mode} out of range for {n_modes} modes")
    return int(mode)


# The x, then the p, quadrature indices of ``modes`` among all 2N: the rows
# and columns an element on ``modes`` touches.
def _quadrature_rows(n_modes, modes):
    return np.array([*modes, *(n_modes + m for m in modes)])


#: Below this largest entry, ``rows + cols`` within the asymmetry bound
#: cannot overflow.
_SUM_SAFE = sys.float_info.max / 4


def _symmetrized(rows, cols, mean):
    """Return ``(rows + cols) / 2``: covariance rows averaged with the
    matching columns, ``cols`` holding them transposed. Raise ValueError if
    ``rows``, ``cols`` or ``mean`` has a NaN or infinite entry, or if
    ``rows`` and ``cols`` differ by more than
    ``SYMMETRY_TOL * max(1, max |rows|)``.

    The average is ``0.5 * (rows + cols)``, except that an entry whose sum
    overflows (both terms beyond ``max / 2``) is averaged as
    ``0.5 * row + 0.5 * col``. So every finite input gives a finite
    average, and an entry equal to its column keeps its own bits."""
    largest = np.maximum.reduce(np.abs(rows), None)
    if not (math.isfinite(largest) and all(map(math.isfinite, mean.tolist()))):
        raise ValueError("covariance and mean must be finite")
    asymmetry = np.maximum.reduce(np.abs(rows - cols), None)
    # With finite rows, a NaN or infinite asymmetry comes from a non-finite
    # entry of ``cols`` (reported as the full check reports it, in a row of
    # its own there) or from finite entries whose difference overflows.
    if not asymmetry <= SYMMETRY_TOL * max(1.0, largest):
        if not np.isfinite(cols).all():
            raise ValueError("covariance and mean must be finite")
        raise ValueError(
            f"covariance is not symmetric: |C - C^T| = {asymmetry:.3e}"
        )
    if largest <= _SUM_SAFE:
        return 0.5 * (rows + cols)
    with np.errstate(over="ignore"):
        average = 0.5 * (rows + cols)
    over = np.isinf(average)
    average[over] = 0.5 * rows[over] + 0.5 * cols[over]
    return average


def symplectic_form(n_modes):
    """Return the ``2N x 2N`` symplectic form in x-major ordering.

    Args:
        n_modes (int): number of optical modes ``N``

    Returns:
        array[float]: the matrix ``[[0, I], [-I, 0]]``
    """
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    diagonal = np.arange(n_modes)
    omega[diagonal, n_modes + diagonal] = 1.0
    omega[n_modes + diagonal, diagonal] = -1.0
    return omega


@dataclass(frozen=True, eq=False)
class GaussianState:
    """A Gaussian state of ``n_modes`` optical modes.

    Attributes:
        n_modes (int): number of modes ``N``, in [1, MAX_MODES]
        mean (array[float]): length ``2N`` vector of quadrature means
        cov (array[float]): ``2N x 2N`` covariance matrix, vacuum = identity
        factor (array[float] or None): optional ``2N x 2N`` symplectic
            factor ``S`` with ``cov = S S^T``, the product of every
            transform applied since vacuum. :func:`vacuum_state` starts it
            at the identity and :func:`apply_symplectic` carries it along.
            Every non-unitary step (loss, homodyne conditioning) drops it to
            ``None``, as does direct construction unless one is passed. Only
            its shape and the finiteness of its entries are checked; a
            caller passing one vouches that it factors ``cov``.

    A NaN or infinite entry of ``cov``, ``mean`` or ``factor`` is rejected
    with ``ValueError``. The covariance matrix is symmetrized on
    construction, into a fresh array, without overflow for any finite
    entries. States derived from a valid state by :func:`apply_symplectic`
    or :func:`~modecomb.elements.loss_channel` differ from it only in the
    rows and columns of the modes they touch, so they are checked and
    symmetrized on those rows alone: the same rules in ``O(k * N)``, with an
    asymmetry bound scaled by the largest entry of those rows. A NaN or
    infinite entry in one of the touched columns is rejected as non-finite,
    exactly as the full check rejects it. Finite touched rows that already
    equal their columns bit for bit are left unwritten, since their average
    is themselves.
    Physicality (``cov + i Omega >= 0``) is *not* enforced here so that
    deliberately unphysical matrices can still be probed with
    :func:`check_physicality`.
    """

    n_modes: int
    mean: np.ndarray
    cov: np.ndarray
    factor: np.ndarray | None = None

    def __post_init__(self):
        n_modes = _integer("n_modes", self.n_modes, 1, MAX_MODES)
        dim = 2 * n_modes
        mean = np.asarray(self.mean, dtype=float).reshape(dim)
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (dim, dim):
            raise ValueError(
                f"covariance must be {dim}x{dim} for {n_modes} modes, "
                f"got {cov.shape}"
            )
        cov = _symmetrized(cov, cov.T, mean)
        if self.factor is not None:
            factor = np.asarray(self.factor, dtype=float)
            if factor.shape != (dim, dim):
                raise ValueError(
                    f"symplectic factor must be {dim}x{dim} for "
                    f"{n_modes} modes, got {factor.shape}"
                )
            if not np.isfinite(factor).all():
                raise ValueError("symplectic factor must be finite")
            object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "n_modes", n_modes)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self):
        """Phase-space dimension ``2N``."""
        return 2 * self.n_modes


@dataclass(frozen=True, eq=False)
class SymplecticTransform:
    """A real symplectic matrix representing a Gaussian unitary.

    Attributes:
        matrix (array[float]): ``2N x 2N`` real matrix
        n_modes (int): number of modes the transform acts on, in
            [1, MAX_MODES]

    Raises:
        ValueError: if ``S Omega S^T`` deviates from ``Omega`` by more than
            :data:`SYMPLECTIC_TOL` times ``max(1, |S|_F^2)`` in Frobenius
            norm. The bound scales with the matrix because rounding its
            entries moves ``S Omega S^T`` by about ``eps |S|^2``: a squeezer
            of strength ``r`` has ``|S|^2 ~ e^{2r}``.
    """

    matrix: np.ndarray
    n_modes: int

    def __post_init__(self):
        n_modes = _integer("n_modes", self.n_modes, 1, MAX_MODES)
        dim = 2 * n_modes
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.shape != (dim, dim):
            raise ValueError(
                f"matrix must be {dim}x{dim} for {n_modes} modes, "
                f"got {matrix.shape}"
            )
        omega = symplectic_form(n_modes)
        defect = np.linalg.norm(matrix @ omega @ matrix.T - omega)
        scale = max(1.0, float(np.linalg.norm(matrix)) ** 2)
        if not defect <= SYMPLECTIC_TOL * scale:
            raise ValueError(
                f"matrix is not symplectic: |S Omega S^T - Omega| = {defect:.3e}"
                f" against |S|^2 = {scale:.3e}"
            )
        object.__setattr__(self, "n_modes", n_modes)
        object.__setattr__(self, "matrix", matrix)


@dataclass(frozen=True, eq=False)
class Witness:
    """A linear quadrature combination whose variance certifies entanglement.

    Attributes:
        coeffs (array[float]): length ``2N`` finite coefficients over
            ``(x_1..x_N, p_1..p_N)``
        normalization (float): vacuum variance of the combination, always
            ``coeffs . coeffs`` in shot-noise units

    The modes with a nonzero coefficient are found once, on construction,
    and :meth:`support` returns them.
    """

    coeffs: np.ndarray
    normalization: float = field(init=False)
    _support: tuple = field(init=False, repr=False)

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float).reshape(-1)
        if coeffs.size == 0 or coeffs.size % 2 != 0:
            raise ValueError("witness coefficients must have even length 2N")
        norm = float(coeffs @ coeffs)
        if not math.isfinite(norm):
            raise ValueError(
                "witness coefficients must be finite, with a finite square sum"
            )
        if norm == 0.0:
            raise ValueError("witness coefficient vector must be nonzero")
        n = coeffs.size // 2
        support = tuple(np.nonzero(np.logical_or(coeffs[:n], coeffs[n:]))[0])
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "normalization", norm)
        object.__setattr__(self, "_support", support)

    @classmethod
    def from_terms(cls, n_modes, terms):
        """Build a witness from sparse ``{(mode, "x"|"p"): coefficient}`` terms
        on ``n_modes`` modes, an integer in [1, MAX_MODES]."""
        n_modes = _integer("n_modes", n_modes, 1, MAX_MODES)
        coeffs = np.zeros(2 * n_modes)
        for (mode, quad), value in terms.items():
            mode = _mode(mode, n_modes)
            if quad == "x":
                coeffs[mode] += value
            elif quad == "p":
                coeffs[n_modes + mode] += value
            else:
                raise ValueError(f"quadrature must be 'x' or 'p', got {quad!r}")
        return cls(coeffs)

    def support(self, n_modes):
        """Mode indices on which the witness has a nonzero coefficient.

        Raises:
            ValueError: if ``n_modes`` is not the witness's own mode count.
        """
        own = self.coeffs.size // 2
        if n_modes != own:
            raise ValueError(f"witness has {own} modes, not {n_modes}")
        return self._support


def vacuum_state(n_modes):
    """Return the ``n_modes``-mode vacuum: zero mean, identity covariance.

    Args:
        n_modes (int): number of modes, in [1, MAX_MODES]

    Returns:
        GaussianState: the vacuum state, with the identity as its factor
    """
    n_modes = _integer("n_modes", n_modes, 1, MAX_MODES)
    dim = 2 * n_modes
    return GaussianState(n_modes, np.zeros(dim), np.eye(dim), np.eye(dim))


def _apply_rows(mean, cov, factor, s, idx):
    """Apply ``s`` in place to rows ``idx`` of ``mean``, ``cov`` and
    ``factor`` (if not None), then to columns ``idx`` of ``cov``."""
    mean[idx] = s @ mean.take(idx)
    cov[idx] = s @ cov.take(idx, 0)
    cov[:, idx] = cov.take(idx, 1) @ s.T
    if factor is not None:
        factor[idx] = s @ factor.take(idx, 0)


def _check_rows(mean, cov, idx):
    """Check and symmetrize, in place, rows and columns ``idx`` of arrays
    copied from a valid state and changed only there.

    ``idx`` is an index array or, as :func:`~modecomb.elements.loss_channel`
    passes it, a basic slice, whose rows and columns are read as views. The
    untouched entries passed the full check of that state and are exactly
    symmetric, so :func:`_symmetrized` on the touched rows applies the full
    check's rules and gives the full check's result: a non-finite entry in
    a touched row, column or the mean is a finiteness error, and otherwise
    rows and columns must agree to within the asymmetry bound.

    Finite touched rows that already equal their columns bit for bit, with
    a finite touched mean, pass every rule, and their average would write
    each entry back with its own bits. So they are left as they are,
    without the largest-entry bound, the average or the write-back. Bits,
    not values, are compared: ``-0.0 == 0.0``, but their average is
    ``+0.0``. Any other rows take the full rules, and their messages.
    """
    rows, cols, touched = cov[idx], cov[:, idx].T, mean[idx]
    if (
        not np.count_nonzero(rows.view(np.uint64) != cols.view(np.uint64))
        and np.count_nonzero(np.isfinite(rows)) == rows.size
        and all(map(math.isfinite, touched.tolist()))
    ):
        return
    rows = _symmetrized(rows, cols, touched)
    cov[idx] = rows
    cov[:, idx] = rows.T


def _derived_state(n_modes, mean, cov, factor, idx):
    """The state of arrays copied from a valid state and changed only in
    rows and columns ``idx``, checked on those rows by :func:`_check_rows`
    instead of by a full ``O(N^2)`` pass."""
    _check_rows(mean, cov, idx)
    state = object.__new__(GaussianState)
    state.__dict__.update(n_modes=n_modes, mean=mean, cov=cov, factor=factor)
    return state


def _apply_steps(state, steps):
    """Fold ``(transform, modes)`` steps, nonempty and with valid modes, into
    one copy of ``state``. Each step's rows are checked before the next
    applies, so the result is bit-equal to folding :func:`apply_symplectic`."""
    n = state.n_modes
    mean, cov = state.mean.copy(), state.cov.copy()
    factor = None if state.factor is None else state.factor.copy()
    idx = None
    for transform, modes in steps:
        if idx is not None:
            _check_rows(mean, cov, idx)
        idx = _quadrature_rows(n, modes)
        _apply_rows(mean, cov, factor, transform.matrix, idx)
    return _derived_state(n, mean, cov, factor, idx)


def apply_symplectic(state, transform, modes=None):
    """Apply a symplectic transform to an ordered subset of modes.

    The transform is embedded as the identity on all other modes. The call
    makes one copy of the covariance, and of the symplectic factor if the
    state carries one; beyond that copy only the ``k`` touched modes' rows
    and columns are recomputed and checked, in ``O(k * N)`` rather than a
    full ``2N x 2N`` matrix product or validation pass.

    Args:
        state (GaussianState): input state
        transform (SymplecticTransform): element acting on ``len(modes)`` modes
        modes (sequence[int]): target modes, in the transform's own mode
            order; defaults to ``range(transform.n_modes)``

    Returns:
        GaussianState: the transformed state

    Raises:
        ValueError: for a repeated mode or one not an integer index.
    """
    if modes is None:
        modes = range(transform.n_modes)
    modes = tuple([_mode(m, state.n_modes) for m in modes])
    if len(modes) != transform.n_modes:
        raise ValueError(
            f"transform acts on {transform.n_modes} modes but {len(modes)} "
            "were given"
        )
    if len(set(modes)) != len(modes):
        raise ValueError(f"repeated mode index in {modes}")
    return _apply_steps(state, ((transform, modes),))


def witness_variance(state, witness):
    """Shot-noise-normalized variance of a witness combination.

    Evaluates ``w^T cov w / (w^T w)``; the result is 1 on vacuum for every
    nonzero witness, and below 1 certifies squeezing of the combination.

    Args:
        state (GaussianState): state to evaluate on
        witness (Witness): quadrature combination

    Returns:
        float: normalized variance
    """
    if witness.coeffs.size != state.dim:
        raise ValueError(
            f"witness has {witness.coeffs.size} coefficients but the state "
            f"has {state.dim} quadratures"
        )
    w = witness.coeffs
    return float(w @ state.cov @ w) / witness.normalization


def check_physicality(state):
    """Check the uncertainty-principle constraint ``cov + i Omega >= 0``.

    Args:
        state (GaussianState): state to check

    Returns:
        tuple[bool, float]: (is physical, minimum eigenvalue of
        ``cov + i Omega``); the eigenvalue is returned for diagnostics.
    """
    omega = symplectic_form(state.n_modes)
    herm = state.cov + 1j * omega
    min_eig = float(np.linalg.eigvalsh(herm)[0])
    return min_eig >= PHYSICALITY_TOL, min_eig


def purity(state):
    """Purity ``1 / sqrt(det cov)``; equals 1 exactly for pure states.

    A state that carries its symplectic factor ``S`` (``cov = S S^T``) has
    purity ``1 / |det S|``, which stays accurate for strongly squeezed
    states.

    Otherwise the purity comes from the covariance alone, through the
    symplectic (Williamson) eigenvalues: with the Cholesky factor
    ``C = L L^T`` they are the singular values of ``L^T Omega L``, and the
    purity is the inverse of their product. Its accuracy is limited by
    ``eps * cond(C)``: rounding the covariance to float64 already moves its
    purity by that much, so no method working on ``C`` alone can do better.
    A pure state squeezed by ``r`` has ``cond(C) ~ e^{4r}``, which puts the
    error near 1e-8 around ``r = 4-5``.

    Args:
        state (GaussianState): a physical state

    Returns:
        float: purity in (0, 1]

    Raises:
        ValueError: if the covariance is singular or not positive definite.
    """
    if state.factor is not None:
        _, logdet = np.linalg.slogdet(state.factor)
        return float(np.exp(-logdet))
    try:
        chol = np.linalg.cholesky(state.cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "covariance matrix is singular or not positive"
        ) from exc
    core = chol.T @ symplectic_form(state.n_modes) @ chol
    # Each symplectic eigenvalue appears twice among the singular values.
    doubled = np.linalg.svd(core, compute_uv=False)
    return float(np.exp(-0.5 * np.sum(np.log(doubled))))
