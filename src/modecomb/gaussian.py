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

#: A given covariance is averaged with its transpose; asymmetry beyond this
#: budget indicates a bug upstream, not numerical drift.
SYMMETRY_TOL = 1e-12

#: Frobenius-norm tolerance on ``S Omega S^T - Omega``, per unit of
#: ``max(1, |S|_F^2)``.
SYMPLECTIC_TOL = 1e-10

#: Lower bound on the minimum eigenvalue of ``cov + i Omega``.
PHYSICALITY_TOL = -1e-10

#: Largest total mode count N of a comb, wire or network. A 2N x 2N float64
#: matrix takes 32 N^2 bytes, 0.54 GB at the bound. A unitary-only state
#: holds its factor alone; a step adds one working copy, and a first read of
#: its covariance adds that matrix, so such a state at the bound takes
#: 2 * 32 * 4096^2 bytes = 1.1 GB.
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


def _modes(modes, n_modes, arity):
    """Return the iterable ``modes`` as a tuple of ``arity`` distinct ints,
    each checked by :func:`_mode`; raise a FieldError naming ``modes``
    otherwise, with :func:`_mode`'s reason for a bad index."""
    try:
        checked = tuple([_mode(m, n_modes) for m in modes])
    except TypeError:  # not iterable
        checked = ()
    except ValueError as exc:
        raise FieldError("modes", str(exc)) from exc
    if len(checked) == arity == len(set(checked)):
        return checked
    raise FieldError(
        "modes", f"must list {arity} distinct mode indices below {n_modes}"
    )


def _step_rows(n_modes, modes):
    """The rows ``m_0..m_{k-1}, n + m_0..n + m_{k-1}`` an element on a tuple
    of distinct valid ``modes`` touches: a basic slice, read and written
    through views, when their step ``d`` is constant, that is when the modes
    are ``m_0, m_0 + d, ...`` with ``k * d = n`` (one mode, a two-mode
    state, a pair of a one-cell comb); an index array otherwise."""
    first = modes[0]
    step = n_modes // len(modes)
    if modes == tuple(range(first, first + n_modes, step)):
        return slice(first, first + 2 * n_modes, step)
    return np.array([*modes, *(n_modes + m for m in modes)])


#: Below this largest entry, ``C + C^T`` within the asymmetry bound cannot
#: overflow.
_SUM_SAFE = sys.float_info.max / 4


def _symmetrized(cov):
    """Return ``(C + C^T) / 2`` for a square ``cov``. Raise ValueError if it
    has a NaN or infinite entry, or if it differs from its transpose by more
    than ``SYMMETRY_TOL * max(1, max |C|)``; an overflowing difference, which
    ``GaussianState`` lets through ``np.errstate``, reads as infinite.

    An entry whose sum overflows (both terms beyond ``max / 2``) is averaged
    as ``C/2 + C^T/2``. So every finite input gives a finite average, a new
    C-ordered array, and an entry equal to its transpose keeps its bits."""
    largest = np.maximum.reduce(np.abs(cov), None)
    if not math.isfinite(largest):
        raise ValueError("covariance must be finite")
    cols = cov.T
    asymmetry = np.maximum.reduce(np.abs(cov - cols), None)
    if not asymmetry <= SYMMETRY_TOL * max(1.0, largest):
        raise ValueError(
            f"covariance is not symmetric: |C - C^T| = {asymmetry:.3e}"
        )
    if largest <= _SUM_SAFE:
        return 0.5 * (cov + cols)
    with np.errstate(over="ignore"):
        average = 0.5 * (cov + cols)
    over = np.isinf(average)
    average[over] = 0.5 * cov[over] + 0.5 * cols[over]
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


class _FormedCovariance:
    """The ``cov`` of a state held by its factor ``S``: ``S @ S.T``, formed
    on first read and kept in the state's ``__dict__``.

    A non-data descriptor, so a covariance in the state's ``__dict__``, as
    every state held by its covariance has, is found first and this is not
    called. Declared as the default of ``GaussianState.cov``, it raises
    AttributeError when read on the class, which leaves the field without
    a default (dataclasses' descriptor-typed fields)."""

    def __get__(self, state, owner=None):
        if state is None:
            raise AttributeError("cov")
        factor = state.factor
        cov = state.__dict__["cov"] = factor @ factor.T
        return cov


@dataclass(frozen=True, eq=False)
class GaussianState:
    """A Gaussian state of ``n_modes`` optical modes.

    A state whose history is unitary is held by its symplectic factor ``S``
    alone, and its covariance ``S S^T`` is formed on first read and then
    kept; any other state is held by its covariance.

    First moments are not modelled: every state starts from the zero-mean
    vacuum, and no witness, graph, purity or physicality figure depends on
    them, since local displacements remove them.

    Attributes:
        n_modes (int): number of modes ``N``, in [1, MAX_MODES]
        cov (array[float]): ``2N x 2N`` covariance matrix, vacuum = identity;
            on a state held by ``S``, the product ``S @ S.T``, which numpy
            forms as a symmetric rank-k update, so it is exactly symmetric
        factor (array[float] or None): ``2N x 2N`` symplectic factor ``S``
            with ``cov = S S^T``, not always the product of the transforms
            applied; not a constructor argument. Only the library writes
            it: :func:`vacuum_state`, a wire's squeezed sources and
            :func:`apply_symplectic`. A loss channel, being
            non-unitary, drops it to ``None``, and a directly constructed
            state has none. A caller holding ``S`` gets a state with it from
            ``apply_symplectic(vacuum_state(n), SymplecticTransform(S, n))``.

    A NaN or infinite entry of ``cov`` is rejected with ``ValueError``.
    Every given covariance is checked and averaged with its transpose by
    :func:`_symmetrized`, and the state stores that new array, so it never
    shares its caller's array; an exactly symmetric covariance keeps its
    bits, signed zeros included. The library's steps keep a checked
    covariance finite and exactly symmetric by construction and skip this
    check: :func:`apply_symplectic` rejects a step only if a new row is not
    finite, and :func:`~modecomb.elements.loss_channel` needs no check.
    Physicality (``cov + i Omega >= 0``) is *not* enforced here so that
    deliberately unphysical matrices can still be probed with
    :func:`check_physicality`.
    """

    n_modes: int
    cov: np.ndarray = _FormedCovariance()
    factor: np.ndarray | None = field(default=None, init=False)

    def __post_init__(self):
        n_modes = _integer("n_modes", self.n_modes, 1, MAX_MODES)
        dim = 2 * n_modes
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (dim, dim):
            raise ValueError(
                f"covariance must be {dim}x{dim} for {n_modes} modes, "
                f"got {cov.shape}"
            )
        with np.errstate(over="ignore"):
            cov = _symmetrized(cov)
        object.__setattr__(self, "n_modes", n_modes)
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
            of strength ``r`` has ``|S|^2 ~ e^{2r}``. A matrix whose
            ``|S|_F^2`` overflows is rejected as too large to check.
    """

    matrix: np.ndarray
    n_modes: int

    def __post_init__(self):
        n_modes = _integer("n_modes", self.n_modes, 1, MAX_MODES)
        dim = 2 * n_modes
        matrix = np.array(self.matrix, dtype=float)
        if matrix.shape != (dim, dim):
            raise ValueError(
                f"matrix must be {dim}x{dim} for {n_modes} modes, "
                f"got {matrix.shape}"
            )
        omega = symplectic_form(n_modes)
        with np.errstate(over="ignore", invalid="ignore"):
            gap = matrix @ omega @ matrix.T - omega
        # np.linalg.norm's square sums, by np.vdot, which neither warns on
        # overflow nor pays norm's overhead. Huge finite entries overflow the
        # scale to inf, against which any defect would pass: it is rejected.
        defect = math.sqrt(np.vdot(gap, gap))
        scale = max(1.0, float(np.vdot(matrix, matrix)))
        if not math.isfinite(scale):
            raise ValueError("matrix is too large to check: |S|^2 overflows")
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
        coeffs = np.array(self.coeffs, dtype=float).reshape(-1)
        if coeffs.size == 0 or coeffs.size % 2 != 0:
            raise ValueError("witness coefficients must have even length 2N")
        # np.vdot gives the bits of ``coeffs @ coeffs`` without its overflow
        # warning, so a huge coefficient just reads as an infinite sum.
        norm = float(np.vdot(coeffs, coeffs))
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
        on ``n_modes`` modes, an integer in [1, MAX_MODES]. Each coefficient
        is a finite number, not a bool; a FieldError names the term of any
        other."""
        n_modes = _integer("n_modes", n_modes, 1, MAX_MODES)
        coeffs = np.zeros(2 * n_modes)
        for (mode, quad), value in terms.items():
            mode = _mode(mode, n_modes)
            # A finite plain float passes the rule as it is; only another
            # value pays for the check and the term's name.
            if type(value) is not float or not math.isfinite(value):
                value = _real(f"terms[{mode}, {quad!r}]", value)
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
    """Return the ``n_modes``-mode vacuum: the identity covariance, held by
    the identity as its symplectic factor.

    Args:
        n_modes (int): number of modes, in [1, MAX_MODES]

    Returns:
        GaussianState: the vacuum state, held by the identity as its factor;
        its covariance, the identity too, is formed on first read
    """
    n_modes = _integer("n_modes", n_modes, 1, MAX_MODES)
    return _unchecked_state(n_modes, factor=np.eye(2 * n_modes))


def _apply_rows(array, s, idx):
    """Left-multiply rows ``idx`` of ``array`` in place by ``s``; return the
    new rows.

    ``idx`` is an index array or a basic slice from :func:`_step_rows`. A
    slice's rows are written through a view. Either way the product reads a
    contiguous copy, ``take`` of an index array or a copied view of a
    slice, so it gets the same operands and the same bits."""
    rows = s @ (array[idx].copy() if type(idx) is slice else array.take(idx, 0))
    array[idx] = rows
    return rows


def _apply_cov(cov, s, idx):
    """Apply ``s`` in place to rows and columns ``idx`` of a finite, exactly
    symmetric ``cov``, keeping it so: the whole update ``C -> S C S^T``.
    The new rows ``R = s C[idx]`` get their ``2k x 2k`` block replaced by
    ``K = R[:, idx] s^T`` averaged as ``K/2 + K^T/2``, and are written as
    rows and, transposed, as columns. Raise ValueError if a new row is not
    finite. Operands are contiguous copies, as in :func:`_apply_rows`."""
    if type(idx) is slice:
        rows = s @ cov[idx].copy()
        block = rows[:, idx].copy() @ s.T
    else:
        rows = s @ cov.take(idx, 0)
        block = rows.take(idx, 1) @ s.T
    half = 0.5 * block
    rows[:, idx] = half + half.T
    if np.count_nonzero(np.isfinite(rows)) != rows.size:
        raise ValueError("covariance must be finite")
    cov[idx] = rows
    cov[:, idx] = rows.T


def _unchecked_state(n_modes, **array):
    """The state held by ``cov=`` or ``factor=`` an array that already
    passes the full check, built without repeating it or copying it."""
    state = object.__new__(GaussianState)
    state.__dict__.update(n_modes=n_modes, **array)
    return state


def _marginal(state, rows):
    """The marginal of ``state`` on ``k`` of its modes, whose quadrature
    rows ``rows`` come from :func:`_step_rows`: the ``2k x 2k`` covariance
    block on those rows, without a factor. That block is the whole
    marginal, as a state has no mean.

    A slice's block is a view of ``state``'s covariance, so the marginal
    must not be changed in place; an index array's is a copy. Every entry
    of the block is an entry of a checked, exactly symmetric covariance, so
    the block passes the full check and is not checked again."""
    if type(rows) is slice:
        cov = state.cov[rows, rows]
    else:
        cov = state.cov[np.ix_(rows, rows)]
    return _unchecked_state(len(cov) // 2, cov=cov)


@np.errstate(over="ignore", invalid="ignore")
def _apply_steps(state, steps):
    """Fold ``(transform, modes)`` steps, nonempty and with valid modes, into
    one copy of ``state``, bit-equal to folding :func:`apply_symplectic`.

    A state held by its factor ``S`` has only the rows of ``S`` updated, and
    the result is held by ``S`` too. The squared norms of a step's new rows
    are the matching diagonal entries of ``S S^T`` and bound every entry of
    their rows, so a step is rejected, as the covariance check would reject
    it, if one of them is not finite. A state held by its covariance has
    the rows and columns of each step updated by :func:`_apply_cov`. An
    overflowing product raises that ValueError, not numpy's warning."""
    n = state.n_modes
    factor = state.factor
    if factor is not None:
        factor = factor.copy()
        for transform, modes in steps:
            rows = _apply_rows(factor, transform.matrix, _step_rows(n, modes))
            if not math.isfinite(np.einsum("ij,ij->i", rows, rows).max()):
                raise ValueError("covariance must be finite")
        return _unchecked_state(n, factor=factor)
    cov = state.cov.copy()
    for transform, modes in steps:
        _apply_cov(cov, transform.matrix, _step_rows(n, modes))
    return _unchecked_state(n, cov=cov)


def apply_symplectic(state, transform, modes=None):
    """Apply a symplectic transform to an ordered subset of modes.

    The transform is embedded as the identity on all other modes. The call
    makes one copy of the symplectic factor if the state carries one, and
    of the covariance otherwise; beyond that copy only the ``k`` touched
    modes' rows of the factor, or rows and columns of the covariance, are
    recomputed, in ``O(k * N)`` rather than a full ``2N x 2N`` matrix
    product or validation pass: the covariance's columns are written as
    its new rows transposed, and only the new rows' finiteness is checked.

    Args:
        state (GaussianState): input state
        transform (SymplecticTransform): element acting on ``len(modes)`` modes
        modes (sequence[int]): target modes, in the transform's own mode
            order; defaults to ``range(transform.n_modes)``

    Returns:
        GaussianState: the transformed state

    Raises:
        FieldError: naming ``modes``, if they are not an iterable of
            ``transform.n_modes`` distinct integer indices of the state.
        ValueError: if a new row of the factor or covariance is not finite.
    """
    if modes is None:
        modes = range(transform.n_modes)
    modes = _modes(modes, state.n_modes, transform.n_modes)
    return _apply_steps(state, ((transform, modes),))


def _factor_variance(state, witness):
    """``|S_s^T w_s|^2 / |w|^2``: the normalized variance of ``witness`` on
    a state held by a symplectic factor ``S`` of its covariance, read from
    the rows ``S_s`` of its nonzero coefficients ``w_s``, at most ``2k`` for
    ``k`` support modes, as one plain product in ``O(k * N)``. A wire's
    factor is a passive matrix times ``e^{+-r}``, so its rows are accurate
    to a few ``eps`` at every ``r`` (README, numerical limits)."""
    witness.support(state.n_modes)  # checks the mode count
    rows = np.flatnonzero(witness.coeffs)
    u = witness.coeffs[rows] @ state.factor[rows]
    return float(u @ u) / witness.normalization


def witness_variance(state, witness):
    """Shot-noise-normalized variance of a witness combination.

    Evaluates ``w^T cov w / (w^T w)``, as ``|S^T w|^2 / (w^T w)`` from the
    support rows of the factor ``S`` on a state that carries one; the result
    is 1 on vacuum for every nonzero witness, and below 1 certifies
    squeezing of the combination.

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
    if state.factor is not None:
        return _factor_variance(state, witness)
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

    For any ``F`` with ``cov = F F^T`` the purity is ``1 / |det F|``. ``F``
    is the symplectic factor ``S`` a state carries while its history is
    unitary, whose purity stays accurate for strongly squeezed states;
    otherwise it is the Cholesky factor of the covariance. That purity's
    accuracy is limited by ``eps * cond(C)``: rounding the covariance to
    float64 already moves its purity by that much, so no method working on
    ``C`` alone can do better. A pure state squeezed by ``r`` has
    ``cond(C) ~ e^{4r}``, which puts the error near 1e-8 around ``r = 4-5``.

    Args:
        state (GaussianState): a physical state

    Returns:
        float: purity in (0, 1]

    Raises:
        ValueError: without a factor, for a covariance not positive definite.
    """
    factor = state.factor
    if factor is None:
        try:
            factor = np.linalg.cholesky(state.cov)
        except np.linalg.LinAlgError as exc:
            raise ValueError(
                "covariance matrix is singular or not positive"
            ) from exc
    return float(np.exp(-np.linalg.slogdet(factor)[1]))
