"""Elementary Gaussian optical operations.

Factories for the building blocks every network in this package is composed
from: the phase-insensitive two-mode amplifier (a two-mode squeezer), beam
splitters, phase rotations, and the loss channel used to model detector
efficiency. All factories return :class:`~modecomb.gaussian.SymplecticTransform`
objects except :func:`loss_channel`, which is a non-unitary channel and acts
on states directly. Each factory's matrix is symplectic by construction, for
every accepted parameter, so its transform is built without the public
symplectic check or a copy; the test suite checks that every factory's
matrix passes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gaussian import (FieldError, _mode, _real, _unchecked_state,
                       _unchecked_transform)

#: Tolerance on the internal consistency gain = cosh^2(r) of an AmplifierSpec.
GAIN_CONSISTENCY_TOL = 1e-12

#: Largest accepted squeezing parameter. The float64 witness readout
#: ``w^T C w`` of a state held by its covariance, such as a comb row of
#: ``simulate``, loses about ``eps e^{4r}`` of its value: 3.3e-5 at 6.9.
#: A wire row is read from its factor, a passive matrix times ``e^{+-r}``:
#: the worst printed row of a 16-pair wire at ``eta = 1`` is 4.5e-12 off
#: from r = 4.5 to 6.9, the 12-digit print resolution. The rule stays for
#: the covariance readout.
MAX_SQUEEZING = 6.9

#: Intensity gain ``cosh^2(MAX_SQUEEZING)``, about 2.46e5.
MAX_GAIN = math.cosh(MAX_SQUEEZING) ** 2


def _squeezing(r):
    """The squeezing rule: ``r`` is a finite number in [0, MAX_SQUEEZING]."""
    return _real("r", r, 0.0, MAX_SQUEEZING)


def _gain(gain):
    """The gain rule: ``gain`` is a finite number in [1, MAX_GAIN]."""
    return _real("gain", gain, 1.0, MAX_GAIN)


def _fraction(field, value):
    """The rule of efficiencies and power fractions: a number in [0, 1]."""
    return _real(field, value, 0.0, 1.0)


@dataclass(frozen=True)
class AmplifierSpec:
    """Operating point of a phase-insensitive two-mode amplifier.

    The intensity gain and the squeezing parameter describe the same physical
    knob: ``gain = cosh^2(r)``. Both are stored so either view is available
    without recomputation, and consistency is enforced on construction. The
    amplifier is phase-insensitive: every pair is squeezed at phase 0, the
    phase its EPR witnesses and the closed-form noise read.

    Attributes:
        gain (float): intensity gain, in [1, MAX_GAIN]
        r (float): squeezing parameter, in [0, MAX_SQUEEZING]
        squeezer (SymplecticTransform): ``two_mode_squeezer(r)``, built on
            first use and then kept by this spec object; not a field, so
            equality, hashing, ``repr`` and ``dataclasses.replace`` ignore
            it
    """

    gain: float
    r: float

    def __post_init__(self):
        gain, r = _gain(self.gain), _squeezing(self.r)
        expected = math.cosh(r) ** 2
        if abs(gain - expected) > GAIN_CONSISTENCY_TOL * max(1.0, expected):
            raise FieldError(
                "gain",
                f"inconsistent amplifier spec: gain={gain} but "
                f"cosh^2(r)={expected}; build via from_gain or from_squeezing",
            )
        object.__setattr__(self, "gain", gain)
        object.__setattr__(self, "r", r)

    @classmethod
    def from_gain(cls, gain):
        """Build a spec from the intensity gain."""
        return cls(gain=gain, r=gain_to_squeezing(gain))

    @classmethod
    def from_squeezing(cls, r):
        """Build a spec from the squeezing parameter."""
        return cls(gain=squeezing_to_gain(r), r=r)

    @cached_property
    def squeezer(self):
        """The two-mode squeezer of this operating point."""
        return two_mode_squeezer(self.r)


def two_mode_squeezer(r, phase=0.0):
    """Two-mode squeezing transform on modes (a, b).

    This is the Gaussian action of a phase-insensitive amplifier: correlated
    quadratures such as ``x_a - x_b`` and ``p_a + p_b`` (for ``phase = 0``)
    have their variance multiplied by ``e^{-2r}``, while the conjugate
    combinations are anti-squeezed by ``e^{+2r}``.

    For ``phase = 0`` the action is::

        x_a' = c x_a + s x_b        p_a' = c p_a - s p_b
        x_b' = s x_a + c x_b        p_b' = -s p_a + c p_b

    with ``c = cosh r``, ``s = sinh r``. A nonzero ``phase`` rotates which
    quadrature combinations are squeezed.

    Args:
        r (float): squeezing parameter, in [0, MAX_SQUEEZING]; use
            ``phase`` rather than a negative ``r`` to flip sign conventions
        phase (float): pump phase in radians

    Returns:
        SymplecticTransform: 4x4 transform on two modes, symplectic by
        construction and built without the public check

    Raises:
        FieldError: if ``r`` or ``phase`` is out of range or not a finite
            number.
    """
    r = _squeezing(r)
    ch, sh = math.cosh(r), math.sinh(r)
    phase = _real("phase", phase)
    cp, sp = math.cos(phase), math.sin(phase)
    matrix = np.array(
        [
            [ch, sh * cp, 0.0, sh * sp],
            [sh * cp, ch, sh * sp, 0.0],
            [0.0, sh * sp, ch, -sh * cp],
            [sh * sp, 0.0, -sh * cp, ch],
        ]
    )
    return _unchecked_transform(matrix, 2)


def _squeezed_vacuum(n_modes, r, pairs):
    """The vacuum of ``n_modes`` modes with ``two_mode_squeezer(r)`` on each
    of the disjoint mode ``pairs``, held by the factor ``Q D``: the balanced
    splitter ``Q = [[1, 1], [1, -1]] / sqrt(2)`` on x and on p, times
    ``D = diag(e^r, e^{-r}; e^{-r}, e^r)``. The squeezer is ``Q D Q^T`` and
    the vacuum absorbs ``Q^T``, so no rounded ``cosh r - sinh r`` enters."""
    hi, lo = math.exp(r) / math.sqrt(2.0), math.exp(-r) / math.sqrt(2.0)
    a, b = np.array(pairs).T
    factor = np.eye(2 * n_modes)
    for x, y, d_x, d_y in ((a, b, hi, lo), (n_modes + a, n_modes + b, lo, hi)):
        factor[x, x], factor[x, y] = d_x, d_y
        factor[y, x], factor[y, y] = d_x, -d_y
    return _unchecked_state(n_modes, factor=factor)


def beamsplitter(theta, phi=0.0):
    """Beam splitter transform on modes (a, b).

    ``theta`` sets the mixing angle (transmission amplitude ``cos theta``)
    and ``phi`` the relative phase picked up on reflection. The balanced,
    real convention is ``theta = pi/4, phi = 0``, mixing::

        x_a' = (x_a + x_b)/sqrt(2)      x_b' = (-x_a + x_b)/sqrt(2)

    and identically for p. The matrix is orthogonal as well as symplectic.

    Args:
        theta (float): mixing angle in radians
        phi (float): reflection phase in radians

    Returns:
        SymplecticTransform: 4x4 passive transform on two modes, built
        without the public check
    """
    theta, phi = _real("theta", theta), _real("phi", phi)
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    matrix = np.array(
        [
            [ct, st * cp, 0.0, -st * sp],
            [-st * cp, ct, -st * sp, 0.0],
            [0.0, st * sp, ct, st * cp],
            [st * sp, 0.0, -st * cp, ct],
        ]
    )
    return _unchecked_transform(matrix, 2)


def phase_shift(phi):
    """Single-mode phase-space rotation by ``phi``.

    Rotates the quadratures as ``x' = x cos phi + p sin phi`` and
    ``p' = -x sin phi + p cos phi``; ``phi = -pi/2`` relabels
    ``x -> -p, p -> x``.

    Args:
        phi (float): rotation angle in radians

    Returns:
        SymplecticTransform: 2x2 transform on one mode, built without the
        public check
    """
    phi = _real("phi", phi)
    c, s = math.cos(phi), math.sin(phi)
    matrix = np.array([[c, s], [-s, c]])
    return _unchecked_transform(matrix, 1)


def loss_channel(state, mode, eta):
    """Mix one mode with vacuum, keeping a fraction ``eta`` of the signal.

    On the selected mode the covariance blocks update as
    ``cov -> eta * cov + (1 - eta) * I`` with cross-correlations to other
    modes scaled by ``sqrt(eta)``. That is the whole update: a state has no
    mean to scale. This is the standard model for detector efficiency and
    propagation loss.

    The mode's x and p rows, ``mode`` and ``n + mode``, are addressed as the
    basic slice ``slice(mode, None, n)`` and scaled through views of a copy
    of the state's covariance, bit for bit as with an index array. The two
    diagonal entries are updated one by one: for two entries, scalar
    indexing costs less than a strided view. An entry and its transpose
    are scaled alike and ``sqrt(eta) <= 1``, so a finite, exactly symmetric
    covariance stays so, and the result needs no check.

    Args:
        state (GaussianState): input state
        mode (int): mode index to attenuate
        eta (float): transmitted fraction, in [0, 1]; ``eta = 1`` is the
            identity and ``eta = 0`` resets the mode to vacuum

    Returns:
        GaussianState: the attenuated state, without a symplectic factor

    Raises:
        ValueError: if ``mode`` is not an integer index of the state.
    """
    eta = _fraction("eta", eta)
    n = state.n_modes
    mode = _mode(mode, n)
    root = math.sqrt(eta)
    rows = slice(mode, None, n)  # rows mode and n + mode, read as views
    cov = state.cov.copy()
    cov[rows] *= root
    cov[:, rows] *= root
    cov[mode, mode] += 1.0 - eta
    cov[n + mode, n + mode] += 1.0 - eta
    return _unchecked_state(n, cov=cov)


def gain_to_squeezing(gain):
    """Squeezing parameter of a phase-insensitive amplifier of given gain.

    Inverts ``gain = cosh^2(r)``; exact inverse of :func:`squeezing_to_gain`
    to within 1e-12 round-trip error.

    Args:
        gain (float): intensity gain, in [1, MAX_GAIN]

    Returns:
        float: squeezing parameter ``r = arccosh(sqrt(gain))``
    """
    return math.acosh(math.sqrt(_gain(gain)))


def squeezing_to_gain(r):
    """Intensity gain ``cosh^2(r)`` of an amplifier at squeezing ``r``."""
    return math.cosh(_squeezing(r)) ** 2
