"""Homodyne noise models: closed forms and simulated measurement.

All variances are normalized to shot noise. The central closed form is the
noise of the two-mode intensity-difference (or phase-sum) measurement behind
a phase-insensitive amplifier of gain G seen through detector efficiency eta:

    variance = 1 + 2 eta (G - 1 - sqrt(G (G - 1)))

which equals ``1 + eta (e^{-2r} - 1)`` under ``G = cosh^2 r``. The misaligned
model splits unit local-oscillator power into an aligned part (detected at
eta_d), equal partially overlapped parts on stray modes (detected at reduced
eta_i), and leftover power contributing uncorrelated amplified noise. That
bookkeeping is an :class:`OverlapSpec`, owned by this module, whose fields
are the keys of a scenario's ``detection`` section.

:func:`measure_witness` is the simulated counterpart, and must agree with
the closed forms to near machine precision. On a state held by its
covariance it applies an explicit loss channel to every witness mode and
evaluates the covariance: a Gaussian marginal is its covariance block, and
loss on a mode changes only that mode's rows and columns, so a witness on
``k`` modes is read from the ``2k x 2k`` block of its support, ``O(k^2)``
work, never a copy of the ``2N x 2N`` state. On a state held by its
symplectic factor it reads the factor's rows of the witness's nonzero
coefficients instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .elements import _fraction, _gain, loss_channel
from .gaussian import (FieldError, _factor_variance, _marginal, _real,
                       _step_rows)

#: Self-consistency budget of a NoiseReport: components vs variance.
REPORT_CONSISTENCY_TOL = 1e-12

@dataclass(frozen=True)
class NoiseReport:
    """A noise figure with its additive breakdown.

    Attributes:
        variance (float): shot-noise-normalized variance, finite and
            positive
        components (dict[str, float]): additive breakdown; the values sum
            to ``variance``, so each is finite
    """

    variance: float
    components: dict

    def __post_init__(self):
        if not 0.0 < self.variance < math.inf:
            raise ValueError(
                f"variance must be finite and positive, got {self.variance}"
            )
        total = sum(self.components.values())
        # Written as "not <=" so that a NaN component fails it.
        if not abs(total - self.variance) <= REPORT_CONSISTENCY_TOL * max(
            1.0, self.variance
        ):
            raise ValueError(
                f"components sum to {total}, expected {self.variance}"
            )
        object.__setattr__(self, "components", dict(self.components))

    @property
    def db(self):
        """``10 log10(variance)``; negative means squeezing."""
        return squeezing_db(self.variance)


def _report(components):
    return NoiseReport(math.fsum(components.values()), components)


def _gain_correlation(gain):
    """The per-unit-efficiency correlation term ``G - 1 - sqrt(G(G-1))``."""
    gain = _gain(gain)
    return gain - 1.0 - math.sqrt(gain * (gain - 1.0))


def ideal_epr_noise(gain, eta):
    """Difference-quadrature noise of an amplified pair at one efficiency.

    Evaluates ``1 + 2 eta (G - 1 - sqrt(G (G - 1)))``, the shot-noise-
    normalized variance of the x-difference (equivalently p-sum) of a
    two-mode squeezed pair of intensity gain ``G``, with both detectors at
    efficiency ``eta``.

    Args:
        gain (float): intensity gain, in [1, MAX_GAIN]
        eta (float): detector efficiency, in [0, 1]

    Returns:
        NoiseReport: variance with components ``shot_noise`` (1) and
        ``gain_correlation`` (the negative squeezing term)
    """
    correlation = 2.0 * _fraction("eta", eta) * _gain_correlation(gain)
    return _report({"shot_noise": 1.0, "gain_correlation": correlation})


@dataclass(frozen=True)
class OverlapSpec:
    """A misaligned local oscillator at one detector, at unit LO power.

    This is the ``detection`` section of a scenario, field for field.
    ``1 - misalignment`` of the LO power hits the intended signal mode; the
    rest is split equally over the stray comb modes, one per entry of
    ``stray_etas``, each detected with that reduced efficiency.

    Attributes:
        misalignment (float): LO power off the intended mode, in [0, 1];
            above 0 it needs at least one stray mode
        eta_d (float): detector efficiency for the aligned part, in (0, 1]
        stray_etas (tuple[float]): effective efficiency per stray mode, a
            list or tuple of numbers, each in [0, eta_d)
    """

    misalignment: float = 0.0
    eta_d: float = 1.0
    stray_etas: tuple = ()

    def __post_init__(self):
        if not isinstance(self.stray_etas, (list, tuple)):
            raise FieldError("stray_etas", "must be a list of numbers")
        misalignment = _fraction("misalignment", self.misalignment)
        if misalignment > 0.0 and not self.stray_etas:
            raise FieldError(
                "stray_etas",
                "at least one stray mode is required when misalignment > 0",
            )
        eta = _real("eta_d", self.eta_d, 0.0, 1.0, open_low=True)
        stray_etas = tuple(
            _real("stray_etas", e, 0.0, eta, open_high=True)
            for e in self.stray_etas
        )
        object.__setattr__(self, "misalignment", misalignment)
        object.__setattr__(self, "eta_d", eta)
        object.__setattr__(self, "stray_etas", stray_etas)

    @property
    def stray_power(self):
        """LO power on each stray mode: ``misalignment / len(stray_etas)``,
        0.0 without strays."""
        k = len(self.stray_etas)
        return self.misalignment / k if k else 0.0


def misaligned_noise(spec, gain):
    """Noise of a misaligned local oscillator, from its overlap bookkeeping.

    Three kinds of terms, each weighted by its share of the unit LO power:

    * the aligned share ``1 - misalignment`` sees the full correlation at
      ``eta_d``;
    * each stray share ``stray_power`` still sees the correlation, but at
      the reduced efficiency ``stray_etas[i]``;
    * per stray mode, the power not accounted for by the aligned part and
      that stray, ``1 - (1 - misalignment) - stray_power``, detects
      uncorrelated amplified vacuum with excess noise ``1 + 2 eta_i (G-1)``.

    With a single stray mode the excess term vanishes identically (the
    aligned and stray shares then exhaust the power); it grows with the
    number of stray modes.

    Args:
        spec (OverlapSpec): the detector's LO overlap
        gain (float): intensity gain, in [1, MAX_GAIN]

    Returns:
        NoiseReport: variance with components ``aligned``, ``overlap{i}``
        and ``excess{i}`` per stray mode
    """
    correlation = _gain_correlation(gain)
    aligned = 1.0 - spec.misalignment
    share = spec.stray_power
    leftover = 1.0 - aligned - share
    components = {"aligned": aligned * (1.0 + 2.0 * spec.eta_d * correlation)}
    for i, eta_i in enumerate(spec.stray_etas):
        components[f"overlap{i}"] = share * (1.0 + 2.0 * eta_i * correlation)
        components[f"excess{i}"] = leftover * (
            1.0 + 2.0 * eta_i * (gain - 1.0)
        )
    return _report(components)


def measure_witness(state, witness, eta_d):
    """Simulate a balanced homodyne witness measurement at finite efficiency.

    A loss of transmission ``eta_d`` on every support mode leaves a
    witness's variance ``v`` at ``eta_d * v + (1 - eta_d)``. On a state
    held by its symplectic factor ``S``, that is the result, with
    ``v = |w_s^T S_s|^2 / (w^T w)`` read from the rows ``S_s`` of the
    nonzero witness coefficients ``w_s``, at most ``2k`` on ``k`` modes:
    ``O(k * N)`` work, no marginal and no loss channel, as one plain
    product. A wire's factor gives its rows to a few ``eps`` at every
    ``r``; one folded from ``two_mode_squeezer`` leaves about
    ``eps * e^{2r}`` of the value on a state squeezed by ``r``.

    On a state held by its covariance, such as the command line's comb
    vacuum and every state after a loss, it takes the marginal of ``state``
    on the support, its ``2k x 2k`` covariance block (a view of the state's
    covariance when the support's quadrature rows are evenly spaced, as for
    a one-cell comb pair). A support of every mode, as on noise-table's
    two-mode states, is its own marginal: the state itself is read.
    Applies a loss channel of transmission ``eta_d`` to every mode of that
    marginal, then evaluates ``w_s^T C_s w_s / (w^T w)``, which loses about
    ``eps * e^{4r}`` of the value. The entries of the block are
    computed exactly as on the full state, so a witness of two unit terms,
    as every comb row, reads the same bits; another may differ in its
    summation order. For the x-difference witness of an amplified pair
    this agrees with :func:`ideal_epr_noise` to near machine precision.

    Args:
        state (GaussianState): state to measure
        witness (Witness): quadrature combination
        eta_d (float): detector efficiency, in [0, 1]

    Returns:
        NoiseReport: variance with components ``attenuated_signal`` and
        ``vacuum_admixture`` (the ``1 - eta_d`` vacuum fraction)

    Raises:
        FieldError: naming ``eta_d`` if it is not a number in [0, 1].
    """
    eta_d = _fraction("eta_d", eta_d)
    vacuum = 1.0 - eta_d
    if state.factor is not None:
        variance = eta_d * _factor_variance(state, witness) + vacuum
    else:
        support = witness.support(state.n_modes)
        if len(support) == state.n_modes:
            lossy, w = state, witness.coeffs
        else:
            rows = _step_rows(state.n_modes, support)
            lossy, w = _marginal(state, rows), witness.coeffs[rows]
        for mode in range(lossy.n_modes):
            lossy = loss_channel(lossy, mode, eta_d)
        variance = float(w @ lossy.cov @ w) / witness.normalization
    return NoiseReport(
        variance=variance,
        components={
            "attenuated_signal": variance - vacuum,
            "vacuum_admixture": vacuum,
        },
    )


def squeezing_db(variance):
    """Express a shot-noise-normalized variance in decibels.

    Args:
        variance (float): finite, positive normalized variance

    Returns:
        float: ``10 log10(variance)``; negative values mean noise below
        shot noise (squeezing)
    """
    if not 0.0 < variance < math.inf:
        raise ValueError(
            f"variance must be finite and positive, got {variance}"
        )
    return 10.0 * math.log10(variance)
