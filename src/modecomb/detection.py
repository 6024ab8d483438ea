"""Homodyne noise models: closed forms and simulated measurement.

All variances are normalized to shot noise. The central closed form is the
noise of the two-mode intensity-difference (or phase-sum) measurement behind
a phase-insensitive amplifier of gain G seen through detector efficiency eta:

    variance = 1 + 2 eta (G - 1 - sqrt(G (G - 1)))

which equals ``1 + eta (e^{-2r} - 1)`` under ``G = cosh^2 r``. The misaligned
model splits the local-oscillator power into an aligned part (detected at
eta_d), partially overlapped parts on stray modes (detected at reduced
eta_i), and leftover power contributing uncorrelated amplified noise.

:func:`measure_witness` is the simulated counterpart: it applies an explicit
loss channel to every witness mode and evaluates the covariance, and must
agree with the closed forms to near machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .elements import _fraction, _gain, loss_channel
from .gaussian import witness_variance

#: Self-consistency budget of a NoiseReport: components vs variance.
REPORT_CONSISTENCY_TOL = 1e-12

#: Detector efficiency of off-the-shelf balanced homodyne components.
DEFAULT_DETECTOR_ETA = 0.95


@dataclass(frozen=True)
class NoiseReport:
    """A noise figure with its additive breakdown.

    Attributes:
        variance (float): shot-noise-normalized variance, positive
        components (dict[str, float]): additive breakdown; the values sum
            to ``variance``
    """

    variance: float
    components: dict

    def __post_init__(self):
        if self.variance <= 0.0:
            raise ValueError(f"variance must be positive, got {self.variance}")
        total = sum(self.components.values())
        if abs(total - self.variance) > REPORT_CONSISTENCY_TOL * max(
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


def misaligned_noise(spec, gain):
    """Noise of a misaligned local oscillator, from its overlap bookkeeping.

    Three kinds of terms, each weighted by its power fraction:

    * the aligned fraction ``aligned_power / total_power`` sees the full
      correlation at ``detector_eta``;
    * each stray overlap ``stray_powers[i] / total_power`` still sees the
      correlation, but at the reduced efficiency ``stray_etas[i]``;
    * per stray mode, the power not accounted for by the aligned part and
      that stray, ``(total - aligned - stray_powers[i]) / total``, detects
      uncorrelated amplified vacuum with excess noise ``1 + 2 eta_i (G-1)``.

    With a single stray mode the excess term vanishes identically (the
    aligned and stray powers then exhaust the budget); it grows with the
    number of stray modes.

    Args:
        spec (OverlapSpec): power bookkeeping (its power budget is enforced
            at construction)
        gain (float): intensity gain, in [1, MAX_GAIN]

    Returns:
        NoiseReport: variance with components ``aligned``, ``overlap{i}``
        and ``excess{i}`` per stray mode
    """
    correlation = _gain_correlation(gain)
    total = spec.total_power
    components = {
        "aligned": (spec.aligned_power / total)
        * (1.0 + 2.0 * spec.detector_eta * correlation)
    }
    for i, (power, eta_i) in enumerate(zip(spec.stray_powers, spec.stray_etas)):
        components[f"overlap{i}"] = (power / total) * (
            1.0 + 2.0 * eta_i * correlation
        )
        leftover = total - spec.aligned_power - power
        components[f"excess{i}"] = (leftover / total) * (
            1.0 + 2.0 * eta_i * (gain - 1.0)
        )
    return _report(components)


def measure_witness(state, witness, eta_d):
    """Simulate a balanced homodyne witness measurement at finite efficiency.

    Applies a loss channel of transmission ``eta_d`` to every mode in the
    witness support, then evaluates the normalized witness variance on the
    resulting covariance. For the x-difference witness of an amplified pair
    this agrees with :func:`ideal_epr_noise` to near machine precision.

    Args:
        state (GaussianState): state to measure
        witness (Witness): quadrature combination
        eta_d (float): detector efficiency, in [0, 1]

    Returns:
        NoiseReport: variance with components ``attenuated_signal`` and
        ``vacuum_admixture`` (the ``1 - eta_d`` vacuum fraction)
    """
    lossy = state
    for mode in witness.support(state.n_modes):
        lossy = loss_channel(lossy, mode, eta_d)
    variance = witness_variance(lossy, witness)
    vacuum = 1.0 - eta_d
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
        variance (float): positive normalized variance

    Returns:
        float: ``10 log10(variance)``; negative values mean noise below
        shot noise (squeezing)
    """
    if variance <= 0.0:
        raise ValueError(f"variance must be positive, got {variance}")
    return 10.0 * math.log10(variance)
