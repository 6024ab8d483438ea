"""Homodyne noise models: closed forms and simulated measurement.

All variances are normalized to shot noise. The central closed form is the
noise of the two-mode intensity-difference (or phase-sum) measurement behind
a phase-insensitive amplifier of gain G seen through detector efficiency eta:

    variance = 1 + 2 eta (G - 1 - sqrt(G (G - 1)))

which equals ``1 + eta (e^{-2r} - 1)`` under ``G = cosh^2 r``. The misaligned
model splits the local-oscillator power into an aligned part (detected at
eta_d), partially overlapped parts on stray modes (detected at reduced
eta_i), and leftover power contributing uncorrelated amplified noise. That
power bookkeeping is an :class:`OverlapSpec`, owned by this module.

:func:`measure_witness` is the simulated counterpart: it applies an explicit
loss channel to every witness mode and evaluates the covariance, and must
agree with the closed forms to near machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .elements import _fraction, _gain, loss_channel
from .gaussian import FieldError, _real, witness_variance

#: Self-consistency budget of a NoiseReport: components vs variance.
REPORT_CONSISTENCY_TOL = 1e-12

#: Absolute tolerance (per unit of total power) on the stray-power budget
#: sum(stray_powers) = total_power - aligned_power.
POWER_BUDGET_TOL = 1e-12


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


@dataclass(frozen=True)
class OverlapSpec:
    """Power bookkeeping of a misaligned local oscillator at one detector.

    ``aligned_power`` hits the intended signal mode; each entry of
    ``stray_powers`` partially overlaps one stray comb mode, detected with the
    reduced efficiency in ``stray_etas``. The remaining-power budget
    ``sum(stray_powers) = total_power - aligned_power`` always holds.

    Attributes:
        total_power (float): total LO power, positive
        aligned_power (float): power overlapped with the intended mode
        stray_powers (tuple[float]): power per stray mode
        detector_eta (float): detector efficiency for the aligned part, (0, 1]
        stray_etas (tuple[float]): effective efficiency per stray mode, each
            in [0, detector_eta)
    """

    total_power: float
    aligned_power: float
    stray_powers: tuple
    detector_eta: float
    stray_etas: tuple

    def __post_init__(self):
        total = _real("total_power", self.total_power, 0.0, open_low=True)
        aligned = _real("aligned_power", self.aligned_power, 0.0)
        stray_powers = tuple(
            _real("stray_powers", p, 0.0) for p in self.stray_powers
        )
        eta = _real("detector_eta", self.detector_eta, 0.0, 1.0, open_low=True)
        stray_etas = tuple(
            _real("stray_etas", e, 0.0, eta, open_high=True)
            for e in self.stray_etas
        )
        if aligned > total * (1 + POWER_BUDGET_TOL):
            raise FieldError("aligned_power", "exceeds total power")
        if len(stray_powers) != len(stray_etas):
            raise FieldError(
                "stray_etas",
                f"need one efficiency per stray mode: {len(stray_etas)} "
                f"efficiencies for {len(stray_powers)} stray powers",
            )
        budget = total - aligned
        if abs(sum(stray_powers) - budget) > POWER_BUDGET_TOL * max(
            1.0, total
        ):
            raise FieldError(
                "stray_powers",
                f"sum to {sum(stray_powers)}, expected {budget} (total minus "
                "aligned)",
            )
        object.__setattr__(self, "stray_powers", stray_powers)
        object.__setattr__(self, "stray_etas", stray_etas)

    @classmethod
    def from_misalignment(cls, total_power, misalignment, detector_eta,
                          stray_etas):
        """Keep ``1 - misalignment`` (in [0, 1]) of ``total_power`` on the
        target mode and split the rest equally over the stray modes, which
        must exist when ``misalignment > 0``; the budget holds by
        construction."""
        total_power = _real("total_power", total_power, 0.0, open_low=True)
        misalignment = _fraction("misalignment", misalignment)
        stray_etas = tuple(stray_etas)
        if misalignment > 0.0 and not stray_etas:
            raise FieldError(
                "stray_etas",
                "at least one stray mode is required when misalignment > 0",
            )
        k = len(stray_etas)
        share = misalignment * total_power / k if k else 0.0
        return cls(
            total_power=total_power,
            aligned_power=(1.0 - misalignment) * total_power,
            stray_powers=(share,) * k,
            detector_eta=detector_eta,
            stray_etas=stray_etas,
        )


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
