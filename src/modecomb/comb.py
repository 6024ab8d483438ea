"""Spatial mode comb: paired amplifier modes and local-oscillator bookkeeping.

A comb is a family of discrete spatial modes (coherence areas) arranged on a
constant-gain circle of a phase-insensitive amplifier. Modes split into a
probe band and a conjugate band; the amplifier entangles each probe with the
diametrically opposite conjugate. Homodyne detection of any mode combination
is described by a local oscillator, a normalized complex expansion over comb
modes; imperfect overlap between a local oscillator and the signal modes is
summarized by an :class:`OverlapSpec`, consumed by the detection module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detection import DEFAULT_DETECTOR_ETA
from .elements import _fraction
from .gaussian import (
    MAX_MODES,
    FieldError,
    GaussianState,
    Witness,
    _integer,
    _mode,
    _real,
    apply_symplectic,
)

#: Bands a comb mode can belong to.
BANDS = ("probe", "conjugate")

#: Absolute tolerance (per unit of total power) on the stray-power budget
#: sum(stray_powers) = total_power - aligned_power.
POWER_BUDGET_TOL = 1e-12


@dataclass(frozen=True)
class ModeLabel:
    """Identity of one comb mode.

    Attributes:
        ring_index (int): position on the constant-gain circle, in [0, M)
        band (str): "probe" or "conjugate"
        cell_id (int): which gain region (vapor cell) the mode belongs to
    """

    ring_index: int
    band: str
    cell_id: int = 0

    def __post_init__(self):
        if self.band not in BANDS:
            raise ValueError(f"band must be one of {BANDS}, got {self.band!r}")
        if self.ring_index < 0:
            raise ValueError(f"ring_index must be >= 0, got {self.ring_index}")
        if self.cell_id < 0:
            raise ValueError(f"cell_id must be >= 0, got {self.cell_id}")


@dataclass(frozen=True)
class SpatialComb:
    """A set of labeled comb modes with probe-conjugate pairing.

    Global mode index = position in ``modes``; modes are stored cell-major,
    ring order inside each cell. ``pairs[i]`` gives the (probe, conjugate)
    global indices of pair ``i`` and ``amps[i]`` its amplifier operating
    point. A comb built by :func:`build_comb` has one shared operating point
    per the constant-gain-circle picture; per-pair amplifiers can be set with
    :meth:`with_amplifiers`.
    """

    modes: tuple
    pairs: tuple
    amps: tuple

    def __post_init__(self):
        modes = tuple(self.modes)
        pairs = tuple(
            (_mode(p, len(modes)), _mode(q, len(modes))) for p, q in self.pairs
        )
        amps = tuple(self.amps)
        if len(amps) != len(pairs):
            raise ValueError(
                f"need one amplifier spec per pair: {len(amps)} specs for "
                f"{len(pairs)} pairs"
            )
        if len(set(modes)) != len(modes):
            raise ValueError("mode labels must be unique within a comb")
        seen = [m for pq in pairs for m in pq]
        if sorted(seen) != list(range(len(modes))):
            raise ValueError("pairs must form a perfect matching of all modes")
        for p, q in pairs:
            if modes[p].band != "probe" or modes[q].band != "conjugate":
                raise ValueError(
                    f"pair ({p}, {q}) must link a probe to a conjugate mode"
                )
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "amps", amps)

    @property
    def n_modes(self):
        return len(self.modes)

    @property
    def n_pairs(self):
        return len(self.pairs)

    @property
    def pairing(self):
        """Involution mapping each mode to its twin-beam partner."""
        partner = dict(self.pairs)
        partner.update((c, p) for p, c in self.pairs)
        return partner

    def with_amplifiers(self, amps):
        """Return a comb with per-pair amplifier operating points."""
        return SpatialComb(self.modes, self.pairs, tuple(amps))


def build_comb(M, amp, cells=1):
    """Build a comb of ``M`` modes per cell on the constant-gain circle.

    Ring positions ``0 .. M/2-1`` are probe modes, ``M/2 .. M-1`` conjugate
    modes; probe at ring position ``m`` pairs with the diametrically opposite
    conjugate at ``m + M/2``. Every pair shares the operating point ``amp``.

    Args:
        M (int): modes per cell; even, at least 2
        amp (AmplifierSpec): shared amplifier operating point
        cells (int): number of independent gain regions, at least 1, with
            ``M * cells`` at most ``MAX_MODES``

    Returns:
        SpatialComb: the comb, ``M * cells`` modes total
    """
    M = _integer("M", M, 2, MAX_MODES)
    if M % 2 != 0:
        raise FieldError("M", f"mode count per cell must be even, got {M}")
    cells = _integer("cells", cells, 1, MAX_MODES // M)
    half = M // 2
    modes = []
    pairs = []
    for c in range(cells):
        base = c * M
        for m in range(M):
            band = "probe" if m < half else "conjugate"
            modes.append(ModeLabel(ring_index=m, band=band, cell_id=c))
        pairs.extend((base + m, base + m + half) for m in range(half))
    return SpatialComb(tuple(modes), tuple(pairs), tuple([amp] * len(pairs)))


def amplify_comb(state, comb):
    """Apply each pair's two-mode squeezer to the state.

    Pairs occupy disjoint modes, so the squeezers commute and the order of
    application is irrelevant. Each pair applies its spec's
    :attr:`~modecomb.elements.AmplifierSpec.squeezer`, which a spec object
    builds on first use and keeps, so pairs and repeated calls that share a
    spec object share one squeezer. Equal specs that are distinct objects
    build one each. :func:`build_comb` and the CLI's sweep points give all
    pairs of a comb one spec object, so amplifying such a comb again builds
    no squeezer.

    Args:
        state (GaussianState): input state with one mode per comb mode
        comb (SpatialComb): the comb to amplify

    Returns:
        GaussianState: the amplified state
    """
    if state.n_modes != comb.n_modes:
        raise ValueError(
            f"state has {state.n_modes} modes but the comb has {comb.n_modes}"
        )
    for pq, amp in zip(comb.pairs, comb.amps):
        if amp.r != 0.0:
            state = apply_symplectic(state, amp.squeezer, pq)
    return state


def pair_witnesses(comb):
    """Per-pair EPR witnesses: (x_probe - x_conj, p_probe + p_conj).

    Both have normalized variance ``e^{-2r}`` on the amplified vacuum (for
    pump phase 0) and 1 on vacuum.

    Returns:
        list[tuple[Witness, Witness]]: one (x-type, p-type) pair of witnesses
        per comb pair, in pair order
    """
    n = comb.n_modes
    out = []
    for p, q in comb.pairs:
        wx = Witness.from_terms(n, {(p, "x"): 1.0, (q, "x"): -1.0})
        wp = Witness.from_terms(n, {(p, "p"): 1.0, (q, "p"): 1.0})
        out.append((wx, wp))
    return out


@dataclass(frozen=True, eq=False)
class LocalOscillator:
    """A homodyne local oscillator as a normalized expansion over comb modes.

    Attributes:
        comb (SpatialComb): the comb the expansion refers to
        coeffs (array[complex]): unit-normalized mode coefficients, given
            finite and not all zero
        power (float): total optical power, arbitrary units; a finite
            positive number
    """

    comb: SpatialComb
    coeffs: np.ndarray
    power: float = 1.0

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=complex).reshape(-1)
        if coeffs.size != self.comb.n_modes:
            raise ValueError(
                f"need one coefficient per comb mode: {coeffs.size} given, "
                f"{self.comb.n_modes} modes"
            )
        if not np.isfinite(coeffs).all():
            raise FieldError("coeffs", "must be finite")
        # Dividing the real and imaginary parts by the largest of them first
        # keeps the norm from overflowing or underflowing.
        parts = coeffs.view(float)
        scale = np.abs(parts).max()
        if scale == 0.0:
            raise ValueError("local oscillator mode shape must be nonzero")
        power = _real("power", self.power, 0.0, open_low=True)
        parts /= scale
        object.__setattr__(self, "coeffs", coeffs / np.linalg.norm(coeffs))
        object.__setattr__(self, "power", power)

    @property
    def support(self):
        """Comb mode indices carrying nonzero weight."""
        return tuple(np.nonzero(np.abs(self.coeffs) > 0)[0])


def synthesize_lo(comb, coeffs, power=1.0):
    """Build a local oscillator from an (unnormalized) mode expansion.

    Args:
        comb (SpatialComb): target comb
        coeffs (sequence[complex]): one weight per comb mode; nonzero
        power (float): total power, arbitrary units

    Returns:
        LocalOscillator: the normalized local oscillator
    """
    return LocalOscillator(comb, np.asarray(coeffs, dtype=complex), power)


def lo_overlap(a, b):
    """Hermitian inner product of two local-oscillator mode shapes.

    Both oscillators must refer to the same comb; the result has magnitude
    at most 1, with 1 meaning identical mode shapes.

    Returns:
        complex: ``<a|b>`` of the normalized coefficient vectors
    """
    if a.comb != b.comb:
        raise ValueError("local oscillators belong to different combs")
    return complex(np.vdot(a.coeffs, b.coeffs))


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


def overlap_spec_from_alignment(
    lo, target_mode, misalignment, stray_etas,
    detector_eta=DEFAULT_DETECTOR_ETA,
):
    """Turn an abstract misalignment fraction into an overlap spec.

    A fraction ``1 - misalignment`` of the LO power stays on the target
    mode; the rest is split equally over the declared stray modes. The
    power budget holds by construction.

    Args:
        lo (LocalOscillator): the oscillator being aligned
        target_mode (int): comb mode index the LO is aimed at; must carry
            nonzero LO weight
        misalignment (float): power fraction lost from the target, in [0, 1]
        stray_etas (sequence[float]): effective efficiency per stray mode,
            each below ``detector_eta``; must be nonempty when
            ``misalignment > 0``
        detector_eta (float): detector efficiency for the aligned part

    Returns:
        OverlapSpec: the resulting power bookkeeping
    """
    target_mode = _mode(target_mode, lo.comb.n_modes)
    if abs(lo.coeffs[target_mode]) == 0.0:
        raise ValueError(
            f"local oscillator has no weight on target mode {target_mode}"
        )
    return OverlapSpec.from_misalignment(
        lo.power, misalignment, detector_eta, stray_etas
    )
