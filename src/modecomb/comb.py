"""Spatial mode comb: amplifier modes paired across a constant-gain circle.

A comb is a family of discrete spatial modes (coherence areas) arranged on a
constant-gain circle of a phase-insensitive amplifier. Each cell's ring
splits into a probe half and a conjugate half; the amplifier entangles each
probe with the diametrically opposite conjugate, at one gain for every pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .elements import AmplifierSpec
from .gaussian import MAX_MODES, FieldError, Witness, _integer, apply_symplectic


@dataclass(frozen=True)
class SpatialComb:
    """A comb of ``M`` modes per cell on the constant-gain circle.

    Global mode index ``c * M + m`` is ring position ``m`` of cell ``c``.
    Ring positions ``0 .. M/2-1`` are probe modes, ``M/2 .. M-1`` conjugate
    modes; probe ``m`` pairs with the diametrically opposite conjugate
    ``m + M/2``, and every pair sees the one amplifier operating point
    ``amp``.

    Attributes:
        M (int): modes per cell; even, at least 2
        amp (AmplifierSpec): amplifier operating point shared by all pairs
        cells (int): number of independent gain regions, at least 1, with
            ``M * cells`` at most ``MAX_MODES``
        pairs (tuple): ``(probe, conjugate)`` global indices of each pair,
            cell-major, ring order inside each cell; derived
    """

    M: int
    amp: AmplifierSpec
    cells: int = 1
    pairs: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        M = _integer("M", self.M, 2, MAX_MODES)
        if M % 2 != 0:
            raise FieldError("M", f"mode count per cell must be even, got {M}")
        cells = _integer("cells", self.cells, 1, MAX_MODES // M)
        if not isinstance(self.amp, AmplifierSpec):
            raise FieldError(
                "amp", f"must be an AmplifierSpec, got {type(self.amp).__name__}"
            )
        half = M // 2
        pairs = tuple((c * M + m, c * M + m + half)
                      for c in range(cells) for m in range(half))
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "pairs", pairs)

    @property
    def n_modes(self):
        return self.M * self.cells

    @property
    def n_pairs(self):
        return len(self.pairs)


def build_comb(M, amp, cells=1):
    """Build a comb of ``M`` modes per cell sharing the operating point
    ``amp``; see :class:`SpatialComb` for the layout and the rules.

    Returns:
        SpatialComb: the comb, ``M * cells`` modes total
    """
    return SpatialComb(M, amp, cells)


def amplify_comb(state, comb):
    """Apply the comb's two-mode squeezer to each pair of the state.

    Pairs occupy disjoint modes, so the squeezers commute. Every pair
    applies the one :attr:`~modecomb.elements.AmplifierSpec.squeezer` that
    ``comb.amp`` builds on first use and keeps; at ``r = 0`` the state is
    returned as it is.

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
    if comb.amp.r != 0.0:
        for pq in comb.pairs:
            state = apply_symplectic(state, comb.amp.squeezer, pq)
    return state


def _xdiff_terms(comb):
    """Sparse terms of each pair's x-difference ``x_probe - x_conj``.

    Returns ``(label, terms)`` pairs in pair order, labelled
    ``pair{i}_xdiff``, ``terms`` mapping ``(mode, "x")`` to a coefficient.
    """
    return [(f"pair{i}_xdiff", {(p, "x"): 1.0, (q, "x"): -1.0})
            for i, (p, q) in enumerate(comb.pairs)]


def pair_witnesses(comb):
    """Per-pair EPR witnesses: (x_probe - x_conj, p_probe + p_conj).

    Both have normalized variance ``e^{-2r}`` on the amplified vacuum and 1
    on vacuum.

    Returns:
        list[tuple[Witness, Witness]]: one (x-type, p-type) pair of witnesses
        per comb pair, in pair order
    """
    n = comb.n_modes
    return [
        (Witness.from_terms(n, xdiff),
         Witness.from_terms(n, {(p, "p"): 1.0, (q, "p"): 1.0}))
        for (_, xdiff), (p, q) in zip(_xdiff_terms(comb), comb.pairs)
    ]
