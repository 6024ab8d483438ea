"""Cluster-state construction, witnesses, and graph extraction.

Two graph structures appear here. The amplified comb is an EPR graph: one
unit-weight edge per probe/conjugate pair. Interfering the halves of a chain
of EPR sources on balanced beam splitters produces the dual-rail quantum
wire; after a -pi/2 quadrature rotation on alternate beam-splitter output
pairs the wire is a weighted cluster state whose interior edges carry weight
+-1/2 (the two chain-end modes attach with weight +-1/sqrt(2)).

Graphs use the complex-adjacency convention ``Z = U + iV``: a pure Gaussian
state with covariance blocks ``Cxx, Cxp, Cpp`` corresponds to the graph with
``V = Cxx^{-1}`` and ``U = Cxp^T Cxx^{-1}``, and its nullifier combinations
``p - Z x`` have vanishing mean-square residual. The real part ``U`` holds
the reported edge weights; the imaginary part encodes finite squeezing and
vanishes in the infinite-squeezing limit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .elements import (
    _squeezing,
    balanced_beamsplitter,
    phase_shift,
    two_mode_squeezer,
)
from .gaussian import (
    MAX_MODES,
    FieldError,
    GaussianState,
    Witness,
    _apply_steps,
    _integer,
    _mode,
    purity,
    vacuum_state,
)

#: States with purity below 1 - PURITY_TOL have no pure-graph description.
PURITY_TOL = 1e-6

#: Real edge weights below this threshold are omitted from reported edge lists.
EDGE_WEIGHT_THRESHOLD = 1e-6

#: Allowed quadrature relabeling conventions for the dual-rail wire.
PHASE_CONVENTIONS = ("odd_mode_minus_half_pi", "none")

#: Signs of the squeezed (x, p) combinations of an interior wire link on its
#: modes, :func:`_interior_terms`.
_INTERIOR_SIGNS = ((1.0, 1.0, -1.0, 1.0), (1.0, 1.0, 1.0, -1.0))

_SQRT2 = math.sqrt(2.0)


class NotAGraphStateError(ValueError):
    """Raised when a state admits no pure graph-state description."""


@dataclass(frozen=True, eq=False)
class GraphSpec:
    """A weighted graph over modes, as a complex symmetric adjacency.

    Attributes:
        n_nodes (int): number of graph nodes (modes)
        adjacency (array[complex]): finite symmetric matrix ``Z = U + iV``;
            for a graph extracted from a physical finite-squeezing state the
            diagonal imaginary parts are positive, while ideal
            infinite-squeezing graphs are purely real
        edges (tuple): reporting edge list ``(i, j, weight)`` over node pairs
            ``i < j`` whose real weight exceeds
            :data:`EDGE_WEIGHT_THRESHOLD` in magnitude
    """

    n_nodes: int
    adjacency: np.ndarray
    edges: tuple = field(init=False)

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=complex)
        if adj.shape != (self.n_nodes, self.n_nodes):
            raise ValueError(
                f"adjacency must be {self.n_nodes}x{self.n_nodes}, got {adj.shape}"
            )
        if not np.isfinite(adj).all():
            raise ValueError("adjacency entries must be finite")
        asym = np.abs(adj - adj.T).max() if self.n_nodes else 0.0
        if asym > 1e-10:
            raise ValueError(f"adjacency must be symmetric; asymmetry {asym:.3e}")
        adj = 0.5 * (adj + adj.T)
        heavy = abs(adj.real) > EDGE_WEIGHT_THRESHOLD
        rows, cols = np.nonzero(np.triu(heavy, 1))
        edges = tuple(zip(rows.tolist(), cols.tolist(),
                          adj.real[rows, cols].tolist()))
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "edges", edges)


@dataclass(frozen=True)
class DualRailSpec:
    """Parameters of a dual-rail quantum wire.

    Attributes:
        n_pairs (int): number of EPR sources, at least 2 and at most
            ``MAX_MODES / 2``
        r (float): squeezing parameter shared by all sources, in
            [0, MAX_SQUEEZING]
        phase_convention (str): "odd_mode_minus_half_pi" applies the -pi/2
            rotation that brings the wire to cluster (graph) form; "none"
            leaves the raw beam-splitter outputs
    """

    n_pairs: int
    r: float
    phase_convention: str = "odd_mode_minus_half_pi"

    def __post_init__(self):
        n_pairs = _integer("n_pairs", self.n_pairs, 2, MAX_MODES // 2)
        object.__setattr__(self, "n_pairs", n_pairs)
        object.__setattr__(self, "r", _squeezing(self.r))
        if self.phase_convention not in PHASE_CONVENTIONS:
            raise FieldError(
                "phase_convention",
                f"must be one of {PHASE_CONVENTIONS}, "
                f"got {self.phase_convention!r}",
            )


def _rotated_modes(n_pairs):
    """Modes carrying the -pi/2 rotation under "odd_mode_minus_half_pi".

    Sources emit into modes (2k, 2k+1); beam splitter link k mixes modes
    (2k+1, 2k+2). Counting the wire along its macronodes (the beam-splitter
    output pairs), the odd macronodes are the outputs of every other link:
    modes congruent to 1 or 2 mod 4. Rotating exactly those modes is what
    turns the wire into a real-weighted cluster state; the two chain-end
    modes are left untouched.
    """
    return tuple(m for m in range(2 * n_pairs) if m % 4 in (1, 2))


def _terms(quad, coeffs):
    """Sparse ``{(mode, quad): coefficient}`` terms of ``(mode, coeff)``
    pairs."""
    return {(m, quad): c for m, c in coeffs}


def _interior_terms(wire_position):
    """The x- and p-terms, signed by :data:`_INTERIOR_SIGNS`, of interior
    link ``wire_position`` on its modes ``(2k-1, 2k, 2k+1, 2k+2)``,
    ``k = wire_position + 1``."""
    modes = range(2 * wire_position + 1, 2 * wire_position + 5)
    x_signs, p_signs = _INTERIOR_SIGNS
    return _terms("x", zip(modes, x_signs)), _terms("p", zip(modes, p_signs))


def _wire_terms(n_pairs):
    """Squeezed quadrature combinations of the beam-splitter-output wire.

    Returns ``(label, terms)`` pairs, ``terms`` mapping ``(mode, "x"|"p")``
    to a coefficient, before any phase relabeling. Each combination has
    vacuum variance 4 and variance ``4 e^{-2r}`` on the wire, so the
    normalized witness variance is ``e^{-2r}``. Interior source k
    contributes the four-mode x- and p-combinations of
    :data:`_INTERIOR_SIGNS` on modes (2k-1 .. 2k+2); the chain ends
    contribute three-mode combinations with a sqrt(2) weight on the unmixed
    end modes.
    """
    last = 2 * n_pairs - 1
    out = [
        ("left_x", _terms("x", [(0, _SQRT2), (1, -1.0), (2, 1.0)])),
        ("left_p", _terms("p", [(0, _SQRT2), (1, 1.0), (2, -1.0)])),
    ]
    for position in range(n_pairs - 2):
        x, p = _interior_terms(position)
        out += [(f"interior{position}_x", x), (f"interior{position}_p", p)]
    ends = [(last - 2, 1.0), (last - 1, 1.0)]
    out += [("right_x", _terms("x", [*ends, (last, -_SQRT2)])),
            ("right_p", _terms("p", [*ends, (last, _SQRT2)]))]
    return out


def _relabel(terms, rotated):
    """Rewrite ``terms`` after -pi/2 rotations of the modes in the set
    ``rotated``.

    The rotation maps operators as x -> -p, p -> x on each rotated mode, so
    a combination keeps its value when an x-term keeps its coefficient on p
    and a p-term moves to x negated.
    """
    out = {}
    for (m, quad), c in terms.items():
        if m not in rotated:
            out[m, quad] = c
        elif quad == "x":
            out[m, "p"] = c
        else:
            out[m, "x"] = -c
    return out


def _witnesses(n_pairs, phase_convention):
    """Labeled witnesses of :func:`_wire_terms`, relabeled for the phase
    convention."""
    rotated = set()
    if phase_convention == "odd_mode_minus_half_pi":
        rotated = set(_rotated_modes(n_pairs))
    return [(label, Witness.from_terms(2 * n_pairs, _relabel(terms, rotated)))
            for label, terms in _wire_terms(n_pairs)]


def build_dual_rail(spec):
    """Build the dual-rail wire state.

    Allocates ``2 * n_pairs`` modes; squeezes source pairs (2k, 2k+1);
    interferes adjacent source halves (2k+1, 2k+2) on balanced beam
    splitters; then applies the -pi/2 rotations selected by the spec's phase
    convention. The steps fold into one working copy of the vacuum.

    Args:
        spec (DualRailSpec): wire parameters

    Returns:
        GaussianState: the wire state
    """
    steps = []
    if spec.r > 0:
        squeezer = two_mode_squeezer(spec.r)
        steps += [(squeezer, (2 * k, 2 * k + 1)) for k in range(spec.n_pairs)]
    splitter = balanced_beamsplitter()
    steps += [(splitter, (2 * k + 1, 2 * k + 2))
              for k in range(spec.n_pairs - 1)]
    if spec.phase_convention == "odd_mode_minus_half_pi":
        rotation = phase_shift(-math.pi / 2)
        steps += [(rotation, (m,)) for m in _rotated_modes(spec.n_pairs)]
    return _apply_steps(vacuum_state(2 * spec.n_pairs), steps)


def ideal_wire_graph(n_pairs):
    """Infinite-squeezing graph of the dual-rail wire in cluster form.

    Solves the nullifier system: stacking the squeezed combinations of
    :func:`_wire_terms` (rewritten through the -pi/2 relabeling) as rows
    ``a . x + b . p -> 0`` and eliminating p gives the real adjacency
    ``Z = -B^{-1} A``.

    The graph is that of the wire in cluster form (convention
    "odd_mode_minus_half_pi"). Graphs of finite-r states from
    :func:`build_dual_rail` extracted with :func:`extract_graph` converge to
    it as r grows. Under convention "none" the state differs only by the
    local quadrature relabeling.

    Returns:
        GraphSpec: real adjacency with interior weights +-1/2 and end-mode
        weights +-1/sqrt(2)
    """
    n_pairs = _integer("n_pairs", n_pairs, 2, MAX_MODES // 2)
    n_modes = 2 * n_pairs
    rows = np.array([
        w.coeffs for _, w in _witnesses(n_pairs, "odd_mode_minus_half_pi")
    ])
    adjacency = -np.linalg.solve(rows[:, n_modes:], rows[:, :n_modes])
    adjacency = 0.5 * (adjacency + adjacency.T)
    return GraphSpec(n_modes, adjacency.astype(complex))


def wire_witnesses(spec):
    """All entanglement witnesses of a wire, adapted to its convention.

    Every returned witness has normalized variance ``e^{-2r}`` on the state
    from :func:`build_dual_rail` with the same spec, and 1 on vacuum. The
    terms are rewritten through the spec's phase relabeling so the measured
    physical combination is identical for both conventions.

    Returns:
        tuple[tuple[str, Witness], ...]: labeled witnesses in wire order:
        left boundary pair, interior pairs, right boundary pair
    """
    return tuple(_witnesses(spec.n_pairs, spec.phase_convention))


def witness_pair(wire_position, n_pairs):
    """The four-mode x-type and p-type witnesses of one interior wire link.

    Interior link ``wire_position`` sits on source ``wire_position + 1`` and
    involves modes ``(2k-1, 2k, 2k+1, 2k+2)`` with ``k = wire_position + 1``;
    positions run from 0 to ``n_pairs - 3``, so a wire needs at least three
    sources to have an interior link. Coefficients refer to the raw
    beam-splitter-output quadratures (phase convention "none"): x-signs
    (+1, +1, -1, +1) and p-signs (+1, +1, +1, -1), the combinations whose
    variance decays as ``e^{-2r}``. The pair is the ``interior{position}``
    witnesses of :func:`wire_witnesses` under convention "none".

    Args:
        wire_position (int): interior link index, 0-based
        n_pairs (int): number of EPR sources of the wire, at least 2 and at
            most ``MAX_MODES / 2``

    Returns:
        tuple[Witness, Witness]: the (x-type, p-type) witnesses, vacuum
        variance 4 each before normalization
    """
    n_pairs = _integer("n_pairs", n_pairs, 2, MAX_MODES // 2)
    if isinstance(wire_position, bool) or not isinstance(
        wire_position, numbers.Integral
    ):
        raise ValueError(
            f"wire position must be an integer, got {wire_position!r}"
        )
    if not 0 <= wire_position <= n_pairs - 3:
        raise ValueError(
            f"wire position {wire_position} is not an interior link of a "
            f"{n_pairs}-source wire (valid: 0 .. {n_pairs - 3})"
        )
    return tuple(Witness.from_terms(2 * n_pairs, terms)
                 for terms in _interior_terms(wire_position))


def bipartite_graph(comb):
    """EPR graph of an amplified comb: one unit edge per probe/conjugate pair.

    In probe-major mode ordering the adjacency is block-antidiagonal — all
    coupling sits between the probe and conjugate bands, none within a band.

    Args:
        comb (SpatialComb): the comb

    Returns:
        GraphSpec: real adjacency with weight-1 pair edges
    """
    adjacency = np.zeros((comb.n_modes, comb.n_modes), dtype=complex)
    for p, q in comb.pairs:
        adjacency[p, q] = adjacency[q, p] = 1.0
    return GraphSpec(comb.n_modes, adjacency)


def extract_graph(state):
    """Fit the graph description of a pure Gaussian state.

    Computes ``V = Cxx^{-1}`` and ``U = Cxp^T Cxx^{-1}`` from the covariance
    blocks (symmetrizing against roundoff) and returns ``Z = U + iV``. The
    fit quality is quantified by :func:`nullifier_residual`, which vanishes
    for exactly pure states.

    Args:
        state (GaussianState): a pure state (purity within 1e-6 of 1)

    Returns:
        GraphSpec: the state's graph

    Raises:
        NotAGraphStateError: if the state is mixed or its x-block covariance
            is singular.
    """
    p = purity(state)
    if p < 1.0 - PURITY_TOL:
        raise NotAGraphStateError(
            f"state has purity {p:.8f}; no pure graph description exists"
        )
    n = state.n_modes
    cxx = state.cov[:n, :n]
    cxp = state.cov[:n, n:]
    try:
        v = np.linalg.inv(cxx)
    except np.linalg.LinAlgError as exc:
        raise NotAGraphStateError(
            "x-quadrature covariance block is singular"
        ) from exc
    u = cxp.T @ v
    u = 0.5 * (u + u.T)
    v = 0.5 * (v + v.T)
    return GraphSpec(n, u + 1j * v)


def nullifier_residual(state, graph):
    """Frobenius norm of the mean-square nullifier defect.

    For adjacency ``Z`` the nullifiers are the combinations ``p - Z x``;
    their mean-square matrix on the state is
    ``Cpp - Z Cxx Z^dagger`` (Hermitian part), which is zero exactly when
    the state is the pure graph state of ``Z``.

    Args:
        state (GaussianState): state to test
        graph (GraphSpec): candidate graph, same mode count

    Returns:
        float: Frobenius norm of the residual matrix
    """
    if graph.n_nodes != state.n_modes:
        raise ValueError(
            f"graph has {graph.n_nodes} nodes but the state has "
            f"{state.n_modes} modes"
        )
    n = state.n_modes
    cxx = state.cov[:n, :n]
    cpp = state.cov[n:, n:]
    z = graph.adjacency
    residual = cpp - z @ cxx @ z.conj().T
    residual = 0.5 * (residual + residual.conj().T)
    return float(np.linalg.norm(residual))


def condition_on_homodyne(state, mode, quadrature, outcome):
    """Condition a state on a homodyne measurement of one quadrature.

    The measured mode is removed; remaining modes keep their order with
    indices above ``mode`` shifted down by one. The covariance update is the
    Schur complement on the measured row/column and is independent of the
    outcome; only the conditional mean depends on it.

    Args:
        state (GaussianState): state to measure, at least two modes
        mode (int): mode index to measure and remove
        quadrature (str): "x" or "p"
        outcome (float): measured value

    Returns:
        GaussianState: conditional state on the remaining modes, without a
        symplectic factor
    """
    n = state.n_modes
    mode = _mode(mode, n)
    if quadrature not in ("x", "p"):
        raise ValueError(f"quadrature must be 'x' or 'p', got {quadrature!r}")
    if n == 1:
        raise ValueError("cannot remove the last mode of a state")
    measured = mode if quadrature == "x" else n + mode
    keep = np.array([i for i in range(2 * n) if i not in (mode, n + mode)])

    var = state.cov[measured, measured]
    if var <= 0:
        raise ValueError(
            f"measured quadrature has nonpositive variance {var}"
        )
    cross = state.cov[keep, measured]
    cov = state.cov[np.ix_(keep, keep)] - np.outer(cross, cross) / var
    mean = state.mean[keep] + cross * (outcome - state.mean[measured]) / var
    return GaussianState(n - 1, mean, cov)
