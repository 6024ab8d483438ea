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
from dataclasses import dataclass, field

import numpy as np

from .elements import _squeezed_vacuum, _squeezing, beamsplitter, phase_shift
from .gaussian import (
    MAX_MODES,
    FieldError,
    Witness,
    _fold_layer,
    _integer,
    purity,
    vacuum_state,
)

#: States with purity below 1 - PURITY_TOL have no pure-graph description.
PURITY_TOL = 1e-6

#: Real edge weights below this threshold are omitted from reported edge lists.
EDGE_WEIGHT_THRESHOLD = 1e-6

#: Allowed quadrature relabeling conventions for the dual-rail wire.
PHASE_CONVENTIONS = ("odd_mode_minus_half_pi", "none")

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
        # Finite entries differing by more than the float range read as an
        # infinite asymmetry.
        with np.errstate(over="ignore"):
            asym = np.abs(adj - adj.T).max() if self.n_nodes else 0.0
        if asym > 1e-10:
            raise ValueError(f"adjacency must be symmetric; asymmetry {asym:.3e}")
        # Halved before adding, so finite entries near the float limit stay
        # finite; for normal entries the bits equal 0.5 * (adj + adj.T).
        adj = 0.5 * adj + 0.5 * adj.T
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


def _rotated_modes(spec):
    """Modes the phase convention of the wire ``spec`` rotates by -pi/2.

    None under "none". Under "odd_mode_minus_half_pi": sources emit into
    modes (2k, 2k+1); beam splitter link k mixes modes (2k+1, 2k+2).
    Counting the wire along its macronodes (the beam-splitter output
    pairs), the odd macronodes are the outputs of every other link: modes
    congruent to 1 or 2 mod 4. Rotating exactly those modes is what
    turns the wire into a real-weighted cluster state; the two chain-end
    modes are left untouched.
    """
    if spec.phase_convention == "none":
        return ()
    return tuple(m for m in range(2 * spec.n_pairs) if m % 4 in (1, 2))


def _wire_terms(n_pairs):
    """Squeezed quadrature combinations of the beam-splitter-output wire.

    Returns ``(label, quad, terms)`` triples, ``terms`` a tuple of
    ``(mode, coefficient)`` pairs on quadrature ``quad``, "x" or "p", before
    any phase relabeling. Each combination has vacuum variance 4 and
    variance ``4 e^{-2r}`` on the wire, so the normalized witness variance
    is ``e^{-2r}``. Interior source k (link ``interior{k-1}``) contributes
    four-mode combinations on modes (2k-1 .. 2k+2), with x-signs
    (+1, +1, -1, +1) and p-signs (+1, +1, +1, -1); the chain ends
    contribute three-mode combinations with a sqrt(2) weight on the unmixed
    end modes.
    """
    last = 2 * n_pairs - 1
    out = [
        ("left_x", "x", ((0, _SQRT2), (1, -1.0), (2, 1.0))),
        ("left_p", "p", ((0, _SQRT2), (1, 1.0), (2, -1.0))),
    ]
    for position in range(n_pairs - 2):
        a, b, c, d = range(2 * position + 1, 2 * position + 5)
        out += [
            (f"interior{position}_x", "x",
             ((a, 1.0), (b, 1.0), (c, -1.0), (d, 1.0))),
            (f"interior{position}_p", "p",
             ((a, 1.0), (b, 1.0), (c, 1.0), (d, -1.0))),
        ]
    ends = ((last - 2, 1.0), (last - 1, 1.0))
    out += [("right_x", "x", (*ends, (last, -_SQRT2))),
            ("right_p", "p", (*ends, (last, _SQRT2)))]
    return out


def _relabeled_rows(n_modes, quad, terms, rotated):
    """The ascending quadrature rows and their coefficients of the
    ``quad``-type ``terms`` after -pi/2 rotations of the modes in the set
    ``rotated``.

    The rotation maps operators as x -> -p, p -> x on each rotated mode, so
    a combination keeps its value when an x-term keeps its coefficient on p
    and a p-term moves to x negated.
    """
    entries = []
    for m, c in terms:
        if m not in rotated:
            entries.append((m if quad == "x" else n_modes + m, c))
        elif quad == "x":
            entries.append((n_modes + m, c))
        else:
            entries.append((m, -c))
    rows, vals = zip(*sorted(entries))
    return np.array(rows, dtype=np.intp), np.array(vals)


def build_dual_rail(spec):
    """Build the dual-rail wire state.

    Allocates ``2 * n_pairs`` modes; squeezes source pairs (2k, 2k+1);
    interferes adjacent source halves (2k+1, 2k+2) on balanced beam
    splitters; then applies the -pi/2 rotations selected by the spec's phase
    convention. For ``r > 0`` the sources start as one splitter-times-
    squeeze factor (:func:`~modecomb.elements._squeezed_vacuum`), the vacuum
    at ``r = 0``. The two layers of disjoint elements, the links and then
    the rotations, are folded straight into that new factor, each as
    stacked products over its rows (:func:`~modecomb.gaussian._fold_layer`),
    so the build holds one factor and makes no pass per element.

    Args:
        spec (DualRailSpec): wire parameters

    Returns:
        GaussianState: the wire state
    """
    n_modes = 2 * spec.n_pairs
    if spec.r > 0:
        sources = [(2 * k, 2 * k + 1) for k in range(spec.n_pairs)]
        state = _squeezed_vacuum(n_modes, spec.r, sources)
    else:
        state = vacuum_state(n_modes)
    links = np.arange(1, n_modes - 1).reshape(-1, 2)
    _fold_layer(state.factor, beamsplitter(math.pi / 4).matrix, links)
    rotated = _rotated_modes(spec)
    if rotated:
        _fold_layer(state.factor, phase_shift(-math.pi / 2).matrix,
                    np.array(rotated).reshape(-1, 1))
    return state


def ideal_wire_graph(n_pairs):
    """Infinite-squeezing graph of the dual-rail wire in cluster form.

    Solves the nullifier system: stacking the witnesses of
    :func:`wire_witnesses` for ``DualRailSpec(n_pairs, 0.0)`` as rows
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
    spec = DualRailSpec(n_pairs, 0.0)
    n_modes = 2 * spec.n_pairs
    witnesses = wire_witnesses(spec)
    rows = np.zeros((len(witnesses), 2 * n_modes))
    for i, (_, w) in enumerate(witnesses):
        rows[i, w.rows] = w.vals
    adjacency = -np.linalg.solve(rows[:, n_modes:], rows[:, :n_modes])
    adjacency = 0.5 * (adjacency + adjacency.T)
    return GraphSpec(n_modes, adjacency.astype(complex))


def wire_witnesses(spec):
    """All entanglement witnesses of a wire, adapted to its convention.

    Every returned witness has normalized variance ``e^{-2r}`` on the state
    from :func:`build_dual_rail` with the same spec, and 1 on vacuum. The
    terms of :func:`_wire_terms` are rewritten through the relabeling of
    the modes :func:`build_dual_rail` rotates, so the measured physical
    combination is identical for both conventions. Each witness is built
    from its three or four sparse rows, never as a dense ``4 n_pairs``
    vector, so the call takes ``O(n_pairs)`` time and memory; the dense
    ``coeffs`` is formed only if read.

    Returns:
        tuple[tuple[str, Witness], ...]: labeled witnesses in wire order:
        left boundary pair, interior pairs, right boundary pair
    """
    n_modes, rotated = 2 * spec.n_pairs, set(_rotated_modes(spec))
    return tuple(
        (label, Witness._from_rows(
            n_modes, *_relabeled_rows(n_modes, quad, terms, rotated)))
        for label, quad, terms in _wire_terms(spec.n_pairs)
    )


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
