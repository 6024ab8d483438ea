"""Tests for dual-rail wire construction and graph extraction."""

import math

import numpy as np
import pytest

import modecomb.cluster
from modecomb import (
    AmplifierSpec,
    DualRailSpec,
    FieldError,
    GaussianState,
    GraphSpec,
    NotAGraphStateError,
    bipartite_graph,
    build_comb,
    build_dual_rail,
    check_physicality,
    extract_graph,
    ideal_wire_graph,
    loss_channel,
    nullifier_residual,
    purity,
    wire_witnesses,
    witness_variance,
)
from modecomb.gaussian import MAX_MODES

HALF_INV_SQRT2 = 0.7071067811865476


# ---------------------------------------------------------------------------
# wire construction and witnesses
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_pairs", [2, 3, 4, 6])
@pytest.mark.parametrize("convention", ["odd_mode_minus_half_pi", "none"])
def test_every_wire_witness_decays_at_the_epr_rate(n_pairs, convention):
    for r in (0.0, 0.4, 1.0):
        spec = DualRailSpec(n_pairs=n_pairs, r=r, phase_convention=convention)
        state = build_dual_rail(spec)
        expected = math.exp(-2.0 * r)
        labels = wire_witnesses(spec)
        assert len(labels) == 2 * n_pairs
        for label, witness in labels:
            v = witness_variance(state, witness)
            assert v == pytest.approx(expected, abs=1e-12), (label, r)


def test_wire_witness_labels_cover_boundaries_and_interior():
    spec = DualRailSpec(n_pairs=4, r=1.0)
    labels = [label for label, _ in wire_witnesses(spec)]
    assert labels == [
        "left_x", "left_p",
        "interior0_x", "interior0_p",
        "interior1_x", "interior1_p",
        "right_x", "right_p",
    ]

    # The interior link 1 of a 5-pair raw wire, coefficient by coefficient.
    witnesses = dict(wire_witnesses(DualRailSpec(5, 1.0, "none")))
    for label, offset, signs in (("interior1_x", 0, (1, 1, -1, 1)),
                                 ("interior1_p", 10, (1, 1, 1, -1))):
        wit = witnesses[label]
        assert wit.support(10) == (3, 4, 5, 6)
        expected = np.zeros(20)
        expected[offset + 3:offset + 7] = signs
        assert np.array_equal(wit.coeffs, expected), label
        assert wit.normalization == 4.0


def test_both_phase_conventions_measure_the_same_physics():
    # The -pi/2 relabeling commutes with the witness rewrite: variances agree.
    for r in (0.3, 0.9):
        phased = DualRailSpec(n_pairs=4, r=r)
        plain = DualRailSpec(n_pairs=4, r=r, phase_convention="none")
        state_a = build_dual_rail(phased)
        state_b = build_dual_rail(plain)
        va = [witness_variance(state_a, w) for _, w in wire_witnesses(phased)]
        vb = [witness_variance(state_b, w) for _, w in wire_witnesses(plain)]
        assert va == pytest.approx(vb, abs=1e-13)


def test_build_dual_rail_returns_its_state_and_solves_no_graph(monkeypatch):
    solved = []
    monkeypatch.setattr(modecomb.cluster, "ideal_wire_graph", solved.append)
    state = build_dual_rail(DualRailSpec(n_pairs=3, r=1.0))
    assert isinstance(state, GaussianState)
    assert state.n_modes == 6
    assert solved == []


def test_wire_states_are_pure_and_physical():
    spec = DualRailSpec(n_pairs=5, r=1.5)
    state = build_dual_rail(spec)
    ok, min_eig = check_physicality(state)
    assert ok, min_eig
    assert purity(state) == pytest.approx(1.0, abs=1e-9)


def test_dual_rail_spec_validation():
    with pytest.raises(ValueError):
        DualRailSpec(n_pairs=1, r=1.0)
    with pytest.raises(ValueError):
        DualRailSpec(n_pairs=4, r=-0.5)
    with pytest.raises(ValueError):
        DualRailSpec(n_pairs=4, r=1.0, phase_convention="swap")


def test_dual_rail_spec_names_the_offending_field():
    cases = [
        ({"n_pairs": 1, "r": 1.0}, "n_pairs"),
        ({"n_pairs": True, "r": 1.0}, "n_pairs"),
        ({"n_pairs": 4, "r": 7.5}, "r"),
        ({"n_pairs": 4, "r": True}, "r"),
        ({"n_pairs": 4, "r": float("inf")}, "r"),
        ({"n_pairs": 4, "r": 1.0, "phase_convention": ["none"]},
         "phase_convention"),
    ]
    for kwargs, field in cases:
        with pytest.raises(FieldError) as excinfo:
            DualRailSpec(**kwargs)
        assert excinfo.value.field == field


def test_interior_witness_pair_is_squeezed():
    spec = DualRailSpec(n_pairs=4, r=0.8, phase_convention="none")
    state = build_dual_rail(spec)
    floor = math.exp(-1.6)

    witnesses = dict(wire_witnesses(spec))
    for wit in (witnesses["interior0_x"], witnesses["interior0_p"]):
        assert witness_variance(state, wit) == pytest.approx(floor, abs=1e-12)
        assert wit.normalization == 4.0


# ---------------------------------------------------------------------------
# graph extraction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "n_pairs", [1, 0, -3, True, 2.0, "3", None, MAX_MODES // 2 + 1]
)
def test_ideal_wire_graph_names_a_bad_n_pairs(n_pairs):
    with pytest.raises(FieldError) as excinfo:
        ideal_wire_graph(n_pairs)
    assert excinfo.value.field == "n_pairs"


def test_ideal_wire_graph_takes_a_numpy_integer():
    got, want = ideal_wire_graph(np.int64(3)), ideal_wire_graph(3)
    assert got.n_nodes == want.n_nodes == 6
    assert np.array_equal(got.adjacency, want.adjacency)


def test_ideal_wire_graph_weights():
    graph = ideal_wire_graph(4)
    assert graph.n_nodes == 8
    weights = {}
    for i, j, w in graph.edges:
        weights[(i, j)] = w
    # Only the first and last physical modes are chain ends; their couplings
    # carry the boundary weight 1/sqrt(2), all others carry 1/2.
    end_nodes = {0, 7}
    for (i, j), w in weights.items():
        if i in end_nodes or j in end_nodes:
            assert abs(w) == pytest.approx(HALF_INV_SQRT2, abs=1e-12), (i, j)
        else:
            assert abs(w) == pytest.approx(0.5, abs=1e-12), (i, j)
    # Both signs appear among the interior couplings.
    interior = [w for (i, j), w in weights.items()
                if i not in end_nodes and j not in end_nodes]
    assert any(w > 0 for w in interior) and any(w < 0 for w in interior)


def test_extracted_graph_converges_to_the_ideal_wire():
    ideal = ideal_wire_graph(4)
    errors = []
    for r in (2.0, 3.0, 4.0):
        state = build_dual_rail(DualRailSpec(n_pairs=4, r=r))
        graph = extract_graph(state)
        errors.append(
            np.max(np.abs(np.real(graph.adjacency) - ideal.adjacency))
        )
    # Approach is monotone and fast (rate ~ e^{-4r}).
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 1e-6


def test_ideal_graph_nullifier_relation_holds_at_finite_squeezing():
    # The wire's p covariance equals the ideal-graph-conjugated x covariance
    # at every squeezing level, not just asymptotically: the residual stays
    # at floating-point noise even though the extracted graph itself only
    # approaches the ideal one as e^{-4r}.
    ideal = ideal_wire_graph(4)
    for r in (0.0, 0.5, 1.0, 2.0, 3.0):
        state = build_dual_rail(DualRailSpec(n_pairs=4, r=r))
        assert nullifier_residual(state, ideal) < 1e-10, r


def test_extract_graph_self_residual_is_tiny():
    state = build_dual_rail(DualRailSpec(n_pairs=4, r=2.0))
    graph = extract_graph(state)
    assert nullifier_residual(state, graph) < 1e-10


def test_extract_graph_refuses_mixed_states():
    state = build_dual_rail(DualRailSpec(n_pairs=2, r=1.0))
    lossy = loss_channel(state, 0, 0.7)
    with pytest.raises(NotAGraphStateError):
        extract_graph(lossy)


def test_nullifier_residual_checks_node_count():
    state = build_dual_rail(DualRailSpec(n_pairs=3, r=1.0))
    with pytest.raises(ValueError):
        nullifier_residual(state, ideal_wire_graph(4))


def test_graph_spec_validation_and_edges():
    adjacency = np.zeros((3, 3))
    adjacency[0, 1] = adjacency[1, 0] = 0.5
    adjacency[1, 2] = adjacency[2, 1] = -0.5
    graph = GraphSpec(3, adjacency)
    assert graph.edges == ((0, 1, 0.5), (1, 2, -0.5))

    # Row-major order, Python numbers, strictly above the threshold, and
    # never the diagonal.
    adjacency = np.zeros((4, 4))
    for i, j, w in [(2, 3, 0.25), (0, 3, -1.0), (0, 1, 2e-6), (1, 2, 1e-6)]:
        adjacency[i, j] = adjacency[j, i] = w
    adjacency[1, 1] = 5.0
    graph = GraphSpec(4, adjacency + 1j * np.eye(4))
    assert graph.edges == ((0, 1, 2e-6), (0, 3, -1.0), (2, 3, 0.25))
    assert {tuple(map(type, edge)) for edge in graph.edges} == {
        (int, int, float)
    }

    lopsided = np.zeros((3, 3))
    lopsided[0, 1] = 1.0
    with pytest.raises(ValueError):
        GraphSpec(3, lopsided)
    with pytest.raises(ValueError):
        GraphSpec(2, adjacency)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("part", [1.0, 1j])
def test_graph_spec_rejects_non_finite_adjacency(bad, part):
    adjacency = np.zeros((2, 2), dtype=complex)
    adjacency[0, 1] = adjacency[1, 0] = bad * part
    with pytest.raises(ValueError, match="finite"):
        GraphSpec(2, adjacency)


@pytest.mark.parametrize("weight", [1e308, -1e308])
def test_graph_spec_keeps_finite_weights_near_the_float_limit_finite(weight):
    adjacency = np.zeros((2, 2))
    adjacency[0, 1] = adjacency[1, 0] = weight
    graph = GraphSpec(2, adjacency)
    assert graph.edges == ((0, 1, weight),)


def test_graph_spec_rejects_an_asymmetry_beyond_the_float_range():
    # 1e308 - (-1e308) overflows; it reads as an infinite asymmetry, without
    # numpy's warning.
    with pytest.raises(ValueError, match="adjacency must be symmetric"):
        GraphSpec(2, [[0.0, 1e308], [-1e308, 0.0]])


def test_bipartite_graph_mirrors_comb_pairing():
    comb = build_comb(6, AmplifierSpec.from_gain(2.0))
    graph = bipartite_graph(comb)
    assert graph.n_nodes == 6
    assert graph.edges == ((0, 3, 1.0), (1, 4, 1.0), (2, 5, 1.0))
