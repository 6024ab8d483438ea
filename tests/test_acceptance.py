"""End-to-end acceptance checks for the library's headline guarantees.

Each test prints a single ``criterion N (...): PASS`` or ``FAIL`` verdict
line directly to the terminal (bypassing capture) so a full run yields an
at-a-glance scoreboard. The states of criteria 1, 4, 5 and 7 are built once
by module-scoped fixtures; those criteria check them and the final test
sweeps all of them through the physicality and purity checks, so every test
runs the same checks whether it is selected alone or with the rest.
"""

import math
import time
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np
import pytest

from conftest import random_network, random_passive

from modecomb import (
    AmplifierSpec,
    DualRailSpec,
    GaussianState,
    OverlapSpec,
    SymplecticTransform,
    Witness,
    amplify_comb,
    build_comb,
    build_dual_rail,
    check_physicality,
    decompose,
    extract_graph,
    gain_to_squeezing,
    ideal_epr_noise,
    loss_channel,
    misaligned_noise,
    nullifier_residual,
    pair_witnesses,
    purity,
    recompose,
    squeezing_to_gain,
    two_mode_squeezer,
    vacuum_state,
    wire_witnesses,
    witness_variance,
    apply_symplectic,
)


class Checked(NamedTuple):
    """A state built for one criterion and swept by criterion 8."""

    key: object
    label: str
    state: GaussianState
    built_without_loss: bool


# Each fixture returns its checked states and the seconds it took to build
# them; criteria add that build time to their own, so each time bound still
# covers building the states as well as checking them.


@pytest.fixture(scope="module")
def pair_states():
    """Criterion 1: amplified pairs after equal loss on both modes."""
    start = time.perf_counter()
    checked = []
    for gain in (1.0, 1.2, 1.5, 2.0, 3.0, 4.0):
        r = gain_to_squeezing(gain)
        pair = apply_symplectic(vacuum_state(2), two_mode_squeezer(r))
        for eta in (1.0, 0.99, 0.95, 0.8):
            lossy = loss_channel(loss_channel(pair, 0, eta), 1, eta)
            checked.append(Checked(
                (gain, eta), f"pair G={gain} eta={eta}", lossy, eta == 1.0
            ))
    return checked, time.perf_counter() - start


@pytest.fixture(scope="module")
def wire_states():
    """Criterion 4: lossless dual-rail wires over a grid of sizes and r."""
    start = time.perf_counter()
    checked = []
    for n_pairs in (2, 4, 8):
        for r in np.arange(0.0, 2.01, 0.25):
            spec = DualRailSpec(n_pairs, float(r))
            state = build_dual_rail(spec)
            checked.append(Checked(
                spec, f"wire n_pairs={n_pairs} r={r}", state, True
            ))
    return checked, time.perf_counter() - start


@pytest.fixture(scope="module")
def graph_wire_state():
    """Criterion 5: the strongly squeezed wire whose graph is extracted."""
    start = time.perf_counter()
    state = build_dual_rail(DualRailSpec(4, 5.0))
    checked = [Checked(None, "wire n_pairs=4 r=5", state, True)]
    return checked, time.perf_counter() - start


@pytest.fixture(scope="module")
def comb_state():
    """Criterion 7: a 200-mode comb amplified at r = 1."""
    start = time.perf_counter()
    comb = build_comb(200, AmplifierSpec.from_squeezing(1.0))
    state = amplify_comb(vacuum_state(comb.n_modes), comb)
    checked = [Checked(comb, "comb M=200 r=1", state, True)]
    return checked, time.perf_counter() - start


@pytest.fixture
def verdict(capfd):
    """Reporter printing one PASS/FAIL line per criterion, capture or not."""

    @contextmanager
    def report(number, name):
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"criterion {number} ({name}): FAIL")
            raise
        with capfd.disabled():
            print(f"criterion {number} ({name}): PASS")

    return report


def test_criterion_1_pair_noise_closed_form(verdict, pair_states):
    with verdict(1, "amplified pair noise vs closed form"):
        start = time.perf_counter()
        checked, build_s = pair_states
        xdiff = Witness.from_terms(2, {(0, "x"): 1.0, (1, "x"): -1.0})
        for (gain, eta), _, lossy, _ in checked:
            variance = witness_variance(lossy, xdiff)
            expected = 1.0 + 2.0 * eta * (
                gain - 1.0 - math.sqrt(gain * (gain - 1.0))
            )
            assert abs(variance - expected) <= 1e-10, (gain, eta)
            if gain == 2.0 and eta == 1.0:
                assert abs(variance - 0.171573) <= 1e-6
        assert build_s + time.perf_counter() - start < 1.0


def test_criterion_2_nine_db_anchor(verdict):
    with verdict(2, "9 dB noise reduction anchor"):
        assert abs(ideal_epr_noise(2.51724, 1.0).db + 9.00) <= 0.01
        gain = squeezing_to_gain(1.03624)
        assert abs(gain_to_squeezing(gain) - 1.03624) <= 1e-12
        assert abs(ideal_epr_noise(gain, 1.0).db + 9.00) <= 0.01


def test_criterion_3_misalignment_model(verdict):
    with verdict(3, "misaligned local oscillator noise"):
        # (a) full overlap at the detector efficiency is the aligned model
        for eta in (1.0, 0.95, 0.8):
            aligned = OverlapSpec(0.0, eta, ())
            for gain in (1.0, 1.5, 2.0, 3.0, 4.0):
                delta = (
                    misaligned_noise(aligned, gain).variance
                    - ideal_epr_noise(gain, eta).variance
                )
                assert abs(delta) <= 1e-14, (gain, eta)
        # (b) worked single- and two-stray examples at G=2
        one_stray = OverlapSpec(0.1, 0.95, (0.5,))
        assert abs(misaligned_noise(one_stray, 2.0).variance - 0.250273) <= 1e-6
        two_strays = OverlapSpec(0.1, 0.95, (0.5, 0.5))
        assert abs(misaligned_noise(two_strays, 2.0).variance - 0.450273) <= 1e-6
        # (c) noise falls monotonically as the aligned fraction grows
        variances = []
        for aligned_power in np.linspace(0.5, 1.0, 11):
            spec = OverlapSpec(1.0 - aligned_power, 0.95, (0.475,))
            variances.append(misaligned_noise(spec, 2.0).variance)
        assert np.all(np.diff(variances) < 0.0)


def test_criterion_4_wire_witness_decay(verdict, wire_states):
    with verdict(4, "dual-rail wire witness decay"):
        start = time.perf_counter()
        checked, build_s = wire_states
        for spec, _, state, _ in checked:
            expected = math.exp(-2.0 * spec.r)
            witnesses = wire_witnesses(spec)
            assert len(witnesses) == 2 * spec.n_pairs
            for label, witness in witnesses:
                variance = witness_variance(state, witness)
                assert abs(variance - expected) <= 1e-9, (
                    spec.n_pairs, spec.r, label
                )
        assert build_s + time.perf_counter() - start < 5.0


def test_criterion_5_wire_graph_edges(verdict, graph_wire_state):
    with verdict(5, "extracted wire graph edge weights"):
        start = time.perf_counter()
        (checked,), build_s = graph_wire_state
        state = checked.state
        graph = extract_graph(state)
        ends = {0, 7}
        interior = [
            (i, j, w) for i, j, w in graph.edges if i not in ends and j not in ends
        ]
        assert interior
        for i, j, weight in interior:
            assert abs(abs(weight) - 0.5) <= 1e-3, (i, j, weight)
        assert nullifier_residual(state, graph) <= 1e-8
        assert build_s + time.perf_counter() - start < 2.0


def test_criterion_6_factorization_roundtrip(verdict):
    with verdict(6, "network factorization round trip"):
        start = time.perf_counter()
        rng = np.random.default_rng(20260814)
        for _ in range(100):
            n_modes = int(rng.integers(1, 9))
            network = random_network(rng, n_modes, int(rng.integers(1, 21)))
            parts = decompose(network)
            roundtrip = np.linalg.norm(
                recompose(parts).matrix - network.matrix
            )
            assert roundtrip <= 1e-9
            conjugated = SymplecticTransform(
                random_passive(rng, n_modes).matrix
                @ network.matrix
                @ random_passive(rng, n_modes).matrix,
                n_modes,
            )
            shift = np.max(
                np.abs(decompose(conjugated).squeeze - parts.squeeze)
            )
            assert shift <= 1e-9
        assert time.perf_counter() - start < 10.0


def test_criterion_7_comb_scale(verdict, comb_state):
    with verdict(7, "200-mode comb pipeline"):
        start = time.perf_counter()
        (checked,), build_s = comb_state
        comb, state = checked.key, checked.state
        witnesses = pair_witnesses(comb)
        assert len(witnesses) == 100
        expected = math.exp(-2.0)
        for wx, wp in witnesses:
            assert abs(witness_variance(state, wx) - expected) <= 1e-9
            assert abs(witness_variance(state, wp) - expected) <= 1e-9
        assert build_s + time.perf_counter() - start < 5.0


def test_criterion_8_physicality_sweep(
    verdict, pair_states, wire_states, graph_wire_state, comb_state
):
    with verdict(8, "physicality and purity sweep"):
        start = time.perf_counter()
        failures = []
        built = (pair_states, wire_states, graph_wire_state, comb_state)
        for _, label, state, pure_path in (
            entry for checked, _ in built for entry in checked
        ):
            physical, min_eig = check_physicality(state)
            if not physical or min_eig < -1e-10:
                failures.append(
                    f"{label}: min eig of C + i Omega is {min_eig:.3e}"
                )
            if pure_path:
                deviation = purity(state) - 1.0
                if abs(deviation) > 1e-8:
                    failures.append(
                        f"{label}: purity deviates from 1 by {deviation:.3e}"
                    )
        assert not failures, "; ".join(failures)
        assert time.perf_counter() - start < 60.0
