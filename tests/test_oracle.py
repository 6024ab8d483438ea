"""Printed witness rows, wire graphs and purities against a 50-digit oracle.

``simulate`` prints each witness variance with 12 significant digits. Here
the closed forms are evaluated with ``mpmath`` at 50 digits, from the same
float inputs the scenario file holds, and each printed row must lie within
``ORACLE_RTOL`` of its value. A wire is held by a symplectic factor ``S`` of
its covariance, a passive matrix times the squeeze ``e^{+-r}``: its rows and
its graph are also checked against 50-digit values of that float ``S``,
which separates the readout's error from the rounding of ``S``.
"""

import csv
import json

import mpmath
import numpy as np
import pytest

from modecomb import (
    DualRailSpec,
    GaussianState,
    build_dual_rail,
    extract_graph,
    loss_channel,
    measure_witness,
    purity,
    wire_witnesses,
)
from modecomb.cli import main

#: Relative bound on a printed row against its 50-digit value.
ORACLE_RTOL = 1e-10

#: (r, eta_d) points. eta_d = 1 is left out at r = 4.5: comb rows are read
#: from a covariance, which loses about eps * e^{4r} of the variance
#: e^{-2r}, 5.5e-10 on this scenario's comb rows there (the comb readout's
#: open accuracy limit).
POINTS = [(r, eta) for r in (1.0, 3.0, 4.5) for eta in (0.5, 0.99, 1.0)
          if (r, eta) != (4.5, 1.0)]

#: (r, eta_d) points of wire rows alone, up to the top of the README's
#: range. A wire's rows are read from its factor, whose entries are rounded
#: e^{+-r} / sqrt(2) and passive mixtures of them, so no cosh r - sinh r
#: cancels anywhere: the worst row of a 16-pair wire at eta_d = 1 over
#: r = 4.5, 4.51, ..., 6.9 is 4.5e-12 off, the 12-digit print resolution.
WIRE_POINTS = [(4.5, 1.0), (6.0, 0.99), (6.0, 1.0), (6.9, 0.99), (6.9, 1.0)]


def _printed_rows(tmp_path, r, eta, sections=None):
    config = tmp_path / "oracle.json"
    sections = sections or {"comb": {"M": 4, "r": r},
                            "wire": {"n_pairs": 4, "r": r}}
    config.write_text(json.dumps({
        "version": "v1", "name": "oracle", **sections,
        "detection": {"eta_d": eta},
    }), encoding="utf-8")
    assert main(["simulate", str(config), "--out-dir", str(tmp_path)]) == 0
    with (tmp_path / "oracle_witness.csv").open(newline="") as fh:
        return list(csv.DictReader(fh))


def _wire_exact(r, eta):
    """``1 + eta (e^{-2r} - 1)`` at 50 digits, in the current context."""
    r, eta = mpmath.mpf(r), mpmath.mpf(eta)
    return 1 + eta * (mpmath.exp(-2 * r) - 1)


def _relative_error(text, exact):
    return abs((mpmath.mpf(text) - exact) / exact)


@pytest.mark.parametrize("r, eta", POINTS)
def test_printed_rows_match_the_50_digit_closed_forms(tmp_path, r, eta):
    rows = _printed_rows(tmp_path, r, eta)
    comb = [row for row in rows if row["witness_id"].startswith("pair")]
    wire = [row for row in rows if not row["witness_id"].startswith("pair")]
    assert len(comb) == 2 and len(wire) == 8
    with mpmath.workdps(50):
        r, eta = mpmath.mpf(r), mpmath.mpf(eta)
        gain = mpmath.cosh(r) ** 2
        comb_exact = 1 + 2 * eta * (gain - 1 - mpmath.sqrt(gain * (gain - 1)))
        wire_exact = _wire_exact(r, eta)
        for row in comb:
            assert _relative_error(row["variance"], comb_exact) <= ORACLE_RTOL
        for row in wire:
            assert _relative_error(row["variance"], wire_exact) <= ORACLE_RTOL


@pytest.mark.parametrize("r, eta", WIRE_POINTS)
def test_printed_wire_rows_match_the_50_digit_closed_form(tmp_path, r, eta):
    rows = _printed_rows(tmp_path, r, eta, {"wire": {"n_pairs": 16, "r": r}})
    assert len(rows) == 32
    with mpmath.workdps(50):
        exact = _wire_exact(r, eta)
        for row in rows:
            assert _relative_error(row["variance"], exact) <= ORACLE_RTOL


#: The top of the squeezing range in steps of 0.01, where a wire folded from
#: two_mode_squeezer's rounded cosh r and sinh r was up to 2.6e-10 off.
TOP_OF_RANGE = [round(6.6 + 0.01 * k, 2) for k in range(31)]


def test_printed_wire_rows_match_at_the_top_of_the_range(tmp_path):
    sections = {"wire": {"n_pairs": 4, "r": TOP_OF_RANGE[0]},
                "sweep": {"parameter": "wire.r", "values": TOP_OF_RANGE}}
    rows = _printed_rows(tmp_path, None, 1.0, sections)
    assert len(rows) == 8 * len(TOP_OF_RANGE)
    values = {format(r, ".12g"): r for r in TOP_OF_RANGE}
    with mpmath.workdps(50):
        for row in rows:
            exact = _wire_exact(values[row["value"]], 1.0)
            assert _relative_error(row["variance"], exact) <= ORACLE_RTOL


#: Bound on a wire row read from its float factor against the 50-digit
#: value of that factor: a few eps, at every r.
READOUT_RTOL = 1e-14


@pytest.mark.parametrize("r", [1.0, 4.5, 6.9])
def test_wire_rows_are_read_exactly_from_the_float_factor(r):
    spec = DualRailSpec(16, r)
    state = build_dual_rail(spec)
    with mpmath.workdps(50):
        factor = mpmath.matrix(state.factor.tolist())
        for _, witness in wire_witnesses(spec):
            w = mpmath.matrix(witness.coeffs.tolist())
            u = factor.T * w
            exact = sum(x * x for x in u) / sum(x * x for x in w)
            got = measure_witness(state, witness, 1.0).variance
            assert abs(got / exact - 1) <= READOUT_RTOL


#: Absolute bound on an entry of a wire graph's U or V against the 50-digit
#: graph of its float factor; the largest gap seen is 1.7e-16.
GRAPH_ATOL = 1e-15


@pytest.mark.parametrize("r", [1.0, 3.0, 4.5, 6.0, 6.9])
@pytest.mark.parametrize("n_pairs", [4, 8])
def test_wire_graph_matches_the_50_digit_graph_of_its_factor(n_pairs, r):
    """``Z = (C + iD)(A + iB)^{-1}`` for ``S = [[A, B], [C, D]]`` (Menicucci,
    Flammia & van Loock, PRA 83, 042335, 2011) is the graph of the state
    ``S S^T``; ``extract_graph`` reads it from the covariance instead."""
    state = build_dual_rail(DualRailSpec(n_pairs, r))
    n = state.n_modes
    graph = extract_graph(state).adjacency
    with mpmath.workdps(50):
        s = mpmath.matrix(state.factor.tolist())
        z = ((s[n:, :n] + 1j * s[n:, n:])
             * mpmath.inverse(s[:n, :n] + 1j * s[:n, n:]))
        for i in range(n):
            for j in range(n):
                assert abs(mpmath.re(z[i, j]) - graph[i, j].real) <= GRAPH_ATOL
                assert abs(mpmath.im(z[i, j]) - graph[i, j].imag) <= GRAPH_ATOL


def _oracle_purity(cov):
    """``1 / sqrt(det C)`` of the stored float covariance, at 50 digits."""
    with mpmath.workdps(50):
        return 1 / mpmath.sqrt(mpmath.det(mpmath.matrix(cov.tolist())))


def _factorless(r, losses=()):
    """The covariance alone of a 4-pair wire at ``r``, after ``(mode, eta)``
    losses."""
    state = build_dual_rail(DualRailSpec(4, r))
    for mode, eta in losses:
        state = loss_channel(state, mode, eta)
    return GaussianState(state.n_modes, state.cov)


#: Factorless states: wires at r = 1, 3 and 5, bare and after two losses.
FACTORLESS = {
    f"r={r}{' lossy' if losses else ''}": (r, losses)
    for r in (1.0, 3.0, 5.0) for losses in ((), ((1, 0.9), (2, 0.7)))
}


@pytest.mark.parametrize("name", [*FACTORLESS, "3I"])
def test_purity_of_a_covariance_is_within_its_conditioning_limit(name):
    """A covariance alone fixes its purity only to about ``eps * cond(C)``
    (README, numerical limits): 1e-14 on the r = 1 wire, 3.6e-11 at r = 3
    and 1.1e-7 at r = 5. The bound is that limit, and 1e-12 where it is
    smaller."""
    if name == "3I":
        state = GaussianState(2, 3.0 * np.eye(4))
    else:
        state = _factorless(*FACTORLESS[name])
    exact = _oracle_purity(state.cov)
    bound = max(1e-12, np.finfo(float).eps * np.linalg.cond(state.cov))
    assert abs((purity(state) - exact) / exact) <= bound


def test_purity_of_the_r5_wire_covariance_matches_the_readme():
    """README: the 8-mode wire at r = 5 has a covariance ``S S^T`` of
    50-digit purity 1 - 2.84e-8, and its purity from that covariance is
    1 - 1.345e-7."""
    state = _factorless(5.0)
    assert float(_oracle_purity(state.cov) - 1) == pytest.approx(-2.84e-8,
                                                                 abs=5e-10)
    assert 1 - purity(state) == pytest.approx(1.345e-7, abs=5e-10)


@pytest.mark.parametrize("r", [5.0, 6.9])
@pytest.mark.parametrize("n_pairs", [4, 16])
def test_purity_of_a_wire_read_from_its_factor_is_one(n_pairs, r):
    assert purity(build_dual_rail(DualRailSpec(n_pairs, r))) == pytest.approx(
        1.0, rel=0, abs=1e-15)
