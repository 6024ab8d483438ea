"""Printed witness rows and purities against a 50-digit oracle.

``simulate`` prints each witness variance with 12 significant digits. Here
the closed forms are evaluated with ``mpmath`` at 50 digits, from the same
float inputs the scenario file holds, and each printed row must lie within
``ORACLE_RTOL`` of its value.
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
    loss_channel,
    purity,
)
from modecomb.cli import main

#: Relative bound on a printed row against its 50-digit value.
ORACLE_RTOL = 1e-10

#: (r, eta_d) points. eta_d = 1 is left out at r = 4.5: the float64
#: readout loses about eps * e^{4r} of the variance e^{-2r}, 5.5e-10 on the
#: comb rows and 6.4e-10 on the wire rows of this scenario there (the
#: readout's open accuracy limit).
POINTS = [(r, eta) for r in (1.0, 3.0, 4.5) for eta in (0.5, 0.99, 1.0)
          if (r, eta) != (4.5, 1.0)]


def _printed_rows(tmp_path, r, eta):
    config = tmp_path / "oracle.json"
    config.write_text(json.dumps({
        "version": "v1", "name": "oracle",
        "comb": {"M": 4, "r": r},
        "wire": {"n_pairs": 4, "r": r},
        "detection": {"eta_d": eta},
    }), encoding="utf-8")
    assert main(["simulate", str(config), "--out-dir", str(tmp_path)]) == 0
    with (tmp_path / "oracle_witness.csv").open(newline="") as fh:
        return list(csv.DictReader(fh))


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
        wire_exact = 1 + eta * (mpmath.exp(-2 * r) - 1)
        for row in comb:
            assert _relative_error(row["variance"], comb_exact) <= ORACLE_RTOL
        for row in wire:
            assert _relative_error(row["variance"], wire_exact) <= ORACLE_RTOL


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
    """README: the 8-mode wire at r = 5 stores a covariance of 50-digit
    purity 1 + 5.5e-8, and its purity from that covariance is 1 - 1.4e-8."""
    state = _factorless(5.0)
    assert float(_oracle_purity(state.cov) - 1) == pytest.approx(5.5e-8,
                                                                 abs=5e-10)
    assert 1 - purity(state) == pytest.approx(1.4e-8, abs=5e-10)
