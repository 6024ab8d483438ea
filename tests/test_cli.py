"""End-to-end tests for the command line interface."""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import modecomb.cli
from modecomb import elements
from modecomb.blochmessiah import _real_orthogonal
from modecomb.cli import (
    _parse_detection,
    _parse_network,
    _write_json,
    _write_table,
    apply_symplectic_matrix,
    cmd_decompose,
    cmd_noise_table,
    main,
    parse_scenario,
    run_scenario,
)
from modecomb.detection import OverlapSpec
from modecomb.gaussian import MAX_MODES, FieldError

from conftest import embed


def write_config(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


MINIMAL = {
    "version": "v1",
    "name": "minimal",
    "seed": 1,
    "comb": {"M": 2, "cells": 1, "r": 0.5},
    "detection": {"eta_d": 1.0},
}


def test_minimal_scenario_emits_single_golden_row(tmp_path):
    config = write_config(tmp_path / "scenario.json", MINIMAL)
    assert main(["simulate", config, "--out-dir", str(tmp_path)]) == 0

    rows = read_rows(tmp_path / "minimal_witness.csv")
    assert len(rows) == 1
    row = rows[0]
    assert row["scenario"] == "minimal"
    assert row["witness_id"] == "pair0_xdiff"
    assert row["parameter"] == "" and row["value"] == ""
    assert float(row["variance"]) == pytest.approx(0.367879, abs=1e-6)

    graph = json.loads((tmp_path / "minimal_graph.json").read_text())
    assert graph["source"] == "comb"
    assert graph["n_nodes"] == 2
    assert graph["edges"] == [[0, 1, 1.0]]
    assert graph["seed"] == 1


def test_wire_scenario_with_sweep(tmp_path):
    config = write_config(
        tmp_path / "wire.json",
        {
            "version": "v1",
            "name": "wire",
            "wire": {"n_pairs": 3, "r": 1.0},
            "detection": {"eta_d": 0.95},
            "sweep": {"parameter": "wire.r", "values": [1.0, 0.0, 0.5]},
        },
    )
    assert main(["simulate", config, "--out-dir", str(tmp_path)]) == 0

    rows = read_rows(tmp_path / "wire_witness.csv")
    # 6 witnesses per sweep point, 3 points, sorted ascending in r.
    assert len(rows) == 18
    values = [float(row["value"]) for row in rows]
    assert values == sorted(values)
    assert {row["parameter"] for row in rows} == {"wire.r"}

    at_r0 = [row for row in rows if float(row["value"]) == 0.0]
    for row in at_r0:
        assert float(row["variance"]) == pytest.approx(1.0, abs=1e-12)

    graph = json.loads((tmp_path / "wire_graph.json").read_text())
    assert graph["source"] == "wire"
    assert graph["n_nodes"] == 6
    assert graph["nullifier_residual"] < 1e-8


def test_strongly_squeezed_wire_yields_its_cluster_graph(tmp_path):
    config = write_config(
        tmp_path / "wire6.json",
        {"version": "v1", "name": "wire6", "wire": {"n_pairs": 3, "r": 6.0}},
    )
    assert main(["simulate", config, "--out-dir", str(tmp_path)]) == 0

    graph = json.loads((tmp_path / "wire6_graph.json").read_text())
    assert graph["n_nodes"] == 6
    ends = {0, 5}
    interior = [
        (i, j, w) for i, j, w in graph["edges"] if i not in ends and j not in ends
    ]
    assert interior
    for i, j, weight in interior:
        assert abs(abs(weight) - 0.5) <= 1e-3, (i, j, weight)
    assert graph["nullifier_residual"] < 1e-8


def test_simulate_output_is_byte_deterministic(tmp_path):
    config = write_config(
        tmp_path / "scenario.json",
        {
            "version": "v1",
            "name": "repeat",
            "seed": 42,
            "comb": {"M": 6, "gain": 2.0},
            "wire": {"n_pairs": 2, "r": 0.7},
            "detection": {"eta_d": 0.9},
            "sweep": {"parameter": "detection.eta_d", "values": [0.8, 0.9, 1.0]},
        },
    )
    for run in ("one", "two"):
        assert main(["simulate", config, "--out-dir", str(tmp_path / run)]) == 0
    for name in ("repeat_witness.csv", "repeat_graph.json"):
        first = (tmp_path / "one" / name).read_bytes()
        second = (tmp_path / "two" / name).read_bytes()
        assert first == second


def test_simulate_json_format(tmp_path):
    config = write_config(tmp_path / "scenario.json", MINIMAL)
    assert main(
        ["simulate", config, "--out-dir", str(tmp_path), "--format", "json"]
    ) == 0
    rows = json.loads((tmp_path / "minimal_witness.json").read_text())
    assert len(rows) == 1
    assert rows[0]["witness_id"] == "pair0_xdiff"


def test_misaligned_scenario_uses_closed_form(tmp_path):
    config = write_config(
        tmp_path / "scenario.json",
        {
            "version": "v1",
            "name": "misaligned",
            "comb": {"M": 2, "gain": 2.0},
            "detection": {
                "eta_d": 0.95,
                "misalignment": 0.1,
                "stray_etas": [0.5],
            },
        },
    )
    assert main(["simulate", config, "--out-dir", str(tmp_path)]) == 0
    (row,) = read_rows(tmp_path / "misaligned_witness.csv")
    assert float(row["variance"]) == pytest.approx(0.250273, abs=1e-6)


def test_misalignment_whose_stray_share_underflows_is_simulated(tmp_path):
    # 5e-324 / 3 rounds to 0.0: no LO power reaches a stray mode, so the
    # rows are the simulated ones of a perfectly aligned LO.
    rows = {}
    for misalignment in (0.0, 5e-324):
        name = "aligned" if misalignment == 0.0 else "underflow"
        config = write_config(
            tmp_path / f"{name}.json",
            {
                "version": "v1",
                "name": name,
                "comb": {"M": 4, "gain": 2.0},
                "detection": {
                    "eta_d": 0.9,
                    "misalignment": misalignment,
                    "stray_etas": [0.1, 0.3, 0.5],
                },
            },
        )
        assert main(["simulate", config, "--out-dir", str(tmp_path)]) == 0
        rows[name] = [
            {k: v for k, v in row.items() if k != "scenario"}
            for row in read_rows(tmp_path / f"{name}_witness.csv")
        ]
    assert len(rows["aligned"]) == 2
    assert rows["underflow"] == rows["aligned"]


def test_parse_error_reports_line_and_column(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x",\n  "comb": }', encoding="utf-8")
    assert main(["simulate", str(bad)]) == 2
    message = capsys.readouterr().err
    assert "line 2" in message
    assert "column" in message


def test_missing_file_is_a_parse_failure(tmp_path):
    assert main(["simulate", str(tmp_path / "nope.json")]) == 2


def test_file_that_is_not_utf8_is_a_parse_failure(tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"name": "caf\xe9"}')
    assert main(["simulate", str(bad)]) == 2


#: An integer literal longer than Python converts (4,300 digits by default).
LONG_INTEGER = "1" * 5000


@pytest.mark.parametrize(
    "command, text",
    [
        ("simulate", '{"name": "x", "comb": {"M": 2, "r": %s}}' % LONG_INTEGER),
        ("decompose", '{"n_modes": %s, "elements": []}' % LONG_INTEGER),
        ("simulate", "[" * 100_000 + "]" * 100_000),
    ],
    ids=["long-integer-simulate", "long-integer-decompose", "deep-nesting"],
)
def test_undecodable_json_is_a_parse_failure(tmp_path, capsys, command, text):
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    assert main([command, str(path), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, payload, field",
    [
        ("simulate", {"name": "x", "comb": {"M": 10**30, "r": 0.5}}, "comb.M"),
        (
            "simulate",
            {"name": "x", "comb": {"M": 2, "cells": 10**30, "r": 0.5}},
            "comb.cells",
        ),
        (
            "simulate",
            {"name": "x", "wire": {"n_pairs": 10**30, "r": 0.5}},
            "wire.n_pairs",
        ),
        ("decompose", {"n_modes": 10**30, "elements": []}, "network.n_modes"),
    ],
)
def test_huge_mode_counts_are_rejected_at_once(
    tmp_path, capsys, command, payload, field
):
    path = write_config(tmp_path / "input.json", payload)
    start = time.perf_counter()
    assert main([command, path, "--out-dir", str(tmp_path)]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert field in err.splitlines()[0]
    assert "Traceback" not in err


def test_mode_bound_counts_every_cell_and_admits_the_largest_sizes():
    def comb(M, cells):
        return {"name": "x", "comb": {"M": M, "cells": cells, "r": 0.5}}

    assert parse_scenario(comb(1600, 1)).comb.n_modes == 1600
    assert parse_scenario(comb(MAX_MODES, 1)).comb.n_modes == MAX_MODES
    assert parse_scenario(comb(2, MAX_MODES // 2)).comb.n_modes == MAX_MODES
    wire = parse_scenario({"name": "x", "wire": {"n_pairs": 256, "r": 0.5}})
    assert wire.wire.n_pairs == 256
    for payload, field in (
        (comb(MAX_MODES + 2, 1), "comb.M"),
        (comb(MAX_MODES // 2, 3), "comb.cells"),
        (
            {"name": "x", "wire": {"n_pairs": MAX_MODES // 2 + 1, "r": 0.5}},
            "wire.n_pairs",
        ),
    ):
        with pytest.raises(FieldError) as err:
            parse_scenario(payload)
        assert err.value.field == field


@pytest.mark.parametrize(
    "payload, field",
    [
        ({"name": "x", "comb": {"M": 3, "r": 0.5}}, "comb.M"),
        ({"name": "x", "comb": {"M": 2, "r": 0.5, "gain": 2.0}}, "comb"),
        ({"name": "x", "comb": {"M": 2}}, "comb"),
        ({"name": "x", "comb": {"M": 2, "gain": 0.5}}, "comb.gain"),
        ({"name": "x", "wire": {"n_pairs": 1, "r": 0.5}}, "wire.n_pairs"),
        ({"name": "x", "wire": {"n_pairs": 2, "r": -1.0}}, "wire.r"),
        (
            {
                "name": "x",
                "wire": {"n_pairs": 2, "r": 1.0, "phase_convention": "flip"},
            },
            "wire.phase_convention",
        ),
        (
            {
                "name": "x",
                "comb": {"M": 2, "r": 0.5},
                "detection": {"eta_d": 2.0},
            },
            "detection.eta_d",
        ),
        (
            {
                "name": "x",
                "comb": {"M": 2, "r": 0.5},
                "detection": {"misalignment": 0.2},
            },
            "detection.stray_etas",
        ),
        (
            {
                "name": "x",
                "comb": {"M": 2, "r": 0.5},
                "sweep": {"parameter": "comb.cells", "values": [1, 2]},
            },
            "sweep.parameter",
        ),
        (
            {
                "name": "x",
                "comb": {"M": 2, "r": 0.5},
                "sweep": {"parameter": "wire.r", "values": [1.0]},
            },
            "sweep.parameter",
        ),
        ({"name": "x"}, "config"),
        ({"name": "x", "comb": {"M": 2, "r": 0.5}, "version": "v2"}, "version"),
        (
            {
                "name": "x",
                "comb": {"M": 2, "r": 0.5},
                "sweep": {
                    "parameter": "detection.misalignment",
                    "values": [0.0, 0.1],
                },
            },
            "sweep.values[1].detection.stray_etas",
        ),
        ({"name": "x", "comb": [1]}, "comb"),
        (
            {"name": "x", "comb": {"M": 2, "r": 0.5}, "detection": [1]},
            "detection",
        ),
        ({"name": "x", "wire": {"n_pairs": 2, "r": 1000}}, "wire.r"),
        ({"name": "x", "comb": {"M": 2, "r": 1000}}, "comb.r"),
        (
            {
                "name": "x",
                "comb": {"M": 2, "r": 0.5},
                "sweep": {"parameter": "comb.r", "values": [0.5, 1000]},
            },
            "sweep.values[1].comb.r",
        ),
        (
            {
                "name": "x",
                "comb": {"M": 2, "r": 0.5},
                "sweep": {"parameter": "detection.eta_d", "values": [0.5, 0]},
            },
            "sweep.values[1].detection.eta_d",
        ),
        ({"name": "x", "comb": {"M": 2, "gain": math.inf}}, "comb.gain"),
        ({"name": "x", "comb": {"M": 2, "r": math.nan}}, "comb.r"),
        (
            {
                "name": "x",
                "comb": {"M": 2, "r": 0.5},
                "sweep": {"parameter": "detection.eta_d", "values": [2.0]},
            },
            "sweep.values[0].detection.eta_d",
        ),
        (
            {
                "name": "x",
                "comb": {"M": 2, "r": 0.5},
                "detection": {
                    "eta_d": 0.9,
                    "misalignment": 0.1,
                    "stray_etas": [0.5],
                },
                "sweep": {"parameter": "detection.eta_d", "values": [0.4]},
            },
            "sweep.values[0].detection.stray_etas",
        ),
        (
            {
                "name": "x",
                "comb": {"M": 2, "gain": 2.0},
                "sweep": {"parameter": "comb.gain", "values": [2.0, 0.5]},
            },
            "sweep.values[1].comb.gain",
        ),
        (
            {
                "name": "x",
                "wire": {"n_pairs": 2, "r": 1.0},
                "sweep": {"parameter": "wire.r", "values": [1.0, 7.5]},
            },
            "sweep.values[1].wire.r",
        ),
        (
            {
                "name": "x",
                "comb": {"M": 2, "r": 0.5},
                "detection": {"stray_etas": [0.5]},
                "sweep": {
                    "parameter": "detection.misalignment",
                    "values": [0.1, 1.5],
                },
            },
            "sweep.values[1].detection.misalignment",
        ),
        ({"name": "x", "wire": {"n_pairs": 2, "r": 7.5}}, "wire.r"),
        ({"name": "x", "comb": {"M": 2, "r": "0.5"}}, "comb.r"),
        ({"name": "x", "comb": {"M": 2, "gain": True}}, "comb.gain"),
        (
            {
                "name": "x",
                "comb": {"M": 2, "r": 0.5},
                "detection": {"eta_d": True},
            },
            "detection.eta_d",
        ),
        ({"name": "x", "wire": {"n_pairs": 2, "r": True}}, "wire.r"),
        (dict(MINIMAL, name="a\u0000b"), "config.name"),
        (dict(MINIMAL, name="a\ud800b"), "config.name"),
    ],
)
def test_validation_errors_name_the_offending_field(
    tmp_path, capsys, payload, field
):
    config = write_config(tmp_path / "scenario.json", payload)
    assert main(["simulate", config, "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert field in err.splitlines()[0]
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, payload, field",
    [
        ("simulate", dict(MINIMAL, detection={"eta": 0.5}), "detection.eta"),
        (
            "simulate",
            {
                "name": "x",
                "wire": {"n_pairs": 2, "r": 1.0, "phase_conventon": "none"},
            },
            "wire.phase_conventon",
        ),
        (
            "simulate",
            dict(MINIMAL, sweeep={"parameter": "comb.r", "values": [0.1]}),
            "config.sweeep",
        ),
        ("simulate", dict(MINIMAL, comb={"M": 2, "r": 0.5, "cell": 1}),
         "comb.cell"),
        (
            "simulate",
            dict(MINIMAL, sweep={"parameter": "comb.r", "value": [0.1]}),
            "sweep.value",
        ),
        (
            "decompose",
            {
                "n_modes": 2,
                "elements": [{"type": "two_mode_squeezer", "modes": [0, 1],
                              "squeeze": 0.8}],
            },
            "network.elements[0].squeeze",
        ),
        ("decompose", {"n_modes": 2, "element": []}, "network.element"),
    ],
)
def test_unknown_config_keys_are_rejected_by_field(
    tmp_path, capsys, command, payload, field
):
    path = write_config(tmp_path / "input.json", payload)
    assert main([command, path, "--out-dir", str(tmp_path)]) == 3
    first = capsys.readouterr().err.splitlines()[0]
    assert first.startswith(f"validation error: {field}: unknown field")


#: A scenario with every numeric field set to a valid value.
EVERY_FIELD = {
    "name": "x",
    "seed": 1,
    "comb": {"M": 2, "cells": 1, "r": 0.5},
    "wire": {"n_pairs": 2, "r": 0.5},
    "detection": {"eta_d": 0.9, "misalignment": 0.0, "stray_etas": [0.5]},
    "sweep": {"parameter": "wire.r", "values": [0.5]},
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "section, key, field",
    [
        ("comb", "M", "comb.M"),
        ("comb", "cells", "comb.cells"),
        ("comb", "r", "comb.r"),
        ("comb", "gain", "comb.gain"),
        ("wire", "n_pairs", "wire.n_pairs"),
        ("wire", "r", "wire.r"),
        ("detection", "eta_d", "detection.eta_d"),
        ("detection", "misalignment", "detection.misalignment"),
        ("detection", "stray_etas", "detection.stray_etas"),
        ("sweep", "values", "sweep.values[0].wire.r"),
        (None, "seed", "config.seed"),
    ],
)
def test_non_finite_numbers_are_rejected_by_field(
    tmp_path, capsys, section, key, field, bad
):
    payload = json.loads(json.dumps(EVERY_FIELD))
    target = payload if section is None else payload[section]
    if key == "gain":
        del target["r"]
    target[key] = [bad] if key in ("stray_etas", "values") else bad
    # JSON as Python writes and reads it: NaN, Infinity and -Infinity.
    config = write_config(tmp_path / "scenario.json", payload)
    assert main(["simulate", config, "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert field in err.splitlines()[0]
    assert "Traceback" not in err


def test_every_sweep_point_is_validated_before_any_compute(
    tmp_path, capsys, monkeypatch
):
    measured = []
    monkeypatch.setattr(
        modecomb.cli, "measure_witness", lambda *args: measured.append(args)
    )
    config = write_config(
        tmp_path / "scenario.json",
        {
            "name": "late",
            "wire": {"n_pairs": 2, "r": 0.5},
            "sweep": {"parameter": "wire.r", "values": [0.1, 0.2, 7.5]},
        },
    )
    assert main(["simulate", config, "--out-dir", str(tmp_path)]) == 3
    assert "sweep.values[2].wire.r" in capsys.readouterr().err
    assert measured == []
    assert not (tmp_path / "late_witness.csv").exists()


#: The key of its section that each sweepable field's value replaces.
_REPLACED = {"comb.gain": "r", "comb.r": "gain"}

#: ``(parameter, base sections, values)`` of one sweep per sweepable field.
_SWEEPS = [
    ("comb.gain", {"comb": {"M": 4, "cells": 2, "r": 0.5}}, [3.0, 1.5]),
    ("comb.r", {"comb": {"M": 4, "gain": 2.0}}, [0.25, 0.0]),
    (
        "wire.r",
        {"wire": {"n_pairs": 3, "r": 1.0, "phase_convention": "none"}},
        [2.0, 0.5],
    ),
    ("detection.eta_d", {"comb": {"M": 2, "r": 0.5}}, [0.9, 0.7]),
    (
        "detection.misalignment",
        {
            "comb": {"M": 2, "r": 0.5},
            "detection": {"eta_d": 0.9, "stray_etas": [0.4]},
        },
        [0.2, 0.0],
    ),
]


def _point_sections(parameter, base, value):
    """The sections of ``base`` with the swept key set to ``value``."""
    section, key = parameter.split(".")
    fixed = json.loads(json.dumps(base))
    swept = fixed.setdefault(section, {})
    swept.pop(_REPLACED.get(parameter), None)
    swept[key] = value
    return fixed


@pytest.mark.parametrize("parameter, base, values", _SWEEPS)
def test_each_sweep_point_is_its_scenario_with_the_value_put_in(
    parameter, base, values
):
    scenario = parse_scenario(
        {"name": "x", **base, "sweep": {"parameter": parameter, "values": values}}
    )
    assert scenario.parameter == parameter
    assert [value for value, _ in scenario.points] == sorted(values)
    section = parameter.split(".")[0]
    for value, point in scenario.points:
        fixed = _point_sections(parameter, base, value)
        expected = parse_scenario({"name": "x", **fixed})
        assert getattr(point, section) == getattr(expected, section)
        assert point == expected


def _witness_cells(out_dir, name):
    """``(value, witness_id, variance, dB)`` of each row of a witness CSV."""
    with (out_dir / f"{name}_witness.csv").open(newline="") as fh:
        return [(row["value"], row["witness_id"], row["variance"], row["dB"])
                for row in csv.DictReader(fh)]


@pytest.mark.parametrize("parameter, base, values", [
    *_SWEEPS,
    (
        "comb.gain",
        {
            "comb": {"M": 6, "gain": 2.0},
            "wire": {"n_pairs": 2, "r": 0.8},
            "detection": {"eta_d": 0.85},
        },
        [4.0, 1.2, 2.5],
    ),
])
def test_each_sweep_row_is_the_row_of_its_point_run_alone(
    tmp_path, parameter, base, values
):
    # The points of a sweep share objects built once per scenario; a point
    # must read the same as when it is the whole scenario.
    sweep = {"name": "x", **base,
             "sweep": {"parameter": parameter, "values": values}}
    config = write_config(tmp_path / "sweep.json", sweep)
    assert main(["simulate", config, "--out-dir", str(tmp_path / "sweep")]) == 0
    swept = _witness_cells(tmp_path / "sweep", "x")
    alone = []
    for i, value in enumerate(sorted(values)):
        fixed = {"name": "x", **_point_sections(parameter, base, value)}
        config = write_config(tmp_path / f"point{i}.json", fixed)
        out = tmp_path / f"point{i}"
        assert main(["simulate", config, "--out-dir", str(out)]) == 0
        text = format(value, ".12g")
        alone += [(text, *cells[1:]) for cells in _witness_cells(out, "x")]
    assert len(swept) >= len(values)
    assert swept == alone


def test_only_tabular_commands_take_format(tmp_path, capsys):
    network = write_config(
        tmp_path / "empty.json", {"version": "v1", "n_modes": 2, "elements": []}
    )
    out = ["--out-dir", str(tmp_path), "--format", "json"]
    with pytest.raises(SystemExit) as excinfo:
        main(["decompose", network, *out])
    assert excinfo.value.code == 2
    assert "--format" in capsys.readouterr().err
    assert not (tmp_path / "empty_decomposition.json").exists()
    config = write_config(tmp_path / "scenario.json", MINIMAL)
    assert main(["simulate", config, *out]) == 0
    assert main(["noise-table", "--gains", "2", "--etas", "1", *out]) == 0
    assert (tmp_path / "minimal_witness.json").exists()
    assert (tmp_path / "noise_table.json").exists()


def test_internal_fault_exits_4_not_as_user_error(
    tmp_path, capsys, monkeypatch
):
    def broken(*args):
        raise ValueError("broken invariant")

    monkeypatch.setattr(modecomb.cli, "measure_witness", broken)
    config = write_config(tmp_path / "scenario.json", MINIMAL)
    assert main(["simulate", config, "--out-dir", str(tmp_path)]) == 4
    first = capsys.readouterr().err.splitlines()[0]
    assert first.startswith("internal error")
    assert "broken invariant" in first


@pytest.mark.parametrize("command", ["simulate", "decompose", "noise-table"])
@pytest.mark.parametrize("below", [False, True],
                         ids=["is-a-file", "under-a-file"])
def test_an_unusable_out_dir_is_an_output_failure(
    tmp_path, capsys, command, below
):
    blocker = tmp_path / "taken"
    blocker.write_text("", encoding="utf-8")
    out_dir = blocker / "reports" if below else blocker
    if command == "simulate":
        args = [write_config(tmp_path / "scenario.json", MINIMAL)]
    elif command == "decompose":
        args = [write_config(tmp_path / "net.json",
                             {"version": "v1", "n_modes": 2, "elements": []})]
    else:
        args = ["--gains", "2", "--etas", "0.9"]
    assert main([command, *args, "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ")
    assert str(out_dir) in err.splitlines()[0]
    assert "Traceback" not in err


def test_repeated_main_calls_share_one_parser_and_write_the_same_reports(
    tmp_path, monkeypatch
):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    modecomb.cli._parser.cache_clear()
    config = write_config(tmp_path / "scenario.json", MINIMAL)
    network = write_config(tmp_path / "net.json",
                           {"version": "v1", "n_modes": 2, "elements": []})
    grid = ["noise-table", "--gains", "2,4", "--etas", "0.9"]
    runs = [
        ["simulate", config],
        grid,
        [*grid, "--misalignments", "0.1,0"],
        ["decompose", network],
    ]

    def reports(argv, out):
        assert main([*argv, "--out-dir", str(out)]) == 0
        return {f.name: f.read_bytes() for f in out.iterdir()}

    first = [reports(argv, tmp_path / f"first{i}")
             for i, argv in enumerate(runs)]
    parsers = len(built)
    assert parsers > 0
    again = [reports(argv, tmp_path / f"again{i}")
             for i, argv in enumerate(runs + runs[::-1])]
    assert again == first + first[::-1]
    assert len(built) == parsers
    assert b",0.1," in first[2]["noise_table.csv"]
    assert b",0.1," not in first[1]["noise_table.csv"]


def test_wire_at_a_formerly_rejected_squeezing_simulates(tmp_path):
    # r = 6.375 is the first r on a 0.001 grid whose squeezer failed an
    # absolute symplectic tolerance.
    config = write_config(
        tmp_path / "wire.json",
        {"name": "wire", "wire": {"n_pairs": 3, "r": 6.375}},
    )
    assert main(["simulate", config, "--out-dir", str(tmp_path)]) == 0
    graph = json.loads((tmp_path / "wire_graph.json").read_text())
    assert graph["nullifier_residual"] < 1e-8


def test_parse_scenario_error_carries_field_attribute():
    with pytest.raises(FieldError) as excinfo:
        parse_scenario({"name": "x", "comb": {"M": 3, "r": 0.5}})
    assert excinfo.value.field == "comb.M"


def test_parse_detection_checks_every_replacement():
    base = {"eta_d": 0.9, "misalignment": 0.1, "stray_etas": [0.5]}
    spec = _parse_detection(base)
    assert spec == OverlapSpec(0.1, 0.9, (0.5,))
    assert spec.stray_etas == (0.5,)
    for change, field in (
        ({"eta_d": 0.0}, "eta_d"),
        ({"eta_d": 0.4}, "stray_etas"),
        ({"misalignment": 1.5}, "misalignment"),
        ({"stray_etas": []}, "stray_etas"),
        ({"stray_etas": 0.5}, "stray_etas"),
        ({"stray_etas": "0.5"}, "stray_etas"),
        ({"detector_eta": 0.9}, "detector_eta"),
    ):
        with pytest.raises(FieldError) as excinfo:
            _parse_detection({**base, **change})
        assert excinfo.value.field == field


def test_scenario_detection_is_the_overlap_spec_of_each_point():
    plain = parse_scenario({"name": "plain", "comb": {"M": 2, "r": 0.5}})
    assert plain.detection == OverlapSpec()
    detection = {"eta_d": 0.9, "misalignment": 0.1, "stray_etas": [0.3, 0.5]}
    for key, values in (
        ("misalignment", [0.0, 0.25, 0.1]),
        ("eta_d", [0.8, 1.0]),
    ):
        scenario = parse_scenario({
            "name": "swept",
            "comb": {"M": 2, "r": 0.5},
            "detection": detection,
            "sweep": {"parameter": f"detection.{key}", "values": values},
        })
        assert scenario.detection == OverlapSpec(0.1, 0.9, (0.3, 0.5))
        assert [value for value, _ in scenario.points] == sorted(values)
        for value, point in scenario.points:
            expected = {**detection, key: value}
            assert point.detection == OverlapSpec(**expected)


def test_decompose_network_roundtrip(tmp_path):
    network = write_config(
        tmp_path / "network.json",
        {
            "version": "v1",
            "n_modes": 3,
            "elements": [
                {"type": "two_mode_squeezer", "modes": [0, 1], "r": 0.8},
                {"type": "beamsplitter", "modes": [1, 2], "theta": 0.785398},
                {"type": "phase_shift", "modes": [2], "phi": -1.5707963},
            ],
        },
    )
    assert main(["decompose", network, "--out-dir", str(tmp_path)]) == 0
    report = json.loads(
        (tmp_path / "network_decomposition.json").read_text()
    )
    assert report["n_modes"] == 3
    assert report["squeeze"] == pytest.approx([0.8, 0.8, 0.0], abs=1e-9)
    assert report["recomposition_error"] < 1e-9
    assert len(report["passive_out"]) == 6
    assert len(report["passive_in"]) == 6


def test_decompose_empty_network_is_identity(tmp_path):
    network = write_config(
        tmp_path / "empty.json", {"version": "v1", "n_modes": 2, "elements": []}
    )
    assert main(["decompose", network, "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "empty_decomposition.json").read_text())
    assert report["squeeze"] == [0.0, 0.0]
    assert report["recomposition_error"] == 0.0


@pytest.mark.parametrize(
    "elements",
    [
        [{"type": "mirror", "modes": [0]}],
        [{"type": "beamsplitter", "modes": [0, 5]}],
        [{"type": "beamsplitter", "modes": [0, 0]}],
        [{"type": "two_mode_squeezer", "modes": [0, 1], "r": -1.0}],
        [{"modes": [0, 1]}],
    ],
)
def test_decompose_rejects_invalid_elements(tmp_path, elements):
    network = write_config(
        tmp_path / "network.json",
        {"version": "v1", "n_modes": 2, "elements": elements},
    )
    assert main(["decompose", network, "--out-dir", str(tmp_path)]) == 3


COUNT_REASON = "must list 2 distinct mode indices below 3"


@pytest.mark.parametrize(
    "modes, reason",
    [
        ([1, 1], COUNT_REASON),
        ([3], "mode 3 out of range for 3 modes"),
        (2, COUNT_REASON),
        ([-1], "mode -1 out of range for 3 modes"),
        ([0.5], "mode index must be an integer, got 0.5"),
        ("01", "mode index must be an integer, got '0'"),
        (None, COUNT_REASON),
    ],
)
def test_decompose_checks_element_modes_by_the_library_rule(
    tmp_path, capsys, modes, reason
):
    element = {"type": "beamsplitter"}
    if modes is not None:  # None: no "modes" key
        element["modes"] = modes
    network = write_config(
        tmp_path / "network.json",
        {"version": "v1", "n_modes": 3, "elements": [element]},
    )
    assert main(["decompose", network, "--out-dir", str(tmp_path)]) == 3
    assert capsys.readouterr().err.splitlines()[0] == (
        f"validation error: network.elements[0].modes: {reason}"
    )
    assert not (tmp_path / "network_decomposition.json").exists()


SQUEEZER = {"type": "two_mode_squeezer", "modes": [0, 1], "r": 0.5}
SPLITTER = {"type": "beamsplitter", "modes": [0, 1], "theta": 0.5, "phi": 0.1}


@pytest.mark.parametrize(
    "n_modes, element, field",
    [
        (2, [dict(SQUEEZER, r=6.9)] * 5, "network.elements[1]"),
        (2, [dict(SQUEEZER, r=6.9)] * 30, "network.elements[1]"),
        (2, dict(SQUEEZER, r=1000), "network.elements[0].r"),
        (2, dict(SQUEEZER, r="0.5"), "network.elements[0].r"),
        (2, dict(SQUEEZER, modes=[True, 1]), "network.elements[0].modes"),
        (2, dict(SPLITTER, theta=math.inf), "network.elements[0].theta"),
        (2, dict(SQUEEZER, r=math.nan), "network.elements[0].r"),
        (2, dict(SQUEEZER, phase=-math.inf), "network.elements[0].phase"),
        (2, dict(SPLITTER, phi=math.nan), "network.elements[0].phi"),
        (
            2,
            {"type": "phase_shift", "modes": [1], "phi": math.inf},
            "network.elements[0].phi",
        ),
        (math.nan, SQUEEZER, "network.n_modes"),
        (True, SQUEEZER, "network.n_modes"),
    ],
)
def test_decompose_errors_name_the_offending_field(
    tmp_path, capsys, n_modes, element, field
):
    elements = element if isinstance(element, list) else [element]
    network = write_config(
        tmp_path / "network.json",
        {"version": "v1", "n_modes": n_modes, "elements": elements},
    )
    assert main(["decompose", network, "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert field in err.splitlines()[0]
    assert "Traceback" not in err


def test_decompose_accepts_networks_within_the_squeezing_reach(tmp_path):
    strongest = dict(SQUEEZER, r=6.9)
    for name, elements, squeeze in (
        ("one", [strongest], [6.9, 6.9]),
        ("undone", [strongest, dict(strongest, phase=math.pi)], [0.0, 0.0]),
    ):
        network = write_config(
            tmp_path / f"{name}.json", {"n_modes": 2, "elements": elements}
        )
        assert main(["decompose", network, "--out-dir", str(tmp_path)]) == 0
        report = json.loads(
            (tmp_path / f"{name}_decomposition.json").read_text()
        )
        assert report["squeeze"] == pytest.approx(squeeze, abs=1e-6)


@pytest.mark.parametrize("version", ["v2", 1, None])
def test_decompose_rejects_an_unsupported_version(tmp_path, capsys, version):
    network = write_config(
        tmp_path / "network.json",
        {"version": version, "n_modes": 2, "elements": [SQUEEZER]},
    )
    assert main(["decompose", network, "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "network.version" in err.splitlines()[0]
    assert not (tmp_path / "network_decomposition.json").exists()


#: Parameter draws of each network element type.
_DRAWS = {
    "two_mode_squeezer": lambda rng: {
        "r": rng.uniform(0, 0.5), "phase": rng.uniform(0, 2 * math.pi)
    },
    "beamsplitter": lambda rng: {
        "theta": rng.uniform(0, math.pi), "phi": rng.uniform(0, 2 * math.pi)
    },
    "phase_shift": lambda rng: {"phi": rng.uniform(0, 2 * math.pi)},
}


def _random_network(rng, n_modes, n_elements, kinds=tuple(_DRAWS)):
    """A network file's contents and the product of its embedded elements,
    each of a type drawn from ``kinds``."""
    specs, product = [], np.eye(2 * n_modes)
    for _ in range(n_elements):
        kind = str(rng.choice(list(kinds)))
        arity = 1 if kind == "phase_shift" else 2
        modes = [int(m) for m in rng.choice(n_modes, arity, replace=False)]
        params = _DRAWS[kind](rng)
        specs.append({"type": kind, "modes": modes, **params})
        element = getattr(elements, kind)(**params)
        product = embed(n_modes, element, modes) @ product
    return {"n_modes": n_modes, "elements": specs}, product


@pytest.mark.parametrize("n_modes, n_elements", [(2, 40), (8, 80), (96, 200)])
def test_parse_network_matches_the_product_of_embedded_elements(
    n_modes, n_elements
):
    rng = np.random.default_rng(n_modes)
    raw, product = _random_network(rng, n_modes, n_elements)
    total = _parse_network(raw)
    assert total.n_modes == n_modes
    gap = np.linalg.norm(total.matrix - product)
    assert gap <= 1e-14 * np.linalg.norm(product)


@pytest.mark.parametrize(
    "element, modes",
    [
        (elements.two_mode_squeezer(0.7, 0.3), [4, 1]),
        (elements.beamsplitter(0.4, 1.1), [0, 5]),
        (elements.phase_shift(2.0), [3]),
    ],
)
def test_apply_symplectic_matrix_touches_only_the_rows_of_its_modes(
    element, modes
):
    n_modes = 6
    before = np.random.default_rng(11).normal(size=(2 * n_modes,) * 2)
    total = before.copy()
    apply_symplectic_matrix(total, element, modes)
    touched = [*modes, *(n_modes + m for m in modes)]
    untouched = [i for i in range(2 * n_modes) if i not in touched]
    assert np.array_equal(total[untouched], before[untouched])
    expected = embed(n_modes, element, modes) @ before
    assert np.allclose(total[touched], expected[touched], rtol=0, atol=1e-14)


def test_noise_table_diff_column_is_tiny(tmp_path):
    assert main(
        [
            "noise-table",
            "--gains", "1,1.5,2,4",
            "--etas", "0.8,0.95,1",
            "--misalignments", "0,0.1",
            "--out-dir", str(tmp_path),
        ]
    ) == 0
    rows = read_rows(tmp_path / "noise_table.csv")
    assert len(rows) == 4 * 3 * 2
    for row in rows:
        if row["misalignment"] == "0":
            assert float(row["abs_difference"]) <= 1e-10
        else:
            # No covariance simulation is defined for misaligned detection.
            assert row["simulated"] == ""
            assert row["abs_difference"] == ""
    gains = [float(row["gain"]) for row in rows]
    assert gains == sorted(gains)


@pytest.mark.parametrize(
    "gains, etas, misalignments, field",
    [
        ("0.5", "1", "0", "gains[0].gain"),
        ("2,1e308", "1", "0", "gains[1].gain"),
        ("nan", "1", "0", "gains[0].gain"),
        ("inf", "1", "0", "gains[0].gain"),
        ("2", "1.5", "0", "etas[0].eta"),
        ("2", "0.5,-0.1", "0", "etas[1].eta"),
        ("2", "0.5,-inf", "0", "etas[1].eta"),
        ("2", "0", "0,0.1", "etas[0].eta_d"),
        ("2", "1", "1.5", "misalignments[0].misalignment"),
        ("2", "1", "0,-0.2", "misalignments[1].misalignment"),
        ("2", "1", "nan", "misalignments[0].misalignment"),
    ],
)
def test_noise_table_rejects_out_of_range_values(
    tmp_path, capsys, gains, etas, misalignments, field
):
    code = main(
        [
            "noise-table",
            "--gains", gains,
            "--etas", etas,
            "--misalignments", misalignments,
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert field in err.splitlines()[0]
    assert "Traceback" not in err
    assert not (tmp_path / "noise_table.csv").exists()


def _count_squeezer_builds(monkeypatch):
    """Count calls of ``elements.two_mode_squeezer`` through every
    ``modecomb`` module that binds it; return the growing call list."""
    calls = []
    original = elements.two_mode_squeezer

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "modecomb" and (
            getattr(module, "two_mode_squeezer", None) is original
        ):
            monkeypatch.setattr(module, "two_mode_squeezer", counted)
    return calls


def test_noise_table_builds_one_squeezer_per_gain(tmp_path, monkeypatch):
    calls = _count_squeezer_builds(monkeypatch)
    path = cmd_noise_table(
        [1.5, 2.0, 3.0, 4.0], [0.5, 0.6, 0.7, 0.8, 0.9], [0.0], tmp_path
    )
    assert len(read_rows(path)) == 20
    assert len(calls) == 4


def test_write_table_matches_dict_writer_byte_for_byte(tmp_path):
    header = ["plain", "with,comma", 'with "quote"', "empty"]
    rows = [
        ("1", "a,b", 'say "hi"', ""),
        ("line\nbreak", "cr\rreturn", "", " padded "),
        ("", "", "", ""),
        ("\u03b7=0.9", "'single'", '","', "\r\n"),
    ]
    reference = io.StringIO(newline="")
    writer = csv.DictWriter(reference, fieldnames=header)
    writer.writeheader()
    writer.writerows(dict(zip(header, row)) for row in rows)
    path = _write_table(tmp_path, "table", header, rows, "csv")
    assert path.read_bytes() == reference.getvalue().encode("utf-8")

    path = _write_table(tmp_path, "table", header, rows, "json")
    table = [dict(zip(header, row)) for row in rows]
    assert path.read_text(encoding="utf-8") == (
        json.dumps(table, indent=2, sort_keys=True) + "\n"
    )


def test_noise_table_json_format(tmp_path):
    assert main(
        [
            "noise-table",
            "--gains", "2",
            "--etas", "1",
            "--misalignments", "0",
            "--out-dir", str(tmp_path),
            "--format", "json",
        ]
    ) == 0
    rows = json.loads((tmp_path / "noise_table.json").read_text())
    assert len(rows) == 1
    assert float(rows[0]["closed_form"]) == pytest.approx(0.171573, abs=1e-6)


def _reference_json(obj):
    """The report layout: ``json.dumps`` with indent 2 and sorted keys, and
    numpy arrays as their ``tolist()``."""
    text = json.dumps(obj, indent=2, sort_keys=True, default=np.ndarray.tolist)
    return (text + "\n").encode("utf-8")


#: Scalars, including strings that look like JSON syntax and the floats
#: whose text is easiest to get wrong.
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from(
        [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, 5e300, 2**63]
    ),
    st.text(),
    st.sampled_from([", ", "[", "]", '"', "\n", "a, b", '[1, "2"]', "{}"]),
)
#: Block entries, with the floats whose text is easiest to get wrong.
_BLOCK_ENTRIES = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300]),
)


def _passive_matrix(x, y):
    """The form of every passive factor ``blochmessiah`` builds."""
    return np.block([[x, -y], [y, x]])


#: Arrays: float matrices of passive form and of any shape, which the writer
#: lays out by rows, and others that it leaves to ``json.dumps``.
_JSON_ARRAYS = st.one_of(
    hnp.arrays(
        np.float64, st.integers(1, 3).map(lambda n: (2, n, n)),
        elements=_BLOCK_ENTRIES,
    ).map(lambda xy: _passive_matrix(*xy)),
    hnp.arrays(
        np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0),
        elements=_BLOCK_ENTRIES,
    ),
    hnp.arrays(np.float64, st.integers(0, 6), elements=_BLOCK_ENTRIES),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0)),
)
_JSON_VALUES = st.recursive(
    st.one_of(
        _JSON_SCALARS,
        _JSON_ARRAYS,
        st.lists(st.floats(), max_size=6),
        st.lists(st.one_of(st.integers(), st.floats()), max_size=6).map(tuple),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(), children, max_size=4),
    ),
    max_leaves=24,
)


@settings(deadline=None, max_examples=300)
@given(_JSON_VALUES)
def test_json_reports_match_json_dumps_byte_for_byte(tmp_path_factory, obj):
    path = tmp_path_factory.mktemp("writer") / "report.json"
    assert _write_json(path, obj).read_bytes() == _reference_json(obj)


def _random_unitary(rng, n):
    """A Haar-random n x n unitary: the QR factor of a complex Gaussian
    matrix, with the phases of R's diagonal moved into Q."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / abs(np.diag(r)))


@pytest.mark.parametrize("n", range(1, 9))
def test_passive_factors_of_random_unitaries_match_json_dumps(tmp_path, n):
    factor = _real_orthogonal(_random_unitary(np.random.default_rng(n), n))
    obj = {"factor": factor, "nested": [factor.T, {"again": factor}]}
    path = _write_json(tmp_path / "report.json", obj)
    assert path.read_bytes() == _reference_json(obj)


@settings(deadline=None, max_examples=200)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(_BLOCK_ENTRIES, min_size=2 * n * n,
                           max_size=2 * n * n)
    )
)
def test_passive_blocks_of_any_floats_match_json_dumps(
    tmp_path_factory, entries
):
    n = math.isqrt(len(entries) // 2)
    x, y = np.reshape(entries, (2, n, n))
    obj = {"m": _passive_matrix(x, y)}
    path = _write_json(tmp_path_factory.mktemp("writer") / "r.json", obj)
    assert path.read_bytes() == _reference_json(obj)


def _near_misses():
    """Arrays that are not ``[[X, -Y], [Y, X]]`` bit for bit."""
    rng = np.random.default_rng(5)
    base = _passive_matrix(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)))
    ulp_off = base.copy()
    ulp_off[4, 5] = np.nextafter(ulp_off[4, 5], np.inf)
    positive_zero = base.copy()
    positive_zero[3, 1] = 0.0  # Y[0, 1], so -Y holds -0.0 at [0, 4]
    positive_zero[0, 4] = 0.0
    return {
        "bottom-right one ulp off": ulp_off,
        "+0.0 where -Y holds -0.0": positive_zero,
        "identity": np.eye(4),
        "odd order": np.ones((3, 3)),
        "non-square": _passive_matrix(np.ones((2, 2)), np.ones((2, 2)))[:, :3],
        "0x0": np.zeros((0, 0)),
        "0x4": np.zeros((0, 4)),
        "integers": np.arange(16).reshape(4, 4),
        "one row": np.array([1.0, -0.0]),
    }


@pytest.mark.parametrize("name", sorted(_near_misses()))
def test_arrays_not_of_passive_form_match_json_dumps(tmp_path, name):
    obj = {"m": _near_misses()[name], "list": [1.0, -0.0]}
    path = _write_json(tmp_path / "report.json", obj)
    assert path.read_bytes() == _reference_json(obj)


def _decompose_with_spy(tmp_path, monkeypatch, raw):
    """Run ``cmd_decompose`` on ``raw``; return the report dict, the file's
    bytes and every object the writer laid out."""
    network = write_config(tmp_path / "net.json", {"version": "v1", **raw})
    reports, laid_out = [], []
    json_chunks = modecomb.cli._json_chunks

    def recording_write(path, obj):
        reports.append(obj)
        return _write_json(path, obj)

    def recording_chunks(obj, *args):
        laid_out.append(obj)
        json_chunks(obj, *args)

    monkeypatch.setattr(modecomb.cli, "_write_json", recording_write)
    monkeypatch.setattr(modecomb.cli, "_json_chunks", recording_chunks)
    path = cmd_decompose(network, tmp_path)
    (report,) = reports
    return report, path.read_bytes(), laid_out


_NETWORKS = {
    "squeezed": lambda: _random_network(np.random.default_rng(96), 96, 200)[0],
    "passive only": lambda: _random_network(
        np.random.default_rng(97), 96, 200, ("beamsplitter", "phase_shift")
    )[0],
    "empty": lambda: {"n_modes": 96, "elements": []},
}


@pytest.mark.parametrize("network", sorted(_NETWORKS))
def test_decompose_report_matches_json_dumps_byte_for_byte(
    tmp_path, monkeypatch, network
):
    report, text, _ = _decompose_with_spy(
        tmp_path, monkeypatch, _NETWORKS[network]()
    )
    assert len(report["passive_out"]) == 192
    assert text == _reference_json(report)


def _factor_row_lists(laid_out):
    """The laid-out lists of lists of 192 rows: a 96-mode factor as its
    tolist()."""
    return [
        obj for obj in laid_out
        if isinstance(obj, list) and len(obj) == 192
        and isinstance(obj[0], list)
    ]


def test_squeezed_network_factors_skip_the_list_fallback(
    tmp_path, monkeypatch
):
    report, _, laid_out = _decompose_with_spy(
        tmp_path, monkeypatch, _NETWORKS["squeezed"]()
    )
    assert max(report["squeeze"]) > 0.0
    arrays = [obj for obj in laid_out if isinstance(obj, np.ndarray)]
    assert len(arrays) == 2
    assert _factor_row_lists(laid_out) == []


@pytest.mark.parametrize("network", sorted(_NETWORKS))
def test_every_network_factor_is_laid_out_from_rows(
    tmp_path, monkeypatch, network
):
    # A squeezed network's factors are written from their X and Y blocks.
    # A passive-only or empty one's passive_in is the identity, whose
    # top-right +0.0 is not -(+0.0), and its passive_out, the network's
    # product, has blocks that agree only to rounding: each is written from
    # its own 192 rows.
    row_texts, blocks = modecomb.cli._row_texts, []

    def recording_row_texts(block, sep):
        blocks.append(block.shape)
        return row_texts(block, sep)

    monkeypatch.setattr(modecomb.cli, "_row_texts", recording_row_texts)
    report, _, laid_out = _decompose_with_spy(
        tmp_path, monkeypatch, _NETWORKS[network]()
    )
    arrays = [obj for obj in laid_out if isinstance(obj, np.ndarray)]
    assert len(arrays) == 2
    assert _factor_row_lists(laid_out) == []
    passive = max(report["squeeze"]) == 0.0
    assert passive == (network != "squeezed")
    assert blocks == ([(192, 192)] * 2 if passive else [(96, 96)] * 4)


def _holds_array(obj):
    """Whether ``obj`` is, or a list, tuple or dict in it holds, an array."""
    if isinstance(obj, dict):
        return any(map(_holds_array, obj.values()))
    if isinstance(obj, (list, tuple)):
        return any(map(_holds_array, obj))
    return isinstance(obj, np.ndarray)


def test_json_reports_pass_no_array_to_the_pure_python_encoder(
    tmp_path, monkeypatch
):
    # With indent set, json.dumps runs this encoder on lists and scalars
    # by design; a report's matrices are written from C-encoded rows.
    make_iterencode = json.encoder._make_iterencode

    def checked_make_iterencode(*args, **kwargs):
        iterencode = make_iterencode(*args, **kwargs)

        def checked_iterencode(obj, *rest):
            if _holds_array(obj):
                raise AssertionError("array passed to the pure-Python encoder")
            return iterencode(obj, *rest)

        return checked_iterencode

    monkeypatch.setattr(
        json.encoder, "_make_iterencode", checked_make_iterencode
    )
    assert json.dumps([1.0], indent=2) == "[\n  1.0\n]"
    with pytest.raises(AssertionError):
        json.dumps([np.ones(1)], indent=2, default=np.ndarray.tolist)
    for i, kinds in enumerate([tuple(_DRAWS), ("beamsplitter", "phase_shift")]):
        raw, _ = _random_network(np.random.default_rng(8), 8, 40, kinds)
        network = write_config(tmp_path / f"net{i}.json", {"version": "v1", **raw})
        assert cmd_decompose(network, tmp_path).exists()
    config = write_config(tmp_path / "scenario.json", MINIMAL)
    assert all(
        path.exists() for path in run_scenario(config, tmp_path, fmt="json")
    )
    assert cmd_noise_table([2.0], [0.9], [0.0, 0.1], tmp_path, "json").exists()


def test_a_report_that_fails_to_encode_leaves_no_file(tmp_path):
    path = tmp_path / "report.json"
    with pytest.raises(TypeError):
        _write_json(path, {"a": [1.0, 2.0], "b": [object()]})
    assert not path.exists()


def test_importing_the_cli_loads_no_scipy():
    code = (
        "import sys, modecomb.cli; print(sorted(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.')))"
    )
    src = str(Path(modecomb.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.stdout.strip() == "[]"


def test_console_entry_point_runs(tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(MINIMAL), encoding="utf-8")
    result = subprocess.run(
        [
            sys.executable, "-m", "modecomb.cli",
            "simulate", str(config), "--out-dir", str(tmp_path),
        ],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0
    assert "minimal_witness.csv" in result.stdout
    assert (tmp_path / "minimal_witness.csv").exists()
