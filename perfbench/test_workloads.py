"""Tests of the benchmark's own input generation, checks and tracing.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from tracing import Tracer, install
from workloads import WIRE_R_MAX, WORKLOADS, load_input

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _sizes(value):
    """Sizes of a decoded input: its keys, list lengths and scalar types."""
    if isinstance(value, dict):
        return {k: _sizes(v) for k, v in value.items()}
    if isinstance(value, list):
        return len(value)
    return type(value).__name__


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_regenerates_identical_inputs(name, tmp_path):
    first = WORKLOADS[name].generate(7, tmp_path / "a")
    WORKLOADS[name].generate(7, tmp_path / "b")
    assert first
    assert _files(tmp_path / "a") == _files(tmp_path / "b")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_changes_values_not_sizes(name, tmp_path):
    a = WORKLOADS[name].generate(7, tmp_path / "a")
    b = WORKLOADS[name].generate(8, tmp_path / "b")
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        spec_a, spec_b = load_input(pa), load_input(pb)
        spec_a.pop("_stem"), spec_b.pop("_stem")
        assert _sizes(spec_a) == _sizes(spec_b)
        assert spec_a != spec_b


def test_wire_pool_is_stratified_over_base_r(tmp_path):
    paths = WORKLOADS["wire-graph"].generate(3, tmp_path)
    rs = sorted(load_input(p)["wire"]["r"] for p in paths)
    width = WIRE_R_MAX / len(rs)
    for i, r in enumerate(rs):
        assert i * width < r <= (i + 1) * width


@pytest.fixture
def cli():
    sys.path.insert(0, str(SRC))
    import modecomb.cli
    yield modecomb.cli
    sys.path.remove(str(SRC))


def _run(cli, workload, path, out_dir):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(workload.argv(path, out_dir))


def test_check_rejects_a_wrong_variance(cli, tmp_path):
    workload = WORKLOADS["comb-sweep"]
    path = workload.generate(1, tmp_path / "in")[0]
    spec = load_input(path)
    out = tmp_path / "out"
    assert _run(cli, workload, path, out) == 0
    assert workload.check(spec, out).ok
    table = out / f"{spec['name']}_witness.csv"
    lines = table.read_text().splitlines()
    fields = lines[1].split(",")
    fields[4] = format(float(fields[4]) * (1 + 1e-6), ".12g")
    lines[1] = ",".join(fields)
    table.write_text("\n".join(lines) + "\n")
    assert not workload.check(spec, out).ok


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_and_match_inputs(name, cli, tmp_path):
    workload = WORKLOADS[name]
    path = workload.generate(1, tmp_path / "in")[0]
    spec = load_input(path)
    original = cli.main
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        runs = []
        for op in range(2):
            tracer.begin_op(op)
            code = _run(cli, workload, path, tmp_path / "out")
            runs.append((code, tracer.end_op()))
    finally:
        uninstall()
    assert cli.main is original
    (code, first), (code_again, second) = runs
    assert code == code_again
    assert first["calls"] == second["calls"]
    assert first["cov_bytes"] == second["cov_bytes"]
    for span, count in workload.expected_calls(spec, code).items():
        assert first["calls"].get(span, 0) == count, span


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_reports_the_listed_metrics(trace, section, capsys):
    import run

    code = run.main(["--workload", "noise-grid", "--seed", "1",
                     "--seconds", "0.5", "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert [m["name"] for m in listed] == list(result["metrics"])
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
