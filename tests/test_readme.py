"""The README's examples run as documented against the public API, and
``from modecomb import *`` exports exactly that API."""

import contextlib
import io
import re
import types
from pathlib import Path

import modecomb
from modecomb.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8"
)


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, err.getvalue()


def test_library_quickstart_runs():
    (block,) = _blocks("python")
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(block, "README.md", "exec"), {})


def test_simulate_and_decompose_examples_run(tmp_path):
    scenario, network = _blocks("json")
    (tmp_path / "scenario.json").write_text(scenario, encoding="utf-8")
    (tmp_path / "network.json").write_text(network, encoding="utf-8")
    out = str(tmp_path / "out")
    _run(["simulate", str(tmp_path / "scenario.json"), "--out-dir", out])
    _run(["decompose", str(tmp_path / "network.json"), "--out-dir", out])
    written = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert written == [
        "example_graph.json", "example_witness.csv",
        "network_decomposition.json",
    ]


def test_documented_noise_table_runs(tmp_path):
    (command,) = re.findall(r"^### `modecomb (noise-table [^`]*)`$", README,
                            re.M)
    assert command == (
        "noise-table --gains 1,2,4 --etas 0.8,1.0 --misalignments 0,0.1"
    )
    _run([*command.split(), "--out-dir", str(tmp_path)])
    rows = (tmp_path / "noise_table.csv").read_text().splitlines()
    assert len(rows) == 1 + 3 * 2 * 2


def test_all_lists_every_public_name():
    public = {name for name, value in vars(modecomb).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert set(modecomb.__all__) == public
    assert len(modecomb.__all__) == len(public)
    for name in modecomb.__all__:
        assert getattr(modecomb, name) is not None
