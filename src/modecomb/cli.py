"""Scenario-driven command line interface.

Subcommands:

* ``simulate <config.json>`` — build the comb and/or wire described by a
  scenario file, evaluate entanglement witnesses (optionally over a
  parameter sweep), and write ``<name>_witness.csv`` (or ``.json``) plus
  ``<name>_graph.json`` into the output directory. The ``detection``
  section is an :class:`~modecomb.detection.OverlapSpec`, key for field.
  Comb rows take the closed-form misaligned noise when that spec puts LO
  power on a stray mode; otherwise, and for every wire row, the witness is
  covariance-simulated at ``eta_d``.
* ``decompose <network.json>`` — compose a network of elementary Gaussian
  elements and write its passive-squeeze-passive factorization as JSON.
* ``noise-table --gains .. --etas .. --misalignments ..`` — tabulate the
  closed-form detection noise over a parameter grid next to the simulated
  value where defined.

Exit codes: 0 success, 2 parse failure (malformed JSON or argument lists,
missing, unreadable or non-UTF-8 files, integer literals too long to
convert) or output failure (an output directory or report that cannot be
created or written), 3 validation failure, 4 any other failure; nothing
exits with 1.
Each input rule lives in the type or function that owns the field and
raises a :class:`~modecomb.gaussian.FieldError`; this module only prepends
the section (``comb.``, ``wire.``, ``detection.``,
``network.elements[i].``, ``sweep.values[i].``, ``gains[i].``, ...), so a
validation failure always names a dotted field. Each parser also rejects a
key it does not read. Every sweep point and grid value is validated before
anything is computed. Any other exception is an internal error: exit 4,
with ``internal error: ...`` as the first stderr line.

Everything here is deterministic; the scenario ``seed`` is only echoed into
reports so that downstream tooling can record provenance.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import elements
from .blochmessiah import decompose as bloch_messiah_decompose
from .blochmessiah import recompose
from .cluster import (
    DualRailSpec,
    bipartite_graph,
    build_dual_rail,
    extract_graph,
    nullifier_residual,
    wire_witnesses,
)
from .comb import SpatialComb, _xdiff_terms, amplify_comb, build_comb
from .detection import (
    OverlapSpec,
    ideal_epr_noise,
    measure_witness,
    misaligned_noise,
)
from .elements import AmplifierSpec, _fraction
from .gaussian import (
    MAX_MODES,
    FieldError,
    SymplecticTransform,
    Witness,
    _apply_rows,
    _integer,
    _modes,
    _step_rows,
    _unchecked_state,
)

CONFIG_VERSION = "v1"

#: Float formatting used in all tabular output; fixed for byte-stable files.
FLOAT_FORMAT = ".12g"


class ParseError(Exception):
    """An input file that cannot be read or decoded as JSON (exit 2)."""


def _load_json(path):
    """Read and decode a UTF-8 JSON input file.

    Raises:
        ParseError: the file is missing or unreadable, is not UTF-8 or not
            JSON, nests too deeply, or holds an integer literal longer than
            Python converts (``sys.get_int_max_str_digits()``).
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(str(exc)) from exc


@dataclass(frozen=True)
class Scenario:
    """A validated scenario file.

    Attributes:
        detection (OverlapSpec): the ``detection`` section, ideal when the
            section is absent
        parameter (str): dotted name of the swept field, "" without a sweep
        points (tuple): ``(value, Scenario)`` pairs sorted by value, each
            point this scenario with the swept value put in; empty without
            a sweep
    """

    name: str
    comb: SpatialComb | None
    wire: DualRailSpec | None
    detection: OverlapSpec
    seed: int | None
    parameter: str = ""
    points: tuple = ()


@contextmanager
def _within(prefix):
    """Prepend ``prefix`` to the field of a FieldError raised inside."""
    try:
        yield
    except FieldError as exc:
        raise FieldError(f"{prefix}.{exc.field}", exc.reason) from exc


def _checked(field, values, build):
    """Build every entry of a nonempty list, naming a bad one by position;
    return the ``(value, build(value))`` pairs sorted by value."""
    if not values:
        raise FieldError(field, "needs at least one value")
    built = []
    for i, value in enumerate(values):
        with _within(f"{field}[{i}]"):
            built.append((value, build(value)))
    return sorted(built, key=lambda pair: pair[0])


def _known(raw, keys):
    """Reject the first key of the object ``raw`` not among ``keys``, the
    keys its parser reads."""
    for key in raw:
        if key not in keys:
            raise FieldError(
                key, f"unknown field; expected one of {sorted(keys)}"
            )


def _section(raw, name, parse):
    """Parse the object ``raw[name]`` with its fields prefixed by ``name``."""
    if name not in raw:
        return None
    if not isinstance(raw[name], dict):
        raise FieldError(name, "must be an object")
    with _within(name):
        return parse(raw[name])


def _parse_comb(raw):
    _known(raw, ("M", "cells", "gain", "r"))
    if ("gain" in raw) == ("r" in raw):
        raise FieldError("gain", "exactly one of 'gain' or 'r' is required")
    if "gain" in raw:
        amp = AmplifierSpec.from_gain(raw["gain"])
    else:
        amp = AmplifierSpec.from_squeezing(raw["r"])
    return build_comb(raw.get("M"), amp, raw.get("cells", 1))


def _parse_wire(raw):
    _known(raw, ("n_pairs", "r", "phase_convention"))
    default = DualRailSpec.phase_convention
    return DualRailSpec(raw.get("n_pairs"), raw.get("r"),
                        raw.get("phase_convention", default))


def _parse_detection(raw):
    _known(raw, ("eta_d", "misalignment", "stray_etas"))
    return OverlapSpec(**raw)


#: Sweepable dotted field paths, each mapped to the key of its section that
#: a swept value replaces.
_SWEEP_FIELDS = {
    "comb.gain": "r",
    "comb.r": "gain",
    "wire.r": "r",
    "detection.eta_d": "eta_d",
    "detection.misalignment": "misalignment",
}


def _parse_sweep(raw, config, scenario):
    """Build and so validate every sweep point of ``scenario``: each is
    :func:`parse_scenario` of the decoded ``config`` without its sweep and
    with the swept key set, so a bad value is named as the point's field."""
    _known(raw, ("parameter", "values"))
    parameter = raw.get("parameter")
    if not isinstance(parameter, str) or parameter not in _SWEEP_FIELDS:
        raise FieldError(
            "parameter",
            f"unknown field {parameter!r}; expected one of "
            f"{sorted(_SWEEP_FIELDS)}",
        )
    section, key = parameter.split(".")
    if getattr(scenario, section) is None:
        raise FieldError(
            "parameter", f"scenario has no {section!r} section to sweep"
        )
    values = raw.get("values")
    if not isinstance(values, list):
        raise FieldError("values", "must be a nonempty number list")
    replaced = _SWEEP_FIELDS[parameter]
    base = {k: v for k, v in config.get(section, {}).items() if k != replaced}
    fixed = {k: v for k, v in config.items() if k != "sweep"}

    def point(value):
        return parse_scenario({**fixed, section: {**base, key: value}})

    points = _checked("values", values, point)
    return replace(
        scenario,
        parameter=parameter,
        points=tuple((float(value), sc) for value, sc in points),
    )


def _check_version(raw, field):
    """Reject an input file whose ``version`` is set to anything but
    :data:`CONFIG_VERSION`; a missing one means that version."""
    version = raw.get("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise FieldError(field, f"unsupported config version {version!r}")


def parse_scenario(raw):
    """Validate a decoded config dict into a :class:`Scenario`.

    Every sweep point is built, and so validated, here.

    Raises:
        FieldError: naming the offending field.
    """
    if not isinstance(raw, dict):
        raise FieldError("config", "top level must be an object")
    with _within("config"):
        _known(raw, ("version", "name", "seed", "comb", "wire", "detection",
                     "sweep"))
    _check_version(raw, "version")
    name = raw.get("name")
    # A NUL byte would reach the file system, which rejects it.
    if not isinstance(name, str) or not name or set(name) & set("/\\\0"):
        raise FieldError("config.name", "must be a nonempty path-safe string")
    # A lone surrogate has no UTF-8 encoding, so no report file name.
    try:
        name.encode("utf-8")
    except UnicodeEncodeError:
        raise FieldError(
            "config.name", f"must encode as UTF-8, got {name!r}"
        ) from None
    seed = raw.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise FieldError("config.seed", "must be an integer")
    comb = _section(raw, "comb", _parse_comb)
    wire = _section(raw, "wire", _parse_wire)
    if comb is None and wire is None:
        raise FieldError(
            "config", "at least one of 'comb' or 'wire' is required"
        )
    detection = _section(raw, "detection", _parse_detection)
    scenario = Scenario(
        name=name,
        comb=comb,
        wire=wire,
        detection=detection or OverlapSpec(),
        seed=seed,
    )
    swept = _section(
        raw, "sweep", lambda sweep: _parse_sweep(sweep, raw, scenario)
    )
    return swept or scenario


def _comb_basis(comb):
    """The vacuum of ``comb``'s modes and its ``(label, Witness)``
    x-difference witnesses in pair order. They depend only on ``M`` and
    ``cells``, which no sweep changes.

    The library builds the vacuum as the identity covariance, unchecked and
    without a symplectic factor: each pair's squeezer in
    :func:`~modecomb.comb.amplify_comb` updates the covariance, and each
    comb row is read from its pair's marginal through loss channels. The
    comb's graph report is its pair graph, which reads no state."""
    n = comb.n_modes
    witnesses = [(label, Witness.from_terms(n, xdiff))
                 for label, xdiff in _xdiff_terms(comb)]
    return _unchecked_state(n, cov=np.eye(2 * n)), witnesses


def _witness_rows(scenario, comb_basis):
    """Evaluate all witnesses of one concrete (non-sweep) scenario.

    ``comb_basis()`` returns :func:`_comb_basis` of the scenario's comb; it
    is called only when a comb row is simulated. The comb is amplified from
    that vacuum, which nothing mutates, so :func:`run_scenario` shares one
    basis across its points.
    """
    det = scenario.detection
    eta_d = det.eta_d
    comb = scenario.comb
    rows = []
    if comb is not None:
        if det.stray_power:
            # LO power on a stray mode: the closed form, the same per pair.
            report = misaligned_noise(det, comb.amp.gain)
            rows += [(label, report) for label, _ in _xdiff_terms(comb)]
        else:
            vacuum, witnesses = comb_basis()
            state = amplify_comb(vacuum, comb)
            for label, witness in witnesses:
                rows.append((label, measure_witness(state, witness, eta_d)))
    if scenario.wire is not None:
        state = build_dual_rail(scenario.wire)
        for label, witness in wire_witnesses(scenario.wire):
            rows.append((label, measure_witness(state, witness, eta_d)))
    return rows


def _graph_report(scenario):
    """Graph description of the base (unswept) scenario."""
    if scenario.wire is not None:
        state = build_dual_rail(scenario.wire)
        graph = extract_graph(state)
        residual = nullifier_residual(state, graph)
        source = "wire"
    else:
        graph = bipartite_graph(scenario.comb)
        residual = None
        source = "comb"
    return {
        "name": scenario.name,
        "seed": scenario.seed,
        "source": source,
        "n_nodes": graph.n_nodes,
        "edges": [[i, j, w] for i, j, w in graph.edges],
        "nullifier_residual": residual,
    }


def run_scenario(config_path, out_dir=".", fmt="csv"):
    """Run a scenario file and write its witness table and graph report.

    Each sweep point is the scenario file with the swept key set, parsed
    again, and is evaluated as that scenario would be. The comb's vacuum
    and pair witnesses are built once per call, on the first point that
    simulates the comb, and each point amplifies its own comb from that
    unchecked, factorless vacuum; closed-form points build neither. Each
    comb row is read from its pair's ``4 x 4`` covariance block by
    :func:`~modecomb.detection.measure_witness`. A wire is held by its
    symplectic factor, and each wire row is read from that factor's rows.

    Args:
        config_path: path of the JSON scenario
        out_dir: directory receiving the report files
        fmt: "csv" or "json" for the witness table

    Returns:
        list[Path]: the written file paths
    """
    scenario = parse_scenario(_load_json(config_path))
    # No sweep changes the comb's modes, so every point shares one basis.
    comb_basis = functools.cache(lambda: _comb_basis(scenario.comb))

    rows = []
    for value, point in scenario.points or ((None, scenario),):
        value_text = "" if value is None else format(value, FLOAT_FORMAT)
        for witness_id, report in _witness_rows(point, comb_basis):
            rows.append((
                scenario.name,
                scenario.parameter,
                value_text,
                witness_id,
                format(report.variance, FLOAT_FORMAT),
                format(report.db, FLOAT_FORMAT),
            ))

    out, name = Path(out_dir), scenario.name
    header = ["scenario", "parameter", "value", "witness_id", "variance", "dB"]
    table = _write_table(out, f"{name}_witness", header, rows, fmt)
    graph = _graph_report(scenario)
    return [table, _write_json(out / f"{name}_graph.json", graph)]


#: The sign bit of a float64, as its bits.
_SIGN_BIT = np.uint64(1 << 63)


def _passive_blocks(array):
    """``(X, Y)`` if ``array`` is a float64 matrix ``[[X, -Y], [Y, X]]`` of
    order 2N >= 2, compared bit for bit; else None."""
    rows, cols = array.shape if array.ndim == 2 else (0, 0)
    if array.dtype != np.float64 or rows != cols or rows % 2 or not rows:
        return None
    n = rows // 2
    bits = array.view(np.uint64)
    if np.array_equal(bits[n:, n:], bits[:n, :n]) and np.array_equal(
        bits[:n, n:], bits[n:, :n] ^ _SIGN_BIT
    ):
        return array[:n, :n], array[n:, :n]
    return None


def _row_texts(block, sep):
    """The text of each row of a float matrix, items joined by ``sep``;
    numbers hold no ``", "`` or ``"]"``."""
    text = json.dumps(block.tolist())[2:-2].replace(", ", sep)
    return text.split(f"]{sep}[")


def _negated(row, sep):
    """The text of a row ``-v`` from that of ``v`` (see :func:`_row_texts`):
    each item gains a leading ``-`` or loses it. ``json`` writes every NaN
    as ``NaN``, whatever its sign."""
    flipped = ("-" + row.replace(sep, sep + "-")).replace("--", "")
    return flipped.replace("-NaN", "NaN")


def _json_chunks(obj, chunks, indent="\n"):
    """Append the text of ``json.dumps(obj, indent=2, sort_keys=True,
    default=np.ndarray.tolist)`` to ``chunks``; ``indent`` is the line break
    before ``obj``'s closing bracket. Dict keys must be strings.

    A non-empty float64 matrix is laid out row by row, each row's numbers
    encoded in C. A matrix ``[[X, -Y], [Y, X]]``, the form of every passive
    factor :mod:`~modecomb.blochmessiah` builds, has only ``X`` and ``Y``
    encoded, and the text of ``-Y`` is that of ``Y`` with each item's sign
    flipped. The blocks are compared as bits, not values: ``0.0 == -0.0``,
    but ``json`` writes the two differently. So an identity, whose
    top-right ``+0.0`` is not ``-(+0.0)``, is written from its own rows.
    """
    inner = indent + "  "
    if isinstance(obj, dict) and obj:
        chunks.append("{")
        sep = inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {key!r}")
            chunks.append(f"{sep}{json.dumps(key)}: ")
            _json_chunks(value, chunks, inner)
            sep = "," + inner
        chunks.append(indent + "}")
    elif (
        isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.size
        and obj.dtype == np.float64
    ):
        sep = f",{inner}  "
        blocks = _passive_blocks(obj)
        if blocks is None:
            rows = _row_texts(obj, sep)
        else:
            x_rows, y_rows = (_row_texts(block, sep) for block in blocks)
            rows = [x + sep + _negated(y, sep) for x, y in zip(x_rows, y_rows)]
            rows += [y + sep + x for x, y in zip(x_rows, y_rows)]
        body = f"{inner}],{inner}[{inner}  ".join(rows)
        chunks.append(f"[{inner}[{inner}  {body}{inner}]{indent}]")
    else:
        text = json.dumps(
            obj, indent=2, sort_keys=True, default=np.ndarray.tolist
        )
        chunks.append(text.replace("\n", indent))


def _write_json(path, obj):
    """Write ``json.dumps(obj, indent=2, sort_keys=True,
    default=np.ndarray.tolist)`` and a newline to ``path``, byte for byte.

    With ``indent`` set, ``json`` runs its pure-Python encoder, which would
    take most of the write on a report's float matrices. So dicts are laid
    out key by key, each non-empty float64 matrix row by row from text the
    C encoder writes (see :func:`_json_chunks`), and ``json.dumps`` writes
    every other value. The whole text is encoded before the file is opened,
    so an encoding error leaves no partial report.
    """
    chunks = []
    _json_chunks(obj, chunks)
    chunks.append("\n")
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.writelines(chunks)
    return path


def _write_table(out, stem, header, rows, fmt):
    """Write ``rows`` to ``out/<stem>.csv`` in the excel dialect or, unless
    fmt is csv, to ``out/<stem>.json`` as objects keyed by ``header``. Each
    row lists its values in ``header`` order."""
    if fmt != "csv":
        table = [dict(zip(header, row)) for row in rows]
        return _write_json(out / f"{stem}.json", table)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{stem}.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


#: Network element types, each named after its factory in
#: :mod:`modecomb.elements`: mode count and parameter defaults.
_ELEMENT_TYPES = {
    "two_mode_squeezer": (2, {"r": 0.0, "phase": 0.0}),
    "beamsplitter": (2, {"theta": math.pi / 4, "phi": 0.0}),
    "phase_shift": (1, {"phi": 0.0}),
}


def _parse_network(raw):
    """Compose a network file into one SymplecticTransform, checked once."""
    if not isinstance(raw, dict):
        raise FieldError("network", "top level must be an object")
    with _within("network"):
        _known(raw, ("version", "n_modes", "elements"))
    _check_version(raw, "network.version")
    n_modes = _integer("network.n_modes", raw.get("n_modes"), 1, MAX_MODES)
    entries = raw.get("elements", [])
    if not isinstance(entries, list):
        raise FieldError("network.elements", "must be a list")
    total = np.eye(2 * n_modes)
    # Squared norm of each row of ``total``: an element updates its own rows.
    row_norms = np.ones(2 * n_modes)
    for i, spec in enumerate(entries):
        path = f"network.elements[{i}]"
        if not isinstance(spec, dict) or "type" not in spec:
            raise FieldError(path, "must be an object with a 'type'")
        kind = spec["type"]
        if not isinstance(kind, str) or kind not in _ELEMENT_TYPES:
            raise FieldError(
                f"{path}.type",
                f"unknown element {kind!r}; expected one of "
                f"{sorted(_ELEMENT_TYPES)}",
            )
        arity, defaults = _ELEMENT_TYPES[kind]
        with _within(path):
            modes = _modes(spec.get("modes"), n_modes, arity)
            _known(spec, ("type", "modes", *defaults))
            element = getattr(elements, kind)(
                **{name: spec.get(name, v) for name, v in defaults.items()}
            )
        idx, rows = apply_symplectic_matrix(total, element, modes)
        row_norms[idx] = np.einsum("ij,ij->i", rows, rows)
        # Squeezing every mode by MAX_SQUEEZING gives |S|_F^2 =
        # 2N cosh(2 MAX_SQUEEZING) < 4N MAX_GAIN; passive elements keep it.
        if row_norms.sum() > 4 * n_modes * elements.MAX_GAIN:
            raise FieldError(
                path,
                f"the network up to here squeezes beyond the reach of "
                f"r = {elements.MAX_SQUEEZING} per mode",
            )
    return SymplecticTransform(total, n_modes)


def apply_symplectic_matrix(total, transform, modes):
    """Left-multiply ``total`` in place by ``transform`` on ``modes``;
    return the rows it changed, as :func:`~modecomb.gaussian._step_rows`
    gives them, and their new values."""
    idx = _step_rows(total.shape[0] // 2, modes)
    return idx, _apply_rows(total, transform.matrix, idx)


def cmd_decompose(network_path, out_dir="."):
    """Decompose a network file; write and return the JSON report path."""
    total = _parse_network(_load_json(network_path))
    result = bloch_messiah_decompose(total)
    error = float(np.linalg.norm(recompose(result).matrix - total.matrix))
    report = {
        "n_modes": total.n_modes,
        "squeeze": [float(r) for r in result.squeeze],
        "recomposition_error": error,
        "passive_out": result.passive_out.matrix,
        "passive_in": result.passive_in.matrix,
    }
    stem = Path(network_path).stem
    return _write_json(Path(out_dir) / f"{stem}_decomposition.json", report)


#: Reduced efficiency assumed for the single stray mode of noise-table rows.
STRAY_ETA_FRACTION = 0.5


def cmd_noise_table(gains, etas, misalignments, out_dir=".", fmt="csv"):
    """Tabulate closed-form and simulated detection noise over a grid.

    One row per (gain, eta, misalignment) triple, sorted ascending. The
    simulated column drives an explicit amplified pair through loss channels
    and is only defined at zero misalignment. Every gain's comb is one pair,
    so all gains share the unchecked, factorless vacuum and x-difference
    witness of one :func:`_comb_basis`, as ``simulate`` reads them.
    Misaligned rows use the closed form with one stray mode at
    ``eta_i = eta / 2``. Every value is validated before any row is computed.

    Returns:
        Path: the written table path
    """
    combs = _checked(
        "gains", gains, lambda g: build_comb(2, AmplifierSpec.from_gain(g))
    )
    misalignments = [m for m, _ in _checked(
        "misalignments", misalignments, lambda m: _fraction("misalignment", m)
    )]
    etas = _checked(
        "etas", etas, lambda eta: _misaligned_specs(eta, misalignments)
    )
    vacuum, ((_, xdiff),) = _comb_basis(combs[0][1])
    etas = [(eta, format(eta, FLOAT_FORMAT), specs) for eta, specs in etas]
    misalignments = [(m, format(m, FLOAT_FORMAT)) for m in misalignments]
    rows = []
    for gain, comb in combs:
        gain_text = format(gain, FLOAT_FORMAT)
        for eta, eta_text, specs in etas:
            for misalignment, m_text in misalignments:
                if misalignment == 0.0:
                    closed = ideal_epr_noise(gain, eta)
                    simulated = measure_witness(
                        amplify_comb(vacuum, comb), xdiff, eta
                    ).variance
                    difference = abs(closed.variance - simulated)
                    sim_text = format(simulated, FLOAT_FORMAT)
                    diff_text = format(difference, FLOAT_FORMAT)
                else:
                    closed = misaligned_noise(specs[misalignment], gain)
                    sim_text = ""
                    diff_text = ""
                rows.append((
                    gain_text,
                    eta_text,
                    m_text,
                    format(closed.variance, FLOAT_FORMAT),
                    sim_text,
                    diff_text,
                ))

    header = [
        "gain", "eta", "misalignment", "closed_form", "simulated",
        "abs_difference",
    ]
    return _write_table(Path(out_dir), "noise_table", header, rows, fmt)


def _misaligned_specs(eta, misalignments):
    """Check one noise-table efficiency; map each nonzero misalignment to the
    OverlapSpec of its row."""
    _fraction("eta", eta)
    return {
        m: OverlapSpec(m, eta, (eta * STRAY_ETA_FRACTION,))
        for m in misalignments
        if m != 0.0
    }


def _float_list(text):
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated number list, got {text!r}"
        ) from exc


@functools.cache
def _parser():
    """The argument parser, built on first use. Parsing does not change it,
    so every call in a process shares it; no default is mutable."""
    parser = argparse.ArgumentParser(
        prog="modecomb",
        description="Gaussian simulator for mode-comb cluster states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser(
        "simulate", help="run a scenario config and write reports"
    )
    simulate.add_argument("config", help="scenario JSON file")

    decompose_cmd = sub.add_parser(
        "decompose", help="factor a network file into passive-squeeze-passive"
    )
    decompose_cmd.add_argument("network", help="network JSON file")

    noise = sub.add_parser(
        "noise-table", help="tabulate detection noise over a parameter grid"
    )
    noise.add_argument("--gains", type=_float_list, required=True)
    noise.add_argument("--etas", type=_float_list, required=True)
    noise.add_argument("--misalignments", type=_float_list, default=(0.0,))

    for cmd in (simulate, decompose_cmd, noise):
        cmd.add_argument("--out-dir", default=".", help="output directory")
    for cmd in (simulate, noise):
        cmd.add_argument(
            "--format", choices=("csv", "json"), default="csv",
            help="tabular output format",
        )
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.command == "simulate":
            written = run_scenario(args.config, args.out_dir, args.format)
        elif args.command == "decompose":
            written = [cmd_decompose(args.network, args.out_dir)]
        else:
            written = [
                cmd_noise_table(
                    args.gains, args.etas, args.misalignments,
                    args.out_dir, args.format,
                )
            ]
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except FieldError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # input reads raise ParseError, so this is output
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # every other failure is the program's own
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 4
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
