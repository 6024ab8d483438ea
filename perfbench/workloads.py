"""Seeded input generators and independent output checks for each workload.

Every workload turns a seed into a pool of input files (scenario files,
network files, or an argv grid saved as JSON), knows the ``modecomb`` argv
that runs one input, checks the files that run wrote against a reference
computed here with plain math/numpy (never with ``modecomb`` itself), and
states the exact per-layer call counts the input implies.

Inputs are written with ``json.dumps(..., sort_keys=True)`` from values drawn
by :class:`random.Random`, so one seed always regenerates byte-identical
files.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Inputs per seed; ops cycle through the pool so each input runs repeatedly.
POOL_SIZE = 16

#: Four-wave-mixing gain range of the paper's amplifier.
GAIN_RANGE = (1.2, 9.0)

#: Comb size: 96 modes (48 pairs); the 192 x 192 covariance (288 KiB) fits L2.
COMB_MODES = 96

#: Wire size: 32 EPR sources, 64 modes.
WIRE_PAIRS = 32

#: Upper end of the base squeezing drawn for wires. Graph extraction fails
#: today from base r = 5.25 up, inside the README's r <~ 6.9 range, with
#: "state has purity 0.99999..." or, near r = 6.4-6.5 for some inputs,
#: "matrix is not symplectic". The benchmark's workloads must have no failing
#: op, so the timed pool stays below 5.25 with a margin, and the failing range
#: is run once per run, untimed and uncounted, at the base r values of
#: ``WIRE_DEFECT_R``.
WIRE_R_MAX = 4.5
WIRE_DEFECT_R = (5.25, 5.5, 6.5)

#: Network size and number of random passive elements after the squeezers.
NETWORK_MODES = 96
NETWORK_PASSIVE = 256

#: noise-table grid: gains x efficiencies x misalignments (one of them 0).
GRID_GAINS = 32
GRID_ETAS = 32
GRID_MISALIGNMENTS = 2

SWEEP_POINTS = 3

#: Witness variances are printed with 12 significant digits.
ROW_RTOL = 1e-9
#: Bound on the wire graph report's nullifier residual.
NULLIFIER_BOUND = 1e-6
#: Bound on the gap between the reported and reference squeeze spectra.
SPECTRUM_TOL = 1e-8
#: Bound on the decomposition's reported recomposition error.
RECOMPOSITION_BOUND = 1e-9
#: Bound on the closed-form vs simulated gap in noise-table rows.
NOISE_DIFF_BOUND = 1e-10


def epr_noise(gain, eta):
    """Reference x-difference noise of an amplified pair at efficiency eta."""
    return 1.0 + 2.0 * eta * (gain - 1.0 - math.sqrt(gain * (gain - 1.0)))


def lossy_squeezed(r, eta):
    """Reference variance of an e^{-2r} witness after loss eta on its modes."""
    return 1.0 + eta * (math.exp(-2.0 * r) - 1.0)


def _close(value, reference, rtol=ROW_RTOL):
    return abs(value - reference) <= rtol * max(1.0, abs(reference))


def _read_rows(path):
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _dump(obj):
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


@dataclass(frozen=True)
class Check:
    """Outcome of checking one op's output files."""

    ok: bool
    units: int
    reason: str = ""


def _fail(reason):
    return Check(False, 0, reason)


class Workload:
    """Base class: subclasses define generation, argv, checks and counts."""

    name = ""
    command = ""
    unit = ""
    pool_size = POOL_SIZE

    def generate(self, seed, directory):
        """Write the input pool for ``seed`` into ``directory``; return paths."""
        rng = random.Random(f"{self.name}:{seed}")
        directory.mkdir(parents=True, exist_ok=True)
        stems = [f"{self.name}-s{seed}-{i:02d}" for i in range(self.pool_size)]
        paths = []
        for stem, spec in zip(stems, self.make_pool(rng, seed, stems)):
            path = directory / f"{stem}.json"
            path.write_text(_dump(spec), encoding="utf-8")
            paths.append(path)
        return paths

    def make_pool(self, rng, seed, stems):
        return [self.make_input(rng, seed, stem, i) for i, stem in enumerate(stems)]

    def make_input(self, rng, seed, stem, index):
        raise NotImplementedError

    def argv(self, path, out_dir):
        raise NotImplementedError

    def check(self, spec, out_dir):
        """Check the files one successful op wrote; ``spec`` is its input."""
        raise NotImplementedError

    def expected_calls(self, spec, exit_code):
        """Exact span counts per op implied by the input."""
        raise NotImplementedError

    def defect_probes(self, directory):
        """Write inputs that hit a known defect into ``directory``; return paths."""
        return []


class CombSweep(Workload):
    name = "comb-sweep"
    command = "simulate"
    unit = "witness rows"

    def make_input(self, rng, seed, stem, index):
        gains = sorted(rng.uniform(*GAIN_RANGE) for _ in range(SWEEP_POINTS))
        return {
            "version": "v1",
            "name": stem,
            "seed": seed,
            "comb": {"M": COMB_MODES, "cells": 1, "gain": gains[0]},
            "detection": {"eta_d": rng.uniform(0.5, 0.99),
                          "misalignment": 0.0, "stray_etas": []},
            "sweep": {"parameter": "comb.gain", "values": gains},
        }

    def argv(self, path, out_dir):
        return ["simulate", str(path), "--out-dir", str(out_dir)]

    def check(self, spec, out_dir):
        rows = _read_rows(out_dir / f"{spec['name']}_witness.csv")
        eta = spec["detection"]["eta_d"]
        pairs = spec["comb"]["M"] // 2
        expected = [(g, f"pair{i}_xdiff")
                    for g in sorted(spec["sweep"]["values"])
                    for i in range(pairs)]
        if len(rows) != len(expected):
            return _fail(f"{len(rows)} rows, expected {len(expected)}")
        for row, (gain, witness_id) in zip(rows, expected):
            if row["witness_id"] != witness_id or row["value"] != format(gain, ".12g"):
                return _fail(f"unexpected row {row['value']} {row['witness_id']}")
            if not _close(float(row["variance"]), epr_noise(gain, eta)):
                return _fail(f"{witness_id} at gain {gain}: {row['variance']}")
        graph = json.loads((out_dir / f"{spec['name']}_graph.json").read_text())
        if graph["source"] != "comb" or len(graph["edges"]) != pairs:
            return _fail("comb graph report does not list one edge per pair")
        return Check(True, len(rows))

    def expected_calls(self, spec, exit_code):
        pairs = spec["comb"]["M"] // 2
        points = len(spec["sweep"]["values"])
        return {
            "gaussian.apply_symplectic": points * pairs,
            "elements.loss_channel": 2 * points * pairs,
            "detection.measure_witness": points * pairs,
            "comb.amplify_comb": points,
            "cluster.bipartite_graph": 1,
            "cluster.extract_graph": 0,
            "blochmessiah.decompose": 0,
        }


class WireGraph(Workload):
    name = "wire-graph"
    command = "simulate"
    unit = "witness rows"

    def make_pool(self, rng, seed, stems):
        # Base r is uniform over (0, WIRE_R_MAX], drawn stratified (one draw
        # per slice of width WIRE_R_MAX / pool size, shuffled) so every seed's
        # pool covers the range equally.
        slots = list(range(len(stems)))
        rng.shuffle(slots)
        return [self.spec(stem, seed, WIRE_R_MAX * (slot + 1.0 - rng.random())
                          / len(stems), rng.uniform(0.5, 0.99))
                for stem, slot in zip(stems, slots)]

    @staticmethod
    def spec(stem, seed, r, eta_d):
        return {
            "version": "v1",
            "name": stem,
            "seed": seed,
            "wire": {"n_pairs": WIRE_PAIRS, "r": r,
                     "phase_convention": "odd_mode_minus_half_pi"},
            "detection": {"eta_d": eta_d},
            "sweep": {"parameter": "wire.r", "values": [0.8 * r, 0.9 * r, r]},
        }

    def defect_probes(self, directory):
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for r in WIRE_DEFECT_R:
            path = directory / f"wire-defect-r{r}.json"
            path.write_text(_dump(self.spec(path.stem, 0, r, 0.9)), encoding="utf-8")
            paths.append(path)
        return paths

    def argv(self, path, out_dir):
        return ["simulate", str(path), "--out-dir", str(out_dir)]

    def check(self, spec, out_dir):
        rows = _read_rows(out_dir / f"{spec['name']}_witness.csv")
        eta = spec["detection"]["eta_d"]
        n_modes = 2 * spec["wire"]["n_pairs"]
        values = sorted(spec["sweep"]["values"])
        if len(rows) != len(values) * n_modes:
            return _fail(f"{len(rows)} rows, expected {len(values) * n_modes}")
        for i, row in enumerate(rows):
            r = values[i // n_modes]
            if row["value"] != format(r, ".12g"):
                return _fail(f"row {i} has sweep value {row['value']}")
            if not _close(float(row["variance"]), lossy_squeezed(r, eta)):
                return _fail(f"{row['witness_id']} at r {r}: {row['variance']}")
        graph = json.loads((out_dir / f"{spec['name']}_graph.json").read_text())
        residual = graph["nullifier_residual"]
        if graph["source"] != "wire" or graph["n_nodes"] != n_modes:
            return _fail("wire graph report has the wrong shape")
        if not residual <= NULLIFIER_BOUND:
            return _fail(f"nullifier residual {residual} > {NULLIFIER_BOUND}")
        return Check(True, len(rows))

    def expected_calls(self, spec, exit_code):
        points = len(spec["sweep"]["values"])
        n_modes = 2 * spec["wire"]["n_pairs"]
        return {
            "cluster.build_dual_rail": points + 1,
            "cluster.wire_witnesses": points,
            "detection.measure_witness": points * n_modes,
            "cluster.extract_graph": 1,
            "gaussian.purity": 1,
            "cluster.nullifier_residual": 1 if exit_code == 0 else 0,
            "blochmessiah.decompose": 0,
        }


def _tms(r, phase):
    ch, sh = math.cosh(r), math.sinh(r)
    cp, sp = math.cos(phase), math.sin(phase)
    return np.array([[ch, sh * cp, 0.0, sh * sp],
                     [sh * cp, ch, sh * sp, 0.0],
                     [0.0, sh * sp, ch, -sh * cp],
                     [sh * sp, 0.0, -sh * cp, ch]])


def _splitter(theta, phi):
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    return np.array([[ct, st * cp, 0.0, -st * sp],
                     [-st * cp, ct, -st * sp, 0.0],
                     [0.0, st * sp, ct, st * cp],
                     [st * sp, 0.0, -st * cp, ct]])


def _rotation(phi):
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, s], [-s, c]])


def compose_network(spec):
    """Reference composition: apply each element to the rows it touches."""
    n = spec["n_modes"]
    total = np.eye(2 * n)
    for el in spec["elements"]:
        modes = el["modes"]
        if el["type"] == "two_mode_squeezer":
            s = _tms(el["r"], el["phase"])
        elif el["type"] == "beamsplitter":
            s = _splitter(el["theta"], el["phi"])
        else:
            s = _rotation(el["phi"])
        idx = [*modes, *(n + m for m in modes)]
        total[idx, :] = s @ total[idx, :]
    return total


class NetworkDecompose(Workload):
    name = "network-decompose"
    command = "decompose"
    unit = "network elements"

    def make_input(self, rng, seed, stem, index):
        n = NETWORK_MODES
        # Even inputs share one squeezing value, like the comb's shared
        # amplifier: an exactly degenerate spectrum for the Takagi path.
        shared = rng.uniform(0.1, 1.0)
        elements = []
        for k in range(n // 2):
            r = shared if index % 2 == 0 else rng.uniform(0.1, 1.0)
            elements.append({"type": "two_mode_squeezer", "modes": [2 * k, 2 * k + 1],
                             "r": r, "phase": rng.uniform(0.0, 2 * math.pi)})
        for _ in range(NETWORK_PASSIVE):
            if rng.random() < 0.75:
                a, b = rng.sample(range(n), 2)
                elements.append({"type": "beamsplitter", "modes": [a, b],
                                 "theta": rng.uniform(0.0, math.pi / 2),
                                 "phi": rng.uniform(0.0, 2 * math.pi)})
            else:
                elements.append({"type": "phase_shift",
                                 "modes": [rng.randrange(n)],
                                 "phi": rng.uniform(0.0, 2 * math.pi)})
        return {"version": "v1", "n_modes": n, "elements": elements}

    def argv(self, path, out_dir):
        return ["decompose", str(path), "--out-dir", str(out_dir)]

    def check(self, spec, out_dir):
        stem = spec["_stem"]
        report = json.loads((out_dir / f"{stem}_decomposition.json").read_text())
        n = spec["n_modes"]
        total = compose_network(spec)
        svals = np.linalg.svd(total, compute_uv=False)
        reference = np.sort(np.log(svals[:n]))
        squeeze = np.asarray(report["squeeze"], dtype=float)
        if squeeze.shape != (n,):
            return _fail(f"squeeze spectrum has {squeeze.size} values")
        gap = float(np.max(np.abs(np.sort(squeeze) - reference)))
        if not gap <= SPECTRUM_TOL:
            return _fail(f"squeeze spectrum off by {gap:.3e}")
        error = report["recomposition_error"]
        if not error <= RECOMPOSITION_BOUND:
            return _fail(f"recomposition error {error} > {RECOMPOSITION_BOUND}")
        # The spectrum alone cannot see element order (squeezers followed by
        # passive elements have the same spectrum in any order), so the
        # reported factors must also multiply back to the reference matrix.
        core = np.diag(np.exp(np.concatenate([squeeze, -squeeze])))
        product = (np.asarray(report["passive_out"]) @ core
                   @ np.asarray(report["passive_in"]))
        mismatch = float(np.linalg.norm(product - total))
        if not mismatch <= RECOMPOSITION_BOUND * np.linalg.norm(total):
            return _fail(f"factors differ from the reference network by {mismatch:.3e}")
        return Check(True, len(spec["elements"]))

    def expected_calls(self, spec, exit_code):
        n_elements = len(spec["elements"])
        return {
            "elements.factory": n_elements,
            "cli.apply_symplectic_matrix": n_elements,
            "blochmessiah.decompose": 1,
            "blochmessiah.recompose": 1,
            "gaussian.apply_symplectic": 0,
            "gaussian.state_init": 0,
        }


class NoiseGrid(Workload):
    name = "noise-grid"
    command = "noise-table"
    unit = "table rows"

    def make_input(self, rng, seed, stem, index):
        return {
            "gains": [rng.uniform(*GAIN_RANGE) for _ in range(GRID_GAINS)],
            "etas": [rng.uniform(0.3, 1.0) for _ in range(GRID_ETAS)],
            "misalignments": [0.0] + [rng.uniform(0.01, 0.5)
                                      for _ in range(GRID_MISALIGNMENTS)],
        }

    def argv(self, path, out_dir):
        spec = json.loads(path.read_text(encoding="utf-8"))
        argv = ["noise-table"]
        for key in ("gains", "etas", "misalignments"):
            argv += [f"--{key}", ",".join(repr(v) for v in spec[key])]
        return argv + ["--out-dir", str(out_dir)]

    def check(self, spec, out_dir):
        rows = _read_rows(out_dir / "noise_table.csv")
        grid = [(g, e, m) for g in sorted(spec["gains"])
                for e in sorted(spec["etas"])
                for m in sorted(spec["misalignments"])]
        if len(rows) != len(grid):
            return _fail(f"{len(rows)} rows, expected {len(grid)}")
        for row, (gain, eta, mis) in zip(rows, grid):
            if row["gain"] != format(gain, ".12g") or row["eta"] != format(eta, ".12g"):
                return _fail(f"unexpected grid row {row['gain']} {row['eta']}")
            if mis == 0.0:
                reference = epr_noise(gain, eta)
                diff = float(row["abs_difference"])
                if not diff <= NOISE_DIFF_BOUND:
                    return _fail(f"closed vs simulated gap {diff} at {gain}, {eta}")
            else:
                # One stray mode at eta/2 carrying the misaligned power; the
                # excess term vanishes for a single stray.
                reference = ((1.0 - mis) * epr_noise(gain, eta)
                             + mis * epr_noise(gain, 0.5 * eta))
            if not _close(float(row["closed_form"]), reference):
                return _fail(f"closed form {row['closed_form']} at {gain}, {eta}, {mis}")
        return Check(True, len(rows))

    def expected_calls(self, spec, exit_code):
        aligned = len(spec["gains"]) * len(spec["etas"])
        return {
            "detection.closed_form": aligned * len(spec["misalignments"]),
            "detection.measure_witness": aligned,
            "gaussian.apply_symplectic": aligned,
            "elements.loss_channel": 2 * aligned,
            "blochmessiah.decompose": 0,
        }


WORKLOADS = {w.name: w for w in (CombSweep(), WireGraph(), NetworkDecompose(),
                                 NoiseGrid())}


def load_input(path):
    """Decode an input file, remembering its stem for output file names."""
    spec = json.loads(Path(path).read_text(encoding="utf-8"))
    spec["_stem"] = Path(path).stem
    return spec
