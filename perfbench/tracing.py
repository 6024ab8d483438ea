"""Span tracing around the public functions of each ``modecomb`` module.

:func:`install` wraps every public function defined in a traced module, plus
the ``__post_init__`` validators of ``GaussianState`` and
``SymplecticTransform``, and rebinds each wrapper in every ``modecomb.*``
namespace that holds the original. Modules import functions by name (``comb``
binds ``apply_symplectic``, ``cli`` binds ``amplify_comb``), so patching only
the defining module would let internal calls escape the trace.

Each call records a span: name, start, end, parent span, op id and whether
an exception left it. Spans stay in memory until :meth:`Tracer.save`. A
span's self time is its duration minus the durations of its direct children,
which the single-threaded program nests strictly inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

#: Traced modules; each is one layer.
LAYERS = ("gaussian", "elements", "comb", "cluster", "detection",
          "blochmessiah", "cli")

#: Functions reported under a shared span name.
GROUPS = {
    "elements.two_mode_squeezer": "elements.factory",
    "elements.beamsplitter": "elements.factory",
    "elements.balanced_beamsplitter": "elements.factory",
    "elements.phase_shift": "elements.factory",
    "detection.ideal_epr_noise": "detection.closed_form",
    "detection.misaligned_noise": "detection.closed_form",
    "cli.run_scenario": "cli.command",
    "cli.cmd_decompose": "cli.command",
    "cli.cmd_noise_table": "cli.command",
}

#: Dataclass validators traced as spans of the gaussian layer.
VALIDATORS = {
    "GaussianState": "gaussian.state_init",
    "SymplecticTransform": "gaussian.transform_init",
}

_FLOAT_BYTES = 8


class Tracer:
    """Records spans and per-op aggregates of the wrapped calls."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._stack = []
        self._next_id = 0
        self.op = -1
        self.cov_bytes = 0
        self.spans = {key: array(code) for key, code in (
            ("id", "i"), ("parent", "i"), ("name", "i"), ("op", "i"),
            ("start", "d"), ("end", "d"), ("error", "b"))}
        self.begin_op(-1)

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_op(self, op):
        """Start the per-op aggregates of op ``op``."""
        self.op = op
        self._calls = {}
        self._self_s = {}
        self._errors = {}
        self._cov_start = self.cov_bytes
        self._witness_useful = 0
        self._witness_alloc = 0
        self._spans_start = len(self.spans["id"])

    def end_op(self):
        """Return the aggregates of the current op."""
        return {
            "calls": dict(self._calls),
            "self_s": dict(self._self_s),
            "errors": dict(self._errors),
            "cov_bytes": self.cov_bytes - self._cov_start,
            "witness_useful_bytes": self._witness_useful,
            "witness_alloc_bytes": self._witness_alloc,
            "spans": len(self.spans["id"]) - self._spans_start,
        }

    def wrap(self, name, fn, kind=None):
        """Return ``fn`` wrapped in a span called ``name``."""
        tracer = self
        layer = name.split(".", 1)[0]
        name_id = self.name_id(name)
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0.0, layer]
            stack.append(frame)
            cov_before = tracer.cov_bytes
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                spans["id"].append(span_id)
                spans["parent"].append(-1 if parent is None else parent[0])
                spans["name"].append(name_id)
                spans["op"].append(tracer.op)
                spans["start"].append(start)
                spans["end"].append(end)
                spans["error"].append(failed)
                tracer._calls[name] = tracer._calls.get(name, 0) + 1
                tracer._self_s[name] = (tracer._self_s.get(name, 0.0)
                                        + duration - frame[1])
                if failed and (parent is None or parent[2] != layer):
                    tracer._errors[layer] = tracer._errors.get(layer, 0) + 1
                if not failed and kind == "state":
                    tracer.cov_bytes += args[0].cov.nbytes
                elif not failed and kind == "witness":
                    state, witness = _state_and_witness(args, kwargs)
                    k = len(witness.support(state.n_modes))
                    tracer._witness_useful += (2 * k) ** 2 * _FLOAT_BYTES
                    tracer._witness_alloc += tracer.cov_bytes - cov_before

        return traced

    def save(self, path):
        """Write every recorded span to a compressed ``.npz`` file."""
        np.savez_compressed(
            path, names=np.array(self.names),
            **{key: np.frombuffer(values, dtype=values.typecode)
               for key, values in self.spans.items()})


def _state_and_witness(args, kwargs):
    bound = dict(zip(("state", "witness"), args), **kwargs)
    return bound["state"], bound["witness"]


def install(tracer):
    """Wrap the traced functions; return a callable that restores them."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"modecomb.{layer}")
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_")):
                name = f"{layer}.{attr}"
                kind = "witness" if name == "detection.measure_witness" else None
                wrappers[id(obj)] = (obj, tracer.wrap(GROUPS.get(name, name), obj, kind))
    restore = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "modecomb" and not mod_name.startswith("modecomb."):
            continue
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                restore.append((module, attr, value))
    gaussian = sys.modules["modecomb.gaussian"]
    for cls_name, name in VALIDATORS.items():
        cls = getattr(gaussian, cls_name)
        original = cls.__dict__["__post_init__"]
        kind = "state" if cls_name == "GaussianState" else None
        setattr(cls, "__post_init__", tracer.wrap(name, original, kind))
        restore.append((cls, "__post_init__", original))

    def uninstall():
        for owner, attr, original in restore:
            setattr(owner, attr, original)

    return uninstall
