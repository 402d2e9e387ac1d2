"""Spans around every public function of ``transpec``, wrapped from outside.

``Tracer.install`` replaces every binding of each public function of the
layer modules (symbols, stokes, collisions, reduced, operator, cli): the
module attribute, ``from``-imports held by other modules, the package
re-exports, and the method ``ModelSpec.j_eff``.  At the scipy boundary it
counts the matrices handed to the eigensolvers and the calls into the
iterative solver, without spans, so LAPACK time stays in its caller.

Spans live in flat arrays while the run lasts and are written out as JSON
lines when it ends.  Self time is a span's duration minus its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

import transpec

LAYERS = ("symbols", "stokes", "collisions", "reduced", "operator", "cli")

#: Per-layer metrics: name, unit.  Every figure is per round of the workload.
METRICS: Tuple[Tuple[str, str], ...] = (
    ("symbols.j_eff.calls", "count"),
    ("symbols.j_eff.self_s", "s"),
    ("stokes.build_wave.calls", "count"),
    ("stokes.build_wave.self_s", "s"),
    ("stokes.stokes_coefficients.calls", "count"),
    ("stokes.check_resonance.calls", "count"),
    ("stokes.check_resonance.self_s", "s"),
    ("collisions.collision_rho_squared.calls", "count"),
    ("collisions.collision_rho_squared.self_s", "s"),
    ("collisions.enumerate_potentially_unstable.self_s", "s"),
    ("reduced.classify.s", "s"),
    ("reduced.long_wavelength_verdict.self_s", "s"),
    ("reduced.theta1_verdict.self_s", "s"),
    ("reduced.golden_max.calls", "count"),
    ("reduced.atlas.s", "s"),
    ("operator.assemble_operator.calls", "count"),
    ("operator.assemble_operator.self_s", "s"),
    ("operator.matrix_bytes", "B"),
    ("operator.eig_dense.calls", "count"),
    ("operator.eig_dense.self_s", "s"),
    ("operator.shift_invert_eigs.self_s", "s"),
    ("operator.inner_solves", "count"),
    ("operator.sweep.s", "s"),
    ("operator.detect_bubbles.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.run.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def _nbytes(a) -> int:
    """Bytes of a dense or scipy.sparse matrix; 0 for an operator without storage."""
    if isinstance(a, np.ndarray):
        return a.nbytes
    parts = [getattr(a, name, None) for name in ("data", "indices", "indptr", "offsets")]
    return sum(p.nbytes for p in parts if isinstance(p, np.ndarray))


class Tracer:
    """Span recorder: one row per call of a wrapped function."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Dict[str, int] = {"operator.matrix_bytes": 0, "operator.inner_solves": 0}

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, start, end, stack = (self.name_id, self.parent, self.start,
                                              self.end, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def _count(self, key: str, fn: Callable, size: Callable = lambda args: 1) -> Callable:
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[key] += size(args)
            return fn(*args, **kwargs)

        return counted

    def install(self) -> Callable[[], None]:
        """Wrap every binding; returns a function that puts the originals back."""
        modules = {layer: getattr(transpec, layer) for layer in LAYERS}
        wrapped: Dict[int, Callable] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        saved = []
        for mod in (transpec, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    saved.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        spec = transpec.symbols.ModelSpec
        saved.append((spec, "j_eff", spec.j_eff))
        spec.j_eff = self.wrap("symbols.j_eff", spec.j_eff)
        for mod, attr, key, size in (
                (scipy.linalg, "eig", "operator.matrix_bytes", lambda a: _nbytes(a[0])),
                (scipy.sparse.linalg, "eigs", "operator.matrix_bytes", lambda a: _nbytes(a[0])),
                (scipy.sparse.linalg, "gmres", "operator.inner_solves", lambda a: 1)):
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, self._count(key, getattr(mod, attr), size))

        def restore():
            for mod, attr, obj in reversed(saved):
                setattr(mod, attr, obj)

        return restore

    def _arrays(self):
        ids = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        return ids, parent, dur

    def metrics(self, rounds: int) -> Dict[str, float]:
        """Per-layer figures per round: calls, self time, inclusive time, counters."""
        ids, parent, dur = self._arrays()
        n_names = len(self.names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_s = dur - child[:dur.size]
        calls = np.bincount(ids, minlength=n_names)
        total = np.bincount(ids, weights=dur, minlength=n_names)
        own = np.bincount(ids, weights=self_s, minlength=n_names)
        out: Dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = float(calls[i])
            out[f"{name}.s"] = float(total[i])
            out[f"{name}.self_s"] = float(own[i])
        out.update({k: float(v) for k, v in self.counters.items()})
        if "cli.run" in self._ids:
            out["cli.run.self_s"] = self._layer_self("cli.run", ids, parent, dur)
        return {k: v / rounds for k, v in out.items()}

    def _layer_self(self, name: str, ids, parent, dur) -> float:
        """Time of ``name`` spans minus the spans of other layers they call, at any depth."""
        layer = np.array([n.split(".", 1)[0] for n in self.names])[ids]
        target = self._ids[name]
        total = float(dur[ids == target].sum())
        # spans of another layer whose parent is in the target's layer and
        # whose nearest target-layer ancestors lead up to a target span
        home = name.split(".", 1)[0]
        parent_layer = np.where(parent >= 0, layer[np.maximum(parent, 0)], "")
        foreign = 0.0
        for i in np.nonzero((layer != home) & (parent_layer == home))[0]:
            p = parent[i]
            while ids[p] != target and parent[p] >= 0 and layer[parent[p]] == home:
                p = parent[p]
            if ids[p] == target:
                foreign += dur[i]
        return total - foreign

    def write(self, path: Path) -> None:
        """All spans as JSON lines (times in microseconds from the first span), then the counters."""
        ids, parent, _ = self._arrays()
        t0 = self.start[0] if len(self.start) else 0.0
        names = [json.dumps(n) for n in self.names]
        with open(path, "w") as fh:
            for i in range(ids.size):
                fh.write(f'{{"id": {i}, "parent": {parent[i]}, "name": {names[ids[i]]}, '
                         f'"start_us": {1e6 * (self.start[i] - t0):.3f}, '
                         f'"end_us": {1e6 * (self.end[i] - t0):.3f}}}\n')
            fh.write(json.dumps({"counters": self.counters}) + "\n")
