"""Span tracer for the rayfuse modules, installed from outside the package.

Every public function, and every public method and ``__call__`` of the
classes defined in a ``rayfuse`` module, is wrapped so that each call records
one span: (parent span, name, start, end). A wrapper is rebound wherever
another module imported the original, so ``pipeline.construct_ray`` is caught
as well as ``rays.construct_ray``. The layer of a span is the module that
defines the function. Spans stay in memory in flat arrays; analysis runs
after the op, outside its timed region.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "rayfuse"

# Functions whose spans also record a row count taken from their arguments.
COUNTED = {
    "geometry.ProjectionTransform.project_voxels": lambda args, kwargs: len(args[1]),
    "geometry.VoxelField.copy": lambda args, kwargs: len(args[0]),
}
# Names the per-layer metrics depend on; a refactor that removes one makes
# its metrics read zero and the name is listed as absent.
REQUIRED = (*COUNTED, "autodiff.backward")


def package_modules():
    """The loaded ``rayfuse`` package and its submodules, in a stable order."""
    return [sys.modules[n] for n in sorted(sys.modules) if n == PACKAGE or n.startswith(PACKAGE + ".")]


def rebind(original, replacement, patches):
    """Point every module-level name bound to ``original`` at ``replacement``.

    Appends (module, name, previous value) to ``patches`` so the caller can undo.
    """
    for mod in package_modules():
        for name, value in list(vars(mod).items()):
            if value is original:
                patches.append((mod, name, value))
                setattr(mod, name, replacement)


def undo(patches):
    """Restore the bindings recorded by :func:`rebind`, newest first."""
    while patches:
        owner, name, value = patches.pop()
        setattr(owner, name, value)


def _targets():
    """(qualified name, owner, attribute, callable, kind) for every traced callable."""
    out = []
    for mod in package_modules():
        if mod.__name__ == PACKAGE:
            continue
        short = mod.__name__.split(".", 1)[1]
        for name, value in sorted(vars(mod).items()):
            if name.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(value):
                out.append((f"{short}.{name}", mod, name, value, "function"))
            elif inspect.isclass(value):
                for attr, member in sorted(vars(value).items()):
                    if attr.startswith("_") and attr != "__call__":
                        continue
                    qual = f"{short}.{name}.{attr}"
                    if inspect.isfunction(member):
                        out.append((qual, value, attr, member, "method"))
                    elif isinstance(member, (staticmethod, classmethod)):
                        out.append((qual, value, attr, member, type(member).__name__))
    return out


class Tracer:
    """Records spans for every traced call between :meth:`install` and :meth:`uninstall`."""

    def __init__(self):
        self.names = []  # name id -> qualified name
        self.parent = array("i")
        self.name_id = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.rows = array("q")
        self._stack = [-1]
        self._patches = []
        self._wrapped = None  # (owner, attribute, original, replacement, kind), built once
        self.absent = []

    def __len__(self):
        return len(self.t0)

    def _wrap(self, fn, qual):
        name_id = len(self.names)
        self.names.append(qual)
        count = COUNTED.get(qual)
        parent, ids, t0, t1, rows, stack = self.parent, self.name_id, self.t0, self.t1, self.rows, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(t0)
            parent.append(stack[-1])
            ids.append(name_id)
            rows.append(count(args, kwargs) if count is not None else -1)
            t1.append(0.0)
            stack.append(sid)
            t0.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t1[sid] = clock()
                stack.pop()

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        if self._wrapped is None:
            self._wrapped = []
            for qual, owner, attr, member, kind in _targets():
                if kind in ("function", "method"):
                    replacement = self._wrap(member, qual)
                else:
                    replacement = type(member)(self._wrap(member.__func__, qual))
                self._wrapped.append((owner, attr, member, replacement, kind))
            self.absent = [name for name in REQUIRED if name not in self.names]
        for owner, attr, member, replacement, kind in self._wrapped:
            if kind == "function":
                rebind(member, replacement, self._patches)
            else:
                self._patches.append((owner, attr, member))
                setattr(owner, attr, replacement)

    def uninstall(self):
        undo(self._patches)

    def arrays(self, lo, hi):
        """Columns of spans ``lo..hi-1`` as plain lists, parents made op-relative."""
        parents = [p - lo if p >= lo else -1 for p in self.parent[lo:hi]]
        return parents, list(self.name_id[lo:hi]), list(self.t0[lo:hi]), list(self.t1[lo:hi]), list(self.rows[lo:hi])

    def save(self, path):
        """Write every span to an ``.npz``: columns parent, name_id, t0, t1, rows, plus names."""
        np.savez(
            path,
            parent=np.frombuffer(self.parent, dtype=np.int32),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            t0=np.frombuffer(self.t0, dtype=np.float64),
            t1=np.frombuffer(self.t1, dtype=np.float64),
            rows=np.frombuffer(self.rows, dtype=np.int64),
            names=np.array(self.names),
        )


def summarize(parents, layers, names, t0, t1, rows, wall_s):
    """Per-layer self time and counters of one op's spans.

    ``parents`` index into the same lists (-1 for spans opened directly by
    the op); spans are in start order, so a parent precedes its children.
    Consecutive spans of one layer form a block; a block's self time is its
    outermost span's duration minus the durations of the blocks of other
    layers nested directly inside it. ``unattributed`` is the op wall time
    not covered by any top-level span, so the self times plus it add up to
    ``wall_s``. Times are in seconds; ``layers`` and ``names`` give each
    span's layer and qualified name.
    """
    n = len(parents)
    block = [0] * n  # block root of each span
    inside = [frozenset()] * n  # layers of the span and its ancestors
    block_self = {}  # block root -> self time
    spans_per_layer = {}
    covered = 0.0
    counts = {"voxels_projected": 0, "rays_candidates": 0, "fusion_rows_copied": 0, "backward_calls": 0}
    for s in range(n):
        p = parents[s]
        dur = t1[s] - t0[s]
        layer = layers[s]
        spans_per_layer[layer] = spans_per_layer.get(layer, 0) + 1
        if p < 0:
            covered += dur
            inside[s] = frozenset((layer,))
        else:
            inside[s] = inside[p] | {layer}
        if p >= 0 and layers[p] == layer:
            block[s] = block[p]
        else:
            block[s] = s
            block_self[s] = dur
            if p >= 0:
                block_self[block[p]] -= dur
        name = names[s]
        if name == "geometry.ProjectionTransform.project_voxels":
            counts["voxels_projected"] += rows[s]
            if "rays" in inside[s]:
                counts["rays_candidates"] += rows[s]
        elif name == "geometry.VoxelField.copy" and "fusion" in inside[s]:
            counts["fusion_rows_copied"] += rows[s]
        elif name == "autodiff.backward" and block[s] == s:
            counts["backward_calls"] += 1
    self_s = {}
    backward_s = 0.0
    for b, value in block_self.items():
        self_s[layers[b]] = self_s.get(layers[b], 0.0) + value
        if names[b] == "autodiff.backward":
            backward_s += value
    return {
        "self_s": self_s,
        "autodiff_backward_s": backward_s,
        "unattributed_s": wall_s - covered,
        "counts": counts,
        "spans_per_layer": spans_per_layer,
    }
