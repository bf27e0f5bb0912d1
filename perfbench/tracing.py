"""Span recorder for the traced benchmark run.

The recorder wraps public levelcert functions from outside the package: it
replaces the function object in every ``levelcert`` module namespace that
binds it, so calls made through any module's globals are seen, and it
patches a few methods on their classes.  Nothing under ``src/`` changes.

Each wrapped call opens a span (name, parent, start, end).  A span's self
time is its duration minus the time covered by its direct child spans.
The spans of the current operation stay in memory and are folded into
per-name totals when the operation ends; the spans of the first traced
operation are also kept whole so they can be written out with the totals
when the run ends.  Matrix and ChainMap construction and the matrix
product are only counted, not timed, so the recorder stays cheap enough to
leave the shape of the run intact (its cost is reported as
``trace_overhead``).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (module, attribute) -> span name.  Every levelcert module that binds the
# same function object under the same attribute name gets the wrapper.
SPANS = {
    ("linalg", "rref"): "linalg.rref",
    ("linalg", "solve"): "linalg.solve",
    ("linalg", "kernel_basis"): "linalg.kernel_basis",
    ("algebra", "hom_space"): "algebra.hom_space",
    ("algebra", "projective_cover"): "algebra.projective_cover",
    ("homological", "in_add"): "homological.in_add",
    ("homological", "decompose"): "homological.decompose",
    ("homological", "modules_isomorphic"): "homological.modules_isomorphic",
    ("homological", "xdim"): "homological.xdim",
    ("complexes", "is_quasi_iso"): "complexes.is_quasi_iso",
    ("complexes", "homology"): "complexes.homology",
    ("complexes", "kernel_of_chain_map"): "complexes.kernel_of_chain_map",
    ("levels", "build_resolution_witness"): "levels.build",
    ("levels", "build_split_witness"): "levels.build",
    ("levels", "verify_certificate"): "levels.verify",
    ("formats", "render_certificate"): "formats.render",
    ("formats", "decode_certificate"): "formats.decode",
    ("formats", "parse_document"): "formats.parse_document",
    ("sampling", "random_complex"): "sampling.random_complex",
    ("sampling", "random_module"): "sampling.random_module",
}

# (module, class, method) -> name.  ModuleMap construction is timed as a
# span; the other two are only counted.
METHOD_SPANS = {("algebra", "ModuleMap", "__init__"): "algebra.ModuleMap.new"}
METHOD_COUNTS = {
    ("linalg", "Matrix", "__init__"): "linalg.Matrix.new",
    ("linalg", "Matrix", "__matmul__"): "linalg.matmul.calls",
    ("complexes", "ChainMap", "__init__"): "complexes.ChainMap.new",
}

# Row counts of the matrices handed to these are tracked as linalg.max_rows.
SIZED = {"linalg.rref", "linalg.solve", "linalg.kernel_basis"}


def _is_identity_chain_map(phi) -> bool:
    if phi.source != phi.target:
        return False
    for part in phi.parts:
        for block in part.blocks:
            a = block.array
            if a.shape[0] != a.shape[1] or not np.array_equal(a, np.eye(a.shape[0], dtype=a.dtype)):
                return False
    return True


def _observe(name, args, result, counts) -> None:
    """Outcome counters that show wasted or avoidable work."""
    if name == "homological.modules_isomorphic" and result is not None:
        counts["homological.modules_isomorphic.hits"] += 1
    elif name == "complexes.is_quasi_iso" and _is_identity_chain_map(args[0]):
        counts["complexes.is_quasi_iso.identity"] += 1


class Tracer:
    """Collects spans and counters while installed; see the module doc."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.max_rows = 0
        self.first_op: list[dict] | None = None
        self._spans: list[list] = []  # [name, parent index, start, end, child time]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack = self._spans, self._stack
        counts = self.counts
        sized = name in SIZED
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sized and args:
                rows = args[0].rows
                if rows > self.max_rows:
                    self.max_rows = rows
            index = len(spans)
            record = [name, stack[-1] if stack else -1, perf(), 0.0, 0.0]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf()
                stack.pop()
                if record[1] >= 0:
                    spans[record[1]][4] += record[3] - record[2]
            _observe(name, args, result, counts)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def end_op(self) -> None:
        """Fold the finished operation's spans into the per-name totals."""
        for name, _, start, end, child in self._spans:
            duration = end - start
            self.calls[name] += 1
            self.inclusive[name] += duration
            self.self_time[name] += duration - child
        if self.first_op is None and self._spans:
            self.first_op = [
                {"name": n, "parent": par, "start": s, "end": e, "self": e - s - c}
                for n, par, s, e, c in self._spans
            ]
        self._spans.clear()

    # -- installation --------------------------------------------------

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        """Route calls into levelcert through the recorder while active."""
        modules = {
            key[len("levelcert."):]: mod
            for key, mod in list(sys.modules.items())
            if key.startswith("levelcert.") and mod is not None
        }
        for (home, attr), name in SPANS.items():
            original = getattr(modules[home], attr)
            wrapper = self._span_wrapper(name, original)
            for mod in modules.values():
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapper)
        for (home, cls, meth), name in METHOD_SPANS.items():
            owner = getattr(modules[home], cls)
            self._patch(owner, meth, self._span_wrapper(name, getattr(owner, meth)))
        for (home, cls, meth), name in METHOD_COUNTS.items():
            owner = getattr(modules[home], cls)
            self._patch(owner, meth, self._count_wrapper(name, getattr(owner, meth)))
        try:
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)
