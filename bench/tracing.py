"""Outside-in tracing of obsent's module boundaries.

The tracer wraps a fixed list of public functions, one boundary each, by
rebinding the name in every loaded ``obsent`` module that holds it (a
function imported by three modules is rebound in all three).  Nothing in
the package is edited.  Spans go onto a stack while the run executes and
stay in memory; :meth:`Tracer.dump` writes them out once at the end.

A boundary whose module or function no longer exists is recorded as absent
and reports zero calls, so the benchmark keeps running across refactors.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np


def _leading_dim(x) -> int:
    """Size of the first axis of an array or of a wrapper's ``entries``."""
    shape = np.shape(getattr(x, "entries", x))
    return int(shape[0]) if shape else 0


def _dense_eigensolve_ops(args) -> int:
    return _leading_dim(args[0]) ** 3 if args else 0


def _dense_dft_bytes(args) -> int:
    return 16 * _leading_dim(args[0]) ** 2 if args else 0


def _array_elements(args) -> int:
    return int(np.size(args[0])) if args else 0


#: (module, function, name of the computed count, how to compute it from the
#: call's positional arguments).  Counts are derived from the arguments, not
#: measured, and are labelled "computed" where they are a model of the work.
BOUNDARIES = (
    ("sampling", "phase_sequence", None, None),
    ("model", "build_hamiltonian", None, None),
    ("model", "eigendecompose", "ops_computed", _dense_eigensolve_ops),
    ("model", "momentum_basis", None, None),
    ("model", "to_momentum", "bytes_computed", _dense_dft_bytes),
    ("entropy", "uniform_block_entropy", "elements", _array_elements),
    ("dynamics", "evolve_many", None, None),
    ("dynamics", "quench_entropy_table", None, None),
    ("analysis", "eigenstate_entropy_table", None, None),
    ("runner", "run", None, None),
)

NAMES = tuple(f"{mod}.{fn}" for mod, fn, _, _ in BOUNDARIES)


class Tracer:
    """Span recorder for one run.  Each span is ``[boundary, start, end,
    parent span or -1, computed count]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []

    def install(self, package: str = "obsent") -> None:
        """Rebind every boundary in every loaded module of ``package``."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for idx, (mod, fn, _, counter) in enumerate(BOUNDARIES):
            try:
                original = getattr(importlib.import_module(f"{package}.{mod}"), fn)
            except (ImportError, AttributeError):
                self.absent.append(NAMES[idx])
                continue
            wrapped = self._wrap(idx, original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    def _wrap(self, idx: int, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [idx, 0.0, 0.0, stack[-1] if stack else -1, counter(args) if counter else 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": NAMES, "absent": self.absent, "spans": self.spans}, fh)


def summarize(trace: dict) -> dict:
    """Per-boundary calls, inclusive busy time, self time and computed count.

    Busy time counts only spans with no enclosing span of the same
    boundary, so recursion is not counted twice.  Self time is a span's
    duration minus the durations of its direct child spans.
    """
    names, spans = trace["names"], trace["spans"]
    stats = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "count": 0} for name in NAMES}
    child_time = [0.0] * len(spans)
    for idx, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (idx, start, end, parent, count) in enumerate(spans):
        s = stats[names[idx]]
        s["calls"] += 1
        s["count"] += count
        s["self_s"] += (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != idx:
            p = spans[p][3]
        if p < 0:
            s["busy_s"] += end - start
    return stats
