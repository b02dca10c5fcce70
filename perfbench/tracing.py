"""Spans around the package's layer boundaries, recorded from outside.

The tracer replaces a function at the module attribute the pipeline looks
it up by (``iafeas.report.flow_feasibility``, ``iafeas.rank.gf_rank``, ...)
with a wrapper that records a span: name, start, end, parent span and the
verdict it belongs to. Spans stay in memory until the run ends. A site
that a later refactor removed is listed in ``missing`` instead of
aborting the run. Nothing under ``src/`` changes.

This module imports only the standard library, so a child process can
load it after timing its own ``import iafeas.cli``.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict


def _cells(matrix) -> int:
    rows, cols = matrix.shape
    return rows * cols


def _iterations(result) -> int:
    return result.iterations


# (span name, attribute, modules that look the attribute up, counter).
# A counter maps (args, result) to a number added to "<span name>.<counter>".
SITES = (
    ("fields.validate_field", "validate_field",
     ("iafeas.rank", "iafeas.channels", "iafeas.config", "iafeas.cli"), None),
    ("config", "system_shape",
     ("iafeas.report", "iafeas.rank", "iafeas.solver", "iafeas.cli"), None),
    ("config", "validate_config", ("iafeas.conditions", "iafeas.allocation"), None),
    ("config", "load_config_file", ("iafeas.cli",), None),
    ("config", "config_to_dict", ("iafeas.report",), None),
    ("conditions.stream_support", "check_stream_support", ("iafeas.report",), None),
    ("conditions.antenna_budget", "check_antenna_budget", ("iafeas.report",), None),
    ("conditions.closed_forms", "symmetric_feasible", ("iafeas.report",), None),
    ("conditions.closed_forms", "divisible_feasible", ("iafeas.report",), None),
    ("allocation.flow", "flow_feasibility", ("iafeas.report",), None),
    ("allocation.flow", "_flow_solve", ("iafeas.conditions",), None),
    ("allocation.verify", "verify_allocation", ("iafeas.report",), None),
    ("allocation.transfer", "run_ptt_symmetric", ("iafeas.report",), None),
    ("channels.sample", "sample_channels", ("iafeas.rank", "iafeas.report"), None),
    ("jacobian.build", "build_jacobian", ("iafeas.rank",),
     ("cells", lambda args, res: _cells(res.matrix))),
    ("rank.generic", "generic_full_row_rank", ("iafeas.report",), None),
    ("rank.gf", "gf_rank", ("iafeas.rank",), ("cells", lambda args, res: _cells(args[0]))),
    ("rank.svd", "_svd_rank", ("iafeas.rank",), None),
    ("solver.alt_min", "alt_min", ("iafeas.report",),
     ("iterations", lambda args, res: _iterations(res))),
    ("solver.gauss_newton", "gauss_newton_multistart", ("iafeas.report",), None),
    ("solver.gauss_newton", "gauss_newton", ("iafeas.solver",),
     ("iterations", lambda args, res: _iterations(res))),
    ("report", "feasibility_report", ("iafeas.cli",), None),
)


class Tracer:
    """In-memory span recorder.

    ``spans`` holds ``[name, start, end, parent, request]`` lists, parent
    being the index of the enclosing span or -1. Spans are recorded only
    while ``request`` is set, i.e. inside :meth:`root`.
    """

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.missing = []
        self.request = None
        self._stack = []
        self._patched = []

    def _record(self, name, fn, args, kwargs):
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.request]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, counter=None):
        """``fn`` with a span named ``name`` around every traced call."""

        def traced(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            result = self._record(name, fn, args, kwargs)
            if counter is not None:
                self.counters[f"{name}.{counter[0]}"] += counter[1](args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def root(self, name, request, fn, *args, **kwargs):
        """Call ``fn`` as the root span of verdict ``request``."""
        self.request = request
        try:
            return self._record(name, fn, args, kwargs)
        finally:
            self.request = None

    def install(self, sites=SITES):
        """Patch every site that exists; list the others in ``missing``."""
        for name, attr, modules, counter in sites:
            for modname in modules:
                try:
                    module = importlib.import_module(modname)
                except ImportError:
                    module = None
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.missing.append(f"{modname}.{attr}")
                    continue
                setattr(module, attr, self.wrap(name, fn, counter))
                self._patched.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def dump(self, path, **extra):
        """Write the spans (and any extra fields) as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters),
                       "missing": self.missing, **extra}, fh)


def self_times(spans) -> list:
    """Per-span self time: duration minus the part its children cover.

    Child intervals are clipped to the parent and merged, so overlapping
    children are not subtracted twice.
    """
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children[idx]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def span_cost(repeats: int = 20000) -> float:
    """Seconds a traced call adds over a plain one, measured on a no-op."""
    tracer = Tracer()

    def noop():
        return None

    traced = tracer.wrap("noop", noop)
    tracer.request = 0
    best = float("inf")
    for _ in range(3):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(repeats):
            traced()
        t1 = time.perf_counter()
        for _ in range(repeats):
            noop()
        t2 = time.perf_counter()
        best = min(best, ((t1 - t0) - (t2 - t1)) / repeats)
    return max(best, 0.0)
