"""In-memory span tracing of topocrit's layers, installed from outside.

``install`` wraps the public functions at each module boundary and rebinds
every name under which a topocrit module looks them up (``from x import f``
copies as well as ``module.f`` attributes), so a call is traced whichever way
its caller reaches it.  Each call records one span: name, start, end, parent
span, the run id, and the exception type it raised (if any).  ``summarize``
turns the spans of one run into per-layer self times and counts.

Nothing here is imported by topocrit; an untraced run never loads it.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

import numpy as np

def _points_1d(args, kwargs):
    return int(np.size(args[0]))


def _points_2d(args, kwargs):
    return int(np.broadcast(args[0], args[1]).size)


def _points_raw(args, kwargs):
    # models.<Walk>.curvature_raw(k, alpha, beta): parameter-grid points
    return int(np.broadcast(args[1], args[2]).size)


# (span name, module, function, work counter).  The work counter maps the
# call's arguments to the number of momentum or parameter points evaluated;
# None means the span counts calls only.
TARGETS = (
    ("walk1d.zeta", "walk1d", "zeta_components_1d", _points_1d),
    ("walk1d.curvature", "walk1d", "rotated_curvature_1d", _points_1d),
    ("walk2d.zeta", "walk2d", "zeta_components_2d", _points_2d),
    ("walk2d.curvature", "walk2d", "curvature_grid_2d", _points_2d),
    ("invariants.chern", "invariants", "chern_number_2d", None),
    ("invariants.plaquette", "invariants", "chern_plaquette", None),
    ("invariants.winding", "invariants", "winding_number_1d", None),
    ("crg.flow_field", "crg", "flow_field", None),
    ("crg.detect", "crg", "detect_critical_lines", None),
    ("correlation.transform", "correlation", "wannier_correlation_1d", None),
    ("correlation.transform", "correlation", "wannier_correlation_2d", None),
    ("criticality.sample_peak", "criticality", "sample_peak", None),
    ("criticality.exponents", "criticality", "extract_exponents", None),
    ("geometry.dirac", "geometry", "berry_connection_1d", None),
    ("geometry.dirac", "geometry", "berry_curvature_2d_dirac", None),
    ("output.write_csv", "output", "write_csv", None),
    ("output.write_json", "output", "write_json", None),
    ("cli.main", "cli", "main", None),
)

# Spans whose exceptions are the per-cell failure reasons of an invariant.
INVARIANT_SPANS = ("invariants.chern", "invariants.winding")
FAILURE_REASONS = ("ZeroGap", "QuantizationFailure", "OracleMismatch")


class Tracer:
    """Collects spans of one run; spans nest strictly (single thread)."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        # [name, start, end, parent index or -1, run id, exception type]
        self.spans = []
        self.work = Counter()
        self._stack = []

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span measured by the caller (used for the import phase)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.run_id, None])

    def wrap(self, name: str, fn, points=None):
        spans, stack, work = self.spans, self._stack, self.work
        run_id = self.run_id
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if points is not None:
                work[name + ".points"] += points(args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def wrap_writer(self, name: str, fn):
        """Trace an output writer and count the rows and bytes it wrote."""
        traced = self.wrap(name, fn)
        work = self.work

        @functools.wraps(fn)
        def counted(path, *args, **kwargs):
            traced(path, *args, **kwargs)
            start = time.perf_counter()
            work["output.bytes"] += os.path.getsize(path)
            if name == "output.write_csv":
                # a file is a config comment, a column line, then one row
                # per line; counting lines keeps this independent of the
                # type the rows were passed as
                with open(path, "rb") as fh:
                    work["output.rows"] += sum(
                        chunk.count(b"\n")
                        for chunk in iter(lambda: fh.read(1 << 20), b"")) - 2
            # the counting is tracing overhead, kept out of the caller's
            # self time
            self.record("trace.count", start, time.perf_counter())

        return counted


def _rebind(orig, wrapped) -> None:
    """Point every topocrit-module name bound to ``orig`` at ``wrapped``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "topocrit"
                               or modname.startswith("topocrit.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapped)


def install(run_id: int) -> Tracer:
    """Wrap the layer boundaries of the already-imported topocrit package."""
    import topocrit.models as models

    tracer = Tracer(run_id)
    for name, modname, attr, points in TARGETS:
        mod = sys.modules["topocrit." + modname]
        orig = getattr(mod, attr)
        if modname == "output":
            wrapped = tracer.wrap_writer(name, orig)
        else:
            wrapped = tracer.wrap(name, orig, points)
        _rebind(orig, wrapped)
    # crg.flow_field reaches the kernel through the model adapter object.
    for model in (models.WALK_1D, models.WALK_2D):
        model.curvature_raw = tracer.wrap("models.curvature_raw",
                                          type(model).curvature_raw,
                                          _points_raw)
    return tracer


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def summarize(spans, work) -> dict:
    """Aggregate one traced run into per-layer metrics (seconds and counts)."""
    own = self_times(spans)
    out = Counter()
    for s, t in zip(spans, own):
        name = s[0]
        out[name + ".s"] += t
        out[name + ".calls"] += 1
        out[name.split(".")[0] + ".self_s"] += t
        if name in INVARIANT_SPANS and s[5] in FAILURE_REASONS:
            out["invariants.failed." + s[5]] += 1
    out.update(work)
    # zeta evaluations per phase-diagram/invariant cell of the 2D walk
    cells = out["invariants.chern.calls"]
    inside = 0
    for s in spans:
        if s[0] != "walk2d.zeta":
            continue
        p = s[3]
        while p >= 0 and spans[p][0] != "invariants.chern":
            p = spans[p][3]
        inside += p >= 0
    out["invariants.zeta_calls_per_cell"] = inside / cells if cells else 0.0
    out["trace.spans"] = len(spans)
    out["trace.self_sum_s"] = sum(own)
    return dict(out)
