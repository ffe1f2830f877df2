"""Timing wrappers around the public functions of vacuumcorr's modules.

The modules import each other's functions by name, so a wrapper is
installed at every module binding of a function (``operator_norm`` is
bound in linalg, local_algebra, root_theorem and correlations).  Each call
records one span: name, start, end, parent span, report id, whether it
raised, and a computed count where the function has one.  Spans stay in
memory; the caller aggregates them and writes them out at the end.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

PACKAGE = "vacuumcorr"
LAYERS = ("linalg", "local_algebra", "root_theorem", "correlations", "harness", "cli")

# Public methods traced besides module-level functions.
METHODS = ("local_algebra.LocalOperator.embed", "local_algebra.LocalOperator.is_projector")

# canonical_json recurses once per JSON node; render_report's span covers it.
SKIP = frozenset({"harness.canonical_json"})

# Span record fields (a list per span keeps recording cheap).
NAME, START, END, PARENT, REPORT, ERROR, VALUE = range(7)


def _n3(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    m, n = getattr(a, "shape", (0, 0))
    return m * n * min(m, n)


# Computed counts, taken from the arguments or result of a call that
# returned.  They are labelled "computed": sizes, not measurements.
MEASURES = {
    # Bytes of the dense total_dim x total_dim complex embedding.
    "linalg.tensor_embed": lambda args, kwargs, result: result.nbytes,
    # Sum of n^3 over the SVD inputs, standing in for SVD flops.
    "linalg.operator_norm": _n3,
    # Projectors scored per call; only two are kept.
    "root_theorem.select_extremal_projectors": lambda args, kwargs, result: len(args[1].coeffs),
    "harness.render_report": lambda args, kwargs, result: len(result),
}


class Tracer:
    """Collects spans from the wrappers it makes."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.report_id = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, measure=None):
        """A wrapper recording one span per call of ``fn``; return values
        and exceptions pass through unchanged."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.report_id, False, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if measure is not None:
                span[VALUE] = measure(args, kwargs, result)
            return result

        return traced

    def take(self) -> list[list]:
        """Remove and return the spans recorded so far."""
        if self._stack:
            raise RuntimeError("spans are still open")
        spans = self.spans[:]
        self.spans.clear()
        return spans


def traced_functions():
    """(owner, attribute, span name, function) for every traced function."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_") and name not in SKIP):
                out.append((mod, attr, name, obj))
    for name in METHODS:
        layer, cls_name, attr = name.split(".")
        cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
        out.append((cls, attr, name, vars(cls)[attr]))
    return out


@contextmanager
def installed(tracer: Tracer):
    """Replace every binding of the traced functions by its wrapper, and
    restore the originals on exit."""
    wrappers = {}
    patches = []
    for owner, attr, name, fn in traced_functions():
        wrappers[fn] = tracer.wrap(name, fn, MEASURES.get(name))
        if inspect.isclass(owner):
            patches.append((owner, attr, fn))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patches.append((mod, attr, obj))
    try:
        for owner, attr, fn in patches:
            setattr(owner, attr, wrappers[fn])
        yield wrappers
    finally:
        for owner, attr, fn in reversed(patches):
            setattr(owner, attr, fn)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


class Totals:
    """Per-name sums over the spans of any number of traced passes."""

    def __init__(self):
        self.by_name: dict[str, dict[str, float]] = {}
        self.root_s = 0.0  # time covered by top-level spans
        self.spans = 0

    def add(self, spans: list[list]) -> None:
        selfs = self_times(spans)
        for span, self_s in zip(spans, selfs):
            row = self.by_name.get(span[NAME])
            if row is None:
                row = self.by_name[span[NAME]] = dict(
                    calls=0, total_s=0.0, self_s=0.0, errors=0, value=0, max_value=0)
            row["calls"] += 1
            row["total_s"] += span[END] - span[START]
            row["self_s"] += self_s
            row["errors"] += span[ERROR]
            row["value"] += span[VALUE]
            row["max_value"] = max(row["max_value"], span[VALUE])
            if span[PARENT] < 0:
                self.root_s += span[END] - span[START]
        self.spans += len(spans)

    def get(self, name: str, field: str) -> float:
        return self.by_name.get(name, {}).get(field, 0)
