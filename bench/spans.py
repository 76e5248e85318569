"""In-memory spans around corrgeom's layer boundaries, installed from outside.

``Recorder.patch()`` replaces the names each caller looks up (for example
``corrgeom.events.windowed_unit_matrix``) with wrappers that record a span:
name, start, end and the index of the enclosing span. Nothing in corrgeom is
edited; the original bindings come back when the ``with`` block ends. A name
that no longer exists is listed in ``absent`` and otherwise ignored.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time


def _count_bytes(rec, args, result):
    rec.counters["cli.bytes_written"] += len(args[2].encode())


def _count_triangles(rec, args, result):
    # Computed, not counted: the triangles max_simplex_volume enumerates.
    source, dimension = args[0], args[1]
    if dimension == 2:
        n = getattr(source, "n", None) or len(source)
        rec.counters["measures.triangles"] += math.comb(n, 3)


def _count_sliding_windows(rec, args, result):
    if result:
        rec.counters["events.windows"] += len(result[0])
        gapped = result[0].gaps.copy()
        for series in result[1:]:
            gapped |= series.gaps
        rec.counters["events.gap_windows"] += int(gapped.sum())


def _count_validate_window(rec, args, result):
    rec.counters["events.windows"] += 1
    rec.counters["events.gap_windows"] += result is None


# (module, attribute looked up by the caller, span name, hook). A hook runs
# after the wrapped call; its result is None when the call raised.
TARGETS = (
    ("corrgeom.cli", "_OutputTracker.write_text", "cli.write", _count_bytes),
    ("corrgeom.cli", "read_timeseries_csv", "series.read_csv", None),
    ("corrgeom.events", "windowed_unit_matrix", "series.window_units", None),
    ("corrgeom.correlation", "windowed_unit_matrix", "series.window_units", None),
    ("corrgeom.events", "correlation_from_units", "correlation.gram", None),
    ("corrgeom.correlation", "correlation_from_units", "correlation.gram", None),
    ("corrgeom.events", "CorrelationMatrix", "correlation.matrix", None),
    ("corrgeom.cli", "correlation_matrix", "correlation.matrix", _count_validate_window),
    ("corrgeom.events", "distance_matrix", "metric.distance_matrix", None),
    ("corrgeom.cli", "distance_matrix", "metric.distance_matrix", None),
    ("corrgeom.metric", "verify_metric_axioms", "metric.axiom_check", None),
    ("corrgeom.cli", "verify_metric_axioms", "metric.axiom_check", None),
    ("corrgeom.events", "diameter", "measures.diameter", None),
    ("corrgeom.events", "max_simplex_volume", "measures.max_triangle", _count_triangles),
    ("corrgeom.cli", "sliding_measures", "events.sliding_measures", _count_sliding_windows),
    ("corrgeom.cli", "detect_minima", "events.detect_minima", None),
    ("corrgeom.cli", "compare_event_sets", "events.compare", None),
    ("corrgeom.cli", "render_measures_svg", "svg.render", None),
)

COUNTERS = ("cli.bytes_written", "measures.triangles", "events.windows", "events.gap_windows")


class Recorder:
    """Spans as [name, start, end, parent index], kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters = {name: 0 for name in COUNTERS}
        self.absent: list[str] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        index = len(self.spans)
        span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            result = None
            try:
                with self.span(name):
                    result = fn(*args, **kwargs)
                return result
            finally:
                if hook is not None:
                    hook(self, args, result)

        return wrapper

    @contextlib.contextmanager
    def patch(self):
        restore = []
        try:
            for module_name, attr, name, hook in TARGETS:
                *path, leaf = attr.split(".")
                try:
                    owner = importlib.import_module(module_name)
                    for part in path:
                        owner = getattr(owner, part)
                    original = getattr(owner, leaf)
                except (ImportError, AttributeError):
                    if f"{module_name}.{attr}" not in self.absent:
                        self.absent.append(f"{module_name}.{attr}")
                    continue
                setattr(owner, leaf, self._wrap(name, original, hook))
                restore.append((owner, leaf, original))
            yield self
        finally:
            for owner, leaf, original in reversed(restore):
                setattr(owner, leaf, original)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total time and self time.

        Total time counts only spans with no enclosing span of the same name.
        Self time is a span's duration minus the part its direct children cover.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
            if not self._has_ancestor(parent, name):
                entry["total_s"] += end - start
        return out

    def _has_ancestor(self, parent, name) -> bool:
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
