"""In-memory span and count tracing of the kncross layers.

`Tracer.install(package)` replaces public functions of the kncross
modules wherever they are looked up (every module attribute that holds
one of them), and patches three hot methods on their classes.  Timed
functions record one span per call: (name, start, end, parent span).
Hot predicates only count calls.  `uninstall` restores every original,
so the untraced run executes the unmodified program.

Span names are `<module>.<function>`; the module part is the layer.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# Public functions timed as spans, by defining module.
SPANS = {
    "cli": ("main",),
    "io": ("parse", "serialize", "parse_witness", "serialize_witness"),
    "generators": ("gen_random_points",),
    "planarize": ("planarize_points", "segment_arrangement", "validate_points"),
    "drawing": ("build_drawing", "reference_class_vertices", "k4_census",
                "rotation_system", "weak_iso_equal"),
    "kedges": ("k_edge_vector", "side_of", "crossings_from_k_edges",
               "crossings_from_cumulative"),
    "shelling": ("check_bishellable", "check_s_shellable",
                 "shell_witness_violation", "bishell_witness_violation"),
}

# Predicates called too often for a span each: counted only.  Their time
# falls into the self time of the span that calls them.
COUNTED = {
    "geom": ("proper_intersection", "orient"),
}

# Per-layer metrics, in the order they are reported, with their units.
METRICS = (
    ("kedges.k_edge_vector.s", "s"),
    ("kedges.k_edge_vector.calls", "count"),
    ("kedges.side_of.calls", "count"),
    ("kedges.triangle_views", "count"),
    ("kedges.side_of.hit_ratio", "ratio"),
    ("kedges.crossings_from_k_edges.s", "s"),
    ("kedges.crossings_from_cumulative.s", "s"),
    ("drawing.DeletionView.builds", "count"),
    ("drawing.DeletionView.children", "count"),
    ("drawing.UnionFind.unions", "count"),
    ("drawing.reference_class_vertices.calls", "count"),
    ("drawing.reference_class_vertices.s", "s"),
    ("drawing.k4_census.s", "s"),
    ("drawing.build_drawing.s", "s"),
    ("drawing.build_drawing.darts", "count"),
    ("drawing.rotation_system.s", "s"),
    ("drawing.weak_iso_equal.calls", "count"),
    ("drawing.weak_iso_equal.s", "s"),
    ("drawing.weak_iso_equal.match_ratio", "ratio"),
    ("shelling.check_bishellable.s", "s"),
    ("shelling.check_s_shellable.s", "s"),
    ("shelling.bishell.nodes", "count"),
    ("shelling.shell.views", "count"),
    ("shelling.verify.s", "s"),
    ("planarize.planarize_points.s", "s"),
    ("planarize.segment_arrangement.s", "s"),
    ("planarize.validate_points.s", "s"),
    ("planarize.crossings", "count"),
    ("geom.proper_intersection.calls", "count"),
    ("geom.orient.calls", "count"),
    ("generators.gen_random_points.s", "s"),
    ("generators.gen_random_points.calls", "count"),
    ("io.parse.s", "s"),
    ("io.parse.calls", "count"),
    ("io.parse.bytes", "B"),
    ("io.serialize.s", "s"),
    ("io.witness.s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.s", "s"),
    ("layer.cli.self_s", "s"),
    ("layer.io.self_s", "s"),
    ("layer.generators.self_s", "s"),
    ("layer.planarize.self_s", "s"),
    ("layer.drawing.self_s", "s"),
    ("layer.kedges.self_s", "s"),
    ("layer.shelling.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """Spans and counts of one traced stretch of work, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.open: Dict[str, int] = defaultdict(int)  # open spans per name
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every binding of the traced functions in the loaded kncross modules.

        A function that a later version no longer has is skipped; its
        metrics then read 0.
        """
        prefix = package.__name__ + "."
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__ or name.startswith(prefix)]
        wrappers: Dict[int, Callable] = {}
        def count_calls(key: str, fn: Callable) -> Callable:
            return self._counter(key + ".calls", fn)

        for table, wrap in ((SPANS, self._span), (COUNTED, count_calls)):
            for layer, names in table.items():
                home = getattr(package, layer, None)
                for name in names:
                    fn = getattr(home, name, None)
                    if fn is not None:
                        wrappers[id(fn)] = wrap(f"{layer}.{name}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)
        self._patch_methods(package.drawing)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _span(self, name: str, fn: Callable) -> Callable:
        spans, stack, open_ = self.spans, self._stack, self.open
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            open_[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_[name] -= 1
                stack.pop()
                spans[index] = (name, start, end, parent)
            if observe is not None:
                observe(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, key: str, fn: Callable,
                 also: Optional[Callable[[], None]] = None) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            if also is not None:
                also()
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _patch_methods(self, drawing_module) -> None:
        counts, open_ = self.counts, self.open

        def attribute_view():
            if open_["kedges.side_of"]:
                counts["kedges.triangle_views"] += 1
            if open_["shelling.check_s_shellable"]:
                counts["shelling.shell.views"] += 1

        for cls_name, method, key, also in (
                ("DeletionView", "__init__", "drawing.DeletionView.inits", attribute_view),
                ("DeletionView", "child", "drawing.DeletionView.children", None),
                ("UnionFind", "union", "drawing.UnionFind.unions", None)):
            cls = getattr(drawing_module, cls_name, None)
            original = getattr(cls, method, None)
            if original is not None:
                self._patch(cls, method, self._counter(key, original, also))

    # -- results -----------------------------------------------------------

    def durations(self) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
        """Inclusive time, self time and call count per span name."""
        inclusive: Dict[str, float] = defaultdict(float)
        self_time: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent) in enumerate(self.spans):
            inclusive[name] += end - start
            self_time[name] += end - start - child_time[index]
            calls[name] += 1
        return inclusive, self_time, calls

    def metrics(self, overhead_ratio: float) -> Dict[str, float]:
        inclusive, self_time, calls = self.durations()
        counts = self.counts
        side_calls = calls["kedges.side_of"]
        weak_calls = calls["drawing.weak_iso_equal"]
        values = {
            "kedges.side_of.calls": side_calls,
            "kedges.side_of.hit_ratio":
                (side_calls - counts["kedges.triangle_views"]) / side_calls
                if side_calls else 0.0,
            "drawing.weak_iso_equal.match_ratio":
                counts["drawing.weak_iso_equal.matches"] / weak_calls
                if weak_calls else 0.0,
            "shelling.verify.s": inclusive["shelling.shell_witness_violation"]
            + inclusive["shelling.bishell_witness_violation"],
            "io.witness.s": inclusive["io.parse_witness"]
            + inclusive["io.serialize_witness"],
            # child() builds its clone through __init__ as well
            "drawing.DeletionView.builds": counts["drawing.DeletionView.inits"]
            - counts["drawing.DeletionView.children"],
            "trace.spans": len(self.spans),
            "trace.overhead_ratio": overhead_ratio,
        }
        for layer in SPANS:
            values[f"layer.{layer}.self_s"] = sum(
                t for name, t in self_time.items() if name.startswith(layer + "."))
        for key, unit in METRICS:
            if key in values:
                continue
            if key in counts:
                values[key] = counts[key]
            elif key.endswith(".s"):
                values[key] = inclusive[key[:-2]]
            elif key.endswith(".calls"):
                values[key] = calls[key[:-6]]
            else:
                values[key] = counts[key]
        return {key: values[key] for key, _ in METRICS}

    def write(self, path: str, metrics: Dict[str, float]) -> None:
        """Spans (one JSON array per line), then counts and metrics."""
        _, self_time, _ = self.durations()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts),
                                 "self_s": dict(self_time),
                                 "metrics": metrics}) + "\n")


# Facts read off a span's arguments or result, recorded as counts.

def _parse_bytes(tracer, args, result) -> None:
    tracer.counts["io.parse.bytes"] += len(args[0])


def _darts(tracer, args, result) -> None:
    tracer.counts["drawing.build_drawing.darts"] += result.dart_count


def _crossings(tracer, args, result) -> None:
    tracer.counts["planarize.crossings"] += result.crossings


def _matches(tracer, args, result) -> None:
    tracer.counts["drawing.weak_iso_equal.matches"] += bool(result)


def _bishell_nodes(tracer, args, result) -> None:
    if tracer.open["shelling.check_bishellable"]:
        tracer.counts["shelling.bishell.nodes"] += 1


_OBSERVERS = {
    "io.parse": _parse_bytes,
    "drawing.build_drawing": _darts,
    "planarize.planarize_points": _crossings,
    "drawing.weak_iso_equal": _matches,
    "drawing.reference_class_vertices": _bishell_nodes,
}
