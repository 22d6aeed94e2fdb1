"""Out-of-program tracing for the traced benchmark run.

The tracer wraps public functions of every cxcdyn layer in place, in every
module namespace that binds them (a function imported by name into another
module is wrapped there too, so calls through either name are seen).  Span
wrappers record (name, start, end, parent) for each call and keep the spans
in memory; self time is derived at the end.  Count-only wrappers, used for
per-point functions called millions of times, only bump a call counter.
Extractors turn return values (or arguments) into work counts.

Nothing here changes what a wrapped function computes.  Wrappers call
straight through while the tracer is off, so correctness checks made with
the tracer off are not traced.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from typing import Any, Callable, Optional

# layer -> [(module, span-wrapped functions, count-only functions)]
LAYERS: dict[str, list[tuple[str, tuple[str, ...], tuple[str, ...]]]] = {
    "graphs": [("cxcdyn.graphs", ("parse_graph", "validate_graph", "serialize_graph"), ())],
    "dimension": [("cxcdyn.dimension", ("solve_exponent", "graph_spectral_radius",
                                        "spectral_radius", "weight_matrix", "perron_vector"), ())],
    "gdms": [("cxcdyn.gdms", ("build_interval_system", "repellor_cover", "box_dimension",
                              "cylinder_from_word", "cover_rows"),
              ("pull_back", "apply_map", "locate_branch", "distance"))],
    "skew": [("cxcdyn.skew", ("skew_box_dimension", "scaling_deviation",
                              "periodic_base_point", "some_edge_cycle", "orbit"),
              ("skew_map", "skew_distance"))],
    "pillowcase": [
        ("cxcdyn.pillowcase.core", ("postcritical_set", "critical_values", "tent_orbit",
                                    "differential_report", "family_deviation"),
         ("pillow_map", "orb_distance", "preimages")),
        ("cxcdyn.pillowcase.tiling", ("subdivide", "skeleton_forward_invariance"), ()),
        ("cxcdyn.pillowcase.curves", ("obstruction_report", "curve_preimage",
                                      "thurston_matrix"), ()),
    ],
    "menger": [("cxcdyn.menger", ("membership", "digit_membership", "homothety_deviation",
                                  "slice_raster"),
                ("snowflake_distance", "expanding_map", "segment_clears_folds"))],
    "dendrite": [("cxcdyn.dendrite", ("attractor_points", "overlap_test", "kneading_sequence",
                                      "kneading_reference"), ("branched_cover_step",))],
    "verify": [
        ("cxcdyn.verify.core", ("build_covers", "refine", "roundness", "distortion_report",
                                "degree_report", "visual_metric_check"), ()),
        ("cxcdyn.verify.adapters", ("gdms_adapter", "skew_adapter", "dendrite_adapter",
                                    "pillowcase_adapter", "menger_adapter"), ()),
    ],
    "render": [("cxcdyn.render", ("cover_strip_svg", "tiling_svg", "points_pgm"), ())],
}

# Adapter hooks: spans for the per-element hooks, counts for per-point ones.
HOOK_SPANS = ("initial_cover", "preimage_components", "diameter", "sample_points",
              "distance_to_complement", "outradius")
HOOK_COUNTS = ("evaluate", "metric", "basepoint", "is_subset", "forward_step",
               "covered_component")


class Tracer:
    def __init__(self) -> None:
        self.on = False
        self.spans: list[Optional[tuple[str, float, float, int]]] = []
        self.stack: list[int] = []
        self.calls: Counter = Counter()  # count-only wrappers
        self.work: Counter = Counter()   # counts taken from return values
        self._replaced: list[tuple[Any, str, Callable]] = []
        self._extractors: dict[str, Callable[[Any, tuple, dict], None]] = {
            "graphs.validate_graph":
                lambda r, a, kw: self._add("graphs.cycles_checked", r.cycles_checked),
            "dimension.solve_exponent":
                lambda r, a, kw: self._add("dimension.radius_evals", r.evaluations),
            "dimension.spectral_radius":
                lambda r, a, kw: self._add("dimension.power_iters", r.iterations),
            "gdms.repellor_cover":
                lambda r, a, kw: self._add("gdms.cylinders_built", len(r)),
            "pillowcase.subdivide":
                lambda r, a, kw: self._add("pillowcase.tiles_built", r.tile_count),
            "verify.build_covers":
                lambda r, a, kw: self._add("verify.elements_built",
                                           sum(len(level) for level in r.levels)),
            "dendrite.overlap_test":
                lambda r, a, kw: self._add("dendrite.close_pairs", r.pair_count),
            "menger.homothety_deviation":
                lambda r, a, kw: self._add("menger.homothety_pairs",
                                           kw["pairs"] if "pairs" in kw else a[1]),
        }
        for name in ("render.cover_strip_svg", "render.tiling_svg"):
            self._extractors[name] = lambda r, a, kw: self._add("render.bytes_out",
                                                                len(r.encode()))
        for name in ("gdms_adapter", "skew_adapter", "dendrite_adapter",
                     "pillowcase_adapter", "menger_adapter"):
            self._extractors[f"verify.{name}"] = lambda r, a, kw: self._wrap_hooks(r)

    def _add(self, key: str, value: int) -> None:
        self.work[key] += value

    # -- wrappers -----------------------------------------------------------

    def span(self, name: str, fn: Callable) -> Callable:
        extract = self._extractors.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            parent = self.stack[-1] if self.stack else -1
            sid = len(self.spans)
            self.spans.append(None)
            self.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[sid] = (name, start, end, parent)
            if extract is not None:
                extract(result, args, kwargs)
            return result

        return wrapper

    def count(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.on:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_hooks(self, adapter: Any) -> None:
        for hook in HOOK_SPANS + HOOK_COUNTS:
            fn = getattr(adapter, hook)
            if fn is None:
                continue
            wrap = self.span if hook in HOOK_SPANS else self.count
            setattr(adapter, hook, wrap(f"verify.hook.{hook}", fn))

    def install(self) -> None:
        """Wrap every listed function in every loaded cxcdyn namespace."""
        modules = [m for name, m in sys.modules.items()
                   if (name == "cxcdyn" or name.startswith("cxcdyn.")) and m is not None]
        for layer, entries in LAYERS.items():
            for module_name, spans, counts in entries:
                home = sys.modules[module_name]
                wraps = [(f, self.span) for f in spans] + [(f, self.count) for f in counts]
                for func, wrap in wraps:
                    original = getattr(home, func)
                    wrapped = wrap(f"{layer}.{func}", original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapped)
                                self._replaced.append((module, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        for module, attr, original in reversed(self._replaced):
            setattr(module, attr, original)
        self._replaced.clear()

    # -- derived numbers ------------------------------------------------------

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total (inclusive) and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for sid, (name, start, end, parent) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[sid]
        return table
