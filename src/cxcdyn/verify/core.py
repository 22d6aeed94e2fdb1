"""Generic cover-refinement diagnostics for expanding branched systems.

Given an adapter exposing a map, a metric, an initial cover, and preimage
components, this module builds the iterated pullback covers and measures the
quantities the coarse-expansion axioms constrain: mesh decay, chain degrees,
roundness distortion, relative diameter distortion, locally-eventually-onto
times, visual-metric fits, and snowflake fits.  Everything here is a
falsifier and estimator over sampled data; nothing claims an axiom beyond
what was sampled.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional, Sequence

import numpy as np


@dataclass
class Adapter:
    """Hooks a concrete system exposes to the verifier.

    ``preimage_components`` returns (payload, degree) pairs: the connected
    pieces of the preimage of a cover element together with the degree of
    the map restricted to each piece.  ``distance_to_complement`` and
    ``outradius`` work in the same metric as ``metric``.
    The symbolic hooks (``forward_step``, ``covered_component``,
    ``all_components``) are only needed by eventually_onto_check, which
    needs hashable payloads.
    """

    name: str
    evaluate: Callable[[Any], Any]
    initial_cover: Callable[[], list[Any]]
    preimage_components: Callable[[Any], list[tuple[Any, int]]]
    diameter: Callable[[Any], float]
    metric: Callable[[Any, Any], float]
    sample_points: Callable[[Any, int, np.random.Generator], list[Any]]
    basepoint: Callable[[Any], Any]
    distance_to_complement: Callable[[Any, Any], float]
    outradius: Callable[[Any, Any], float]
    is_subset: Callable[[Any, Any], bool]
    forward_step: Optional[Callable[[Any], list[Any]]] = None
    covered_component: Optional[Callable[[Any], Optional[Hashable]]] = None
    all_components: Optional[frozenset] = None


@dataclass
class CoverElement:
    uid: str
    level: int
    payload: Any
    parent: Optional["CoverElement"]
    degree_over_parent: int
    diameter: float

    def ancestor(self, k: int) -> "CoverElement":
        node = self
        for _ in range(k):
            if node.parent is None:
                raise ValueError("chain shorter than k")
            node = node.parent
        return node

    def chain_degree(self, k: int) -> int:
        node, product = self, 1
        for _ in range(k):
            product *= node.degree_over_parent
            node = node.ancestor(1)
        return product


@dataclass
class CoverSequence:
    adapter: Adapter
    levels: list[list[CoverElement]]

    @property
    def meshes(self) -> list[float]:
        return [max(e.diameter for e in level) for level in self.levels]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


def refine(adapter: Adapter, elements: Sequence[CoverElement]) -> list[CoverElement]:
    """Next cover level: preimage components with parent links and degrees."""
    return [CoverElement(uid=f"{element.uid}/{index}", level=element.level + 1,
                         payload=payload, parent=element, degree_over_parent=degree,
                         diameter=adapter.diameter(payload))
            for element in elements
            for index, (payload, degree) in enumerate(adapter.preimage_components(element.payload))]


def build_covers(adapter: Adapter, depth: int) -> CoverSequence:
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    levels = [[CoverElement(uid=f"0:{i}", level=0, payload=p, parent=None,
                            degree_over_parent=1, diameter=adapter.diameter(p))
               for i, p in enumerate(adapter.initial_cover())]]
    for _ in range(depth):
        levels.append(refine(adapter, levels[-1]))
    return CoverSequence(adapter=adapter, levels=levels)


def _check_k_max(k_max: int) -> None:
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")


def degree_report(covers: CoverSequence, k_max: int) -> int:
    """Largest degree of a k-step restriction, k <= k_max, over all levels."""
    _check_k_max(k_max)
    worst = 1
    for level in covers.levels:
        for element in level:
            for k in range(1, min(k_max, element.level) + 1):
                worst = max(worst, element.chain_degree(k))
    return worst


def roundness(adapter: Adapter, payload: Any, basepoint: Any) -> float:
    """Outradius over inradius about the basepoint.

    The inradius is the distance to the complement, capped at the outradius.
    """
    big = adapter.outradius(payload, basepoint)
    small = min(adapter.distance_to_complement(payload, basepoint), big)
    if small <= 0:
        raise ValueError("basepoint is not interior to the element")
    return big / small


def roundness_bound(covers: CoverSequence, min_level: int, element_cap: int) -> float:
    """Largest roundness about the basepoint (at least 1) over the first
    ``element_cap`` elements of each level from ``min_level`` on; elements
    whose basepoint is not interior are skipped."""
    adapter = covers.adapter
    worst = 1.0
    for level in covers.levels[min_level:]:
        for element in level[:element_cap]:
            try:
                value = roundness(adapter, element.payload,
                                  adapter.basepoint(element.payload))
            except ValueError:
                continue
            worst = max(worst, value)
    return worst


@dataclass
class DistortionReport:
    roundness_pairs: list[tuple[int, int, float, float]]  # (n, k, down, up)
    diam_pairs: list[tuple[int, int, int, float, float]]  # (n0, n1, k, down, up)
    samples: int

    def envelope(self, kind: str) -> list[tuple[float, float]]:
        """Monotone upper envelope for one distortion function.

        Kinds: 'rho_minus' (roundness downstairs -> upstairs bound),
        'rho_plus' (upstairs -> downstairs), 'delta_minus' (diameter ratio
        downstairs -> upstairs), 'delta_plus' (upstairs -> downstairs).
        These are empirical candidates fitted to sampled data, not proofs.
        """
        if kind == "rho_minus":
            pairs = [(d, u) for _, _, d, u in self.roundness_pairs]
        elif kind == "rho_plus":
            pairs = [(u, d) for _, _, d, u in self.roundness_pairs]
        elif kind == "delta_minus":
            pairs = [(d, u) for _, _, _, d, u in self.diam_pairs]
        elif kind == "delta_plus":
            pairs = [(u, d) for _, _, _, d, u in self.diam_pairs]
        else:
            raise ValueError(f"unknown envelope kind {kind!r}")
        pairs.sort()
        envelope = []
        running = -math.inf
        for x, y in pairs:
            running = max(running, y)
            envelope.append((x, running))
        return envelope

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["kind", "n", "k", "value_in", "value_out"])
        for n, k, down, up in self.roundness_pairs:
            writer.writerow(["roundness", n, k, down, up])
        for n0, n1, k, down, up in self.diam_pairs:
            writer.writerow([f"diam(n1={n1})", n0, k, down, up])
        return buffer.getvalue()

    def max_roundness(self) -> float:
        values = [u for _, _, _, u in self.roundness_pairs]
        values += [d for _, _, d, _ in self.roundness_pairs]
        return max(values) if values else 1.0


def _evaluate_k(adapter: Adapter, point: Any, k: int) -> Any:
    for _ in range(k):
        point = adapter.evaluate(point)
    return point


def distortion_report(adapter: Adapter, covers: CoverSequence, k_max: int = 2,
                      samples_per_element: int = 2, seed: int = 0,
                      element_cap: int = 200) -> DistortionReport:
    """Sample the two distortion axioms' input/output pairs.

    Roundness pairs: an element upstairs, a sampled point in it, both pushed
    down k steps along the parent chain.  Diameter pairs: nested element
    pairs downstairs matched with nested pullbacks upstairs.
    """
    _check_k_max(k_max)
    rng = np.random.default_rng(seed)
    round_pairs = []
    for level in covers.levels:
        for element in level[:element_cap]:
            for k in range(1, min(k_max, element.level) + 1):
                down = element.ancestor(k)
                for tilde_y in adapter.sample_points(element.payload, samples_per_element, rng):
                    y = _evaluate_k(adapter, tilde_y, k)
                    try:
                        up_round = roundness(adapter, element.payload, tilde_y)
                        down_round = roundness(adapter, down.payload, y)
                    except ValueError:
                        continue  # sampled point not interior; skip the pair
                    round_pairs.append((down.level, k, down_round, up_round))

    # the k-step pullbacks of each capped element, read off the cover tree once
    pullbacks = {}
    for k in range(1, k_max + 1):
        for m in range(k, len(covers.levels)):
            groups = pullbacks[m, k] = {}
            for e in covers.levels[m][:element_cap]:
                groups.setdefault(id(e.ancestor(k)), []).append(e)

    diam_pairs = []
    for n0, level in enumerate(covers.levels):
        for n1 in range(n0 + 1, min(n0 + 3, len(covers.levels))):
            for small in covers.levels[n1][:element_cap]:
                big = next((e for e in level[:element_cap]
                            if adapter.is_subset(small.payload, e.payload)), None)
                if big is None:
                    continue
                down_ratio = small.diameter / big.diameter
                for k in range(1, min(k_max, covers.depth - n1) + 1):
                    ups = pullbacks[n0 + k, k].get(id(big), [])
                    for tilde_small in pullbacks[n1 + k, k].get(id(small), []):
                        up = next((e for e in ups
                                   if adapter.is_subset(tilde_small.payload, e.payload)), None)
                        if up is not None:
                            up_ratio = tilde_small.diameter / up.diameter
                            diam_pairs.append((n0, n1, k, down_ratio, up_ratio))
    return DistortionReport(roundness_pairs=round_pairs, diam_pairs=diam_pairs,
                            samples=len(round_pairs) + len(diam_pairs))


@dataclass(frozen=True)
class OntoResult:
    steps: Optional[int]  # first n with cumulative forward coverage, None = failure

    @property
    def succeeded(self) -> bool:
        return self.steps is not None


def eventually_onto_check(adapter: Adapter, payload: Any, max_iter: int = 64) -> OntoResult:
    """First n by which the forward images up to step n jointly cover every
    component of the repellor, tracked symbolically.

    Uses cumulative coverage: a component counts as reached once some
    iterate's symbolic image contains its whole repellor piece.  The state is
    the set of distinct images, so a step costs one ``forward_step`` call per
    distinct payload, however many paths reach it.
    """
    if adapter.forward_step is None or adapter.covered_component is None \
            or adapter.all_components is None:
        raise NotImplementedError(f"adapter {adapter.name} has no symbolic representation")
    needed, state, covered = set(adapter.all_components), {payload}, set()
    for n in range(max_iter + 1):
        if n:
            state = {q for p in state for q in adapter.forward_step(p)}
        covered |= {c for p in state if (c := adapter.covered_component(p)) is not None}
        if needed <= covered:
            return OntoResult(steps=n)
    return OntoResult(steps=None)


@dataclass(frozen=True)
class VisualMetricReport:
    fitted_epsilon: float
    spread: float
    roundness_bound: float
    levels_used: tuple[int, int]
    verdict: bool


def visual_metric_check(covers: CoverSequence, min_level: int = 2,
                        spread_bound: float = 16.0,
                        element_cap: int = 400) -> VisualMetricReport:
    """Fit diam ~ exp(-eps n) across levels and bound element roundness.

    The spread is the ratio of the largest to the smallest multiplicative
    constant consistent with the fitted rate; a small spread plus a finite
    roundness bound is evidence (not proof) that the metric is of visual
    type for this system.
    """
    ns, logs = [], []
    for level in covers.levels[min_level:]:
        for element in level[:element_cap]:
            if element.diameter > 0:
                ns.append(element.level)
                logs.append(math.log(element.diameter))
    if len(set(ns)) < 2:
        raise ValueError("need at least two levels past min_level")
    slope, intercept = np.polyfit(ns, logs, 1)
    eps = -float(slope)
    residuals = [lg - (slope * n + intercept) for n, lg in zip(ns, logs)]
    spread = math.exp(max(residuals) - min(residuals))
    return VisualMetricReport(fitted_epsilon=eps, spread=spread,
                              roundness_bound=roundness_bound(covers, min_level,
                                                              element_cap),
                              levels_used=(min_level, covers.depth),
                              verdict=bool(spread <= spread_bound))


@dataclass(frozen=True)
class SnowflakeFit:
    alpha_hat: float
    band: float
    intercept: float


def snowflake_fit(metric_a: Callable[[Any, Any], float],
                  metric_b: Callable[[Any, Any], float],
                  point_pairs: Sequence[tuple[Any, Any]]) -> SnowflakeFit:
    """Least-squares exponent relating two metrics on sampled pairs.

    Fits log d_b = alpha log d_a + c and reports the max residual band;
    a small band is evidence of snowflake equivalence on the sample.
    """
    if len(point_pairs) < 100:
        raise ValueError("need at least 100 point pairs")
    xs, ys = [], []
    for p, q in point_pairs:
        da, db = metric_a(p, q), metric_b(p, q)
        if da <= 0 or db <= 0:
            raise ValueError("degenerate pair with zero distance")
        xs.append(math.log(da))
        ys.append(math.log(db))
    slope, intercept = np.polyfit(xs, ys, 1)
    residuals = [y - (slope * x + intercept) for x, y in zip(xs, ys)]
    return SnowflakeFit(alpha_hat=float(slope), band=float(max(map(abs, residuals))),
                        intercept=float(intercept))
