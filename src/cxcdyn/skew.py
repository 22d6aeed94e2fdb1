"""Skew products of the interval system with degree-d(e) circle coverings.

A point is a base point plus an angle on the unit circle; over the branch of
edge e the map sends (x, t) to (g(x), d(e) t mod 1).  In the metric
"snowflaked base distance plus circle distance" the map is a local homothety
with factor d(e): the base part scales by (d(e)^(1/alpha))^alpha = d(e) and
the circle part by d(e) as long as the circle distance stays below
1/(2 d(e)), which keeps the shorter arc the shorter arc.

``scaling_deviation`` checks that claim in bulk: its pairs are drawn one by
one, then mapped and measured as arrays, chunk by chunk, with the scalar
functions' IEEE operations in their order; only the snowflake powers stay
scalar, since numpy's vectorised power does not round like libm ``pow``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .gdms import (GDMSPoint, IntervalSystem, apply_map, base_cylinder, cover_counts, distance,
                   edge_path, locate_branch, pull_back)


@dataclass(frozen=True)
class SkewPoint:
    base: GDMSPoint
    angle: float

    def __post_init__(self):
        if not (0.0 <= self.angle < 1.0):
            raise ValueError("angle must lie in [0, 1)")


def circle_distance(s: float, t: float) -> float:
    d = abs(s - t) % 1.0
    return min(d, 1.0 - d)


def skew_map(sys: IntervalSystem, p: SkewPoint) -> SkewPoint:
    branch = locate_branch(sys, p.base)
    return SkewPoint(base=apply_map(sys, p.base),
                     angle=(branch.degree * p.angle) % 1.0)


def skew_distance(sys: IntervalSystem, p: SkewPoint, q: SkewPoint) -> float:
    return distance(sys, p.base, q.base, snowflaked=True) + circle_distance(p.angle, q.angle)


def periodic_base_point(sys: IntervalSystem, word: Sequence[int]) -> GDMSPoint:
    """Point whose itinerary repeats the given admissible edge cycle.

    Pulling back through the composed inverse branches contracts onto the
    unique fixed point; 60 passes push the error below double precision.
    """
    cycle = edge_path(sys, word)
    if not cycle or cycle[-1].dst != cycle[0].src:
        raise ValueError("word does not close up into a cycle")
    cyl = base_cylinder(sys, cycle[0].src)
    # the zero-length cylinder at the midpoint is a point that pull_back moves
    cyl = replace(cyl, left=cyl.left + 0.5 * cyl.length, length=0.0)
    for _ in range(60):
        for b in reversed(cycle):
            cyl = pull_back(sys, b, cyl)
    return GDMSPoint(component=cycle[0].src, coordinate=cyl.left)


def some_edge_cycle(sys: IntervalSystem) -> list[int]:
    """Any admissible edge cycle (shortest found by breadth-first search);
    handy for seeding orbits on the repellor."""
    for start in range(1, sys.graph.vertex_count + 1):
        frontier = [(start, [])]
        seen = {start}
        while frontier:
            vertex, path = frontier.pop(0)
            for b in sys.branches_from(vertex):
                if b.dst == start:
                    return [e for e in path] + [b.edge_index]
                if b.dst not in seen:
                    seen.add(b.dst)
                    frontier.append((b.dst, path + [b.edge_index]))
    raise ValueError("graph has no cycles; the repellor is empty")


def orbit(sys: IntervalSystem, start: SkewPoint, steps: int) -> list[SkewPoint]:
    """Forward orbit, stopping early if numerical drift leaves the domain."""
    points = [start]
    p = start
    for _ in range(steps):
        try:
            p = skew_map(sys, p)
        except ValueError:
            break
        points.append(p)
    return points


def skew_box_dimension(sys: IntervalSystem, depths: Sequence[int] = tuple(range(2, 9))) -> float:
    """Box-counting slope for the product repellor (Cantor set times circle).

    Covers are cylinders crossed with arcs of comparable snowflaked extent:
    a depth with mesh L gives count * ceil(1/L) boxes of diameter about 2L,
    with count and mesh from ``cover_counts`` (exact, O(m * V * E)).
    """
    counts = cover_counts(sys, depths)
    xs, ys = [], []
    for m in depths:
        mesh = counts[m][1] ** sys.alpha
        xs.append(-math.log(2.0 * mesh))
        ys.append(math.log(counts[m][0] * math.ceil(1.0 / mesh)))
    return float(np.polyfit(xs, ys, 1)[0])


# Pairs are checked this many at a time, so memory does not grow with ``pairs``.
_CHUNK = 4096


def scaling_deviation(sys: IntervalSystem, pairs: int, seed: int = 0) -> float:
    """Max deviation of skew_distance(f p, f q) from d(e) * skew_distance(p, q).

    Samples admissible pairs: both base points in one branch subinterval, and
    circle distance below 1/(2 d(e)).  Should be at floating-point scale.

    The draws are made pair by pair, a branch index and then four doubles
    (u, v, t, r), so the generator stream is the one a pair-by-pair loop
    reads.  The rest runs in bulk over chunks of pairs, on per-branch arrays
    gathered by index, with the IEEE operations of ``skew_map`` and
    ``skew_distance`` in their order, so the result equals that loop's bit
    for bit.  The snowflake powers stay scalar Python ``**`` (libm ``pow``),
    because numpy's vectorised power rounds some of them differently.
    """
    if pairs < 0:
        raise ValueError("pairs must be >= 0")
    rng = np.random.default_rng(seed)
    integers, random = rng.integers, rng.random
    branches = sys.branches
    alpha = sys.alpha
    # one row per branch: left, length, right, degree, target left, ratio, orientation
    table = np.array([(b.left, b.length, b.right, b.degree, sys.base(b.dst).left,
                       sys.expansion_ratio(b), b.orientation) for b in branches]).T

    def snowflake(d: np.ndarray) -> np.ndarray:
        return np.fromiter(map(pow, d.tolist(), itertools.repeat(alpha)), float, len(d))

    def circle(s: np.ndarray, t: np.ndarray) -> np.ndarray:
        d = np.remainder(np.abs(s - t), 1.0)
        return np.minimum(d, 1.0 - d)

    worst = 0.0
    for start in range(0, pairs, _CHUNK):
        size = min(_CHUNK, pairs - start)
        index, draws = np.empty(size, np.intp), np.empty((size, 4))
        for i, row in enumerate(draws):
            index[i] = integers(len(branches))
            random(out=row)
        u, v, t, r = draws.T
        left, length, right, degree, target, ratio, orientation = table[:, index]
        x = left + u * length
        y = left + v * length
        dt = (r - 0.5) / degree  # |dt| < 1/(2 d)
        s = np.remainder(t + dt, 1.0)
        # the checks of SkewPoint and locate_branch, first failing pair first;
        # t and the image angles lie in [0, 1) by construction, s may round up to 1
        angle_ok = (0.0 <= s) & (s < 1.0)
        x_in, y_in = ((left <= z) & (z <= right) for z in (x, y))
        failed = ~(angle_ok & x_in & y_in)
        if failed.any():
            i = int(np.argmax(failed))
            if not angle_ok[i]:
                raise ValueError("angle must lie in [0, 1)")
            z = x[i] if not x_in[i] else y[i]
            raise ValueError(f"point {float(z)} in component {branches[index[i]].src} "
                             "is outside every branch domain")
        fx, fy = (np.where(orientation > 0, target + (z - left) * ratio,
                           target + (right - z) * ratio) for z in (x, y))
        ft = np.remainder(degree * t, 1.0)
        fs = np.remainder(degree * s, 1.0)
        lhs = snowflake(np.abs(fx - fy)) + circle(ft, fs)
        rhs = degree * (snowflake(np.abs(x - y)) + circle(t, s))
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst
