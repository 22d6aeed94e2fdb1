"""Skew products of the interval system with degree-d(e) circle coverings.

A point is a base point plus an angle on the unit circle; over the branch of
edge e the map sends (x, t) to (g(x), d(e) t mod 1).  In the metric
"snowflaked base distance plus circle distance" the map is a local homothety
with factor d(e): the base part scales by (d(e)^(1/alpha))^alpha = d(e) and
the circle part by d(e) as long as the circle distance stays below
1/(2 d(e)), which keeps the shorter arc the shorter arc.
"""

from __future__ import annotations

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


def scaling_deviation(sys: IntervalSystem, pairs: int, seed: int = 0) -> float:
    """Max deviation of skew_distance(f p, f q) from d(e) * skew_distance(p, q).

    Samples admissible pairs: both base points in one branch subinterval, and
    circle distance below 1/(2 d(e)).  Should be at floating-point scale.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    branches = sys.branches
    for _ in range(pairs):
        b = branches[rng.integers(len(branches))]
        u, v = rng.random(2)
        x = GDMSPoint(b.src, b.left + u * b.length)
        y = GDMSPoint(b.src, b.left + v * b.length)
        t = rng.random()
        dt = (rng.random() - 0.5) / b.degree  # |dt| < 1/(2 d)
        s = (t + dt) % 1.0
        p, q = SkewPoint(x, t), SkewPoint(y, s)
        lhs = skew_distance(sys, skew_map(sys, p), skew_map(sys, q))
        rhs = b.degree * skew_distance(sys, p, q)
        worst = max(worst, abs(lhs - rhs))
    return worst
