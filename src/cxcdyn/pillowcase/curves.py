"""Closed-curve pullback and obstruction matrices for the pillowcase family.

A closed polyline avoiding the postcritical set lifts exactly, through the
tile pullback of ``tiling``: each edge, the shortest geodesic to the next
vertex, is cut at the fold lines and at the inverse shuffle's triangles,
and each piece is halved onto its four preimages on one integer lattice.
Every fiber along the curve is simple, so the lifted pieces of consecutive
edges join at their shared endpoints, and a lift closes up after as many
circuits of the base curve as its covering degree.  For horizontal circles,
isotopy relative to the postcritical set reduces to a height comparison
because every postcritical point sits on the two horizontal boundary edges.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from ..dimension import spectral_radius
from .core import (HALF, Lattice, LatticePoint, OrbPoint, RatLike, _frac, check_parameter,
                   orb_point, postcritical_set)
from .tiling import _canonical_placement, _closed, _Pullback

_TOL = 1e-9  # default clearance of a curve from the postcritical set


def horizontal_curve(height: RatLike) -> list[OrbPoint]:
    """The horizontal circle at the given height as the closed four-vertex
    polyline (0, h), (1/4, h), (1/2, h), (1/4, -h).

    It runs along y = h from x = 0 to 1/2 and returns along y = -h; the two
    rows are glued through the side edges, so the list is cyclic (the last
    vertex neighbors the first).
    """
    h = _frac(height)
    if not (0 < h < HALF):
        raise ValueError("height must lie strictly between 0 and 1/2")
    quarter = Fraction(1, 4)
    return [orb_point(0, h), orb_point(quarter, h), orb_point(HALF, h), orb_point(quarter, -h)]


@dataclass(frozen=True)
class LiftedCurve:
    points: tuple[OrbPoint, ...]  # the breakpoints, in order along the lift
    degree: int

    def heights(self) -> tuple[Fraction, ...]:
        return tuple(sorted({abs(p.y) for p in self.points}))


def _nearest(scale: int, p: LatticePoint, q: LatticePoint) -> tuple[int, list[LatticePoint]]:
    """The least squared distance from canonical p to a plane representative
    of canonical q within one translate, and every representative at it."""
    dist = {(x, y): (x - p[0]) ** 2 + (y - p[1]) ** 2 for s in (1, -1)
            for x in (s * q[0] - scale, s * q[0], s * q[0] + scale)
            for y in (s * q[1] - scale, s * q[1], s * q[1] + scale)}
    least = min(dist.values())
    return least, sorted(r for r, d in dist.items() if d == least)


def _up_to_half_turn(scale: int, p: LatticePoint,
                     reps: list[LatticePoint]) -> list[LatticePoint]:
    """The representatives, one per orbit of the half-turn r -> 2p - r when p
    is a cone point (2p on the lattice): that half-turn fixes p, so it maps
    a geodesic from p to another lift of the same orbifold geodesic."""
    if 2 * p[0] % scale or 2 * p[1] % scale:
        return reps
    turned = [(2 * p[0] - x, 2 * p[1] - y) for x, y in reps]
    return [r for r, t in zip(reps, turned) if r <= t or t not in reps]


def _on_segment(r: LatticePoint, p: LatticePoint, q: LatticePoint) -> bool:
    (dx, dy), (rx, ry) = (q[0] - p[0], q[1] - p[1]), (r[0] - p[0], r[1] - p[1])
    return dx * ry == dy * rx and 0 <= dx * rx + dy * ry <= dx * dx + dy * dy


def curve_preimage(a: RatLike, curve: Sequence[OrbPoint], tol: float = _TOL) -> list[LiftedCurve]:
    """All connected preimage curves of a closed polyline, with degrees.

    Edge k runs from vertex k to the nearest representative of vertex k + 1
    (a tie is ambiguous, unless a half-turn about vertex k, a cone point,
    swaps the tied representatives).  The vertices must stay tol-clear of the
    postcritical set and the edges must miss it, so every fiber on the curve
    is simple.  The lifted pieces of each edge join those of the next at
    their shared endpoints.  A lift's degree is the number of preimages of
    ``curve[0]`` it holds, and lifts are ordered by the least of them.
    """
    a = check_parameter(a)
    return _lift(a, curve, postcritical_set(a), tol)


def _lift(a: Fraction, curve: Sequence[OrbPoint], postcritical: Sequence[OrbPoint],
          tol: float) -> list[LiftedCurve]:
    """``curve_preimage`` for a checked parameter and its postcritical set."""
    if len(curve) < 3:
        raise ValueError("need a closed polyline with at least 3 vertices")
    base = Lattice(a, math.lcm(2 * a.denominator, *(c.denominator for p in curve
                                                     for c in (p.x, p.y))), "a curve")
    verts = [base.canonical(base.numerator(p.x), base.numerator(p.y)) for p in curve]
    pcs = [(base.numerator(c.x), base.numerator(c.y)) for c in postcritical]
    clearance, edges = Fraction(tol) ** 2 * base.scale ** 2, []
    for k, (p, q) in enumerate(_closed(verts)):
        name = f"edge {k} from {base.point(*p)} to {base.point(*q)}"
        ends = _up_to_half_turn(base.scale, p, _nearest(base.scale, p, q)[1])
        for c in pcs:
            # a point on a shortest geodesic from p lies there at a nearest representative
            least, near = _nearest(base.scale, p, c)
            if least <= clearance:
                raise ValueError("curve passes through (or too near) the postcritical set")
            if ends[0] != p and any(_on_segment(r, p, ends[0]) for r in near):
                raise ValueError(f"{name} passes through the postcritical set")
        if len(ends) > 1:
            raise ValueError(f"{name} has {len(ends)} shortest geodesics; add a vertex")
        edges.append((p, ends[0]))

    # p + t (dx, dy) cuts a line with integer normal (A, B) on the lattice
    # over base * |A dx + B dy|; the fold and atlas lines have normals (1, 0),
    # (0, 1), (1, +-1) and (2, +-1).  Moving back and halving take a factor 4.
    grow = 4 * math.lcm(*(abs(e) for (px, py), (qx, qy) in edges
                          for dx, dy in [(qx - px, qy - py)]
                          for e in (dx, dy, dx - dy, dx + dy, 2 * dx - dy, 2 * dx + dy) if e))
    pullback = _Pullback(a, base.scale * grow, depth=1)
    folds = [line for k in range(-2, 3) for line in ((1, 0, k * pullback.half),
                                                     (0, 1, k * pullback.half))]
    lifted = []  # per piece of the curve, in order: its four lifts as (start, end)
    for (px, py), (qx, qy) in edges:
        for piece in pullback.split((px * grow, py * grow), (qx * grow, qy * grow), folds):
            for moved in pullback.shuffle_back(*_canonical_placement(piece, pullback.scale)):
                lifted.append([tuple(pullback.canonical(*v) for v in branch)
                               for branch in pullback.halvings(moved)])
    follow = [{start: b for b, (start, _) in enumerate(branches)} for branches in lifted]
    if any(len(starts) != 4 for starts in follow):
        raise RuntimeError("a fiber on the curve is not simple; invariant violated")

    lifts, seen = [], set()
    for first in sorted(follow[0]):
        b, points = follow[0][first], []
        while lifted[0][b][0] not in seen:  # one circuit of the curve per pass
            seen.add(lifted[0][b][0])
            for branches, after in zip(lifted, follow[1:] + follow[:1]):
                start, end = branches[b]
                points.append(pullback.point(*start))
                b = after[end]
        if points:
            lifts.append(LiftedCurve(points=tuple(points), degree=len(points) // len(lifted)))
    return lifts


def is_horizontal(points: Sequence[OrbPoint]) -> bool:
    heights = {abs(p.y) for p in points}
    return len(heights) == 1 and all(0 < h < HALF for h in heights)


def horizontal_isotopic(h1: Fraction, h2: Fraction, pcs: Sequence[OrbPoint]) -> bool:
    """Isotopy test for horizontal circles relative to a point set: no point
    may have |y| strictly between the two heights."""
    lo, hi = sorted((abs(Fraction(h1)), abs(Fraction(h2))))
    return not any(lo < abs(p.y) < hi for p in pcs)


@dataclass(frozen=True)
class ThurstonReport:
    matrix: np.ndarray
    spectral_radius: float
    obstructed: bool


def thurston_matrix(curve_count: int,
                    pullbacks: Sequence[Sequence[tuple[Optional[int], int]]]) -> ThurstonReport:
    """Weighted pullback matrix of a multicurve.

    ``pullbacks[j]`` lists, for each preimage component of curve j, the index
    of the multicurve element it is isotopic to (or None) and its covering
    degree; entry (i, j) sums 1/degree over components isotopic to curve i.
    Spectral radius at or above 1 flags an obstruction.
    """
    if len(pullbacks) != curve_count:
        raise ValueError("need pullback data for every curve")
    matrix = np.zeros((curve_count, curve_count))
    for j, components in enumerate(pullbacks):
        for iso, degree in components:
            if degree < 1:
                raise ValueError("covering degrees must be positive")
            if iso is None:
                warnings.warn("preimage component not isotopic to any multicurve "
                              "element; contribution dropped", stacklevel=2)
                continue
            matrix[iso, j] += 1.0 / degree
    if curve_count == 0:
        return ThurstonReport(matrix=matrix, spectral_radius=0.0, obstructed=False)
    radius = spectral_radius(matrix).radius
    return ThurstonReport(matrix=matrix, spectral_radius=radius,
                          obstructed=bool(radius >= 1.0 - 1e-9))


@dataclass(frozen=True)
class ObstructionReport:
    a: Fraction
    curve_height: Fraction
    lift_heights: tuple[tuple[Fraction, ...], ...]
    degrees: tuple[int, ...]
    isotopic: tuple[bool, ...]
    matrix: np.ndarray
    spectral_radius: float
    obstructed: bool


def obstruction_report(a: RatLike, height: RatLike = Fraction(1, 4)) -> ObstructionReport:
    """Pull back the horizontal circle at ``height`` (its four-vertex polyline)
    and assemble its matrix."""
    a = check_parameter(a)
    height = _frac(height)
    pcs = postcritical_set(a)
    lifts = _lift(a, horizontal_curve(height), pcs, _TOL)
    isotopic = tuple(is_horizontal(c.points) and horizontal_isotopic(c.heights()[0], height, pcs)
                     for c in lifts)
    report = thurston_matrix(1, [[(0 if iso else None, c.degree)
                                  for iso, c in zip(isotopic, lifts)]])
    return ObstructionReport(a=a, curve_height=height,
                             lift_heights=tuple(c.heights() for c in lifts),
                             degrees=tuple(c.degree for c in lifts), isotopic=isotopic,
                             matrix=report.matrix, spectral_radius=report.spectral_radius,
                             obstructed=report.obstructed)
