"""Closed-curve pullback and obstruction matrices for the pillowcase family.

A closed polyline avoiding the postcritical set lifts through the map by
continuation: fibers are exact (four simple preimages), consecutive fibers
are matched by proximity, and a lift closes up after as many circuits of the
base curve as its covering degree.  For horizontal circles, isotopy relative
to the postcritical set reduces to a height comparison because every
postcritical point sits on the two horizontal boundary edges.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from ..dimension import spectral_radius
from .core import (OrbPoint, RatLike, check_parameter, orb_distance, orb_point,
                   postcritical_set, preimages)


class ContinuationError(RuntimeError):
    """Fiber matching became ambiguous; the curve needs finer sampling."""


def horizontal_curve(height: RatLike, samples_per_side: int = 64) -> list[OrbPoint]:
    """The horizontal circle at the given height as a closed polyline.

    It runs along y = h from x = 0 to 1/2 and returns along y = -h; the two
    rows are glued through the side edges, so the list is cyclic (the last
    vertex neighbors the first).
    """
    h = Fraction(height)
    if not (0 < h < Fraction(1, 2)):
        raise ValueError("height must lie strictly between 0 and 1/2")
    s = samples_per_side
    if s < 2:
        raise ValueError(f"need at least 2 samples per side, got {s}")
    out = [orb_point(Fraction(k, 2 * s), h) for k in range(s + 1)]
    back = [orb_point(Fraction(k, 2 * s), -h) for k in range(s - 1, 0, -1)]
    return out + back


@dataclass(frozen=True)
class LiftedCurve:
    points: tuple[OrbPoint, ...]
    degree: int

    def heights(self) -> tuple[Fraction, ...]:
        return tuple(sorted({abs(p.y) for p in self.points}))


def curve_preimage(a: RatLike, curve: Sequence[OrbPoint], tol: float = 1e-9) -> list[LiftedCurve]:
    """All connected preimage curves of a closed polyline, with degrees.

    Requires the curve to stay tol-clear of the postcritical set, which
    keeps every fiber simple.  Degrees always sum to the covering degree 4.
    """
    a = check_parameter(a)
    if len(curve) < 3:
        raise ValueError("need a closed polyline with at least 3 vertices")
    pcs = postcritical_set(a)
    for p in curve:
        if min(orb_distance(p, q) for q in pcs) <= tol:
            raise ValueError("curve passes through (or too near) the postcritical set")

    fibers: list[list[OrbPoint]] = []
    for p in curve:
        fiber = preimages(a, p)
        if any(deg != 1 for _, deg in fiber):
            raise ValueError("curve hits a critical value; fibers are not simple")
        fibers.append([q for q, _ in fiber])

    length = len(curve)
    steps = [orb_distance(curve[k], curve[(k + 1) % length]) for k in range(length)]
    max_step = max(steps)

    remaining = set(range(4))
    lifts: list[LiftedCurve] = []
    while remaining:
        start_index = min(remaining)
        start = fibers[0][start_index]
        current = start
        points = [start]
        rounds = 0
        step = 0
        while True:
            step += 1
            fiber = fibers[step % length]
            ranked = sorted((orb_distance(current, cand), i) for i, cand in enumerate(fiber))
            (d0, i0), (d1, _) = ranked[0], ranked[1]
            if d0 > 0.49 * d1 or d0 > max_step:
                raise ContinuationError("preimage continuation ambiguous; refine the curve")
            current = fiber[i0]
            if step % length == 0:
                rounds += 1
                remaining.discard(fibers[0].index(current))
                if current == start:
                    break
                if rounds >= 8:
                    raise ContinuationError("lift failed to close; refine the curve")
            points.append(current)
        lifts.append(LiftedCurve(points=tuple(points), degree=rounds))
    if sum(c.degree for c in lifts) != 4:
        raise RuntimeError("covering degrees of the lifts do not sum to 4")
    return lifts


def is_horizontal(points: Sequence[OrbPoint]) -> bool:
    heights = {abs(p.y) for p in points}
    return len(heights) == 1 and all(0 < h < Fraction(1, 2) for h in heights)


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


def obstruction_report(a: RatLike, height: RatLike = Fraction(1, 4),
                       samples_per_side: int = 64) -> ObstructionReport:
    """Pull back the standard horizontal circle and assemble its matrix."""
    a = check_parameter(a)
    height = Fraction(height)
    curve = horizontal_curve(height, samples_per_side)
    lifts = curve_preimage(a, curve)
    pcs = postcritical_set(a)
    pullback_data = []
    isotopy_flags = []
    for lift in lifts:
        if is_horizontal(lift.points):
            iso = horizontal_isotopic(lift.heights()[0], height, pcs)
        else:
            iso = False
        isotopy_flags.append(iso)
        pullback_data.append((0 if iso else None, lift.degree))
    report = thurston_matrix(1, [pullback_data])
    return ObstructionReport(a=a, curve_height=height,
                             lift_heights=tuple(c.heights() for c in lifts),
                             degrees=tuple(c.degree for c in lifts),
                             isotopic=tuple(isotopy_flags),
                             matrix=report.matrix,
                             spectral_radius=report.spectral_radius,
                             obstructed=report.obstructed)
