"""Folded expanding maps on the k-cube and membership in the invariant set.

Per coordinate the map scales by an integer factor and reduces back into
[0, 1], either by reflections (fold) or by translations (wrap).  The
invariant set keeps the points whose entire forward orbit avoids the open
excised region: the set of points with at least n+1 coordinates strictly
inside the middle third.  Because reflections and the middle-third window
commute, the l-th iterate of the fold map agrees with the fold of the pure
scaling, which yields an exact digit test for points with terminating
base-3 expansions.

With per-coordinate exponents log 3 / log(factor_i), the max of snowflaked
coordinate distances turns the map into a local homothety with factor 3 away
from the fold hyperplanes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import math

import numpy as np


@dataclass(frozen=True)
class MengerParams:
    """Dimension n, ambient cube dimension k >= 2n+1, per-coordinate integer
    expansion factors (>= 3), and the quotient mode."""

    n: int
    k: int
    factors: tuple[int, ...]
    mode: str = "reflect"  # reflect | translate

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if self.k < 2 * self.n + 1:
            raise ValueError("need k >= 2n+1")
        if len(self.factors) != self.k:
            raise ValueError("need one expansion factor per coordinate")
        if any(int(f) != f or f < 3 for f in self.factors):
            raise ValueError("expansion factors must be integers >= 3")
        if self.mode not in ("reflect", "translate"):
            raise ValueError("mode must be 'reflect' or 'translate'")

    @property
    def exponents(self) -> tuple[float, ...]:
        return tuple(math.log(3.0) / math.log(f) for f in self.factors)


def sponge_params(n: int = 1, k: int = 3, mode: str = "reflect") -> MengerParams:
    return MengerParams(n=n, k=k, factors=(3,) * k, mode=mode)


def _fold(y: float) -> float:
    y = y % 2.0
    return 2.0 - y if y > 1.0 else y


def expanding_map(params: MengerParams, x: Sequence[float]) -> tuple[float, ...]:
    """Scale coordinatewise and reduce back into the cube."""
    if len(x) != params.k:
        raise ValueError("point dimension mismatch")
    if params.mode == "reflect":
        return tuple(_fold(f * float(c)) for f, c in zip(params.factors, x))
    return tuple((f * float(c)) % 1.0 for f, c in zip(params.factors, x))


@dataclass(frozen=True)
class Membership:
    status: str  # in | out | boundary_unknown
    level: Optional[int] = None

    def __str__(self) -> str:
        return f"out({self.level})" if self.status == "out" else self.status


def membership(params: MengerParams, x: Sequence[float], depth: int,
               tol: float = 1e-9) -> Membership:
    """Depth-limited membership with a three-valued verdict.

    Returns out(l) for the least l <= depth at which the iterate has at
    least n+1 coordinates strictly in the middle third; boundary_unknown
    when a coordinate sits within tol of the middle-third boundary and
    flipping it could change the verdict at that level.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    point = tuple(float(c) for c in x)
    if len(point) != params.k:
        raise ValueError("point dimension mismatch")
    if any(c < 0.0 or c > 1.0 for c in point):
        raise ValueError("coordinates must lie in [0, 1]")
    need = params.n + 1
    for level in range(depth + 1):
        surely = sum(1 for c in point if 1.0 / 3.0 + tol < c < 2.0 / 3.0 - tol)
        possibly = sum(1 for c in point if 1.0 / 3.0 - tol < c < 2.0 / 3.0 + tol)
        if surely >= need:
            return Membership(status="out", level=level)
        if possibly >= need:
            return Membership(status="boundary_unknown", level=level)
        point = expanding_map(params, point)
    return Membership(status="in")


def digit_membership(params: MengerParams, x: Sequence[Fraction], depth: int) -> Membership:
    """Exact oracle for the all-3 reflect case via base-3 digit windows.

    Valid because fold(3^l x) lands in the middle third exactly when the
    fractional part of 3^l x does; so the orbit test reduces to scanning
    digit positions of the unfolded scaling.
    """
    if params.mode != "reflect" or any(f != 3 for f in params.factors):
        raise ValueError("digit oracle only covers the all-3 reflect case")
    coords = [Fraction(c) for c in x]
    if len(coords) != params.k:
        raise ValueError("point dimension mismatch")
    if any(c < 0 or c > 1 for c in coords):
        raise ValueError("coordinates must lie in [0, 1]")
    lo, hi = Fraction(1, 3), Fraction(2, 3)
    need = params.n + 1
    for level in range(depth + 1):
        middles = 0
        for c in coords:
            frac = (3**level * c) % 1
            if lo < frac < hi:
                middles += 1
        if middles >= need:
            return Membership(status="out", level=level)
    return Membership(status="in")


def snowflake_distance(params: MengerParams, x: Sequence[float], y: Sequence[float]) -> float:
    """Max over coordinates of |x_i - y_i| raised to log 3 / log factor_i."""
    if len(x) != params.k or len(y) != params.k:
        raise ValueError("point dimension mismatch")
    eps = params.exponents
    return max(abs(float(a) - float(b)) ** e for a, b, e in zip(x, y, eps))


def segment_clears_folds(params: MengerParams, x: Sequence[float], y: Sequence[float]) -> bool:
    """True when every coordinate pair sits strictly inside one scaling cell,
    i.e. the segment avoids all fold hyperplanes (multiples of 1/factor_i)."""
    for f, a, b in zip(params.factors, x, y):
        sa, sb = f * float(a), f * float(b)
        ca, cb = math.floor(sa), math.floor(sb)
        if ca != cb:
            return False
        if min(sa - ca, ca + 1.0 - sa, sb - cb, cb + 1.0 - sb) < 1e-12:
            return False
    return True


def homothety_deviation(params: MengerParams, pairs: int, seed: int = 0) -> float:
    """Max |d(f x, f y) - 3 d(x, y)| over admissible sampled pairs.

    Pairs are dyadic (so the integer scalings are exact in binary floating
    point), closer than 1/(2 max factor) in the snowflake metric, and clear
    of every fold hyperplane.
    """
    rng = np.random.default_rng(seed)
    scale = 2**20
    bound = 1.0 / (2.0 * max(params.factors))
    worst = 0.0
    found = 0
    while found < pairs:
        x = tuple(int(v) / scale for v in rng.integers(0, scale + 1, params.k))
        offsets = rng.integers(-scale // 16, scale // 16 + 1, params.k)
        y = tuple(min(max(a + int(o) / scale, 0.0), 1.0) for a, o in zip(x, offsets))
        if snowflake_distance(params, x, y) >= bound:
            continue
        if not segment_clears_folds(params, x, y):
            continue
        found += 1
        lhs = snowflake_distance(params, expanding_map(params, x), expanding_map(params, y))
        rhs = 3.0 * snowflake_distance(params, x, y)
        worst = max(worst, abs(lhs - rhs))
    return worst


def slice_raster(params: MengerParams, depth: int, resolution: int,
                 axis: int = 2, value: float = 0.0) -> np.ndarray:
    """Grayscale membership raster of a 2D slice (levels map to shades)."""
    if params.k < 2:
        raise ValueError("need k >= 2 to slice")
    img = np.zeros((resolution, resolution), dtype=np.uint8)
    free = [i for i in range(params.k) if i != axis][:2]
    for row in range(resolution):
        for col in range(resolution):
            point = [value] * params.k
            point[free[0]] = (col + 0.5) / resolution
            point[free[1]] = (row + 0.5) / resolution
            m = membership(params, point, depth)
            if m.status == "in":
                img[row, col] = 0
            elif m.status == "out":
                img[row, col] = 255 - min(m.level, depth) * (128 // (depth + 1))
            else:
                img[row, col] = 128
    return img
