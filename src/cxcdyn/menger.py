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
from itertools import repeat
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


def _image(params: MengerParams, point: Sequence[float]) -> tuple[float, ...]:
    """One step of the map on a point of floats: scale each coordinate, then
    reflect it back into [0, 1] (fold) or translate it (wrap)."""
    if params.mode == "reflect":
        return tuple([2.0 - y if (y := f * c % 2.0) > 1.0 else y
                      for f, c in zip(params.factors, point)])
    return tuple([f * c % 1.0 for f, c in zip(params.factors, point)])


def _image_rows(params: MengerParams, points: np.ndarray) -> np.ndarray:
    """`_image` on every row of an (N, k) float array, in place, with the
    same IEEE operations in the same order."""
    points *= np.array(params.factors, dtype=float)
    if params.mode == "reflect":
        np.remainder(points, 2.0, out=points)
        np.subtract(2.0, points, out=points, where=points > 1.0)
    else:
        np.remainder(points, 1.0, out=points)
    return points


def expanding_map(params: MengerParams, x: Sequence[float]) -> tuple[float, ...]:
    """Scale coordinatewise and reduce back into the cube."""
    if len(x) != params.k:
        raise ValueError("point dimension mismatch")
    return _image(params, [float(c) for c in x])


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
    point = tuple(map(float, x))
    if len(point) != params.k:
        raise ValueError("point dimension mismatch")
    if not all(0.0 <= c <= 1.0 for c in point):  # NaN fails both comparisons
        raise ValueError("coordinates must lie in [0, 1]")
    need = params.n + 1
    # two independent windows: for tol < 0 the sure one is the wider
    sure_lo, sure_hi = 1.0 / 3.0 + tol, 2.0 / 3.0 - tol
    near_lo, near_hi = 1.0 / 3.0 - tol, 2.0 / 3.0 + tol
    for level in range(depth + 1):
        surely = possibly = 0
        for c in point:
            if sure_lo < c < sure_hi:
                surely += 1
            if near_lo < c < near_hi:
                possibly += 1
        if surely >= need:
            return Membership(status="out", level=level)
        if possibly >= need:
            return Membership(status="boundary_unknown", level=level)
        point = _image(params, point)
    return Membership(status="in")


# the status codes of `membership_array` index this tuple
STATUSES = ("in", "out", "boundary_unknown")


def membership_array(params: MengerParams, points: np.ndarray, depth: int,
                     tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """`membership` for an (N, k) array of points at once.

    Returns per-point status codes (int8 indices into STATUSES) and levels,
    with level -1 where `membership` gives None.  The iterates take the same
    IEEE operations in the same order as `expanding_map`, so every verdict
    equals the scalar one.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    live_points = np.asarray(points, dtype=float)
    if live_points.ndim != 2 or live_points.shape[1] != params.k:
        raise ValueError("point dimension mismatch")
    if not np.all((live_points >= 0.0) & (live_points <= 1.0)):
        raise ValueError("coordinates must lie in [0, 1]")
    need = params.n + 1
    status = np.zeros(len(live_points), dtype=np.int8)
    levels = np.full(len(live_points), -1)
    live = np.arange(len(live_points))
    for level in range(depth + 1):
        inside = (1.0 / 3.0 + tol < live_points) & (live_points < 2.0 / 3.0 - tol)
        near = (1.0 / 3.0 - tol < live_points) & (live_points < 2.0 / 3.0 + tol)
        surely = inside.sum(axis=1) >= need
        decided = surely | (near.sum(axis=1) >= need)
        status[live[decided]] = np.where(surely[decided], 1, 2)
        levels[live[decided]] = level
        # a fresh array, so the map below never writes into the caller's
        live, live_points = live[~decided], live_points[~decided]
        _image_rows(params, live_points)
    return status, levels


def digit_oracle_covers(params: MengerParams) -> bool:
    """True for the parameters `digit_membership` decides: all factors 3,
    reflect mode."""
    return params.mode == "reflect" and all(f == 3 for f in params.factors)


def digit_membership(params: MengerParams, x: Sequence[Fraction], depth: int) -> Membership:
    """Exact oracle for the all-3 reflect case via base-3 digit windows.

    Valid because fold(3^l x) lands in the middle third exactly when the
    fractional part of 3^l x does; so the orbit test reduces to scanning
    digit positions of the unfolded scaling.  For c = p/q in lowest terms
    that fractional part is r/q with r = 3^l p mod q, so the open window
    1/3 < r/q < 2/3 is the integer test q < 3r < 2q.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if not digit_oracle_covers(params):
        raise ValueError("digit oracle only covers the all-3 reflect case")
    terms = []
    try:
        for c in x:
            if type(c) is not Fraction:  # a Fraction is already in lowest terms
                c = Fraction(c)
            terms.append((c.numerator, c.denominator))
    except (OverflowError, ValueError):  # an infinite or NaN float
        raise ValueError("coordinates must lie in [0, 1]") from None
    if len(terms) != params.k:
        raise ValueError("point dimension mismatch")
    if not all(0 <= p <= q for p, q in terms):
        raise ValueError("coordinates must lie in [0, 1]")
    need = params.n + 1
    rests = [(p % q, q) for p, q in terms]
    for level in range(depth + 1):
        # one pass: count the window hits of 3r, and keep 3r mod q for the next level
        hits, tripled = 0, []
        for r, q in rests:
            r *= 3
            if q < r < 2 * q:
                hits += 1
            tripled.append((r % q, q))
        if hits >= need:
            return Membership(status="out", level=level)
        rests = tripled
    return Membership(status="in")


def digit_membership_array(params: MengerParams, numerators: np.ndarray, denominator: int,
                           depth: int) -> tuple[np.ndarray, np.ndarray]:
    """`digit_membership` for an (N, k) array of points numerators / denominator.

    Returns status codes (indices into STATUSES: "in" or "out") and levels,
    -1 where the point is in, like `membership_array`.  The window test needs
    no lowest terms: over a common factor g, r = 3^l p mod q becomes g r, and
    q < 3r < 2q holds exactly when g q < 3 g r < 2 g q does.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if not digit_oracle_covers(params):
        raise ValueError("digit oracle only covers the all-3 reflect case")
    rests = np.asarray(numerators)
    if rests.dtype.kind not in "iu":
        raise ValueError("numerators must be integers")
    rests = rests.astype(np.int64)
    if rests.ndim != 2 or rests.shape[1] != params.k:
        raise ValueError("point dimension mismatch")
    if not 0 < denominator <= np.iinfo(np.int64).max // 3:
        raise ValueError("denominator must be positive and leave 3 * denominator in int64")
    if not np.all((rests >= 0) & (rests <= denominator)):
        raise ValueError("coordinates must lie in [0, 1]")
    need = params.n + 1
    status = np.zeros(len(rests), dtype=np.int8)
    levels = np.full(len(rests), -1)
    live = np.arange(len(rests))
    rests %= denominator
    for level in range(depth + 1):
        rests *= 3
        out = ((denominator < rests) & (rests < 2 * denominator)).sum(axis=1) >= need
        status[live[out]] = STATUSES.index("out")
        levels[live[out]] = level
        live, rests = live[~out], rests[~out]
        rests %= denominator
    return status, levels


def snowflake_distance(params: MengerParams, x: Sequence[float], y: Sequence[float]) -> float:
    """Max over coordinates of |x_i - y_i| raised to log 3 / log factor_i."""
    if len(x) != params.k or len(y) != params.k:
        raise ValueError("point dimension mismatch")
    eps = params.exponents
    return max(abs(float(a) - float(b)) ** e for a, b, e in zip(x, y, eps))


def _snowflake_rows(params: MengerParams, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """`snowflake_distance` of each row pair of two (N, k) arrays.  The
    powers stay scalar libm ``pow``, because numpy's vectorised power rounds
    some of them differently."""
    powers = [np.fromiter(map(pow, column.tolist(), repeat(e)), float, len(column))
              for column, e in zip(np.abs(x - y).T, params.exponents)]
    return np.maximum.reduce(powers)


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


def _clear_rows(params: MengerParams, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """`segment_clears_folds` of each row pair of two (N, k) arrays."""
    factors = np.array(params.factors, dtype=float)
    sa, sb = factors * x, factors * y
    ca, cb = np.floor(sa), np.floor(sb)
    edge = np.minimum(np.minimum(sa - ca, ca + 1.0 - sa), np.minimum(sb - cb, cb + 1.0 - sb))
    return ((ca == cb) & (edge >= 1e-12)).all(axis=1)


# homothety pairs live on the 2^-20 grid, where the integer scalings are
# exact in binary floating point
_GRID = 2**20
_PROPOSALS_PER_PAIR = 4
_BATCH = 4096


def _admissible_pairs(params: MengerParams, pairs: int, rng: np.random.Generator):
    """Draw proposals in batches and yield, per batch, the admissible pairs
    it keeps: (x, y, d) with x and y (m, k) arrays of points and d their
    snowflake distances.

    The checks run in bulk in the order of a pair-by-pair loop: snowflake
    distance below bound = 1/(2 max factor), then clear of every fold.
    Past 4 * pairs proposals this raises ValueError instead of drawing on.
    """
    bound = 1.0 / (2.0 * max(params.factors))
    factors = np.array(params.factors, dtype=np.int64)
    # the folds of f_i meet the grid in the multiples of period_i = 2^20 / g_i,
    # g_i = gcd(f_i, 2^20): g_i + 1 grid points, leaving 2^20 - g_i off them
    shared = np.gcd(factors, _GRID)
    period = _GRID // shared
    # the largest grid offset strictly inside the snowflake ball
    reach = np.array([math.ceil(bound ** (1.0 / e) * _GRID) - 1 for e in params.exponents])
    found = proposed = 0
    while found < pairs:
        size = min(pairs - found, _BATCH, _PROPOSALS_PER_PAIR * pairs - proposed)
        if size <= 0:
            raise ValueError(f"only {found} of {proposed} proposals were admissible pairs")
        proposed += size
        # the t-th grid point that is not a multiple of the period
        t = rng.integers(0, _GRID - shared, (size, params.k))
        u = t + t // (period - 1) + 1
        # the grid points strictly inside x's scaling cells [c/f, (c+1)/f]
        cell = factors * u // _GRID
        first = cell * _GRID // factors + 1
        last = -(-(cell + 1) * _GRID // factors) - 1
        v = rng.integers(np.maximum(u - reach, first), np.minimum(u + reach, last),
                         endpoint=True)
        x, y = u / _GRID, v / _GRID
        d = _snowflake_rows(params, x, y)
        near = d < bound
        x, y, d = x[near], y[near], d[near]
        clear = _clear_rows(params, x, y)
        x, y, d = x[clear], y[clear], d[clear]
        found += len(d)
        yield x, y, d


def homothety_deviation(params: MengerParams, pairs: int, seed: int = 0) -> float:
    """Max |d(f x, f y) - 3 d(x, y)| over `pairs` sampled admissible pairs.

    x is drawn from the 2^-20 grid points off every fold hyperplane, and
    each coordinate y_i directly from the grid points strictly inside x_i's
    scaling cell [c/f_i, (c+1)/f_i] and closer to x_i than bound^(1/e_i),
    with bound = 1/(2 max factor) and e_i = log 3 / log f_i.  Every pair
    must still pass both admissibility checks: snowflake distance below
    bound, and clear of every fold hyperplane.  The cost is O(pairs): past
    4 * pairs proposals this raises ValueError instead of sampling on.

    The checks, the map and the distances run in bulk over each batch, with
    the IEEE operations of `snowflake_distance`, `segment_clears_folds` and
    `expanding_map` in their order, so the result equals that of a
    pair-by-pair loop bit for bit.
    """
    if pairs < 0:
        raise ValueError("pairs must be >= 0")
    if max(params.factors) >= _GRID:
        raise ValueError("factors of 2^20 or more leave no scaling cell wider "
                         "than the 2^-20 sampling grid")
    worst = 0.0
    for x, y, d in _admissible_pairs(params, pairs, np.random.default_rng(seed)):
        lhs = _snowflake_rows(params, _image_rows(params, x), _image_rows(params, y))
        worst = max(worst, float(np.abs(lhs - 3.0 * d).max(initial=0.0)))
    return worst


def slice_raster(params: MengerParams, depth: int, resolution: int,
                 axis: int = 2, value: float = 0.0) -> np.ndarray:
    """Grayscale membership raster of a 2D slice (levels map to shades).

    The slice fixes coordinate `axis` at `value` and spans the first two
    other coordinates at the pixel centers; a square (k = 2) is its own
    slice, with axis 2.
    """
    if params.k < 2:
        raise ValueError("need k >= 2 to slice")
    if not (axis == 2 if params.k == 2 else 0 <= axis < params.k):
        raise ValueError(f"axis must be in 0..{params.k - 1}" if params.k > 2
                         else "a square is its own slice: axis must be 2")
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    if not 0.0 <= value <= 1.0:
        raise ValueError("slice value must lie in [0, 1]")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    free = [i for i in range(params.k) if i != axis][:2]
    centers = (np.arange(resolution) + 0.5) / resolution
    grid = np.full((resolution, resolution, params.k), float(value))
    grid[:, :, free[0]] = centers[np.newaxis, :]
    grid[:, :, free[1]] = centers[:, np.newaxis]
    status, levels = membership_array(params, grid.reshape(-1, params.k), depth)
    shade = 255 - np.minimum(levels, depth) * (128 // (depth + 1))
    img = np.choose(status, (0, shade, 128))  # in, out(level), boundary_unknown
    return img.astype(np.uint8).reshape(resolution, resolution)
