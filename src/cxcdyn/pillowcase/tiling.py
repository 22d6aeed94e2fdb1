"""Subdivision tilings: exact piecewise-linear pullback of the cell structure.

The one-skeleton (the two horizontal edges plus the two side edges of the
pillowcase) is forward invariant, as ``skeleton_forward_invariance`` decides
exactly, so its iterated preimages subdivide the two faces into nested
tilings with 2 * 4^depth tiles at each depth; the skeleton at level k is the
edge set of the depth-k tiles.  A tile is pulled
back through the inverse corner shuffle (``core.shuffle_atlas(a, inverse=True)``,
which bends edges at six rational triangles) and the four inverse branches
of doubling, each image placed in the fundamental rectangle wholesale.

The pullback runs on integer numerators (X, Y) over one denominator
S = den(a) * 2^(2 depth + 2) per tiling.  Every division in it is checked, and
one that is not exact raises ``LatticeError`` naming a and the depth; nothing
is rounded.  ``Fraction`` is left at the boundary: the parameter, and ``Tile``
and ``Tiling``, whose coordinates are each built once as Fraction(X, S).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .core import (HALF, Lattice, LatticePoint, RatLike, _lattice_map, check_parameter,
                   point_in_triangle)
from .core import LatticeError  # noqa: F401  (re-exported: the pullback raises it)

Point = tuple[Fraction, Fraction]
Segment = tuple[Point, Point]

_FOLD_LINE = (0, 1, 0)  # y = 0, where branches fold


def _closed(verts: Sequence) -> Iterator:
    return zip(verts, verts[1:] + verts[:1])


def _centroid(verts: Sequence) -> tuple[Fraction, Fraction]:
    """Area centroid of a polygon, from Fraction or integer coordinates."""
    signed = cx = cy = 0
    for (x1, y1), (x2, y2) in _closed(verts):
        w = x1 * y2 - x2 * y1
        signed += w
        cx += (x1 + x2) * w
        cy += (y1 + y2) * w
    if signed == 0:
        raise ValueError("degenerate tile")
    return (Fraction(cx, 3 * signed), Fraction(cy, 3 * signed))


class _Pullback(Lattice):
    """The tile pullback on the lattice (1/scale)Z^2: pieces move by
    ``Lattice.move`` through the inverse atlas, whose triangles are doubled
    once here, for tests at doubled midpoints, and halve by ``Lattice.halvings``."""

    def __init__(self, a: Fraction, scale: int, depth: int):
        super().__init__(a, scale, f"the pullback at a = {a}, depth {depth}")
        self.regions, self.lines = [], [_FOLD_LINE]
        for tri, matrix, offset in self.scaled_atlas(inverse=True):
            for (x1, y1), (x2, y2) in _closed(tri):
                self.lines.append((y2 - y1, x1 - x2, (y2 - y1) * x1 + (x1 - x2) * y1))
            self.regions.append((tuple((2 * x, 2 * y) for x, y in tri), matrix, offset))

    def split(self, p: LatticePoint, q: LatticePoint,
              lines: Sequence) -> list[tuple[LatticePoint, LatticePoint]]:
        """Cut pq where it crosses the lines (A, B, C: AX + BY = C), in order."""
        if p == q:
            return [(p, q)]
        (px, py), (qx, qy) = p, q
        dx, dy = qx - px, qy - py
        knots = {p, q}
        for av, bv, cv in lines:
            num, den = cv - av * px - bv * py, av * dx + bv * dy
            if den < 0:
                num, den = -num, -den
            if 0 < num < den:
                knots.add((px + self.exact(num * dx, den), py + self.exact(num * dy, den)))
        ordered = sorted(knots, key=lambda k: (k[0] - px) * dx + (k[1] - py) * dy)
        return list(zip(ordered, ordered[1:]))

    def shuffle_back(self, p: LatticePoint,
                     q: LatticePoint) -> list[tuple[LatticePoint, LatticePoint]]:
        """Cut the segment pq into pieces and map each through the inverse shuffle.

        Near the corner squares the cuts are at the atlas lines, and each piece
        moves by the region holding its midpoint (an endpoint may lie on an edge
        shared with the wrong region).  Elsewhere the shuffle is the identity and
        the only cut is the fold line y = 0, so no piece's halvings straddle a fold.
        """
        if (not self.regions or max(p[0], q[0]) < self.corner
                or -self.corner < min(p[1], q[1]) <= max(p[1], q[1]) < self.corner):
            return self.split(p, q, (_FOLD_LINE,))
        pieces = []
        for piece in self.split(p, q, self.lines):
            (x1, y1), (x2, y2) = piece
            for region in self.regions:
                if point_in_triangle((x1 + x2, y1 + y2), region[0]):
                    piece = tuple(self.move(region, x, y) for x, y in piece)
                    break
            pieces.append(piece)
        return pieces

    def tile_preimages(self, verts: Sequence[LatticePoint]) -> list[tuple[LatticePoint, ...]]:
        boundary: list[LatticePoint] = []
        for p, q in _closed(verts):
            for start, _ in self.shuffle_back(p, q):
                if not boundary or start != boundary[-1]:
                    boundary.append(start)
        if boundary and boundary[0] == boundary[-1]:
            boundary.pop()
        return [_canonical_placement(halved, self.scale) for halved in self.halvings(boundary)]


# ---------------------------------------------------------------------------
# wholesale recanonicalization of branch images

def _canonical_placement(points: Sequence[LatticePoint],
                         scale: int) -> tuple[LatticePoint, ...]:
    """Move a point set over the denominator ``scale`` that straddles no
    fold line into the fundamental rectangle by one sign flip plus integer
    shifts.  Of the 18 (sign, sx, sy) candidates, the admissible ones follow
    from the bounding box and each one's key (sum of y, sum of x, sign) from
    the coordinate sums; the points move once, by the largest key."""
    xs, ys = zip(*points)
    n, total_x, total_y = len(points), sum(xs), sum(ys)
    box = (min(xs), max(xs), min(ys), max(ys))
    flipped = (-box[1], -box[0], -box[3], -box[2])
    best = None
    for sign, (lo_x, hi_x, lo_y, hi_y) in ((1, box), (-1, flipped)):
        for sx in (0, scale, -scale):
            if lo_x + sx < 0 or 2 * (hi_x + sx) > scale:
                continue
            for sy in (0, scale, -scale):
                if 2 * (lo_y + sy) < -scale or 2 * (hi_y + sy) > scale:
                    continue
                key = (sign * total_y + n * sy, sign * total_x + n * sx, sign)
                if best is None or key > best[0]:
                    best = (key, sx, sy)
    if best is None:
        raise RuntimeError("branch image straddles a fold line; invariant violated")
    (_, _, sign), sx, sy = best
    return tuple((sign * x + sx, sign * y + sy) for x, y in points)


def _normalize_segment(p: LatticePoint, q: LatticePoint,
                       half: int) -> tuple[LatticePoint, LatticePoint]:
    # side edges carry the reflection identification; the two horizontal
    # boundary rows are translates of each other
    if p[1] == -half and q[1] == -half:
        p, q = (p[0], half), (q[0], half)
    if p[0] == q[0] and p[0] in (0, half) and p[1] + q[1] < 0:
        p, q = (p[0], -p[1]), (q[0], -q[1])
    return (p, q) if p <= q else (q, p)


# ---------------------------------------------------------------------------
# tiles and the tiling

@dataclass(frozen=True)
class Tile:
    vertices: tuple[Point, ...]
    face: int  # ancestral face: 0 front (y >= 0), 1 back

    def area(self) -> Fraction:
        scale = math.lcm(*(c.denominator for v in self.vertices for c in v))
        ints = [tuple(c.numerator * (scale // c.denominator) for c in v) for v in self.vertices]
        total = sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in _closed(ints))
        return Fraction(abs(total), 2 * scale * scale)

    def centroid(self) -> Point:
        return _centroid(self.vertices)


def base_faces() -> tuple[Tile, Tile]:
    z = Fraction(0)
    front = Tile(vertices=((z, z), (HALF, z), (HALF, HALF), (z, HALF)), face=0)
    back = Tile(vertices=((z, -HALF), (HALF, -HALF), (HALF, z), (z, z)), face=1)
    return front, back


def base_skeleton() -> tuple[Segment, ...]:
    z = Fraction(0)
    return (((z, z), (HALF, z)),          # bottom horizontal edge
            ((z, HALF), (HALF, HALF)),    # top horizontal edge
            ((z, z), (z, HALF)),          # left side edge
            ((HALF, z), (HALF, HALF)))    # right side edge


def skeleton_forward_invariance(a: RatLike) -> bool:
    """Whether the map takes the skeleton into itself, decided exactly.

    Doubling maps the skeleton onto its bottom and left edges, which the
    corner squares (x, |y| >= 1/2 - a >= 3/8) never meet, so the map is
    affine on each half of each edge.  A half-edge therefore stays on the
    skeleton when its endpoints and midpoint land on one skeleton line."""
    a = check_parameter(a)
    fmap = _lattice_map(a, 8 * a.denominator)
    lines = [(axis, value) for axis in (0, 1) for value in (0, fmap.half)]
    for edge in base_skeleton():
        (px, py), (qx, qy) = [(fmap.numerator(x), fmap.numerator(y)) for x, y in edge]
        images = [fmap(px + k * (qx - px) // 4, py + k * (qy - py) // 4) for k in range(5)]
        for half in (images[:3], images[2:]):
            if not any(all(q[axis] == value for q in half) for axis, value in lines):
                return False
    return True


@dataclass(frozen=True)
class Tiling:
    a: Fraction
    depth: int
    cells: tuple[Tile, ...]
    skeleton: tuple[tuple[Segment, ...], ...]  # level k: the edges of the depth-k tiles

    @property
    def tile_count(self) -> int:
        return len(self.cells)

    def total_area(self) -> Fraction:
        return sum((t.area() for t in self.cells), Fraction(0))


def subdivide(a: RatLike, depth: int) -> Tiling:
    """Pull the tiles back ``depth`` times; skeleton level k is the edge set of
    the depth-k tiles (level 0 keeps the order of ``base_skeleton``).

    Forward invariance of the skeleton is the precondition making the
    pullback a subdivision; ``skeleton_forward_invariance`` decides it before
    any work happens.
    Tile counts quadruple each level because the map is a degree-four cover
    unramified over the open faces (all critical values sit on the skeleton).
    The denominator den(a) 2^(2 depth + 2) is a checked assumption: depths 0-4
    needed 2^0, 2^2, 2^3, 2^4 and 2^6; a shortfall raises ``LatticeError``.
    """
    a = check_parameter(a)
    if not (0 <= depth <= 8):
        raise ValueError("depth must lie in 0..8 (tile counts grow as 2 * 4^depth)")
    if not skeleton_forward_invariance(a):
        raise RuntimeError("skeleton is not forward invariant; pullback is not a subdivision")
    pullback = _Pullback(a, a.denominator << (2 * depth + 2), depth)
    fr = functools.cache(functools.partial(Fraction, denominator=pullback.scale))
    tiles = [(tuple((pullback.numerator(x), pullback.numerator(y)) for x, y in t.vertices), t.face)
             for t in base_faces()]
    levels = [base_skeleton()]
    for _ in range(depth):
        tiles = [(child, face) for verts, face in tiles
                 for child in pullback.tile_preimages(verts)]
        edges = {_normalize_segment(p, q, pullback.half) for verts, _ in tiles
                 for p, q in _closed(verts)}
        levels.append(tuple(((fr(px), fr(py)), (fr(qx), fr(qy)))
                            for (px, py), (qx, qy) in sorted(edges)))
    tiles.sort(key=lambda tile: _centroid(tile[0]))
    cells = tuple(Tile(vertices=tuple((fr(x), fr(y)) for x, y in verts), face=face)
                  for verts, face in tiles)
    return Tiling(a=a, depth=depth, cells=cells, skeleton=tuple(levels))
