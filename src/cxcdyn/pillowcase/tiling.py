"""Subdivision tilings: exact piecewise-linear pullback of the cell structure.

The one-skeleton (the two horizontal edges plus the two side edges of the
pillowcase) is forward invariant, so its iterated preimages subdivide the
two faces into nested tilings with 2 * 4^depth tiles at each depth; the
skeleton at level k is the edge set of the depth-k tiles.  Tiles are pulled
back exactly: the corner-shuffle inverse (the affine atlas
``core.shuffle_atlas(a, inverse=True)``, shared with the pointwise maps)
bends edges at six rational triangles, and the doubling inverse
(``core.halvings``, shared with ``preimages``) contributes four affine
branches whose images are recanonicalized into the fundamental rectangle
wholesale (no branch image ever straddles a fold line, because tiles stay
inside closed faces and ``_shuffle_back`` splits every edge at y = 0).
Each image moves by one sign flip and integer shift, chosen from its
bounding box and coordinate sums before any point is moved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (HALF, AffineRegion, RatLike, check_parameter, halvings, locate,
                   near_shuffle, orb_point, pillow_map, shuffle_atlas)

Point = tuple[Fraction, Fraction]
Segment = tuple[Point, Point]
Line = tuple[Fraction, Fraction, Fraction]  # A, B, C with Ax + By = C


_FOLD_LINE = (Fraction(0), Fraction(1), Fraction(0))  # y = 0, where branches fold


def _split_lines(regions: Sequence[AffineRegion]) -> list[Line]:
    """Supporting lines of all region edges, plus the y = 0 line where the
    doubling branches fold."""
    lines = [_FOLD_LINE]
    for region in regions:
        tri = region.domain
        for k in range(3):
            (x1, y1), (x2, y2) = tri[k], tri[(k + 1) % 3]
            av, bv = y2 - y1, x1 - x2
            lines.append((av, bv, av * x1 + bv * y1))
    return lines


def _split_segment(p: Point, q: Point, lines: Sequence[Line]) -> list[Segment]:
    dx, dy = q[0] - p[0], q[1] - p[1]
    params = {Fraction(0), Fraction(1)}
    for av, bv, cv in lines:
        denom = av * dx + bv * dy
        if denom != 0:
            t = (cv - av * p[0] - bv * p[1]) / denom
            if 0 < t < 1:
                params.add(t)
    knots = sorted(params)
    points = [(p[0] + t * dx, p[1] + t * dy) for t in knots]
    return list(zip(points, points[1:]))


# ---------------------------------------------------------------------------
# wholesale recanonicalization of branch images

def _canonical_placement(points: Sequence[Point]) -> tuple[Point, ...]:
    """Move a point set that does not straddle any fold line back into the
    fundamental rectangle by one global sign flip plus integer shifts.

    Of the 18 (sign, sx, sy) candidates, the admissible ones (every moved
    point in [0, 1/2] x [-1/2, 1/2]) follow from the bounding box alone, and
    each one's key (sum of y, sum of x, sign) from the coordinate sums; the
    points are moved once, by the admissible candidate with the largest key."""
    xs, ys = zip(*points)
    n, total_x, total_y = len(points), sum(xs), sum(ys)
    box = (min(xs), max(xs), min(ys), max(ys))
    flipped = (-box[1], -box[0], -box[3], -box[2])
    best = None
    for sign, (lo_x, hi_x, lo_y, hi_y) in ((1, box), (-1, flipped)):
        for sx in (0, 1, -1):
            if lo_x + sx < 0 or hi_x + sx > HALF:
                continue
            for sy in (0, 1, -1):
                if lo_y + sy < -HALF or hi_y + sy > HALF:
                    continue
                key = (sign * total_y + n * sy, sign * total_x + n * sx, sign)
                if best is None or key > best[0]:
                    best = (key, sx, sy)
    if best is None:
        raise RuntimeError("branch image straddles a fold line; invariant violated")
    (_, _, sign), sx, sy = best
    return tuple((sign * x + sx, sign * y + sy) for x, y in points)


# ---------------------------------------------------------------------------
# tiles and the tiling

@dataclass(frozen=True)
class Tile:
    vertices: tuple[Point, ...]
    face: int  # ancestral face: 0 front (y >= 0), 1 back

    def area(self) -> Fraction:
        total = Fraction(0)
        verts = self.vertices
        for k in range(len(verts)):
            (x1, y1), (x2, y2) = verts[k], verts[(k + 1) % len(verts)]
            total += x1 * y2 - x2 * y1
        return abs(total) / 2

    def centroid(self) -> Point:
        signed = Fraction(0)
        cx = Fraction(0)
        cy = Fraction(0)
        verts = self.vertices
        for k in range(len(verts)):
            (x1, y1), (x2, y2) = verts[k], verts[(k + 1) % len(verts)]
            w = x1 * y2 - x2 * y1
            signed += w
            cx += (x1 + x2) * w
            cy += (y1 + y2) * w
        if signed == 0:
            raise ValueError("degenerate tile")
        return (cx / (3 * signed), cy / (3 * signed))


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


def _shuffle_back(a: Fraction, p: Point, q: Point, regions: Sequence[AffineRegion],
                  lines: Sequence[Line]) -> list[Segment]:
    """Cut the segment pq into pieces and map each through the inverse shuffle.

    Near the corner squares the cuts are at the atlas lines, and each piece
    moves by the region holding its midpoint (an endpoint may lie on an edge
    shared with the wrong region).  Elsewhere the shuffle is the identity and
    the only cut is the fold line y = 0, so no piece's halvings straddle a fold.
    """
    if not near_shuffle(a, (p, q)):
        return _split_segment(p, q, (_FOLD_LINE,))
    pieces = []
    for p1, p2 in _split_segment(p, q, lines):
        region = locate(regions, ((p1[0] + p2[0]) / 2, (p1[1] + p2[1]) / 2))
        pieces.append((region.apply(p1), region.apply(p2)))
    return pieces


def tile_preimages(a: Fraction, tile: Tile, regions: Sequence[AffineRegion],
                   lines: Sequence[Line]) -> list[Tile]:
    boundary: list[Point] = []
    verts = tile.vertices
    for k in range(len(verts)):
        for start, _ in _shuffle_back(a, verts[k], verts[(k + 1) % len(verts)], regions, lines):
            if not boundary or start != boundary[-1]:
                boundary.append(start)
    if boundary and boundary[0] == boundary[-1]:
        boundary.pop()
    return [Tile(vertices=_canonical_placement(halved), face=tile.face)
            for halved in halvings(boundary)]


def _normalize_segment(p: Point, q: Point) -> Segment:
    # side edges carry the reflection identification; the two horizontal
    # boundary rows are translates of each other
    if p[1] == -HALF and q[1] == -HALF:
        p, q = (p[0], HALF), (q[0], HALF)
    if p[0] == q[0] and p[0] in (Fraction(0), HALF) and p[1] + q[1] < 0:
        p, q = (p[0], -p[1]), (q[0], -q[1])
    return (p, q) if p <= q else (q, p)


def skeleton_forward_invariance(a: RatLike, samples: int = 10**4) -> bool:
    """Sample rational points on the four edges and check their images stay
    on the skeleton (a canonical coordinate pinned to 0 or 1/2), exactly."""
    a = check_parameter(a)
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    per_edge = max(2, samples // 4)
    on_skeleton = []
    for k in range(per_edge):
        t = Fraction(k, 2 * (per_edge - 1))  # runs over [0, 1/2]
        on_skeleton += [orb_point(t, 0), orb_point(t, HALF),
                        orb_point(0, t), orb_point(HALF, t)]
    pinned = {Fraction(0), HALF}
    for p in on_skeleton:
        q = pillow_map(a, p)
        if q.x not in pinned and q.y not in pinned:
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


def subdivide(a: RatLike, depth: int, invariance_samples: int = 256) -> Tiling:
    """Pull the tiles back ``depth`` times; skeleton level k is the edge set of
    the depth-k tiles (level 0 keeps the order of ``base_skeleton``).

    Forward invariance of the skeleton is the precondition making the
    pullback a subdivision; it is sampled exactly before any work happens.
    Tile counts quadruple each level because the map is a degree-four cover
    unramified over the open faces (all critical values sit on the skeleton).
    """
    a = check_parameter(a)
    if not (0 <= depth <= 8):
        raise ValueError("depth must lie in 0..8 (tile counts grow as 2 * 4^depth)")
    if not skeleton_forward_invariance(a, samples=invariance_samples):
        raise RuntimeError("skeleton is not forward invariant; pullback is not a subdivision")
    regions = shuffle_atlas(a, inverse=True)
    lines = _split_lines(regions)
    tiles = list(base_faces())
    levels = [base_skeleton()]
    for _ in range(depth):
        tiles = [child for tile in tiles
                 for child in tile_preimages(a, tile, regions, lines)]
        edges = {_normalize_segment(p, q) for t in tiles
                 for p, q in zip(t.vertices, t.vertices[1:] + t.vertices[:1])}
        levels.append(tuple(sorted(edges)))
    cells = tuple(sorted(tiles, key=lambda t: t.centroid()))
    return Tiling(a=a, depth=depth, cells=cells, skeleton=tuple(levels))
