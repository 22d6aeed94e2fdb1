"""Subdivision tilings: exact piecewise-linear pullback of the cell structure.

The one-skeleton (the two horizontal edges plus the two side edges of the
pillowcase) is forward invariant, so its iterated preimages subdivide the
two faces into nested tilings with 2 * 4^depth tiles at each depth.  Tiles
and skeleton arcs are pulled back exactly: the corner-shuffle inverse bends
segments at six rational triangles, and the doubling inverse contributes
four affine branches whose images are recanonicalized into the fundamental
rectangle wholesale (no branch image ever straddles a fold line, because
tiles stay inside closed faces and segments are split at y = 0 first).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (HALF, Mat, RatLike, check_parameter, corner_pieces, mat_inv, mat_vec,
                   orb_point, pillow_map, point_in_triangle)

Point = tuple[Fraction, Fraction]
Segment = tuple[Point, Point]


# ---------------------------------------------------------------------------
# the inverse of the corner shuffle as an explicit affine atlas

@dataclass(frozen=True)
class AffineRegion:
    domain: tuple[Point, ...]  # triangle, counterclockwise
    matrix: Mat
    offset: Point

    def apply(self, p: Point) -> Point:
        v = mat_vec(self.matrix, p)
        return (v[0] + self.offset[0], v[1] + self.offset[1])


def _translate(tri: Sequence[Point], t: Point) -> tuple[Point, ...]:
    return tuple((x + t[0], y + t[1]) for x, y in tri)


def _reflect_y(tri: Sequence[Point]) -> tuple[Point, ...]:
    # reorder to keep the triangle counterclockwise after reflection
    pts = [(x, -y) for x, y in tri]
    return (pts[0], pts[2], pts[1])


def inverse_shuffle_atlas(a: Fraction) -> list[AffineRegion]:
    """Affine pieces of the shuffle inverse on both corner squares.

    Domains are the translated image triangles; off their union the inverse
    is the identity.
    """
    if a == 0:
        return []
    shift = HALF - a
    t = (shift, shift)
    regions = []
    for piece in corner_pieces(a):
        inv = mat_inv(piece.matrix)
        # u -> inv (u - t) + t
        base_offset = (t[0] - (inv[0][0] * t[0] + inv[0][1] * t[1]),
                       t[1] - (inv[1][0] * t[0] + inv[1][1] * t[1]))
        domain = _translate(piece.image, t)
        regions.append(AffineRegion(domain=domain, matrix=inv, offset=base_offset))
        # conjugate by the reflection y -> -y for the mirrored square
        jm: Mat = ((inv[0][0], -inv[0][1]), (-inv[1][0], inv[1][1]))
        jb = (base_offset[0], -base_offset[1])
        regions.append(AffineRegion(domain=_reflect_y(domain), matrix=jm, offset=jb))
    return regions


_IDENTITY = AffineRegion(domain=(), matrix=((Fraction(1), Fraction(0)),
                                            (Fraction(0), Fraction(1))),
                         offset=(Fraction(0), Fraction(0)))


def _locate(regions: Sequence[AffineRegion], p: Point) -> AffineRegion:
    for region in regions:
        if point_in_triangle(p, region.domain):
            return region
    return _IDENTITY


_FOLD_LINE = (Fraction(0), Fraction(1), Fraction(0))  # y = 0, where branches fold


def _split_lines(regions: Sequence[AffineRegion]) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Supporting lines (A, B, C with Ax + By = C) of all region edges,
    plus the y = 0 line where the doubling branches fold."""
    lines = [_FOLD_LINE]
    for region in regions:
        tri = region.domain
        for k in range(3):
            (x1, y1), (x2, y2) = tri[k], tri[(k + 1) % 3]
            av, bv = y2 - y1, x1 - x2
            lines.append((av, bv, av * x1 + bv * y1))
    return lines


def _near_shuffle(a: Fraction, points: Sequence[Point]) -> bool:
    """Cheap bounding-box test against the two corner squares; segments that
    miss them bend nowhere and only need the y = 0 split."""
    if a == 0:
        return False
    if max(x for x, _ in points) < HALF - a:
        return False
    ys = [y for _, y in points]
    return max(ys) >= HALF - a or min(ys) <= -HALF + a


def _split_segment(p: Point, q: Point,
                   lines: Sequence[tuple[Fraction, Fraction, Fraction]]) -> list[tuple[Point, Point]]:
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
    fundamental rectangle by one global sign flip plus integer shifts."""
    candidates = []
    for sign in (1, -1):
        for sx in (0, 1, -1):
            for sy in (0, 1, -1):
                moved = tuple((sign * x + sx, sign * y + sy) for x, y in points)
                if all(0 <= x <= HALF and -HALF <= y <= HALF for x, y in moved):
                    total_y = sum(y for _, y in moved)
                    total_x = sum(x for x, _ in moved)
                    candidates.append(((total_y, total_x, sign), moved))
    if not candidates:
        raise RuntimeError("branch image straddles a fold line; invariant violated")
    return max(candidates)[1]


def _branch_images(points: Sequence[Point]) -> list[tuple[Point, ...]]:
    images = []
    for m in (0, 1):
        for n in (0, 1):
            halved = tuple(((x + m) / 2, (y + n) / 2) for x, y in points)
            images.append(_canonical_placement(halved))
    return images


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


def _pull_back_boundary(a: Fraction, vertices: Sequence[Point],
                        regions: Sequence[AffineRegion],
                        lines: Sequence[tuple[Fraction, Fraction, Fraction]]) -> list[Point]:
    out: list[Point] = []
    count = len(vertices)
    for k in range(count):
        u, v = vertices[k], vertices[(k + 1) % count]
        if not _near_shuffle(a, (u, v)):
            if not out or u != out[-1]:
                out.append(u)
            continue
        for p1, p2 in _split_segment(u, v, lines):
            mid = ((p1[0] + p2[0]) / 2, (p1[1] + p2[1]) / 2)
            region = _locate(regions, mid)
            mapped = region.apply(p1)
            if not out or mapped != out[-1]:
                out.append(mapped)
    if out and out[0] == out[-1]:
        out.pop()
    return out


def tile_preimages(a: Fraction, tile: Tile,
                   regions: Sequence[AffineRegion],
                   lines: Sequence[tuple[Fraction, Fraction, Fraction]]) -> list[Tile]:
    shuffled = _pull_back_boundary(a, tile.vertices, regions, lines)
    return [Tile(vertices=img, face=tile.face) for img in _branch_images(shuffled)]


def _normalize_segment(p: Point, q: Point) -> Segment:
    # side edges carry the reflection identification; the two horizontal
    # boundary rows are translates of each other
    if p[1] == -HALF and q[1] == -HALF:
        p, q = (p[0], HALF), (q[0], HALF)
    if p[0] == q[0] and p[0] in (Fraction(0), HALF) and p[1] + q[1] < 0:
        p, q = (p[0], -p[1]), (q[0], -q[1])
    return (p, q) if p <= q else (q, p)


def segment_preimages(a: Fraction, seg: Segment,
                      regions: Sequence[AffineRegion],
                      lines: Sequence[tuple[Fraction, Fraction, Fraction]]) -> list[Segment]:
    out = []
    active = lines if _near_shuffle(a, seg) else (_FOLD_LINE,)
    for p1, p2 in _split_segment(seg[0], seg[1], active):
        mid = ((p1[0] + p2[0]) / 2, (p1[1] + p2[1]) / 2)
        region = _locate(regions, mid) if active is lines else _IDENTITY
        m1, m2 = region.apply(p1), region.apply(p2)
        if m1 == m2:
            continue
        for img in _branch_images((m1, m2)):
            out.append(_normalize_segment(img[0], img[1]))
    return out


def skeleton_forward_invariance(a: RatLike, samples: int = 10**4) -> bool:
    """Sample rational points on the four edges and check their images stay
    on the skeleton (a canonical coordinate pinned to 0 or 1/2), exactly."""
    a = check_parameter(a)
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
    skeleton: tuple[tuple[Segment, ...], ...]  # cumulative pullback per level

    @property
    def tile_count(self) -> int:
        return len(self.cells)

    def total_area(self) -> Fraction:
        return sum((t.area() for t in self.cells), Fraction(0))


def subdivide(a: RatLike, depth: int, invariance_samples: int = 256) -> Tiling:
    """Pull the cell structure back ``depth`` times.

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
    regions = inverse_shuffle_atlas(a)
    lines = _split_lines(regions)
    tiles = list(base_faces())
    levels: list[tuple[Segment, ...]] = [tuple(base_skeleton())]
    for _ in range(depth):
        tiles = [child for tile in tiles
                 for child in tile_preimages(a, tile, regions, lines)]
        pulled = {child for seg in levels[-1]
                  for child in segment_preimages(a, seg, regions, lines)}
        levels.append(tuple(sorted(pulled)))
    cells = tuple(sorted(tiles, key=lambda t: t.centroid()))
    return Tiling(a=a, depth=depth, cells=cells, skeleton=tuple(levels))
