import hashlib
import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import cxcdyn.pillowcase.tiling as tiling
from cxcdyn.pillowcase import (LatticeMap, Tile, Tiling, base_faces, base_skeleton,
                               check_parameter, orb_point, shuffle_atlas,
                               skeleton_forward_invariance, subdivide)
from cxcdyn.pillowcase.tiling import (LatticeError, _canonical_placement, _normalize_segment,
                                      _Pullback)
from cxcdyn.render import tiling_svg
import oracles
from oracles import apply, halvings, locate, shuffle

HALF = F(1, 2)


def test_depth_zero_is_the_two_faces():
    tiling = subdivide(0, 0)
    assert tiling.tile_count == 2
    assert tiling.total_area() == F(1, 2)
    assert {t.face for t in tiling.cells} == {0, 1}


def test_unperturbed_depth_two_gives_congruent_squares():
    tiling = subdivide(0, 2)
    assert tiling.tile_count == 32
    side = F(1, 8)
    for tile in tiling.cells:
        assert len(tile.vertices) == 4
        xs = {v[0] for v in tile.vertices}
        ys = {v[1] for v in tile.vertices}
        assert len(xs) == 2 and len(ys) == 2
        assert max(xs) - min(xs) == side and max(ys) - min(ys) == side
        assert tile.area() == side * side


@pytest.mark.parametrize("a", [F(0), F(1, 8)])
def test_tile_counts_quadruple(a):
    for depth in range(4):
        tiling = subdivide(a, depth)
        assert tiling.tile_count == 2 * 4**depth
        assert tiling.total_area() == F(1, 2)


def test_perturbed_depth_four_count(eighth):
    tiling = subdivide(eighth, 4)
    assert tiling.tile_count == 512
    assert tiling.total_area() == F(1, 2)


def test_counts_match_across_parameters():
    # the combinatorics of deeper perturbed tilings is open; counts agree
    for depth in range(4):
        assert subdivide(0, depth).tile_count == subdivide(F(1, 8), depth).tile_count


def test_skeleton_levels_nest_and_grow(eighth):
    tiling = subdivide(eighth, 3)
    sizes = [len(level) for level in tiling.skeleton]
    assert sizes[0] == 4
    assert all(a < b for a, b in zip(sizes, sizes[1:]))


def test_skeleton_forward_invariance(eighth):
    assert skeleton_forward_invariance(eighth)
    assert skeleton_forward_invariance(F(1, 64))


def test_depth_cap():
    with pytest.raises(ValueError, match="0..8"):
        subdivide(0, 9)


def test_tiles_sorted_by_centroid(eighth):
    tiling = subdivide(eighth, 2)
    centroids = [t.centroid() for t in tiling.cells]
    assert centroids == sorted(centroids)


def svg_digest(a, depth):
    return hashlib.sha256(tiling_svg(subdivide(a, depth)).encode()).hexdigest()


@pytest.mark.parametrize("a, digest", [
    (F(0), "dd8fcaffe7d1721fa519145df990b61e15b61620db409305ce957820e0cdcb6d"),
    (F(1, 64), "36f161b63b574ac7bb60a1033a934171e16af741b5ee0ae12f090499a02311c1"),
    (F(3, 40), "c5f4b5d1dbb4bfdaa60d455a054cd84f37ed704d2fa9180207ecd6edaccbfded"),
    (F(1, 8), "1ce90b35cc3c0cc7c16edbf2e10936616cf8c2e4bb118e45db8d3909943c492a"),
])
def test_depth_three_svg_pinned(a, digest):
    assert svg_digest(a, 3) == digest


@pytest.mark.parametrize("a, digest", [
    (F(1, 64), "252fc82c56864875859591e0c86d9f3f9b04e3d1fb24e2cd74d326bd01b25afb"),
    (F(1, 8), "3e1d15f9a1a867e69b224a3c658778837057d19aff469334ae0a5ca939b287db"),
])
def test_depth_four_svg_pinned(a, digest):
    assert svg_digest(a, 4) == digest


@pytest.mark.parametrize("a, digest", [
    (F(1, 64), "0c7e834c21d4278b63f6fa5e76bcfa72390bac63429d00a26eb7d34d22416388"),
    (F(1, 8), "49b802de225bb5b919e641d12e7b0d073add920838a6295a74b87cccde74a2bd"),
])
def test_depth_five_svg_pinned(a, digest):
    assert svg_digest(a, 5) == digest


# --- the Fraction pullback, kept as the oracle of the integer one -------------

FOLD_LINE = (F(0), F(1), F(0))  # y = 0


def split_lines(regions):
    """Supporting lines (A, B, C with Ax + By = C) of all region edges, plus
    the fold line y = 0."""
    lines = [FOLD_LINE]
    for region in regions:
        tri = region.domain
        for k in range(3):
            (x1, y1), (x2, y2) = tri[k], tri[(k + 1) % 3]
            av, bv = y2 - y1, x1 - x2
            lines.append((av, bv, av * x1 + bv * y1))
    return lines


def split_segment(p, q, lines):
    dx, dy = q[0] - p[0], q[1] - p[1]
    params = {F(0), F(1)}
    for av, bv, cv in lines:
        denom = av * dx + bv * dy
        if denom != 0:
            t = (cv - av * p[0] - bv * p[1]) / denom
            if 0 < t < 1:
                params.add(t)
    knots = sorted(params)
    points = [(p[0] + t * dx, p[1] + t * dy) for t in knots]
    return list(zip(points, points[1:]))


def fraction_placement(points):
    """The sign flip and integer shift into the fundamental rectangle, chosen
    from the bounding box and the coordinate sums, in Fractions."""
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


def near_corner(a, p, q):
    """Whether the bounding box of pq meets a corner square."""
    ys = (p[1], q[1])
    return a != 0 and max(p[0], q[0]) >= HALF - a and (max(ys) >= HALF - a
                                                       or min(ys) <= -HALF + a)


def shuffle_back(a, p, q, regions, lines):
    """Cut pq at the atlas lines near the corner squares (else at y = 0 only)
    and move each piece by the region holding its midpoint."""
    if not near_corner(a, p, q):
        return split_segment(p, q, (FOLD_LINE,))
    pieces = []
    for p1, p2 in split_segment(p, q, lines):
        region = locate(regions, ((p1[0] + p2[0]) / 2, (p1[1] + p2[1]) / 2))
        pieces.append((apply(region, p1), apply(region, p2)))
    return pieces


def tile_preimages(a, tile, regions, lines):
    boundary = []
    verts = tile.vertices
    for k in range(len(verts)):
        for start, _ in shuffle_back(a, verts[k], verts[(k + 1) % len(verts)], regions, lines):
            if not boundary or start != boundary[-1]:
                boundary.append(start)
    if boundary and boundary[0] == boundary[-1]:
        boundary.pop()
    return [Tile(vertices=fraction_placement(halved), face=tile.face)
            for halved in halvings(boundary)]


def normalize_segment(p, q):
    if p[1] == -HALF and q[1] == -HALF:
        p, q = (p[0], HALF), (q[0], HALF)
    if p[0] == q[0] and p[0] in (F(0), HALF) and p[1] + q[1] < 0:
        p, q = (p[0], -p[1]), (q[0], -q[1])
    return (p, q) if p <= q else (q, p)


def _atlas(a):
    regions = shuffle_atlas(a, inverse=True)
    return regions, split_lines(regions)


def fraction_subdivide(a, depth):
    """``subdivide`` in Fraction arithmetic: the tiles pulled back ``depth``
    times, skeleton level k the sorted edge set of the depth-k tiles."""
    a = check_parameter(a)
    regions, lines = _atlas(a)
    tiles, levels = list(base_faces()), [base_skeleton()]
    for _ in range(depth):
        tiles = [child for tile in tiles for child in tile_preimages(a, tile, regions, lines)]
        edges = {normalize_segment(p, q) for t in tiles
                 for p, q in zip(t.vertices, t.vertices[1:] + t.vertices[:1])}
        levels.append(tuple(sorted(edges)))
    cells = tuple(sorted(tiles, key=lambda t: t.centroid()))
    return Tiling(a=a, depth=depth, cells=cells, skeleton=tuple(levels))


# the parameters of the pillow benchmark: p/q in [1/16, 1/8] with q prime
PRIMES = [q for q in range(17, 98) if all(q % k for k in range(2, q))]
benchmark_parameters = st.sampled_from(PRIMES).flatmap(
    lambda q: st.integers(-(-q // 16), q // 8).map(lambda p: F(p, q)))


@settings(max_examples=25, deadline=None)
@given(st.one_of(st.sampled_from([F(0), F(1, 64), F(1, 8)]), benchmark_parameters),
       st.integers(0, 3))
def test_integer_subdivide_matches_fraction_oracle(a, depth):
    assert subdivide(a, depth) == fraction_subdivide(a, depth)


# --- integer numerators over a shared denominator -----------------------------

def lattice_of(values):
    """An even common denominator of the Fractions, and their numerators over it."""
    scale = 2 * math.lcm(*(v.denominator for v in values))
    return scale, lambda p: tuple(c.numerator * (scale // c.denominator) for c in p)


def from_lattice(points, scale):
    return tuple((F(x, scale), F(y, scale)) for x, y in points)


def test_inexact_division_raises_instead_of_rounding():
    pullback = _Pullback(F(1, 8), 64, depth=3)
    named = r"a = 1/8, depth 3 leaves the lattice \(1/64\)Z\^2"
    with pytest.raises(LatticeError, match=named + ": 3/2 is not an integer"):
        pullback.halvings([(3, 0)])
    # the segment from (0, -1) to (1, 2) crosses y = 0 a third of the way along
    with pytest.raises(LatticeError, match=named + ": 1/3 is not an integer"):
        pullback.split((0, -1), (1, 2), pullback.lines)
    # in the corner square's stretch region, y -> (y + 24) / 2 at this scale
    with pytest.raises(LatticeError, match=named + ": 49/2 is not an integer"):
        pullback.shuffle_back((30, 25), (31, 25))
    with pytest.raises(LatticeError, match="1/8, depth 3"):
        pullback.tile_preimages([(0, 0), (1, 0), (1, 1)])
    with pytest.raises(LatticeError, match="1/8, depth 3"):
        _Pullback(F(1, 8), 8, depth=3)  # the atlas triangles need 1/16
    assert issubclass(LatticeError, RuntimeError)  # the CLI reports it with exit 1
    assert pullback.halvings([(4, -2)]) == [[(2, -1)], [(2, 31)], [(34, -1)], [(34, 31)]]

def brute_force_placement(points):
    """Move the points through every sign and shift, keep the candidates
    inside [0, 1/2] x [-1/2, 1/2], and return the one with the largest
    (sum of y, sum of x, sign)."""
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
        raise RuntimeError("no admissible placement")
    return max(candidates)[1]


def coordinate(lo, hi, specials):
    """Rationals in [lo, hi], often exactly on a special value."""
    return st.one_of(st.sampled_from([v for v in specials if lo <= v <= hi]),
                     st.fractions(lo, hi, max_denominator=96))


@st.composite
def face_point_sets(draw):
    """Point sets in one closed face, with coordinates on the face edges, the
    fold lines and the edges of the corner squares for a in (0, 1/8]."""
    a = draw(st.sampled_from([F(1, 64), F(3, 40), F(1, 10), F(1, 8)]))
    specials = [F(0), HALF, -HALF, HALF - a, -HALF + a, F(1, 4), F(-1, 4)]
    lo, hi = draw(st.sampled_from([(F(0), HALF), (-HALF, F(0))]))
    point = st.tuples(coordinate(F(0), HALF, specials), coordinate(lo, hi, specials))
    return draw(st.lists(point, min_size=1, max_size=8))


@settings(max_examples=300, deadline=None)
@given(face_point_sets())
def test_canonical_placement_matches_oracle(points):
    for m in (0, 1):
        for n in (0, 1):
            halved = tuple(((x + m) / 2, (y + n) / 2) for x, y in points)
            scale, numerators = lattice_of([c for p in halved for c in p])
            placed = _canonical_placement([numerators(p) for p in halved], scale)
            assert from_lattice(placed, scale) == brute_force_placement(halved)
            assert fraction_placement(halved) == brute_force_placement(halved)


@st.composite
def straddling_sets(draw):
    """Point sets whose box crosses a fold line: x in (1/2)Z or y in 1/2 + Z."""
    gap = st.fractions(F(1, 96), F(1, 4), max_denominator=96)
    left, right = draw(gap), draw(gap)
    if draw(st.booleans()):
        x0 = draw(st.sampled_from([F(0), HALF, F(1)]))
        ys = st.fractions(-HALF, HALF, max_denominator=96)
        points = [(x0 - left, draw(ys)), (x0 + right, draw(ys))]
    else:
        y0 = draw(st.sampled_from([-HALF, HALF]))
        xs = st.fractions(F(0), HALF, max_denominator=96)
        points = [(draw(xs), y0 - left), (draw(xs), y0 + right)]
    extra = st.tuples(st.fractions(0, HALF, max_denominator=96),
                      st.fractions(-HALF, HALF, max_denominator=96))
    return points + draw(st.lists(extra, max_size=4))


@settings(max_examples=200, deadline=None)
@given(straddling_sets())
def test_straddling_set_has_no_placement(points):
    with pytest.raises(RuntimeError):
        brute_force_placement(points)
    scale, numerators = lattice_of([c for p in points for c in p])
    with pytest.raises(RuntimeError, match="straddles a fold line"):
        _canonical_placement([numerators(p) for p in points], scale)
    with pytest.raises(RuntimeError, match="straddles a fold line"):
        fraction_placement(points)


# --- the shuffle pull-back of segments --------------------------------------

@st.composite
def corner_segments(draw):
    """Segments with an end in a corner square, ends often on atlas lines."""
    a = draw(st.sampled_from([F(1, 64), F(3, 40), F(1, 8)]))
    sign = draw(st.sampled_from([1, -1]))
    near = [HALF - a, HALF - a / 2, HALF, HALF - a / 4, HALF - 3 * a / 4]
    corner = st.tuples(coordinate(HALF - a, HALF, near),
                       coordinate(HALF - a, HALF, near).map(lambda y: sign * y))
    anywhere = st.tuples(coordinate(F(0), HALF, near),
                         coordinate(F(0), HALF, near).map(lambda y: sign * y))
    return a, (draw(corner), draw(st.one_of(corner, anywhere)))


def pullback_for(a, fraction_pieces):
    """The integer pullback at a on the coarsest lattice holding the atlas
    (1/(4 den a)) and every point of the Fraction pieces."""
    values = [F(1, 4 * a.denominator)] + [c for piece in fraction_pieces
                                          for p in piece for c in p]
    scale, numerators = lattice_of(values)
    return _Pullback(a, scale, depth=0), numerators


# pieces that start on an edge shared with a region listed before their own
@example((F(1, 8), ((F(7, 16), F(13, 32)), (F(7, 16), HALF))))
@example((F(1, 8), ((F(7, 16), F(-13, 32)), (F(7, 16), -HALF))))
@settings(max_examples=200, deadline=None)
@given(corner_segments())
def test_shuffle_back_is_the_pointwise_inverse_on_every_piece(case):
    a, seg = case
    regions, lines = _atlas(a)
    expected, expected_cuts = shuffle_back(a, *seg, regions, lines), split_segment(*seg, lines)
    pullback, numerators = pullback_for(a, expected + expected_cuts)
    p, q = map(numerators, seg)
    pieces = [from_lattice(piece, pullback.scale) for piece in pullback.shuffle_back(p, q)]
    cuts = [from_lattice(cut, pullback.scale) for cut in pullback.split(p, q, pullback.lines)]
    assert pieces == expected and cuts == expected_cuts
    assert len(pieces) == len(cuts)
    for (m1, m2), (p1, p2) in zip(pieces, cuts):
        for m, p in ((m1, p1), (m2, p2)):
            assert orb_point(*m) == shuffle(a, orb_point(*p), inverse=True)
    assert all(m2 == n1 for (_, m2), (n1, _) in zip(pieces, pieces[1:]))


def segment_pullback(a, seg, regions, lines):
    """The preimages of a segment: its pieces under the inverse shuffle, each
    halved by the four doubling branches and placed in the fundamental
    rectangle, as normalized segments."""
    return [normalize_segment(*fraction_placement(halved))
            for m1, m2 in shuffle_back(a, *seg, regions, lines) if m1 != m2
            for halved in halvings((m1, m2))]


def lattice_segment_pullback(pullback, seg):
    """``segment_pullback`` on the integer pullback."""
    return [_normalize_segment(*_canonical_placement(halved, pullback.scale), pullback.half)
            for piece in pullback.shuffle_back(*seg) for halved in pullback.halvings(piece)]


@pytest.mark.parametrize("a", [F(0), F(1, 8)])
def test_segment_across_the_fold_line_is_split_there(a):
    regions, lines = _atlas(a)
    low, mid, high = (F(1, 4), F(-1, 4)), (F(1, 4), F(0)), (F(1, 4), F(1, 4))
    whole = segment_pullback(a, (low, high), regions, lines)
    halves = (segment_pullback(a, (low, mid), regions, lines)
              + segment_pullback(a, (mid, high), regions, lines))
    assert len(whole) == 8 and sorted(whole) == sorted(halves)
    pullback = _Pullback(a, 8 * a.denominator, depth=1)
    low, mid, high = (tuple(map(pullback.numerator, p)) for p in (low, mid, high))
    lattice = [sorted(from_lattice(s, pullback.scale)
                      for s in lattice_segment_pullback(pullback, seg))
               for seg in ((low, high), (low, mid), (mid, high))]
    assert lattice[0] == sorted(whole) == sorted(lattice[1] + lattice[2])


# --- the skeleton against its own pullback -----------------------------------

def two_pullback_tilings(a, depth):
    """The tilings of depth 0..depth with every skeleton level pulled back
    from the level above, segment by segment, instead of read off the tile
    edges."""
    regions, lines = _atlas(a)
    tiles, levels = list(base_faces()), [base_skeleton()]
    for level in range(depth + 1):
        if level:
            tiles = [child for tile in tiles
                     for child in tile_preimages(a, tile, regions, lines)]
            levels.append(tuple(sorted({child for seg in levels[-1]
                                        for child in segment_pullback(a, seg, regions, lines)})))
        cells = tuple(sorted(tiles, key=lambda t: t.centroid()))
        yield Tiling(a=a, depth=level, cells=cells, skeleton=tuple(levels))


@pytest.mark.parametrize("a, depth", [(F(0), 3), (F(1, 64), 3), (F(3, 40), 3), (F(1, 10), 3),
                                      (F(1, 8), 4)])
def test_skeleton_levels_are_the_pulled_back_skeleton(a, depth):
    for reference in two_pullback_tilings(a, depth):
        assert subdivide(a, reference.depth) == reference
        assert fraction_subdivide(a, reference.depth) == reference


# --- the invariance precondition ----------------------------------------------

@pytest.mark.parametrize("a", [F(0), F(1, 64), F(3, 40), F(1, 8), F(5, 97)])
def test_invariance_agrees_with_the_sampled_oracle(a):
    assert skeleton_forward_invariance(a)
    assert oracles.sampled_skeleton_invariance(a, 2000)


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=0, max_value=F(1, 8), max_denominator=400))
def test_invariance_agrees_with_the_sampled_oracle_everywhere(a):
    assert skeleton_forward_invariance(a) == oracles.sampled_skeleton_invariance(a, 256)


@pytest.mark.parametrize("a", [F(0), F(1, 8), F(5, 97)])
def test_a_bent_half_edge_fails_both_checks(monkeypatch, a):
    """Bend the image of the right edge's upper half off the skeleton, with
    its endpoints kept in place: the exact check sees its moved midpoint, the
    sampled oracle its moved inner points.  A broken corner matrix cannot
    serve as the broken case: the skeleton's image never enters the corner
    squares, so no corner piece acts on it."""
    real = LatticeMap.__call__

    def bent(self, x, y):
        image = real(self, x, y)
        quarter = self.scale // 4
        if x == self.half and quarter < y < self.half:
            return image[0] + min(y - quarter, self.half - y), image[1]
        return image

    monkeypatch.setattr(LatticeMap, "__call__", bent)
    assert not skeleton_forward_invariance(a)
    assert not oracles.sampled_skeleton_invariance(a, 256)


def test_subdivide_checks_invariance_once(monkeypatch):
    verdicts = []

    def recording(a):
        verdicts.append(real(a))
        return verdicts[-1]

    real = tiling.skeleton_forward_invariance
    monkeypatch.setattr(tiling, "skeleton_forward_invariance", recording)
    subdivide(F(1, 8), 2)
    assert verdicts == [True]
    monkeypatch.setattr(tiling, "skeleton_forward_invariance", lambda a: False)
    with pytest.raises(RuntimeError, match="not forward invariant"):
        subdivide(F(1, 8), 1)
