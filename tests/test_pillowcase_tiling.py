import hashlib
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from cxcdyn.pillowcase import (Tiling, base_faces, base_skeleton, orb_point, perturbation,
                               shuffle_atlas, skeleton_forward_invariance, subdivide)
from cxcdyn.pillowcase.core import halvings
from cxcdyn.pillowcase.tiling import (_canonical_placement, _normalize_segment, _shuffle_back,
                                      _split_lines, _split_segment, tile_preimages)
from cxcdyn.render import tiling_svg

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
    assert skeleton_forward_invariance(eighth, samples=2000)
    assert skeleton_forward_invariance(F(1, 64), samples=2000)


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


# --- canonical placement against the 18-candidate oracle -------------------

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
            assert _canonical_placement(halved) == brute_force_placement(halved)


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
    with pytest.raises(RuntimeError, match="straddles a fold line"):
        _canonical_placement(points)


# --- the shuffle pull-back of segments --------------------------------------

def _atlas(a):
    regions = shuffle_atlas(a, inverse=True)
    return regions, _split_lines(regions)


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


# pieces that start on an edge shared with a region listed before their own
@example((F(1, 8), ((F(7, 16), F(13, 32)), (F(7, 16), HALF))))
@example((F(1, 8), ((F(7, 16), F(-13, 32)), (F(7, 16), -HALF))))
@settings(max_examples=200, deadline=None)
@given(corner_segments())
def test_shuffle_back_is_the_pointwise_inverse_on_every_piece(case):
    a, seg = case
    regions, lines = _atlas(a)
    pieces = _shuffle_back(a, *seg, regions, lines)
    cuts = _split_segment(*seg, lines)
    assert len(pieces) == len(cuts)
    for (m1, m2), (p1, p2) in zip(pieces, cuts):
        for m, p in ((m1, p1), (m2, p2)):
            assert orb_point(*m) == perturbation(a, orb_point(*p), inverse=True)
    assert all(m2 == n1 for (_, m2), (n1, _) in zip(pieces, pieces[1:]))


def segment_pullback(a, seg, regions, lines):
    """The preimages of a segment: its pieces under the inverse shuffle, each
    halved by the four doubling branches and placed in the fundamental
    rectangle, as normalized segments."""
    return [_normalize_segment(*_canonical_placement(halved))
            for m1, m2 in _shuffle_back(a, *seg, regions, lines) if m1 != m2
            for halved in halvings((m1, m2))]


@pytest.mark.parametrize("a", [F(0), F(1, 8)])
def test_segment_across_the_fold_line_is_split_there(a):
    regions, lines = _atlas(a)
    low, mid, high = (F(1, 4), F(-1, 4)), (F(1, 4), F(0)), (F(1, 4), F(1, 4))
    whole = segment_pullback(a, (low, high), regions, lines)
    halves = (segment_pullback(a, (low, mid), regions, lines)
              + segment_pullback(a, (mid, high), regions, lines))
    assert len(whole) == 8 and sorted(whole) == sorted(halves)


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
