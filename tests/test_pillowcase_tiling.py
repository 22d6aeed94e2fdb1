import hashlib
from fractions import Fraction as F

import pytest

from cxcdyn.pillowcase import skeleton_forward_invariance, subdivide
from cxcdyn.render import tiling_svg


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


@pytest.mark.parametrize("a, digest", [
    (F(0), "dd8fcaffe7d1721fa519145df990b61e15b61620db409305ce957820e0cdcb6d"),
    (F(1, 64), "36f161b63b574ac7bb60a1033a934171e16af741b5ee0ae12f090499a02311c1"),
    (F(3, 40), "c5f4b5d1dbb4bfdaa60d455a054cd84f37ed704d2fa9180207ecd6edaccbfded"),
    (F(1, 8), "1ce90b35cc3c0cc7c16edbf2e10936616cf8c2e4bb118e45db8d3909943c492a"),
])
def test_depth_three_svg_pinned(a, digest):
    svg = tiling_svg(subdivide(a, 3))
    assert hashlib.sha256(svg.encode()).hexdigest() == digest
