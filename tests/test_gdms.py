import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cxcdyn.gdms import (GDMSPoint, apply_map, box_dimension, build_interval_system,
                         cover_counts, cover_listing, cover_rows, cylinder_from_word, distance,
                         pull_back, pull_back_cover, repellor_cover)
from cxcdyn.graphs import make_graph
from cxcdyn.render import cover_strip_svg

import oracles
from strategies import interval_systems


def test_build_two_loops(standard_system):
    sys_ = standard_system
    assert sys_.weights == (1.0,)
    assert sys_.cross_distance == 1.0
    base = sys_.base(1)
    assert (base.left, base.length) == (0.0, 1.0)
    assert [b.length for b in sys_.branches] == [0.25, 0.25]
    # equal-gap layout: three gaps of (1 - 1/2)/3 = 1/6
    assert sys_.branches[0].left == pytest.approx(1 / 6)
    assert sys_.branches[1].left == pytest.approx(1 / 6 + 0.25 + 1 / 6)


def test_build_requires_contraction(two_loops):
    with pytest.raises(ValueError, match="no strictly contracted vector"):
        build_interval_system(two_loops, 2.0)


def test_build_rejects_small_cross_distance(two_loops):
    with pytest.raises(ValueError, match="cross-component"):
        build_interval_system(two_loops, 0.5, cross_distance=0.5)


def test_subintervals_strictly_inside(standard_system):
    for b in standard_system.branches:
        base = standard_system.base(b.src)
        assert base.left < b.left and b.right < base.right
    lefts = sorted((b.left, b.right) for b in standard_system.branches)
    for (_, r1), (l2, _) in zip(lefts, lefts[1:]):
        assert r1 < l2


def test_map_endpoints_and_midpoint(standard_system):
    b = standard_system.branches[0]
    image = apply_map(standard_system, GDMSPoint(1, b.left))
    assert image.coordinate == pytest.approx(0.0, abs=1e-12)
    mid = apply_map(standard_system, GDMSPoint(1, b.left + b.length / 2))
    assert mid.coordinate == pytest.approx(0.5, abs=1e-12)


def test_map_gap_is_domain_error(standard_system):
    with pytest.raises(ValueError, match="outside every branch"):
        apply_map(standard_system, GDMSPoint(1, 0.01))


def test_orientation_reversing_branch(two_loops):
    sys_ = build_interval_system(two_loops, 0.5, orientations=[-1, 1])
    b = sys_.branches[0]
    image = apply_map(sys_, GDMSPoint(1, b.left))
    assert image.coordinate == pytest.approx(1.0, abs=1e-12)


def test_cover_counts_and_lengths(standard_system):
    cover0 = repellor_cover(standard_system, 0)
    assert len(cover0) == 1 and cover0[0].length == 1.0
    cover2 = repellor_cover(standard_system, 2)
    assert len(cover2) == 4
    assert {c.length for c in cover2} == {1 / 16}


@settings(max_examples=80, deadline=None)
@given(interval_systems(), st.integers(0, 5))
def test_cover_counts_match_enumerated_cover(sys_, m):
    assume(sys_ is not None)
    cover = repellor_cover(sys_, m)
    assert cover_counts(sys_, [m])[m] == (len(cover), max(c.length for c in cover))


def test_cover_counts_table(standard_system):
    assert cover_counts(standard_system, [3, 0, 3]) == {3: (8, 1 / 64), 0: (1, 1.0)}
    with pytest.raises(ValueError, match="depth must be >= 0"):
        cover_counts(standard_system, [2, -1])


def test_cover_alternating_admissibility(alternating):
    sys_ = build_interval_system(alternating, 0.5)
    cover = repellor_cover(sys_, 2)
    from_vertex_1 = [c for c in cover if c.component == 1]
    assert len(from_vertex_1) == 1  # alternation forces a single word


def test_cover_nesting(standard_system):
    shallow = {c.word: c for c in repellor_cover(standard_system, 2)}
    for deep in repellor_cover(standard_system, 3):
        parent = shallow[deep.word[:2]]
        assert parent.left <= deep.left and deep.right <= parent.right


def test_cylinder_from_word(standard_system):
    cover = repellor_cover(standard_system, 3)
    for cyl in cover:
        rebuilt = cylinder_from_word(standard_system, cyl.word)
        assert rebuilt.left == pytest.approx(cyl.left) and rebuilt.length == cyl.length
    with pytest.raises(ValueError, match="admissible"):
        cylinder_from_word(build_interval_system(make_graph(
            2, [(1, 2, 4), (2, 1, 4)]), 0.5), (0, 0))


@pytest.mark.parametrize("word", [[99], [-1], [0, 2]], ids=["99", "minus1", "0.2"])
def test_cylinder_from_word_rejects_unknown_edge(standard_system, word):
    # a domain error, not a KeyError; -1 must not wrap to the last branch
    with pytest.raises(ValueError, match="outside 0..1"):
        cylinder_from_word(standard_system, word)


def test_distance_cases(standard_system):
    p = GDMSPoint(1, 0.25)
    assert distance(standard_system, p, p) == 0.0
    q = GDMSPoint(1, 0.25 + 1 / 16)
    assert distance(standard_system, p, q, snowflaked=True) == pytest.approx(0.25)
    two = build_interval_system(make_graph(2, [(1, 2, 4), (2, 1, 4)]), 0.5,
                                cross_distance=1.0)
    cross = distance(two, GDMSPoint(1, two.base(1).left + 0.1),
                     GDMSPoint(2, two.base(2).left + 0.1), snowflaked=True)
    assert cross == pytest.approx(1.0)


def test_distance_triangle_inequality(standard_system):
    rng = np.random.default_rng(3)
    sys2 = build_interval_system(make_graph(2, [(1, 2, 4), (2, 1, 4)]), 0.5)
    for sys_ in (standard_system, sys2):
        points = []
        for _ in range(60):
            v = int(rng.integers(1, sys_.graph.vertex_count + 1))
            base = sys_.base(v)
            points.append(GDMSPoint(v, base.left + rng.random() * base.length))
        for snowflaked in (False, True):
            for _ in range(10**4 // 3):
                p, q, r = (points[int(i)] for i in rng.integers(0, len(points), 3))
                dpr = distance(sys_, p, r, snowflaked)
                dpq = distance(sys_, p, q, snowflaked)
                dqr = distance(sys_, q, r, snowflaked)
                assert dpr <= dpq + dqr + 1e-12


def test_branch_scaling(standard_system):
    rng = np.random.default_rng(11)
    for b in standard_system.branches:
        ratio = standard_system.expansion_ratio(b)
        for _ in range(200):
            u, v = rng.random(2)
            p = GDMSPoint(b.src, b.left + u * b.length)
            q = GDMSPoint(b.src, b.left + v * b.length)
            plain = distance(standard_system, apply_map(standard_system, p),
                             apply_map(standard_system, q))
            assert plain == pytest.approx(ratio * distance(standard_system, p, q), abs=1e-12)
            snow = distance(standard_system, apply_map(standard_system, p),
                            apply_map(standard_system, q), snowflaked=True)
            expected = b.degree * distance(standard_system, p, q, snowflaked=True)
            assert snow == pytest.approx(expected, abs=1e-12)


def test_box_dimensions(two_loops):
    for alpha, delta in ((0.25, 0.25), (0.5, 0.5)):
        sys_ = build_interval_system(two_loops, alpha)
        assert box_dimension(sys_) == pytest.approx(delta, abs=0.05)
        assert box_dimension(sys_, snowflaked=True) == pytest.approx(1.0, abs=0.05)


FOUR_LOOPS_DEGREE_3 = make_graph(1, [(1, 1, 3)] * 4)


@pytest.mark.parametrize("graph, plain, snow", [
    (make_graph(1, [(1, 1, 2)] * 2), "0x1.0000000000001p-1", "0x1.0000000000001p+0"),
    (FOUR_LOOPS_DEGREE_3, "0x1.430939835353dp-1", "0x1.430939835353dp+0"),
], ids=["two_loops", "four_loops_d3"])
def test_box_dimension_default_depths_pinned(graph, plain, snow):
    # the enumerated covers gave these fits; the CLI prints them
    sys_ = build_interval_system(graph, 0.5)
    assert box_dimension(sys_).hex() == plain
    assert box_dimension(sys_, snowflaked=True).hex() == snow


def test_deep_box_dimension_fits(standard_system):
    deep = range(30, 41)
    assert abs(box_dimension(standard_system, depths=deep) - 0.5) <= 1e-9
    assert abs(box_dimension(standard_system, snowflaked=True, depths=deep) - 1.0) <= 1e-9
    four = build_interval_system(FOUR_LOOPS_DEGREE_3, 0.5)
    s = math.log(4) / math.log(3)
    assert abs(box_dimension(four, snowflaked=True, depths=deep) - s) <= 1e-9


def test_cover_rows(standard_system):
    rows = cover_rows(repellor_cover(standard_system, 1))
    assert [r[0] for r in rows] == ["0", "1"]
    assert all(r[3] == 0.25 for r in rows)
    base_rows = cover_rows(repellor_cover(standard_system, 0))
    assert base_rows[0][0] == "base1"


@settings(max_examples=60, deadline=None)
@given(interval_systems(alphas=(0.3, 0.5, 0.7, 1.0)), st.integers(0, 8))
def test_cover_listing_is_the_listing_of_the_cover(sys_, m):
    """The streamed listing row for row, float for float, as listed from Cylinders."""
    assume(sys_ is not None and cover_counts(sys_, [m])[m][0] <= 4000)
    expected = [(".".join(map(str, c.word)) if c.word else f"base{c.component}",
                 c.left, c.right, c.length) for c in oracles.repellor_cover(sys_, m)]
    assert list(cover_listing(sys_, m)) == expected == cover_rows(repellor_cover(sys_, m))


def test_cover_listing_rejects_a_negative_depth(standard_system):
    with pytest.raises(ValueError, match="depth must be >= 0"):
        cover_listing(standard_system, -1)


def test_cylinder_length_formula():
    # two vertices, mixed degrees: length = w(dst of last edge) * prod d^(-1/alpha)
    g = make_graph(2, [(1, 1, 2), (1, 2, 3), (2, 1, 2), (2, 1, 5)])
    sys_ = build_interval_system(g, 0.5)
    w = sys_.weights
    by_index = {b.edge_index: b for b in sys_.branches}
    for cyl in repellor_cover(sys_, 3):
        product = 1.0
        for k in cyl.word:
            product *= float(by_index[k].degree) ** (-1.0 / sys_.alpha)
        assert cyl.length == pytest.approx(w[cyl.terminal - 1] * product, rel=1e-12)


def test_pull_back_inverts_map_for_both_orientations(two_loops):
    for orientations in ([1, 1], [-1, 1], [-1, -1]):
        sys_ = build_interval_system(two_loops, 0.5, orientations=orientations)
        for cyl in repellor_cover(sys_, 3):
            x = cyl.left + 0.37 * cyl.length
            image = apply_map(sys_, GDMSPoint(cyl.component, x))
            suffix = cylinder_from_word(sys_, cyl.word[1:])
            assert suffix.left - 1e-12 <= image.coordinate <= suffix.right + 1e-12


@pytest.mark.parametrize("n, edges, digest", [
    (1, [(1, 1, 2), (1, 1, 2)],
     "23c03d7090764fc8f537b4f3aa7762d9ff8e3cf26ef3167d5875d33dd4b2a7cc"),
    (2, [(1, 1, 2), (1, 2, 3), (2, 1, 2), (2, 1, 5)],
     "c437066192eb74243a983b7abaa65a839c1fcd94f3e27304dbf06df394057d3d"),
])
def test_cover_strip_svg_pinned(n, edges, digest):
    sys = build_interval_system(make_graph(n, edges), 0.5)
    svg = cover_strip_svg(sys, 5)
    assert hashlib.sha256(svg.encode()).hexdigest() == digest
    assert svg.count("<rect") == sum(len(repellor_cover(sys, m)) for m in range(6))



@settings(max_examples=60, deadline=None)
@given(interval_systems(alphas=(0.3, 0.5, 0.7, 1.0)), st.integers(0, 8))
def test_row_pull_back_equals_the_cylinder_oracle(sys_, m):
    """Covers pulled back on rows equal the cylinder-by-cylinder pull-back,
    float for float, and so does one more level and a single pull-back."""
    assume(sys_ is not None and cover_counts(sys_, [m])[m][0] <= 4000)
    cover = repellor_cover(sys_, m)
    assert cover == oracles.repellor_cover(sys_, m)
    assert pull_back_cover(sys_, cover) == oracles.pull_back_cover(sys_, cover)
    for cyl in cover[:8]:
        for b in sys_.branches:
            if b.dst == cyl.component:
                assert pull_back(sys_, b, cyl) == oracles.pull_back(sys_, b, cyl)


def test_pull_back_rejects_a_cylinder_off_the_edge_target(alternating):
    sys_ = build_interval_system(alternating, 0.5)
    with pytest.raises(ValueError, match="edge 0 ends in 2"):
        pull_back(sys_, sys_.branches[0], repellor_cover(sys_, 0)[0])


def test_cover_strip_svg_rejects_a_negative_depth(standard_system):
    # it used to return an SVG of negative height
    with pytest.raises(ValueError, match="depth must be >= 0"):
        cover_strip_svg(standard_system, -1)
