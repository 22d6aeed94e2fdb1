from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cxcdyn.pillowcase.curves
import oracles
from cxcdyn.pillowcase import (LatticeError, curve_preimage, horizontal_curve,
                               horizontal_isotopic, is_horizontal, obstruction_report,
                               orb_point, pillow_map, postcritical_set, thurston_matrix)


_MOVES = [(s, m, n) for s in (1, -1) for m in (-1, 0, 1) for n in (-1, 0, 1)]
_SIGNS = np.array([s for s, _, _ in _MOVES], dtype=float)[:, None]
_SHIFTS = np.array([(m, n) for _, m, n in _MOVES], dtype=float)


def representatives(p):
    """The plane representatives of an orbifold point within one translate."""
    x, y = p
    return {(s * x + m, s * y + n) for s, m, n in _MOVES}


def on_segment(r, p, q):
    (dx, dy), (rx, ry) = (q[0] - p[0], q[1] - p[1]), (r[0] - p[0], r[1] - p[1])
    return dx * ry == dy * rx and 0 <= dx * rx + dy * ry <= dx * dx + dy * dy


def geodesic_edges(points):
    """The edges of the closed polyline through ``points`` as plane segments,
    each a shortest geodesic (all of them, on a tie)."""
    corners = [(p.x, p.y) for p in points]
    edges = []
    for u, v in zip(corners, corners[1:] + corners[:1]):
        squared = {w: (w[0] - u[0]) ** 2 + (w[1] - u[1]) ** 2 for w in representatives(v)}
        edges += [(u, w) for w, d in squared.items() if d == min(squared.values())]
    return edges


def assert_on_polyline(points, polyline):
    """Every ``OrbPoint`` lies, exactly, on the closed geodesic polyline: a
    float distance picks the candidate representatives and edges, and each
    point needs one candidate that passes the exact test."""
    edges = geodesic_edges(polyline)
    start, end = (np.array([[float(c) for c in e[k]] for e in edges]) for k in (0, 1))
    step = end - start
    xy = np.array([[float(p.x), float(p.y)] for p in points])
    offset = (xy[:, None, :] * _SIGNS + _SHIFTS)[:, :, None, :] - start  # point, move, edge
    t = np.clip((offset * step).sum(-1) / (step * step).sum(-1), 0.0, 1.0)
    near = np.hypot(*np.moveaxis(offset - t[..., None] * step, -1, 0)) < 1e-9
    for p, candidates in zip(points, near):
        assert any(on_segment((s * p.x + m, s * p.y + n), *edges[j])
                   for i, j in zip(*np.nonzero(candidates)) for s, m, n in [_MOVES[i]]), p


def refined(points, k):
    """The closed polyline with each edge cut into k equal steps along its
    first shortest geodesic."""
    out = []
    for u, v in zip(points, points[1:] + points[:1]):
        (ux, uy), (wx, wy) = geodesic_edges([u, v])[0]
        out += [orb_point(ux + (wx - ux) * F(j, k), uy + (wy - uy) * F(j, k)) for j in range(k)]
    return out


def assert_matches_oracle(exact, oracle):
    """Equal degrees in the same order, every oracle point on the matching
    exact lift, and horizontal lifts at equal heights."""
    assert [c.degree for c in exact] == [c.degree for c in oracle]
    for mine, theirs in zip(exact, oracle):
        assert_on_polyline(theirs.points, mine.points)
        assert is_horizontal(mine.points) == is_horizontal(theirs.points)
        if is_horizontal(mine.points):
            assert mine.heights() == theirs.heights()


def test_horizontal_curve_shape():
    h = F(1, 4)
    assert horizontal_curve(h) == [orb_point(0, h), orb_point(F(1, 4), h),
                                   orb_point(F(1, 2), h), orb_point(F(1, 4), -h)]


def test_curve_preimage_heights_and_degrees(eighth):
    for a in (F(0), F(1, 64), eighth):
        lifts = curve_preimage(a, oracles.horizontal_polyline(F(1, 4), 64))
        assert sorted(c.heights()[0] for c in lifts) == [F(1, 8), F(3, 8)]
        assert [c.degree for c in lifts] == [2, 2]
        for c in lifts:
            assert c.heights() == (abs(c.points[0].y),)
            assert is_horizontal(c.points)


def test_vertical_curve_degrees_sum_to_four():
    n = 32
    ys = [F(k, n) for k in range(-n // 2 + 1, n // 2 + 1)]
    curve = [orb_point(F(1, 5), y) for y in ys]
    lifts = curve_preimage(F(1, 64), curve)
    assert sum(c.degree for c in lifts) == 4
    assert sorted({p.x for c in lifts for p in c.points}) == [F(1, 10), F(2, 5)]


def test_self_crossing_and_repeated_vertices(eighth):
    """Pieces join by their order along the curve, not by where they meet: a
    bow-tie in a disk lifts to four copies of itself, and a repeated vertex
    changes no lift's degree or height."""
    bow = [orb_point(F(1, 5), F(1, 5)), orb_point(F(3, 10), F(3, 10)),
           orb_point(F(3, 10), F(1, 5)), orb_point(F(1, 5), F(3, 10))]
    lifts = curve_preimage(eighth, bow)
    assert [c.degree for c in lifts] == [1, 1, 1, 1]
    assert_on_polyline([pillow_map(eighth, p) for c in lifts for p in c.points], bow)
    circle = horizontal_curve(F(1, 4))
    stutter = circle[:2] + circle[1:]
    assert ([(c.degree, c.heights()) for c in curve_preimage(eighth, stutter)]
            == [(c.degree, c.heights()) for c in curve_preimage(eighth, circle)])


def test_curve_through_postcritical_set_rejected(eighth):
    bad = oracles.horizontal_polyline(F(1, 2) - F(1, 1000), 16)  # hugs the top edge
    with pytest.raises(ValueError, match="postcritical"):
        curve_preimage(eighth, bad, tol=0.01)
    through = [orb_point(F(1, 8), 0), orb_point(F(1, 4), F(1, 8)),
               orb_point(F(3, 8), 0), orb_point(F(1, 4), F(-1, 8))]
    with pytest.raises(ValueError, match="postcritical"):
        curve_preimage(eighth, through)
    # both vertices of edge 0 are clear, but the edge crosses (1/8, 0)
    across = [orb_point(F(1, 8), F(-1, 16)), orb_point(F(1, 8), F(1, 16)),
              orb_point(F(3, 16), F(1, 16))]
    with pytest.raises(ValueError, match="edge 0 .* postcritical"):
        curve_preimage(eighth, across)


def test_too_coarse_curve_raises(eighth):
    # from (0, 1/4), the vertex (1/2, 1/4) is as near across the front face as
    # across the back one: the edge is not one geodesic, so the lift refuses
    coarse = [orb_point(0, F(1, 4)), orb_point(F(1, 2), F(1, 4)),
              orb_point(F(1, 4), F(-1, 4))]
    with pytest.raises(ValueError, match="edge 0 .* 2 shortest geodesics"):
        curve_preimage(eighth, coarse)


@pytest.mark.parametrize("a", [F(1, 64), F(3, 40), F(1, 8)])
def test_edge_from_a_cone_point(a):
    """From the cone point (1/2, 1/2), not postcritical for a > 0, the next
    vertex has two nearest representatives, swapped by the half-turn about
    the cone point: they give one geodesic, and the lift proceeds."""
    curve = [orb_point(F(1, 2), F(1, 2)), orb_point(F(1, 4), F(3, 8)),
             orb_point(F(1, 5), F(-1, 3))]
    exact = curve_preimage(a, curve)
    assert sum(c.degree for c in exact) == 4
    assert_on_polyline([pillow_map(a, p) for c in exact for p in c.points], curve)
    assert_matches_oracle(exact, oracles.continuation_preimage(a, refined(curve, 64)))


def test_heights_must_be_exact():
    with pytest.raises(TypeError, match="exact rational"):
        horizontal_curve(0.1)
    with pytest.raises(TypeError, match="exact rational"):
        obstruction_report(F(1, 8), 0.25)
    exact, default = obstruction_report(F(1, 8), "1/4"), obstruction_report(F(1, 8))
    assert (exact.curve_height, exact.lift_heights) == (default.curve_height, default.lift_heights)


_PARAMETERS = st.sampled_from([F(0), F(1, 64), F(3, 40), F(1, 8), F(5, 97), F(1, 9),
                               F(2, 19), F(3, 31)])
_ODD_HEIGHTS = st.sampled_from([3, 5, 7, 9, 11, 13, 15, 17, 21, 97]).flatmap(
    lambda p: st.integers(1, (p - 1) // 2).map(lambda k: F(k, p)))


@settings(max_examples=40, deadline=None)
@given(a=_PARAMETERS, height=_ODD_HEIGHTS)
def test_lifts_match_the_continuation_oracle(a, height):
    """The four-vertex circle lifts exactly as the 64-sample continuation
    lifter finds it, wherever that lifter succeeds."""
    try:
        oracle = oracles.continuation_preimage(a, oracles.horizontal_polyline(height, 64))
    except oracles.ContinuationError:
        oracle = None
    exact = curve_preimage(a, horizontal_curve(height))
    assert sum(c.degree for c in exact) == 4
    if oracle is not None:
        assert_matches_oracle(exact, oracle)


@pytest.mark.parametrize("a", [F(1, 8), F(3, 40)])
@pytest.mark.parametrize("height, refused", [(F(7, 16), 4), (F(15, 32), 8)])
def test_corner_crossing_heights(a, height, refused):
    """Here the circle crosses the corner squares and no lift is horizontal.
    Continuation refuses at ``refused`` samples per side; the exact lift of
    the four-vertex circle agrees with it at 64."""
    with pytest.raises(oracles.ContinuationError):
        oracles.continuation_preimage(a, oracles.horizontal_polyline(height, refused))
    exact = curve_preimage(a, horizontal_curve(height))
    assert not any(is_horizontal(c.points) for c in exact)
    assert_matches_oracle(exact, oracles.continuation_preimage(
        a, oracles.horizontal_polyline(height, 64)))


def test_slanted_polyline_through_a_corner_square(eighth):
    """Edges of generic slope crossing the atlas lines stay on the lattice,
    and every breakpoint of every lift maps onto the curve."""
    curve = [orb_point(F(1, 5), F(1, 7)), orb_point(F(9, 20), F(3, 7)),
             orb_point(F(13, 30), F(-2, 9)), orb_point(F(1, 6), F(-1, 11))]
    assert curve[1].x > F(3, 8) and curve[1].y > F(3, 8)  # inside the corner square
    try:
        lifts = curve_preimage(eighth, curve)
    except LatticeError as error:  # pragma: no cover - the failure being tested
        pytest.fail(f"a valid polyline left the lattice: {error}")
    assert sum(c.degree for c in lifts) == 4
    assert_on_polyline([pillow_map(eighth, p) for c in lifts for p in c.points], curve)


def test_isotopy_by_height_interleaving(eighth):
    pcs = postcritical_set(eighth)
    assert horizontal_isotopic(F(1, 8), F(3, 8), pcs)  # nothing strictly between
    fake = pcs + [orb_point(F(1, 5), F(1, 4))]
    assert not horizontal_isotopic(F(1, 8), F(3, 8), fake)


def test_thurston_matrix_single_obstruction():
    report = thurston_matrix(1, [[(0, 2), (0, 2)]])
    assert report.matrix == pytest.approx(np.array([[1.0]]))
    assert report.spectral_radius == pytest.approx(1.0, abs=1e-12)
    assert report.obstructed


def test_thurston_matrix_subcritical():
    report = thurston_matrix(1, [[(0, 4)]])
    assert report.spectral_radius == pytest.approx(0.25, abs=1e-12)
    assert not report.obstructed


def test_thurston_matrix_empty():
    report = thurston_matrix(0, [])
    assert report.matrix.shape == (0, 0)
    assert report.spectral_radius == 0.0 and not report.obstructed


def test_thurston_matrix_warns_on_stray_component():
    with pytest.warns(UserWarning, match="dropped"):
        report = thurston_matrix(1, [[(0, 2), (None, 2)]])
    assert report.spectral_radius == pytest.approx(0.5, abs=1e-12)


def test_obstruction_report(eighth):
    report = obstruction_report(F(1, 64))
    assert report.degrees == (2, 2) and all(report.isotopic)
    assert report.matrix == pytest.approx(np.array([[1.0]]))
    assert report.obstructed
    assert sorted(h[0] for h in report.lift_heights) == [F(1, 8), F(3, 8)]


def test_obstruction_report_at_a_large_denominator():
    """Its postcritical set holds 5007 points, past any fixed step cap."""
    assert obstruction_report(F(1, 10007)).degrees == (2, 2)


def test_obstruction_report_computes_the_postcritical_set_once(monkeypatch, eighth):
    calls = []

    def counting(a):
        calls.append(a)
        return postcritical_set(a)

    monkeypatch.setattr(cxcdyn.pillowcase.curves, "postcritical_set", counting)
    obstruction_report(eighth)
    assert calls == [eighth]
