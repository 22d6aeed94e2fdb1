import math
from collections import namedtuple
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cxcdyn.pillowcase import (CONE_POINTS, CRITICAL_POINTS, HSQUEEZE, SHEAR,
                               VSTRETCH, corner_pieces, critical_values,
                               differential_report, doubling, family_deviation,
                               involution, mat_vec, orb_distance, orb_point,
                               perturbation, pillow_map, postcritical_set, preimages,
                               singular_values, tent, tent_orbit)
from cxcdyn.pillowcase import (LatticeError, LatticeMap, core, shuffle_atlas,
                               skeleton_forward_invariance, tiling)
from cxcdyn.pillowcase.core import orb_distances
import oracles
from oracles import fraction_pillow_map, fraction_preimages, halvings, shuffle

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=64)


def test_orb_point_examples():
    assert orb_point(1, 1) == orb_point(0, 0)
    assert orb_point(F(-1, 4), F(3, 4)) == orb_point(F(1, 4), F(1, 4))
    assert orb_point(F(1, 2), F(-1, 2)) == orb_point(F(1, 2), F(1, 2))
    p = orb_point(F(1, 2), F(-1, 2))
    assert (p.x, p.y) == (F(1, 2), F(1, 2))


def test_orb_point_boundary_tie_prefers_nonnegative():
    assert orb_point(0, F(-1, 8)).y == F(1, 8)
    assert orb_point(F(1, 2), F(-3, 8)).y == F(3, 8)
    assert orb_point(F(1, 4), F(-3, 8)).y == F(-3, 8)  # interior: no tie


@settings(max_examples=200, deadline=None)
@given(rationals, rationals, st.integers(-2, 2), st.integers(-2, 2), st.booleans())
def test_orb_point_group_invariance(x, y, m, n, flip):
    image = (-x + m, -y + n) if flip else (x + m, y + n)
    assert orb_point(*image) == orb_point(x, y)
    p = orb_point(x, y)
    assert orb_point(p.x, p.y) == p  # idempotent
    assert 0 <= p.x <= F(1, 2) and F(-1, 2) < p.y <= F(1, 2)


def candidate_set_orb_point(x, y):
    """The candidate-set canonicalization ``orb_point`` replaced, kept as its
    oracle: each sign whose reduced x lands in [0, 1/2] gives a candidate
    with y reduced into (-1/2, 1/2]; the least candidate with y >= 0 wins,
    else the least candidate."""
    candidates = set()
    for sign in (1, -1):
        cx = (sign * x) % 1
        if cx <= F(1, 2):
            cy = (sign * y) % 1
            if cy > F(1, 2):
                cy -= 1
            candidates.add((cx, cy))
    nonneg = [c for c in candidates if c[1] >= 0]
    return min(nonneg) if nonneg else min(candidates)


# small denominators put many draws on the lines x in {0, 1/2} and on the
# edges y = +-1/2; numerators span three periods either side of zero
periodic_rationals = st.sampled_from([1, 2, 3, 4, 6, 8, 16, 64]).flatmap(
    lambda d: st.integers(-3 * d, 3 * d).map(lambda n: F(n, d)))


@settings(max_examples=500, deadline=None)
@given(periodic_rationals, periodic_rationals)
def test_orb_point_matches_candidate_set_oracle(x, y):
    p = orb_point(x, y)
    assert (p.x, p.y) == candidate_set_orb_point(x, y)


def test_orb_point_rejects_floats():
    with pytest.raises(TypeError):
        orb_point(0.25, 0.5)


def test_orb_distance_examples():
    assert orb_distance(orb_point(0, 0), orb_point(0, 0)) == 0.0
    # wrap through the identified horizontal edges
    wrap = orb_distance(orb_point(F(1, 100), F(49, 100)), orb_point(F(1, 100), F(-49, 100)))
    assert wrap == pytest.approx(0.02)
    # on the reflection axis x = 0 the two heights are the same orbifold point
    assert orb_distance(orb_point(0, F(49, 100)), orb_point(0, F(-49, 100))) == 0.0
    assert orb_distance(orb_point(F(1, 100), 0), orb_point(F(-1, 100), 0)) == 0.0


# finite floats in [-2, 2], with both zeros drawn often
coordinates = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))
FloatPoint = namedtuple("FloatPoint", "x y")


def _same(got, want):
    """Equal bit for bit, in type and shape too."""
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _points(draw, shape):
    count = math.prod(shape) * 2
    values = draw(st.lists(coordinates, min_size=count, max_size=count))
    return np.array(values, dtype=float).reshape(*shape, 2)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_orb_distance_matches_the_18_translate_oracle(data):
    p, q = (FloatPoint(*data.draw(st.tuples(coordinates, coordinates))) for _ in range(2))
    _same(orb_distance(p, q), oracles.orb_distance(p, q))
    # on two single points the array kernel agrees with both
    pa, qa = np.array(p), np.array(q)
    _same(orb_distances(pa, qa), oracles.orb_distances(pa, qa))
    assert float(orb_distances(pa, qa)) == orb_distance(p, q)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 5), st.integers(1, 5))
def test_orb_distances_match_the_18_translate_oracle(data, n, m):
    for p_shape, q_shape in (((n, 1), (1, m)), ((), (n,)), ((n,), ()), ((n,), (n,))):
        p, q = _points(data.draw, p_shape), _points(data.draw, q_shape)
        _same(orb_distances(p, q), oracles.orb_distances(p, q))


def test_orb_distance_non_finite_inputs_match_the_oracle():
    values = [math.inf, -math.inf, math.nan, 0.0, -0.0, 0.5, 1e308]
    points = [FloatPoint(x, y) for x in values for y in values]
    xy = np.array(points)
    with np.errstate(invalid="ignore", over="ignore"):
        _same(orb_distances(xy[:, None], xy[None, :]),
              oracles.orb_distances(xy[:, None], xy[None, :]))
    for p in points:
        for q in points:
            _same(orb_distance(p, q), oracles.orb_distance(p, q))


def test_shear_matrix_derived_from_product():
    assert SHEAR == ((F(3, 2), F(-1)), (F(1), F(0)))


def test_piece_singular_values():
    for matrix, expected in ((VSTRETCH, (2.0, 1.0)), (SHEAR, (2.0, 0.5)),
                             (HSQUEEZE, (1.0, 0.5))):
        top, bottom = singular_values(matrix)
        assert top == pytest.approx(expected[0], abs=1e-12)
        assert bottom == pytest.approx(expected[1], abs=1e-12)


def test_pieces_glue_along_shared_edges(eighth):
    a = eighth
    for t in (F(0), F(1, 3), F(1), F(7, 5)):
        lower = (t * a, t * a / 2)  # on the slope-1/2 ray shared by the first two
        assert mat_vec(VSTRETCH, lower) == mat_vec(SHEAR, lower)
        diag = (t * a, t * a)      # on the diagonal shared by the last two
        assert mat_vec(SHEAR, diag) == mat_vec(HSQUEEZE, diag)


def test_pieces_fix_outer_edges(eighth):
    a = eighth
    for t in (F(0), F(1, 7), F(1)):
        assert mat_vec(VSTRETCH, (t * a, F(0))) == (t * a, F(0))
        assert mat_vec(HSQUEEZE, (F(0), t * a)) == (F(0), t * a)


def test_corner_map_fixes_stated_point(eighth):
    # the corner (a, 0) of the square [0, a]^2, placed at the (1/2, 1/2) cone point
    fixed = orb_point(F(1, 2), F(1, 2) - eighth)
    assert perturbation(eighth, fixed) == fixed


@pytest.mark.parametrize("a", [F(1, 64), F(3, 40), F(1, 8)])
def test_inverse_shuffle_round_trip(a):
    # dyadic points in and around both corner squares, about 32 grid steps
    # across twice the square, so many land on the triangle edges
    den = 8 * 2 ** int(1 / a).bit_length()
    grid = [F(k, den) for k in range(den // 2 - int(2 * a * den) - 1, den // 2 + 1)]
    moved = {False: 0, True: 0}  # keyed by the lower square
    for x in grid:
        for y in grid:
            for sign in (1, -1):
                p = orb_point(x, sign * y)
                image = perturbation(a, p)
                moved[p.y < 0] += image != p
                assert perturbation(a, image, inverse=True) == p
                assert perturbation(a, perturbation(a, p, inverse=True)) == p
    assert moved[False] > 0 and moved[True] > 0


def test_piece_domains_tile_the_square(eighth):
    pieces = corner_pieces(eighth)
    areas = []
    for piece in pieces:
        (x1, y1), (x2, y2), (x3, y3) = piece.domain
        areas.append(abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)) / 2)
    assert sum(areas) == eighth * eighth


def test_unperturbed_map_is_doubling():
    for x, y in ((F(1, 4), F(1, 4)), (F(1, 3), F(-1, 5)), (F(1, 2), F(1, 2))):
        assert pillow_map(0, orb_point(x, y)) == doubling(orb_point(x, y))
    assert pillow_map(0, orb_point(F(1, 4), F(1, 4))) == orb_point(F(1, 2), F(1, 2))


def test_parameter_validation():
    with pytest.raises(ValueError, match="1/8"):
        pillow_map(F(1, 4), orb_point(0, 0))


def test_moved_cone_point_chain(eighth):
    # the cone point image chain: shuffled to ((1-a)/2, 1/2), then to (a, 0)
    for a in (F(1, 64), F(1, 16), eighth):
        moved = perturbation(a, orb_point(F(1, 2), F(1, 2)))
        assert moved == orb_point((1 - a) / 2, F(1, 2))
        assert pillow_map(a, moved) == orb_point(a, 0)


def test_symmetry_commutes_with_involution(eighth):
    rng = np.random.default_rng(2)
    denom = 2**12
    for _ in range(10**4):
        p = orb_point(F(int(rng.integers(0, denom + 1)), denom),
                      F(int(rng.integers(-denom, denom + 1)), denom))
        assert pillow_map(eighth, involution(p)) == involution(pillow_map(eighth, p))


def test_boundary_edge_dynamics(eighth):
    # both horizontal edges land on the bottom one, where the map is the tent
    for k in range(0, 65):
        x = F(k, 128)
        image = pillow_map(eighth, orb_point(x, 0))
        assert image == orb_point(tent(x), 0)
        top = pillow_map(eighth, orb_point(x, F(1, 2)))
        assert top.y == 0


def test_tent_orbits():
    orbit = tent_orbit(F(1, 8))
    assert orbit.orbit == (F(1, 8), F(1, 4), F(1, 2), F(0))
    assert (orbit.preperiod, orbit.period, orbit.pcf) == (3, 1, True)
    assert tent_orbit(F(0)).orbit == (F(0),)
    assert tent_orbit(F(1, 4)).orbit == (F(1, 4), F(1, 2), F(0))


@settings(max_examples=120, deadline=None)
@given(st.fractions(min_value=0, max_value=F(1, 2), max_denominator=400))
def test_tent_orbit_always_closes_for_rationals(a):
    orbit = tent_orbit(a)
    assert orbit.pcf
    # the orbit stays in (1/q)Z meet [0, 1/2]
    assert len(orbit.orbit) <= a.denominator // 2 + 1
    assert all(0 <= x <= F(1, 2) for x in orbit.orbit)
    # doubling modulo 1 keeps the denominator bounded by the start's
    assert all(x.denominator <= a.denominator for x in orbit.orbit)


def test_postcritical_sets(eighth):
    assert set(postcritical_set(0)) == set(CONE_POINTS)
    expected = {orb_point(0, 0), orb_point(F(1, 2), 0), orb_point(0, F(1, 2)),
                orb_point(F(7, 16), F(1, 2)), orb_point(eighth, 0), orb_point(F(1, 4), 0)}
    assert set(postcritical_set(eighth)) == expected
    assert len(postcritical_set(eighth)) == 6  # the tent orbit re-hits (1/2, 0): dedup


def test_postcritical_set_of_a_large_denominator():
    """The tent orbit of 1/10007 has 5003 values, past any fixed step cap."""
    assert len(postcritical_set(F(1, 10007))) == 5007


def test_postcritical_cross_check_stops_at_the_first_stray_point(monkeypatch, eighth):
    """A map whose orbit leaves the formula set, on a path that never repeats,
    fails the cross-check at its first point off the set, which is not mapped."""
    real, stray = core._pillow_map, F(1, 5)
    mapped = []

    def leaking(a, p):
        mapped.append(p)
        if p.y == stray:
            return orb_point(p.x / 2, stray)
        q = real(a, p)
        return orb_point(F(1, 3), stray) if q == orb_point(0, 0) else q

    monkeypatch.setattr(core, "_pillow_map", leaking)
    with pytest.raises(RuntimeError, match="cross-check"):
        postcritical_set(eighth)
    assert mapped and not any(p.y == stray for p in mapped)


def test_critical_values(eighth):
    values = critical_values(eighth)
    assert set(values) == {orb_point(F(1, 2), 0), orb_point(0, F(1, 2)),
                           orb_point(F(7, 16), F(1, 2))}
    assert len(CRITICAL_POINTS) == 6


def test_preimages_of_origin():
    fiber = preimages(0, orb_point(0, 0))
    assert {p for p, _ in fiber} == set(CONE_POINTS)
    assert all(d == 1 for _, d in fiber)


def test_preimages_degree_sums(eighth):
    rng = np.random.default_rng(9)
    denom = 2**10
    for _ in range(100):
        p = orb_point(F(int(rng.integers(0, denom + 1)), denom),
                      F(int(rng.integers(-denom, denom + 1)), denom))
        fiber = preimages(eighth, p)
        assert sum(d for _, d in fiber) == 4


@settings(max_examples=100, deadline=None)
@given(rationals, rationals)
def test_halvings_are_the_inverse_branches_of_doubling(x, y):
    images = halvings(((x, y), (y, x)))
    assert len(images) == 4
    for (p, q) in images:
        assert doubling(orb_point(*p)) == orb_point(x, y)
        assert doubling(orb_point(*q)) == orb_point(y, x)
    # the lattice halvings are the same points
    scale = 2 * math.lcm(x.denominator, y.denominator)
    lattice = core.Lattice(F(0), scale, "halving")
    numerators = [(x.numerator * scale // x.denominator, y.numerator * scale // y.denominator)]
    assert ([[(F(u, scale), F(v, scale)) for u, v in branch]
             for branch in lattice.halvings(numerators)] == [[p] for p, _ in images])


def test_preimages_of_moved_cone_point(eighth):
    fiber = preimages(eighth, orb_point(F(7, 16), F(1, 2)))
    assert fiber == [(orb_point(F(1, 4), F(-1, 4)), 2), (orb_point(F(1, 4), F(1, 4)), 2)]


def test_differential_report(eighth):
    for a in (F(1, 64), F(1, 16), eighth):
        report = differential_report(a, samples=2000)
        assert report.min_singular_value == pytest.approx(1.0, abs=1e-12)
        assert report.q_disjointness
        assert report.second_iterate_bound >= 2.0 - 1e-12
    by_name = {p.name: p.singular_values for p in differential_report(eighth).pieces}
    assert by_name["doubling"] == pytest.approx((2.0, 2.0))
    assert by_name["doubling+squeeze"][1] == pytest.approx(1.0, abs=1e-12)


def test_shuffle_atlas_is_built_once_per_parameter():
    shuffle_atlas.cache_clear()
    family_deviation(F(1, 8), F(3, 40), grid=8)
    assert shuffle_atlas.cache_info().misses == 2  # one forward atlas per parameter
    atlas = shuffle_atlas(F(1, 8), inverse=True)
    assert isinstance(atlas, tuple) and shuffle_atlas(F(1, 8), inverse=True) is atlas
    assert shuffle_atlas(F(0)) == ()


def test_parameter_is_validated_once_per_call(monkeypatch):
    calls = []

    def counting(a):
        calls.append(a)
        return check(a)

    check = core.check_parameter
    monkeypatch.setattr(core, "check_parameter", counting)
    monkeypatch.setattr(tiling, "check_parameter", counting)
    for samples in (10, 500):
        calls.clear()
        differential_report(F(1, 8), samples=samples)
        assert len(calls) == 1
    calls.clear()
    skeleton_forward_invariance(F(1, 8))
    assert len(calls) == 1
    calls.clear()
    family_deviation(F(1, 8), F(1, 64), grid=6)
    assert len(calls) == 2
    calls.clear()
    for _ in range(3):
        pillow_map(F(1, 8), orb_point(F(1, 3), 0))
    assert len(calls) == 3  # the public map validates on every call
    with pytest.raises(ValueError, match=r"\[0, 1/8\]"):
        pillow_map(F(1, 4), orb_point(0, 0))


def test_annulus_maps_are_parameter_independent():
    # two horizontal bands below the corner squares: the map restricted there
    # is pointwise the same across the whole family
    bands = [(F(1, 8), F(3, 16)), (F(5, 16), F(3, 8))]
    params = (F(0), F(1, 16), F(1, 8))
    for lo, hi in bands:
        for k in range(25):
            x = F(k, 48)
            for j in range(9):
                y = lo + (hi - lo) * F(j, 8)
                for sign in (1, -1):
                    p = orb_point(x, sign * y)
                    images = {pillow_map(a, p) for a in params}
                    assert len(images) == 1
                    image = images.pop()
                    assert F(1, 4) <= abs(image.y) <= F(3, 8)  # lands in the target band


def test_annulus_double_cover_degree():
    # a horizontal circle in the band covers its image circle twice
    target = orb_point(F(1, 5), F(3, 8))
    band_preimages = [q for q, _ in preimages(F(1, 16), target)
                      if F(1, 8) <= abs(q.y) <= F(3, 16)]
    assert len(band_preimages) == 2


def test_distinct_parameters_have_distinct_edge_traces():
    traces = {a: tent_orbit(a).orbit_set for a in (F(1, 8), F(1, 16), F(1, 64))}
    values = list(traces.values())
    assert values[0] != values[1] and values[0] != values[2] and values[1] != values[2]


def test_continuity_in_the_parameter():
    base = F(1, 16)
    deviations = [family_deviation(base, base + step, grid=16)
                  for step in (F(1, 32), F(1, 128), F(1, 512))]
    assert all(d <= 8.0 * float(s) for d, s in zip(deviations, (F(1, 32), F(1, 128), F(1, 512))))
    assert deviations[0] > deviations[1] > deviations[2]


# --- the forward map on the integer lattice -----------------------------------

family_parameters = st.one_of(
    st.sampled_from([F(0), F(1, 64), F(3, 40), F(6, 67), F(1, 8)]),
    st.fractions(min_value=0, max_value=F(1, 8), max_denominator=1000))
unit = st.fractions(min_value=0, max_value=1, max_denominator=200)


@st.composite
def family_points(draw):
    """A parameter and a point: random p/q, or one whose double lies on an edge
    of the shuffle atlas, on x in {0, 1/2} or y = 0, or at a cone point."""
    a = draw(family_parameters)
    kind = draw(st.sampled_from(["random", "atlas edge", "skeleton line", "cone point"]))
    if kind == "random":
        return a, orb_point(draw(rationals), draw(rationals))
    if kind == "atlas edge" and a > 0:
        domain = draw(st.sampled_from(shuffle_atlas(a))).domain
        k, t = draw(st.integers(0, 2)), draw(unit)
        (x1, y1), (x2, y2) = domain[k], domain[(k + 1) % 3]
        target = (x1 + t * (x2 - x1), y1 + t * (y2 - y1))
    elif kind == "cone point" or kind == "atlas edge":
        c = draw(st.sampled_from(CONE_POINTS))
        target = (c.x, c.y)
    else:
        t = draw(unit) - F(1, 2)
        target = draw(st.sampled_from([(F(0), t), (F(1, 2), t), (abs(t), F(0))]))
    # the target itself, or one of the four points doubling onto it
    branch = draw(st.integers(0, 4))
    (x, y), = (target,) if branch == 4 else halvings((target,))[branch]
    return a, orb_point(x, y)


@settings(max_examples=400, deadline=None)
@given(family_points())
def test_lattice_map_matches_the_fraction_map(case):
    a, p = case
    expected = fraction_pillow_map(a, p)
    assert pillow_map(a, p) == expected
    # any admissible lattice gives the same point
    scale = 4 * math.lcm(p.x.denominator, p.y.denominator, a.denominator) * 3
    x, y = LatticeMap(a, scale)(p.x.numerator * scale // p.x.denominator,
                                p.y.numerator * scale // p.y.denominator)
    assert (F(x, scale), F(y, scale)) == (expected.x, expected.y)


def test_lattice_map_on_the_cone_points_and_at_zero():
    for a in (F(0), F(1, 64), F(3, 40), F(6, 67), F(1, 8)):
        for p in CONE_POINTS + CRITICAL_POINTS:
            assert pillow_map(a, p) == fraction_pillow_map(a, p)
    for p in CRITICAL_POINTS:
        assert pillow_map(0, p) == doubling(p)


@st.composite
def fiber_points(draw):
    """A parameter, with odd and prime denominators among them, and a point:
    random p/q, in a corner square, on an edge of the forward or inverse
    atlas, a critical value, or the moved cone point (7/16, 1/2)."""
    a = draw(st.one_of(family_parameters, st.sampled_from([F(1, 9), F(2, 23), F(5, 97)])))
    kind = draw(st.sampled_from(["random", "corner square", "atlas edge", "critical value",
                                 "moved cone point"]))
    if kind == "random":
        return a, orb_point(draw(rationals), draw(rationals))
    if kind == "corner square":
        sign = draw(st.sampled_from([1, -1]))
        return a, orb_point(F(1, 2) - a + draw(unit) * a, sign * (F(1, 2) - a + draw(unit) * a))
    if kind == "atlas edge" and a > 0:
        domain = draw(st.sampled_from(shuffle_atlas(a, draw(st.booleans())))).domain
        k, t = draw(st.integers(0, 2)), draw(unit)
        (x1, y1), (x2, y2) = domain[k], domain[(k + 1) % 3]
        return a, orb_point(x1 + t * (x2 - x1), y1 + t * (y2 - y1))
    if kind == "critical value":
        return a, pillow_map(a, draw(st.sampled_from(CRITICAL_POINTS)))
    return a, orb_point(F(7, 16), F(1, 2))


@settings(max_examples=400, deadline=None)
@given(fiber_points())
def test_lattice_fibers_and_shuffle_match_the_fraction_oracle(case):
    a, p = case
    assert preimages(a, p) == fraction_preimages(a, p)
    for inverse in (False, True):
        assert perturbation(a, p, inverse) == shuffle(a, p, inverse)


def test_fibers_over_critical_values_hold_the_critical_points_twice():
    for a in (F(0), F(1, 64), F(3, 40), F(1, 9), F(5, 97), F(1, 8)):
        for c in CRITICAL_POINTS:
            fiber = preimages(a, pillow_map(a, c))
            assert (c, 2) in fiber and fiber == fraction_preimages(a, pillow_map(a, c))
            assert sum(d for _, d in fiber) == 4


def test_forward_map_inexact_division_raises_naming_the_parameter():
    # the atlas vertex 1/2 - a/2 = 7/16 is not on the lattice (1/8)Z^2
    with pytest.raises(LatticeError, match=r"forward map at a = 1/8 leaves the lattice "
                                           r"\(1/8\)Z\^2: 56/16 is not an integer"):
        LatticeMap(F(1, 8), 8)
    # over 18 the atlas fits, but the shear moves (8, 8) to x = 15/2
    fmap = LatticeMap(F(1, 9), 18)
    with pytest.raises(LatticeError, match=r"forward map at a = 1/9 leaves the lattice "
                                           r"\(1/18\)Z\^2: 15/2 is not an integer"):
        fmap(4, 4)
    assert fmap(1, 1) == (2, 2)  # off the corner squares nothing is divided
    assert issubclass(LatticeError, RuntimeError)  # the CLI reports it with exit 1
    assert LatticeError is tiling.LatticeError


def test_differential_report_samples_the_seeded_corner_points(monkeypatch):
    def recording(fmap, x, y):
        mapped.append((F(x, fmap.scale), F(y, fmap.scale)))
        return real(fmap, x, y)

    mapped, real = [], LatticeMap.__call__
    monkeypatch.setattr(LatticeMap, "__call__", recording)
    a, denom = F(3, 40), 2**20
    assert differential_report(a, samples=50, seed=7).samples_checked == 50
    rng = np.random.default_rng(7)  # two scalar draws per sample, as ever
    corner = [(F(1, 2) - a + F(int(rng.integers(0, denom + 1)), denom) * a,
               F(1, 2) - a + F(int(rng.integers(0, denom + 1)), denom) * a) for _ in range(50)]
    assert mapped == corner


def test_family_deviation_needs_a_grid():
    with pytest.raises(ValueError, match="grid must be at least 1"):
        family_deviation(F(1, 8), F(1, 64), grid=0)
