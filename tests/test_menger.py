import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cxcdyn.menger as menger
import oracles
from cxcdyn.menger import (STATUSES, MengerParams, digit_membership, expanding_map,
                           homothety_deviation, membership, membership_array,
                           segment_clears_folds, slice_raster, snowflake_distance,
                           sponge_params)


def test_params_validation():
    with pytest.raises(ValueError, match="2n\\+1"):
        MengerParams(n=1, k=2, factors=(3, 3))
    with pytest.raises(ValueError):
        MengerParams(n=1, k=3, factors=(3, 3, 2))
    with pytest.raises(ValueError):
        MengerParams(n=1, k=3, factors=(3, 3, 3), mode="rotate")


def test_expanding_map_fold_cases():
    p = sponge_params()
    assert expanding_map(p, (0.5, 0.5, 0.5)) == (0.5, 0.5, 0.5)
    assert expanding_map(p, (1 / 3, 0.0, 0.0)) == (1.0, 0.0, 0.0)
    pt = sponge_params(mode="translate")
    assert expanding_map(pt, (0.5, 0.5, 0.5)) == (0.5, 0.5, 0.5)


def test_membership_examples():
    p = sponge_params()
    center = membership(p, (0.5, 0.5, 0.5), 5)
    assert (center.status, center.level) == ("out", 0)
    assert membership(p, (0.0, 0.0, 0.0), 8).status == "in"
    face = membership(p, (0.5, 0.5, 0.0), 5)
    assert (face.status, face.level) == ("out", 0)


@pytest.mark.parametrize("point", [(0.5, 0.5), (0.1, 0.1), (0.5, 0.5, 0.5, 0.5)])
def test_membership_rejects_wrong_dimension(point):
    with pytest.raises(ValueError, match="dimension"):
        membership(sponge_params(), point, 3)


@pytest.mark.parametrize("point", [(Fraction(1, 2), Fraction(1, 2)), (0, 0),
                                   (0, 0, 0, Fraction(1, 2))])
def test_digit_membership_rejects_wrong_dimension(point):
    with pytest.raises(ValueError, match="dimension"):
        digit_membership(sponge_params(), point, 3)


def test_membership_matches_digit_oracle():
    p = sponge_params()
    rng = np.random.default_rng(1)
    checked = 0
    for _ in range(2000):
        point = tuple(Fraction(int(v), 3**8) for v in rng.integers(0, 3**8 + 1, 3))
        approx = membership(p, [float(c) for c in point], 5)
        if approx.status == "boundary_unknown":
            continue
        exact = digit_membership(p, point, 5)
        assert (approx.status, approx.level) == (exact.status, exact.level)
        checked += 1
    assert checked > 1500


def test_boundary_unknown_really_sits_on_boundary():
    p = sponge_params()
    tol = 1e-9
    probe = membership(p, (1 / 3 + 1e-12, 0.4, 0.0), 3, tol=tol)
    assert probe.status == "boundary_unknown"
    # a flagged point at level zero has some coordinate in the tol collar
    assert any(abs(c - 1 / 3) <= tol or abs(c - 2 / 3) <= tol
               for c in (1 / 3 + 1e-12, 0.4, 0.0))


def test_exact_third_is_not_excised():
    p = sponge_params()
    exact = digit_membership(p, (Fraction(1, 3), 0, 0), 6)
    assert exact.status == "in"  # the window is open: 1/3 itself stays


def test_snowflake_distance_cases():
    p = sponge_params()
    assert snowflake_distance(p, (0, 0, 0), (1 / 3, 0, 0)) == pytest.approx(1 / 3)
    g = MengerParams(n=1, k=3, factors=(3, 9, 3))
    assert g.exponents == pytest.approx((1.0, 0.5, 1.0))
    assert snowflake_distance(g, (0, 0, 0), (0, 1 / 9, 0)) == pytest.approx(1 / 3)
    assert snowflake_distance(g, (0.2, 0.3, 0.4), (0.2, 0.3, 0.4)) == 0.0


def test_homothety_factor_three():
    assert homothety_deviation(sponge_params(), pairs=3000, seed=0) <= 1e-12
    general = MengerParams(n=1, k=3, factors=(3, 9, 3))
    assert homothety_deviation(general, pairs=3000, seed=0) <= 1e-12


def test_segment_clearing():
    p = sponge_params()
    assert segment_clears_folds(p, (0.1, 0.1, 0.1), (0.2, 0.2, 0.2))
    assert not segment_clears_folds(p, (0.3, 0.1, 0.1), (0.4, 0.1, 0.1))


def test_carpet_face_restriction():
    """The third-coordinate-zero face is preserved and behaves as the planar
    carpet: excised exactly when both free coordinates hit a middle window."""
    p = sponge_params()
    rng = np.random.default_rng(4)
    for _ in range(400):
        x = tuple(Fraction(int(v), 3**6) for v in rng.integers(0, 3**6 + 1, 2))
        point = (x[0], x[1], Fraction(0))
        image = expanding_map(p, [float(c) for c in point])
        assert image[2] == 0.0
        sponge_view = digit_membership(p, point, 4)
        carpet_rule = _carpet_digit_rule(x, 4)
        assert (sponge_view.status == "out") == carpet_rule


def _carpet_digit_rule(x, depth):
    lo, hi = Fraction(1, 3), Fraction(2, 3)
    for level in range(depth + 1):
        if all(lo < (3**level * c) % 1 < hi for c in x):
            return True
    return False


def test_slice_raster_shape():
    img = slice_raster(sponge_params(), depth=2, resolution=27)
    assert img.shape == (27, 27)
    assert img.min() == 0 and img.max() > 0  # both kept and excised pixels


def _fraction_digit_membership(params, x, depth):
    """The digit oracle in exact Fraction arithmetic: the reference for the
    integer window test in `digit_membership`."""
    coords = [Fraction(c) for c in x]
    lo, hi = Fraction(1, 3), Fraction(2, 3)
    for level in range(depth + 1):
        middles = sum(1 for c in coords if lo < (3**level * c) % 1 < hi)
        if middles >= params.n + 1:
            return ("out", level)
    return ("in", None)


def _triadic():
    """Fractions m / (a 3^e), often on the middle-third windows' ends."""
    return st.builds(lambda e, a, t: Fraction(t % (a * 3**e + 1), a * 3**e),
                     st.integers(0, 9), st.sampled_from([1, 2, 4, 5, 7]),
                     st.integers(0, 5 * 3**9))


@settings(max_examples=250, deadline=None)
@given(n=st.integers(0, 2), depth=st.integers(0, 9),
       point=st.lists(st.one_of(_triadic(), st.fractions(0, 1, max_denominator=10**6)),
                      min_size=5, max_size=5))
def test_integer_digit_membership_matches_fraction_oracle(n, depth, point):
    params = sponge_params(n=n, k=5)
    exact = digit_membership(params, point, depth)
    assert (exact.status, exact.level) == _fraction_digit_membership(params, point, depth)


def _near_thirds(tol):
    """Floats within a few tol of k / 3^m, or on it, clipped to [0, 1]."""
    offsets = st.sampled_from([0.0, tol, -tol, tol / 2, -tol / 2, 2 * tol, -2 * tol,
                               1e-12, -1e-12, 5e-17, -5e-17])
    return st.builds(lambda m, k, off: min(max(k / 3**m + off, 0.0), 1.0),
                     st.integers(1, 7), st.integers(0, 3**7), offsets)


@settings(max_examples=200, deadline=None)
@given(data=st.data(),
       params=st.sampled_from([sponge_params(), sponge_params(mode="translate"),
                               MengerParams(n=1, k=3, factors=(3, 9, 3)),
                               MengerParams(n=1, k=3, factors=(3, 9, 3), mode="translate"),
                               MengerParams(n=0, k=3, factors=(5, 3, 4))]),
       depth=st.integers(0, 7), tol=st.sampled_from([1e-9, 1e-6, 0.0, -1e-9]))
def test_membership_array_matches_scalar(data, params, depth, tol):
    """Also for tol < 0, where the sure window is wider than the possible
    one and the two counts must be taken independently."""
    coordinate = st.one_of(_near_thirds(tol or 1e-9), st.floats(0.0, 1.0),
                           st.sampled_from([0.0, 1.0, 1 / 3, 2 / 3]))
    points = data.draw(st.lists(st.tuples(*[coordinate] * params.k), min_size=1, max_size=30))
    status, levels = membership_array(params, np.array(points), depth, tol=tol)
    for point, code, level in zip(points, status, levels):
        want = membership(params, point, depth, tol=tol)
        assert (STATUSES[code], None if level < 0 else level) == (want.status, want.level)


@pytest.mark.parametrize("points", [np.zeros((4, 2)), np.zeros((4, 4)), np.zeros(3),
                                    np.zeros((2, 3, 3))])
def test_membership_array_rejects_wrong_dimension(points):
    with pytest.raises(ValueError, match="dimension"):
        membership_array(sponge_params(), points, 3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5, 1.5])
def test_membership_rejects_points_outside_the_cube(bad):
    point = (0.5, bad, 0.0)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        membership(sponge_params(), point, 3)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        membership_array(sponge_params(), np.array([(0.2, 0.2, 0.2), point]), 3)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        digit_membership(sponge_params(), point, 3)


@pytest.mark.parametrize("point, verdict", [
    ((1, 0, 0), ("in", None)),
    ((2, 0, 0), r"\[0, 1\]"),
    (("1/6", "1/6", "0"), ("out", 1)),
    (("1/3", 0, 0), ("in", None)),
    ((0.5, 0.5, 0.0), ("out", 0)),
    ((0.5, 0.25, 0.0), ("in", None)),
    ((Fraction(-1, 3), 0, 0), r"\[0, 1\]"),
    ((Fraction(4, 3), 0, 0), r"\[0, 1\]"),
    ((Fraction(0), Fraction(0), Fraction(0)), ("in", None)),
    ((Fraction(1, 6), Fraction(1, 6), Fraction(0)), ("out", 1)),
    (("abc", 0, 0), r"\[0, 1\]"),
    ((math.nan, 0), r"\[0, 1\]"),
    ((Fraction(-1, 3), 0), "dimension"),
], ids=repr)
def test_digit_membership_reads_every_input_type_alike(point, verdict):
    """Exact Fractions take a shortcut past `Fraction(c)`; ints, strings and
    floats still go through it, with the same verdicts and errors.  A
    coordinate that does not convert is reported before the dimension."""
    if isinstance(verdict, str):
        with pytest.raises(ValueError, match=verdict):
            digit_membership(sponge_params(), point, 5)
    else:
        got = digit_membership(sponge_params(), point, 5)
        assert (got.status, got.level) == verdict


def test_negative_depth_is_rejected():
    with pytest.raises(ValueError, match="depth"):
        membership(sponge_params(), (0, 0, 0), -1)
    with pytest.raises(ValueError, match="depth"):
        membership_array(sponge_params(), np.zeros((1, 3)), -1)
    with pytest.raises(ValueError, match="depth"):
        digit_membership(sponge_params(), (0, 0, 0), -1)


def _scalar_slice(params, depth, resolution, axis, value):
    """`slice_raster` one pixel at a time through scalar `membership`: the
    reference for the array kernel."""
    img = np.zeros((resolution, resolution), dtype=np.uint8)
    free = [i for i in range(params.k) if i != axis][:2]
    for row in range(resolution):
        for col in range(resolution):
            point = [value] * params.k
            point[free[0]] = (col + 0.5) / resolution
            point[free[1]] = (row + 0.5) / resolution
            m = membership(params, point, depth)
            if m.status == "in":
                img[row, col] = 0
            elif m.status == "out":
                img[row, col] = 255 - min(m.level, depth) * (128 // (depth + 1))
            else:
                img[row, col] = 128
    return img


@pytest.mark.parametrize("mode", ["reflect", "translate"])
@pytest.mark.parametrize("factors", [(3, 3, 3), (3, 9, 5)])
@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("resolution, value", [(27, 0.0), (27, 13 / 27), (81, 0.5)])
def test_slice_raster_matches_scalar_loop(resolution, value, axis, factors, mode):
    params = MengerParams(n=1, k=3, factors=factors, mode=mode)
    img = slice_raster(params, 4, resolution, axis=axis, value=value)
    assert np.array_equal(img, _scalar_slice(params, 4, resolution, axis, value))


@pytest.mark.parametrize("kwargs, match", [
    ({"axis": 3}, "axis"), ({"axis": -1}, "axis"), ({"axis": 7}, "axis"),
    ({"resolution": 0}, "resolution"), ({"resolution": -4}, "resolution"),
    ({"value": 1.5}, "value"), ({"value": -0.1}, "value"), ({"value": math.nan}, "value"),
    ({"depth": -1}, "depth"),
])
def test_slice_raster_rejects_bad_arguments(kwargs, match):
    args = {"depth": 2, "resolution": 9, "axis": 2, "value": 0.0, **kwargs}
    with pytest.raises(ValueError, match=match):
        slice_raster(sponge_params(), **args)


def test_square_is_its_own_slice():
    square = sponge_params(n=0, k=2)
    img = slice_raster(square, 3, 27)
    assert np.array_equal(img, _scalar_slice(square, 3, 27, 2, 0.0))
    for axis in (0, 1, 3):
        with pytest.raises(ValueError, match="axis must be 2"):
            slice_raster(square, 3, 27, axis=axis)


def _clears_folds_exactly(params, x, y):
    """Both ends strictly inside one scaling cell, in exact arithmetic."""
    for f, a, b in zip(params.factors, x, y):
        sa, sb = f * Fraction(a), f * Fraction(b)
        if math.floor(sa) != math.floor(sb) or sa.denominator == 1 or sb.denominator == 1:
            return False
    return True


@pytest.mark.parametrize("factors", [(3, 3, 3), (3, 9, 3), (3, 27, 3), (3, 9, 9),
                                     (3, 2**19, 3), (2**19, 2**19, 4), (4, 5, 6)])
def test_sampled_pairs_are_admissible(factors):
    """Every pair the sampler keeps lies on the 2^-20 grid, closer than
    1/(2 max f) in the snowflake metric and clear of the folds, also for
    factors whose folds pass through half of the grid points.  The distance
    it keeps with each pair is the scalar one, to the last bit."""
    params = MengerParams(n=1, k=3, factors=factors)
    assert homothety_deviation(params, pairs=2000, seed=5) <= 1e-12
    kept = [(tuple(x), tuple(y), d)
            for xs, ys, ds in menger._admissible_pairs(params, 2000, np.random.default_rng(5))
            for x, y, d in zip(xs.tolist(), ys.tolist(), ds.tolist())]
    assert len(kept) == 2000
    bound = 1.0 / (2.0 * max(factors))
    for x, y, d in kept:
        assert snowflake_distance(params, x, y) == d < bound
        assert _clears_folds_exactly(params, x, y)
        assert all(v * 2**20 == int(v * 2**20) for v in x + y)
    if max(factors) <= 27:  # for 2^19 the snowflake ball holds x alone
        assert sum(x != y for x, y, _ in kept) > 1900


@pytest.mark.parametrize("factors", [(3, 27, 3), (3, 9, 9)])
def test_homothety_finishes_for_steep_factors(factors):
    params = MengerParams(n=1, k=3, factors=factors)
    assert homothety_deviation(params, pairs=10**4, seed=0) <= 1e-12


# the ids name the scalar check that each array helper runs in bulk
@pytest.mark.parametrize("check, verdict", [("_clear_rows", False),
                                            ("_snowflake_rows", math.inf)],
                         ids=["segment_clears_folds-False", "snowflake_distance-inf"])
def test_homothety_rejects_and_bounds_its_work(monkeypatch, check, verdict):
    """Each proposal passes through both checks; when none passes, the
    sampler stops after 4 proposals per pair instead of sampling on."""
    rows = []

    def rejecting(params, x, y):
        rows.append(len(x))
        if sum(rows) > 10**4:
            raise RuntimeError("the sampler does not stop")
        return np.full(len(x), verdict)

    monkeypatch.setattr(menger, check, rejecting)
    with pytest.raises(ValueError, match="only 0 of 200 proposals"):
        homothety_deviation(sponge_params(), pairs=50)
    assert sum(rows) == 200


@pytest.mark.parametrize("pairs", [0, 1, 4096, 4097])
@pytest.mark.parametrize("mode", ["reflect", "translate"])
@pytest.mark.parametrize("factors", [(3, 3, 3), (3, 9, 3), (3, 9, 9), (3, 27, 3), (4, 5, 6),
                                     (3, 2**19, 3)])
def test_homothety_matches_pair_by_pair_loop(factors, mode, pairs):
    """The bulk sampler equals the scalar loop bit for bit, on both sides
    of a batch boundary."""
    params = MengerParams(n=1, k=3, factors=factors, mode=mode)
    for seed in (0, 1, 7):
        assert (homothety_deviation(params, pairs, seed=seed).hex()
                == oracles.homothety_deviation(params, pairs, seed=seed).hex())


def test_homothety_rejects_bad_arguments():
    with pytest.raises(ValueError, match="pairs"):
        homothety_deviation(sponge_params(), pairs=-1)
    assert homothety_deviation(sponge_params(), pairs=0) == 0.0
    with pytest.raises(ValueError, match="2\\^20"):
        homothety_deviation(MengerParams(n=1, k=3, factors=(3, 2**20, 3)), pairs=50)
