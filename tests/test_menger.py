from fractions import Fraction

import numpy as np
import pytest

from cxcdyn.menger import (MengerParams, digit_membership, expanding_map,
                           homothety_deviation, membership, segment_clears_folds,
                           slice_raster, snowflake_distance, sponge_params)


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
