from fractions import Fraction as F

import numpy as np
import pytest

from cxcdyn.pillowcase import (ContinuationError, curve_preimage, horizontal_curve,
                               horizontal_isotopic, is_horizontal, obstruction_report,
                               orb_point, postcritical_set, thurston_matrix)


@pytest.mark.parametrize("samples", [-2, 0, 1])
def test_horizontal_curve_needs_two_samples_per_side(samples):
    with pytest.raises(ValueError, match="2 samples per side"):
        horizontal_curve(F(1, 4), samples_per_side=samples)


def test_horizontal_curve_shape():
    curve = horizontal_curve(F(1, 4), samples_per_side=8)
    assert len(curve) == 16
    assert {abs(p.y) for p in curve} == {F(1, 4)}


def test_curve_preimage_heights_and_degrees(eighth):
    for a in (F(0), F(1, 64), eighth):
        lifts = curve_preimage(a, horizontal_curve(F(1, 4), 64))
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


def test_curve_through_postcritical_set_rejected(eighth):
    bad = horizontal_curve(F(1, 2) - F(1, 1000), 16)  # hugs the top edge
    with pytest.raises(ValueError, match="postcritical"):
        curve_preimage(eighth, bad, tol=0.01)
    through = [orb_point(F(1, 8), 0), orb_point(F(1, 4), F(1, 8)),
               orb_point(F(3, 8), 0), orb_point(F(1, 4), F(-1, 8))]
    with pytest.raises(ValueError, match="postcritical"):
        curve_preimage(eighth, through)


def test_too_coarse_curve_raises(eighth):
    # three vertices a quarter-turn apart: consecutive fibers sit as close to
    # the wrong sheet as to the right one, so matching must refuse
    coarse = [orb_point(0, F(1, 4)), orb_point(F(1, 2), F(1, 4)),
              orb_point(F(1, 4), F(-1, 4))]
    with pytest.raises(ContinuationError):
        curve_preimage(eighth, coarse)


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
