"""Acceptance gate: one test per shipping criterion, each printing a PASS line
with the measured values after its assertions hold.  Every tolerance is
pinned here; nothing is deferred to later calibration."""

from fractions import Fraction as F

import numpy as np
import pytest

from cxcdyn.dendrite import RealQuadratic, kneading_reference, kneading_sequence
from cxcdyn.dimension import solve_exponent
from cxcdyn.gdms import box_dimension, build_interval_system
from cxcdyn.graphs import make_graph
from cxcdyn.menger import (MengerParams, digit_membership, homothety_deviation,
                           membership, sponge_params)
from cxcdyn.pillowcase import (CONE_POINTS, HSQUEEZE, SHEAR, VSTRETCH,
                               curve_preimage, differential_report, horizontal_curve,
                               mat_inv, mat_mul, obstruction_report, orb_point,
                               postcritical_set, singular_values,
                               skeleton_forward_invariance, subdivide, tent_orbit)
from cxcdyn.skew import scaling_deviation
from cxcdyn.verify import (build_covers, degree_report, dendrite_adapter,
                           gdms_adapter, roundness, visual_metric_check)


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS: {detail}")


def test_criterion_01_dimension_solver():
    two = make_graph(1, [(1, 1, 2), (1, 1, 2)])
    four = make_graph(1, [(1, 1, 4), (1, 1, 4)])
    s2 = solve_exponent(two, "conformal").exponent
    s4 = solve_exponent(four, "conformal").exponent
    assert abs(s2 - 1.0) <= 1e-9
    assert abs(s4 - 0.5) <= 1e-9
    assert abs((1.0 + s2) - 2.0) <= 1e-9
    assert abs((1.0 + s4) - 1.5) <= 1e-9
    report(1, f"s(d=2)={s2:.12f}, s(d=4)={s4:.12f}, product dims {1+s2:.9f}, {1+s4:.9f}")


def test_criterion_02_delta_alpha_invariance():
    two = make_graph(1, [(1, 1, 2), (1, 1, 2)])
    s = solve_exponent(two, "conformal").exponent
    ratios = []
    for alpha in (0.25, 0.5):
        delta = solve_exponent(two, "hausdorff", alpha=alpha).exponent
        assert abs(delta / alpha - s) <= 1e-8
        ratios.append(delta / alpha)
    report(2, f"delta/alpha = {ratios[0]:.10f}, {ratios[1]:.10f} vs s = {s:.10f}")


def test_criterion_03_singular_values():
    rederived = mat_mul(((F(1), F(1, 2)), (F(1), F(1))),
                        mat_inv(((F(1), F(1)), (F(1, 2), F(1)))))
    assert rederived == ((F(3, 2), F(-1)), (F(1), F(0)))
    assert SHEAR == rederived  # the shipped constant is that product
    expected = {VSTRETCH: (2.0, 1.0), SHEAR: (2.0, 0.5), HSQUEEZE: (1.0, 0.5)}
    values = {}
    for matrix, (top, bottom) in expected.items():
        got = singular_values(matrix)
        assert abs(got[0] - top) <= 1e-12 and abs(got[1] - bottom) <= 1e-12
        values[top, bottom] = got
    report(3, f"piece singular values {sorted(values)} within 1e-12, "
              "middle matrix re-derived from its defining product")


def test_criterion_04_expansion_certificate():
    bounds = []
    for a in (F(1, 64), F(1, 16), F(1, 8)):
        cert = differential_report(a, samples=10**4, seed=0)
        assert abs(cert.min_singular_value - 1.0) <= 1e-12
        assert cert.q_disjointness
        assert cert.second_iterate_bound >= 2.0 - 1e-12
        bounds.append(cert.second_iterate_bound)
    report(4, f"min singular value 1, corner square never returns, "
              f"second-iterate bounds {bounds}")


def test_criterion_05_postcritical_sets():
    assert set(postcritical_set(0)) == set(CONE_POINTS)
    six = {orb_point(0, 0), orb_point(F(1, 2), 0), orb_point(0, F(1, 2)),
           orb_point(F(7, 16), F(1, 2)), orb_point(F(1, 8), 0), orb_point(F(1, 4), 0)}
    computed = postcritical_set(F(1, 8))  # raises internally if the two routes differ
    assert set(computed) == six and len(computed) == 6
    assert tent_orbit(F(1, 8)).orbit == (F(1, 8), F(1, 4), F(1, 2), F(0))
    report(5, "P(0) is the four cone points; P(1/8) is the six listed rationals, "
              "formula and orbit routes agree")


def test_criterion_06_obstruction():
    a = F(1, 64)
    lifts = curve_preimage(a, horizontal_curve(F(1, 4), 64))
    assert sorted(c.heights()[0] for c in lifts) == [F(1, 8), F(3, 8)]
    assert [c.degree for c in lifts] == [2, 2]
    obstruction = obstruction_report(a)
    assert obstruction.matrix == pytest.approx(np.array([[1.0]]))
    assert abs(obstruction.spectral_radius - 1.0) <= 1e-12
    assert obstruction.obstructed
    report(6, "two lifts at heights 1/8 and 3/8, each a double cover; "
              f"matrix (1), spectral radius {obstruction.spectral_radius:.15f}")


def test_criterion_07_tilings():
    flat = subdivide(0, 2)
    assert flat.tile_count == 32
    side = F(1, 8)
    for tile in flat.cells:
        xs = {v[0] for v in tile.vertices}
        ys = {v[1] for v in tile.vertices}
        assert len(tile.vertices) == 4 and len(xs) == 2 and len(ys) == 2
        assert max(xs) - min(xs) == side and max(ys) - min(ys) == side
    perturbed = subdivide(F(1, 8), 4)
    assert perturbed.tile_count == 512
    assert skeleton_forward_invariance(F(1, 8), samples=10**4)
    report(7, "32 congruent 1/8-squares at (0, depth 2); 512 tiles at (1/8, depth 4); "
              "skeleton forward-invariant on 10^4 exact samples")


def test_criterion_08_kneading_equality():
    ours = kneading_sequence(0.5, 16)
    reference = kneading_reference(RealQuadratic(-2), 16)
    assert ours.symbols == "1" + "0" * 15
    assert ours.symbols == reference.symbols
    report(8, f"branch-point itinerary {ours.symbols} equals the quadratic reference")


def test_criterion_09_menger():
    sponge = sponge_params()
    rng = np.random.default_rng(0)
    disagreements = 0
    comparable = 0
    for _ in range(10**4):
        point = tuple(F(int(v), 3**8) for v in rng.integers(0, 3**8 + 1, 3))
        sampled = membership(sponge, [float(c) for c in point], 5)
        if sampled.status == "boundary_unknown":
            continue
        exact = digit_membership(sponge, point, 5)
        comparable += 1
        if (sampled.status, sampled.level) != (exact.status, exact.level):
            disagreements += 1
    assert disagreements == 0
    dev3 = homothety_deviation(sponge, pairs=10**4, seed=0)
    dev_general = homothety_deviation(MengerParams(n=1, k=3, factors=(3, 9, 3)),
                                      pairs=10**4, seed=0)
    assert dev3 <= 1e-12 and dev_general <= 1e-12
    report(9, f"digit oracle agreement on {comparable} points (0 disagreements); "
              f"homothety deviations {dev3:.2e} and {dev_general:.2e}")


def test_criterion_10_verifier_on_gdms():
    two = make_graph(1, [(1, 1, 2), (1, 1, 2)])
    system = build_interval_system(two, 0.5)
    adapter = gdms_adapter(system)
    covers = build_covers(adapter, 8)
    assert covers.meshes == [4.0**-n for n in range(9)]
    assert degree_report(covers, 4) == 1
    for level in covers.levels:
        for element in level:
            value = roundness(adapter, element.payload, adapter.basepoint(element.payload))
            assert abs(value - 1.0) <= 1e-9
    deviation = scaling_deviation(system, pairs=10**4, seed=0)
    assert deviation <= 1e-12
    report(10, f"mesh 4^-n exactly for n<=8, degrees all 1, midpoint roundness 1, "
               f"skew scaling deviation {deviation:.2e} over 10^4 pairs")


def test_criterion_11_visual_metric_on_attractor_slice():
    covers = build_covers(dendrite_adapter(), 10)
    vm = visual_metric_check(covers, min_level=2, spread_bound=8.0)
    assert 0.6 <= vm.fitted_epsilon <= 0.8
    assert vm.spread <= 8.0
    assert vm.verdict
    report(11, f"fitted rate {vm.fitted_epsilon:.4f} (log 2 = 0.6931), "
               f"spread {vm.spread:.3f} <= 8 across levels 2..10")


def test_criterion_12_box_dimensions():
    two = make_graph(1, [(1, 1, 2), (1, 1, 2)])
    system = build_interval_system(two, 0.5)
    plain = box_dimension(system)
    snow = box_dimension(system, snowflaked=True)
    assert abs(plain - 0.5) <= 1e-9
    assert abs(snow - 1.0) <= 1e-9
    report(12, f"box dimension {plain:.4f} (target 0.5) plain, {snow:.4f} (target 1.0) snowflaked")
