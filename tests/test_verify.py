import math
from fractions import Fraction

import numpy as np
import pytest

from cxcdyn.gdms import build_interval_system
from cxcdyn.graphs import make_graph
from cxcdyn.menger import MengerParams
from cxcdyn.verify import (Adapter, build_covers, degree_report, dendrite_adapter,
                           distortion_report, eventually_onto_check, gdms_adapter,
                           menger_adapter, pillowcase_adapter, roundness,
                           skew_adapter, snowflake_fit, visual_metric_check)
from cxcdyn.verify.adapters import _PillowGrid, _flood_components


# --- refine / mesh ----------------------------------------------------------

def test_gdms_refine_counts_and_mesh(standard_system):
    covers = build_covers(gdms_adapter(standard_system), 8)
    assert [len(level) for level in covers.levels] == [2**n for n in range(9)]
    assert covers.meshes == [4.0**-n for n in range(9)]


def test_gdms_refine_is_functorial(standard_system):
    adapter = gdms_adapter(standard_system)
    covers = build_covers(adapter, 4)
    rng = np.random.default_rng(0)
    for element in covers.levels[3]:
        parent = element.parent
        assert parent is not None
        for point in adapter.sample_points(element.payload, 3, rng):
            image = adapter.evaluate(point)
            assert parent.payload.left <= image.coordinate <= parent.payload.right


def test_mesh_decay_rate_recovered(standard_system):
    covers = build_covers(gdms_adapter(standard_system), 6)
    logs = [math.log(m) for m in covers.meshes]
    slope = np.polyfit(range(len(logs)), logs, 1)[0]
    # geometric decay with ratio max d(e)^(-1/alpha) = 1/4, recovered to 1%
    assert math.exp(slope) == pytest.approx(0.25, rel=0.01)


def test_pillowcase_refine_faces():
    adapter = pillowcase_adapter(0, resolution=6, cover="faces")
    covers = build_covers(adapter, 1)
    assert len(covers.levels[0]) == 2
    assert len(covers.levels[1]) == 8  # four square components above each face
    ratio = covers.meshes[1] / covers.meshes[0]
    assert 0.4 <= ratio <= 0.6  # halved, up to raster slack


# --- degrees ----------------------------------------------------------------

def test_gdms_degrees_trivial(standard_system):
    covers = build_covers(gdms_adapter(standard_system), 6)
    assert degree_report(covers, 4) == 1


def test_skew_small_arcs_degree_one(standard_system):
    covers = build_covers(skew_adapter(standard_system), 4)
    assert degree_report(covers, 3) == 1


def test_skew_full_circle_degree(standard_system):
    covers = build_covers(skew_adapter(standard_system, arcs0=1), 2)
    assert degree_report(covers, 1) == 2  # whole-circle elements wind twice


def test_pillowcase_disk_degrees_bounded():
    adapter = pillowcase_adapter(0, resolution=6, cover="disks")
    covers = build_covers(adapter, 2)
    assert degree_report(covers, 2) <= 2


def test_degree_monotone_under_initial_refinement():
    coarse = pillowcase_adapter(0, resolution=5, cover="disks", disk_radius=0.22)
    fine = pillowcase_adapter(0, resolution=5, cover="disks", disk_radius=0.09)
    deg_coarse = degree_report(build_covers(coarse, 1), 1)
    deg_fine = degree_report(build_covers(fine, 1), 1)
    assert deg_fine <= deg_coarse


def test_menger_adapter_smoke():
    covers = build_covers(menger_adapter(MengerParams(n=0, k=2, factors=(3, 3))), 2)
    meshes = covers.meshes
    assert meshes[0] == pytest.approx(1 / 3)
    assert meshes[-1] < meshes[0]
    # reflections give local degree 2 per folded coordinate: bounded by 2^k
    assert degree_report(covers, 2) <= 4


# --- roundness --------------------------------------------------------------

def test_roundness_interval_cases():
    adapter = dendrite_adapter()
    interior = (0.5, 1.5)  # an interval with complement on both sides
    assert roundness(adapter, interior, 1.0) == pytest.approx(1.0)
    assert roundness(adapter, interior, 0.75) == pytest.approx(3.0)
    with pytest.raises(ValueError, match="interior"):
        roundness(adapter, interior, 0.5)
    # an element closed at the space boundary is ball-like about its midpoint
    assert roundness(adapter, (0.0, 1.0), 0.5) == pytest.approx(1.0)


def test_roundness_square_center_sup_metric():
    square = Adapter(
        name="unit square, sup metric",
        evaluate=lambda p: p,
        initial_cover=lambda: [None],
        preimage_components=lambda payload: [],
        diameter=lambda payload: 1.0,
        metric=lambda p, q: max(abs(p[0] - q[0]), abs(p[1] - q[1])),
        sample_points=lambda payload, k, rng: [tuple(xy) for xy in rng.random((k, 2))],
        basepoint=lambda payload: (0.5, 0.5),
        distance_to_complement=lambda payload, p: min(p[0], 1 - p[0], p[1], 1 - p[1]),
    )
    value = roundness(square, None, (0.5, 0.5), np.random.default_rng(0), samples=4096)
    assert value == pytest.approx(1.0, abs=0.02)


def test_gdms_roundness_about_midpoints(standard_system):
    adapter = gdms_adapter(standard_system)
    covers = build_covers(adapter, 5)
    for level in covers.levels:
        for element in level:
            value = roundness(adapter, element.payload, adapter.basepoint(element.payload))
            assert value == pytest.approx(1.0, abs=1e-9)


# --- distortion -------------------------------------------------------------

def test_gdms_distortion_ratios_reproduce(standard_system):
    adapter = gdms_adapter(standard_system)
    covers = build_covers(adapter, 5)
    report = distortion_report(adapter, covers, k_max=2, seed=0)
    assert report.samples > 0
    for _, _, _, down, up in report.diam_pairs:
        assert up == pytest.approx(down, rel=1e-9)  # similarities preserve ratios
    env = report.envelope("rho_minus")
    assert env and env[-1][1] < 10.0


def test_skew_distortion_ratio_reproduction(standard_system):
    adapter = skew_adapter(standard_system)
    covers = build_covers(adapter, 4)
    report = distortion_report(adapter, covers, k_max=2, seed=0, element_cap=60)
    assert report.diam_pairs
    for _, _, _, down, up in report.diam_pairs:
        assert up == pytest.approx(down, rel=1e-6)


def test_pillowcase_distortion_bounded(eighth):
    adapter = pillowcase_adapter(eighth, resolution=5, cover="faces")
    covers = build_covers(adapter, 3)
    report = distortion_report(adapter, covers, k_max=2, seed=0,
                               samples_per_element=1, element_cap=30)
    assert report.roundness_pairs
    assert report.max_roundness() < 1e3


def test_distortion_csv_format(standard_system):
    adapter = gdms_adapter(standard_system)
    covers = build_covers(adapter, 3)
    text = distortion_report(adapter, covers, seed=0).to_csv()
    header = text.splitlines()[0]
    assert header == "kind,n,k,value_in,value_out"


# --- locally eventually onto -------------------------------------------------

def test_onto_gdms_cylinder(standard_system):
    adapter = gdms_adapter(standard_system)
    covers = build_covers(adapter, 3)
    assert eventually_onto_check(adapter, covers.levels[3][0].payload).steps == 3
    assert eventually_onto_check(adapter, covers.levels[0][0].payload).steps == 0


def test_onto_alternating_needs_both_components(alternating):
    sys_ = build_interval_system(alternating, 0.5)
    adapter = gdms_adapter(sys_)
    covers = build_covers(adapter, 1)
    depth1 = covers.levels[1][0]
    assert eventually_onto_check(adapter, depth1.payload).steps == 2


def test_onto_failure_is_a_value(standard_system):
    adapter = gdms_adapter(standard_system)
    covers = build_covers(adapter, 3)
    crippled = Adapter(**{**adapter.__dict__, "all_components": frozenset({1, 99})})
    result = eventually_onto_check(crippled, covers.levels[3][0].payload, max_iter=5)
    assert result.steps is None and not result.succeeded


# --- visual metric fits -------------------------------------------------------

def test_visual_metric_dendrite_slice():
    covers = build_covers(dendrite_adapter(), 10)
    report = visual_metric_check(covers, min_level=2, spread_bound=8.0)
    assert 0.6 <= report.fitted_epsilon <= 0.8
    assert report.spread <= 4.0
    assert report.verdict


def test_visual_metric_gdms_exact(standard_system):
    covers = build_covers(gdms_adapter(standard_system), 8)
    report = visual_metric_check(covers, min_level=2, spread_bound=16.0)
    assert report.fitted_epsilon == pytest.approx(math.log(4), abs=0.01)
    assert report.spread == pytest.approx(1.0, abs=0.01)


def test_visual_metric_mixed_ratios_flagged():
    mixed = make_graph(1, [(1, 1, 2), (1, 1, 8)])
    sys_ = build_interval_system(mixed, 0.5)
    covers = build_covers(gdms_adapter(sys_), 8)
    report = visual_metric_check(covers, min_level=2, spread_bound=16.0)
    assert report.spread > 16.0
    assert not report.verdict  # the flat metric is not of visual type here


# --- snowflake fits -----------------------------------------------------------

def test_snowflake_fit_exact_root():
    rng = np.random.default_rng(1)
    pairs = [(float(a), float(b)) for a, b in rng.random((150, 2))]
    fit = snowflake_fit(lambda p, q: abs(p - q),
                        lambda p, q: abs(p - q) ** 0.5, pairs)
    assert fit.alpha_hat == pytest.approx(0.5, abs=1e-9)
    assert fit.band <= 1e-9


def test_snowflake_fit_scaling_absorbed_in_intercept():
    rng = np.random.default_rng(2)
    pairs = [(float(a), float(b)) for a, b in rng.random((150, 2))]
    fit = snowflake_fit(lambda p, q: abs(p - q),
                        lambda p, q: 3.0 * abs(p - q), pairs)
    assert fit.alpha_hat == pytest.approx(1.0, abs=1e-9)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-9)
    assert fit.band <= 1e-9


def test_snowflake_fit_gdms_metrics(standard_system):
    from cxcdyn.gdms import GDMSPoint, distance
    rng = np.random.default_rng(3)
    pairs = []
    while len(pairs) < 150:
        u, v = rng.random(2)
        if abs(u - v) > 1e-6:
            pairs.append((GDMSPoint(1, u), GDMSPoint(1, v)))
    fit = snowflake_fit(lambda p, q: distance(standard_system, p, q),
                        lambda p, q: distance(standard_system, p, q, snowflaked=True),
                        pairs)
    assert fit.alpha_hat == pytest.approx(0.5, abs=0.01)


def test_snowflake_fit_validations():
    with pytest.raises(ValueError, match="100"):
        snowflake_fit(lambda p, q: 1.0, lambda p, q: 1.0, [(0, 1)] * 50)
    with pytest.raises(ValueError, match="degenerate"):
        snowflake_fit(lambda p, q: 0.0, lambda p, q: 1.0, [(0, 1)] * 150)


def test_gdms_similarities_preserve_roundness(standard_system):
    adapter = gdms_adapter(standard_system)
    covers = build_covers(adapter, 5)
    report = distortion_report(adapter, covers, k_max=2, seed=1)
    for _, _, down, up in report.roundness_pairs:
        assert down >= 1.0 and up >= 1.0
        assert up == pytest.approx(down, rel=1e-9)  # affine branches preserve roundness
    for _, _, _, down, up in report.diam_pairs:
        assert 0.0 < down <= 1.0 + 1e-12 and 0.0 < up <= 1.0 + 1e-12


# --- flood fill -------------------------------------------------------------

def axis_neighbors(cell):
    return [cell[:axis] + (cell[axis] + delta,) + cell[axis + 1:]
            for axis in range(len(cell)) for delta in (-1, 1)]


def test_flood_components_joins_across_pillow_seam():
    grid = _PillowGrid(Fraction(1, 8), 3)
    top = grid.ny - 1
    comps = _flood_components({(1, 0), (1, 1), (1, top), (1, top - 1)}, grid.neighbors)
    assert comps == [frozenset({(1, 0), (1, 1), (1, top), (1, top - 1)})]


def test_flood_components_diagonal_cells_stay_apart():
    comps = _flood_components({(0, 0, 0), (1, 1, 0)}, axis_neighbors)
    assert sorted(comps, key=min) == [frozenset({(0, 0, 0)}), frozenset({(1, 1, 0)})]


def test_flood_components_partition_the_input():
    rng = np.random.default_rng(4)
    cells = {tuple(int(c) for c in row) for row in rng.integers(0, 6, size=(80, 3))}
    comps = _flood_components(cells, axis_neighbors)
    assert sum(len(c) for c in comps) == len(cells)
    assert frozenset().union(*comps) == cells
    for comp in comps:
        others = cells - comp
        assert not any(nb in others for cell in comp for nb in axis_neighbors(cell))
