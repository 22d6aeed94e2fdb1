import hashlib
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cxcdyn.gdms import build_interval_system
from cxcdyn.graphs import make_graph
from cxcdyn.menger import MengerParams, sponge_params
from cxcdyn.pillowcase.core import orb_distance, orb_distances, orb_point
from cxcdyn.verify import (Adapter, build_covers, degree_report, dendrite_adapter,
                           distortion_report, eventually_onto_check, gdms_adapter,
                           menger_adapter, pillowcase_adapter, roundness,
                           skew_adapter, snowflake_fit, visual_metric_check)
from cxcdyn.pillowcase.tiling import subdivide
from cxcdyn.verify import adapters
from cxcdyn.verify.adapters import _PillowGrid, _flood_components
from cxcdyn.verify.core import DistortionReport, _evaluate_k
from oracles import (cube_components, fraction_cell_of, fraction_fiber_degrees,
                     fraction_pillow_map)


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


@pytest.mark.parametrize("resolution", [0, -1])
def test_pillowcase_resolution_below_one_rejected(resolution):
    with pytest.raises(ValueError, match="resolution"):
        pillowcase_adapter(0, resolution=resolution)


def test_pillowcase_single_cells_are_not_refined():
    adapter = pillowcase_adapter(0, resolution=3, cover="faces")
    covers = build_covers(adapter, 2)
    assert [len(level) for level in covers.levels] == [2, 8, 32]
    assert all(len(e.payload) == 1 for e in covers.levels[2])
    with pytest.raises(ValueError, match=r"single cell of the 2\^-3 grid"):
        build_covers(adapter, 3)
    with pytest.raises(ValueError, match="resolution"):
        build_covers(pillowcase_adapter(0, resolution=1, cover="faces"), 1)


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


@pytest.mark.parametrize("arcs0", [0, -3])
def test_skew_arcs0_below_one_rejected(standard_system, arcs0):
    with pytest.raises(ValueError, match="arcs0"):
        skew_adapter(standard_system, arcs0)


def test_chain_degree_past_the_root_raises(standard_system):
    leaf = build_covers(skew_adapter(standard_system, arcs0=1), 2).levels[2][0]
    assert leaf.chain_degree(2) == 4
    with pytest.raises(ValueError, match="chain shorter than k"):
        leaf.chain_degree(3)


def test_negative_depth_and_kmax_below_one_raise(standard_system):
    adapter = gdms_adapter(standard_system)
    with pytest.raises(ValueError, match="depth must be >= 0"):
        build_covers(adapter, -1)
    covers = build_covers(adapter, 0)
    assert len(covers.levels) == 1
    for k_max in (0, -2):
        with pytest.raises(ValueError, match="k_max must be >= 1"):
            degree_report(covers, k_max)
        with pytest.raises(ValueError, match="k_max must be >= 1"):
            distortion_report(adapter, covers, k_max=k_max)
    assert degree_report(covers, 1) == 1


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


def float_fiber_degrees(parent, children):
    """The folded-cube degrees as the float fiber of the parent's first cell
    gave them: its 3^k preimage points, located by truncation."""
    scale = 3 ** parent.level
    y = [(2 * c + 1) / (2 * scale) for c in next(iter(parent.cells))]
    fiber = itertools.product(*[(c / 3.0, (2.0 - c) / 3.0, (2.0 + c) / 3.0) for c in y])
    cells = [tuple(min(int(c * 3 * scale), 3 * scale - 1) for c in point) for point in fiber]
    return [sum(cell in child.cells for cell in cells) for child in children]


@pytest.mark.parametrize("n, k, depth", [(0, 2, 3), (1, 3, 2), (0, 3, 2)])
def test_folded_cube_degrees_match_the_float_fiber(n, k, depth):
    covers = build_covers(menger_adapter(MengerParams(n=n, k=k, factors=(3,) * k)), depth)
    for level in covers.levels[1:]:
        children: dict[int, list] = {}
        for element in level:
            children.setdefault(id(element.parent), []).append(element)
        for siblings in children.values():
            degrees = float_fiber_degrees(siblings[0].parent.payload,
                                          [e.payload for e in siblings])
            assert [e.degree_over_parent for e in siblings] == degrees
            assert min(degrees) > 0 and sum(degrees) == 3 ** k


@pytest.mark.parametrize("n, k, depth", [(0, 2, 3), (1, 3, 2), (0, 3, 2)])
def test_folded_cube_boxes_match_the_flood_fill(n, k, depth):
    """Each element's box components, as cell sets, and their degrees are the
    flood fill's over its preimage cells and one target cell's fiber."""
    adapter = menger_adapter(MengerParams(n=n, k=k, factors=(3,) * k))
    for level in build_covers(adapter, depth).levels[:-1]:
        for element in level:
            payload = element.payload
            boxes = [(frozenset(comp.cells), degree)
                     for comp, degree in adapter.preimage_components(payload)]
            flood = cube_components(payload.level, payload.cells)
            assert sorted(boxes, key=lambda c: min(c[0])) == sorted(flood, key=lambda c: min(c[0]))


@pytest.mark.parametrize("doctor", ["dropped copy", "duplicated copy"])
def test_folded_cube_uncertified_degrees_raise(monkeypatch, doctor):
    def doctored(copies):
        return join(copies[1:] if doctor == "dropped copy" else copies + copies[-1:])

    join = adapters._join_copies
    monkeypatch.setattr(adapters, "_join_copies", doctored)
    with pytest.raises(ValueError, match="level-1 element"):
        build_covers(menger_adapter(MengerParams(n=0, k=2, factors=(3, 3))), 1)


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
        outradius=lambda payload, p: max(p[0], 1 - p[0], p[1], 1 - p[1]),
        is_subset=lambda small, big: small == big,
    )
    assert roundness(square, None, (0.5, 0.5)) == 1.0
    assert roundness(square, None, (0.25, 0.5)) == 3.0
    with pytest.raises(ValueError, match="interior"):
        roundness(square, None, (0.0, 0.5))


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


@pytest.mark.parametrize("cover, resolution, depth, digest", [
    ("faces", 6, 3, "69b2c54cc92cbd237d8782ad3cfa7bfe3bfb10736d7dcc896d3308dcfe1c828f"),
    ("disks", 5, 2, "35d416e796372a19f3c79ad45f5c1cb2eaa7fc82a87d6eb73be4ad279c6b6b9c"),
])
def test_pillowcase_distortion_csv_pinned(eighth, cover, resolution, depth, digest):
    # the CSV that `verify pillow --a 1/8 --out` writes at the default seed and kmax
    adapter = pillowcase_adapter(eighth, resolution=resolution, cover=cover)
    covers = build_covers(adapter, depth)
    text = distortion_report(adapter, covers, k_max=3, seed=0,
                             samples_per_element=1, element_cap=40).to_csv()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _locate(point, polygon):
    """1 if the integer point lies strictly inside the integer polygon, 0 on
    its boundary, -1 outside: exact crossing-number test."""
    px, py = point
    inside = False
    for (x1, y1), (x2, y2) in zip(polygon, polygon[1:] + polygon[:1]):
        cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
        if cross == 0 and min(x1, x2) <= px <= max(x1, x2) and min(y1, y2) <= py <= max(y1, y2):
            return 0
        if (y1 > py) != (y2 > py) and (cross > 0) == (y2 > y1):
            inside = not inside
    return 1 if inside else -1


@pytest.mark.parametrize("a", ["0", "1/64", "3/40", "1/8"])
def test_faces_cover_is_the_rasterized_tiling(a):
    """Each level-n raster element is the cells whose centers lie strictly
    inside one tile of subdivide(a, n), up to cells centered on the tile's
    boundary, and the match is one to one."""
    resolution, ny = 6, 2**6
    covers = build_covers(pillowcase_adapter(Fraction(a), resolution, "faces"), 3)
    for n, level in enumerate(covers.levels):
        tiles = subdivide(Fraction(a), n).cells
        # integer coordinates over a denominator shared by the tiles and the
        # cell centers; center of cell (i, j) is ((2i + 1) unit, (2j + 1) unit - half)
        scale = math.lcm(2 * ny, *(c.denominator for t in tiles for v in t.vertices for c in v))
        unit, half = scale // (2 * ny), scale // 2
        interior, closure = [], []
        for tile in tiles:
            polygon = [(int(x * scale), int(y * scale)) for x, y in tile.vertices]
            xs, ys = [x for x, _ in polygon], [y + half for _, y in polygon]
            inside, edge = set(), set()
            # only the cells centered in the tile's bounding box
            for i in range(max(0, (min(xs) // unit - 1) // 2), max(xs) // unit // 2 + 1):
                for j in range(max(0, (min(ys) // unit - 1) // 2), max(ys) // unit // 2 + 1):
                    where = _locate(((2 * i + 1) * unit, (2 * j + 1) * unit - half), polygon)
                    if where >= 0:
                        (inside if where else edge).add((i, j))
            interior.append(inside)
            closure.append(inside | edge)
        owner = {cell: k for k, cells in enumerate(interior) for cell in cells}
        matched = []
        for element in level:
            hits = {owner[c] for c in element.payload if c in owner}
            hits = [k for k in hits if interior[k] <= element.payload <= closure[k]]
            assert len(hits) == 1, (n, element.uid, hits)
            matched += hits
        assert sorted(matched) == list(range(len(tiles))) and len(tiles) == 2 * 4**n


def test_center_table_is_the_exact_centers():
    grid = _PillowGrid(Fraction(1, 8), 5)
    assert grid.xy.shape == (grid.nx, grid.ny, 2)
    for i in range(grid.nx):
        for j in range(grid.ny):
            center = grid.center((i, j))
            assert (grid.xy[i, j, 0], grid.xy[i, j, 1]) == (float(center.x), float(center.y))
            assert orb_point(center.x, center.y) == center


@pytest.mark.parametrize("resolution", [4, 5, 6])
def test_distance_kernel_equals_scalar_metric(resolution):
    grid = _PillowGrid(Fraction(1, 8), resolution)
    rng = np.random.default_rng(resolution)
    seams = [(i, j) for i in range(grid.nx) for j in range(grid.ny)
             if i in (0, grid.nx - 1) or j in (0, grid.ny - 1)]
    randoms = [(int(i), int(j)) for i, j in zip(rng.integers(grid.nx, size=60),
                                                rng.integers(grid.ny, size=60))]
    cells = seams + randoms
    # off-grid points, some on the rectangle's edges and at cone points
    off_grid = [orb_point(Fraction(int(p), 97), Fraction(int(q), 89))
                for p, q in zip(rng.integers(-200, 200, size=40), rng.integers(-200, 200, size=40))]
    off_grid += [orb_point(0, 0), orb_point(Fraction(1, 2), Fraction(1, 2)),
                 orb_point(0, Fraction(1, 3)), orb_point(Fraction(1, 2), Fraction(-1, 7))]
    points = [grid.center(c) for c in cells] + off_grid
    xy = np.array([[float(p.x), float(p.y)] for p in points])
    table = orb_distances(xy[:, None], xy[None, :])
    for i, p in enumerate(points):
        for j, q in enumerate(points):
            assert table[i, j] == orb_distance(p, q)


def _table_distances(grid, p, q):
    return np.sqrt(grid.squared(p, q) / (2 * grid.ny) ** 2)


@pytest.mark.parametrize("resolution", [1, 2, 3, 4, 5])
def test_distance_tables_equal_the_kernel_on_every_pair(resolution):
    grid = _PillowGrid(Fraction(1, 8), resolution)
    flats = np.arange(grid.nx * grid.ny)
    xy = grid.centers
    expected = orb_distances(xy[:, None], xy[None, :])
    assert _table_distances(grid, flats[:, None], flats[None, :]).tobytes() == expected.tobytes()


def test_distance_tables_equal_the_kernel_at_resolution_8():
    grid = _PillowGrid(Fraction(1, 8), 8)
    rng = np.random.default_rng(8)
    p, q = rng.integers(grid.nx * grid.ny, size=(2, 10**4))
    expected = orb_distances(grid.centers[p], grid.centers[q])
    assert _table_distances(grid, p, q).tobytes() == expected.tobytes()
    # every pair of cells on the seam rows and columns
    seams = np.array([grid.flat((i, j)) for i in range(grid.nx) for j in range(grid.ny)
                      if i in (0, grid.nx - 1) or j in (0, grid.ny - 1)])
    xy = grid.centers[seams]
    expected = orb_distances(xy[:, None], xy[None, :])
    got = _table_distances(grid, seams[:, None], seams[None, :])
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("resolution", [1, 3, 5])
def test_neighbor_table_is_the_neighbor_function(resolution):
    grid = _PillowGrid(Fraction(1, 8), resolution)
    assert grid.nb.tolist() == [[grid.flat(nb) for nb in grid.neighbors((i, j))]
                                for i in range(grid.nx) for j in range(grid.ny)]


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 6))
def test_ring_is_the_set_ring(data, resolution):
    """The neighbor-table ring of a cell set, against the set of neighbors
    outside it, on payloads that touch the seams."""
    grid = _PillowGrid(Fraction(1, 8), resolution)
    seam = st.one_of(st.tuples(st.sampled_from([0, grid.nx - 1]), st.integers(0, grid.ny - 1)),
                     st.tuples(st.integers(0, grid.nx - 1), st.sampled_from([0, grid.ny - 1])))
    cell = st.tuples(st.integers(0, grid.nx - 1), st.integers(0, grid.ny - 1))
    payload = frozenset(data.draw(st.lists(st.one_of(seam, cell), min_size=1,
                                           max_size=grid.nx * grid.ny)))
    expected = {grid.flat(nb) for c in payload for nb in grid.neighbors(c)}
    expected -= {grid.flat(c) for c in payload}
    flats = np.array(sorted(grid.flat(c) for c in payload))
    assert set(grid.ring(flats).tolist()) == expected


def test_disks_and_distortion_leave_numpy_ma_unloaded():
    # np.unique and np.setdiff1d import numpy.ma (about 1.35 MB) on numpy 2.4
    src = str(Path(adapters.__file__).resolve().parents[2])
    code = ("import sys\n"
            "from cxcdyn.verify import build_covers, distortion_report, pillowcase_adapter\n"
            "adapter = pillowcase_adapter('1/8', 4, 'disks')\n"
            "covers = build_covers(adapter, 2)\n"
            "distortion_report(adapter, covers, k_max=2, samples_per_element=1)\n"
            "print('numpy.ma' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert result.stdout.strip() == "False"


def _hook_rows(adapter, depth):
    rows = []
    for level in build_covers(adapter, depth).levels:
        for element in level:
            payload = element.payload
            base = adapter.basepoint(payload)
            rows.append((element.uid, len(payload), adapter.diameter(payload).hex(),
                         adapter.distance_to_complement(payload, base).hex(),
                         adapter.outradius(payload, base).hex()))
    return rows


@pytest.mark.parametrize("cover, resolution, count, digest", [
    ("faces", 5, 42, "bfc83761c90f9db7336f4f1f62b1ea4e73e254fbdd9eaa8d8258f04654ca83e4"),
    ("disks", 4, 672, "552a7e581b43f20dd5e8178e7e2835f84f7d6093edeb4f5912ac9e0fd3c7f46a"),
])
def test_pillowcase_hooks_pinned(eighth, cover, resolution, count, digest):
    # diameter, distance to complement and outradius about the basepoint of
    # every element of a depth-2 cover, as float.hex
    rows = _hook_rows(pillowcase_adapter(eighth, resolution=resolution, cover=cover), 2)
    assert len(rows) == count
    if cover == "faces":
        assert rows[0] == ("0:0", 256, "0x1.6a0a410ae03a9p-1", "0x1.d2bd3c3611340p-3",
                           "0x1.6acb897224696p-2")
        assert rows[2] == ("0:0/0", 64, "0x1.6a0a9badccb84p-2", "0x1.a57a786c22680p-4",
                           "0x1.974caa31e288dp-3")
        assert rows[-1][2:] == ("0x1.6a0b50f3a5b3cp-3", "0x1.4af4f0d844d01p-5",
                                "0x1.c48f6dfbd154cp-4")
    text = "\n".join(",".join(map(str, row)) for row in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def rescanning_distortion_report(adapter, covers, k_max=2, samples_per_element=2, seed=0,
                                 element_cap=200):
    """The sampler before the k-step pullbacks were read off the cover tree:
    each diameter pair rescans whole capped levels through ``ancestor``."""
    rng = np.random.default_rng(seed)
    round_pairs = []
    total = 0
    for level in covers.levels:
        for element in level[:element_cap]:
            for k in range(1, min(k_max, element.level) + 1):
                down = element.ancestor(k)
                for tilde_y in adapter.sample_points(element.payload, samples_per_element, rng):
                    y = _evaluate_k(adapter, tilde_y, k)
                    try:
                        up_round = roundness(adapter, element.payload, tilde_y)
                        down_round = roundness(adapter, down.payload, y)
                    except ValueError:
                        continue
                    round_pairs.append((down.level, k, down_round, up_round))
                    total += 1

    diam_pairs = []
    for n0, level in enumerate(covers.levels):
        for inner_gap in (1, 2):
            n1 = n0 + inner_gap
            if n1 >= len(covers.levels):
                continue
            for small in covers.levels[n1][:element_cap]:
                bigs = [e for e in level[:element_cap]
                        if adapter.is_subset(small.payload, e.payload)]
                if not bigs:
                    continue
                big = bigs[0]
                down_ratio = small.diameter / big.diameter
                for k in range(1, k_max + 1):
                    if n1 + k >= len(covers.levels):
                        continue
                    for tilde_small in covers.levels[n1 + k][:element_cap]:
                        if tilde_small.ancestor(k) is not small:
                            continue
                        ups = [e for e in covers.levels[n0 + k][:element_cap]
                               if e.ancestor(k) is big
                               and adapter.is_subset(tilde_small.payload, e.payload)]
                        if not ups:
                            continue
                        up_ratio = tilde_small.diameter / ups[0].diameter
                        diam_pairs.append((n0, n1, k, down_ratio, up_ratio))
                        total += 1
    return DistortionReport(roundness_pairs=round_pairs, diam_pairs=diam_pairs, samples=total)


MIXED = make_graph(2, [(1, 2, 2), (1, 2, 2), (2, 1, 3), (2, 2, 2)])
TWO_LOOPS = make_graph(1, [(1, 1, 2)] * 2)
FOUR_LOOPS = make_graph(1, [(1, 1, 3)] * 4)  # four degree-3 loops
_PILLOW_SAMPLING = dict(k_max=3, samples_per_element=1, element_cap=40)


@pytest.mark.parametrize("make_adapter, depth, options", [
    (lambda two: gdms_adapter(two), 8, {}),
    (lambda two: gdms_adapter(build_interval_system(MIXED, 0.5)), 5, dict(k_max=3)),
    (lambda two: skew_adapter(two), 4, dict(element_cap=60)),
    (lambda two: pillowcase_adapter(Fraction(1, 8), 6, "faces"), 3, _PILLOW_SAMPLING),
    (lambda two: pillowcase_adapter(Fraction(1, 8), 5, "disks"), 2, _PILLOW_SAMPLING),
    # wide disks overlap, so a small element lies in several bigs and the first must win
    (lambda two: pillowcase_adapter(Fraction(1, 8), 5, "disks", disk_radius=0.22), 2,
     _PILLOW_SAMPLING),
    (lambda two: menger_adapter(sponge_params(n=1, k=3)), 2, dict(k_max=1, element_cap=30)),
    (lambda two: dendrite_adapter(), 8, {}),
], ids=["gdms", "gdms-mixed", "skew", "pillow-faces", "pillow-disks", "pillow-wide-disks",
        "folded-cube", "dendrite"])
def test_distortion_report_matches_the_rescanning_oracle(standard_system, make_adapter,
                                                         depth, options):
    adapter = make_adapter(standard_system)
    covers = build_covers(adapter, depth)
    report = distortion_report(adapter, covers, **options)
    expected = rescanning_distortion_report(adapter, covers, **options)
    same_csv = report.to_csv() == expected.to_csv()  # spares pytest a diff of 10^4 lines
    assert report.samples > 0 and same_csv and report.samples == expected.samples


# SHA-256 of the depth-3 skew cover rows (uid, payload, degree, diameter.hex())
# and of its distortion CSV at element_cap 60, pinned before the skew adapter
# was rebuilt on the gdms adapter
@pytest.mark.parametrize("graph, arcs0, rows_digest, csv_digest", [
    (MIXED, None, "84e3f2fb4f8453431981e4106b03acbbd9b94bfc11aafedefb17f405fe0bfc24",
     "47115230811508285d3848d53067fedc65c6d5222cd01e1f4ac71b881f8f8630"),
    (MIXED, 1, "4d45eceba42b1035c060d780445e97dfb3b4ce14c2b7b919ab51fd9da9318886",
     "0c32167859c7ff60e33d06461b8f2b9981af758695d68a7ce328b5bb99fcb1b0"),
    (TWO_LOOPS, None, "25aa8895ba188d33cb783294a711cd1e90afb31f4ae43cd5ea34c2b9b947426d",
     "b9271bc392ad823548e3485ec942915fec686dda9ac818c2d57bbcd650e1eaff"),
    (TWO_LOOPS, 1, "dc2fd1b01cd481e7639dd2807472d9cde396ca65adb8d55142e12d4ecf67884c",
     "8aec78387b053b9250a59e1f96c79165b85f3c52560d1c3b7bbda574da1edbf9"),
    (FOUR_LOOPS, None, "0e339a394ef11353d86c4ed0a46cead9c493ef50ffca7b832bf4bc466a06443b",
     "83fe25df4146ebc2a0d89aec492b1230cae2555ad229a9f1e188fa4123e309d7"),
    (FOUR_LOOPS, 1, "0a80b807c688f5256cab9e5d52688708230301c09066f321f60593554dfcf1e7",
     "674e8072e02e20120358b005d514e5165eb30611c14bdcf9894cdab5cba96afc"),
])
def test_skew_cover_and_distortion_pinned(graph, arcs0, rows_digest, csv_digest):
    adapter = skew_adapter(build_interval_system(graph, 0.5), arcs0)
    covers = build_covers(adapter, 3)
    rows = "\n".join(f"{e.uid},{e.payload!r},{e.degree_over_parent},{e.diameter.hex()}"
                     for level in covers.levels for e in level)
    text = distortion_report(adapter, covers, element_cap=60).to_csv()
    assert hashlib.sha256(rows.encode()).hexdigest() == rows_digest
    assert hashlib.sha256(text.encode()).hexdigest() == csv_digest


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
    result = eventually_onto_check(crippled, covers.levels[3][0].payload)
    assert result.steps is None and not result.succeeded


def test_onto_failure_costs_one_step_per_distinct_payload(standard_system):
    adapter = gdms_adapter(standard_system)
    calls = 0

    def counted(payload):
        nonlocal calls
        calls += 1
        return adapter.forward_step(payload)

    covers = build_covers(adapter, 3)
    crippled = Adapter(**{**adapter.__dict__, "forward_step": counted,
                          "all_components": frozenset({1, 99})})
    result = eventually_onto_check(crippled, covers.levels[3][0].payload, max_iter=12)
    assert result.steps is None
    # a depth-3 word shortens to the base cylinder, which maps to itself
    # along both loops: one call per step, not one per path
    assert calls == 12


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


# --- the raster image map on the integer lattice -------------------------------

@pytest.mark.parametrize("a", ["0", "1/64", "3/40", "6/67", "1/8"])
def test_image_map_matches_the_fraction_map(a):
    for resolution in range(3, 8):
        grid = _PillowGrid(Fraction(a), resolution)
        images = [[fraction_pillow_map(grid.a, grid.center((i, j))) for j in range(grid.ny)]
                  for i in range(grid.nx)]
        expected = [[grid.flat(fraction_cell_of(grid, q)) for q in row] for row in images]
        assert grid.image_map.tolist() == expected


@pytest.mark.parametrize("a", ["0", "1/64", "3/40", "1/8"])
def test_fiber_degrees_match_the_fraction_fibers(a):
    """Every pillowcase degree over a parent, faces and disks up to resolution
    6, is the one the Fraction fibers give, fallback degrees included."""
    fallbacks = 0
    for cover, resolution, depth in (("faces", 6, 3), ("disks", 4, 2), ("disks", 6, 3)):
        grid = _PillowGrid(Fraction(a), resolution)
        covers = build_covers(pillowcase_adapter(Fraction(a), resolution, cover), depth)
        for level in covers.levels[1:]:
            children: dict[int, list] = {}
            for element in level:
                children.setdefault(id(element.parent), []).append(element)
            for siblings in children.values():
                degrees, certified = fraction_fiber_degrees(
                    grid, siblings[0].parent.payload, [e.payload for e in siblings])
                assert [e.degree_over_parent for e in siblings] == degrees
                fallbacks += not certified
    if a == "1/8":
        assert fallbacks > 0  # the uncertified refinements are compared too


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 7))
def test_cell_of_matches_the_fraction_lookup(data, resolution):
    """The integer cell lookup on the grid's lattice, at arbitrary lattice
    points and on the cell walls."""
    grid = _PillowGrid(Fraction(1, 8), resolution)
    scale, half, wall = grid.lattice.scale, grid.lattice.half, grid.lattice.scale // grid.ny
    x = data.draw(st.one_of(st.integers(0, half), st.integers(0, grid.nx).map(wall.__mul__)))
    y = data.draw(st.one_of(st.integers(-half, half),
                            st.integers(-grid.nx, grid.nx).map(wall.__mul__)))
    for qx, qy in (grid.lattice.canonical(x, y), (half, abs(y)), (x, half)):
        p = orb_point(Fraction(qx, scale), Fraction(qy, scale))
        assert (qx, qy) == (p.x * scale, p.y * scale)
        assert grid._cell(qx, qy) == fraction_cell_of(grid, p)
