import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cxcdyn import skew
from cxcdyn.gdms import GDMSPoint, apply_map, build_interval_system, locate_branch
from cxcdyn.graphs import make_graph
from cxcdyn.skew import (_CHUNK, SkewPoint, circle_distance, orbit, periodic_base_point,
                         scaling_deviation, skew_box_dimension, skew_distance,
                         skew_map)

import oracles
from strategies import interval_systems


def test_skew_map_midpoint(standard_system):
    b = standard_system.branches[0]
    p = SkewPoint(GDMSPoint(1, b.left + b.length / 2), 0.3)
    image = skew_map(standard_system, p)
    assert image.base.coordinate == pytest.approx(0.5, abs=1e-12)
    assert image.angle == pytest.approx(0.6)


def test_skew_map_angle_wraps(standard_system):
    b = standard_system.branches[0]
    p = SkewPoint(GDMSPoint(1, b.left), 0.75)
    assert skew_map(standard_system, p).angle == pytest.approx(0.5)


def test_skew_map_gap_error(standard_system):
    with pytest.raises(ValueError, match="outside every branch"):
        skew_map(standard_system, SkewPoint(GDMSPoint(1, 0.01), 0.0))


def test_skew_distance_cases(standard_system):
    p = SkewPoint(GDMSPoint(1, 0.25), 0.1)
    assert skew_distance(standard_system, p, p) == 0.0
    q = SkewPoint(GDMSPoint(1, 0.25), 0.9)
    assert skew_distance(standard_system, p, q) == pytest.approx(0.2)
    r = SkewPoint(GDMSPoint(1, 0.25 + 1 / 16), 0.1)
    assert skew_distance(standard_system, p, r) == pytest.approx(0.25)


def test_angle_validation():
    with pytest.raises(ValueError, match="angle"):
        SkewPoint(GDMSPoint(1, 0.2), 1.0)


def test_local_homothety(standard_system):
    # about 10^4 sampled admissible pairs per edge
    pairs = 10**4 * len(standard_system.branches)
    assert scaling_deviation(standard_system, pairs=pairs, seed=0) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(interval_systems(alphas=(0.3, 0.5, 0.7, 1.0)), st.integers(0, 300),
       st.integers(0, 2**32 - 1))
def test_scaling_deviation_equals_the_pair_by_pair_oracle(sys_, pairs, seed):
    assume(sys_ is not None)
    assert scaling_deviation(sys_, pairs, seed) == oracles.scaling_deviation(sys_, pairs, seed)


def test_scaling_deviation_across_chunks_equals_the_oracle():
    sys_ = build_interval_system(TWO_VERTEX, 0.7, orientations=[1, -1, -1, 1])
    pairs = 2 * _CHUNK + 5
    for seed in (0, 9):
        fast = scaling_deviation(sys_, pairs, seed)
        assert fast.hex() == oracles.scaling_deviation(sys_, pairs, seed).hex()
        assert 0.0 < fast <= 1e-12


def test_scaling_deviation_pair_count(standard_system):
    assert scaling_deviation(standard_system, 0) == 0.0
    with pytest.raises(ValueError, match="pairs must be >= 0"):
        scaling_deviation(standard_system, -5)


class _Replay:
    """A generator stand-in that returns branch 0 and then the given doubles."""

    def __init__(self, doubles):
        self.doubles = list(doubles)

    def integers(self, n):
        return 0

    def random(self, size=None, out=None):
        count = len(out) if out is not None else size or 1
        batch, self.doubles = self.doubles[:count], self.doubles[count:]
        if out is not None:
            out[:] = batch
            return out
        return np.array(batch) if size else batch[0]


@pytest.mark.parametrize("doubles, message", [
    # t = 0 and dt = -2^-54 / d: the angle (t + dt) % 1 rounds up to 1.0
    ([0.25, 0.5, 0.0, 0.5 - 2.0**-54], "angle must lie in"),
    # u = 1.5 puts the first point in the gap after its branch
    ([1.5, 0.5, 0.3, 0.5], "outside every branch domain"),
    ([0.5, -0.5, 0.3, 0.5], "outside every branch domain"),
], ids=["angle", "first-point", "second-point"])
def test_scaling_deviation_domain_errors_match_the_oracle(standard_system, monkeypatch,
                                                           doubles, message):
    # no generator draws these doubles: the bulk sampler gets them from its
    # draw helper, the oracle from a stand-in generator
    monkeypatch.setattr(skew, "_draws",
                        lambda rng, n, size: (np.zeros(1, np.intp), np.array([doubles])))
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _Replay(doubles))
    errors = []
    for sampler in (scaling_deviation, oracles.scaling_deviation):
        with pytest.raises(ValueError, match=message) as info:
            sampler(standard_system, 1)
        errors.append(str(info.value))
    assert errors[0] == errors[1]


def _round_by_round(rng, n, size):
    index, draws = np.empty(size, np.intp), np.empty((size, 4))
    for i, row in enumerate(draws):
        index[i] = rng.integers(n)
        rng.random(out=row)
    return index, draws


@pytest.mark.parametrize("n", [1, 2, 3, 5, 3 * 2**30])
def test_draws_read_the_round_by_round_stream(n):
    # n = 3 * 2^30 rejects a quarter of the halves, so most chunks are
    # redrawn round by round; the chunk sizes leave a high half held or not
    for seed in (0, 1):
        bulk, loop = np.random.default_rng(seed), np.random.default_rng(seed)
        for size in (1, 7, 4096, 1, 7):
            index, draws = skew._draws(bulk, n, size)
            expected_index, expected_draws = _round_by_round(loop, n, size)
            assert index.dtype == expected_index.dtype
            assert np.array_equal(index, expected_index)
            assert draws.shape == expected_draws.shape
            assert np.array_equal(draws, expected_draws)
            assert bulk.bit_generator.state == loop.bit_generator.state


def test_scaling_deviation_memory_does_not_grow_with_pairs(standard_system):
    # pairs are checked in chunks of _CHUNK; holding all of them at once
    # peaks at about 42 MiB here, the chunks at about 1.7 MiB
    tracemalloc.start()
    try:
        scaling_deviation(standard_system, 2 * 10**5, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_homothety_precondition_is_sharp(standard_system):
    # circle distance 1/2 >= 1/(2 d): after the map the angles coincide, so
    # the image pair is strictly closer than the homothety factor predicts
    b = standard_system.branches[0]
    p = SkewPoint(GDMSPoint(1, b.left + 0.3 * b.length), 0.0)
    q = SkewPoint(GDMSPoint(1, b.left + 0.3 * b.length), 0.5)
    lhs = skew_distance(standard_system, skew_map(standard_system, p),
                        skew_map(standard_system, q))
    assert lhs < b.degree * skew_distance(standard_system, p, q) - 0.1


def test_product_box_dimension(standard_system):
    assert skew_box_dimension(standard_system) == pytest.approx(2.0, abs=0.1)


def test_product_box_dimension_pinned_and_deep(standard_system):
    four = build_interval_system(make_graph(1, [(1, 1, 3)] * 4), 0.5)
    # the enumerated covers gave these default-depth fits; the CLI prints them
    assert skew_box_dimension(standard_system).hex() == "0x1.0000000000001p+1"
    assert skew_box_dimension(four).hex() == "0x1.2185197062ae3p+1"
    s = math.log(4) / math.log(3)
    assert abs(skew_box_dimension(four, depths=range(30, 41)) - (1.0 + s)) <= 1e-9


def test_circle_distance():
    assert circle_distance(0.1, 0.9) == pytest.approx(0.2)
    assert circle_distance(0.25, 0.5) == pytest.approx(0.25)


def test_periodic_point_orbit_stays(standard_system):
    base = periodic_base_point(standard_system, [0])
    points = orbit(standard_system, SkewPoint(base, 1 / 3), 20)
    assert len(points) == 21  # expanding drift has not escaped after 20 steps


def test_periodic_point_rejects_open_path(standard_system, alternating):
    from cxcdyn.gdms import build_interval_system
    sys2 = build_interval_system(alternating, 0.5)
    with pytest.raises(ValueError, match="close up"):
        periodic_base_point(sys2, [0])


def test_some_edge_cycle_multivertex(alternating):
    from cxcdyn.gdms import build_interval_system
    from cxcdyn.skew import some_edge_cycle
    sys2 = build_interval_system(alternating, 0.5)
    cycle = some_edge_cycle(sys2)
    assert len(cycle) == 2  # the only cycles alternate between the vertices
    base = periodic_base_point(sys2, cycle)
    assert len(orbit(sys2, SkewPoint(base, 0.25), 16)) == 17


def signs(orientations):
    return "".join("+" if o > 0 else "-" for o in orientations)


TWO_VERTEX = make_graph(2, [(1, 1, 2), (1, 2, 3), (2, 1, 2), (2, 1, 5)])
PERIODIC_CASES = (
    [pytest.param(make_graph(1, [(1, 1, 2), (1, 1, 2)]), orientations,
                  [[0], [1], [0, 1], [1, 1, 0]], id="two_loops" + signs(orientations))
     for orientations in ([1, -1], [-1, -1])]
    + [pytest.param(TWO_VERTEX, list(orientations), [[0], [1, 2], [1, 3], [0, 1, 3], [3, 0, 1]],
                    id="two_vertex" + signs(orientations))
       for orientations in itertools.product((1, -1), repeat=4)])


@pytest.mark.parametrize("graph, orientations, cycles", PERIODIC_CASES)
def test_periodic_point_returns_along_its_cycle(graph, orientations, cycles):
    # covers the orientation-reversing inverse branch of the pull-back
    sys_ = build_interval_system(graph, 0.5, orientations=orientations)
    for cycle in cycles:
        start = periodic_base_point(sys_, cycle)
        p = start
        for k in cycle:
            assert locate_branch(sys_, p).edge_index == k
            p = apply_map(sys_, p)
        assert p.component == start.component
        assert abs(p.coordinate - start.coordinate) <= 1e-12
