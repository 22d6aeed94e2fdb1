import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from fractions import Fraction

import cxcdyn
import oracles
from cxcdyn import dendrite
from cxcdyn.dendrite import (BranchPointError, ExternalAngle, KneadingSeq, RealQuadratic,
                             _close_pairs, _levels, _nearest_index, attractor_points,
                             branched_cover_step, default_tolerance, involution,
                             involution_center, kneading_reference, kneading_sequence,
                             overlap_test)


def test_attractor_depth_one():
    ap = attractor_points(0.5, 1)
    assert sorted(ap.points.real) == [0.0, 1.0]
    assert ap.address(0) == "0" and ap.address(1) == "1"


def test_attractor_zero_address_is_fixed_point():
    for lam in (0.3, complex(0.4, 0.2)):
        ap = attractor_points(lam, 6)
        assert ap.points[0] == 0.0  # address 000000


def test_attractor_dense_in_segment():
    pts = np.sort(attractor_points(0.5, 12).points.real)
    assert pts[0] == 0.0 and pts[-1] == pytest.approx(2.0, abs=2**-10)
    assert np.max(np.diff(pts)) <= 2**-10


def test_attractor_self_similarity():
    lam = complex(0.45, 0.35)
    shallow = attractor_points(lam, 7).points
    deep = attractor_points(lam, 8).points
    rebuilt = np.concatenate([lam * shallow, lam * shallow + 1.0])
    assert np.allclose(np.sort_complex(deep), np.sort_complex(rebuilt), atol=0)


@pytest.mark.parametrize("lam", [0.5, -0.7, complex(0.4, 0.2), complex(0.606218, 0.35),
                                 complex(-0.3, 0.7)])
@pytest.mark.parametrize("seed", [0.0, complex(0.3, -0.2)])
def test_attractor_points_match_the_concatenation(lam, seed):
    """The preallocated build equals the level-by-level concatenation bit for bit."""
    for depth in (1, 2, 3, 9, 14):
        built = attractor_points(lam, depth, seed).points
        expected = oracles.attractor_points(lam, depth, seed)
        assert built.dtype == expected.dtype and built.tobytes() == expected.tobytes()


def test_attractor_depth_guards():
    with pytest.raises(ValueError):
        attractor_points(0.5, 0)
    with pytest.raises(ValueError):
        attractor_points(0.5, 25)
    with pytest.raises(ValueError, match="modulus"):
        attractor_points(1.2, 4)


def test_involution_swaps_addresses_exactly_for_symmetric_seed():
    lam = complex(0.45, 0.35)
    depth = 10
    ap = attractor_points(lam, depth, seed=involution_center(lam))
    count = len(ap.points)
    flipped = involution(lam, ap.points)
    complement = ap.points[np.arange(count) ^ (count - 1)]  # bitwise address flip
    assert np.max(np.abs(flipped - complement)) <= 1e-12


def test_involution_swaps_addresses_up_to_contraction_for_default_seed():
    # with the fixed-point seed the identity only holds up to the seed's
    # displacement contracted depth times
    lam = 0.5
    depth = 10
    ap = attractor_points(lam, depth)
    count = len(ap.points)
    flipped = involution(lam, ap.points)
    complement = ap.points[np.arange(count) ^ (count - 1)]
    bound = abs(lam) ** depth * abs(involution_center(lam)) * 2 + 1e-12
    assert np.max(np.abs(flipped - complement)) <= bound


def test_overlap_segment_case():
    report = overlap_test(0.5, depth=14)
    assert report.verdict == "plausible"
    assert report.candidate_o == pytest.approx(1.0)
    deeper = overlap_test(0.5, depth=18)
    assert deeper.overlap_diameter < report.overlap_diameter


def test_overlap_separated_case():
    report = overlap_test(0.1, depth=12)
    assert report.verdict == "rejected"
    assert report.pair_count == 0


def test_overlap_midpoints_involution_invariant():
    lam = 0.5
    depth = 12
    tol = default_tolerance(lam, depth)
    cloud, _ = _close_pairs(lam, depth, tol)
    flipped = involution(lam, cloud)
    for z in flipped:
        assert np.min(np.abs(cloud - z)) <= tol


def test_branched_cover_undoes_branches():
    lam = complex(0.45, 0.35)
    report = overlap_test(lam, depth=14)
    pts = attractor_points(lam, 12).points
    rng = np.random.default_rng(5)
    sample = pts[rng.integers(0, len(pts), 120)]
    o = report.candidate_o
    tol = default_tolerance(lam, 12)
    for z in sample:
        first = lam * z
        if abs(first - o) > tol:  # skip points ambiguous at the branch point
            assert branched_cover_step(lam, first, 0) == pytest.approx(z, abs=1e-10)
        second = lam * involution(lam, z) + 1.0
        if abs(second - o) > tol:
            assert branched_cover_step(lam, second, 1) == pytest.approx(z, abs=1e-10)


def test_kneading_hand_iteration():
    assert kneading_sequence(0.5, 4).symbols == "1000"
    assert kneading_sequence(0.5, 1).symbols == "1"
    # the orbit behind it: 1 -> 2 -> 0 -> 0 under the two branch inverses
    assert branched_cover_step(0.5, 1.0, 0) == pytest.approx(2.0)
    assert branched_cover_step(0.5, 2.0, 1) == pytest.approx(0.0)
    assert branched_cover_step(0.5, 0.0, 0) == 0.0


def test_kneading_stability_in_depth():
    for depth in (12, 16):
        a = kneading_sequence(0.5, 32, depth=depth)
        b = kneading_sequence(0.5, 32, depth=depth + 4)
        assert a.symbols == b.symbols


def test_kneading_reference_quadratic():
    assert kneading_reference(RealQuadratic(-2), 4).symbols == "1000"
    assert kneading_reference(RealQuadratic(-2), 16).symbols == "1" + "0" * 15


def test_kneading_reference_angle():
    assert kneading_reference(ExternalAngle(Fraction(1, 2)), 3).symbols == "100"


def test_kneading_equality_with_reference():
    ours = kneading_sequence(0.5, 16)
    ref = kneading_reference(RealQuadratic(-2), 16)
    assert ours.symbols == ref.symbols == "1" + "0" * 15


def test_reference_escape_error():
    with pytest.raises(ValueError, match="escapes"):
        kneading_reference(RealQuadratic(-3), 8)


def test_reference_validation():
    with pytest.raises(ValueError):
        RealQuadratic(-1.5)
    with pytest.raises(ValueError):
        ExternalAngle(Fraction(3, 2))
    with pytest.raises(ValueError):
        KneadingSeq("102")


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 30), st.integers(1, 29))
def test_angle_reference_starts_with_one(num, den):
    # the arc containing the angle itself is labeled 1 by construction
    theta = Fraction(num % den, den)
    if theta == 0:
        theta = Fraction(1, den + 1)
    try:
        word = kneading_reference(ExternalAngle(theta), 8)
    except BranchPointError:
        return  # orbit hit a partition point: a legitimate outcome
    assert word.symbols[0] == "1"


def test_import_leaves_scipy_spatial_unloaded():
    # numpy is the only runtime dependency: neither importing cxcdyn nor
    # running the overlap probe and the kneading lookup loads any of scipy
    src = str(Path(cxcdyn.__file__).resolve().parents[1])
    code = ("import sys, cxcdyn\n"
            "from cxcdyn.dendrite import kneading_sequence, overlap_test\n"
            "overlap_test(0.5, 8)\n"
            "kneading_sequence(0.5, 4)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert result.stdout.strip() == "[]"


# --- close pairs and nearest points against the oracles ----------------------

@st.composite
def parameters(draw):
    """Complex lam with 0.2 <= |lam| <= 0.95, and negative real lam."""
    modulus = draw(st.floats(0.2, 0.95))
    if draw(st.booleans()):
        return complex(-modulus)
    angle = draw(st.floats(0.0, 2 * np.pi))
    return complex(modulus * np.cos(angle), modulus * np.sin(angle))


@settings(max_examples=120, deadline=None)
@given(parameters(), st.integers(1, 10), st.sampled_from([0.0, 0.25, 1.0, 4.0, 1e308]))
def test_close_pairs_match_all_pairs_oracle(lam, depth, scale):
    # same midpoints in the same order: the order fixes the summation order
    # of the centroid, hence every printed digit of candidate_o
    approx = attractor_points(lam, depth)
    tol = 1e308 if scale == 1e308 else scale * default_tolerance(lam, depth)
    fast, grown = _close_pairs(lam, depth, tol)
    oracle = oracles.all_pairs_midpoints(approx, tol)
    assert fast.dtype == oracle.dtype and fast.shape == oracle.shape
    assert (fast == oracle).all()
    # the walk hands back the attractor it grew, unless no pair was left
    if len(fast):
        assert (grown.lam, grown.depth, grown.seed) == (approx.lam, approx.depth, approx.seed)
        assert grown.points.tobytes() == approx.points.tobytes()
    else:
        assert grown is None
    if tol == 1e308:  # tol * tol overflows, so every pair passes
        assert len(fast) == 4 ** (depth - 1)


@pytest.mark.parametrize("lam, depth", [(0.5, 10), (complex(0.606218, 0.35), 10),
                                        (complex(0.34, 0.588897), 9)])
def test_close_pairs_oracle_on_overlapping_cases(lam, depth):
    # fixed cases with many pairs, including the dyadic ties of lam = 1/2
    approx = attractor_points(lam, depth)
    for tol in (default_tolerance(lam, depth), 0.25 * default_tolerance(lam, depth), 0.0):
        fast, _ = _close_pairs(lam, depth, tol)
        oracle = oracles.all_pairs_midpoints(approx, tol)
        assert fast.shape == oracle.shape and (fast == oracle).all()


@settings(max_examples=150, deadline=None)
@given(parameters(), st.integers(1, 12), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_nearest_index_matches_the_scan(lam, depth, re, im):
    approx = attractor_points(lam, depth)
    z = complex(re, im)
    assert _nearest_index(approx, z) == oracles.nearest_index(approx, z)


@pytest.mark.parametrize("lam", [0.5, complex(0.606218, 0.35), -0.7, complex(0.1, 0.9)])
def test_nearest_index_far_outside_the_attractor(lam):
    # far away the anchors lie within the relative slack of the nearest one;
    # huge z overflow every square to inf and NaN compares false, and there
    # the scan takes its first index
    approx = attractor_points(lam, 10)
    for z in (complex(40, -7), complex(-1e6, 3e5), complex(1e155, 1e155), complex(1e200, 0),
              complex(0, -1e300), complex("inf"), complex("nan"), complex(1e155, float("nan"))):
        with np.errstate(over="ignore", invalid="ignore"):
            assert _nearest_index(approx, z) == oracles.nearest_index(approx, z), z


def test_nearest_index_on_points_and_ties_at_one_half():
    # at lam = 1/2 the points are the dyadics k / 2^(depth-1), each computed
    # exactly, and the midpoints between neighbours tie in squared distance
    depth = 11
    approx = attractor_points(0.5, depth)
    points = np.sort(approx.points.real)
    midpoints = 0.5 * (points[1:] + points[:-1])
    for x in np.concatenate([points, midpoints, [-0.25, 2.25]]):
        z = complex(x, 0.0)
        assert _nearest_index(approx, z) == oracles.nearest_index(approx, z)
    assert _nearest_index(approx, complex(midpoints[0])) == 0  # a tie: the lower index


def test_kneading_builds_the_attractor_once(monkeypatch):
    built = []
    real = dendrite._levels
    monkeypatch.setattr(dendrite, "_levels",
                        lambda lam, depth, *rest: built.append(depth) or real(lam, depth, *rest))
    assert kneading_sequence(0.5, 8, depth=12).symbols == "10000000"
    assert sorted(built) == [8, 12]  # the shallow comparison run and the lookups'


def test_kneading_without_close_pairs_raises_and_names_the_inputs():
    # tol at most twice the approximation error finds no pair; the branch
    # point would be NaN, and no itinerary can start from it
    report = overlap_test(0.1, 10, tol=1e-12)
    assert report.pair_count == 0 and report.verdict == "inconclusive"
    with pytest.raises(ValueError, match=r"no branch point.*lam=\(0\.1\+0j\), depth=10, tol=1e-12"):
        kneading_sequence(0.1, 6, depth=10, tol=1e-12)
    with pytest.raises(ValueError, match="disjoint.*depth=12"):
        kneading_sequence(0.1, 6, depth=12)


def test_overlap_rejects_negative_or_nan_tolerance():
    for tol in (-0.05, float("nan")):
        with pytest.raises(ValueError, match="tol"):
            overlap_test(0.5, 8, tol=tol)


def test_overlap_depth_is_capped():
    with pytest.raises(ValueError, match="capped at 24"):
        overlap_test(0.3 + 0.2j, 25)


@settings(max_examples=60, deadline=None)
@given(parameters(), st.integers(1, 12))
def test_levels_are_the_shallower_attractors(lam, depth):
    # each level is read before the next one rewrites it
    views = [level.copy() for level in _levels(lam, depth)]
    assert len(views) == depth
    for level, view in enumerate(views, 1):
        expected = attractor_points(lam, level).points
        assert view.dtype == expected.dtype
        assert (view.view(np.uint64) == expected.view(np.uint64)).all()


def test_disjoint_overlap_stops_before_the_deep_levels():
    # the halves of lam = 0.3+0.2j lose every node pair a few levels down,
    # so the walk never writes most of the 256-MB depth-24 buffer.  The peak
    # is VmHWM, the high-water mark of the interpreter's own address space:
    # ru_maxrss would start from the size of the process that forked it
    src = str(Path(cxcdyn.__file__).resolve().parents[1])
    code = ("from cxcdyn.dendrite import overlap_test\n"
            "report = overlap_test(0.3 + 0.2j, 24)\n"
            "print(report.pair_count, report.verdict)\n"
            "print(next(line.split()[1] for line in open('/proc/self/status')\n"
            "           if line.startswith('VmHWM:')))\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    verdict, peak_kb = result.stdout.splitlines()
    assert verdict == "0 rejected"
    assert int(peak_kb) < 100 * 1024
