import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from fractions import Fraction

import cxcdyn
from cxcdyn.dendrite import (BranchPointError, ExternalAngle, KneadingSeq, RealQuadratic,
                             _close_pair_midpoints, attractor_points,
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
    cloud = _close_pair_midpoints(attractor_points(lam, depth), tol)
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


# --- close pairs against the all-pairs oracle --------------------------------

def all_pairs_midpoints(approx, tol):
    """Every (lower, upper) pair within tol, by lower then upper index."""
    half = len(approx.points) // 2
    lower, upper = approx.points[:half], approx.points[half:]
    dx = lower.real[:, None] - upper.real[None, :]
    dy = lower.imag[:, None] - upper.imag[None, :]
    i, j = np.nonzero(dx * dx + dy * dy <= tol * tol)
    return 0.5 * (lower[i] + upper[j])


@settings(max_examples=120, deadline=None)
@given(st.floats(0.2, 0.75), st.floats(0.0, 2 * np.pi), st.integers(1, 10))
def test_close_pairs_match_all_pairs_oracle(modulus, angle, depth):
    # same midpoints in the same order: the order fixes the summation order
    # of the centroid, hence every printed digit of candidate_o
    lam = complex(modulus * np.cos(angle), modulus * np.sin(angle))
    approx = attractor_points(lam, depth)
    tol = default_tolerance(lam, depth)
    fast = _close_pair_midpoints(approx, tol)
    oracle = all_pairs_midpoints(approx, tol)
    assert fast.dtype == oracle.dtype and fast.shape == oracle.shape
    assert (fast == oracle).all()


@pytest.mark.parametrize("lam, depth", [(0.5, 10), (complex(0.606218, 0.35), 10),
                                        (complex(0.34, 0.588897), 9)])
def test_close_pairs_oracle_on_overlapping_cases(lam, depth):
    # fixed cases with many pairs, including the dyadic ties of lam = 1/2
    approx = attractor_points(lam, depth)
    for tol in (default_tolerance(lam, depth), 0.25 * default_tolerance(lam, depth), 0.0):
        fast, oracle = _close_pair_midpoints(approx, tol), all_pairs_midpoints(approx, tol)
        assert fast.shape == oracle.shape and (fast == oracle).all()


def test_overlap_rejects_negative_or_nan_tolerance():
    for tol in (-0.05, float("nan")):
        with pytest.raises(ValueError, match="tol"):
            overlap_test(0.5, 8, tol=tol)
