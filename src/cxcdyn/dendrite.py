"""Planar pair-of-similarities attractors, their overlap test, the induced
degree-two branched cover, and kneading sequences.

The maps z -> lam z and z -> lam z + 1 generate an attractor invariant under
the involution z -> -z + 1/(1 - lam).  When the two halves meet in a single
point o, the first map and (second map after the involution) are inverse
branches of a degree-two branched self-cover q of the attractor, branched at
o.  The kneading sequence is the itinerary of o under q relative to the two
halves, the half containing q(o) labeled 1; for comparison, reference
itineraries come from real quadratic polynomials on a real slice and from
angle doubling on the circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

import numpy as np


class BranchPointError(ValueError):
    """An itinerary point fell inside the ambiguity radius of the branch point."""


def _check_param(lam: complex) -> complex:
    lam = complex(lam)
    if not (0.0 < abs(lam) < 1.0):
        raise ValueError("parameter must have modulus strictly between 0 and 1")
    return lam


def involution(lam: complex, z: complex) -> complex:
    """The symmetry swapping the two attractor halves."""
    return -z + 1.0 / (1.0 - lam)


def involution_center(lam: complex) -> complex:
    """The fixed point of the involution (center of symmetry)."""
    return 0.5 / (1.0 - lam)


def default_tolerance(lam: complex, depth: int) -> float:
    """Four times the contraction error bound of a depth-m approximation."""
    r = abs(complex(lam))
    return 4.0 * r**depth / (1.0 - r)


@dataclass(frozen=True)
class AttractorApprox:
    """All depth-m address images of a seed point.

    The point at index i is the composition F_{w_1} o ... o F_{w_m} applied
    to the seed, where w_1..w_m are the bits of i from most significant
    down.  The leading bit says which half the point approximates.
    """

    lam: complex
    depth: int
    seed: complex
    points: np.ndarray

    def address(self, index: int) -> str:
        return format(index, f"0{self.depth}b")


def _levels(lam: complex, depth: int, seed: complex = 0.0) -> Iterator[np.ndarray]:
    """Grow the attractor one address bit at a time: yield the level-l
    points, a view ``pts[:2**l]`` of one buffer, for l = 1..depth.  Growing
    the next level rewrites the view, so read it before advancing."""
    lam = _check_param(lam)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > 24:
        raise ValueError("depth capped at 24 to bound memory")
    pts = np.empty(1 << depth, dtype=complex)
    pts[0] = seed
    for level in range(depth):
        # the new leading bit is the most significant; lam * low is written
        # beside low once (in place it may round differently) and copied down
        low, high = pts[:1 << level], pts[1 << level:2 << level]
        np.multiply(lam, low, out=high)
        low[:] = high
        high += 1.0
        yield pts[:2 << level]


def attractor_points(lam: complex, depth: int, seed: complex = 0.0) -> AttractorApprox:
    """Generate the 2^depth address images of the seed (default: the fixed
    point of the first map)."""
    for points in _levels(lam, depth, seed):
        pass
    return AttractorApprox(lam=complex(lam), depth=depth, seed=complex(seed), points=points)


@dataclass(frozen=True)
class OverlapReport:
    lam: complex
    depth: int
    tol: float
    pair_count: int
    overlap_diameter: float
    candidate_o: complex
    verdict: str  # plausible | rejected | inconclusive


# pairs per block of the midpoint fill, which bounds its temporaries
_MIDPOINT_CHUNK = 1 << 16


def _close_pairs(lam: complex, depth: int, tol: float) -> tuple[np.ndarray, AttractorApprox | None]:
    """Midpoints of the pairs (p, q), p from the 0-half and q from the
    1-half of the depth-m attractor grown from seed 0, with
    dx*dx + dy*dy <= tol*tol, ordered by p's index, then q's; and that
    attractor, or None when no pair is left.

    A walk down the address tree, grown along with the attractor.  The
    points under a prefix w of length l are F_w(0) + lam^l z, and
    z = sum_k v_k lam^k over the suffix bits lies within 1/(2 - 2|lam|) of
    c = sum_k lam^k / 2.  So two nodes hold a pair within tol only if their
    anchors F_w(0), the level-l points w, lie within tol + r_l,
    r_l = |lam|^l / (1 - |lam|), plus a slack of 1e-9 * (1 + 1/(1 - |lam|))
    for rounding in the stored points.  Leaves take the scan's test on the
    same floats; an overflowing tol*tol keeps all.  The walk stops at the
    first level where no pair survives, before growing the deeper levels.
    """
    lam = _check_param(lam)
    r = abs(lam)
    slack = 1e-9 * (1.0 + 1.0 / (1.0 - r))
    # node pairs by level-l index, below 2^24 by the depth cap; the children
    # of node k are 2k and 2k + 1, the level-(l+1) points points[0::2][k]
    # and points[1::2][k]
    a = b = np.zeros(1, dtype=np.int32)
    for level, points in enumerate(_levels(lam, depth), 1):
        bound = tol + r**level / (1.0 - r) + slack if level < depth else tol
        kept = []
        # the first level pairs the two halves; each offset is filtered alone
        for da, db in [(0, 1)] if level == 1 else [(0, 0), (0, 1), (1, 0), (1, 1)]:
            d = points[da::2][a]
            d -= points[db::2][b]
            keep = d.real * d.real + d.imag * d.imag <= bound * bound
            del d  # before the next gather: d is the walk's largest array
            kept.append((2 * a[keep] + da, 2 * b[keep] + db))
        a, b = (np.concatenate(side) for side in zip(*kept))
        del kept  # its pieces duplicate a and b
        if len(a) == 0:
            return np.empty(0, dtype=complex), None
    # sort by one int64 key, then fill 0.5 * (p + q) a block at a time
    key = a.astype(np.int64) << depth | b
    del a, b  # before the midpoints
    key.sort()
    midpoints = np.empty(len(key), dtype=complex)
    for start in range(0, len(key), _MIDPOINT_CHUNK):
        block, out = key[start:start + _MIDPOINT_CHUNK], midpoints[start:start + _MIDPOINT_CHUNK]
        np.take(points, block >> depth, out=out)
        out += points[block & ((1 << depth) - 1)]
        out *= 0.5
    return midpoints, AttractorApprox(lam=lam, depth=depth, seed=0j, points=points)


def overlap_test(lam: complex, depth: int = 14, tol: float | None = None) -> OverlapReport:
    """Probe whether the two attractor halves meet in a single point.

    Collects pairs (p, q), p from the 0-half and q from the 1-half, within
    tol of each other; the midpoint cloud stands in for the intersection.
    The verdict is heuristic: sampling cannot certify a singleton overlap,
    only make it plausible or refute it at the stated tolerance.
    """
    return _overlap(lam, depth, tol)[0]


def _overlap(lam: complex, depth: int,
             tol: float | None) -> tuple[OverlapReport, AttractorApprox | None]:
    """The overlap test and the depth-m attractor it ran on, or None when
    no pair is left."""
    lam = _check_param(lam)
    if depth < 6:
        raise ValueError("depth must be >= 6 so a shallower comparison run exists")
    if tol is None:
        tol = default_tolerance(lam, depth)
    if not 0 <= tol < math.inf:
        raise ValueError("tol must be a finite nonnegative number")
    approx_error = abs(lam) ** depth / (1.0 - abs(lam))
    deep, approx = _close_pairs(lam, depth, tol)
    shallow, _ = _close_pairs(lam, depth - 4, default_tolerance(lam, depth - 4))

    def diameter(cloud: np.ndarray) -> float:
        return float(np.hypot(np.ptp(cloud.real), np.ptp(cloud.imag))) if len(cloud) else 0.0

    if len(deep) == 0:
        verdict = "rejected" if tol > 2.0 * approx_error else "inconclusive"
        return OverlapReport(lam=lam, depth=depth, tol=tol, pair_count=0,
                             overlap_diameter=0.0, candidate_o=complex("nan"),
                             verdict=verdict), approx
    diam_deep, diam_shallow = diameter(deep), diameter(shallow)
    # a singleton overlap shrinks the midpoint cloud like the tolerance,
    # i.e. by |lam|^4 over the four extra levels, while a fat intersection
    # plateaus; |lam|^2 separates the two regimes with margin on both sides
    ratio_bound = abs(lam) ** 2
    shrinks = len(shallow) > 0 and (diam_deep <= ratio_bound * diam_shallow
                                    or diam_deep <= 4.0 * tol)
    # a singleton overlap is involution-fixed, so symmetrizing the centroid
    # cancels the bias the seed choice imprints on the midpoint cloud
    centroid = complex(deep.mean())
    candidate = 0.5 * (centroid + involution(lam, centroid))
    return OverlapReport(lam=lam, depth=depth, tol=tol, pair_count=len(deep),
                         overlap_diameter=diam_deep, candidate_o=candidate,
                         verdict="plausible" if shrinks else "inconclusive"), approx


def branched_cover_step(lam: complex, z: complex, half: int) -> complex:
    """One step of the degree-two cover: invert the branch over ``half``.

    Half 0 inverts z -> lam z; half 1 inverts the composition of the second
    map with the involution, which works out to -(z - 1)/lam + 1/(1 - lam).
    """
    lam = _check_param(lam)
    if half == 0:
        return z / lam
    if half == 1:
        return -(z - 1.0) / lam + 1.0 / (1.0 - lam)
    raise ValueError("half must be 0 or 1")


@dataclass(frozen=True)
class KneadingSeq:
    symbols: str

    def __post_init__(self):
        if not set(self.symbols) <= {"0", "1"}:
            raise ValueError("kneading symbols must be over {0, 1}")

    @property
    def length(self) -> int:
        return len(self.symbols)

    def __str__(self) -> str:
        return self.symbols


def _nearest_index(approx: AttractorApprox, z: complex) -> int:
    """The first index of least (x - z.x)**2 + (y - z.y)**2, as a scan finds
    it.  Walks the tree of ``_close_pairs``: a node's points lie
    within r_l of its anchor, which is a point, so a node farther than the
    nearest anchor by r_l and the slack holds none.  NaN keeps every node."""
    depth, points, r = approx.depth, approx.points, abs(approx.lam)
    slack = 1e-9 * (1.0 + 1.0 / (1.0 - r))
    index = np.zeros(1, dtype=np.int64)
    for level in range(1, depth + 1):
        # children in ascending order, so argmin keeps the scan's tie-break
        index = np.stack([index, index + (1 << (depth - level))], axis=1).ravel()
        dx, dy = points.real[index] - z.real, points.imag[index] - z.imag
        if level < depth:
            dist = np.hypot(dx, dy)
            # the relative term covers rounding in the leaves' squares
            far = dist - r**level / (1.0 - r) > dist.min() * (1.0 + 1e-9) + slack
            index = index[~far]
    return int(index[np.argmin(dx * dx + dy * dy)])


def kneading_sequence(lam: complex, n: int, depth: int = 16,
                      tol: float | None = None) -> KneadingSeq:
    """Itinerary of the branch point under the degree-two cover.

    Membership in a half is decided by the leading address bit of the
    nearest approximation point; an iterate within tol of the branch point
    itself is ambiguous and raises.  The half containing the first iterate
    is labeled 1 by convention.  Each lookup walks the address tree down to
    the few leaves that can be nearest, not over all 2^depth points.
    """
    lam = _check_param(lam)
    if n < 1:
        raise ValueError("n must be >= 1")
    report, approx = _overlap(lam, depth, tol)
    if report.pair_count == 0:
        reason = ("halves appear disjoint at this tolerance" if report.verdict == "rejected"
                  else "tol is at most twice the approximation error")
        raise ValueError(f"no branch point: {reason} (lam={lam}, depth={depth}, tol={report.tol})")
    o, tol = report.candidate_o, report.tol
    z = o / lam  # both branch inverses agree at the branch point
    first_half = _nearest_index(approx, z) >> (depth - 1)
    symbols = []
    for _ in range(n):
        if abs(z - o) <= tol:
            raise BranchPointError("itinerary hits branch point")
        half = _nearest_index(approx, z) >> (depth - 1)  # the leading address bit
        symbols.append("1" if half == first_half else "0")
        z = branched_cover_step(lam, z, half)
    return KneadingSeq("".join(symbols))


@dataclass(frozen=True)
class RealQuadratic:
    """Reference source: z -> z^2 + c on the real slice of its Julia set."""

    c: float

    def __post_init__(self):
        if self.c > -2:
            raise ValueError("real reference requires c <= -2")


@dataclass(frozen=True)
class ExternalAngle:
    """Reference source: angle doubling relative to the halving partition."""

    theta: Fraction

    def __post_init__(self):
        theta = Fraction(self.theta)
        if not (0 <= theta < 1):
            raise ValueError("angle must be a rational in [0, 1)")
        object.__setattr__(self, "theta", theta)


ReferenceSource = Union[RealQuadratic, ExternalAngle]


def kneading_reference(source: ReferenceSource, n: int) -> KneadingSeq:
    """Comparison kneading sequences from classical symbolic dynamics."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(source, RealQuadratic):
        c = float(source.c)
        escape = 2.0 + abs(c)
        symbols = []
        z = c  # first image of the critical point
        for _ in range(n):
            if abs(z) > escape:
                raise ValueError("orbit escapes: not in Julia set regime")
            if z == 0.0:
                raise BranchPointError("itinerary hits the partition point 0")
            symbols.append("1" if z < 0 else "0")  # the piece containing c is negative
            z = z * z + c
        return KneadingSeq("".join(symbols))
    if isinstance(source, ExternalAngle):
        theta = source.theta
        t = theta
        symbols = []
        for _ in range(n):
            rel = (t - theta / 2) % 1
            if rel == 0 or rel == Fraction(1, 2):
                raise BranchPointError("itinerary hits a partition point")
            symbols.append("1" if rel < Fraction(1, 2) else "0")
            t = (2 * t) % 1
        return KneadingSeq("".join(symbols))
    raise TypeError(f"unknown reference source {source!r}")
