"""Slow reference paths that the package's fast paths are tested against.

The package walks the corner-shuffle atlas once, on integer numerators over
a shared denominator (``cxcdyn.pillowcase.core.Lattice``).  The walks on
``Fraction`` coordinates that it replaced are kept here as independent
oracles: the region lookup, the pointwise shuffle, the inverse branches of
doubling, the forward map, the fibers, the raster cell lookup and the
raster's fiber degrees.

The interval-system covers are pulled back on plain rows and the skew
scaling sampler runs on arrays; the cylinder-by-cylinder pull-back and the
pair-by-pair sampler they replaced are kept here too, and so are the
orbifold distance loops over all 18 translates, which the package takes as
one nearest translate per axis.

The dendrite's close pairs and nearest points come from a walk down the
address tree; the all-pairs comparison (``all_pairs_midpoints``) and the
scan of all 2^depth points (``nearest_index``) are their oracles, and the
attractor's level-by-level concatenation (``attractor_points``) is the
oracle of its preallocated build.

Closed curves lift exactly, through the tile pullback; the continuation
lifter it replaced (``continuation_preimage``), which samples the curve and
matches consecutive fibers by proximity, is kept here as their oracle, with
the dense horizontal circles it needs (``horizontal_polyline``).

The skeleton's forward invariance is decided exactly on its eight half-edges;
the check it replaced, which maps evenly spaced points of the four edges
(``sampled_skeleton_invariance``), is its oracle.

The folded-cube homothety sampler checks, maps and measures each batch of
pairs in bulk; the loop it replaced, which passes the same draws pair by pair
through the scalar ``snowflake_distance``, ``segment_clears_folds`` and
``expanding_map`` (``homothety_deviation``), is its oracle.

Folded-cube elements are boxes, and their preimage components are products
of each axis's joined copies; the flood fill over the preimage cell set and
the count of one target cell's fiber in each component that they replaced
(``cube_components``) are their oracle.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Sequence

import numpy as np

from cxcdyn.gdms import Cylinder, GDMSPoint, base_cylinder
from cxcdyn.menger import (_BATCH, _GRID, _PROPOSALS_PER_PAIR, expanding_map,
                           segment_clears_folds, snowflake_distance)
from cxcdyn.pillowcase import LiftedCurve, pillow_map, postcritical_set, preimages
from cxcdyn.pillowcase.core import (HALF, AffineRegion, OrbPoint, RatLike, check_parameter,
                                    doubling, mat, mat_vec, orb_point, point_in_triangle,
                                    shuffle_atlas)
from cxcdyn.skew import SkewPoint, skew_distance, skew_map
from cxcdyn.verify.adapters import _flood_components

IDENTITY_REGION = AffineRegion((), mat(1, 0, 0, 1), (Fraction(0), Fraction(0)))


def apply(region, p):
    v = mat_vec(region.matrix, p)
    return (v[0] + region.offset[0], v[1] + region.offset[1])


def locate(regions, p):
    """First region whose closed domain holds p; the identity off them all."""
    for region in regions:
        if point_in_triangle(p, region.domain):
            return region
    return IDENTITY_REGION


def orb_distance(p, q):
    """The orbifold distance as the minimum over both signs and all nine
    translates (m, n) in {-1, 0, 1}^2."""
    px, py = float(p.x), float(p.y)
    qx, qy = float(q.x), float(q.y)
    best = math.inf
    for sx, sy in ((qx, qy), (-qx, -qy)):
        for m in (-1.0, 0.0, 1.0):
            dx = px - sx - m
            for n in (-1.0, 0.0, 1.0):
                dy = py - sy - n
                d2 = dx * dx + dy * dy
                if d2 < best:
                    best = d2
    return math.sqrt(best)


def orb_distances(p, q):
    """``orb_distance`` between broadcast float arrays of shape (..., 2), in
    the same 18-translate loop."""
    px, py, qx, qy = p[..., 0], p[..., 1], q[..., 0], q[..., 1]
    best = np.full(np.broadcast_shapes(px.shape, qx.shape), math.inf)
    for sx, sy in ((qx, qy), (-qx, -qy)):
        for m in (-1.0, 0.0, 1.0):
            dx = px - sx - m
            for n in (-1.0, 0.0, 1.0):
                dy = py - sy - n
                np.minimum(best, dx * dx + dy * dy, out=best)
    return np.sqrt(best)


def near_shuffle(a, v):
    """Whether v in [0, 1/2] x [-1/2, 1/2] lies in one of the corner squares,
    outside which the shuffle is the identity."""
    return a != 0 and v[0] >= HALF - a and abs(v[1]) >= HALF - a


def shuffle(a, p, inverse=False):
    """The corner shuffle (or its inverse) of an ``OrbPoint``."""
    v = (p.x, p.y)
    if not near_shuffle(a, v):
        return p
    return orb_point(*apply(locate(shuffle_atlas(a, inverse), v), v))


def halvings(points):
    """The point set under each of the four inverse branches of doubling,
    p -> (p + (m, n)) / 2 for m, n in {0, 1}."""
    return [tuple(((x + m) / 2, (y + n) / 2) for x, y in points)
            for m in (0, 1) for n in (0, 1)]


def fraction_pillow_map(a, p):
    """The corner shuffle after doubling."""
    return shuffle(a, doubling(p))


def fraction_preimages(a, p):
    """The fiber of f_a over p with local degrees: the four halvings of the
    shuffled-back target, counted with coincidences."""
    v = shuffle(check_parameter(a), p, inverse=True)
    return sorted(Counter(orb_point(*q) for (q,) in halvings(((v.x, v.y),))).items())


def sampled_skeleton_invariance(a, samples=10**4):
    """Map ``samples`` points of the four skeleton edges, evenly spaced and
    taken in turn, with the package's ``pillow_map``, and check that each
    image keeps a coordinate in {0, 1/2}."""
    per_edge = max(2, -(-samples // 4))
    on_skeleton = []
    for k in range(per_edge):
        t = Fraction(k, 2 * (per_edge - 1))  # runs over [0, 1/2]
        on_skeleton += [orb_point(t, 0), orb_point(t, HALF), orb_point(0, t), orb_point(HALF, t)]
    pinned = {Fraction(0), HALF}
    return all(q.x in pinned or q.y in pinned
               for q in (pillow_map(a, p) for p in on_skeleton[:samples]))


class ContinuationError(RuntimeError):
    """Fiber matching became ambiguous; the curve needs finer sampling."""


def continuation_preimage(a: RatLike, curve: Sequence[OrbPoint], tol: float = 1e-9) -> list[LiftedCurve]:
    """All connected preimage curves of a closed polyline, with degrees.

    Requires the curve to stay tol-clear of the postcritical set, which
    keeps every fiber simple.  Degrees always sum to the covering degree 4.
    """
    a = check_parameter(a)
    if len(curve) < 3:
        raise ValueError("need a closed polyline with at least 3 vertices")
    pcs = postcritical_set(a)
    for p in curve:
        if min(orb_distance(p, q) for q in pcs) <= tol:
            raise ValueError("curve passes through (or too near) the postcritical set")

    fibers: list[list[OrbPoint]] = []
    for p in curve:
        fiber = preimages(a, p)
        if any(deg != 1 for _, deg in fiber):
            raise ValueError("curve hits a critical value; fibers are not simple")
        fibers.append([q for q, _ in fiber])

    length = len(curve)
    steps = [orb_distance(curve[k], curve[(k + 1) % length]) for k in range(length)]
    max_step = max(steps)

    remaining = set(range(4))
    lifts: list[LiftedCurve] = []
    while remaining:
        start_index = min(remaining)
        start = fibers[0][start_index]
        current = start
        points = [start]
        rounds = 0
        step = 0
        while True:
            step += 1
            fiber = fibers[step % length]
            ranked = sorted((orb_distance(current, cand), i) for i, cand in enumerate(fiber))
            (d0, i0), (d1, _) = ranked[0], ranked[1]
            if d0 > 0.49 * d1 or d0 > max_step:
                raise ContinuationError("preimage continuation ambiguous; refine the curve")
            current = fiber[i0]
            if step % length == 0:
                rounds += 1
                remaining.discard(fibers[0].index(current))
                if current == start:
                    break
                if rounds >= 8:
                    raise ContinuationError("lift failed to close; refine the curve")
            points.append(current)
        lifts.append(LiftedCurve(points=tuple(points), degree=rounds))
    if sum(c.degree for c in lifts) != 4:
        raise RuntimeError("covering degrees of the lifts do not sum to 4")
    return lifts


def horizontal_polyline(height, samples_per_side):
    """The horizontal circle at ``height`` as a closed polyline with
    ``samples_per_side`` edges along each row, as dense as the continuation
    lifter needs."""
    s = samples_per_side
    return ([orb_point(Fraction(k, 2 * s), height) for k in range(s + 1)]
            + [orb_point(Fraction(k, 2 * s), -height) for k in range(s - 1, 0, -1)])


def fraction_cell_of(grid, p):
    """The raster cell holding a canonical point."""
    return (min(int(p.x / grid.h), grid.nx - 1),
            min(int((p.y + HALF) / grid.h), grid.ny - 1))


def fraction_fiber_degrees(grid, payload, comps):
    """The pillowcase adapter's degrees over the components of a payload's
    preimage, and whether they were certified (else the fallback made them):
    the fiber of the first generic candidate cell center whose points fall in
    every component, four in all."""
    candidates = [c for c in itertools.islice(payload, 64)
                  if all(nb in payload for nb in grid.neighbors(c))]
    candidates = candidates[:8] or list(itertools.islice(payload, 8))
    for target in candidates:
        counts = [0] * len(comps)
        for point, degree in fraction_preimages(grid.a, grid.center(target)):
            cell = fraction_cell_of(grid, point)
            for idx, comp in enumerate(comps):
                if cell in comp:
                    counts[idx] += degree
                    break
        if all(c > 0 for c in counts) and sum(counts) == 4:
            return counts, True
    return [max(1, c) for c in counts], False


def pull_back(sys, b, cyl):
    """The inverse branch of the map over edge b applied to a cylinder in base(b.dst)."""
    source = sys.base(b.dst)
    ratio = sys.expansion_ratio(b)
    length = cyl.length / ratio
    if b.orientation > 0:
        left = b.left + (cyl.left - source.left) / ratio
    else:
        left = b.left + (source.right - cyl.right) / ratio
    return Cylinder(word=(b.edge_index,) + cyl.word, component=b.src,
                    terminal=cyl.terminal, left=left, length=length)


def pull_back_cover(sys, cover):
    """The cover one level deeper, one cylinder and one branch at a time."""
    return [pull_back(sys, b, cyl)
            for cyl in cover
            for b in sys.branches if b.dst == cyl.component]


def repellor_cover(sys, depth):
    cover = [base_cylinder(sys, b.vertex) for b in sys.bases]
    for _ in range(depth):
        cover = pull_back_cover(sys, cover)
    return cover


def scaling_deviation(sys, pairs, seed=0):
    """The skew homothety sampler, pair by pair through the scalar
    ``skew_map`` and ``skew_distance``."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    branches = sys.branches
    for _ in range(pairs):
        b = branches[rng.integers(len(branches))]
        u, v = rng.random(2)
        x = GDMSPoint(b.src, b.left + u * b.length)
        y = GDMSPoint(b.src, b.left + v * b.length)
        t = rng.random()
        dt = (rng.random() - 0.5) / b.degree  # |dt| < 1/(2 d)
        s = (t + dt) % 1.0
        p, q = SkewPoint(x, t), SkewPoint(y, s)
        lhs = skew_distance(sys, skew_map(sys, p), skew_map(sys, q))
        rhs = b.degree * skew_distance(sys, p, q)
        worst = max(worst, abs(lhs - rhs))
    return worst


def homothety_deviation(params, pairs, seed=0):
    """The folded-cube homothety sampler, pair by pair through the scalar
    ``snowflake_distance``, ``segment_clears_folds`` and ``expanding_map``,
    on the draws of ``cxcdyn.menger.homothety_deviation``."""
    if pairs < 0:
        raise ValueError("pairs must be >= 0")
    if max(params.factors) >= _GRID:
        raise ValueError("factors of 2^20 or more leave no scaling cell wider "
                         "than the 2^-20 sampling grid")
    rng = np.random.default_rng(seed)
    bound = 1.0 / (2.0 * max(params.factors))
    factors = np.array(params.factors, dtype=np.int64)
    shared = np.gcd(factors, _GRID)
    period = _GRID // shared
    reach = np.array([math.ceil(bound ** (1.0 / e) * _GRID) - 1 for e in params.exponents])
    worst = 0.0
    found = proposed = 0
    while found < pairs:
        size = min(pairs - found, _BATCH, _PROPOSALS_PER_PAIR * pairs - proposed)
        if size <= 0:
            raise ValueError(f"only {found} of {proposed} proposals were admissible pairs")
        proposed += size
        t = rng.integers(0, _GRID - shared, (size, params.k))
        u = t + t // (period - 1) + 1
        cell = factors * u // _GRID
        first = cell * _GRID // factors + 1
        last = -(-(cell + 1) * _GRID // factors) - 1
        v = rng.integers(np.maximum(u - reach, first), np.minimum(u + reach, last),
                         endpoint=True)
        for x, y in zip((u / _GRID).tolist(), (v / _GRID).tolist()):
            if snowflake_distance(params, x, y) >= bound:
                continue
            if not segment_clears_folds(params, x, y):
                continue
            found += 1
            lhs = snowflake_distance(params, expanding_map(params, x), expanding_map(params, y))
            rhs = 3.0 * snowflake_distance(params, x, y)
            worst = max(worst, abs(lhs - rhs))
    return worst


def all_pairs_midpoints(approx, tol):
    """Every (lower, upper) pair within tol, by lower then upper index."""
    half = len(approx.points) // 2
    lower, upper = approx.points[:half], approx.points[half:]
    dx = lower.real[:, None] - upper.real[None, :]
    dy = lower.imag[:, None] - upper.imag[None, :]
    i, j = np.nonzero(dx * dx + dy * dy <= tol * tol)
    return 0.5 * (lower[i] + upper[j])


def nearest_index(approx, z):
    """The first index of least squared distance to z, by a scan of all points."""
    dx = approx.points.real - z.real
    dy = approx.points.imag - z.imag
    return int(np.argmin(dx * dx + dy * dy))


def attractor_points(lam, depth, seed=0.0):
    """The 2^depth address images of the seed, one level at a time: the new
    leading bit is the most significant, by concatenating both maps' images."""
    pts = np.array([complex(seed)], dtype=complex)
    for _ in range(depth):
        pts = np.concatenate([lam * pts, lam * pts + 1.0])
    return pts


def cube_components(level, cells):
    """The preimage components of a set of base-3 cells of side 3^-level
    under the folded cube's map, with their degrees: the flood fill of all
    preimage cells under face adjacency, and in each component the number of
    the 3^k fiber cells of one target cell."""
    scale = 3 ** level

    def preimage_cells(cell):
        return itertools.product(*[(c, 2 * scale - 1 - c, 2 * scale + c) for c in cell])

    def neighbors(cell):
        return [cell[:axis] + (cell[axis] + delta,) + cell[axis + 1:]
                for axis in range(len(cell)) for delta in (-1, 1)]

    pre = set()
    for cell in cells:
        pre.update(preimage_cells(cell))
    comps = _flood_components(pre, neighbors)
    fiber = list(preimage_cells(next(iter(cells))))
    return [(comp, sum(cell in comp for cell in fiber)) for comp in comps]
