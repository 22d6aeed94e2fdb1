"""The square pillowcase orbifold and its perturbed doubling family.

Points live on the plane modulo the group generated by negation and integer
translations; the canonical fundamental rectangle is [0, 1/2] x (-1/2, 1/2]
with ties on its boundary broken toward nonnegative y, then lexicographically.
The family composes the doubling map with a piecewise-linear shuffle of a
small square at the (1/2, 1/2) cone point, built from three exact rational
matrices glued along triangle edges; ``shuffle_atlas`` builds it, or its
inverse, once for the pointwise maps here and the tile pullback in ``tiling``.
Everything here is exact: coordinates, matrices, orbits, postcritical sets.
Floats appear only in distances and in singular values.

The atlas is walked once, on integer numerators over one shared denominator
S (``Lattice``): ``orb_point`` on integers, the atlas scaled onto the lattice,
the move (matrix X + offset) / 2 and the inverse branches (X + m S) / 2 of
doubling.  The forward map (``LatticeMap``: 2X mod S, then the shuffle), the
shuffle alone (``perturbation``), the fibers (``preimages``) and the tile
pullback in ``tiling`` all go through it; every division is exact or raises
``LatticeError``.  ``Fraction`` remains at the boundary: the parameter,
``OrbPoint``, the tent orbit and the postcritical formula.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

RatLike = Union[int, str, Fraction]

HALF = Fraction(1, 2)
EIGHTH = Fraction(1, 8)


def _frac(value: RatLike) -> Fraction:
    if isinstance(value, float):
        raise TypeError("exact rational required; pass Fraction, int, or 'p/q' string")
    return Fraction(value)


def check_parameter(a: RatLike) -> Fraction:
    a = _frac(a)
    if not (0 <= a <= EIGHTH):
        raise ValueError("family parameter must lie in [0, 1/8]")
    return a


@dataclass(frozen=True, order=True)
class OrbPoint:
    x: Fraction
    y: Fraction


def orb_point(x: RatLike, y: RatLike) -> OrbPoint:
    """Canonical representative of (x, y) under negation plus translations.

    Negation folds x into [0, 1/2] and carries y along; y then reduces into
    (-1/2, 1/2].  On the lines x in {0, 1/2} both signs keep x, and the one
    with y >= 0 wins.  Idempotent by construction.
    """
    x, y = _frac(x), _frac(y)
    cx = x % 1
    if cx > HALF:
        cx, y = 1 - cx, -y
    cy = y % 1
    if cy > HALF:
        cy -= 1
    if cy < 0 and (cx == 0 or cx == HALF):
        cy = -cy
    return OrbPoint(cx, cy)


def involution(p: OrbPoint) -> OrbPoint:
    """The reflection y -> -y, an orientation-reversing symmetry."""
    return orb_point(p.x, -p.y)


def _nearest_square(t: float) -> float:
    """min over m in (-1, 0, 1) of (t - m)^2: one axis of the nearest translate."""
    u, v = t + 1.0, t - 1.0
    return min(u * u, t * t, v * v)


def orb_distance(p: OrbPoint, q: OrbPoint) -> float:
    """Length metric: min over sign and nearby integer translates of the
    Euclidean distance between plane representatives (geodesics lift
    straight, so the finite minimum over 18 candidates is the true value).

    For one sign, translate (m, n) has squared distance fl(A_m + B_n), with
    A_m = fl(fl(tx - m)^2) for tx = fl(px -+ qx), and B_n likewise in y.
    Rounding is monotone, so the minimum over (m, n) is fl(min A + min B):
    one nearest translate per axis gives the 18-candidate minimum bit for
    bit."""
    px, py = float(p.x), float(p.y)
    qx, qy = float(q.x), float(q.y)
    best = math.inf
    for tx, ty in ((px - qx, py - qy), (px + qx, py + qy)):
        d2 = _nearest_square(tx) + _nearest_square(ty)
        if d2 < best:
            best = d2
    return math.sqrt(best)


def _nearest_squares(t: np.ndarray) -> np.ndarray:
    """``_nearest_square`` elementwise."""
    u, v = t + 1.0, t - 1.0
    return np.minimum(np.minimum(u * u, t * t), v * v)


def orb_distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``orb_distance`` between broadcast float coordinate arrays of shape
    (..., 2): per sign, t = p - (+-q) once and the nearest translate on each
    axis, then the smaller sign.  The same IEEE operations as the scalar
    metric, so each entry equals it bit for bit; and, since rounding is
    monotone (min over m, n of fl(A_m + B_n) = fl(min A + min B)), each equals
    the minimum over all 18 translates as well."""
    px, py, qx, qy = p[..., 0], p[..., 1], q[..., 0], q[..., 1]
    same = _nearest_squares(px - qx) + _nearest_squares(py - qy)
    opposite = _nearest_squares(px + qx) + _nearest_squares(py + qy)
    return np.sqrt(np.minimum(same, opposite))


CONE_POINTS = (
    orb_point(0, 0),
    orb_point(HALF, 0),
    orb_point(0, HALF),
    orb_point(HALF, HALF),
)

# the six branch points of the doubling map: quarter-lattice classes that are
# not half-lattice classes
CRITICAL_POINTS = (
    orb_point(Fraction(1, 4), 0),
    orb_point(0, Fraction(1, 4)),
    orb_point(Fraction(1, 4), Fraction(1, 4)),
    orb_point(Fraction(1, 4), HALF),
    orb_point(HALF, Fraction(1, 4)),
    orb_point(Fraction(1, 4), Fraction(-1, 4)),
)


def doubling(p: OrbPoint) -> OrbPoint:
    """The unperturbed degree-four map induced by multiplication by 2."""
    return orb_point(2 * p.x, 2 * p.y)


# ---------------------------------------------------------------------------
# exact 2x2 rational linear algebra

Mat = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]
Vec = tuple[Fraction, Fraction]


def mat(a, b, c, d) -> Mat:
    return ((Fraction(a), Fraction(b)), (Fraction(c), Fraction(d)))


def mat_mul(m1: Mat, m2: Mat) -> Mat:
    return ((m1[0][0] * m2[0][0] + m1[0][1] * m2[1][0],
             m1[0][0] * m2[0][1] + m1[0][1] * m2[1][1]),
            (m1[1][0] * m2[0][0] + m1[1][1] * m2[1][0],
             m1[1][0] * m2[0][1] + m1[1][1] * m2[1][1]))


def mat_inv(m: Mat) -> Mat:
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if det == 0:
        raise ZeroDivisionError("singular matrix")
    return ((m[1][1] / det, -m[0][1] / det), (-m[1][0] / det, m[0][0] / det))


def mat_vec(m: Mat, v: Vec) -> Vec:
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def singular_values(m: Mat) -> tuple[float, float]:
    """Singular values (descending): eigenvalues of the square root of M M^t."""
    arr = np.array([[float(m[0][0]), float(m[0][1])], [float(m[1][0]), float(m[1][1])]])
    s = np.linalg.svd(arr, compute_uv=False)
    return float(s[0]), float(s[1])


# the three corner-shuffle matrices; the middle one is derived from its
# defining product rather than written down
VSTRETCH = mat(1, 0, 0, 2)
SHEAR = mat_mul(mat(1, Fraction(1, 2), 1, 1), mat_inv(mat(1, 1, Fraction(1, 2), 1)))
HSQUEEZE = mat(Fraction(1, 2), 0, 0, 1)

PIECE_MATRICES = (VSTRETCH, SHEAR, HSQUEEZE)

Triangle = tuple[Vec, Vec, Vec]


@dataclass(frozen=True)
class AffinePiece:
    name: str
    matrix: Mat
    domain: Triangle
    image: Triangle


def corner_pieces(a: RatLike) -> tuple[AffinePiece, ...]:
    """The three linear pieces of the corner shuffle on [0, a]^2.

    Domains tile the square below/above the slope-1/2 ray and the diagonal;
    the matrices agree on the shared edges, so first-hit lookup is sound.
    """
    a = _frac(a)
    if a <= 0:
        raise ValueError("corner pieces need a > 0")
    z, h = Fraction(0), a / 2
    d1 = ((z, z), (a, z), (a, h))
    d2 = ((z, z), (a, h), (a, a))
    d3 = ((z, z), (a, a), (z, a))
    i1 = ((z, z), (a, z), (a, a))
    i2 = ((z, z), (a, a), (h, a))
    i3 = ((z, z), (h, a), (z, a))
    return (AffinePiece("stretch", VSTRETCH, d1, i1),
            AffinePiece("shear", SHEAR, d2, i2),
            AffinePiece("squeeze", HSQUEEZE, d3, i3))


def point_in_triangle(p: Vec, tri: Triangle) -> bool:
    """Closed containment test; triangles are given counterclockwise."""
    for k in range(3):
        ax, ay = tri[k]
        bx, by = tri[(k + 1) % 3]
        cross = (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax)
        if cross < 0:
            return False
    return True


# ---------------------------------------------------------------------------
# the corner shuffle as an explicit affine atlas

@dataclass(frozen=True)
class AffineRegion:
    domain: tuple[Vec, ...]  # triangle, counterclockwise
    matrix: Mat
    offset: Vec


@functools.lru_cache(maxsize=64)
def shuffle_atlas(a: Fraction, inverse: bool = False) -> tuple[AffineRegion, ...]:
    """Affine pieces of the shuffle (or of its inverse) on both corner squares,
    built once per (a, inverse): each corner piece moved to the square at
    (1/2, 1/2), then its conjugate by y -> -y; the identity off their union."""
    if a == 0:
        return ()
    shift = HALF - a
    regions = []
    for piece in corner_pieces(a):
        m = mat_inv(piece.matrix) if inverse else piece.matrix
        tri = piece.image if inverse else piece.domain
        # u -> m (u - t) + t with t = (shift, shift)
        offset = (shift - (m[0][0] + m[0][1]) * shift, shift - (m[1][0] + m[1][1]) * shift)
        domain = tuple((x + shift, y + shift) for x, y in tri)
        regions.append(AffineRegion(domain=domain, matrix=m, offset=offset))
        # reorder to keep the mirrored triangle counterclockwise
        mirrored = [(x, -y) for x, y in domain]
        regions.append(AffineRegion(domain=(mirrored[0], mirrored[2], mirrored[1]),
                                    matrix=((m[0][0], -m[0][1]), (-m[1][0], m[1][1])),
                                    offset=(offset[0], -offset[1])))
    return tuple(regions)


# ---------------------------------------------------------------------------
# the atlas walk on integer numerators over one shared denominator

class LatticeError(RuntimeError):
    """A division on an integer lattice that is not exact."""


LatticePoint = tuple[int, int]  # numerators over a lattice's scale
ScaledRegion = tuple[tuple, tuple, tuple]  # triangle, row-major matrix, offset


class Lattice:
    """Points (X / scale, Y / scale) with integer numerators, for one ``a``:
    the one walk of the shuffle atlas, shared by the forward map, the fibers
    and the tile pullback.  ``context`` names the computation in the
    ``LatticeError`` of a division that is not exact; nothing is rounded."""

    def __init__(self, a: Fraction, scale: int, context: str):
        self.a, self.scale, self.context = a, scale, context
        self.half = self.exact(scale, 2)
        self.corner = self.numerator(HALF - a)  # where the corner squares begin
        self._atlases: dict[bool, list[ScaledRegion]] = {}

    def exact(self, num: int, den: int) -> int:
        quotient, remainder = divmod(num, den)
        if remainder:
            raise LatticeError(f"{self.context} leaves the lattice (1/{self.scale})Z^2: "
                               f"{num}/{den} is not an integer")
        return quotient

    def numerator(self, value: Fraction, factor: int | None = None) -> int:
        """``value * factor`` (by default the scale) as a checked integer."""
        factor = self.scale if factor is None else factor
        return self.exact(value.numerator * factor, value.denominator)

    def scaled_atlas(self, inverse: bool = False) -> list[ScaledRegion]:
        """``shuffle_atlas(a, inverse)`` on the lattice, built once per lattice:
        per region the triangle times the scale, the matrix (row-major) times 2
        and the offset times 2 * scale, so that ``move`` is one halving."""
        if inverse not in self._atlases:
            self._atlases[inverse] = [
                (tuple((self.numerator(x), self.numerator(y)) for x, y in region.domain),
                 tuple(self.numerator(m, 2) for row in region.matrix for m in row),
                 tuple(self.numerator(o, 2 * self.scale) for o in region.offset))
                for region in shuffle_atlas(self.a, inverse)]
        return self._atlases[inverse]

    def point(self, x: int, y: int) -> OrbPoint:
        return OrbPoint(Fraction(x, self.scale), Fraction(y, self.scale))

    def canonical(self, x: int, y: int) -> LatticePoint:
        """``orb_point`` on numerators."""
        scale, half = self.scale, self.half
        x %= scale
        if x > half:
            x, y = scale - x, -y
        y %= scale
        if y > half:
            y -= scale
        if y < 0 and (x == 0 or x == half):
            y = -y
        return x, y

    def near(self, x: int, y: int) -> bool:
        """Whether the canonical point lies in a closed corner square, outside
        which the shuffle is the identity; at a = 0 the squares shrink to the
        cone point (1/2, 1/2), which the empty atlas leaves in place."""
        return x >= self.corner and abs(y) >= self.corner

    def move(self, region: ScaledRegion, x: int, y: int) -> LatticePoint:
        """The point under the affine piece of a scaled region: (matrix X + offset) / 2."""
        _, (m00, m01, m10, m11), (ox, oy) = region
        return self.exact(m00 * x + m01 * y + ox, 2), self.exact(m10 * x + m11 * y + oy, 2)

    def shuffle(self, x: int, y: int, inverse: bool = False) -> LatticePoint:
        """The corner shuffle (or its inverse) of a canonical point: moved by the
        first region whose closed triangle holds it, then canonicalized."""
        if self.near(x, y):
            for region in self.scaled_atlas(inverse):
                if point_in_triangle((x, y), region[0]):
                    return self.canonical(*self.move(region, x, y))
        return x, y

    def halvings(self, points: Sequence[LatticePoint]) -> list[list[LatticePoint]]:
        """The four inverse branches of doubling, (X + m S) / 2 for m, n in {0, 1}."""
        halved = [(self.exact(x, 2), self.exact(y, 2)) for x, y in points]
        return [[(x + m, y + n) for x, y in halved] for m in (0, self.half) for n in (0, self.half)]

    def fiber(self, x: int, y: int) -> Counter:
        """The canonical points mapping onto (x, y), with local degrees: the
        shuffle is a homeomorphism, so they are the halvings of the point moved
        back through it, and the branch points are where halvings coincide."""
        return Counter(self.canonical(*q) for (q,) in self.halvings([self.shuffle(x, y, True)]))


class LatticeMap(Lattice):
    """``pillow_map`` on the lattice (1/scale)Z^2, which it maps into itself
    when 4 * den(a) divides the scale."""

    def __init__(self, a: Fraction, scale: int):
        super().__init__(a, scale, f"the forward map at a = {a}")
        self.scaled_atlas()  # a scale the atlas is not on fails here

    def __call__(self, x: int, y: int) -> LatticePoint:
        """The canonical numerators of f_a(x / scale, y / scale)."""
        return self.shuffle(*self.canonical(2 * x, 2 * y))


_lattice_map = functools.lru_cache(maxsize=256)(LatticeMap)


def _on_lattice(a: Fraction, p: OrbPoint) -> tuple[LatticeMap, int, int]:
    """The cached lattice over 8 L, L = lcm of the denominators of p and a,
    and p's numerators on it.  The forward map needs 4 L.  The atlas
    matrices have half-integer entries and their offsets are 1/2 - a times
    such entries, so p shuffled back lies on (1/(4 L))Z^2; halving it takes
    one factor 2 more."""
    x, y = p.x, p.y
    scale = 8 * math.lcm(x.denominator, y.denominator, a.denominator)
    return (_lattice_map(a, scale), x.numerator * (scale // x.denominator),
            y.numerator * (scale // y.denominator))


def _pillow_map(a: Fraction, p: OrbPoint) -> OrbPoint:
    """``pillow_map`` for an ``a`` already validated, for loops over points."""
    fmap, x, y = _on_lattice(a, p)
    return fmap.point(*fmap(x, y))


def pillow_map(a: RatLike, p: OrbPoint) -> OrbPoint:
    """One member of the family: the corner shuffle after doubling."""
    return _pillow_map(check_parameter(a), p)


def perturbation(a: RatLike, p: OrbPoint, inverse: bool = False) -> OrbPoint:
    """The symmetric homeomorphism supported on the corner square and its
    reflection; the identity elsewhere."""
    lattice, x, y = _on_lattice(check_parameter(a), p)
    return lattice.point(*lattice.shuffle(x, y, inverse))


# ---------------------------------------------------------------------------
# tent dynamics on the bottom edge

def tent(x: Fraction) -> Fraction:
    x = _frac(x)
    return HALF - 2 * abs(x - Fraction(1, 4))


@dataclass(frozen=True)
class TentOrbit:
    start: Fraction
    orbit: tuple[Fraction, ...]  # up to and including the first repeated value
    preperiod: int
    period: int
    pcf: bool

    @property
    def orbit_set(self) -> frozenset[Fraction]:
        return frozenset(self.orbit)


def tent_orbit(a: RatLike) -> TentOrbit:
    """Exact orbit with cycle detection.  The orbit of p/q stays in
    (1/q)Z meet [0, 1/2], so it holds at most floor(q/2) + 1 values and the
    walk closes up after at most that many steps."""
    a = _frac(a)
    if not (0 <= a <= HALF):
        raise ValueError("tent orbit needs a in [0, 1/2]")
    seen: dict[Fraction, int] = {}
    orbit: list[Fraction] = []
    x = a
    while x not in seen:
        seen[x] = len(orbit)
        orbit.append(x)
        x = tent(x)
    first = seen[x]
    return TentOrbit(start=a, orbit=tuple(orbit), preperiod=first,
                     period=len(orbit) - first, pcf=True)


# ---------------------------------------------------------------------------
# critical and postcritical data

def critical_values(a: RatLike) -> list[OrbPoint]:
    """Images of the six branch points, deduplicated."""
    a = check_parameter(a)
    return sorted({_pillow_map(a, c) for c in CRITICAL_POINTS})


def _forward_closure(a: Fraction, seeds: Iterable[OrbPoint],
                     within: set[OrbPoint]) -> set[OrbPoint]:
    """The forward orbits of the seeds while they stay in the finite set
    ``within``; the first point outside it is kept and ends the walk."""
    closure: set[OrbPoint] = set()
    frontier = list(seeds)
    while frontier:
        p = frontier.pop()
        if p in closure:
            continue
        closure.add(p)
        if p not in within:
            break
        frontier.append(_pillow_map(a, p))
    return closure


def postcritical_set(a: RatLike) -> list[OrbPoint]:
    """The forward orbits of the critical values, computed two ways.

    Route one is the closed formula: three fixed boundary points, the moved
    cone point, and the tent orbit of the parameter along the bottom edge.
    Route two iterates the actual map on the images of the branch points,
    inside the formula set until an orbit leaves it.
    A mismatch is an internal consistency error, never silently accepted.
    """
    a = check_parameter(a)
    formula = {orb_point(0, 0), orb_point(HALF, 0), orb_point(0, HALF),
               orb_point((1 - a) / 2, HALF)}
    formula |= {orb_point(t, 0) for t in tent_orbit(a).orbit_set}
    dynamical = _forward_closure(a, critical_values(a), formula)
    if formula != dynamical:
        raise RuntimeError("postcritical cross-check failed: formula "
                           f"{sorted(formula)} vs orbits {sorted(dynamical)}")
    return sorted(formula)


def preimages(a: RatLike, p: OrbPoint) -> list[tuple[OrbPoint, int]]:
    """All solutions q of f(q) = p with local degrees (degrees sum to 4), as
    ``Lattice.fiber`` finds them: the four halvings of the shuffled-back
    target, whose coincidences are exactly the branch points."""
    lattice, x, y = _on_lattice(check_parameter(a), p)
    return [(lattice.point(*q), degree) for q, degree in sorted(lattice.fiber(x, y).items())]


# ---------------------------------------------------------------------------
# expansion certificate

@dataclass(frozen=True)
class ReportPiece:
    name: str
    matrix: Mat
    domain: str
    singular_values: tuple[float, float]


@dataclass(frozen=True)
class DifferentialReport:
    pieces: tuple[ReportPiece, ...]
    min_singular_value: float
    second_iterate_bound: float
    q_disjointness: bool
    samples_checked: int


def _scaled(m: Mat, factor: int) -> Mat:
    return ((factor * m[0][0], factor * m[0][1]), (factor * m[1][0], factor * m[1][1]))


def differential_report(a: RatLike, samples: int = 10**4, seed: int = 0) -> DifferentialReport:
    """Enumerate the affine pieces of the map, certify that no tangent vector
    shrinks, and bound the second-iterate expansion.

    The one-step pieces are the pure doubling (off the corner squares) and
    doubling followed by a corner matrix.  The corner square never maps into
    itself or its reflection (checked exactly via the image slab, and by
    sampling), so a corner piece is always followed by pure doubling, which
    makes every admissible two-step composition expand by at least the
    smaller singular value of the products enumerated here.
    """
    a = check_parameter(a)
    if a == 0:
        raise ValueError("the certificate concerns the perturbed maps; need a > 0")
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    corner = corner_pieces(a)
    pieces = [ReportPiece(f"corner:{p.name}", p.matrix, "corner square piece",
                          singular_values(p.matrix)) for p in corner]
    identity2 = _scaled(mat(1, 0, 0, 1), 2)
    composed: list[tuple[str, Mat]] = [("doubling", identity2)]
    composed += [(f"doubling+{p.name}", _scaled(p.matrix, 2)) for p in corner]
    pieces += [ReportPiece(name, m, "one map step", singular_values(m))
               for name, m in composed]
    min_sv = min(singular_values(m)[1] for _, m in composed)

    # exact disjointness: the image of the corner square under the map lies in
    # the slab x <= 2a, while both corner squares lie in x >= 1/2 - a
    exact_disjoint = 2 * a < HALF - a
    rng = np.random.default_rng(seed)
    checked = 0
    sampled_ok = True
    denom = 2**20
    # the corner point (1/2 - a + u a / denom, ...) on the lattice over 4 den(a) denom
    fmap = LatticeMap(a, 4 * a.denominator * denom)
    step = 4 * a.numerator  # a / denom
    for _ in range(samples):
        u = int(rng.integers(0, denom + 1))
        v = int(rng.integers(0, denom + 1))
        checked += 1
        if fmap.near(*fmap(fmap.corner + u * step, fmap.corner + v * step)):
            sampled_ok = False
            break
    disjoint = bool(exact_disjoint and sampled_ok)

    after_corner = [identity2]  # corner pieces are always followed by doubling
    after_doubling = [m for _, m in composed]
    bound = math.inf
    for _, first in composed:
        successors = after_doubling if first == identity2 else after_corner
        for second in successors:
            bound = min(bound, singular_values(mat_mul(second, first))[1])
    return DifferentialReport(pieces=tuple(pieces), min_singular_value=min_sv,
                              second_iterate_bound=bound, q_disjointness=disjoint,
                              samples_checked=checked)


def family_deviation(a1: RatLike, a2: RatLike, grid: int = 24) -> float:
    """Sup over a coordinate grid of the displacement between two family
    members; a numerical modulus of continuity in the parameter."""
    a1, a2 = check_parameter(a1), check_parameter(a2)
    if grid < 1:
        raise ValueError(f"grid must be at least 1, got {grid}")
    scale = 4 * math.lcm(2 * grid, a1.denominator, a2.denominator)
    step = scale // (2 * grid)
    points = [(i * step, (jj - grid) * step)
              for i in range(grid + 1) for jj in range(2 * grid + 1)]
    # X / scale rounds once, as float(Fraction(X, scale)) does
    images = [np.array([[c / scale for c in fmap(x, y)] for x, y in points])
              for fmap in (LatticeMap(a1, scale), LatticeMap(a2, scale))]
    return float(orb_distances(*images).max())
