"""Concrete adapters feeding the cover-refinement diagnostics.

Four systems plug in: the graph-directed interval system (cylinders are
exact intervals), its circle skew product (cylinder times arc), the real
slice of the pair-of-similarities attractor at parameter 1/2 (where the
branched cover is the tent map on [0, 2], so preimages are exact), and the
pillowcase family (rasterized on a dyadic grid, with exact fiber counts for
degrees).  A folded-cube adapter covers the all-3 reflecting case: every
element is a box of base-3 cells, the preimage of a box is the product of its
axes' preimages, and under face adjacency the components of that product are
the products of each axis's joined copies, so none is flood-filled.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from ..gdms import (Cylinder, GDMSPoint, IntervalSystem, apply_map, base_cylinder,
                    cylinder_from_word, distance, edge_path, pull_back_cover)
from ..menger import MengerParams, expanding_map
from ..pillowcase.core import LatticeMap, OrbPoint, _pillow_map, check_parameter, orb_distance, \
    orb_distances, orb_point
from ..skew import SkewPoint, skew_distance, skew_map
from .core import Adapter


def _flood_components(cells, neighbors) -> list[frozenset]:
    """Connected components of a cell set under a neighbor function."""
    remaining = set(cells)
    components = []
    while remaining:
        seed = remaining.pop()
        bucket = {seed}
        frontier = [seed]
        while frontier:
            cell = frontier.pop()
            for nb in neighbors(cell):
                if nb in remaining:
                    remaining.discard(nb)
                    bucket.add(nb)
                    frontier.append(nb)
        components.append(frozenset(bucket))
    return components


# ---------------------------------------------------------------------------
# interval system

def gdms_adapter(sys: IntervalSystem, snowflaked: bool = False) -> Adapter:
    alpha = sys.alpha

    def _scale(value: float) -> float:
        return value ** alpha if snowflaked else value

    def initial() -> list[Cylinder]:
        return [base_cylinder(sys, b.vertex) for b in sys.bases]

    def components(cyl: Cylinder) -> list[tuple[Cylinder, int]]:
        return [(c, 1) for c in pull_back_cover(sys, [cyl])]

    def samples(cyl: Cylinder, k: int, rng) -> list[GDMSPoint]:
        return [GDMSPoint(cyl.component, cyl.left + Fraction(i + 1, k + 1) * cyl.length)
                for i in range(k)]

    def forward(cyl: Cylinder) -> list[Cylinder]:
        if len(cyl.word) > 1:
            return [cylinder_from_word(sys, cyl.word[1:])]
        leading = edge_path(sys, cyl.word) or sys.branches_from(cyl.component)
        return [base_cylinder(sys, b.dst) for b in leading]

    return Adapter(
        name=f"gdms(alpha={alpha}{', snowflaked' if snowflaked else ''})",
        evaluate=lambda p: apply_map(sys, p),
        initial_cover=initial,
        preimage_components=components,
        diameter=lambda c: _scale(c.length),
        metric=lambda p, q: distance(sys, p, q, snowflaked=snowflaked),
        sample_points=samples,
        basepoint=lambda c: GDMSPoint(c.component, c.left + c.length / 2),
        distance_to_complement=lambda c, p: _scale(min(p.coordinate - c.left,
                                                       c.right - p.coordinate)),
        outradius=lambda c, p: _scale(max(p.coordinate - c.left,
                                          c.right - p.coordinate)),
        is_subset=lambda small, big: (small.component == big.component
                                      and small.word[:len(big.word)] == big.word),
        forward_step=forward,
        covered_component=lambda c: c.component if not c.word else None,
        all_components=frozenset(range(1, sys.graph.vertex_count + 1)),
    )


# ---------------------------------------------------------------------------
# skew product

@dataclass(frozen=True)
class SkewCell:
    cylinder: Cylinder
    arc_start: float
    arc_length: float  # 1.0 means the full circle


def skew_adapter(sys: IntervalSystem, arcs0: Optional[int] = None) -> Adapter:
    base = gdms_adapter(sys, snowflaked=True)
    if arcs0 is None:
        # initial arc extent below 1/(2 max degree)
        arcs0 = 2 * max(b.degree for b in sys.branches) + 1
    elif arcs0 < 1:
        raise ValueError(f"arcs0 must be >= 1, got {arcs0}")

    def initial() -> list[SkewCell]:
        return [SkewCell(cyl, i / arcs0, 1.0 / arcs0)
                for cyl in base.initial_cover() for i in range(arcs0)]

    def components(cell: SkewCell) -> list[tuple[SkewCell, int]]:
        out = []
        for cyl, _ in base.preimage_components(cell.cylinder):
            degree = sys.branches[cyl.word[0]].degree
            if cell.arc_length >= 1.0:
                out.append((SkewCell(cyl, 0.0, 1.0), degree))
            else:
                for i in range(degree):
                    start = ((cell.arc_start + i) / degree) % 1.0
                    out.append((SkewCell(cyl, start, cell.arc_length / degree), 1))
        return out

    def samples(cell: SkewCell, k: int, rng) -> list[SkewPoint]:
        points = base.sample_points(cell.cylinder, k, rng)
        return [SkewPoint(p, (cell.arc_start + (i + 1) / (k + 1) * cell.arc_length) % 1.0)
                for i, p in enumerate(points)]

    def dtc(cell: SkewCell, p: SkewPoint) -> float:
        base_exit = base.distance_to_complement(cell.cylinder, p.base)
        if cell.arc_length >= 1.0:
            return base_exit
        u = (p.angle - cell.arc_start) % 1.0
        if u > cell.arc_length:
            return 0.0
        return min(base_exit, u, cell.arc_length - u)

    def outradius(cell: SkewCell, p: SkewPoint) -> float:
        # on the full circle max(u, 1 - u) >= 1/2, so the arc term is 1/2
        u = (p.angle - cell.arc_start) % 1.0
        return base.outradius(cell.cylinder, p.base) + min(max(u, cell.arc_length - u), 0.5)

    def subset(small: SkewCell, big: SkewCell) -> bool:
        offset = (small.arc_start - big.arc_start) % 1.0
        return base.is_subset(small.cylinder, big.cylinder) and (
            big.arc_length >= 1.0 or offset + small.arc_length <= big.arc_length + 1e-12)

    return Adapter(
        name=f"skew(alpha={sys.alpha})",
        evaluate=lambda p: skew_map(sys, p),
        initial_cover=initial,
        preimage_components=components,
        diameter=lambda c: base.diameter(c.cylinder) + min(c.arc_length, 0.5),
        metric=lambda p, q: skew_distance(sys, p, q),
        sample_points=samples,
        basepoint=lambda c: SkewPoint(base.basepoint(c.cylinder),
                                      (c.arc_start + c.arc_length / 2) % 1.0),
        distance_to_complement=dtc,
        outradius=outradius,
        is_subset=subset,
    )


# ---------------------------------------------------------------------------
# the real attractor slice at parameter 1/2: the branched cover is the tent
# map z -> 2z on [0, 1], 4 - 2z on [1, 2], branched at 1 over 2

Interval = tuple[float, float]


def dendrite_adapter() -> Adapter:

    def evaluate(z: float) -> float:
        return 2.0 * z if z <= 1.0 else 4.0 - 2.0 * z

    def components(iv: Interval) -> list[tuple[Interval, int]]:
        lo, hi = iv
        if hi >= 2.0:
            return [((lo / 2.0, 2.0 - lo / 2.0), 2)]  # branches join at the branch point
        return [((lo / 2.0, hi / 2.0), 1), ((2.0 - hi / 2.0, 2.0 - lo / 2.0), 1)]

    def samples(iv: Interval, k: int, rng) -> list[float]:
        lo, hi = iv
        return [lo + (hi - lo) * (i + 1) / (k + 1) for i in range(k)]

    def dtc(iv: Interval, z: float) -> float:
        lo, hi = iv
        exits = ([z - lo] if lo > 0.0 else []) + ([hi - z] if hi < 2.0 else [])
        return min(exits, default=float("inf"))

    return Adapter(
        name="dendrite-slice(1/2)",
        evaluate=evaluate,
        initial_cover=lambda: [(0.0, 1.1), (0.9, 2.0)],
        preimage_components=components,
        diameter=lambda iv: iv[1] - iv[0],
        metric=lambda z, w: abs(z - w),
        sample_points=samples,
        basepoint=lambda iv: 0.5 * (iv[0] + iv[1]),
        distance_to_complement=dtc,
        outradius=lambda iv, z: max(z - iv[0], iv[1] - z),
        is_subset=lambda small, big: big[0] <= small[0] and small[1] <= big[1],
    )


# ---------------------------------------------------------------------------
# pillowcase on a dyadic raster

Cell = tuple[int, int]


class _PillowGrid:
    """Dyadic cells over the fundamental rectangle with edge identifications.

    Cell centers are dyadic and lie strictly inside the rectangle, so the
    float table ``xy`` holds them exactly and already canonical.  The centers,
    their images and their fibers are numerators on one lattice over
    8 lcm(2 ny, den(a)) (see ``core._on_lattice``).

    Cells are also numbered flat, i ny + j, which is their tuple order.  The
    metric hooks read integer tables on flat indices: ``nb``, the four
    ``neighbors`` of each cell, and ``squared``, the squared orbifold
    distance between two centers in units of (2 ny)^-2.  The latter equals
    ``orb_distances`` on the centers bit for bit: every center coordinate is
    a multiple of 1/(2 ny), so each difference, translate, square and sum
    that ``orb_distances`` takes is exact, its squared distance is K/(2 ny)^2
    for the integer K here, that quotient is exact in floats, and ``sqrt``
    is monotone."""

    def __init__(self, a, resolution: int):
        self.a = check_parameter(a)
        if resolution < 1:
            raise ValueError(f"resolution must be >= 1, got {resolution}")
        self.ny = 2 ** resolution
        self.nx = self.ny // 2
        self.h = Fraction(1, self.ny)
        self.lattice = LatticeMap(self.a, 8 * math.lcm(2 * self.ny, self.a.denominator))
        self._imap: Optional[np.ndarray] = None
        i, j = np.meshgrid(np.arange(self.nx), np.arange(self.ny), indexing="ij")
        self.xy = np.stack(((2 * i + 1) / (2 * self.ny), (2 * j + 1) / (2 * self.ny) - 0.5),
                           axis=-1)
        self.centers = self.xy.reshape(-1, 2)

    def center(self, cell: Cell) -> OrbPoint:
        return self.lattice.point(*self.numerators(cell))

    def _cell(self, x: int, y: int) -> Cell:
        """The cell holding the canonical lattice point (x, y), by integer
        floor division."""
        scale = self.lattice.scale
        return (min(x * self.ny // scale, self.nx - 1),
                min((y + self.lattice.half) * self.ny // scale, self.ny - 1))

    def numerators(self, cell: Cell) -> tuple[int, int]:
        """The cell's center on the lattice."""
        unit = self.lattice.scale // (2 * self.ny)
        return (2 * cell[0] + 1) * unit, (2 * cell[1] + 1) * unit - self.lattice.half

    def neighbors(self, cell: Cell) -> list[Cell]:
        i, j = cell
        return [(i - 1, j) if i > 0 else (0, self.ny - 1 - j),
                (i + 1, j) if i + 1 < self.nx else (self.nx - 1, self.ny - 1 - j),
                (i, j - 1) if j > 0 else (i, self.ny - 1),
                (i, j + 1) if j + 1 < self.ny else (i, 0)]

    @functools.cached_property
    def nb(self) -> np.ndarray:
        """Flat indices of the ``neighbors`` of each flat cell, (nx ny, 4)."""
        cells = ((i, j) for i in range(self.nx) for j in range(self.ny))
        flat = np.fromiter((self.flat(nb) for cell in cells for nb in self.neighbors(cell)),
                           dtype=np.int64, count=4 * self.nx * self.ny)
        return flat.reshape(-1, 4)

    @functools.cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Squared distances over the same sign, indexed by (i - i' + nx - 1,
        j - j' + ny - 1), and over opposite signs, indexed by (i + i', j + j'),
        each the sum of one nearest translate per axis; raveled, so that with
        key(i, j) = i (2 ny - 1) + j their flat indices are
        key(p) - key(q) + key(nx - 1, ny - 1) and key(p) + key(q)."""
        period = 2 * self.ny

        def nearest(t: np.ndarray) -> np.ndarray:
            return np.minimum(np.minimum((t + period) ** 2, t * t), (t - period) ** 2)

        di, dj = np.arange(1 - self.nx, self.nx), np.arange(1 - self.ny, self.ny)
        si, sj = np.arange(2 * self.nx - 1), np.arange(2 * self.ny - 1)
        same = np.add.outer(nearest(2 * di), nearest(2 * dj))
        opposite = np.add.outer(nearest(2 * si + 2), nearest(2 * sj + 2 - period))
        return same.ravel(), opposite.ravel()

    def squared(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Squared orbifold distances between the centers of broadcast flat
        cell arrays, in units of (2 ny)^-2."""
        same, opposite = self._tables
        # key(i, j) = i (2 ny - 1) + j = flat + i (ny - 1)
        kp = p + p // self.ny * (self.ny - 1)
        kq = q + q // self.ny * (self.ny - 1)
        middle = (self.nx - 1) * (2 * self.ny - 1) + self.ny - 1
        return np.minimum(same.take(kp + middle - kq), opposite.take(kp + kq))

    def members(self, flats: np.ndarray) -> np.ndarray:
        """Boolean membership mask over flat cells."""
        mask = np.zeros(self.nx * self.ny, dtype=bool)
        mask[flats] = True
        return mask

    def ring(self, flats: np.ndarray) -> np.ndarray:
        """Flat cells adjacent to a cell set but outside it, with repeats."""
        ring = self.nb[flats].ravel()
        return ring[~self.members(flats)[ring]]

    @property
    def image_map(self) -> np.ndarray:
        """Flat index of the cell holding the image of each cell center."""
        if self._imap is None:
            flat = [self.flat(self._cell(*self.lattice(*self.numerators((i, j)))))
                    for i in range(self.nx) for j in range(self.ny)]
            self._imap = np.array(flat, dtype=np.int64).reshape(self.nx, self.ny)
        return self._imap

    def flat(self, cell: Cell) -> int:
        return cell[0] * self.ny + cell[1]


def _xy(p: OrbPoint) -> np.ndarray:
    return np.array([float(p.x), float(p.y)])


def pillowcase_adapter(a, resolution: int, cover: str = "faces",
                       disk_radius: float = 0.15) -> Adapter:
    """Rasterized adapter; resolution is the dyadic exponent of the grid.

    Components are flood-filled on the grid (components meeting only at a
    cone point may merge: a documented rasterization approximation); degrees
    come from exact fiber counts over a generic sampled cell center.  An
    element of one cell is not refined: its rasterized preimage is about one
    cell again, so refining it is a ValueError naming the resolution.
    """
    grid = _PillowGrid(a, resolution)

    def initial() -> list[frozenset[Cell]]:
        if cover == "faces":
            mid = grid.ny // 2
            front = frozenset((i, j) for i in range(grid.nx) for j in range(mid, grid.ny))
            back = frozenset((i, j) for i in range(grid.nx) for j in range(mid))
            return [front, back]
        if cover == "disks":
            # centers on the (1/8)-lattice of the fundamental rectangle
            centers = [orb_point(Fraction(ix, 8), Fraction(jy, 8))
                       for ix in range(5) for jy in range(-3, 5)]
            payloads = []
            for c in centers:
                near = orb_distances(grid.xy, _xy(c)) <= disk_radius
                cells = {(int(i), int(j)) for i, j in zip(*np.nonzero(near))}
                if cells:
                    payloads.extend(_flood_components(cells, grid.neighbors))
            return payloads
        raise ValueError("cover must be 'faces' or 'disks'")

    @functools.cache
    def flats(payload: frozenset[Cell]) -> np.ndarray:
        """The payload's flat cell indices in ascending order, which is
        ``sorted(payload)`` order; read-only and computed once per payload.
        The cache lives as long as the adapter, at 8 bytes per cell: under a
        tenth of what the payload's frozenset and cell tuples take."""
        out = np.fromiter((i * grid.ny + j for i, j in payload), dtype=np.int64,
                          count=len(payload))
        out.sort()
        out.flags.writeable = False
        return out

    def components(payload: frozenset[Cell]) -> list[tuple[frozenset[Cell], int]]:
        if len(payload) == 1:
            raise ValueError(f"cannot refine a single cell of the 2^-{resolution} grid; "
                             "raise the resolution or lower the depth")
        mask = grid.members(flats(payload))[grid.image_map]
        cells = {(int(i), int(j)) for i, j in zip(*np.nonzero(mask))}
        comps = _flood_components(cells, grid.neighbors)
        if not comps:
            return []
        degrees = _fiber_degrees(grid, payload, comps)
        return list(zip(comps, degrees))

    def _fiber_degrees(grid: _PillowGrid, payload: frozenset[Cell],
                       comps: list[frozenset[Cell]]) -> list[int]:
        # prefer targets well inside the element so fibers are generic
        candidates = [c for c in itertools.islice(payload, 64)
                      if all(nb in payload for nb in grid.neighbors(c))]
        candidates = candidates[:8] or list(itertools.islice(payload, 8))
        owner = {cell: idx for idx, comp in enumerate(comps) for cell in comp}
        for target in candidates:
            counts = [0] * len(comps)
            for point, degree in grid.lattice.fiber(*grid.numerators(target)).items():
                idx = owner.get(grid._cell(*point))
                if idx is not None:
                    counts[idx] += degree
            if all(c > 0 for c in counts) and sum(counts) == 4:
                return counts
        return [max(1, c) for c in counts]

    unit2 = (2 * grid.ny) ** 2
    pad = float(grid.h) * 1.4143

    def diameter(payload: frozenset[Cell]) -> float:
        cells = flats(payload)
        picks = cells[::max(1, len(cells) // 48)]
        return math.sqrt(grid.squared(picks[:, None], picks[None, :]).max() / unit2) + pad

    def samples(payload: frozenset[Cell], k: int, rng: np.random.Generator) -> list[OrbPoint]:
        cells = flats(payload)
        picks = rng.choice(len(cells), size=min(k, len(cells)), replace=False)
        return [grid.center(divmod(int(cells[i]), grid.ny)) for i in picks]

    def basepoint(payload: frozenset[Cell]) -> OrbPoint:
        cells = sorted(payload)
        ci = sum(c[0] for c in cells) / len(cells)
        cj = sum(c[1] for c in cells) / len(cells)
        best = min(cells, key=lambda c: (c[0] - ci) ** 2 + (c[1] - cj) ** 2)
        return grid.center(best)

    def dtc(payload: frozenset[Cell], p: OrbPoint) -> float:
        ring = grid.ring(flats(payload))
        if not ring.size:
            return float("inf")
        nearest = float(orb_distances(_xy(p), grid.centers[ring]).min())
        return max(nearest - float(grid.h) * 0.7072, float(grid.h) / 4.0)

    def outradius(payload: frozenset[Cell], p: OrbPoint) -> float:
        cells = flats(payload)
        far = float(orb_distances(_xy(p), grid.centers[cells[::max(1, len(cells) // 96)]]).max())
        return far + float(grid.h) * 0.7072

    return Adapter(
        name=f"pillowcase(a={grid.a}, 2^-{resolution} grid)",
        evaluate=lambda p: _pillow_map(grid.a, p),
        initial_cover=initial,
        preimage_components=components,
        diameter=diameter,
        metric=orb_distance,
        sample_points=samples,
        basepoint=basepoint,
        distance_to_complement=dtc,
        outradius=outradius,
        is_subset=lambda small, big: small <= big,
    )


# ---------------------------------------------------------------------------
# folded cube on exact base-3 cells (all factors 3, reflecting quotient)

@dataclass(frozen=True)
class CubeCells:
    level: int
    box: tuple[tuple[int, int], ...]  # the first and last cell index on each axis

    @property
    def cells(self) -> tuple[tuple[int, ...], ...]:
        """The box's cells in ascending order."""
        return tuple(itertools.product(*(range(lo, hi + 1) for lo, hi in self.box)))


def _join_copies(copies: list[tuple[int, int]]) -> list[list[int]]:
    """Ascending intervals, touching ones joined: [first, last, intervals joined]."""
    joined: list[list[int]] = []
    for lo, hi in copies:
        if joined and lo <= joined[-1][1] + 1:
            joined[-1][1:] = hi, joined[-1][2] + 1
        else:
            joined.append([lo, hi, 1])
    return joined


def menger_adapter(params: MengerParams) -> Adapter:
    if params.mode != "reflect" or any(f != 3 for f in params.factors):
        raise ValueError("cell adapter covers the all-3 reflecting case only")
    k = params.k

    def center(payload_level: int, cell: tuple[int, ...]) -> tuple[float, ...]:
        scale = 3 ** payload_level
        return tuple((2 * c + 1) / (2 * scale) for c in cell)

    def initial() -> list[CubeCells]:
        return [CubeCells(1, tuple((c, c) for c in cell))
                for cell in itertools.product(range(3), repeat=k)]

    def components(payload: CubeCells) -> list[tuple[CubeCells, int]]:
        # on one axis cell c pulls back to cells c, 2s - 1 - c and 2s + c, s = 3^level;
        # a component's degree is the product of the numbers of copies it joins
        s = 3 ** payload.level
        axes = [_join_copies([(lo, hi), (2 * s - 1 - hi, 2 * s - 1 - lo), (2 * s + lo, 2 * s + hi)])
                for lo, hi in payload.box]
        pieces = [(CubeCells(payload.level + 1, tuple((lo, hi) for lo, hi, _ in joined)),
                   math.prod(copies for _, _, copies in joined))
                  for joined in itertools.product(*axes)]
        degrees = [degree for _, degree in pieces]
        if min(degrees, default=1) == 0 or sum(degrees) != 3 ** k:
            raise ValueError(f"folded-cube degrees {degrees} over a level-{payload.level} "
                             f"element do not certify a degree-{3 ** k} cover")
        return pieces

    def sup_metric(x: Sequence[float], y: Sequence[float]) -> float:
        return max(abs(a - b) for a, b in zip(x, y))

    def diameter(payload: CubeCells) -> float:
        return max((hi - lo + 1) / 3 ** payload.level for lo, hi in payload.box)

    def samples(payload: CubeCells, n: int, rng) -> list[tuple[float, ...]]:
        cells = payload.cells
        return [center(payload.level, c) for c in cells[::max(1, len(cells) // n)]][:max(1, n)]

    def dtc(payload: CubeCells, p: Sequence[float]) -> float:
        # the cells outside the box that share a face with it
        scale, box = 3 ** payload.level, payload.box
        ring = [cell for axis, (lo, hi) in enumerate(box) for c in (lo - 1, hi + 1)
                if 0 <= c < scale
                for cell in CubeCells(0, box[:axis] + ((c, c),) + box[axis + 1:]).cells]
        nearest = min((sup_metric(p, center(payload.level, c)) for c in ring), default=math.inf)
        return max(nearest - 0.5 / scale, 0.25 / scale)

    def outradius(payload: CubeCells, p: Sequence[float]) -> float:
        scale = 3 ** payload.level
        return max(sup_metric(p, center(payload.level, c)) for c in payload.cells) + 0.5 / scale

    def subset(small: CubeCells, big: CubeCells) -> bool:
        if small.level < big.level:
            return False
        shift = 3 ** (small.level - big.level)
        return all(b[0] <= s[0] // shift and s[1] // shift <= b[1]
                   for s, b in zip(small.box, big.box))

    return Adapter(
        name=f"folded-cube(k={k})",
        evaluate=lambda p: expanding_map(params, p),
        initial_cover=initial,
        preimage_components=components,
        diameter=diameter,
        metric=sup_metric,
        sample_points=samples,
        basepoint=lambda payload: samples(payload, 1, None)[0],
        distance_to_complement=dtc,
        outradius=outradius,
        is_subset=subset,
    )
