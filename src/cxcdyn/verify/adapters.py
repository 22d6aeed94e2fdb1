"""Concrete adapters feeding the cover-refinement diagnostics.

Four systems plug in: the graph-directed interval system (cylinders are
exact intervals), its circle skew product (cylinder times arc), the real
slice of the pair-of-similarities attractor at parameter 1/2 (where the
branched cover is the tent map on [0, 2], so preimages are exact), and the
pillowcase family (rasterized on a dyadic grid, with exact fiber counts for
degrees).  A folded-cube adapter covers the all-3 reflecting case on exact
base-3 cells.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from ..gdms import (Cylinder, GDMSPoint, IntervalSystem, apply_map, base_cylinder,
                    cylinder_from_word, distance, edge_path, pull_back)
from ..menger import MengerParams, expanding_map
from ..pillowcase.core import OrbPoint, check_parameter, orb_distance, orb_point, \
    pillow_map, preimages
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
        return [(pull_back(sys, b, cyl), 1)
                for b in sys.branches if b.dst == cyl.component]

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
    alpha = sys.alpha
    max_degree = max(b.degree for b in sys.branches)
    if arcs0 is None:
        arcs0 = 2 * max_degree + 1  # initial arc extent below 1/(2 max degree)

    def initial() -> list[SkewCell]:
        return [SkewCell(base_cylinder(sys, b.vertex), i / arcs0, 1.0 / arcs0)
                for b in sys.bases for i in range(arcs0)]

    def components(cell: SkewCell) -> list[tuple[SkewCell, int]]:
        out = []
        for b in sys.branches:
            if b.dst != cell.cylinder.component:
                continue
            cyl = pull_back(sys, b, cell.cylinder)
            if cell.arc_length >= 1.0:
                out.append((SkewCell(cyl, 0.0, 1.0), b.degree))
            else:
                for i in range(b.degree):
                    start = ((cell.arc_start + i) / b.degree) % 1.0
                    out.append((SkewCell(cyl, start, cell.arc_length / b.degree), 1))
        return out

    def arc_diameter(length: float) -> float:
        return min(length, 0.5)

    def diameter(cell: SkewCell) -> float:
        return cell.cylinder.length ** alpha + arc_diameter(cell.arc_length)

    def samples(cell: SkewCell, k: int, rng) -> list[SkewPoint]:
        cyl = cell.cylinder
        pts = []
        for i in range(k):
            frac = (i + 1) / (k + 1)
            base = GDMSPoint(cyl.component, cyl.left + frac * cyl.length)
            angle = (cell.arc_start + frac * cell.arc_length) % 1.0
            pts.append(SkewPoint(base, angle))
        return pts

    def arc_position(cell: SkewCell, angle: float) -> float:
        return (angle - cell.arc_start) % 1.0

    def dtc(cell: SkewCell, p: SkewPoint) -> float:
        cyl = cell.cylinder
        base_exit = min(p.base.coordinate - cyl.left, cyl.right - p.base.coordinate) ** alpha
        if cell.arc_length >= 1.0:
            return base_exit
        u = arc_position(cell, p.angle)
        if u > cell.arc_length:
            return 0.0
        return min(base_exit, u, cell.arc_length - u)

    def outradius(cell: SkewCell, p: SkewPoint) -> float:
        cyl = cell.cylinder
        base_out = max(p.base.coordinate - cyl.left, cyl.right - p.base.coordinate) ** alpha
        if cell.arc_length >= 1.0:
            return base_out + 0.5
        u = arc_position(cell, p.angle)
        return base_out + min(max(u, cell.arc_length - u), 0.5)

    def subset(small: SkewCell, big: SkewCell) -> bool:
        if small.cylinder.component != big.cylinder.component:
            return False
        if small.cylinder.word[:len(big.cylinder.word)] != big.cylinder.word:
            return False
        if big.arc_length >= 1.0:
            return True
        offset = (small.arc_start - big.arc_start) % 1.0
        return offset + small.arc_length <= big.arc_length + 1e-12

    return Adapter(
        name=f"skew(alpha={alpha})",
        evaluate=lambda p: skew_map(sys, p),
        initial_cover=initial,
        preimage_components=components,
        diameter=diameter,
        metric=lambda p, q: skew_distance(sys, p, q),
        sample_points=samples,
        basepoint=lambda c: SkewPoint(
            GDMSPoint(c.cylinder.component, c.cylinder.left + c.cylinder.length / 2),
            (c.arc_start + c.arc_length / 2) % 1.0),
        distance_to_complement=dtc,
        outradius=outradius,
        is_subset=subset,
    )


# ---------------------------------------------------------------------------
# the real attractor slice at parameter 1/2: the branched cover is the tent
# map z -> 2z on [0, 1], 4 - 2z on [1, 2], branched at 1 over 2

Interval = tuple[float, float]


def dendrite_adapter(cover0: Sequence[Interval] = ((0.0, 1.1), (0.9, 2.0))) -> Adapter:

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
        exits = []
        if lo > 0.0:
            exits.append(z - lo)
        if hi < 2.0:
            exits.append(hi - z)
        return min(exits) if exits else float("inf")

    return Adapter(
        name="dendrite-slice(1/2)",
        evaluate=evaluate,
        initial_cover=lambda: [tuple(iv) for iv in cover0],
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
    """Dyadic cells over the fundamental rectangle with edge identifications."""

    def __init__(self, a, resolution: int):
        self.a = check_parameter(a)
        self.ny = 2 ** resolution
        self.nx = self.ny // 2
        self.h = Fraction(1, self.ny)
        self._imap: Optional[np.ndarray] = None

    def center(self, cell: Cell) -> OrbPoint:
        i, j = cell
        return orb_point(Fraction(2 * i + 1, 2 * self.ny),
                         Fraction(2 * j + 1, 2 * self.ny) - Fraction(1, 2))

    def cell_of(self, p: OrbPoint) -> Cell:
        i = min(int(p.x / self.h), self.nx - 1)
        j = min(int((p.y + Fraction(1, 2)) / self.h), self.ny - 1)
        return (i, j)

    def neighbors(self, cell: Cell) -> list[Cell]:
        i, j = cell
        out = []
        out.append((i - 1, j) if i > 0 else (0, self.ny - 1 - j))
        out.append((i + 1, j) if i + 1 < self.nx else (self.nx - 1, self.ny - 1 - j))
        out.append((i, j - 1) if j > 0 else (i, self.ny - 1))
        out.append((i, j + 1) if j + 1 < self.ny else (i, 0))
        return out

    @property
    def image_map(self) -> np.ndarray:
        if self._imap is None:
            imap = np.empty((self.nx, self.ny), dtype=np.int64)
            for i in range(self.nx):
                for j in range(self.ny):
                    q = pillow_map(self.a, self.center((i, j)))
                    qi, qj = self.cell_of(q)
                    imap[i, j] = qi * self.ny + qj
            self._imap = imap
        return self._imap

    def flat(self, cell: Cell) -> int:
        return cell[0] * self.ny + cell[1]


def pillowcase_adapter(a, resolution: int = 10, cover: str = "faces",
                       disk_radius: float = 0.15) -> Adapter:
    """Rasterized adapter; resolution is the dyadic exponent of the grid.

    Components are flood-filled on the grid (components meeting only at a
    cone point may merge: a documented rasterization approximation); degrees
    come from exact fiber counts over a generic sampled cell center.
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
                cells = {(i, j) for i in range(grid.nx) for j in range(grid.ny)
                         if orb_distance(grid.center((i, j)), c) <= disk_radius}
                if cells:
                    payloads.extend(_flood_components(cells, grid.neighbors))
            return payloads
        raise ValueError("cover must be 'faces' or 'disks'")

    def components(payload: frozenset[Cell]) -> list[tuple[frozenset[Cell], int]]:
        flats = np.fromiter((grid.flat(c) for c in payload), dtype=np.int64,
                            count=len(payload))
        mask = np.isin(grid.image_map, flats)
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
        for target in candidates:
            fiber = preimages(grid.a, grid.center(target))
            counts = [0] * len(comps)
            for point, degree in fiber:
                cell = grid.cell_of(point)
                for idx, comp in enumerate(comps):
                    if cell in comp:
                        counts[idx] += degree
                        break
            if all(c > 0 for c in counts) and sum(counts) == 4:
                return counts
        return [max(1, c) for c in counts]

    def diameter(payload: frozenset[Cell]) -> float:
        cells = sorted(payload)
        step = max(1, len(cells) // 48)
        pts = [grid.center(c) for c in cells[::step]]
        pad = float(grid.h) * 1.4143
        best = 0.0
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                best = max(best, orb_distance(pts[i], pts[j]))
        return best + pad

    def samples(payload: frozenset[Cell], k: int, rng: np.random.Generator) -> list[OrbPoint]:
        cells = sorted(payload)
        picks = rng.choice(len(cells), size=min(k, len(cells)), replace=False)
        return [grid.center(cells[int(i)]) for i in picks]

    def basepoint(payload: frozenset[Cell]) -> OrbPoint:
        cells = sorted(payload)
        ci = sum(c[0] for c in cells) / len(cells)
        cj = sum(c[1] for c in cells) / len(cells)
        best = min(cells, key=lambda c: (c[0] - ci) ** 2 + (c[1] - cj) ** 2)
        return grid.center(best)

    def dtc(payload: frozenset[Cell], p: OrbPoint) -> float:
        ring = {nb for c in payload for nb in grid.neighbors(c)} - set(payload)
        if not ring:
            return float("inf")
        nearest = min(orb_distance(p, grid.center(c)) for c in ring)
        return max(nearest - float(grid.h) * 0.7072, float(grid.h) / 4.0)

    def outradius(payload: frozenset[Cell], p: OrbPoint) -> float:
        cells = sorted(payload)
        step = max(1, len(cells) // 96)
        far = max(orb_distance(p, grid.center(c)) for c in cells[::step])
        return far + float(grid.h) * 0.7072

    return Adapter(
        name=f"pillowcase(a={grid.a}, 2^-{resolution} grid)",
        evaluate=lambda p: pillow_map(grid.a, p),
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
    cells: frozenset[tuple[int, ...]]


def menger_adapter(params: MengerParams) -> Adapter:
    if params.mode != "reflect" or any(f != 3 for f in params.factors):
        raise ValueError("cell adapter covers the all-3 reflecting case only")
    k = params.k

    def center(payload_level: int, cell: tuple[int, ...]) -> tuple[float, ...]:
        scale = 3 ** payload_level
        return tuple((2 * c + 1) / (2 * scale) for c in cell)

    def initial() -> list[CubeCells]:
        return [CubeCells(1, frozenset({cell}))
                for cell in itertools.product(range(3), repeat=k)]

    steps = [(axis, delta) for axis in range(k) for delta in (-1, 1)]

    def neighbors(cell: tuple[int, ...]) -> list[tuple[int, ...]]:
        return [cell[:axis] + (cell[axis] + delta,) + cell[axis + 1:] for axis, delta in steps]

    def components(payload: CubeCells) -> list[tuple[CubeCells, int]]:
        scale = 3 ** payload.level
        pre = set()
        for cell in payload.cells:
            options = [(c, 2 * scale - 1 - c, 2 * scale + c) for c in cell]
            pre.update(itertools.product(*options))
        comps = _flood_components(pre, neighbors)
        target = next(iter(payload.cells))
        y = center(payload.level, target)
        fiber = list(itertools.product(*[(c / 3.0, (2.0 - c) / 3.0, (2.0 + c) / 3.0)
                                         for c in y]))
        degrees = []
        for comp in comps:
            count = 0
            for point in fiber:
                cell = tuple(min(int(c * 3 * scale), 3 * scale - 1) for c in point)
                if cell in comp:
                    count += 1
            degrees.append(max(1, count))
        return [(CubeCells(payload.level + 1, comp), deg)
                for comp, deg in zip(comps, degrees)]

    def sup_metric(x: Sequence[float], y: Sequence[float]) -> float:
        return max(abs(a - b) for a, b in zip(x, y))

    def diameter(payload: CubeCells) -> float:
        scale = 3 ** payload.level
        spans = []
        for axis in range(k):
            values = [c[axis] for c in payload.cells]
            spans.append((max(values) - min(values) + 1) / scale)
        return max(spans)

    def samples(payload: CubeCells, n: int, rng) -> list[tuple[float, ...]]:
        cells = sorted(payload.cells)
        step = max(1, len(cells) // n)
        return [center(payload.level, c) for c in cells[::step]][:max(1, n)]

    def dtc(payload: CubeCells, p: Sequence[float]) -> float:
        scale = 3 ** payload.level
        ring = {nb for cell in payload.cells for nb in neighbors(cell)
                if 0 <= min(nb) and max(nb) < scale and nb not in payload.cells}
        if not ring:
            return float("inf")
        nearest = min(sup_metric(p, center(payload.level, c)) for c in ring)
        return max(nearest - 0.5 / scale, 0.25 / scale)

    def outradius(payload: CubeCells, p: Sequence[float]) -> float:
        scale = 3 ** payload.level
        return max(sup_metric(p, center(payload.level, c)) for c in payload.cells) + 0.5 / scale

    def subset(small: CubeCells, big: CubeCells) -> bool:
        if small.level < big.level:
            return False
        shift = 3 ** (small.level - big.level)
        return all(tuple(c // shift for c in cell) in big.cells for cell in small.cells)

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
