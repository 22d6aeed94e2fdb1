"""Graph-directed interval systems: embedded intervals, the expanding map,
cylinder covers of the Cantor repellor, and the plain/snowflaked metrics.

Construction: a strictly contracted Perron vector w supplies base interval
lengths; each edge e from i to j gets a subinterval of I_i of length
w_j * d(e)^(-1/alpha), and the expanding map sends that subinterval onto I_j
affinely with ratio d(e)^(1/alpha).  Subintervals are laid out left to right
in edge order with equal gaps, which is one of many embeddings satisfying
the required disjointness; the dynamics does not depend on the choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dimension import perron_vector
from .graphs import WeightedDigraph


@dataclass(frozen=True)
class BaseInterval:
    vertex: int
    left: float
    length: float

    @property
    def right(self) -> float:
        return self.left + self.length


@dataclass(frozen=True)
class Branch:
    """One subinterval J together with the affine branch data over it."""

    edge_index: int
    src: int
    dst: int
    degree: int
    left: float
    length: float
    orientation: int  # +1 preserving, -1 reversing

    @property
    def right(self) -> float:
        return self.left + self.length


@dataclass(frozen=True)
class GDMSPoint:
    component: int
    coordinate: float


@dataclass(frozen=True)
class IntervalSystem:
    graph: WeightedDigraph
    alpha: float
    cross_distance: float
    weights: tuple[float, ...]
    bases: tuple[BaseInterval, ...]
    branches: tuple[Branch, ...]

    def base(self, vertex: int) -> BaseInterval:
        return self.bases[vertex - 1]

    def branches_from(self, vertex: int) -> list[Branch]:
        return [b for b in self.branches if b.src == vertex]

    def expansion_ratio(self, branch: Branch) -> float:
        return float(branch.degree) ** (1.0 / self.alpha)


def build_interval_system(g: WeightedDigraph, alpha: float,
                          cross_distance: Optional[float] = None,
                          orientations: Optional[Sequence[int]] = None) -> IntervalSystem:
    """Embed the interval system for (g, alpha).

    Needs spectral radius below 1 at alpha so a strictly contracted Perron
    vector exists.  cross_distance defaults to max(w) = 1, which strictly
    exceeds the max(w)/2 bound the triangle inequality needs.
    """
    perron = perron_vector(g, alpha)
    w = tuple(float(x) for x in perron.vector)
    max_w = max(w)
    if cross_distance is None:
        cross_distance = max_w
    elif cross_distance <= max_w / 2.0:
        raise ValueError(f"cross-component distance {cross_distance} must exceed "
                         f"max weight / 2 = {max_w / 2.0}")
    if orientations is None:
        orientations = [1] * len(g.edges)
    elif len(orientations) != len(g.edges) or any(o not in (1, -1) for o in orientations):
        raise ValueError("orientations must give +1 or -1 per edge")

    bases = []
    offset = 0.0
    for v in range(1, g.vertex_count + 1):
        bases.append(BaseInterval(vertex=v, left=offset, length=w[v - 1]))
        offset += w[v - 1] + max_w  # disjoint placement; spacing is cosmetic

    branches = []
    for v in range(1, g.vertex_count + 1):
        outgoing = g.out_edges(v)
        lengths = [w[e.dst - 1] * float(e.degree) ** (-1.0 / alpha) for _, e in outgoing]
        gap = (w[v - 1] - sum(lengths)) / (len(outgoing) + 1)
        if outgoing and gap <= 0:
            raise ValueError("subintervals do not fit strictly inside the base interval")
        cursor = bases[v - 1].left + gap
        for (k, e), length in zip(outgoing, lengths):
            branches.append(Branch(edge_index=k, src=e.src, dst=e.dst, degree=e.degree,
                                   left=cursor, length=length, orientation=orientations[k]))
            cursor += length + gap
    branches.sort(key=lambda b: b.edge_index)
    return IntervalSystem(graph=g, alpha=alpha, cross_distance=cross_distance,
                          weights=w, bases=tuple(bases), branches=tuple(branches))


def locate_branch(sys: IntervalSystem, p: GDMSPoint) -> Branch:
    """The branch whose closed subinterval contains p; error in the gaps."""
    for b in sys.branches_from(p.component):
        if b.left <= p.coordinate <= b.right:
            return b
    raise ValueError(f"point {p.coordinate} in component {p.component} "
                     "is outside every branch domain")


def apply_map(sys: IntervalSystem, p: GDMSPoint) -> GDMSPoint:
    """One step of the expanding map; defined on the union of subintervals."""
    b = locate_branch(sys, p)
    target = sys.base(b.dst)
    ratio = sys.expansion_ratio(b)
    if b.orientation > 0:
        x = target.left + (p.coordinate - b.left) * ratio
    else:
        x = target.left + (b.right - p.coordinate) * ratio
    return GDMSPoint(component=b.dst, coordinate=x)


@dataclass(frozen=True)
class Cylinder:
    """Points whose first ``len(word)`` steps follow the given edge path.

    Words read forward along the symbolic future: the cylinder sits inside
    the source component of its first edge.  Length is carried explicitly so
    repeated contraction stays exact for power-of-two ratios.
    """

    word: tuple[int, ...]
    component: int
    terminal: int
    left: float
    length: float

    @property
    def right(self) -> float:
        return self.left + self.length

    @property
    def depth(self) -> int:
        return len(self.word)


def base_cylinder(sys: IntervalSystem, vertex: int) -> Cylinder:
    """The depth-0 cylinder: the whole base interval of ``vertex``."""
    base = sys.base(vertex)
    return Cylinder(word=(), component=vertex, terminal=vertex,
                    left=base.left, length=base.length)


def edge_path(sys: IntervalSystem, word: Sequence[int]) -> list[Branch]:
    """The branches along an edge-index word; error unless it is an admissible path."""
    # branches are sorted by edge index, so position k holds edge k
    bad = [k for k in word if not 0 <= k < len(sys.branches)]
    if bad:
        raise ValueError(f"edge index {bad[0]} is outside 0..{len(sys.branches) - 1}")
    edges = [sys.branches[k] for k in word]
    for first, second in zip(edges, edges[1:]):
        if first.dst != second.src:
            raise ValueError("word is not an admissible edge path")
    return edges


def pull_back(sys: IntervalSystem, b: Branch, cyl: Cylinder) -> Cylinder:
    # inverse branch of the map over edge b applied to a cylinder in base(dst)
    source = sys.base(b.dst)
    ratio = sys.expansion_ratio(b)
    length = cyl.length / ratio
    if b.orientation > 0:
        left = b.left + (cyl.left - source.left) / ratio
    else:
        left = b.left + (source.right - cyl.right) / ratio
    return Cylinder(word=(b.edge_index,) + cyl.word, component=b.src,
                    terminal=cyl.terminal, left=left, length=length)


def repellor_cover(sys: IntervalSystem, depth: int) -> list[Cylinder]:
    """All admissible cylinders of the given depth with their intervals.

    Depth 0 returns the base intervals; each deeper cylinder nests inside
    its one-step suffix pulled back through the leading edge.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    cover = [base_cylinder(sys, b.vertex) for b in sys.bases]
    for _ in range(depth):
        # prepend every edge that ends where the cylinder currently starts
        cover = [pull_back(sys, b, cyl)
                 for cyl in cover
                 for b in sys.branches if b.dst == cyl.component]
    return cover


def cylinder_from_word(sys: IntervalSystem, word: Sequence[int]) -> Cylinder:
    """Build the cylinder for an explicit admissible edge-index word."""
    if not word:
        raise ValueError("use repellor_cover(sys, 0) for the base intervals")
    edges = edge_path(sys, word)
    cyl = base_cylinder(sys, edges[-1].dst)
    for b in reversed(edges):
        cyl = pull_back(sys, b, cyl)
    return cyl


def distance(sys: IntervalSystem, p: GDMSPoint, q: GDMSPoint, snowflaked: bool = False) -> float:
    """Metric on the disjoint union of base intervals.

    Same component: |x - y| (raised to alpha when snowflaked).  Different
    components: the fixed cross-component constant (likewise snowflaked).
    """
    if p.component == q.component:
        d = abs(p.coordinate - q.coordinate)
    else:
        d = sys.cross_distance
    return d ** sys.alpha if snowflaked else d


def cover_counts(sys: IntervalSystem, depths: Sequence[int]) -> dict[int, tuple[int, float]]:
    """Cylinder count and mesh of ``repellor_cover(sys, m)`` for each depth m.

    A depth-m cylinder over vertex v is a branch b from v followed by a
    depth-(m-1) cylinder over b.dst, shrunk by expansion_ratio(b).  So
    count_m(v) sums count_{m-1}(b.dst) and mesh_m(v) maxes
    mesh_{m-1}(b.dst) / ratio(b) over those branches, from count 1 and the
    base length at depth 0.  The counts are exact integers, and since
    division by a positive ratio is monotone under rounding the mesh equals
    the longest enumerated cylinder bit for bit.  O(max(depths) * V * E).
    """
    if any(m < 0 for m in depths):
        raise ValueError("depth must be >= 0")
    outgoing = {base.vertex: sys.branches_from(base.vertex) for base in sys.bases}
    count = {v: 1 for v in outgoing}
    mesh = {base.vertex: base.length for base in sys.bases}
    table = {}
    for m in range(max(depths, default=-1) + 1):
        table[m] = (sum(count.values()), max(mesh.values()))
        count = {v: sum(count[b.dst] for b in out) for v, out in outgoing.items()}
        # a vertex with no cylinders left has mesh 0.0, which never wins the max
        mesh = {v: max((mesh[b.dst] / sys.expansion_ratio(b) for b in out), default=0.0)
                for v, out in outgoing.items()}
    return {m: table[m] for m in depths}


def box_dimension(sys: IntervalSystem, snowflaked: bool = False,
                  depths: Sequence[int] = tuple(range(2, 11))) -> float:
    """Box-counting slope over cylinder covers: log count vs -log mesh.

    Counts and meshes come from ``cover_counts``: exact, O(m * V * E), and no
    cylinder is built, so the cost grows linearly in the depth, not
    exponentially.
    """
    counts = cover_counts(sys, depths)
    xs, ys = [], []
    for m in depths:
        count, mesh = counts[m]
        if snowflaked:
            mesh = mesh ** sys.alpha
        xs.append(-math.log(mesh))
        ys.append(math.log(count))
    slope = np.polyfit(xs, ys, 1)[0]
    return float(slope)


def cover_rows(cover: Sequence[Cylinder]) -> list[tuple[str, float, float, float]]:
    """CSV-ready rows (word, left, right, length) for a cover listing."""
    return [("." .join(str(k) for k in c.word) if c.word else f"base{c.component}",
             c.left, c.right, c.length) for c in cover]
