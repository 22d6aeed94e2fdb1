"""Weighted directed multigraphs and their admissibility diagnostics.

Everything downstream is driven by a directed multigraph whose edges carry
positive integer degrees.  A graph is admissible when it is irreducible
(every ordered vertex pair is joined by a directed path of positive length,
so a graph without edges is not) and satisfies the No Levy Cycle condition:
every simple cycle has degree product > 1 and traverses at least one arc
supported by two or more parallel edges.
Checking simple cycles suffices because an arbitrary cycle decomposes into
simple ones, degree products multiply, and a multi-edge arc of a constituent
is a multi-edge arc of the whole.

Degrees are positive integers, so a simple cycle has degree product <= 1
exactly when every edge on it has degree 1.  A violating simple cycle
therefore exists exactly when the subgraph of degree-1 edges, or the
subgraph of edges whose arc carries no parallel edge, has a directed cycle;
a closed walk in either subgraph contains a simple cycle of it.  Two
depth-first cycle searches decide the condition in O(V + E).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence


class GraphParseError(ValueError):
    """A graph file that cannot be read into a valid graph."""


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    degree: int


@dataclass(frozen=True)
class WeightedDigraph:
    """Directed multigraph on vertices 1..vertex_count with weighted edges.

    Parallel edges and self-loops are allowed; an edge's identity is its
    position in ``edges``.
    """

    vertex_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.vertex_count < 1:
            raise ValueError("vertex_count must be >= 1")
        for k, e in enumerate(self.edges):
            if not (1 <= e.src <= self.vertex_count):
                raise ValueError(f"edge {k}: source vertex {e.src} out of range")
            if not (1 <= e.dst <= self.vertex_count):
                raise ValueError(f"edge {k}: target vertex {e.dst} out of range")
            if e.degree < 1:
                raise ValueError(f"edge {k}: degree must be a positive integer")

    def out_edges(self, v: int) -> list[tuple[int, Edge]]:
        """Edges leaving v, as (edge index, edge) pairs in file order."""
        return [(k, e) for k, e in enumerate(self.edges) if e.src == v]

    def multiplicity(self, i: int, j: int) -> int:
        """Number of parallel edges from i to j."""
        return sum(1 for e in self.edges if e.src == i and e.dst == j)


def make_graph(vertex_count: int, edges: Sequence[tuple[int, int, int]]) -> WeightedDigraph:
    return WeightedDigraph(vertex_count, tuple(Edge(s, d, w) for s, d, w in edges))


def parse_graph(text: str) -> WeightedDigraph:
    """Parse the line-oriented graph format.

    Format: a ``vertices <n>`` line followed by ``edge <src> <dst> <degree>``
    lines; ``#`` starts a comment; tokens are whitespace separated.
    """
    vertex_count: Optional[int] = None
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "vertices":
            if vertex_count is not None:
                raise GraphParseError(f"line {lineno}: duplicate vertices line")
            if len(tokens) != 2:
                raise GraphParseError(f"line {lineno}: expected 'vertices <n>'")
            try:
                vertex_count = int(tokens[1])
            except ValueError:
                raise GraphParseError(f"line {lineno}: vertex count is not an integer") from None
            if vertex_count < 1:
                raise GraphParseError(f"line {lineno}: vertex count must be positive")
        elif tokens[0] == "edge":
            if vertex_count is None:
                raise GraphParseError(f"line {lineno}: edge before vertices line")
            if len(tokens) != 4:
                raise GraphParseError(f"line {lineno}: expected 'edge <src> <dst> <degree>'")
            try:
                src, dst, degree = (int(t) for t in tokens[1:])
            except ValueError:
                raise GraphParseError(f"line {lineno}: edge fields must be integers") from None
            if not (1 <= src <= vertex_count and 1 <= dst <= vertex_count):
                raise GraphParseError(f"line {lineno}: vertex index out of range")
            if degree < 1:
                raise GraphParseError(f"line {lineno}: degree must be a positive integer")
            edges.append(Edge(src, dst, degree))
        else:
            raise GraphParseError(f"line {lineno}: unknown directive {tokens[0]!r}")
    if vertex_count is None:
        raise GraphParseError("missing vertices line")
    return WeightedDigraph(vertex_count, tuple(edges))


def serialize_graph(g: WeightedDigraph) -> str:
    lines = [f"vertices {g.vertex_count}"]
    lines += [f"edge {e.src} {e.dst} {e.degree}" for e in g.edges]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GraphValidation:
    """Outcome of the admissibility checks; never raises, always reports.

    ``cycles_checked`` counts the out-edges the two No Levy Cycle searches
    scanned: 2 * len(edges) when no witness exists, fewer when a search
    stops at one.
    """

    irreducible: bool
    levy_witness: Optional[tuple[int, ...]]
    cycles_checked: int

    @property
    def ok(self) -> bool:
        return self.irreducible and self.levy_witness is None


def _reaches_all(adjacency: list[list[int]], start: int) -> bool:
    """Whether every vertex is reachable from ``start`` (adjacency lists
    hold neighbour vertices; index 0 is unused)."""
    seen = [False] * len(adjacency)
    seen[start] = True
    frontier = [start]
    while frontier:
        for w in adjacency[frontier.pop()]:
            if not seen[w]:
                seen[w] = True
                frontier.append(w)
    return all(seen[1:])


def _find_cycle(g: WeightedDigraph, out: list[list[int]],
                keep: list[bool]) -> tuple[Optional[tuple[int, ...]], int]:
    """A simple directed cycle of the subgraph of edges k with keep[k], as
    edge indices in traversal order, or None; plus the out-edges scanned.

    Iterative three-colour DFS: an edge into a vertex still on the DFS path
    closes a cycle through distinct path vertices.
    """
    on_path = [-1] * (g.vertex_count + 1)  # position on the DFS path, or -1
    done = [False] * (g.vertex_count + 1)
    scanned = 0
    for root in range(1, g.vertex_count + 1):
        if done[root]:
            continue
        # the DFS path as (vertex, its unscanned out-edges); path_edges[i]
        # leads from the i-th path vertex to the next
        pending = [(root, iter(out[root]))]
        path_edges: list[int] = []
        on_path[root] = 0
        while pending:
            v, unscanned = pending[-1]
            for k in unscanned:
                scanned += 1
                if not keep[k]:
                    continue
                w = g.edges[k].dst
                if on_path[w] >= 0:
                    return tuple(path_edges[on_path[w]:]) + (k,), scanned
                if not done[w]:
                    on_path[w] = len(pending)
                    pending.append((w, iter(out[w])))
                    path_edges.append(k)
                    break
            else:
                pending.pop()
                on_path[v] = -1
                done[v] = True
                if path_edges:
                    path_edges.pop()
    return None, scanned


def validate_graph(g: WeightedDigraph) -> GraphValidation:
    """Check irreducibility and the No Levy Cycle condition in O(V + E).

    ``levy_witness`` is a simple cycle (edge indices, in traversal order)
    violating the condition, or None when every simple cycle passes.  The
    degree-product search runs first, so a graph with both kinds of
    violating cycle reports one made of degree-1 edges.
    """
    n = g.vertex_count
    out: list[list[int]] = [[] for _ in range(n + 1)]
    forward: list[list[int]] = [[] for _ in range(n + 1)]
    backward: list[list[int]] = [[] for _ in range(n + 1)]
    for k, e in enumerate(g.edges):
        out[e.src].append(k)
        forward[e.src].append(e.dst)
        backward[e.dst].append(e.src)
    irreducible = bool(g.edges) and _reaches_all(forward, 1) and _reaches_all(backward, 1)

    arcs = Counter((e.src, e.dst) for e in g.edges)
    unit_degree = [e.degree == 1 for e in g.edges]
    single_arc = [arcs[e.src, e.dst] == 1 for e in g.edges]
    witness, checked = _find_cycle(g, out, unit_degree)
    if witness is None:
        witness, scanned = _find_cycle(g, out, single_arc)
        checked += scanned
    return GraphValidation(irreducible=irreducible, levy_witness=witness, cycles_checked=checked)
