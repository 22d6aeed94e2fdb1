from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from cxcdyn.graphs import (GraphParseError, WeightedDigraph, make_graph, parse_graph,
                           serialize_graph, validate_graph)


# --- independent oracle: check the cycle conditions on ALL closed walks up to
# length 2n, not just simple cycles -----------------------------------------

def arc_multiplicities(g: WeightedDigraph) -> Counter:
    """Parallel-edge count per arc (i, j), built once per graph."""
    return Counter((e.src, e.dst) for e in g.edges)


def violates(g: WeightedDigraph, cycle_edges, multiplicity: Counter) -> bool:
    product = 1
    multi = False
    for k in cycle_edges:
        e = g.edges[k]
        product *= e.degree
        if multiplicity[e.src, e.dst] >= 2:
            multi = True
    return product <= 1 or not multi


def closed_walks_pass(g: WeightedDigraph, max_len: int) -> bool:
    adjacency = {v: g.out_edges(v) for v in range(1, g.vertex_count + 1)}
    multiplicity = arc_multiplicities(g)

    for start in range(1, g.vertex_count + 1):
        stack = [(start, [])]
        while stack:
            v, path = stack.pop()
            if len(path) >= max_len:
                continue
            for k, e in adjacency[v]:
                if e.dst == start and violates(g, path + [k], multiplicity):
                    return False
                if len(path) + 1 < max_len:
                    stack.append((e.dst, path + [k]))
    return True


def strongly_connected(g: WeightedDigraph) -> bool:
    """Transitive closure by Floyd-Warshall: every ordered pair joined."""
    vertices = range(1, g.vertex_count + 1)
    reach = {(i, j): i == j for i in vertices for j in vertices}
    for e in g.edges:
        reach[e.src, e.dst] = True
    for k in vertices:
        for i in vertices:
            for j in vertices:
                reach[i, j] = reach[i, j] or (reach[i, k] and reach[k, j])
    return all(reach.values())


# at most 5 edges keep the oracle's exhaustive walk search (length <= 8 on
# 4 vertices) short
graphs = st.builds(
    lambda n, raw: make_graph(n, [(min(s, n), min(d, n), w) for s, d, w in raw]),
    st.integers(1, 4),
    st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3)),
             max_size=5),
)


def assert_simple_violating_cycle(g: WeightedDigraph, cycle) -> None:
    edges = [g.edges[k] for k in cycle]
    assert edges, "empty witness"
    for e, nxt in zip(edges, edges[1:] + edges[:1]):
        assert e.dst == nxt.src, "witness edges do not chain"
    vertices = [e.src for e in edges]
    assert len(set(vertices)) == len(vertices), "witness repeats a vertex"
    assert violates(g, cycle, arc_multiplicities(g))


@settings(max_examples=200, deadline=None)
@given(graphs)
def test_cycle_check_agrees_with_closed_walk_oracle(g):
    report = validate_graph(g)
    assert report.irreducible == strongly_connected(g)
    assert (report.levy_witness is None) == closed_walks_pass(g, 2 * g.vertex_count)
    if report.levy_witness is None:
        assert report.cycles_checked == 2 * len(g.edges)
    else:
        assert_simple_violating_cycle(g, report.levy_witness)


@settings(max_examples=100, deadline=None)
@given(graphs)
def test_parse_serialize_roundtrip(g):
    assert parse_graph(serialize_graph(g)) == g


def test_parse_two_self_loops():
    g = parse_graph("vertices 1\nedge 1 1 2\nedge 1 1 2")
    assert g.vertex_count == 1
    assert [(e.src, e.dst, e.degree) for e in g.edges] == [(1, 1, 2), (1, 1, 2)]


def test_parse_single_edge():
    g = parse_graph("vertices 2\nedge 1 2 3")
    assert g.vertex_count == 2
    assert [(e.src, e.dst, e.degree) for e in g.edges] == [(1, 2, 3)]


def test_parse_out_of_range_vertex():
    with pytest.raises(GraphParseError, match="out of range"):
        parse_graph("vertices 1\nedge 1 2 2")


def test_parse_errors_name_the_line():
    with pytest.raises(GraphParseError, match="line 3"):
        parse_graph("vertices 2\nedge 1 2 2\nedge 1 2 0")


def test_parse_comments_and_blank_lines():
    g = parse_graph("# header\nvertices 1\n\nedge 1 1 2  # loop\n")
    assert len(g.edges) == 1


def test_validate_two_loops_ok(two_loops):
    report = validate_graph(two_loops)
    assert report.irreducible and report.levy_witness is None
    assert report.cycles_checked == 4  # each search scans both loops once


def test_validate_single_loop_witness():
    report = validate_graph(make_graph(1, [(1, 1, 2)]))
    assert report.irreducible
    assert report.levy_witness == (0,)  # parallel-edge condition fails
    assert report.cycles_checked == 2  # one scan per search; the second stops at the loop


def test_validate_not_irreducible():
    report = validate_graph(make_graph(2, [(1, 2, 3)]))
    assert not report.irreducible


def test_product_condition_witness():
    # both edges weight 1: the 2-cycle has degree product 1
    g = make_graph(2, [(1, 2, 1), (1, 2, 1), (2, 1, 1), (2, 1, 1)])
    report = validate_graph(g)
    assert report.levy_witness is not None


def test_invalid_graphs_rejected():
    with pytest.raises(ValueError):
        make_graph(0, [])
    with pytest.raises(ValueError):
        make_graph(1, [(1, 1, 0)])
