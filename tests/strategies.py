"""Hypothesis strategies shared by the interval-system and skew tests."""

from hypothesis import strategies as st

from cxcdyn.gdms import build_interval_system
from cxcdyn.graphs import make_graph


@st.composite
def interval_systems(draw, alphas=(0.25, 0.5, 0.8)):
    """Irreducible graphs on 1-3 vertices (a spanning cycle plus extra edges),
    degrees 2-5, random orientations and an alpha from ``alphas``; None when
    the embedding fails."""
    n = draw(st.integers(1, 3))
    degrees = st.integers(2, 5)
    edges = [(v, v % n + 1, draw(degrees)) for v in range(1, n + 1)]
    vertex = st.integers(1, n)
    edges += draw(st.lists(st.tuples(vertex, vertex, degrees), min_size=1, max_size=4))
    orientations = draw(st.lists(st.sampled_from([1, -1]),
                                 min_size=len(edges), max_size=len(edges)))
    alpha = draw(st.sampled_from(alphas))
    try:
        return build_interval_system(make_graph(n, edges), alpha, orientations=orientations)
    except ValueError:
        return None
