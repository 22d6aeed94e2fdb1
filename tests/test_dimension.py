import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cxcdyn.dimension
from cxcdyn.dimension import (graph_spectral_radius, perron_vector, solve_exponent,
                              spectral_radius, weight_matrix)
from cxcdyn.graphs import make_graph, validate_graph


def test_weight_matrix_entries(two_loops):
    assert weight_matrix(two_loops, 1.0) == pytest.approx(np.array([[1.0]]))
    assert weight_matrix(two_loops, 0.5) == pytest.approx(np.array([[0.5]]))
    g = make_graph(2, [(1, 2, 4), (2, 1, 4)])
    assert weight_matrix(g, 0.5) == pytest.approx(np.array([[0.0, 1 / 16], [1 / 16, 0.0]]))


def test_radius_closed_forms(two_loops):
    assert graph_spectral_radius(two_loops, 1.0).radius == pytest.approx(1.0, abs=1e-12)
    assert graph_spectral_radius(two_loops, 0.5).radius == pytest.approx(0.5, abs=1e-12)


def test_radius_periodic_matrix_handled():
    # permutation-like two-cycle: the shift by the identity removes period 2
    g = make_graph(2, [(1, 2, 1), (2, 1, 1)])
    result = graph_spectral_radius(g, 1.0)
    assert result.radius == pytest.approx(1.0, abs=1e-12)


def test_radius_agrees_with_dense_eigensolver():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        matrix = rng.random((n, n)) + 0.05  # strictly positive, hence irreducible
        ours = spectral_radius(matrix, tol=1e-12).radius
        reference = max(abs(np.linalg.eigvals(matrix)))
        assert ours == pytest.approx(reference, abs=1e-9)


@pytest.mark.parametrize("matrix", [
    [[1.0, 0.0], [0.0, 0.5]],
    [[1.0, 0.5], [0.0, 0.0]],  # thurston_matrix(2, [[(0, 2), (0, 2)], [(0, 2)]])
    [[0.5, 1.0, 0.0], [0.0, 0.25, 0.0], [0.0, 1.0, 1.0]],
])
def test_radius_of_reducible_matrix(matrix):
    # the Collatz-Wielandt bounds of a positive vector do not meet here; the
    # lower bound over the non-decayed support does
    matrix = np.array(matrix)
    reference = max(abs(np.linalg.eigvals(matrix)))
    assert spectral_radius(matrix).radius == pytest.approx(reference, abs=1e-12)
    # the dense Perron vector has a zero entry, so the seeded start is all ones
    start = cxcdyn.dimension._perron_start(matrix)
    assert (start == 1.0).all()
    seeded, ones = spectral_radius(matrix, start=start), spectral_radius(matrix)
    assert (seeded.radius, seeded.iterations) == (ones.radius, ones.iterations)
    assert (seeded.vector == ones.vector).all()


@pytest.mark.parametrize("start", [np.ones(3), np.ones((2, 2)), [1.0, 0.0], [1.0, -0.5],
                                   [1.0, float("nan")], [1.0, float("inf")]])
def test_radius_rejects_a_bad_start(start):
    with pytest.raises(ValueError, match="start must be a positive finite vector of length 2"):
        spectral_radius(np.array([[0.5, 0.5], [0.25, 0.75]]), start=start)


# rows 1 and 2 tie for the largest row sum and row 2 points only at row 1,
# so successive sup-norm estimates agree after one step, far from the radius
_TIED_ROWS = make_graph(3, [(1, 3, 4), (1, 3, 5), (2, 1, 4), (2, 1, 4), (3, 2, 4), (3, 2, 4)])


def test_radius_with_tied_row_sums():
    g = _TIED_ROWS
    matrix = weight_matrix(g, 2.0)
    reference = max(abs(np.linalg.eigvals(matrix)))
    assert spectral_radius(matrix).radius == pytest.approx(reference, abs=1e-11)
    s = solve_exponent(g, "conformal").exponent
    assert s == pytest.approx(0.487283, abs=1e-6)
    assert max(abs(np.linalg.eigvals(weight_matrix(g, 1.0 / s)))) == pytest.approx(1.0, abs=1e-8)


_FOUR_VERTICES = make_graph(4, [(1, 2, 3), (1, 2, 4), (2, 3, 3), (2, 3, 5), (3, 4, 4), (3, 4, 4),
                                (4, 1, 3), (4, 1, 5), (1, 3, 5), (1, 3, 5), (2, 4, 3), (2, 4, 4)])


@pytest.mark.parametrize("g", [_TIED_ROWS, _FOUR_VERTICES], ids=["tied-rows", "four-vertices"])
def test_seeded_evaluations_stop_within_two_steps(monkeypatch, g):
    iterations = []

    def counting(matrix, **kwargs):
        result = spectral_radius(matrix, **kwargs)
        iterations.append(result.iterations)
        return result

    monkeypatch.setattr(cxcdyn.dimension, "spectral_radius", counting)
    result = solve_exponent(g, "conformal")
    assert len(iterations) == result.evaluations
    assert max(iterations) <= 2


@pytest.mark.parametrize("n", [cxcdyn.dimension._DENSE_START_MAX,
                               cxcdyn.dimension._DENSE_START_MAX + 1])
def test_dense_start_only_on_small_graphs(monkeypatch, n):
    # an n-cycle of doubled degree-3 arcs: radius 2 * 3^-s, so s = log 2 / log 3
    g = make_graph(n, [(v, v % n + 1, 3) for v in range(1, n + 1) for _ in range(2)])
    starts = []

    def counting(matrix):
        starts.append(matrix.shape)
        return _all_ones(matrix)

    monkeypatch.setattr(cxcdyn.dimension, "_perron_start", counting)
    result = solve_exponent(g, "conformal")
    assert result.exponent == pytest.approx(math.log(2) / math.log(3), abs=1e-9)
    small = n <= cxcdyn.dimension._DENSE_START_MAX
    assert len(starts) == (result.evaluations if small else 0)


def _all_ones(matrix):
    return np.ones(matrix.shape[0])


@st.composite
def admissible_graphs(draw):
    """Irreducible graphs on 1-4 vertices that pass No Levy Cycle: a spanning
    cycle plus up to four more arcs, each arc carrying two edges of degree
    2-5.  At most ten edges of degree >= 2 leave a vertex, so the radius at
    alpha 1/4 is below 1 and the hausdorff solve there has delta < 1."""
    n = draw(st.integers(1, 4))
    vertex = st.integers(1, n)
    arcs = [(v, v % n + 1) for v in range(1, n + 1)]
    arcs += draw(st.lists(st.tuples(vertex, vertex), max_size=4))
    return make_graph(n, [(i, j, draw(st.integers(2, 5))) for i, j in arcs for _ in range(2)])


@settings(max_examples=40, deadline=None)
@given(admissible_graphs(), st.sampled_from([("conformal", None), ("hausdorff", 0.25)]))
def test_seeded_solve_matches_the_all_ones_oracle(g, case):
    """The dense Perron start moves the exponent by at most tol from the
    all-ones iteration, and at the narrowest bracket it solves rho = 1 to
    the float spacing."""
    mode, alpha = case
    seeded = solve_exponent(g, mode, alpha=alpha)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cxcdyn.dimension, "_perron_start", _all_ones)
        oracle = solve_exponent(g, mode, alpha=alpha)
    assert abs(seeded.exponent - oracle.exponent) <= seeded.tolerance
    fine = solve_exponent(g, mode, alpha=alpha, tol=1e-300).exponent
    rho = max(abs(np.linalg.eigvals(weight_matrix(g, (alpha or 1.0) / fine))))
    assert rho == pytest.approx(1.0, abs=1e-12)


def test_radius_rejects_reducible():
    g = make_graph(2, [(1, 2, 3)])
    with pytest.raises(ValueError, match="irreducible"):
        graph_spectral_radius(g, 1.0)


def test_solve_conformal(two_loops, two_loops_d4):
    assert solve_exponent(two_loops, "conformal").exponent == pytest.approx(1.0, abs=1e-9)
    assert solve_exponent(two_loops_d4, "conformal").exponent == pytest.approx(0.5, abs=1e-9)


def test_solve_hausdorff(two_loops):
    result = solve_exponent(two_loops, "hausdorff", alpha=0.5)
    assert result.exponent == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("n", [7, 8])
def test_solve_doubled_complete_digraph(n):
    # every ordered pair joined by two edges of degree 4: 2(n-1) 4^-s = 1
    edges = [(i, j, 4) for i in range(1, n + 1) for j in range(1, n + 1) if i != j] * 2
    s = solve_exponent(make_graph(n, edges), "conformal").exponent
    assert s == pytest.approx(math.log(2 * (n - 1)) / math.log(4), abs=1e-9)


def test_solve_validates_once(monkeypatch):
    calls = []

    def counting(g):
        calls.append(g)
        return validate_graph(g)

    monkeypatch.setattr(cxcdyn.dimension, "validate_graph", counting)
    g = make_graph(2, [(1, 2, 2), (1, 2, 3), (2, 1, 5), (2, 1, 5), (2, 2, 3), (2, 2, 3)])
    result = solve_exponent(g, "conformal")
    assert result.evaluations > 30 and len(calls) == 1


def test_bracket_straddles_radius_one(two_loops):
    result = solve_exponent(two_loops, "conformal")
    lo, hi = result.bracket
    assert hi - lo <= result.tolerance
    assert graph_spectral_radius(two_loops, 1.0 / lo).radius >= 1.0 - 1e-9
    assert graph_spectral_radius(two_loops, 1.0 / hi).radius <= 1.0 + 1e-9


@pytest.mark.parametrize("alpha", [0.25, 0.5])
def test_hausdorff_is_alpha_times_one_conformal_solve(alpha):
    g = make_graph(4, [(i, j, 4) for i in range(1, 5) for j in range(1, 5) if i != j] * 2)
    delta = solve_exponent(g, "hausdorff", alpha=alpha, tol=1e-10, keep_trace=True)
    s = solve_exponent(g, "conformal", tol=1e-10 / alpha, keep_trace=True)
    assert delta.exponent == alpha * s.exponent
    assert delta.bracket == (alpha * s.bracket[0], alpha * s.bracket[1])
    assert delta.bracket[1] - delta.bracket[0] <= 1e-10
    assert delta.evaluations == s.evaluations
    assert delta.radius_trace == tuple((alpha * e, r) for e, r in s.radius_trace)
    # radius at alpha / delta brackets 1 from both ends
    lo, hi = delta.bracket
    assert graph_spectral_radius(g, alpha / lo).radius >= 1.0 - 1e-9
    assert graph_spectral_radius(g, alpha / hi).radius <= 1.0 + 1e-9


def test_radius_monotone_in_alpha(two_loops):
    g3 = make_graph(2, [(1, 2, 2), (1, 2, 3), (2, 1, 5), (2, 2, 2)])
    for g in (two_loops, g3):
        radii = [graph_spectral_radius(g, a).radius for a in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(r1 < r2 for r1, r2 in zip(radii, radii[1:]))


def test_delta_over_alpha_matches_s(two_loops):
    s = solve_exponent(two_loops, "conformal").exponent
    for alpha in (0.25, 0.5):
        delta = solve_exponent(two_loops, "hausdorff", alpha=alpha).exponent
        assert delta / alpha == pytest.approx(s, abs=2e-10)


def test_solve_rejects_invalid_graphs():
    single = make_graph(1, [(1, 1, 2)])
    with pytest.raises(ValueError, match="witness"):
        solve_exponent(single, "conformal")
    with pytest.raises(ValueError, match="irreducible"):
        solve_exponent(make_graph(2, [(1, 2, 2), (1, 2, 2)]), "conformal")
    with pytest.raises(ValueError, match="graph has no edges; the repellor is empty"):
        solve_exponent(make_graph(1, []), "conformal")


def test_bisection_stops_at_adjacent_floats():
    g = make_graph(1, [(1, 1, 2), (1, 1, 3)])
    lo, hi = solve_exponent(g, "conformal", tol=1e-300).bracket
    assert lo < hi == math.nextafter(lo, math.inf)
    assert abs(lo - solve_exponent(g, "conformal").exponent) < 1e-10


def test_hausdorff_needs_contracting_alpha(two_loops):
    # radius at alpha=2 is about 1.414, so delta would exceed 1
    with pytest.raises(ValueError, match="delta"):
        solve_exponent(two_loops, "hausdorff", alpha=2.0)


def test_perron_vector_one_vertex(two_loops):
    data = perron_vector(two_loops, 0.5)
    assert data.vector == pytest.approx([1.0])
    assert data.radius == pytest.approx(0.5, abs=1e-12)


def test_perron_vector_contracts_componentwise():
    g = make_graph(2, [(1, 2, 4), (2, 1, 4)])
    data = perron_vector(g, 0.5)
    assert data.vector == pytest.approx([1.0, 1.0])
    contracted = weight_matrix(g, 0.5) @ data.vector
    assert (contracted < data.vector).all()
    assert contracted == pytest.approx([1 / 16, 1 / 16])


def test_perron_vector_refuses_expanding_alpha(two_loops):
    with pytest.raises(ValueError, match="no strictly contracted vector"):
        perron_vector(two_loops, 2.0)
