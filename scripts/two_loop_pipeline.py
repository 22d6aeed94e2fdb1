"""End-to-end walkthrough of the interval-system pipeline on the two-loop graph.

Validates the graph, solves both dimension equations, embeds the interval
system, tabulates cover meshes and box-counting fits, and reports the skew
product's expansion certificate.  Run from the repository root:

    python3 scripts/two_loop_pipeline.py
"""

from cxcdyn.dimension import graph_spectral_radius, perron_vector, solve_exponent
from cxcdyn.gdms import box_dimension, build_interval_system, cover_counts
from cxcdyn.graphs import make_graph, validate_graph
from cxcdyn.skew import scaling_deviation, skew_box_dimension


def main():
    graph = make_graph(1, [(1, 1, 2), (1, 1, 2)])
    report = validate_graph(graph)
    print(f"graph: 1 vertex, two degree-2 loops; irreducible={report.irreducible}, "
          f"cycle condition ok={report.levy_witness is None}")

    s = solve_exponent(graph, "conformal")
    print(f"snowflake-invariant dimension s = {s.exponent:.12f} "
          f"({s.evaluations} radius evaluations)")
    for alpha in (0.25, 0.5):
        delta = solve_exponent(graph, "hausdorff", alpha=alpha)
        print(f"  alpha={alpha}: delta = {delta.exponent:.12f}, "
              f"delta/alpha = {delta.exponent / alpha:.12f}")

    alpha = 0.5
    print(f"\nembedding at alpha={alpha}: radius {graph_spectral_radius(graph, alpha).radius:.6f}, "
          f"weights {perron_vector(graph, alpha).vector}")
    system = build_interval_system(graph, alpha)
    for b in system.branches:
        print(f"  branch over edge {b.edge_index}: [{b.left:.6f}, {b.right:.6f}] "
              f"ratio {system.expansion_ratio(b):.1f}")

    print("\ndepth  cylinders  mesh")
    for depth, (cylinders, mesh) in cover_counts(system, range(7)).items():
        print(f"{depth:5d}  {cylinders:9d}  {mesh:.8f}")

    print(f"\nbox dimension (flat metric)      = {box_dimension(system):.4f}")
    print(f"box dimension (snowflaked)       = {box_dimension(system, snowflaked=True):.4f}")
    print(f"product repellor box dimension   = {skew_box_dimension(system):.4f}  (expect 1+s)")
    print(f"skew homothety max deviation     = {scaling_deviation(system, 10**4):.2e}")


if __name__ == "__main__":
    main()
