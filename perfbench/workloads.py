"""The three benchmark workloads: seeded inputs, a fixed list of operations
per pass, and a correctness check for every operation.

Each workload has ``make_inputs(seed) -> (inputs, summary)``, which only
builds plain data (graph file text, rationals, points, parameters), and
``build_ops(cx, inputs) -> list[Op]``, whose operations call cxcdyn's public
API on those inputs.  Checks use exact oracles where the quantity is exact
(tile counts, areas, digit membership, kneading references, closed-form
dimensions) and a stated tolerance otherwise.  Every check passes at the
commit that introduced the benchmark; known failures (the simple-cycle cap
on the doubled K7, the unbounded sampler for factors (3, 27, 3), the early
power-iteration stop on tied row sums) are kept out of the operation lists.

Seed-dependent inputs are kept cheap relative to the fixed heavy kernels
(the K6 solve, the depth-4 tiling at 1/8, the four fixed overlapping
parameters), so pass time moves with the program and not with the seed.
Passes are sized at several seconds so that a run holds several of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np


class CheckFailed(Exception):
    """An operation returned a result its oracle rejects."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    budget_s: float = 30.0


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


# ---------------------------------------------------------------------------
# spectral: graphs, dimension, gdms, skew, render (cover strip), verify (gdms)

SNOWFLAKE_ALPHA = 0.5
COMPLETE_DEGREE = 4  # degree 4 keeps delta = s/2 below 1 for K4..K6 at alpha 1/2


def _graph_text(title: str, n: int, edges: list[tuple[int, int, int]]) -> str:
    lines = [f"# {title}", f"vertices {n}"]
    lines += [f"edge {s} {d} {w}" for s, d, w in edges]
    return "\n".join(lines) + "\n"


def _doubled_complete(n: int) -> list[tuple[int, int, int]]:
    return [(i, j, COMPLETE_DEGREE) for i in range(1, n + 1) for j in range(1, n + 1)
            if i != j for _ in range(2)]


def _seeded_graph(rng: np.random.Generator) -> tuple[int, list[tuple[int, int, int]]]:
    """An admissible graph on 3 or 4 vertices: a Hamiltonian cycle makes it
    irreducible, every arc carries two parallel edges of degree 3..5 (so every
    cycle has a multi-edge arc and degree product > 1), and at most three
    arcs leave a vertex, so row sums of d^-2 stay below 1 and the hausdorff
    solve at alpha 1/2 has delta < 1.

    No two vertices get the same multiset of outgoing degrees.  Tied row sums
    are a known failure at the commit that added the benchmark: the power
    iteration can stop after one step on the largest row sum, and the solve
    returns a wrong exponent.
    """
    n = int(rng.integers(3, 5))
    order = [int(v) + 1 for v in rng.permutation(n)]
    arcs = {(order[k], order[(k + 1) % n]) for k in range(n)}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and rng.random() < 0.35:
                arcs.add((i, j))
    while True:
        edges = [(i, j, int(rng.integers(3, 6))) for i, j in sorted(arcs) for _ in range(2)]
        rows = [tuple(sorted(w for s, _, w in edges if s == v)) for v in range(1, n + 1)]
        if len(set(rows)) == n:
            return n, edges


def count_simple_cycles(n: int, edges: list[tuple[int, int, int]]) -> int:
    """Simple cycles with parallel edges counted separately (independent of
    cxcdyn): rooted DFS over vertex cycles, times the arc multiplicities."""
    mult: dict[tuple[int, int], int] = {}
    for s, d, _ in edges:
        mult[s, d] = mult.get((s, d), 0) + 1
    total = 0

    def walk(root: int, v: int, seen: frozenset, weight: int) -> None:
        nonlocal total
        for (s, d), m in mult.items():
            if s != v:
                continue
            if d == root:
                total += weight * m
            elif d > root and d not in seen:
                walk(root, d, seen | {d}, weight * m)

    for root in range(1, n + 1):
        walk(root, root, frozenset({root}), 1)
    return total


def _perron_radius(n: int, edges: list[tuple[int, int, int]], exponent: float) -> float:
    a = np.zeros((n, n))
    for s, d, w in edges:
        a[s - 1, d - 1] += float(w) ** (-exponent)
    return float(max(abs(np.linalg.eigvals(a))))


def spectral_inputs(seed: int) -> tuple[dict, dict]:
    rng = _rng(seed, 1)
    graphs = []
    for k in range(4):
        n, edges = _seeded_graph(rng)
        graphs.append((f"seeded-{k}", n, edges, None))
    for n in (4, 5, 6):
        s = math.log(2 * (n - 1)) / math.log(COMPLETE_DEGREE)
        graphs.append((f"K{n}-doubled", n, _doubled_complete(n), s))
    inputs = {
        "graphs": [(name, n, edges, s, _graph_text(name, n, edges))
                   for name, n, edges, s in graphs],
        "scaling_seed": int(rng.integers(2**31)),
        "distortion_seed": int(rng.integers(2**31)),
    }
    summary = {
        "graphs": [{"name": name, "vertices": n, "edges": len(edges),
                    "simple_cycles": count_simple_cycles(n, edges)}
                   for name, n, edges, _ in graphs],
        "four_branch": "1 vertex, 4 loops of degree 3, alpha 1/2, fits at depths 2..9",
        "two_loop": "1 vertex, 2 loops of degree 2, alpha 1/2",
        "scaling_seed": inputs["scaling_seed"],
        "distortion_seed": inputs["distortion_seed"],
    }
    return inputs, summary


def spectral_ops(cx: Any, inputs: dict) -> list[Op]:
    G, D, S, K, R, V = cx.graphs, cx.dimension, cx.gdms, cx.skew, cx.render, cx.verify
    box: dict[str, Any] = {}
    ops: list[Op] = []
    alpha = SNOWFLAKE_ALPHA
    s4 = math.log(4) / math.log(3)  # four loops of degree 3: 4 * 3^-s = 1

    def parse_all():
        box["graphs"] = [G.parse_graph(text) for *_, text in inputs["graphs"]]
        return box["graphs"]

    def check_parse(parsed):
        for g, (name, n, edges, _, _) in zip(parsed, inputs["graphs"]):
            got = [(e.src, e.dst, e.degree) for e in g.edges]
            expect(g.vertex_count == n and got == edges, f"{name}: parse mismatch")

    ops.append(Op("parse graphs", parse_all, check_parse))

    def validate_all():
        return [G.validate_graph(g) for g in box["graphs"]]

    def check_valid(reports):
        for report, (name, *_) in zip(reports, inputs["graphs"]):
            expect(report.irreducible and report.levy_witness is None,
                   f"{name}: admissible graph reported invalid")

    ops.append(Op("validate graphs", validate_all, check_valid))

    for index, (name, n, edges, closed_form, _) in enumerate(inputs["graphs"]):
        def conformal(index=index):
            box["s", index] = D.solve_exponent(box["graphs"][index], "conformal")
            return box["s", index]

        def check_conformal(result, name=name, n=n, edges=edges, closed_form=closed_form):
            s = result.exponent
            if closed_form is not None:
                expect(abs(s - closed_form) <= 1e-9, f"{name}: s={s} vs {closed_form}")
            radius = _perron_radius(n, edges, s)
            expect(abs(radius - 1.0) <= 1e-8, f"{name}: radius {radius} at 1/s")

        def hausdorff(index=index):
            return D.solve_exponent(box["graphs"][index], "hausdorff", alpha=alpha)

        def check_hausdorff(result, index=index, name=name):
            s = box["s", index].exponent
            expect(abs(result.exponent / alpha - s) <= 1e-8,
                   f"{name}: delta/alpha={result.exponent / alpha} vs s={s}")

        ops.append(Op(f"solve conformal {name}", conformal, check_conformal))
        # the K6 hausdorff solve would repeat the 3 s conformal one; skipped
        # to keep passes short enough for several per run
        if n < 6:
            ops.append(Op(f"solve hausdorff {name}", hausdorff, check_hausdorff))

    four = G.make_graph(1, [(1, 1, 3)] * 4)
    two = G.make_graph(1, [(1, 1, 2)] * 2)

    def build(key, graph):
        def run():
            box[key] = S.build_interval_system(graph, alpha)
            return box[key]
        return run

    def check_system(sys_):
        expect(all(w > 0 for w in sys_.weights), "non-positive Perron weight")
        expect(all(b.length > 0 for b in sys_.branches), "empty branch interval")

    ops.append(Op("interval system four-branch", build("four", four), check_system))
    ops.append(Op("interval system two-loop", build("two", two), check_system))

    def within(target, tol, label):
        def check(value):
            expect(abs(value - target) <= tol, f"{label}: {value} vs {target} +- {tol}")
        return check

    # criterion-12 tolerances: 0.05 on plain fits, 0.1 on snowflaked ones
    ops.append(Op("box fit four-branch snowflaked depths 2..9",
                  lambda: S.box_dimension(box["four"], snowflaked=True, depths=range(2, 10)),
                  within(s4, 0.1, "snowflaked fit")))
    ops.append(Op("box fit two-loop plain", lambda: S.box_dimension(box["two"]),
                  within(0.5, 0.05, "plain fit")))
    ops.append(Op("box fit two-loop snowflaked",
                  lambda: S.box_dimension(box["two"], snowflaked=True),
                  within(1.0, 0.1, "snowflaked fit")))
    ops.append(Op("skew box fit four-branch depths 2..7",
                  lambda: K.skew_box_dimension(box["four"], depths=range(2, 8)),
                  within(1.0 + s4, 0.1, "skew fit")))

    def check_scaling(value):
        expect(value <= 1e-12, f"scaling deviation {value}")

    ops.append(Op("scaling deviation 10^4 pairs",
                  lambda: K.scaling_deviation(box["two"], 10**4, seed=inputs["scaling_seed"]),
                  check_scaling))

    def cover_rows():
        return S.cover_rows(S.repellor_cover(box["two"], 14))

    def check_rows(rows):
        expect(len(rows) == 2**14, f"{len(rows)} cylinders at depth 14")
        expect(all(length == 4.0**-14 for _, _, _, length in rows), "cylinder length")
        ordered = sorted(rows, key=lambda r: r[1])
        expect(all(a[2] < b[1] for a, b in zip(ordered, ordered[1:])), "cylinders overlap")

    ops.append(Op("cover rows two-loop depth 14", cover_rows, check_rows))

    def check_strip(svg):
        expect(svg.count("<rect ") == 2**11 - 1, "cover strip rectangle count")

    ops.append(Op("cover strip svg two-loop depth 10",
                  lambda: R.cover_strip_svg(box["two"], 10), check_strip))

    def covers():
        box["adapter"] = V.gdms_adapter(box["two"])
        box["covers"] = V.build_covers(box["adapter"], 8)
        return box["covers"]

    def check_covers(result):
        expect([len(level) for level in result.levels] == [2**n for n in range(9)],
               "cover level sizes")
        expect(result.meshes == [4.0**-n for n in range(9)], "meshes are not 4^-n")

    ops.append(Op("verify gdms covers depth 8", covers, check_covers))

    def check_distortion(report):
        expect(report.samples > 0 and report.roundness_pairs, "no distortion samples")
        expect(report.max_roundness() <= 2.0 + 1e-9,
               f"roundness {report.max_roundness()} at third points exceeds 2")

    ops.append(Op("verify gdms distortion report",
                  lambda: V.distortion_report(box["adapter"], box["covers"],
                                              seed=inputs["distortion_seed"]),
                  check_distortion))
    return ops


# ---------------------------------------------------------------------------
# pillow: pillowcase (exact rationals), render (tiling svg), verify (rasters)

EIGHTH = Fraction(1, 8)
# depth 5 (2048 tiles) takes 10-14 s, too long for several passes per run
TILING_DEPTH = 4
DIFFERENTIAL_SAMPLES = 5000


def _primes(lo: int, hi: int) -> list[int]:
    return [p for p in range(lo, hi) if all(p % k for k in range(2, int(p**0.5) + 1))]


def pillow_inputs(seed: int) -> tuple[dict, dict]:
    rng = _rng(seed, 2)
    # one parameter in [1/16, 1/8] over a prime denominator 17..97: tiling
    # cost depends on where the corner square sits, so the range is narrow
    while True:
        q = int(rng.choice(_primes(17, 98)))
        p = int(rng.integers(-(-q // 16), q // 8 + 1))
        tiled = Fraction(p, q)
        if Fraction(1, 16) <= tiled <= EIGHTH:
            break
    postcritical: list[Fraction] = []
    while len(postcritical) < 5:
        q = int(rng.integers(9, 65))
        a = Fraction(int(rng.integers(1, q // 8 + 1)), q)
        if a not in postcritical:
            postcritical.append(a)
    inputs = {
        "tiled": tiled,
        "postcritical": postcritical,
        "differential_seed": int(rng.integers(2**31)),
        "distortion_seed": int(rng.integers(2**31)),
    }
    summary = {
        "subdivide": [{"a": "1/8", "depth": TILING_DEPTH},
                      {"a": str(tiled), "depth": TILING_DEPTH - 1,
                       "denominator": tiled.denominator}],
        "postcritical_and_obstruction": [{"a": str(a), "denominator": a.denominator}
                                         for a in postcritical],
        "differential_report": {"a": "1/8", "samples": DIFFERENTIAL_SAMPLES,
                                "seed": inputs["differential_seed"]},
        "family_deviation": ["1/8", str(tiled)],
        "verifier": ["faces, resolution 6, depth 3", "disks, resolution 4, depth 2"],
        "distortion_seed": inputs["distortion_seed"],
    }
    return inputs, summary


def _tent_orbit_set(a: Fraction) -> set[Fraction]:
    seen: set[Fraction] = set()
    x = a
    while x not in seen:
        seen.add(x)
        x = Fraction(1, 2) - 2 * abs(x - Fraction(1, 4))
    return seen


def _degree_sums(covers) -> set[int]:
    sums: dict[int, int] = {}
    for level in covers.levels[1:]:
        for element in level:
            key = id(element.parent)
            sums[key] = sums.get(key, 0) + element.degree_over_parent
    return set(sums.values())


def pillow_ops(cx: Any, inputs: dict) -> list[Op]:
    P, R, V = cx.pillowcase, cx.render, cx.verify
    box: dict[str, Any] = {}
    ops: list[Op] = []
    half = Fraction(1, 2)

    def subdivide(key, a, depth):
        def run():
            box[key] = P.subdivide(a, depth)
            return box[key]
        return run

    def tiles(expected, with_area):
        def check(tiling):
            expect(tiling.tile_count == expected, f"{tiling.tile_count} tiles, want {expected}")
            if with_area:
                expect(tiling.total_area() == half, "tiling area is not 1/2")
        return check

    ops.append(Op(f"subdivide a=1/8 depth {TILING_DEPTH}", subdivide("t", EIGHTH, TILING_DEPTH),
                  tiles(2 * 4**TILING_DEPTH, False), budget_s=60.0))

    def check_area(area):
        expect(area == half, f"total area {area}")

    ops.append(Op(f"total_area a=1/8 depth {TILING_DEPTH}", lambda: box["t"].total_area(),
                  check_area))

    def check_svg(svg):
        expect(svg.count("<path ") == 2 * 4**TILING_DEPTH, "tiling svg path count")

    ops.append(Op(f"tiling_svg a=1/8 depth {TILING_DEPTH}", lambda: R.tiling_svg(box["t"]),
                  check_svg))
    a_tiled = inputs["tiled"]
    ops.append(Op(f"subdivide a={a_tiled} depth {TILING_DEPTH - 1}",
                  subdivide("seeded", a_tiled, TILING_DEPTH - 1),
                  tiles(2 * 4**(TILING_DEPTH - 1), True)))

    for a in inputs["postcritical"]:
        def check_pcs(points, a=a):
            formula = {P.orb_point(0, 0), P.orb_point(half, 0), P.orb_point(0, half),
                       P.orb_point((1 - a) / 2, half)}
            formula |= {P.orb_point(t, 0) for t in _tent_orbit_set(a)}
            expect(set(points) == formula, f"postcritical set of {a} differs from formula")

        def check_obstruction(report, a=a):
            expect(sorted(report.degrees) == [2, 2], f"lift degrees {report.degrees} at {a}")
            expect(abs(report.spectral_radius - 1.0) <= 1e-12 and report.obstructed,
                   f"obstruction radius {report.spectral_radius} at {a}")

        ops.append(Op(f"postcritical_set a={a}", lambda a=a: P.postcritical_set(a), check_pcs))
        ops.append(Op(f"obstruction_report a={a}", lambda a=a: P.obstruction_report(a),
                      check_obstruction))

    def check_certificate(cert):
        expect(abs(cert.min_singular_value - 1.0) <= 1e-12, "min singular value")
        expect(cert.q_disjointness, "corner square returns")
        expect(cert.second_iterate_bound >= 2.0 - 1e-12, "second-iterate bound")
        expect(cert.samples_checked == DIFFERENTIAL_SAMPLES, "sample count")

    ops.append(Op(f"differential_report a=1/8 {DIFFERENTIAL_SAMPLES} samples",
                  lambda: P.differential_report(EIGHTH, DIFFERENTIAL_SAMPLES,
                                                seed=inputs["differential_seed"]),
                  check_certificate))

    def check_family(value):
        # each shuffle moves points within its corner square of side a
        bound = math.sqrt(2.0) * float(EIGHTH + a_tiled)
        expect(0.0 < value <= bound, f"family deviation {value} outside (0, {bound}]")

    ops.append(Op(f"family_deviation 1/8 vs {a_tiled}",
                  lambda: P.family_deviation(EIGHTH, a_tiled), check_family))

    def faces():
        box["faces"] = V.pillowcase_adapter(EIGHTH, resolution=6, cover="faces")
        box["face_covers"] = V.build_covers(box["faces"], 3)
        return box["face_covers"]

    def check_faces(covers):
        expect([len(level) for level in covers.levels] == [2, 8, 32, 128], "face cover sizes")
        expect(_degree_sums(covers) == {4}, "covering degrees do not sum to 4")
        meshes = covers.meshes
        expect(all(b < a for a, b in zip(meshes, meshes[1:])), "mesh does not decrease")

    ops.append(Op("verify pillowcase faces resolution 6 depth 3", faces, check_faces))

    def check_roundness(report):
        expect(bool(report.roundness_pairs), "no roundness samples")
        expect(report.max_roundness() < 1e3, f"roundness {report.max_roundness()}")

    ops.append(Op("verify pillowcase faces distortion report",
                  lambda: V.distortion_report(box["faces"], box["face_covers"], k_max=2,
                                              samples_per_element=1, element_cap=12,
                                              seed=inputs["distortion_seed"]),
                  check_roundness))

    def disks():
        adapter = V.pillowcase_adapter(EIGHTH, resolution=4, cover="disks")
        return V.build_covers(adapter, 2)

    def check_disks(covers):
        expect(all(covers.levels), "empty disk cover level")
        # local degree <= 2 at each critical point, so two steps give <= 4
        expect(V.degree_report(covers, 2) <= 4, "two-step degree above 4")
        expect(covers.meshes[-1] < covers.meshes[0], "mesh does not decrease")

    ops.append(Op("verify pillowcase disks resolution 4 depth 2", disks, check_disks))
    return ops


# ---------------------------------------------------------------------------
# sampling: menger (float sampling, rejection), dendrite (kd-tree), verify

# Overlapping parameters with 10^5..10^6 close pairs at depth 18, fixed so
# that pass time and peak memory do not depend on the seed; the seed draws
# the disjoint ones (|lam| <= 0.42, where the halves are far apart).
OVERLAPPING = (complex(0.52091, 0.437096), complex(0.34, 0.588897),
               complex(0.648388, 0.235994), complex(0.606218, 0.35))
FACTOR_SETS = (((3, 3, 3), 10**4), ((3, 9, 3), 600), ((3, 9, 9), 40))
POINTS = 10**4
RASTER = 243
RASTER_CHECKS = 400


def sampling_inputs(seed: int) -> tuple[dict, dict]:
    rng = _rng(seed, 3)
    points = [tuple(Fraction(int(v), 3**8) for v in rng.integers(0, 3**8 + 1, 3))
              for _ in range(POINTS)]
    disjoint = []
    for _ in range(7):
        r, theta = rng.uniform(0.25, 0.42), rng.uniform(0.0, math.pi)
        disjoint.append(complex(round(r * math.cos(theta), 6), round(r * math.sin(theta), 6)))
    inputs = {
        "points": points,
        "floats": [[float(c) for c in p] for p in points],
        "homothety_seeds": [int(rng.integers(2**31)) for _ in FACTOR_SETS],
        "raster_pixels": [(int(r), int(c)) for r, c in rng.integers(0, RASTER, (RASTER_CHECKS, 2))],
        "lambdas": [("overlapping", lam) for lam in OVERLAPPING]
                   + [("segment", complex(0.5))]
                   + [("disjoint", lam) for lam in disjoint],
        "distortion_seed": int(rng.integers(2**31)),
    }
    summary = {
        "membership_points": f"{POINTS} points on the 3^-8 grid, depth 5",
        "factor_sets": [{"factors": list(f), "pairs": n, "seed": s}
                        for (f, n), s in zip(FACTOR_SETS, inputs["homothety_seeds"])],
        "slice_raster": f"{RASTER}x{RASTER}, depth 5, {RASTER_CHECKS} pixels checked",
        "lambdas": [{"kind": kind, "lam": [lam.real, lam.imag]}
                    for kind, lam in inputs["lambdas"]],
        "kneading": "lam 1/2, 20 symbols, depth 20",
        "verifier": ["menger sponge cells depth 2", "dendrite slice depth 10"],
        "distortion_seed": inputs["distortion_seed"],
    }
    return inputs, summary


def sampling_ops(cx: Any, inputs: dict) -> list[Op]:
    M, Dn, V = cx.menger, cx.dendrite, cx.verify
    box: dict[str, Any] = {}
    ops: list[Op] = []
    sponge = M.sponge_params()

    def member():
        box["member"] = [M.membership(sponge, x, 5) for x in inputs["floats"]]
        return box["member"]

    def check_member(verdicts):
        expect(len(verdicts) == POINTS, "verdict count")

    ops.append(Op(f"membership {POINTS} points depth 5", member, check_member))

    def check_digits(exact):
        disagreements = sum(1 for sampled, oracle in zip(box["member"], exact)
                            if sampled.status != "boundary_unknown"
                            and (sampled.status, sampled.level) != (oracle.status, oracle.level))
        expect(disagreements == 0, f"{disagreements} digit-oracle disagreements")

    ops.append(Op(f"digit_membership {POINTS} points depth 5",
                  lambda: [M.digit_membership(sponge, p, 5) for p in inputs["points"]],
                  check_digits))

    for ((factors, pairs), seed) in zip(FACTOR_SETS, inputs["homothety_seeds"]):
        params = M.MengerParams(n=1, k=3, factors=factors)

        def check_homothety(value, factors=factors):
            expect(value <= 1e-12, f"homothety deviation {value} for {factors}")

        ops.append(Op(f"homothety_deviation {factors} {pairs} pairs",
                      lambda params=params, pairs=pairs, seed=seed:
                          M.homothety_deviation(params, pairs, seed=seed),
                      check_homothety))

    def check_raster(img):
        expect(img.shape == (RASTER, RASTER), "raster shape")
        step = 128 // 6
        for row, col in inputs["raster_pixels"]:
            point = (Fraction(2 * col + 1, 2 * RASTER), Fraction(2 * row + 1, 2 * RASTER), 0)
            oracle = M.digit_membership(sponge, point, 5)
            value = int(img[row, col])
            if value == 128:
                continue  # boundary_unknown shade
            want = 0 if oracle.status == "in" else 255 - oracle.level * step
            expect(value == want, f"pixel ({row}, {col}) = {value}, oracle {want}")

    ops.append(Op(f"slice_raster {RASTER}^2 depth 5",
                  lambda: M.slice_raster(sponge, 5, RASTER), check_raster))

    def cube_covers():
        box["cube"] = V.menger_adapter(sponge)
        box["cube_covers"] = V.build_covers(box["cube"], 2)
        return box["cube_covers"]

    def check_cube(covers):
        expect(covers.meshes[0] == 1.0 / 3.0, "initial mesh")
        expect(_degree_sums(covers) == {27}, "fiber degrees do not sum to 27")
        expect(V.degree_report(covers, 2) <= 8, "local degree above 2^k")

    ops.append(Op("verify menger cells depth 2", cube_covers, check_cube))

    def check_cube_roundness(report):
        expect(bool(report.roundness_pairs), "no roundness samples")
        expect(report.max_roundness() < 1e3, f"roundness {report.max_roundness()}")

    ops.append(Op("verify menger distortion report",
                  lambda: V.distortion_report(box["cube"], box["cube_covers"], k_max=1,
                                              samples_per_element=1, element_cap=30,
                                              seed=inputs["distortion_seed"]),
                  check_cube_roundness))

    for kind, lam in inputs["lambdas"]:
        def check_overlap(report, kind=kind, lam=lam):
            if kind == "disjoint":
                expect(report.verdict == "rejected" and report.pair_count == 0,
                       f"lam {lam}: disjoint halves reported {report.verdict}")
            elif kind == "segment":
                expect(report.verdict == "plausible" and abs(report.candidate_o - 1.0) <= 1e-6,
                       f"lam 1/2: {report.verdict}, o = {report.candidate_o}")
            else:
                expect(report.pair_count > 0 and report.verdict != "rejected",
                       f"lam {lam}: overlapping halves reported {report.verdict}")

        ops.append(Op(f"overlap_test depth 18 lam={lam.real:g}{lam.imag:+g}j",
                      lambda lam=lam: Dn.overlap_test(lam, 18), check_overlap))

    def check_kneading(seq):
        reference = Dn.kneading_reference(Dn.RealQuadratic(-2), 20).symbols
        expect(seq.symbols == reference == "1" + "0" * 19, f"kneading {seq.symbols}")

    ops.append(Op("kneading_sequence lam=1/2 depth 20",
                  lambda: Dn.kneading_sequence(0.5, 20, depth=20), check_kneading))

    def dendrite_fit():
        covers = V.build_covers(V.dendrite_adapter(), 10)
        return V.visual_metric_check(covers, min_level=2, spread_bound=8.0)

    def check_visual(report):
        # criterion 11
        expect(0.6 <= report.fitted_epsilon <= 0.8 and report.spread <= 8.0 and report.verdict,
               f"visual fit eps={report.fitted_epsilon}, spread={report.spread}")

    ops.append(Op("verify dendrite depth 10 visual metric", dendrite_fit, check_visual))
    return ops


WORKLOADS = {
    "spectral": (spectral_inputs, spectral_ops),
    "pillow": (pillow_inputs, pillow_ops),
    "sampling": (sampling_inputs, sampling_ops),
}
