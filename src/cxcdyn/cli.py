"""Command-line entry point: one subcommand per subsystem, JSON on stdout,
renders behind --out.  Rationals cross the boundary as 'p/q' strings so the
exact modules stay exact end to end; identical invocations with identical
seeds write byte-identical output."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from fractions import Fraction
from typing import Any, Optional

import numpy as np

from . import dendrite, gdms, menger, render, skew
from .dimension import solve_exponent
from .graphs import parse_graph, validate_graph
from .pillowcase import (differential_report, obstruction_report, orb_point,
                         postcritical_set, preimages, subdivide,
                         skeleton_forward_invariance)
from .verify import (build_covers, degree_report, dendrite_adapter, distortion_report,
                     eventually_onto_check, gdms_adapter, menger_adapter,
                     pillowcase_adapter, roundness_bound, visual_metric_check)


def _jsonable(value: Any) -> Any:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, complex):
        return [value.real, value.imag]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [_jsonable(v) for v in items]
    return value


def _emit(payload: dict) -> None:
    print(json.dumps(_jsonable(payload), sort_keys=True, indent=2))


def _fraction(text: str) -> Fraction:
    return Fraction(text)


def _complex_pair(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(Fraction(parts[0])), 0.0)
    if len(parts) == 2:
        return complex(float(Fraction(parts[0])), float(Fraction(parts[1])))
    raise argparse.ArgumentTypeError("expected 're' or 're,im'")


def _point(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(p) for p in text.split(","))


def _load_graph(path: str):
    with open(path) as handle:
        return parse_graph(handle.read())


def _write(path: str, content: str) -> None:
    with open(path, "w") as handle:
        handle.write(content)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_graph(args) -> int:
    g = _load_graph(args.graph)
    report = validate_graph(g)
    _emit({"vertices": g.vertex_count, "edges": len(g.edges),
           "irreducible": report.irreducible,
           "levy_witness": list(report.levy_witness) if report.levy_witness else None,
           "cycles_checked": report.cycles_checked, "ok": report.ok})
    return 0


def _cmd_dim(args) -> int:
    g = _load_graph(args.graph)
    alpha = float(args.alpha) if args.alpha is not None else None
    result = solve_exponent(g, mode=args.mode, alpha=alpha, tol=args.tol,
                            keep_trace=args.trace)
    payload = {"mode": result.mode, "exponent": result.exponent,
               "bracket": list(result.bracket), "tolerance": result.tolerance,
               "evaluations": result.evaluations}
    if result.mode == "conformal":
        payload["skew_dimension"] = 1.0 + result.exponent
    if result.alpha is not None:
        payload["alpha"] = result.alpha
    if result.radius_trace is not None:
        payload["radius_trace"] = [list(t) for t in result.radius_trace]
    _emit(payload)
    return 0


def _cmd_gdms(args) -> int:
    g = _load_graph(args.graph)
    sys_ = gdms.build_interval_system(g, float(args.alpha))
    if args.action == "boxdim":
        plain = gdms.box_dimension(sys_, snowflaked=False)
        snow = gdms.box_dimension(sys_, snowflaked=True)
        _emit({"alpha": float(args.alpha), "boxdim_plain": plain, "boxdim_snowflaked": snow})
        return 0
    cylinders, mesh = gdms.cover_counts(sys_, [args.depth])[args.depth]
    if args.out and args.out.endswith(".svg"):
        _write(args.out, render.cover_strip_svg(sys_, args.depth))
    elif args.out:
        with open(args.out, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["word", "left", "right", "length"])
            writer.writerows(gdms.cover_rows(gdms.repellor_cover(sys_, args.depth)))
    _emit({"alpha": float(args.alpha), "depth": args.depth, "cylinders": cylinders,
           "mesh": mesh, "out": args.out})
    return 0


def _cmd_skew(args) -> int:
    g = _load_graph(args.graph)
    sys_ = gdms.build_interval_system(g, float(args.alpha))
    if args.action == "scaling":
        dev = skew.scaling_deviation(sys_, pairs=args.pairs, seed=args.seed)
        _emit({"pairs": args.pairs, "max_deviation": dev})
        return 0
    if args.action == "boxdim":
        _emit({"boxdim_product": skew.skew_box_dimension(sys_)})
        return 0
    word = skew.some_edge_cycle(sys_)
    start = skew.SkewPoint(skew.periodic_base_point(sys_, word), float(args.angle) % 1.0)
    points = skew.orbit(sys_, start, args.steps)
    rows = [(i, p.base.component, p.base.coordinate, p.angle)
            for i, p in enumerate(points)]
    if args.out:
        with open(args.out, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["step", "component", "coordinate", "angle"])
            writer.writerows(rows)
    _emit({"steps_completed": len(points) - 1, "out": args.out})
    return 0


def _cmd_ifs(args) -> int:
    if args.action == "attractor":
        approx = dendrite.attractor_points(args.lam, args.depth)
        if args.out and args.out.endswith(".pgm"):
            render.write_pgm(render.points_pgm(list(approx.points)), args.out)
        elif args.out:
            with open(args.out, "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(["address", "re", "im"])
                for i, z in enumerate(approx.points):
                    writer.writerow([approx.address(i), z.real, z.imag])
        _emit({"depth": args.depth, "points": len(approx.points), "out": args.out})
        return 0
    if args.action == "overlap":
        report = dendrite.overlap_test(args.lam, depth=args.depth, tol=args.tol)
        _emit({"depth": report.depth, "tol": report.tol, "pairs": report.pair_count,
               "overlap_diameter": report.overlap_diameter,
               "candidate_o": [report.candidate_o.real, report.candidate_o.imag],
               "verdict": report.verdict})
        return 0
    if args.action == "kneading":
        word = dendrite.kneading_sequence(args.lam, args.n, depth=args.depth)
        print(word.symbols)
        return 0
    if args.action == "reference":
        word = dendrite.kneading_reference(_reference_source(args), args.n)
        print(word.symbols)
        return 0
    if args.action == "compare":
        ours = dendrite.kneading_sequence(args.lam, args.n, depth=args.depth)
        ref = dendrite.kneading_reference(_reference_source(args), args.n)
        _emit({"kneading": ours.symbols, "reference": ref.symbols,
               "equal": ours.symbols == ref.symbols})
        return 0
    raise ValueError(f"unknown ifs action {args.action}")


def _reference_source(args):
    if args.quadratic is not None:
        return dendrite.RealQuadratic(float(args.quadratic))
    if args.angle is not None:
        return dendrite.ExternalAngle(Fraction(args.angle))
    raise ValueError("pass --quadratic c or --angle p/q")


def _menger_params(args) -> menger.MengerParams:
    factors = tuple(int(f) for f in args.factors.split(",")) if args.factors else (3,) * args.k
    return menger.MengerParams(n=args.n, k=args.k, factors=factors, mode=args.mode)


def _cmd_menger(args) -> int:
    params = _menger_params(args)
    if args.action == "member":
        floats = [float(c) for c in args.point]
        result = menger.membership(params, floats, args.depth)
        payload = {"point": [str(c) for c in args.point], "status": result.status,
                   "level": result.level}
        try:
            exact = menger.digit_membership(params, args.point, args.depth)
            payload["digit_oracle"] = {"status": exact.status, "level": exact.level}
        except ValueError:
            pass  # oracle only covers the all-3 reflecting case
        _emit(payload)
        return 0
    if args.action == "slice":
        img = menger.slice_raster(params, args.depth, args.resolution,
                                  axis=args.axis, value=float(args.value))
        render.write_pgm(img, args.out)
        _emit({"resolution": args.resolution, "depth": args.depth, "out": args.out})
        return 0
    if args.action == "check":
        rng = np.random.default_rng(args.seed)
        disagreements = 0
        unknown = 0
        for _ in range(args.points):
            point = tuple(Fraction(int(num), 3**8) for num in rng.integers(0, 3**8 + 1, params.k))
            approx = menger.membership(params, [float(c) for c in point], args.depth)
            if approx.status == "boundary_unknown":
                unknown += 1
                continue
            exact = menger.digit_membership(params, point, args.depth)
            if (approx.status, approx.level) != (exact.status, exact.level):
                disagreements += 1
        dev_basic = menger.homothety_deviation(params, pairs=args.pairs, seed=args.seed)
        payload = {"points": args.points, "disagreements": disagreements,
                   "boundary_unknown": unknown, "homothety_max_dev": dev_basic}
        if params.k == 3:
            general = menger.MengerParams(n=params.n, k=3, factors=(3, 9, 3), mode=params.mode)
            payload["homothety_max_dev_generalized"] = menger.homothety_deviation(
                general, pairs=args.pairs, seed=args.seed)
        _emit(payload)
        return 0
    raise ValueError(f"unknown menger action {args.action}")


def _cmd_pillow(args) -> int:
    if args.action == "subdivide":
        tiling = subdivide(args.a, args.depth)
        if args.out:
            _write(args.out, render.tiling_svg(tiling))
        _emit({"a": args.a, "depth": args.depth, "tiles": tiling.tile_count,
               "total_area": tiling.total_area(), "out": args.out})
        return 0
    if args.action == "pcs":
        points = postcritical_set(args.a)
        _emit({"a": args.a, "count": len(points),
               "points": [[p.x, p.y] for p in points]})
        return 0
    if args.action == "obstruct":
        report = obstruction_report(args.a, samples_per_side=args.samples)
        _emit({"a": args.a, "heights": [list(h) for h in report.lift_heights],
               "degrees": list(report.degrees), "isotopic": list(report.isotopic),
               "matrix": report.matrix, "spectral_radius": report.spectral_radius,
               "obstructed": report.obstructed})
        return 0
    if args.action == "diff":
        report = differential_report(args.a, samples=args.samples, seed=args.seed)
        _emit({"a": args.a,
               "pieces": [{"name": p.name, "singular_values": list(p.singular_values)}
                          for p in report.pieces],
               "min_singular_value": report.min_singular_value,
               "second_iterate_bound": report.second_iterate_bound,
               "q_disjointness": report.q_disjointness})
        return 0
    if args.action == "preimages":
        p = orb_point(args.point[0], args.point[1])
        fiber = preimages(args.a, p)
        _emit({"a": args.a, "point": [p.x, p.y],
               "preimages": [{"point": [q.x, q.y], "degree": d} for q, d in fiber],
               "degree_sum": sum(d for _, d in fiber)})
        return 0
    if args.action == "invariance":
        ok = skeleton_forward_invariance(args.a, samples=args.samples)
        _emit({"a": args.a, "samples": args.samples, "forward_invariant": ok})
        return 0
    raise ValueError(f"unknown pillow action {args.action}")


def _cmd_verify(args) -> int:
    if args.system == "gdms":
        g = _load_graph(args.graph)
        sys_ = gdms.build_interval_system(g, float(args.alpha))
        adapter = gdms_adapter(sys_, snowflaked=args.snowflaked)
        covers = build_covers(adapter, args.depth)
        round_max = roundness_bound(covers, 0, 200, np.random.default_rng(args.seed))
        word3 = None
        level3 = [e for e in covers.levels[min(3, covers.depth)]]
        if level3:
            word3 = eventually_onto_check(adapter, level3[0].payload).steps
        payload = {"system": adapter.name, "meshes": covers.meshes,
                   "degree_max": degree_report(covers, args.kmax),
                   "roundness_max": round_max, "onto_steps_depth3_element": word3}
        if args.skew_pairs:
            payload["skew_scaling_max_dev"] = skew.scaling_deviation(
                sys_, pairs=args.skew_pairs, seed=args.seed)
        if args.out:
            report = distortion_report(adapter, covers, k_max=args.kmax, seed=args.seed)
            _write(args.out, report.to_csv())
            payload["distortion_csv"] = args.out
            payload["distortion_samples"] = report.samples
        _emit(payload)
        return 0
    if args.system == "dendrite":
        adapter = dendrite_adapter()
        covers = build_covers(adapter, args.depth)
        vm = visual_metric_check(covers, min_level=2, spread_bound=args.spread_bound)
        _emit({"system": adapter.name, "fitted_epsilon": vm.fitted_epsilon,
               "spread": vm.spread, "roundness_bound": vm.roundness_bound,
               "levels": list(vm.levels_used), "verdict": vm.verdict})
        return 0
    if args.system == "pillow":
        adapter = pillowcase_adapter(args.a, resolution=args.resolution, cover=args.cover)
        covers = build_covers(adapter, args.depth)
        payload = {"system": adapter.name, "meshes": covers.meshes,
                   "degree_max": degree_report(covers, args.kmax),
                   "elements_per_level": [len(level) for level in covers.levels]}
        if args.out:
            report = distortion_report(adapter, covers, k_max=args.kmax, seed=args.seed,
                                       samples_per_element=1, element_cap=40)
            _write(args.out, report.to_csv())
            payload["distortion_csv"] = args.out
            payload["max_roundness_sampled"] = report.max_roundness()
        _emit(payload)
        return 0
    if args.system == "menger":
        adapter = menger_adapter(menger.sponge_params(n=args.n, k=args.k))
        covers = build_covers(adapter, args.depth)
        _emit({"system": adapter.name, "meshes": covers.meshes,
               "degree_max": degree_report(covers, args.kmax)})
        return 0
    raise ValueError(f"unknown verify system {args.system}")


# ---------------------------------------------------------------------------
# parser assembly

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cxcdyn",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="parse and validate a graph file")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("dim", help="solve a dimension equation")
    p.add_argument("--graph", required=True)
    p.add_argument("--mode", choices=["conformal", "hausdorff"], default="conformal")
    p.add_argument("--alpha", type=_fraction, default=None)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("gdms", help="interval system covers and box dimensions")
    p.add_argument("action", choices=["cover", "boxdim"])
    p.add_argument("--graph", required=True)
    p.add_argument("--alpha", type=_fraction, required=True)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--out", default=None, help=".svg strip or .csv listing")
    p.set_defaults(func=_cmd_gdms)

    p = sub.add_parser("skew", help="circle skew product over the interval system")
    p.add_argument("action", choices=["orbit", "scaling", "boxdim"])
    p.add_argument("--graph", required=True)
    p.add_argument("--alpha", type=_fraction, required=True)
    p.add_argument("--steps", type=int, default=24)
    p.add_argument("--angle", type=_fraction, default=Fraction(1, 3))
    p.add_argument("--pairs", type=int, default=10**4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_skew)

    p = sub.add_parser("ifs", help="planar attractor, overlap, kneading")
    p.add_argument("action", choices=["attractor", "overlap", "kneading",
                                      "reference", "compare"])
    p.add_argument("--lambda", dest="lam", type=_complex_pair, default=None,
                   help="parameter as 're' or 're,im'")
    p.add_argument("--depth", type=int, default=14)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--quadratic", default=None, help="real parameter c <= -2")
    p.add_argument("--angle", default=None, help="rational angle p/q")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_ifs)

    p = sub.add_parser("menger", help="folded-cube membership and rasters")
    p.add_argument("action", choices=["member", "slice", "check"])
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--factors", default=None, help="comma-separated integers >= 3")
    p.add_argument("--mode", choices=["reflect", "translate"], default="reflect")
    p.add_argument("--point", type=_point, default=None)
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--resolution", type=int, default=243)
    p.add_argument("--axis", type=int, default=2)
    p.add_argument("--value", type=_fraction, default=Fraction(0))
    p.add_argument("--points", type=int, default=10**4)
    p.add_argument("--pairs", type=int, default=10**4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_menger)

    p = sub.add_parser("pillow", help="pillowcase family operations")
    p.add_argument("action", choices=["subdivide", "pcs", "obstruct", "diff",
                                      "preimages", "invariance"])
    p.add_argument("--a", type=_fraction, required=True)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--point", type=_point, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_pillow)

    p = sub.add_parser("verify", help="cover-refinement diagnostics")
    p.add_argument("system", choices=["gdms", "dendrite", "pillow", "menger"])
    p.add_argument("--graph", default=None)
    p.add_argument("--alpha", type=_fraction, default=None)
    p.add_argument("--a", type=_fraction, default=Fraction(0))
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--snowflaked", action="store_true")
    p.add_argument("--skew-pairs", type=int, default=0)
    p.add_argument("--spread-bound", type=float, default=8.0)
    p.add_argument("--resolution", type=int, default=6)
    p.add_argument("--cover", choices=["faces", "disks"], default="faces")
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "samples", None) is None and getattr(args, "command", "") == "pillow":
        defaults = {"subdivide": 256, "obstruct": 64, "diff": 10**4, "invariance": 10**4}
        args.samples = defaults.get(args.action, 256)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
