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
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None


def _complex_pair(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(_fraction(parts[0])), 0.0)
    if len(parts) == 2:
        return complex(float(_fraction(parts[0])), float(_fraction(parts[1])))
    raise argparse.ArgumentTypeError("expected 're' or 're,im'")


def _point(text: str) -> tuple[Fraction, ...]:
    return tuple(_fraction(p) for p in text.split(","))


def _load_graph(path: str):
    with open(path) as handle:
        return parse_graph(handle.read())


def _write(path: str, content: str) -> None:
    with open(path, "w") as handle:
        handle.write(content)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


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
        _write_csv(args.out, ["word", "left", "right", "length"],
                   gdms.cover_listing(sys_, args.depth))
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
        _write_csv(args.out, ["step", "component", "coordinate", "angle"], rows)
    _emit({"steps_completed": len(points) - 1, "out": args.out})
    return 0


def _cmd_ifs(args) -> int:
    if args.action == "attractor":
        approx = dendrite.attractor_points(args.lam, args.depth)
        if args.out and args.out.endswith(".pgm"):
            render.write_pgm(render.points_pgm(list(approx.points)), args.out)
        elif args.out:
            _write_csv(args.out, ["address", "re", "im"],
                       ([approx.address(i), z.real, z.imag] for i, z in enumerate(approx.points)))
        _emit({"depth": args.depth, "points": len(approx.points), "out": args.out})
        return 0
    if args.action == "overlap":
        report = dendrite.overlap_test(args.lam, depth=args.depth, tol=args.tol)
        _emit({"depth": report.depth, "tol": report.tol, "pairs": report.pair_count,
               "overlap_diameter": report.overlap_diameter,
               # no close pair leaves no candidate: null, not NaN, which is not JSON
               "candidate_o": (None if report.pair_count == 0
                               else [report.candidate_o.real, report.candidate_o.imag]),
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
    ours = dendrite.kneading_sequence(args.lam, args.n, depth=args.depth)
    ref = dendrite.kneading_reference(_reference_source(args), args.n)
    _emit({"kneading": ours.symbols, "reference": ref.symbols,
           "equal": ours.symbols == ref.symbols})
    return 0


def _reference_source(args):
    if args.quadratic is not None:
        return dendrite.RealQuadratic(float(args.quadratic))
    return dendrite.ExternalAngle(args.angle)


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
        if menger.digit_oracle_covers(params):
            exact = menger.digit_membership(params, args.point, args.depth)
            payload["digit_oracle"] = {"status": exact.status, "level": exact.level}
        _emit(payload)
        return 0
    if args.action == "slice":
        img = menger.slice_raster(params, args.depth, args.resolution,
                                  axis=args.axis, value=float(args.value))
        render.write_pgm(img, args.out)
        _emit({"resolution": args.resolution, "depth": args.depth, "out": args.out})
        return 0
    if args.points < 0:
        raise ValueError("points must be >= 0")
    rng = np.random.default_rng(args.seed)
    numerators = rng.integers(0, 3**8, (args.points, params.k), endpoint=True)
    status, levels = menger.membership_array(params, numerators / 3**8, args.depth)
    comparable = np.flatnonzero(status != menger.STATUSES.index("boundary_unknown"))
    disagreements = None  # no exact oracle outside the all-3 reflect case
    if menger.digit_oracle_covers(params):
        exact, exact_levels = menger.digit_membership_array(
            params, numerators[comparable], 3**8, args.depth)
        status, levels = status[comparable], levels[comparable]
        disagreements = int(np.count_nonzero(
            (exact != status) | (exact == menger.STATUSES.index("out")) & (exact_levels != levels)))
    dev_basic = menger.homothety_deviation(params, pairs=args.pairs, seed=args.seed)
    payload = {"points": args.points, "disagreements": disagreements,
               "boundary_unknown": args.points - len(comparable),
               "homothety_max_dev": dev_basic}
    if params.k == 3:
        general = menger.MengerParams(n=params.n, k=3, factors=(3, 9, 3), mode=params.mode)
        payload["homothety_max_dev_generalized"] = menger.homothety_deviation(
            general, pairs=args.pairs, seed=args.seed)
    _emit(payload)
    return 0


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
        report = obstruction_report(args.a)
        _emit({"a": args.a, "heights": [list(h) for h in report.lift_heights],
               "degrees": list(report.degrees), "isotopic": list(report.isotopic),
               "matrix": report.matrix, "spectral_radius": report.spectral_radius,
               "obstructed": report.obstructed})
        return 0
    if args.action == "diff":
        samples = {} if args.samples is None else {"samples": args.samples}
        report = differential_report(args.a, seed=args.seed, **samples)
        _emit({"a": args.a,
               "pieces": [{"name": p.name, "singular_values": list(p.singular_values)}
                          for p in report.pieces],
               "min_singular_value": report.min_singular_value,
               "second_iterate_bound": report.second_iterate_bound,
               "q_disjointness": report.q_disjointness})
        return 0
    if args.action == "preimages":
        if len(args.point) != 2:
            raise ValueError(f"--point needs two coordinates x,y, got {len(args.point)}")
        p = orb_point(*args.point)
        fiber = preimages(args.a, p)
        _emit({"a": args.a, "point": [p.x, p.y],
               "preimages": [{"point": [q.x, q.y], "degree": d} for q, d in fiber],
               "degree_sum": sum(d for _, d in fiber)})
        return 0
    _emit({"a": args.a, "forward_invariant": skeleton_forward_invariance(args.a)})
    return 0


def _cmd_verify(args) -> int:
    if args.system == "gdms":
        g = _load_graph(args.graph)
        sys_ = gdms.build_interval_system(g, float(args.alpha))
        adapter = gdms_adapter(sys_, snowflaked=args.snowflaked)
        covers = build_covers(adapter, args.depth)
        round_max = roundness_bound(covers, 0, 200)
        level3 = covers.levels[min(3, covers.depth)]
        word3 = eventually_onto_check(adapter, level3[0].payload).steps if level3 else None
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
    adapter = menger_adapter(menger.sponge_params(n=args.n, k=args.k))
    covers = build_covers(adapter, args.depth)
    _emit({"system": adapter.name, "meshes": covers.meshes,
           "degree_max": degree_report(covers, args.kmax)})
    return 0


# ---------------------------------------------------------------------------
# parser assembly

def build_parser() -> argparse.ArgumentParser:
    """One parser per action, declaring exactly the options its handler reads,
    so an option another action reads is a usage error rather than ignored."""
    parser = argparse.ArgumentParser(prog="cxcdyn",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def options(*parents) -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False, parents=list(parents))

    def command(name, func, help, dest="action"):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p.add_subparsers(dest=dest, required=True)

    def action(actions_, name, *parents, **kwargs) -> argparse.ArgumentParser:
        # no abbreviations, or a sibling's --point would pass for --points
        p = actions_.add_parser(name, parents=list(parents), allow_abbrev=False, **kwargs)
        p.set_defaults(action_parser=p)  # main reports leftover arguments under its usage
        return p

    graph = options()
    graph.add_argument("--graph", required=True)
    system = options(graph)
    system.add_argument("--alpha", type=_fraction, required=True)
    seed = options()
    seed.add_argument("--seed", type=int, default=0)
    out = options()
    out.add_argument("--out", default=None)

    p = action(sub, "graph", graph, help="parse and validate a graph file")
    p.set_defaults(func=_cmd_graph)

    p = action(sub, "dim", graph, help="solve a dimension equation")
    p.add_argument("--mode", choices=["conformal", "hausdorff"], default="conformal")
    p.add_argument("--alpha", type=_fraction, default=None)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=_cmd_dim)

    acts = command("gdms", _cmd_gdms, "interval system covers and box dimensions")
    p = action(acts, "cover", system)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--out", default=None, help=".svg strip or .csv listing")
    action(acts, "boxdim", system)

    acts = command("skew", _cmd_skew, "circle skew product over the interval system")
    p = action(acts, "orbit", system, out)
    p.add_argument("--steps", type=int, default=24)
    p.add_argument("--angle", type=_fraction, default=Fraction(1, 3))
    p = action(acts, "scaling", system, seed)
    p.add_argument("--pairs", type=int, default=10**4)
    action(acts, "boxdim", system)

    acts = command("ifs", _cmd_ifs, "planar attractor, overlap, kneading")
    lam = options()
    lam.add_argument("--lambda", dest="lam", type=_complex_pair, required=True,
                     help="parameter as 're' or 're,im'; join a negative real part "
                     "with '=', as in --lambda=-0.7,0.1")
    lam.add_argument("--depth", type=int, default=14)
    word = options()
    word.add_argument("--n", type=int, default=16)
    reference = options(word)
    source = reference.add_mutually_exclusive_group(required=True)
    source.add_argument("--quadratic", help="real parameter c <= -2")
    source.add_argument("--angle", type=_fraction, help="rational angle p/q")
    action(acts, "attractor", lam, out)
    p = action(acts, "overlap", lam)
    p.add_argument("--tol", type=float, default=None)
    action(acts, "kneading", lam, word)
    action(acts, "reference", reference)
    action(acts, "compare", lam, reference)

    acts = command("menger", _cmd_menger, "folded-cube membership and rasters")
    cube = options()
    cube.add_argument("--n", type=int, default=1)
    cube.add_argument("--k", type=int, default=3)
    cube.add_argument("--factors", default=None, help="comma-separated integers >= 3")
    cube.add_argument("--mode", choices=["reflect", "translate"], default="reflect")
    cube.add_argument("--depth", type=int, default=5)
    p = action(acts, "member", cube)
    p.add_argument("--point", type=_point, required=True)
    p = action(acts, "slice", cube)
    p.add_argument("--resolution", type=int, default=243)
    p.add_argument("--axis", type=int, default=2)
    p.add_argument("--value", type=_fraction, default=Fraction(0))
    p.add_argument("--out", required=True)
    p = action(acts, "check", cube, seed)
    p.add_argument("--points", type=int, default=10**4)
    p.add_argument("--pairs", type=int, default=10**4)

    acts = command("pillow", _cmd_pillow, "pillowcase family operations")
    a = options()
    a.add_argument("--a", type=_fraction, required=True)
    p = action(acts, "subdivide", a, out)
    p.add_argument("--depth", type=int, default=4)
    action(acts, "pcs", a)
    action(acts, "obstruct", a)
    p = action(acts, "diff", a, seed)
    p.add_argument("--samples", type=int, default=None,
                   help="sample count; the library's default if absent")
    p = action(acts, "preimages", a)
    p.add_argument("--point", type=_point, required=True,
                   help="point as 'x,y'; join a negative x with '=', as in --point=-1/4,1/3")
    action(acts, "invariance", a)

    acts = command("verify", _cmd_verify, "cover-refinement diagnostics", dest="system")
    depth = options()
    depth.add_argument("--depth", type=int, default=6)
    kmax = options(depth)
    kmax.add_argument("--kmax", type=int, default=3)
    p = action(acts, "gdms", system, kmax, seed, out)
    p.add_argument("--snowflaked", action="store_true")
    p.add_argument("--skew-pairs", type=int, default=0)
    p = action(acts, "dendrite", depth)
    p.add_argument("--spread-bound", type=float, default=8.0)
    p = action(acts, "pillow", kmax, seed, out)
    p.add_argument("--a", type=_fraction, default=Fraction(0))
    p.add_argument("--resolution", type=int, default=6)
    p.add_argument("--cover", choices=["faces", "disks"], default="faces")
    p = action(acts, "menger", kmax)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--k", type=int, default=2)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args, extras = build_parser().parse_known_args(argv)
    if extras:
        args.action_parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, OverflowError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
