"""Benchmark driver for cxcdyn: one workload, one seed, one fresh process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 30 --trace 0

It imports cxcdyn from ``src/`` of the checkout (and refuses to run without
it), generates the workload's inputs from the seed, and runs timed passes
over the workload's fixed operation list while another pass should still
end within ``--seconds`` (at least one pass).  Every operation's result is
checked; an operation fails if it raises, overruns its time budget or fails
its check.

``--trace 0`` prints the end-to-end metrics: median pass wall and CPU time,
set-up time (median of several fresh-interpreter imports plus median input
generation) and peak RSS.  ``--trace 1`` wraps the public functions of every
layer (see tracing.py), runs one traced pass between two untraced ones, and
prints the per-layer metrics.  The last line of stdout is the
result as one JSON object; provenance, input summaries and per-operation
timings go to stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# one fresh import alone varies by a third of its median from interpreter to
# interpreter; a median of several keeps set-up time repeatable
IMPORT_SAMPLES = 5
GENERATE_SAMPLES = 3
IMPORT_PROBE = ("import sys, time\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "start = time.perf_counter()\n"
                "import cxcdyn\n"
                "elapsed = time.perf_counter() - start\n"
                "print(elapsed, int('scipy.spatial' in sys.modules))\n")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def fresh_import(env: dict) -> tuple[float, int]:
    """Time `import cxcdyn` in a new isolated interpreter."""
    out = subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
                         env=env, capture_output=True, text=True, timeout=120, check=True)
    seconds, scipy_loaded = out.stdout.split()
    return float(seconds), int(scipy_loaded)


def run_pass(ops, tracer=None) -> dict:
    """One pass over the operation list; only the operation calls are timed."""
    failures, timings = [], []
    begin = time.perf_counter()
    for op in ops:
        gc.collect()
        if tracer is not None:
            tracer.on = True
        error = None
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            result = op.run()
        except Exception:
            error = traceback.format_exc(limit=3)
        w1, c1 = time.perf_counter(), time.process_time()
        if tracer is not None:
            tracer.on = False
        if error is None:
            try:
                op.check(result)
            except Exception:
                error = traceback.format_exc(limit=3)
            if error is None and w1 - w0 > op.budget_s:
                error = f"over budget: {w1 - w0:.2f} s > {op.budget_s} s"
        result = None
        timings.append((op.name, w1 - w0, c1 - c0))
        if error is not None:
            failures.append({"op": op.name, "error": error})
    return {"wall_s": sum(t[1] for t in timings), "cpu_s": sum(t[2] for t in timings),
            "elapsed_s": time.perf_counter() - begin, "failures": failures, "timings": timings}


def median_pass(passes, column: int) -> float:
    """Time of one pass, taking each operation's median over the passes, so
    a burst of interference in one pass does not move the figure."""
    return sum(statistics.median(p["timings"][k][column] for p in passes)
               for k in range(len(passes[0]["timings"])))


def provenance() -> dict:
    import numpy
    import scipy
    info = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": platform.processor() or None,
        "commit": None,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if (ROOT / ".git").exists():
        try:
            info["commit"] = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                            capture_output=True, text=True, timeout=30,
                                            check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return info


def layer_values(tracer) -> dict[str, float]:
    """Every per-layer number of the traced pass, keyed by metric name."""
    values: dict[str, float] = dict(tracer.work)
    values.update({f"{name}.calls": count for name, count in tracer.calls.items()})
    for name, row in tracer.layer_times().items():
        values.update({f"{name}.{field}": value for field, value in row.items()})
    values["render.self_s"] = sum(value for key, value in values.items()
                                  if key.startswith("render.") and key.endswith(".self_s"))
    # every attempt evaluates the snowflake distance once; accepted pairs twice more
    pairs = tracer.work["menger.homothety_pairs"]
    attempts = tracer.calls["menger.snowflake_distance"] - 2 * pairs
    values["menger.homothety_accept_ratio"] = pairs / attempts if attempts > 0 else 0.0
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cxcdyn" / "__init__.py").is_file():
        print(f"perfbench: no cxcdyn sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import cxcdyn
    if not Path(cxcdyn.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported cxcdyn from {cxcdyn.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    make_inputs, build_ops = WORKLOADS[args.workload]

    env = dict(os.environ)
    imports = [fresh_import(env) for _ in range(IMPORT_SAMPLES)]
    import_s = statistics.median(seconds for seconds, _ in imports)
    scipy_loaded = max(flag for _, flag in imports)
    generate = []
    for _ in range(GENERATE_SAMPLES):
        start = time.perf_counter()
        inputs, summary = make_inputs(args.seed)
        generate.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(generate)
    ops = build_ops(cxcdyn, inputs)

    passes = []
    tracer = None
    if args.trace:
        from tracing import Tracer
        passes.append(run_pass(ops))
        tracer = Tracer()
        tracer.install()
        passes.append(run_pass(ops, tracer))
        tracer.uninstall()
        # a second untraced pass brackets the traced one, so a drift in
        # machine speed during the run cancels out of the overhead
        passes.append(run_pass(ops))
    else:
        # start another pass only while it should end inside the time box
        start = time.perf_counter()
        while not passes or (time.perf_counter() - start + passes[-1]["elapsed_s"]
                             <= args.seconds):
            passes.append(run_pass(ops))

    failures = [f for p in passes for f in p["failures"]]
    attempted = len(ops) * len(passes)
    # metric names and units come from BENCHMARK.json; a layer that did not
    # run on this workload reports 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if tracer is not None:
        values = layer_values(tracer)
        values["import.cxcdyn_s"] = import_s
        values["import.scipy_loaded"] = scipy_loaded
        untraced = (passes[0]["wall_s"] + passes[2]["wall_s"]) / 2.0
        values["trace.overhead_frac"] = passes[1]["wall_s"] / untraced - 1.0
        metrics = {m["name"]: (values.get(m["name"], 0), m["unit"]) for m in spec["per_layer"]}
    else:
        values = {
            "wall_s": median_pass(passes, 1),
            "cpu_s": median_pass(passes, 2),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["end_to_end"]}

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "provenance": provenance(), "inputs": summary,
        "import_s": [seconds for seconds, _ in imports], "generate_s": generate,
        "passes": [{"wall_s": p["wall_s"], "cpu_s": p["cpu_s"], "elapsed_s": p["elapsed_s"],
                    "ops": [(name, round(w, 6)) for name, w, _ in p["timings"]]}
                   for p in passes],
        "failures": failures,
    }
    print(json.dumps(record), file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
