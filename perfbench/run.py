"""Benchmark of the chargeplane library: one workload per run.

    python3 perfbench/run.py --workload table --seed 1 --seconds 50 --trace 0

Run from anywhere inside a checkout: the package is imported from the
checkout's own ``src/`` (never from an installed copy), with BLAS pinned to
one thread before numpy is loaded. The last line of standard output is the
result, ``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the seed, the pass count and the numerical environment.

``--trace 0`` reports the end-to-end metrics: a pass starts while at least
half of one still fits into ``--seconds`` (and at least two run), and every
``refine_resonance`` call is timed through a thin wrapper on its module
binding. ``--trace 1`` alternates
untraced and traced passes, reports the per-layer metrics of the traced ones
and the tracing overhead, and writes every span to
``.perfbench_out/spans-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is measured in this many fresh processes and reported as the median:
# SETUP_PROBES_FIRST before the first pass, then one after each pass, and the
# rest after the last, so that the probes sample the whole run.
SETUP_PROBES = 9
SETUP_PROBES_FIRST = 3
PROBE_TIMEOUT_S = 60
# A run times at least this many passes, so that its median is not one pass.
MIN_PASSES = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("table", "scan"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=50,
                   help="start a pass while half of one fits into this many seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: N = 20 (and 5 grid steps), for the self-check")
    p.add_argument("--corrupt-reference", action="store_true",
                   help="move one reference value by 1e-3; the checks must count it")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def _percentile(values, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def blas_libraries() -> list[dict]:
    """Every OpenBLAS loaded into this process, with its build string and the
    thread count it will use. numpy and scipy each bundle their own."""
    paths = set()
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) >= 6 and "openblas" in os.path.basename(fields[-1]):
                    paths.add(fields[-1])
    except OSError:
        return []
    found = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and "threads" not in info:
                    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                    info["threads"] = get_threads()
                if get_config is not None and "config" not in info:
                    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                    info["config"] = get_config().decode(errors="replace").strip()
        found.append(info)
    return found


def environment(np, scipy) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_libraries(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def setup_probe(args) -> float:
    """Wall time, in a fresh process, to import the package (with its config
    and CLI layers) and build this workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


@contextmanager
def timed_refinements(resonance, latencies: list):
    """Append the wall time of every `refine_resonance` call, from the
    workload or from inside `auto_search`, to `latencies`."""
    orig = resonance.refine_resonance

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return orig(*args, **kwargs)
        finally:
            latencies.append(time.perf_counter() - start)

    resonance.refine_resonance = timed
    try:
        yield
    finally:
        resonance.refine_resonance = orig


def run_untraced(args, workloads, inp, cp):
    """At least MIN_PASSES passes, and another while half of the median pass
    still fits before `args.seconds` have elapsed. Set-up probes run between
    passes."""
    setups = [setup_probe(args) for _ in range(SETUP_PROBES_FIRST)]
    deadline = time.perf_counter() + args.seconds
    walls, latencies, attempted, failed = [], [], 0, 0
    while (len(walls) < MIN_PASSES
           or time.perf_counter() + 0.5 * statistics.median(walls) < deadline):
        with timed_refinements(cp.resonance, latencies):
            start = time.perf_counter()
            out = workloads.run_pass(inp)
            walls.append(time.perf_counter() - start)
        a, f = workloads.check(inp, out)
        attempted, failed = attempted + a, failed + f
        if len(setups) < SETUP_PROBES:
            setups.append(setup_probe(args))
    setups += [setup_probe(args) for _ in range(SETUP_PROBES - len(setups))]
    return walls, latencies, setups, attempted, failed


def run_traced(workloads, spans, inp, seconds, cp):
    """Alternate untraced and traced passes until `seconds` have elapsed; the
    last pair may run over."""
    deadline = time.perf_counter() + seconds
    tracer = spans.Tracer()
    bindings = spans.traced_names(cp)
    untraced, traced, first_span, attempted, failed = [], [], [], 0, 0
    while True:
        start = time.perf_counter()
        out = workloads.run_pass(inp)
        untraced.append(time.perf_counter() - start)
        a, f = workloads.check(inp, out)
        attempted, failed = attempted + a, failed + f

        first_span.append(len(tracer.spans))
        with tracer.installed(bindings):
            start = time.perf_counter()
            out = workloads.run_pass(inp)
            traced.append(time.perf_counter() - start)
        a, f = workloads.check(inp, out)
        attempted, failed = attempted + a, failed + f

        if time.perf_counter() >= deadline:
            return untraced, traced, tracer.spans, first_span, attempted, failed


def write_spans(path: Path, spans_list, first_span) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    bounds = first_span + [len(spans_list)]
    with open(path, "w", encoding="utf-8") as fh:
        for p in range(len(first_span)):
            for idx in range(bounds[p], bounds[p + 1]):
                sp = spans_list[idx]
                fh.write(json.dumps({
                    "pass": p, "id": idx, "name": sp.name, "tag": sp.tag, "start": sp.start,
                    "end": sp.end, "parent": sp.parent, "info": sp.info,
                }) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "chargeplane" / "__init__.py").is_file():
        print(f"error: no chargeplane sources at {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        start = time.perf_counter()
        import workloads

        workloads.build_inputs(args.workload, args.seed, workloads.SIZES[args.size])
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0

    import numpy as np
    import scipy

    import chargeplane
    import spans
    import workloads

    if not Path(chargeplane.__file__).resolve().is_relative_to(SRC):
        print(f"error: chargeplane imported from {chargeplane.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    env = environment(np, scipy)
    if any(lib.get("threads", 1) != 1 for lib in env["openblas"]):
        print(f"warning: BLAS not pinned to one thread: {env['openblas']}", file=sys.stderr)

    inp = workloads.build_inputs(args.workload, args.seed, workloads.SIZES[args.size],
                                 args.corrupt_reference)
    workloads.warm_up(inp)

    if args.trace:
        untraced, traced, span_list, first_span, attempted, failed = run_traced(
            workloads, spans, inp, args.seconds, chargeplane)
        passes = len(traced)
        metrics = spans.layer_metrics(span_list, passes)
        wall_traced, wall_untraced = statistics.median(traced), statistics.median(untraced)
        metrics["trace.wall_s"] = (wall_traced, "s")
        metrics["trace.untraced_wall_s"] = (wall_untraced, "s")
        metrics["trace.overhead_s"] = (wall_traced - wall_untraced, "s")
        metrics["trace.spans"] = (len(span_list) / passes, "count")
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(spans_path, span_list, first_span)
        record = {"passes_untraced": len(untraced), "passes_traced": passes,
                  "spans_file": str(spans_path.relative_to(ROOT))}
    else:
        walls, latencies, setups, attempted, failed = run_untraced(args, workloads, inp,
                                                                   chargeplane)
        if not latencies:
            print("error: no refine_resonance call was timed", file=sys.stderr)
            return 1
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "refine_ms.p50": (1000 * _percentile(latencies, 50), "ms"),
            "refine_ms.p90": (1000 * _percentile(latencies, 90), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        record = {"passes": len(walls), "refinements_timed": len(latencies),
                  "setup_probes": len(setups)}

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, **record, "environment": env,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
