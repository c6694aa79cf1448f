#!/usr/bin/env python3
"""Run one benchmark workload of the aladders package and print its metrics.

    python3 bench/run.py --workload rows --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ./src.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json; with --trace 1 they are its per-layer ones, computed from
spans recorded around every call the benchmark makes into the package, and
the spans are written to bench/out/.
"""

from __future__ import annotations

import os

# One caller on one core: with a second OpenBLAS thread on this 2-core
# machine, density_grid's matmuls run about 8x slower and erratically.  Set
# before anything imports numpy; child processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "ALADDERS_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

T_START = time.perf_counter()

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3
WORKLOADS = ("rows", "sweeps", "panels", "cli")


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def package_source_present() -> bool:
    return (ROOT / "src" / "aladders" / "__init__.py").is_file()


def make_workload(name: str, seed: int, tracer):
    if name == "rows":
        from rows import Rows as cls
    elif name == "sweeps":
        from sweeps import Sweeps as cls
    elif name == "panels":
        from panels import Panels as cls
    else:
        from cliload import Cli as cls
    return cls(seed, tracer)


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that import, make the inputs and
    run the warm-up task, i.e. everything before the first timed task."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=120,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(
                f"set-up process exited {proc.returncode}: "
                + proc.stderr.decode(errors="replace").strip()[-500:]
            )
    return statistics.median(times)


def layer_value(name: str, tracer, times: dict, res, extras: dict) -> float:
    if name in extras:
        return extras[name]
    if name == "trace.spans":
        return len(tracer.spans)
    if name == "bench.glue.self_s":  # task spans' time outside package calls
        return sum(t for key, (t, _n) in times.items() if key.startswith("task."))
    completed = res.attempted - res.failed
    if name == "trace.tasks_per_s":
        return completed / res.timed_s
    if name == "trace.overhead_tasks_per_s":
        untraced = res.timed_s - tracer.bookkeeping_s
        return completed / res.timed_s - completed / untraced
    for suffix, pick in ((".self_s", 0), (".wall_s", 0), (".calls", 1)):
        if name.endswith(suffix):
            return times.get(name[: -len(suffix)], (0.0, 0))[pick]
    for table in (tracer.counts, tracer.maxima, tracer.minima):
        if name in table:
            return table[name]
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not package_source_present():
        return fail(f"package source not found under {ROOT / 'src'}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = str(ROOT / "src")

    from harness import Tracer, quantile, run_rounds

    traced = bool(args.trace) and not args.setup_only
    tracer = Tracer(enabled=traced)
    try:
        workload = make_workload(args.workload, args.seed, tracer)
        workload.warmup()
    except ImportError as exc:
        return fail(f"cannot import the package: {exc}")
    if args.setup_only:
        return 0

    setup_s = None if traced else measure_setup(args.workload, args.seed)
    res = run_rounds(workload.rounds(), args.seconds, tracer)
    completed = res.attempted - res.failed
    correct = not res.unexpected

    print(f"workload {args.workload} seed {args.seed}: {res.rounds} rounds, "
          f"{res.attempted} operations attempted, {res.failed} failed, "
          f"{res.timed_s:.3f} s timed (closed loop, 1 caller)")
    for note in res.kept_failures[:3]:
        print(f"  kept failure: {note}")
    for note in res.unexpected[:10]:
        print(f"  UNEXPECTED failure: {note}", file=sys.stderr)

    if traced:
        extras = workload.layer_extras() if hasattr(workload, "layer_extras") else {}
        times = tracer.self_times()
        metrics = {
            m["name"]: {"value": layer_value(m["name"], tracer, times, res, extras),
                        "unit": m["unit"]}
            for m in spec["per_layer"]
        }
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "spans": tracer.records(), "counts": tracer.counts,
        }))
        print(f"spans: {len(tracer.spans)} written to "
              f"{trace_path.relative_to(ROOT)}; tracing bookkeeping "
              f"{tracer.bookkeeping_s:.4f} s of {res.timed_s:.3f} s")
    else:
        peak = getattr(workload, "peak_rss_kb", None)
        if peak is None:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": setup_s,
            "tasks_per_s": completed / res.timed_s,
            "task_p50_ms": 1e3 * statistics.median(res.latencies),
            "peak_rss_mb": peak / 1024.0,
        }
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
        for name, entry in metrics.items():
            print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
        if len(res.latencies) >= 100:
            print(f"  task_p90_ms = {1e3 * quantile(res.latencies, 0.9):.6g} ms "
                  f"(from {len(res.latencies)} tasks)")
        else:
            print(f"  (p90 not reported: {len(res.latencies)} tasks < 100)")
    print(f"  wall {time.perf_counter() - T_START:.2f} s")
    print(json.dumps({"correct": correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
