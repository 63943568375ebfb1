"""Benchmark of entcap: one workload, one seed, one run.

    python3 perfbench/run.py --workload analytic_mix --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run times units until ``--seconds`` have
passed and reports the end-to-end metrics; ``setup_s`` is the median over
fresh processes of the time from process start to the first timed unit.
With ``--trace 1`` the run wraps each layer's entry points (see
``tracing.py``) and processes the workload's fixed traced unit count, so its
count metrics repeat exactly for a seed; it reports the per-layer metrics.

The last line of stdout is the result object; the line before it is a
report with the environment, every end-to-end metric that applies to the
workload (latency percentiles and error rate included), failure types and
any wrap point found absent.  Exits 2 without a result when the sources are
missing.
"""
from __future__ import annotations

import os

# All matrices are at most 8x8: BLAS threads only add noise.  Set before numpy
# is imported, here and in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402  (standard library only)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
NPROC = len(os.sched_getaffinity(0))
SWEEP_WORKERS = min(2, NPROC)
# The tail is the highest percentile with at least this many samples beyond it.
TAIL_SAMPLES = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure(workload, units, seconds=None, count=None):
    """Run units until ``count`` are done, or until ``seconds`` have passed
    and a cycle of ``workload.cycle`` units is complete: every run then
    holds whole cycles, the same mix of items.

    Returns (per-item outcomes, per-unit latencies, elapsed s, CPU s).
    """
    outcomes, latencies = [], []
    cpu0, start = tracing.cpu_seconds(), time.perf_counter()
    for unit in units:
        t = time.perf_counter()
        outcomes += workload.run(unit)
        latencies.append(time.perf_counter() - t)
        if count is not None and len(latencies) >= count:
            break
        if (seconds is not None and len(latencies) % workload.cycle == 0
                and time.perf_counter() - start >= seconds):
            break
    return outcomes, latencies, time.perf_counter() - start, tracing.cpu_seconds() - cpu0


def tail(latencies):
    """(value, percentile, samples) of the highest percentile that has
    TAIL_SAMPLES samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - TAIL_SAMPLES - 1], 100.0 * (n - TAIL_SAMPLES) / n, n


def setup_probe_seconds(workload: str, seed: int) -> float:
    """Wall time from starting a fresh process to its first timed unit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"setup probe exited with {code}")
    return elapsed


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, in MB."""
    kb = sum(resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024.0


def git_commit() -> dict | None:
    """HEAD and whether the working tree differs from it; None outside git."""
    if not (ROOT / ".git").exists():
        return None

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()

    try:
        return {"head": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.CalledProcessError):
        return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": git_commit(),
        "sweep_workers": SWEEP_WORKERS,
    }


def end_to_end(workload, outcomes, latencies, elapsed, cpu_s, seed):
    """(metrics for the result line, extra figures for the report)."""
    items = len(outcomes)
    rss = peak_rss_mb()
    setup = [setup_probe_seconds(workload.name, seed) for _ in range(SETUP_PROBES)]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "items_per_s": (items / elapsed, "1/s"),
        "cpu_per_item_ms": (1e3 * cpu_s / items, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    failed = sum(o is not None for o in outcomes)
    extra = {"setup_samples_s": setup, "error_rate": failed / items}
    if workload.latency:
        extra["item_p50_ms"] = 1e3 * statistics.median(latencies)
    if workload.latency == "p50_and_tail" and len(latencies) >= 2 * TAIL_SAMPLES:
        value, pct, n = tail(latencies)
        extra["item_tail_ms"] = 1e3 * value
        extra["item_tail_percentile"] = pct
        extra["item_tail_samples"] = n
    return metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "entcap" / "__init__.py").is_file():
        print(f"error: entcap sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as out_dir:
        tracer = tracing.Tracer() if args.trace else None
        workload = workloads.make(args.workload, out_dir, SWEEP_WORKERS, tracer)
        units = workload.units(args.seed)
        units = itertools.chain([next(units)], units)
        workload.warm_up()
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        if args.trace:
            with tracing.installed(tracer):
                outcomes, latencies, elapsed, _ = measure(
                    workload, units, count=workload.traced_units)
            values = tracer.metrics()
            values["trace.items_per_s"] = len(outcomes) / elapsed
            metrics = {name: (values[name], unit)
                       for name, unit, _ in tracing.per_layer_spec()}
            extra = {"absent": tracer.absent, "unlisted": tracer.unlisted()}
        else:
            outcomes, latencies, elapsed, cpu_s = measure(
                workload, units, seconds=args.seconds)
            metrics, extra = end_to_end(
                workload, outcomes, latencies, elapsed, cpu_s, args.seed)

    failed = sum(o is not None for o in outcomes)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "units": len(latencies),
        "unit_latencies_s": latencies,
        "elapsed_s": elapsed,
        "failure_types": dict(Counter(o for o in outcomes if o is not None)),
        "environment": environment(),
        **extra,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
