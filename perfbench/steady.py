"""Steadiness check and baseline record for the benchmark.

    python3 perfbench/steady.py --out perfbench/baseline.json

Runs BENCHMARK.json's command once per workload and seed, in SETS sets of
SEEDS fresh seeds each, and records every result.  For each set and
end-to-end metric it reports the median and the quartile spread
((Q3 - Q1) / median, quartiles from ``statistics.quantiles(n=4)``); across
sets it reports how much worse each median got relative to the first set.
Two traced runs per workload on seed 1 show that the per-layer counts repeat
and measure the tracing overhead against the untraced seed-1 run, over the
units both runs timed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = 10
SETS = 2


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    *_, report, result = proc.stdout.strip().splitlines()
    return {"seed": seed, "wall_s": wall, "report": json.loads(report)["report"],
            "result": json.loads(result)}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def worse_by(metric: dict, first: float, later: float) -> float:
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def prefix_rate(run: dict, units: int) -> float:
    """Items per second over the first ``units`` timed units of a run."""
    report, result = run["report"], run["result"]
    items_per_unit = result["attempted"] / report["units"]
    return items_per_unit * units / sum(report["unit_latencies_s"][:units])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    record = {"run_seconds": SPEC["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        sets = []
        for k in range(SETS):
            seeds = range(1 + 100 * k, 1 + 100 * k + SEEDS)
            runs = [run_once(workload, seed, 0) for seed in seeds]
            summary = {}
            for metric in SPEC["end_to_end"]:
                name = metric["name"]
                values = [r["result"]["metrics"][name]["value"] for r in runs]
                summary[name] = {**spread(values), "bound": metric["bound"], "values": values}
            sets.append({"seeds": list(seeds), "summary": summary, "runs": runs})
            print(workload, k, {n: round(s["spread"], 4) for n, s in summary.items()},
                  flush=True)
        traced = [run_once(workload, 1, 1) for _ in range(2)]
        counts_repeat = all(
            traced[0]["result"]["metrics"][m["name"]] == traced[1]["result"]["metrics"][m["name"]]
            for m in SPEC["per_layer"]
            if m["unit"] in ("count", "rows", "B") or m["name"].endswith("converged_frac"))
        untraced = sets[0]["runs"][0]
        units = min(r["report"]["units"] for r in [untraced, *traced])
        untraced_rate = prefix_rate(untraced, units)
        traced_rate = statistics.median(prefix_rate(t, units) for t in traced)
        entry = {
            "sets": sets,
            "median_worse_by": {
                m["name"]: [worse_by(m, sets[0]["summary"][m["name"]]["median"],
                                     s["summary"][m["name"]]["median"]) for s in sets[1:]]
                for m in SPEC["end_to_end"]
            },
            "traced": {"runs": traced, "counts_repeat": counts_repeat,
                       "overhead_units": units,
                       "overhead_items_per_s": (untraced_rate - traced_rate) / untraced_rate},
        }
        record["workloads"][workload] = entry
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
