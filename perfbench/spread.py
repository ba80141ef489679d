"""Run the benchmark over several seeds; report spreads, or write the baseline.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --workload shor-adder --runs 5
    python3 perfbench/spread.py --runs 10 --baseline perfbench/baseline.json

Runs ``run.py`` once per seed and workload, one run at a time, and prints
for every end-to-end metric the median and the quartile spread
``(Q3 - Q1) / median`` of its values -- the figure a metric's bound is
judged against.  With ``--baseline`` it also makes one traced run per
workload and writes the medians, spreads, per-layer breakdown, tracing
overhead and layer shares to the given file.  Without ``--workload`` every
workload in ``BENCHMARK.json`` runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).with_name("run.py")
ROOT = RUN.parent.parent


def spread(values: list[float]) -> float:
    """Quartile spread as a share of the median (0 when the median is 0)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One benchmark run: ``(header, result)``."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=900,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["header"], json.loads(lines[-1])


def layer_shares(layers: dict[str, float]) -> dict[str, float]:
    """Shares of op time that show which layer a workload stresses."""
    op = layers["api.run_s"]
    cold = layers["explore.cold_sweep_s"]
    shares = {
        "network.schedule_s / api.run_s": layers["network.schedule_s"] / op if op else 0.0,
        "desim.event_loop_s / api.run_s": layers["desim.event_loop_s"] / op if op else 0.0,
        "stabilizer.fused_s / api.run_s": layers["stabilizer.fused_s"] / op if op else 0.0,
    }
    if cold:
        shares["desim.event_loop_s / explore.cold_sweep_s"] = layers["desim.event_loop_s"] / cold
    return shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None, help="save every run's result")
    parser.add_argument("--baseline", type=Path, default=None, help="write the baseline here")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = args.workload or [workload["name"] for workload in bench["workloads"]]
    why = {workload["name"]: workload["why"] for workload in bench["workloads"]}

    runs: dict[str, list[dict]] = {}
    baseline: dict = {"workloads": {}}
    if args.baseline is not None and args.baseline.exists():
        baseline = json.loads(args.baseline.read_text())  # replace only the workloads run now
    for name in names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            header, result = run_once(name, seed, seconds, trace=0)
            results.append(result)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
        runs[name] = results
        end_to_end = {}
        print(f"== {name}")
        for metric in results[0]["metrics"]:
            values = [result["metrics"][metric]["value"] for result in results]
            end_to_end[metric] = {
                "median": statistics.median(values),
                "spread": spread(values) if len(values) > 1 else 0.0,
                "unit": results[0]["metrics"][metric]["unit"],
            }
            print(f"{metric:20s} median {end_to_end[metric]['median']:14.6g}  "
                  f"spread {end_to_end[metric]['spread']:7.2%}")
        if args.baseline is None:
            continue
        traced_header, traced = run_once(name, args.first_seed, seconds, trace=1)
        layers = {metric: entry["value"] for metric, entry in traced["metrics"].items()}
        baseline["workloads"][name] = {
            "why": why[name],
            "run_seconds": seconds,
            "runs": args.runs,
            "header": traced_header,
            "correct": all(result["correct"] for result in results) and traced["correct"],
            "end_to_end": end_to_end,
            "tracing_overhead": layers["trace.overhead_frac"],
            "layer_shares": layer_shares(layers),
            "per_layer": layers,
        }
        for share, value in baseline["workloads"][name]["layer_shares"].items():
            print(f"{share:45s} {value:7.2%}")
        print(f"tracing overhead {baseline['workloads'][name]['tracing_overhead']:+.2%}")
    if args.out is not None:
        args.out.write_text(json.dumps(runs, indent=2) + "\n")
    if args.baseline is not None:
        args.baseline.write_text(json.dumps(baseline, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
