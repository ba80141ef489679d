"""Benchmark of the QLA reproduction through its public API.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig7-narrow --seed 1 --seconds 20 --trace 0

One process drives one workload in-process, with no worker pools.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it wraps
the library's public functions (``layers.py``) in every other pair of
rounds and prints the per-layer metrics instead, tracing overhead included.
``BENCHMARK.json`` names the metrics and their units.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run header.  A fuller report (and, when traced, every span) is
written under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import env

#: Fresh interpreters timed per run for ``setup_s``; the fastest is reported.
SETUP_SAMPLES = 7
PROBE_TIMEOUT_SECONDS = 60
PROBE = Path(__file__).with_name("probe.py")

#: Best time of :func:`reference_loop` on the host the baseline was measured
#: on (two vCPUs of an Intel Xeon at 2.0 GHz).  Reported times are scaled to
#: that host: raw seconds x this / the loop's best time in the same phase.
REFERENCE_LOOP_SECONDS = 0.0042
#: Reference loops timed after each setup probe and each measured round.
REFERENCE_LOOPS = 5

#: Neighbours of each cell of a 24x24 grid, with fixed edge weights.
_GRID = 24
_GRID_EDGES = {
    (row, col): [
        ((row + dr, col + dc), (row * 7 + col * 13 + dr + 2 * dc) % 5 + 1)
        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1))
        if 0 <= row + dr < _GRID and 0 <= col + dc < _GRID
    ]
    for row in range(_GRID)
    for col in range(_GRID)
}


def reference_loop() -> float:
    """Seconds of a fixed shortest-path search in pure Python that never calls the library.

    The host's speed drifts, at times halving for minutes, and this search
    -- dicts, a heap and tuples, like the library's interpreted code --
    slows with it, so the ratio of an op's time to the loop's cancels most
    of the drift that taking the fastest op cannot.
    """
    start = perf_counter()
    for source in ((0, 0), (0, _GRID - 1), (_GRID - 1, 0), (_GRID - 1, _GRID - 1)) * 2:
        distance = {source: 0}
        heap = [(0, source)]
        while heap:
            cost, node = heapq.heappop(heap)
            if cost > distance[node]:
                continue
            for neighbour, weight in _GRID_EDGES[node]:
                if cost + weight < distance.get(neighbour, 1 << 30):
                    distance[neighbour] = cost + weight
                    heapq.heappush(heap, (cost + weight, neighbour))
    return perf_counter() - start


def host_factor(loops: list[float]) -> float:
    """Scale from this host's current speed to the reference host's."""
    return REFERENCE_LOOP_SECONDS / min(loops)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str | None:
    """The checked-out commit, when the checkout is a git repository."""
    git = env.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_header(args, stresses: str, cleared: list[str], engines: dict[str, str]) -> dict:
    """What a result must carry to be compared with another run."""
    import numpy

    import repro
    from repro.stabilizer.fused import kernel_tier

    return {
        "workload": args.workload,
        "stresses": stresses,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repro_version": repro.__version__,
        "engines": dict(sorted(engines.items())),
        "kernel_tier": kernel_tier(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "cleared_env": cleared,
    }


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float], list[str]]:
    """Time fresh interpreters from start-up through the workload's first op.

    Returns the probe times, the reference loops timed between them, and
    failed checks.
    """
    samples, loops, errors = [], [], []
    for _ in range(SETUP_SAMPLES):
        loops += [reference_loop() for _ in range(REFERENCE_LOOPS)]
        start = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(PROBE), "--workload", workload, "--seed", str(seed)],
                capture_output=True,
                text=True,
                timeout=PROBE_TIMEOUT_SECONDS,
                cwd=env.ROOT,
            )
        except subprocess.TimeoutExpired:
            errors.append(f"setup probe timed out after {PROBE_TIMEOUT_SECONDS} s")
            continue
        samples.append(perf_counter() - start)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            errors.append(f"setup probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        else:
            errors += json.loads(lines[-1])["errors"]
    return samples, loops, errors


def percentile_90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def round_is_traced(index: int) -> bool:
    """Whether round ``index`` of a traced run is traced.

    Rounds pair up as (0, 1), (2, 3), ...; each pair holds one traced round,
    first in every other pair, so a host slowing down or speeding up over a
    run does not bias the traced/untraced ratio.
    """
    return index % 4 in (0, 3)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cleared = env.prepare()
        env.check_library()
    except env.MissingSource as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    import layers
    import workloads
    from repro.api import default_registry
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    # Compiles (or loads) the native kernel into the checkout before any
    # timing, so setup_s measures what every run pays, not the one-time build.
    default_registry()

    attempted = failed = 0
    errors: list[str] = []
    setup_samples: list[float] = []
    setup_loops: list[float] = []
    if not args.trace:
        setup_samples, setup_loops, setup_errors = measure_setup(args.workload, args.seed)
        attempted += SETUP_SAMPLES
        failed += bool(setup_errors)
        errors += setup_errors

    workload = workloads.WORKLOADS[args.workload](args.seed, workloads.load_pinned())
    tracer = Tracer() if args.trace else None
    engines: dict[str, str] = {}

    def execute(op):
        """Run one op; None when it raised, which counts as a failed op."""
        nonlocal attempted, failed
        attempted += 1
        try:
            result = workload.run(op)
        except Exception as error:  # a broken op is reported, never fatal
            failed += 1
            errors.append(f"op raised {type(error).__name__}: {error}")
            return None
        failed += bool(result.errors)
        errors.extend(result.errors)
        engines[result.kind] = result.engine
        return result

    for op in workload.warmup():
        execute(op)

    #: ``(traced, results of its ops)`` of every measured round.
    rounds: list[tuple[bool, list]] = []
    run_loops: list[float] = []
    traced_ops = 0
    start = perf_counter()
    while perf_counter() - start < args.seconds:
        traced = tracer is not None and round_is_traced(len(rounds))
        if traced:
            layers.install(tracer)
            workload.counts = tracer.counts
        results = []
        for op in workload.round():
            if traced:
                tracer.op = traced_ops
                traced_ops += 1
            result = execute(op)
            if result is not None:
                results.append(result)
        if traced:
            tracer.unwrap()
            workload.counts = None
        rounds.append((traced, results))
        run_loops += [reference_loop() for _ in range(REFERENCE_LOOPS)]

    checks, pooled_errors = workload.pooled_checks()
    attempted += checks
    failed += len(pooled_errors)
    errors += pooled_errors

    measured = [result for traced, results in rounds if traced == bool(tracer) for result in results]
    if not measured or not (args.trace or setup_samples):
        print(f"perfbench: nothing measured: {errors[:3]}", file=sys.stderr)
        return 1
    op_seconds = [result.seconds for result in measured]
    warm_seconds = [seconds for result in measured for seconds in result.warm_seconds]

    header = run_header(args, workload.stresses, cleared, engines)
    report = {"header": header, "op_seconds": op_seconds, "errors": errors[:50]}
    if tracer is not None:
        # Traced over untraced time of the two rounds of each pair.
        ratios = []
        for first, second in zip(rounds[0::2], rounds[1::2]):
            traced, untraced = (first, second) if first[0] else (second, first)
            traced_seconds = sum(result.seconds for result in traced[1])
            untraced_seconds = sum(result.seconds for result in untraced[1])
            if traced_seconds and untraced_seconds:
                ratios.append(traced_seconds / untraced_seconds)
        overhead = statistics.median(ratios) - 1.0 if ratios else 0.0
        values = layers.per_layer(tracer, op_seconds, warm_seconds, overhead)
        tracer.dump(env.WORK / f"spans-{args.workload}.jsonl")
    else:
        # The host's speed varies from second to second, so each kind of op
        # is timed by its fastest run, as timeit does: slower runs measure
        # the host, not the program.  Every round holds one op of each kind.
        best: dict[str, workloads.OpResult] = {}
        for result in measured:
            if result.kind not in best or result.seconds < best[result.kind].seconds:
                best[result.kind] = result
        round_seconds = sum(result.seconds for result in best.values()) * host_factor(run_loops)
        values = {
            "setup_s": min(setup_samples) * host_factor(setup_loops),
            "op_best_s": round_seconds / len(best),
            "work_per_s": sum(result.work for result in best.values()) / round_seconds,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        report["setup_samples"] = setup_samples
        report["setup_host_factor"] = host_factor(setup_loops)
        report["run_host_factor"] = host_factor(run_loops)
        report["op_kinds"] = len(best)
        report["rounds"] = len(rounds)
        report["point_p50_s"] = statistics.median(op_seconds)
        report["point_p90_s"] = percentile_90(op_seconds)
        report["warm_sweep_s"] = statistics.median(warm_seconds) if warm_seconds else None
        report["failed_frac"] = failed / attempted
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in env.declared_metrics(bool(args.trace))
    }
    report["metrics"] = metrics
    (env.WORK / f"report-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )

    for message in errors[:20]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps({"header": header}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
