"""Throughput of the default batched engine vs the per-shot oracle (Figure 7 workload).

The batched execution engine exists for one reason: Monte-Carlo shot
throughput on the paper's empirical studies.  This benchmark times the
default engine (what ``backend="auto"`` resolves to) against the per-shot
``scalar`` executor on the level-1 Steane logical-gate + error-correction
trial (the Figure 7 workload), checks the batched engine clears a >= 10x
speedup at a batch size of 1024+, and cross-validates physics: the batched
threshold sweep must agree with the per-shot sweep within three binomial
standard errors at every swept physical rate.

Results are written to ``BENCH_batched_throughput.json`` at the repository
root.  Run either under pytest (``pytest benchmarks/bench_batched_throughput.py``)
or directly (``python benchmarks/bench_batched_throughput.py``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import ExecutionSpec, ExperimentSpec, NoiseSpec, SamplingSpec, run
from repro.arq.experiments import Level1EccExperiment, _noise_for_rate
from repro.explore import resolved_engine
from repro.iontrap.parameters import EXPECTED_PARAMETERS

#: Component failure rate of the throughput workload (mid-sweep Figure 7 point).
WORKLOAD_RATE = 2.0e-3
#: Lanes per batched call; the acceptance criterion requires >= 1024.
BATCH_SIZE = 1024
#: Shots timed on the batched engine.
BATCHED_SHOTS = 4096
#: Shots timed on the per-shot engine (kept small: it is the slow baseline).
PER_SHOT_SHOTS = 300
#: Required speedup of the batched engine.
REQUIRED_SPEEDUP = 10.0

#: Figure 7 sweep configuration for the physics cross-validation.
SWEEP_RATES = (1.0e-3, 1.5e-3, 2.0e-3, 2.5e-3)
SWEEP_TRIALS = 1200

_OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_batched_throughput.json"


def _measure_throughput() -> dict[str, float]:
    experiment = Level1EccExperiment(
        noise=_noise_for_rate(WORKLOAD_RATE, EXPECTED_PARAMETERS)
    )
    rng = np.random.default_rng(11)
    # Warm both paths first so compilation / mapping caches are excluded from
    # the timings (both engines cache per circuit, not per shot).
    experiment.run_trial_batch(rng, 8)
    experiment.run_trial(rng)

    start = time.perf_counter()
    completed = 0
    while completed < BATCHED_SHOTS:
        experiment.run_trial_batch(rng, BATCH_SIZE)
        completed += BATCH_SIZE
    batched_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(PER_SHOT_SHOTS):
        experiment.run_trial(rng)
    per_shot_seconds = time.perf_counter() - start

    batched_rate = completed / batched_seconds
    per_shot_rate = PER_SHOT_SHOTS / per_shot_seconds
    return {
        "engine": resolved_engine(
            ExperimentSpec(
                experiment="logical_failure",
                noise=NoiseSpec(physical_rates=(WORKLOAD_RATE,)),
                sampling=SamplingSpec(shots=completed, batch_size=BATCH_SIZE),
            )
        ),
        "workload_rate": WORKLOAD_RATE,
        "batch_size": BATCH_SIZE,
        "batched_shots": completed,
        "batched_seconds": batched_seconds,
        "batched_shots_per_second": batched_rate,
        "per_shot_shots": PER_SHOT_SHOTS,
        "per_shot_seconds": per_shot_seconds,
        "per_shot_shots_per_second": per_shot_rate,
        "speedup": batched_rate / per_shot_rate,
    }


def _sweep_agreement() -> dict[str, object]:
    # The default engine against the per-shot "scalar" oracle.
    batched = run(
        ExperimentSpec(
            experiment="threshold_sweep",
            noise=NoiseSpec(kind="uniform", physical_rates=SWEEP_RATES),
            sampling=SamplingSpec(shots=SWEEP_TRIALS, seed=2005, batch_size=BATCH_SIZE),
        )
    ).value
    per_shot = run(
        ExperimentSpec(
            experiment="threshold_sweep",
            noise=NoiseSpec(kind="uniform", physical_rates=SWEEP_RATES),
            sampling=SamplingSpec(shots=SWEEP_TRIALS, seed=2006),
            execution=ExecutionSpec(backend="scalar"),
        )
    ).value
    points = []
    for rate, mc_batched, mc_per_shot in zip(
        SWEEP_RATES, batched.level1, per_shot.level1
    ):
        combined_se = float(
            np.sqrt(mc_batched.standard_error**2 + mc_per_shot.standard_error**2)
        )
        difference = abs(mc_batched.failure_rate - mc_per_shot.failure_rate)
        points.append(
            {
                "physical_rate": rate,
                "batched_failure_rate": mc_batched.failure_rate,
                "per_shot_failure_rate": mc_per_shot.failure_rate,
                "combined_standard_error": combined_se,
                "difference": difference,
                "within_three_sigma": bool(difference <= 3.0 * combined_se + 1e-12),
            }
        )
    return {
        "trials_per_point": SWEEP_TRIALS,
        "batched_pseudothreshold": batched.pseudothreshold,
        "per_shot_pseudothreshold": per_shot.pseudothreshold,
        "points": points,
    }


def _run_benchmark() -> dict[str, object]:
    report = {
        "throughput": _measure_throughput(),
        "figure7_agreement": _sweep_agreement(),
    }
    _OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


@pytest.mark.benchmark(group="batched-throughput", min_rounds=1, max_time=0.0, warmup=False)
def test_batched_engine_throughput_and_agreement(benchmark):
    report = benchmark.pedantic(_run_benchmark, rounds=1, iterations=1)

    throughput = report["throughput"]
    assert throughput["speedup"] >= REQUIRED_SPEEDUP, (
        f"batched engine is only {throughput['speedup']:.1f}x the per-shot baseline"
    )

    agreement = report["figure7_agreement"]
    for point in agreement["points"]:
        assert point["within_three_sigma"], point

    print()
    print(
        f"batched: {throughput['batched_shots_per_second']:.0f} shots/s "
        f"(B={BATCH_SIZE}), per-shot: {throughput['per_shot_shots_per_second']:.0f} "
        f"shots/s, speedup {throughput['speedup']:.1f}x"
    )
    for point in agreement["points"]:
        print(
            f"p={point['physical_rate']:.1e}: batched {point['batched_failure_rate']:.2e}"
            f" vs per-shot {point['per_shot_failure_rate']:.2e}"
            f" (3 sigma = {3 * point['combined_standard_error']:.2e})"
        )
    print(f"report written to {_OUTPUT_PATH}")


if __name__ == "__main__":
    result = _run_benchmark()
    print(json.dumps(result, indent=2))
