"""Throughput of the Pauli-frame engine on the Figure 7 workload, layer by layer.

Times ``repro.api.run`` on a Figure 7 threshold sweep -- 4 physical rates,
4096 shots per rate in one 4096-lane batch, on the ``"frame"`` engine -- and
breaks each run's host time down by layer:

* ``reference_pass_s`` -- the noiseless reference passes, which are cached
  by program content, so only the cold (first) run pays them;
* ``kernel_s`` -- the C or numpy frame kernel, which since v1.13.0 also
  samples the run's noise and random measurement words from its one seed
  (there is no separate sampling layer any more);
* ``executor_other_s`` -- the rest of each batched run: plan, reference and
  noise-template lookup, the seed draw and the result;
* ``decode_s`` -- the rest of each trial batch: state creation and the
  lookup decode (syndrome lookup, ideal recovery and the three per-lane
  flags, one native call on the C tier);
* ``api_other_s`` -- ``api.run`` less its trial batches: backend
  resolution, experiment build, compilation and result assembly.

Beside the layers it reports ``attempts_per_batch``: executor runs per
trial batch, i.e. the verification attempts (first attempt plus pooled
retries) each 4096-lane Level-1 batch makes, which must stay at or below 3.
An attempt is one executor run of three segments (ideal preparation, noisy
gate, noisy ECC cycle) and one kernel call.

A second table, ``attempt_costs``, gives the fixed cost of one Level-1
attempt (``Level1EccExperiment._batch_attempt``) at 32, 512 and 4096 lanes,
in microseconds: ``kernel_us`` (the kernel with its sampling),
``decode_us`` (state creation and the lookup decode) and ``other_us``
(the rest of the executor run), from the fastest of several rounds of
back-to-back attempts.

Two contracts are validated: seeded Level-1 batches reproduce their recorded
digests bit for bit (re-pinned at v1.13.0 in
``tests/data/frame_v1_13_golden.json``, when the kernel began sampling from
one seed per run), and a process-pool sharded sweep matches the serial
sweep **bit for bit** given the same ``SeedSequence`` and shard count.

Results are written to ``BENCH_fused_throughput.json`` at the repository
root, under a run header naming the library version, kernel tier, Python,
numpy and host.  Run under pytest
(``pytest benchmarks/bench_fused_throughput.py``) or directly
(``python benchmarks/bench_fused_throughput.py [--smoke]``); ``--smoke``
runs two warm 4096-lane runs and tiny golden and sharded checks, and writes
nothing -- the CI regression gate for the frame kernels, the retry count,
the golden digests and shard determinism.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

try:  # the CI smoke job runs this file directly with only numpy installed
    import pytest
except ImportError:  # pragma: no cover - direct execution without pytest
    pytest = None

from repro.api import ExecutionSpec, ExperimentSpec, NoiseSpec, SamplingSpec, run
from repro.arq.experiments import Level1EccExperiment, _noise_for_rate
from repro.arq.simulator import BatchedNoisyCircuitExecutor
from repro.iontrap.parameters import EXPECTED_PARAMETERS
from repro.stabilizer import fused as fused_module
from repro.stabilizer.fused import kernel_tier

# Run as a script, the benchmarks package is found from the repository root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from benchmarks._header import run_header  # noqa: E402

#: The Figure 7 sweep timed through ``repro.api.run``.
WORKLOAD_RATES = (2.0e-3, 4.0e-3, 6.0e-3, 8.0e-3)
#: Shots per rate, all in one batch.
BATCH_SIZE = 4096
#: Warm runs timed after the cold one.
WARM_RUNS = 20
#: Most verification attempts a 4096-lane trial batch may make on average.
MAX_ATTEMPTS_PER_BATCH = 3
#: Lane counts and physical rate of the per-attempt fixed-cost table.
ATTEMPT_WIDTHS = (32, 512, 4096)
ATTEMPT_RATE = 4.0e-3
#: Rounds of the per-attempt table, and attempts timed per round.
ATTEMPT_ROUNDS = 15
ATTEMPTS_PER_ROUND = 20

#: Golden Level-1 digests, re-pinned at v1.13.0.
GOLDEN_PATH = Path(__file__).resolve().parent.parent / "tests" / "data" / "frame_v1_13_golden.json"
#: Golden Level-1 digests checked: (batch size, physical rate) keys.
GOLDEN_KEYS = tuple(
    (batch, rate) for batch in (1, 63, 64, 65, 4096) for rate in (4.0e-3, 0.3)
)

#: Sharded-sweep determinism check configuration.
SWEEP_RATES = (2.0e-3, 1.0e-2)
SWEEP_TRIALS = 1024
SWEEP_SEED = 20260728
SWEEP_SHARDS = 4

_OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_fused_throughput.json"

_PHASES = (
    "api_run_s",
    "trial_batch_s",
    "executor_s",
    "reference_pass_s",
    "kernel_s",
)


#: The layers ``_measure_throughput`` times: (owner, attribute, phase).
_THROUGHPUT_WRAPS = (
    (Level1EccExperiment, "run_trial_batch_detailed", "trial_batch_s"),
    (BatchedNoisyCircuitExecutor, "run", "executor_s"),
    (fused_module, "_reference_pass", "reference_pass_s"),
    (fused_module, "_run_kernel", "kernel_s"),
)


@contextmanager
def _phase_clock(wraps=_THROUGHPUT_WRAPS, phases=_PHASES):
    """Accumulate the inclusive host time and calls of each wrapped layer.

    Yields ``(totals, calls)``.  ``api_run_s`` is left to the caller, who
    times its ``repro.api.run`` calls.
    """
    totals = dict.fromkeys(phases, 0.0)
    calls = dict.fromkeys(phases, 0)
    originals = []

    def wrap(owner, name, key):
        original = vars(owner)[name]
        originals.append((owner, name, original))

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                totals[key] += time.perf_counter() - start
                calls[key] += 1

        setattr(owner, name, wrapper)

    for owner, name, key in wraps:
        wrap(owner, name, key)
    try:
        yield totals, calls
    finally:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)


def _layers(totals: dict[str, float], runs: int) -> dict[str, float]:
    """Exclusive per-run seconds of each layer from inclusive totals."""
    per_run = {key: value / runs for key, value in totals.items()}
    return {
        "api_run_s": per_run["api_run_s"],
        "reference_pass_s": per_run["reference_pass_s"],
        "kernel_s": per_run["kernel_s"],
        "executor_other_s": per_run["executor_s"]
        - per_run["reference_pass_s"]
        - per_run["kernel_s"],
        "decode_s": per_run["trial_batch_s"] - per_run["executor_s"],
        "api_other_s": per_run["api_run_s"] - per_run["trial_batch_s"],
    }


def _workload_spec(shots: int, seed: int) -> ExperimentSpec:
    return ExperimentSpec(
        experiment="threshold_sweep",
        noise=NoiseSpec(kind="uniform", physical_rates=WORKLOAD_RATES),
        sampling=SamplingSpec(shots=shots, seed=seed, batch_size=shots),
        execution=ExecutionSpec(backend="frame", num_shards=1),
    )


def _measure_throughput(shots: int, warm_runs: int) -> dict[str, object]:
    """One cold run, then ``warm_runs`` timed ``repro.api.run`` calls."""
    fused_module._REFERENCE_CACHE.clear()
    with _phase_clock() as (totals, _):
        start = time.perf_counter()
        engine = run(_workload_spec(shots, seed=0)).engine
        cold_seconds = totals["api_run_s"] = time.perf_counter() - start
    cold = _layers(totals, 1)
    seconds = []
    with _phase_clock() as (totals, calls):
        for seed in range(1, warm_runs + 1):
            start = time.perf_counter()
            run(_workload_spec(shots, seed=seed))
            seconds.append(time.perf_counter() - start)
        totals["api_run_s"] = sum(seconds)
    shots_per_run = shots * len(WORKLOAD_RATES)
    median = statistics.median(seconds)
    return {
        "workload": "threshold_sweep",
        "physical_rates": list(WORKLOAD_RATES),
        "shots_per_rate": shots,
        "batch_size": shots,
        "engine": engine,
        "kernel_tier": kernel_tier(),
        "cold": {"seconds": cold_seconds, "layers": cold},
        "warm_runs": warm_runs,
        "best_seconds": min(seconds),
        "median_seconds": median,
        "shots_per_second": shots_per_run / median,
        "layers": _layers(totals, warm_runs),
        "attempts_per_batch": calls["executor_s"] / calls["trial_batch_s"],
    }


#: The layers of one Level-1 attempt that ``_attempt_costs`` times.
_ATTEMPT_PHASES = ("attempt", "executor", "kernel")
_ATTEMPT_WRAPS = (
    (Level1EccExperiment, "_batch_attempt", "attempt"),
    (BatchedNoisyCircuitExecutor, "run", "executor"),
    (fused_module, "_run_kernel", "kernel"),
)


def _attempt_costs(rounds: int, attempts: int) -> dict[str, object]:
    """Microseconds per Level-1 attempt, by layer, at each of ``ATTEMPT_WIDTHS``.

    Each round times ``attempts`` back-to-back attempts; the round with the
    fastest attempts gives the row, so other load on the host shows less.
    """
    experiment = Level1EccExperiment(noise=_noise_for_rate(ATTEMPT_RATE, EXPECTED_PARAMETERS))
    widths = {}
    for width in ATTEMPT_WIDTHS:
        rng = np.random.default_rng(width)
        experiment._batch_attempt(rng, width)
        best = None
        for _ in range(rounds):
            with _phase_clock(_ATTEMPT_WRAPS, _ATTEMPT_PHASES) as (totals, _):
                for _ in range(attempts):
                    experiment._batch_attempt(rng, width)
            if best is None or totals["attempt"] < best["attempt"]:
                best = dict(totals)
        us = {key: 1e6 * value / attempts for key, value in best.items()}
        widths[str(width)] = {
            "kernel_us": us["kernel"],
            "decode_us": us["attempt"] - us["executor"],
            "other_us": us["executor"] - us["kernel"],
            "attempt_us": us["attempt"],
        }
    return {
        "physical_rate": ATTEMPT_RATE,
        "rounds": rounds,
        "attempts_per_round": attempts,
        "widths": widths,
    }


def outcome_digest(outcome: dict[str, np.ndarray]) -> str:
    """SHA-256 over the flags of ``run_trial_batch_detailed`` (as in the tests)."""
    digest = hashlib.sha256()
    for key in sorted(outcome):
        digest.update(key.encode())
        digest.update(np.asarray(outcome[key], dtype=np.uint8).tobytes())
    return digest.hexdigest()


def _golden_digests(keys) -> dict[str, object]:
    """Seeded Level-1 batches against their recorded digests."""
    golden = json.loads(GOLDEN_PATH.read_text())["level1"]
    points = []
    for batch, rate in keys:
        experiment = Level1EccExperiment(noise=_noise_for_rate(rate, EXPECTED_PARAMETERS))
        outcome = experiment.run_trial_batch_detailed(np.random.default_rng(batch), batch)
        key = f"{batch}-{rate!r}"
        points.append({"key": key, "bit_for_bit": outcome_digest(outcome) == golden[key]})
    return {
        "reference_version": "1.13.0",
        "bit_for_bit": all(point["bit_for_bit"] for point in points),
        "points": points,
    }


def _sweep_spec(trials: int, num_shards: int, num_workers: int) -> ExperimentSpec:
    return ExperimentSpec(
        experiment="threshold_sweep",
        noise=NoiseSpec(kind="uniform", physical_rates=SWEEP_RATES),
        sampling=SamplingSpec(shots=trials, seed=SWEEP_SEED, batch_size=512),
        execution=ExecutionSpec(backend="auto", num_shards=num_shards, num_workers=num_workers),
    )


def _sharded_sweep_determinism(trials: int, num_shards: int) -> dict[str, object]:
    """Serial vs process-pool spec run: must be bit-for-bit identical."""
    serial_run = run(_sweep_spec(trials, num_shards, num_workers=0))
    start = time.perf_counter()
    pooled_run = run(_sweep_spec(trials, num_shards, num_workers=2))
    pooled_seconds = time.perf_counter() - start
    serial, pooled = serial_run.value, pooled_run.value
    points = [
        {
            "physical_rate": rate,
            "serial": {"failures": s.failures, "trials": s.trials},
            "pooled": {"failures": p.failures, "trials": p.trials},
            "bit_for_bit": bool(s == p),
        }
        for rate, s, p in zip(SWEEP_RATES, serial.level1, pooled.level1)
    ]
    return {
        "seed_entropy": serial_run.seed_entropy,
        "backend": pooled_run.backend,
        "engine": pooled_run.engine,
        "num_shards": num_shards,
        "trials_per_point": trials,
        "pooled_workers": 2,
        "pooled_seconds": pooled_seconds,
        "serial_pseudothreshold": serial.pseudothreshold,
        "pooled_pseudothreshold": pooled.pseudothreshold,
        "bit_for_bit": all(point["bit_for_bit"] for point in points)
        and serial.concatenation_coefficient == pooled.concatenation_coefficient,
        "points": points,
    }


def _run_benchmark(smoke: bool = False) -> dict[str, object]:
    if smoke:
        throughput = _measure_throughput(shots=BATCH_SIZE, warm_runs=2)
        attempts = _attempt_costs(rounds=2, attempts=3)
        golden = _golden_digests(key for key in GOLDEN_KEYS if key[0] <= 65)
        determinism = _sharded_sweep_determinism(trials=96, num_shards=2)
    else:
        throughput = _measure_throughput(shots=BATCH_SIZE, warm_runs=WARM_RUNS)
        attempts = _attempt_costs(rounds=ATTEMPT_ROUNDS, attempts=ATTEMPTS_PER_ROUND)
        golden = _golden_digests(GOLDEN_KEYS)
        determinism = _sharded_sweep_determinism(trials=SWEEP_TRIALS, num_shards=SWEEP_SHARDS)
    report = {
        "header": run_header(),
        "smoke": smoke,
        "throughput": throughput,
        "attempt_costs": attempts,
        "golden_digests": golden,
        "sharded_sweep": determinism,
    }
    if not smoke:
        _OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def _check(report: dict[str, object]) -> None:
    throughput = report["throughput"]
    assert throughput["engine"] == "frame", throughput["engine"]
    for layers in (throughput["layers"], throughput["cold"]["layers"]):
        assert all(seconds >= 0.0 for seconds in layers.values()), layers
    # The reference passes are cached by program content: cold runs pay them,
    # warm runs do not.
    assert throughput["cold"]["layers"]["reference_pass_s"] > 0.0, throughput["cold"]
    assert throughput["layers"]["reference_pass_s"] == 0.0, throughput["layers"]
    # Pooled verification retries: one retry sub-batch per trial batch, rarely two.
    assert throughput["attempts_per_batch"] <= MAX_ATTEMPTS_PER_BATCH, throughput
    for costs in report["attempt_costs"]["widths"].values():
        assert all(us >= 0.0 for us in costs.values()), costs
    assert report["golden_digests"]["bit_for_bit"], report["golden_digests"]
    assert report["sharded_sweep"]["bit_for_bit"], report["sharded_sweep"]


if pytest is not None:

    @pytest.mark.benchmark(
        group="fused-throughput", min_rounds=1, max_time=0.0, warmup=False
    )
    def test_frame_engine_throughput_and_golden_digests(benchmark):
        report = benchmark.pedantic(_run_benchmark, rounds=1, iterations=1)
        _check(report)

        throughput = report["throughput"]
        print()
        print(
            f"frame ({throughput['kernel_tier']}): "
            f"{throughput['shots_per_second']:.0f} shots/s through repro.api.run "
            f"(B={BATCH_SIZE}, {len(WORKLOAD_RATES)} rates)"
        )
        print(f"verification attempts per trial batch: {throughput['attempts_per_batch']:.2f}")
        for width, costs in report["attempt_costs"]["widths"].items():
            print(
                f"one {width}-lane attempt: {costs['attempt_us']:.0f} us = kernel "
                f"{costs['kernel_us']:.0f} + decode {costs['decode_us']:.0f} + other "
                f"{costs['other_us']:.0f}"
            )
        print(f"golden digests bit-for-bit: {report['golden_digests']['bit_for_bit']}")
        print(
            "sharded sweep bit-for-bit: "
            f"{report['sharded_sweep']['bit_for_bit']} "
            f"(seed {report['sharded_sweep']['seed_entropy']}, "
            f"{report['sharded_sweep']['num_shards']} shards)"
        )
        print(f"report written to {_OUTPUT_PATH}")


if __name__ == "__main__":
    smoke_mode = "--smoke" in sys.argv[1:]
    result = _run_benchmark(smoke=smoke_mode)
    _check(result)
    print(json.dumps(result, indent=2))
    if smoke_mode:
        print(
            "smoke benchmark passed: frame kernels + retry count + golden digests + "
            "shard determinism OK",
            file=sys.stderr,
        )
