"""Throughput of the Pauli-frame engine on the Figure 7 workload, layer by layer.

Times ``repro.api.run`` on a Figure 7 threshold sweep -- 4 physical rates,
4096 shots per rate in one 4096-lane batch, on the ``"frame"`` engine -- and
breaks each run's host time down into disjoint layers (each wrapped call's
own time, less the wrapped calls inside it):

* ``reference_pass_s`` -- the noiseless reference passes, which are cached
  by program content, so only the cold (first) run pays them;
* ``native_batch_s`` -- on the C tier, each trial batch's one native call
  (``repro_level1_batch``): every attempt's frame kernel with its noise
  sampling, its lookup decode and the pooled-retry hand-out;
* ``kernel_s`` -- on the numpy tier, the frame kernel of each attempt,
  which samples the run's noise and random measurement words from its one
  seed;
* ``executor_other_s`` -- on the numpy tier, the rest of each batched run:
  plan, reference and noise-template lookup, the seed draw and the result;
* ``trial_batch_other_s`` -- the rest of each trial batch: on the numpy
  tier state creation, the lookup decode and the retry loop; on the C tier
  the resolution of an attempt's run (once per experiment) and the call's
  buffers;
* ``api_other_s`` -- ``api.run`` less its trial batches: backend
  resolution, experiment build, compilation and result assembly.

Beside the layers it reports ``attempts_per_batch``: the verification
attempts (first attempt plus pooled retries) each 4096-lane Level-1 batch
makes, as the trial batch reports them, which must stay at or below 3.
An attempt is one run of three segments (ideal preparation, noisy gate,
noisy ECC cycle) and its decode.

A second table, ``attempt_costs``, gives the fixed cost of one Level-1
attempt through the executor (``Level1EccExperiment._batch_attempt``, the
Python retry loop's step) at 32, 512 and 4096 lanes, in microseconds:
``kernel_us`` (the kernel with its sampling), ``decode_us`` (state
creation and the lookup decode) and ``other_us`` (the rest of the executor
run), from the fastest of several rounds of back-to-back attempts.

A third, ``point_latency``, times single ``logical_failure`` points through
``repro.api.run`` at 32, 128 and 512 shots, cycling over six physical
rates as the small points of a Figure 7 study do: microseconds per point,
split into the trial batch and the rest of the API, from the fastest of
several rounds.

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

import repro.arq.experiments as experiments_module
import repro.parallel as parallel_module
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
#: Shots and physical rates of the per-point latency table.
POINT_SHOTS = (32, 128, 512)
POINT_RATES = (1.0e-3, 2.0e-3, 3.0e-3, 4.0e-3, 6.0e-3, 8.0e-3)
#: Rounds of the per-point table, and points timed per round.
POINT_ROUNDS = 10
POINTS_PER_ROUND = 60

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
    "native_batch_s",
)


def _attempts_made(experiment, *args) -> int:
    """The attempts of the trial batch an experiment just ran."""
    return len(experiment._attempt_widths)


#: The layers ``_measure_throughput`` times: (owner, attribute, phase), and
#: optionally what each call adds to the phase's count.
_THROUGHPUT_WRAPS = (
    (Level1EccExperiment, "run_trial_batch_detailed", "trial_batch_s", _attempts_made),
    (BatchedNoisyCircuitExecutor, "run", "executor_s"),
    (fused_module, "_reference_pass", "reference_pass_s"),
    (fused_module, "_run_kernel", "kernel_s"),
    (experiments_module, "_level1_batch", "native_batch_s"),
)


@contextmanager
def _phase_clock(wraps=_THROUGHPUT_WRAPS, phases=_PHASES):
    """Accumulate the host time, own time, calls and counts of each wrapped layer.

    Yields ``(totals, own, calls, counts)``: a layer's own time leaves out
    the wrapped calls made inside it.  ``api_run_s`` is left to the caller,
    who times its ``repro.api.run`` calls.
    """
    totals = dict.fromkeys(phases, 0.0)
    own = dict.fromkeys(phases, 0.0)
    calls = dict.fromkeys(phases, 0)
    counts = dict.fromkeys(phases, 0)
    nested: list[float] = []
    originals = []

    def wrap(owner, name, key, count=None):
        original = vars(owner)[name]
        originals.append((owner, name, original))

        def wrapper(*args, **kwargs):
            nested.append(0.0)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                totals[key] += elapsed
                own[key] += elapsed - nested.pop()
                calls[key] += 1
                if nested:
                    nested[-1] += elapsed
                if count is not None:
                    counts[key] += count(*args)

        setattr(owner, name, wrapper)

    for entry in wraps:
        wrap(*entry)
    try:
        yield totals, own, calls, counts
    finally:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)


def _layers(totals: dict[str, float], own: dict[str, float], runs: int) -> dict[str, float]:
    """Disjoint per-run seconds of each layer."""
    return {
        "api_run_s": totals["api_run_s"] / runs,
        "reference_pass_s": own["reference_pass_s"] / runs,
        "native_batch_s": own["native_batch_s"] / runs,
        "kernel_s": own["kernel_s"] / runs,
        "executor_other_s": own["executor_s"] / runs,
        "trial_batch_other_s": own["trial_batch_s"] / runs,
        "api_other_s": (totals["api_run_s"] - totals["trial_batch_s"]) / runs,
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
    # Cached experiments hold their resolved reference passes too.
    fused_module._REFERENCE_CACHE.clear()
    parallel_module._EXPERIMENT_CACHE.clear()
    with _phase_clock() as (totals, own, _, _):
        start = time.perf_counter()
        engine = run(_workload_spec(shots, seed=0)).engine
        cold_seconds = totals["api_run_s"] = time.perf_counter() - start
    cold = _layers(totals, own, 1)
    seconds = []
    with _phase_clock() as (totals, own, calls, counts):
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
        "layers": _layers(totals, own, warm_runs),
        "attempts_per_batch": counts["trial_batch_s"] / calls["trial_batch_s"],
        "executor_runs_per_batch": calls["executor_s"] / calls["trial_batch_s"],
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
            with _phase_clock(_ATTEMPT_WRAPS, _ATTEMPT_PHASES) as (totals, _, _, _):
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


def _point_spec(shots: int, rate: float, seed: int) -> ExperimentSpec:
    return ExperimentSpec(
        experiment="logical_failure",
        noise=NoiseSpec(kind="uniform", physical_rates=(rate,)),
        sampling=SamplingSpec(shots=shots, seed=seed),
    )


def _point_latency(rounds: int, points: int) -> dict[str, object]:
    """Microseconds per ``logical_failure`` point at each of ``POINT_SHOTS``.

    Each round runs ``points`` points, cycling over ``POINT_RATES`` with a
    fresh seed each; the round with the fastest points gives the row.
    """
    table = {}
    for shots in POINT_SHOTS:
        specs = [
            _point_spec(shots, POINT_RATES[i % len(POINT_RATES)], seed=i) for i in range(points)
        ]
        for spec in specs[: len(POINT_RATES)]:
            run(spec)
        best = None
        for _ in range(rounds):
            with _phase_clock(_THROUGHPUT_WRAPS[:1]) as (totals, _, calls, counts):
                start = time.perf_counter()
                for spec in specs:
                    run(spec)
                totals["api_run_s"] = time.perf_counter() - start
            if best is None or totals["api_run_s"] < best[0]["api_run_s"]:
                best = dict(totals), counts["trial_batch_s"] / calls["trial_batch_s"]
        (totals, attempts) = best
        api_us, batch_us = (1e6 * totals[key] / points for key in ("api_run_s", "trial_batch_s"))
        table[str(shots)] = {
            "api_run_us": api_us,
            "trial_batch_us": batch_us,
            "api_other_us": api_us - batch_us,
            "attempts_per_batch": attempts,
        }
    return {
        "physical_rates": list(POINT_RATES),
        "rounds": rounds,
        "points_per_round": points,
        "shots": table,
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
        points = _point_latency(rounds=1, points=len(POINT_RATES))
        golden = _golden_digests(key for key in GOLDEN_KEYS if key[0] <= 65)
        determinism = _sharded_sweep_determinism(trials=96, num_shards=2)
    else:
        throughput = _measure_throughput(shots=BATCH_SIZE, warm_runs=WARM_RUNS)
        attempts = _attempt_costs(rounds=ATTEMPT_ROUNDS, attempts=ATTEMPTS_PER_ROUND)
        points = _point_latency(rounds=POINT_ROUNDS, points=POINTS_PER_ROUND)
        golden = _golden_digests(GOLDEN_KEYS)
        determinism = _sharded_sweep_determinism(trials=SWEEP_TRIALS, num_shards=SWEEP_SHARDS)
    report = {
        "header": run_header(),
        "smoke": smoke,
        "throughput": throughput,
        "attempt_costs": attempts,
        "point_latency": points,
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
    # Pooled verification retries: one retry sub-batch per trial batch, rarely
    # two.  Every batch makes a first attempt, so a ratio below 1 would mean
    # the attempts went uncounted.
    assert 1.0 <= throughput["attempts_per_batch"] <= MAX_ATTEMPTS_PER_BATCH, throughput
    if throughput["kernel_tier"] == "numpy":
        # The Python retry loop runs the executor once per attempt.
        assert throughput["executor_runs_per_batch"] == throughput["attempts_per_batch"]
    for costs in report["attempt_costs"]["widths"].values():
        assert all(us >= 0.0 for us in costs.values()), costs
    for costs in report["point_latency"]["shots"].values():
        assert costs["attempts_per_batch"] >= 1.0, costs
        assert costs["api_run_us"] >= costs["trial_batch_us"] > 0.0, costs
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
        for shots, costs in report["point_latency"]["shots"].items():
            print(
                f"one {shots}-shot point: {costs['api_run_us']:.0f} us = trial batch "
                f"{costs['trial_batch_us']:.0f} + api {costs['api_other_us']:.0f}"
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
