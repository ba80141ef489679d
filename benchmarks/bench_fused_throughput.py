"""Throughput of the fused kernel tier vs the packed engine (Figure 7 workload).

The fused tier exists to remove the per-operation Python/numpy dispatch that
dominates the bit-packed engine once states are small and batches are wide: it
executes the whole compiled circuit in one native loop over the packed
bit-planes.  Both engines draw a run's noise as the same sparse noise block
(``repro.stabilizer.fused.noise_block``), so seeded runs agree bit for bit.
This benchmark times both backends on the level-1 Steane logical-gate +
error-correction trial (the Figure 7 workload) at a batch size of 4096,
breaks each engine's time into phases (noise block, kernel, executor, decode
and ideal recovery), checks the fused tier clears a >= 5x speedup on the C
kernel tier, and validates two reproducibility contracts: a seeded
``ExperimentSpec`` must produce **bit-for-bit** identical sweep results on
``"packed"`` and ``"packed-fused"`` at every shard count, and a
process-pool sharded sweep must match the serial sweep **bit for bit**
given the same ``SeedSequence`` and shard count.

Results are written to ``BENCH_fused_throughput.json`` at the repository
root, under a run header naming the library version, fused-kernel tier,
Python, numpy and host.  Run under pytest (``pytest benchmarks/bench_fused_throughput.py``) or
directly (``python benchmarks/bench_fused_throughput.py [--smoke]``);
``--smoke`` runs tiny shot counts and skips the timing assertion -- the CI
regression gate for the fused kernels, the packed-equivalence contract and
shard determinism.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

try:  # the CI smoke job runs this file directly with only numpy installed
    import pytest
except ImportError:  # pragma: no cover - direct execution without pytest
    pytest = None

import repro
from repro.api import ExecutionSpec, ExperimentSpec, NoiseSpec, SamplingSpec, run
from repro.arq.experiments import Level1EccExperiment, _noise_for_rate
from repro.arq.simulator import BatchedNoisyCircuitExecutor
from repro.iontrap.parameters import EXPECTED_PARAMETERS
from repro.stabilizer import fused as fused_module
from repro.stabilizer.fused import kernel_tier

#: Component failure rate of the throughput workload (mid-sweep Figure 7 point).
WORKLOAD_RATE = 2.0e-3
#: Lanes per batched call; the acceptance criterion pins B=4096.
BATCH_SIZE = 4096
#: Shots timed per engine.
TIMED_SHOTS = 8192
#: Required speedup of the fused tier over the packed engine (C kernel tier).
REQUIRED_SPEEDUP = 5.0

#: Packed-equivalence replay configuration.
REPLAY_RATES = (2.0e-3, 1.0e-2)
REPLAY_TRIALS = 1024
REPLAY_SEED = 20260807
REPLAY_SHARD_COUNTS = (1, 4)

#: Sharded-sweep determinism check configuration.
SWEEP_RATES = (2.0e-3, 1.0e-2)
SWEEP_TRIALS = 1024
SWEEP_SEED = 20260728
SWEEP_SHARDS = 4

_OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_fused_throughput.json"


def _run_header() -> dict[str, object]:
    """Library version, fused-kernel tier and host of this run."""
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        lines = cpuinfo.read_text().splitlines()
        models = [line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")]
        cpu = models[0] if models else cpu
    return {
        "repro_version": repro.__version__,
        "kernel_tier": kernel_tier(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "host": {"machine": platform.machine(), "cpu": cpu, "nproc": os.cpu_count()},
    }


@contextmanager
def _phase_clock(backend: str):
    """Accumulate the host time of each Monte-Carlo phase run inside the block.

    * ``executor_s`` -- every batched circuit run, inclusive;
    * ``noise_block_s`` -- sampling the runs' noise blocks (both engines);
    * ``kernel_s`` -- executing the circuits: the C or numpy kernel for
      ``packed-fused``, the per-operation word loop for ``packed`` (less the
      noise block it samples first);
    * ``decode_s`` -- the rest of each trial batch: state creation, syndrome
      decoding, corrections and the ideal recovery;
    * ``ideal_recovery_s`` -- the ideal recovery alone (part of ``decode_s``).
    """
    phases = dict.fromkeys(
        ("executor_s", "noise_block_s", "kernel_s", "decode_s", "ideal_recovery_s"), 0.0
    )
    originals = []

    def wrap(owner, name, key):
        original = vars(owner)[name]
        originals.append((owner, name, original))

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                phases[key] += time.perf_counter() - start

        setattr(owner, name, wrapper)

    if backend == "packed-fused":
        wrap(fused_module, "_run_kernel", "kernel_s")
    else:
        wrap(BatchedNoisyCircuitExecutor, "_run_packed", "kernel_s")
    wrap(fused_module, "_plan_block", "noise_block_s")
    wrap(BatchedNoisyCircuitExecutor, "run", "executor_s")
    wrap(Level1EccExperiment, "_batch_attempt", "decode_s")
    wrap(Level1EccExperiment, "_ideal_recovery_says_one_batch", "ideal_recovery_s")
    try:
        yield phases
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
        if backend != "packed-fused":
            phases["kernel_s"] -= phases["noise_block_s"]
        phases["decode_s"] -= phases["executor_s"]


def _time_backend(backend: str, shots: int, batch_size: int) -> dict[str, object]:
    experiment = Level1EccExperiment(
        noise=_noise_for_rate(WORKLOAD_RATE, EXPECTED_PARAMETERS), backend=backend
    )
    rng = np.random.default_rng(11)
    # Warm the compiled-circuit / kernel / schedule caches before timing.
    experiment.run_trial_batch(rng, min(64, batch_size))
    with _phase_clock(backend) as phases:
        start = time.perf_counter()
        completed = 0
        while completed < shots:
            experiment.run_trial_batch(rng, batch_size)
            completed += batch_size
        seconds = time.perf_counter() - start
    return {
        "backend": backend,
        "batch_size": batch_size,
        "shots": completed,
        "seconds": seconds,
        "shots_per_second": completed / seconds,
        "phases": phases,
    }


def _measure_throughput(shots: int, batch_size: int) -> dict[str, object]:
    packed = _time_backend("packed", shots, batch_size)
    fused = _time_backend("packed-fused", shots, batch_size)
    return {
        "workload_rate": WORKLOAD_RATE,
        "kernel_tier": kernel_tier(),
        "packed": packed,
        "packed_fused": fused,
        "speedup": fused["shots_per_second"] / packed["shots_per_second"],
    }


def _replay_spec(backend: str, trials: int, num_shards: int) -> ExperimentSpec:
    return ExperimentSpec(
        experiment="threshold_sweep",
        noise=NoiseSpec(kind="uniform", physical_rates=REPLAY_RATES),
        sampling=SamplingSpec(shots=trials, seed=REPLAY_SEED, batch_size=512),
        execution=ExecutionSpec(backend=backend, num_shards=num_shards),
    )


def _packed_equivalence(trials: int, shard_counts) -> dict[str, object]:
    """Same seed, ``packed`` vs ``packed-fused``: must be bit-for-bit equal."""
    runs = []
    for num_shards in shard_counts:
        packed_run = run(_replay_spec("packed", trials, num_shards))
        fused_run = run(_replay_spec("packed-fused", trials, num_shards))
        packed, fused = packed_run.value, fused_run.value
        points = [
            {
                "physical_rate": rate,
                "packed": {"failures": p.failures, "trials": p.trials},
                "packed_fused": {"failures": f.failures, "trials": f.trials},
                "bit_for_bit": bool(p == f),
            }
            for rate, p, f in zip(REPLAY_RATES, packed.level1, fused.level1)
        ]
        runs.append(
            {
                "num_shards": num_shards,
                "seed_entropy": fused_run.seed_entropy,
                "engines": {"packed": packed_run.engine, "fused": fused_run.engine},
                "packed_pseudothreshold": packed.pseudothreshold,
                "fused_pseudothreshold": fused.pseudothreshold,
                "bit_for_bit": all(point["bit_for_bit"] for point in points)
                and packed.concatenation_coefficient == fused.concatenation_coefficient,
                "points": points,
            }
        )
    return {
        "trials_per_point": trials,
        "bit_for_bit": all(r["bit_for_bit"] for r in runs),
        "runs": runs,
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
        throughput = _measure_throughput(shots=256, batch_size=128)
        equivalence = _packed_equivalence(trials=96, shard_counts=(1, 2))
        determinism = _sharded_sweep_determinism(trials=96, num_shards=2)
    else:
        throughput = _measure_throughput(shots=TIMED_SHOTS, batch_size=BATCH_SIZE)
        equivalence = _packed_equivalence(
            trials=REPLAY_TRIALS, shard_counts=REPLAY_SHARD_COUNTS
        )
        determinism = _sharded_sweep_determinism(trials=SWEEP_TRIALS, num_shards=SWEEP_SHARDS)
    report = {
        "header": _run_header(),
        "smoke": smoke,
        "throughput": throughput,
        "packed_equivalence": equivalence,
        "sharded_sweep": determinism,
    }
    if not smoke:
        _OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def _check(report: dict[str, object], smoke: bool) -> None:
    throughput = report["throughput"]
    if not smoke and throughput["kernel_tier"] == "cext":
        assert throughput["speedup"] >= REQUIRED_SPEEDUP, (
            f"fused tier ({throughput['kernel_tier']}) is only "
            f"{throughput['speedup']:.1f}x the packed engine"
        )
    for engine in ("packed", "packed_fused"):
        timing = throughput[engine]
        phases = timing["phases"]
        timed = phases["executor_s"] + phases["decode_s"]
        assert 0.0 < timed <= timing["seconds"], timing
        assert phases["noise_block_s"] + phases["kernel_s"] <= phases["executor_s"], timing
    assert report["packed_equivalence"]["bit_for_bit"], report["packed_equivalence"]
    assert report["sharded_sweep"]["bit_for_bit"], report["sharded_sweep"]


if pytest is not None:

    @pytest.mark.benchmark(
        group="fused-throughput", min_rounds=1, max_time=0.0, warmup=False
    )
    def test_fused_tier_throughput_and_packed_equivalence(benchmark):
        report = benchmark.pedantic(_run_benchmark, rounds=1, iterations=1)
        _check(report, smoke=False)

        throughput = report["throughput"]
        print()
        print(
            f"packed-fused ({throughput['kernel_tier']}): "
            f"{throughput['packed_fused']['shots_per_second']:.0f} shots/s, "
            f"packed: {throughput['packed']['shots_per_second']:.0f} shots/s "
            f"(B={BATCH_SIZE}), speedup {throughput['speedup']:.1f}x"
        )
        print(
            "packed equivalence bit-for-bit: "
            f"{report['packed_equivalence']['bit_for_bit']} "
            f"(shard counts {list(REPLAY_SHARD_COUNTS)})"
        )
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
    _check(result, smoke=smoke_mode)
    print(json.dumps(result, indent=2))
    if smoke_mode:
        print(
            "smoke benchmark passed: fused kernels + packed equivalence + shard determinism OK",
            file=sys.stderr,
        )
