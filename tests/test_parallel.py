"""Determinism and exact-aggregation guarantees of the sharded Monte-Carlo layer.

The contract of :mod:`repro.parallel`: for a fixed ``(seed, num_shards)`` the
shard plan is pure -- the same outcomes are produced no matter how many worker
processes execute it -- and the early-stop aggregation replays sequential
semantics exactly over the concatenated shard streams.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import time
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest

from repro import faults
from repro.api import (
    ExecutionSpec,
    ExperimentSpec,
    NoiseSpec,
    SamplingSpec,
    run,
)
from repro.exceptions import ParameterError
from repro.parallel import (
    Level1ShardTask,
    RetryPolicy,
    ShardOutcome,
    WorkerCrashError,
    aggregate_shard_outcomes,
    as_seed_sequence,
    estimate_failure_rate_sharded,
    run_sharded_outcomes,
    shard_sizes,
    spawn_shard_seeds,
    supervise,
)
from repro.stabilizer import estimate_failure_rate_batched, pack_bits

#: Outputs recorded from v1.9.0's engines (see test_stabilizer_fused.py).
GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "fused_v1_9_golden.json").read_text()
)

def _coin_task(rng: np.random.Generator, count: int) -> np.ndarray:
    """Cheap picklable batch trial: iid failures at rate 0.25."""
    return rng.random(count) < 0.25


def _reject(value: int) -> int:
    """A picklable job that raises its own exception on every attempt."""
    raise ValueError(f"rejected input {value}")


class TestShardPlan:
    def test_shard_sizes_balanced(self):
        assert shard_sizes(10, 3) == [4, 3, 3]
        assert shard_sizes(6, 3) == [2, 2, 2]
        assert shard_sizes(2, 4) == [1, 1, 0, 0]
        assert sum(shard_sizes(1_000_003, 7)) == 1_000_003

    def test_shard_sizes_validation(self):
        with pytest.raises(ParameterError):
            shard_sizes(10, 0)
        with pytest.raises(ParameterError):
            shard_sizes(-1, 2)

    def test_spawn_shard_seeds_deterministic(self):
        first = spawn_shard_seeds(99, 4)
        second = spawn_shard_seeds(np.random.SeedSequence(99), 4)
        assert [s.spawn_key for s in first] == [s.spawn_key for s in second]
        streams_a = [np.random.default_rng(s).integers(1 << 30) for s in first]
        streams_b = [np.random.default_rng(s).integers(1 << 30) for s in second]
        assert streams_a == streams_b
        assert len(set(streams_a)) == 4  # children are distinct streams

    def test_as_seed_sequence_rejects_generators(self):
        with pytest.raises(ParameterError):
            as_seed_sequence(np.random.default_rng(0))


class TestShardOutcome:
    def test_packed_roundtrip_and_failure_count(self):
        outcomes = np.zeros(130, dtype=bool)
        outcomes[[0, 64, 127, 129]] = True
        shard = ShardOutcome(words=pack_bits(outcomes), count=130)
        assert shard.failures == 4
        assert np.array_equal(shard.unpack(), outcomes)


class TestAggregation:
    def test_counts_without_early_stop(self):
        shards = [
            ShardOutcome(words=pack_bits(np.array(bits, dtype=bool)), count=len(bits))
            for bits in ([1, 0, 0], [0, 1, 1, 0], [0])
        ]
        result = aggregate_shard_outcomes(shards)
        assert (result.failures, result.trials) == (3, 8)

    def test_early_stop_walks_shards_in_order(self):
        shards = [
            ShardOutcome(words=pack_bits(np.array(bits, dtype=bool)), count=len(bits))
            for bits in ([0, 1, 0, 0], [1, 0, 1, 1], [1, 1])
        ]
        result = aggregate_shard_outcomes(shards, max_failures=3)
        # Sequential walk: failure #3 is the 7th shot overall.
        assert (result.failures, result.trials) == (3, 7)

    def test_early_stop_beyond_total_failures(self):
        shards = [
            ShardOutcome(words=pack_bits(np.array([0, 1, 0], dtype=bool)), count=3)
        ]
        result = aggregate_shard_outcomes(shards, max_failures=10)
        assert (result.failures, result.trials) == (1, 3)


class TestShardedEstimate:
    def test_worker_count_never_changes_results(self):
        seed = np.random.SeedSequence(314)
        serial = estimate_failure_rate_sharded(
            _coin_task, 5000, seed, num_shards=5, num_workers=0, batch_size=512
        )
        pooled = estimate_failure_rate_sharded(
            _coin_task, 5000, np.random.SeedSequence(314),
            num_shards=5, num_workers=3, batch_size=512,
        )
        assert (serial.failures, serial.trials) == (pooled.failures, pooled.trials)
        assert serial.trials == 5000
        assert abs(serial.failure_rate - 0.25) < 5 * serial.standard_error

    def test_single_shard_reproduces_estimate_failure_rate_batched(self):
        seed = np.random.SeedSequence(7)
        sharded = estimate_failure_rate_sharded(
            _coin_task, 900, seed, num_shards=1, batch_size=128, max_failures=40
        )
        child = np.random.SeedSequence(7).spawn(1)[0]
        reference = estimate_failure_rate_batched(
            _coin_task,
            900,
            np.random.default_rng(child),
            batch_size=128,
            max_failures=40,
        )
        assert (sharded.failures, sharded.trials) == (
            reference.failures,
            reference.trials,
        )

    def test_early_stop_identical_across_worker_counts(self):
        kwargs = dict(num_shards=4, batch_size=100, max_failures=11)
        serial = estimate_failure_rate_sharded(
            _coin_task, 2000, np.random.SeedSequence(5), num_workers=0, **kwargs
        )
        pooled = estimate_failure_rate_sharded(
            _coin_task, 2000, np.random.SeedSequence(5), num_workers=2, **kwargs
        )
        assert (serial.failures, serial.trials) == (pooled.failures, pooled.trials)
        assert serial.failures == 11
        assert serial.trials < 2000

    def test_shards_truncate_instead_of_wasting_shots(self):
        shards = run_sharded_outcomes(
            _coin_task,
            4000,
            np.random.SeedSequence(9),
            num_shards=4,
            batch_size=100,
            max_failures=5,
        )
        # Every shard stops within a few chunks of its fifth failure.
        assert all(shard.count < 1000 for shard in shards)
        assert all(shard.failures <= 5 for shard in shards)


@pytest.mark.no_chaos
class TestSupervisedShards:
    """Pooled shards run on the supervised pool: crashes are retried exactly."""

    @staticmethod
    def _estimate(num_workers):
        return estimate_failure_rate_sharded(
            Level1ShardTask(physical_rate=0.004),
            2048,
            np.random.SeedSequence(2024),
            num_shards=4,
            num_workers=num_workers,
            batch_size=512,
        )

    def test_sigkilled_shards_are_retried_bit_for_bit(self):
        clean = self._estimate(num_workers=0)
        # Every shard's first pooled attempt SIGKILLs its worker.
        with faults.fault_profile(faults.PROFILES["crashy"]):
            crashed = self._estimate(num_workers=2)
        assert (crashed.failures, crashed.trials) == (clean.failures, clean.trials)
        assert clean.trials == 2048

    def test_permanent_shard_crash_raises_worker_crash_error(self):
        with faults.fault_profile(faults.FaultProfile(crash=1.0, fail_attempts=-1)):
            with pytest.raises(WorkerCrashError):
                self._estimate(num_workers=2)

    def test_crash_supervision_is_logged(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro"):
            with faults.fault_profile(faults.PROFILES["crashy"]):
                pooled = estimate_failure_rate_sharded(
                    _coin_task, 400, np.random.SeedSequence(3), num_shards=2, num_workers=2
                )
        serial = estimate_failure_rate_sharded(
            _coin_task, 400, np.random.SeedSequence(3), num_shards=2
        )
        assert (pooled.failures, pooled.trials) == (serial.failures, serial.trials)
        records = [r for r in caplog.records if r.name == "repro"]
        # Both shards were in flight when the pool broke: quarantined, then
        # each crashed alone, was charged and re-queued.
        assert any(
            r.levelno == logging.INFO and "quarantined" in r.getMessage() for r in records
        )
        charged = [r for r in records if r.levelno == logging.WARNING]
        assert len(charged) == 2
        assert all("worker process died" in r.getMessage() for r in charged)
        assert all("re-queued" in r.getMessage() for r in charged)


@pytest.mark.no_chaos
class TestSupervisedJobLogging:
    """Retries of jobs that raise their own exceptions are logged too."""

    @pytest.mark.parametrize("workers", [0, 2])
    def test_job_exceptions_are_logged_requeued_then_terminal(self, caplog, workers):
        policy = RetryPolicy(max_retries=1, backoff_base=0.0)
        with caplog.at_level(logging.WARNING, logger="repro"):
            outcomes = [
                outcome for _, outcome in supervise(
                    [("reject-7", _reject, (7,))], policy=policy, workers=workers
                )
            ]
        assert isinstance(outcomes[0].error, ValueError)
        assert outcomes[0].attempts == 2
        messages = [r.getMessage() for r in caplog.records if r.name == "repro"]
        assert len(messages) == 2
        assert all("job 0 raised ValueError: rejected input 7" in m for m in messages)
        assert messages[0].endswith("re-queued")
        assert messages[1].endswith("terminal (retries exhausted)")


@pytest.mark.no_chaos
class TestSupervisedEarlyClose:
    def test_closing_the_generator_kills_the_pool(self):
        jobs = [("quick", time.sleep, (0.0,)), ("stuck", time.sleep, (60.0,))]
        start = time.monotonic()
        with closing(supervise(jobs, policy=RetryPolicy(), workers=2)) as outcomes:
            index, outcome = next(outcomes)
        assert index == 0 and outcome.ok
        assert multiprocessing.active_children() == []
        assert time.monotonic() - start < 30.0


def _sweep(rates, shots, seed, *, backend="auto", num_shards=1, num_workers=0, batch_size=1024):
    """A seeded threshold sweep through the spec runner."""
    return run(
        ExperimentSpec(
            experiment="threshold_sweep",
            noise=NoiseSpec(kind="uniform", physical_rates=tuple(rates)),
            sampling=SamplingSpec(shots=shots, seed=seed, batch_size=batch_size),
            execution=ExecutionSpec(
                backend=backend, num_shards=num_shards, num_workers=num_workers
            ),
        )
    ).value


class TestSeededThresholdSweep:
    RATES = (2.0e-3, 1.0e-2)

    def test_serial_and_pooled_sweeps_bit_for_bit(self):
        kwargs = dict(shots=400, num_shards=4, batch_size=128)
        serial = _sweep(self.RATES, seed=77, num_workers=0, **kwargs)
        pooled = _sweep(self.RATES, seed=77, num_workers=2, **kwargs)
        assert serial.level1 == pooled.level1
        assert serial.level1_rates == pooled.level1_rates
        assert serial.level2_rates == pooled.level2_rates
        assert serial.concatenation_coefficient == pooled.concatenation_coefficient

    def test_entropy_recorded_and_reproducible(self):
        result = _sweep(self.RATES, shots=300, seed=2027, num_shards=2)
        assert result.seed_entropy == 2027
        assert result.num_shards == 2
        replay = _sweep(
            self.RATES, shots=300, seed=result.seed_entropy, num_shards=result.num_shards
        )
        assert replay.level1 == result.level1

    def test_backends_agree_statistically_on_seeded_sweeps(self):
        """The frame engine (seed 9) against v1.9's packed engine (seed 8, recorded)."""
        trials = 1500
        frame = _sweep(
            (5.0e-3, 1.0e-2), shots=trials, seed=9, backend="frame", batch_size=750
        )
        packed_failures, packed_trials = GOLDEN["parallel_packed_seed8"][1]
        p1, p2 = packed_failures / packed_trials, frame.level1_rates[1]
        combined_se = np.sqrt(
            p1 * (1 - p1) / trials + p2 * (1 - p2) / trials
        )
        assert abs(p1 - p2) <= 3.0 * combined_se + 1e-12


class TestLevel1ShardTask:
    def test_task_is_deterministic_per_seed(self):
        task = Level1ShardTask(physical_rate=1.0e-2)
        a = task(np.random.default_rng(np.random.SeedSequence(1)), 128)
        b = task(np.random.default_rng(np.random.SeedSequence(1)), 128)
        assert np.array_equal(a, b)

    def test_task_pickles(self):
        import pickle

        task = Level1ShardTask(physical_rate=2.0e-3)
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task
