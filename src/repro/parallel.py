"""Process-level sharding of Monte-Carlo sweeps.

The bit-packed engine makes one core fast; this module makes *all* cores
fast.  A Monte-Carlo estimate of ``trials`` shots is split into ``num_shards``
contiguous shards, each shard draws its randomness from its own child of one
root :class:`numpy.random.SeedSequence` (the spawn protocol recommended by
numpy for parallel streams), and shards execute either serially or on a
process pool.  Because the shard plan -- sizes, seeds, chunking, per-shard
early stop -- is a pure function of ``(trials, seed, num_shards, batch_size,
max_failures)``, the aggregated result is **bit-for-bit identical** no matter
how many worker processes executed it: ``num_workers=0`` (in-process) and
``num_workers=8`` produce the same failure counts, the same trial counts and
the same sweep curves.

Early stopping composes exactly: each shard truncates its own outcome stream
once ``max_failures`` failures occur *locally*, and the aggregator replays the
sequential early-stop walk over the concatenated shard streams.  The walk's
remaining failure budget on entering a shard never exceeds ``max_failures``,
so a locally-truncated shard always contains the walk's stopping point and
truncation never changes the aggregate.

Shards return their outcomes bit-packed (64 shots per ``uint64`` word, via
:func:`repro.stabilizer.packed.pack_bits`) to keep inter-process traffic
small at million-shot scale; the aggregator counts failures with
:func:`repro.stabilizer.packed.popcount` and only unpacks when an early-stop
walk needs shot granularity.
"""

from __future__ import annotations

import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.arq.mapper import LayoutMapper
from repro.exceptions import ParameterError
from repro.iontrap.parameters import EXPECTED_PARAMETERS, IonTrapParameters
from repro.stabilizer.monte_carlo import MonteCarloResult, scan_early_stop
from repro.stabilizer.packed import pack_bits, popcount, unpack_bits

__all__ = [
    "DEFAULT_SHARD_BATCH_SIZE",
    "ShardOutcome",
    "Level1ShardTask",
    "as_seed_sequence",
    "spawn_shard_seeds",
    "shard_sizes",
    "run_sharded_outcomes",
    "aggregate_shard_outcomes",
    "estimate_failure_rate_sharded",
]

#: Shots handed to a batch trial at once inside one shard.
DEFAULT_SHARD_BATCH_SIZE = 1024


def as_seed_sequence(
    seed: int | tuple[int, ...] | np.random.SeedSequence,
) -> np.random.SeedSequence:
    """Coerce entropy (int or tuple of ints) or pass through a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, (int, np.integer)):
        return np.random.SeedSequence(int(seed))
    if isinstance(seed, (tuple, list)) and seed and all(
        isinstance(word, (int, np.integer)) for word in seed
    ):
        return np.random.SeedSequence([int(word) for word in seed])
    raise ParameterError(
        f"seed must be an int, a tuple of ints or a numpy SeedSequence, "
        f"got {type(seed).__name__}"
    )


def spawn_shard_seeds(
    seed: int | np.random.SeedSequence, num_shards: int
) -> list[np.random.SeedSequence]:
    """Deterministically spawn one child SeedSequence per shard."""
    if num_shards <= 0:
        raise ParameterError("num_shards must be positive")
    return as_seed_sequence(seed).spawn(num_shards)


def shard_sizes(trials: int, num_shards: int) -> list[int]:
    """Balanced shard sizes summing to ``trials`` (first shards get the rest)."""
    if trials < 0:
        raise ParameterError("trials must be non-negative")
    if num_shards <= 0:
        raise ParameterError("num_shards must be positive")
    base, rest = divmod(trials, num_shards)
    return [base + (1 if i < rest else 0) for i in range(num_shards)]


@dataclass(frozen=True)
class ShardOutcome:
    """Bit-packed per-shot outcomes of one shard.

    Attributes
    ----------
    words:
        ``(ceil(count/64),)`` uint64 array; bit ``i`` is shot ``i``'s failure flag.
    count:
        Number of shots actually run (may be below the shard's allocation when
        the shard stopped early at ``max_failures``).
    """

    words: np.ndarray
    count: int

    @property
    def failures(self) -> int:
        """Number of failing shots in this shard (packed popcount)."""
        return int(popcount(self.words).sum())

    def unpack(self) -> np.ndarray:
        """Per-shot boolean outcomes in shot order."""
        return unpack_bits(self.words, self.count).astype(bool)


def _collect_outcomes(
    batch_trial: Callable[[np.random.Generator, int], np.ndarray],
    count: int,
    rng: np.random.Generator,
    batch_size: int,
    max_failures: int | None,
) -> np.ndarray:
    """Run ``count`` shots in chunks, truncating at ``max_failures`` failures.

    Chunking (``min(batch_size, remaining)``) and the early-stop walk match
    :func:`repro.stabilizer.monte_carlo.estimate_failure_rate_batched` shot
    for shot, so a single-shard run reproduces that function exactly.
    """
    if batch_size <= 0:
        raise ParameterError("batch_size must be positive")
    pieces: list[np.ndarray] = []
    failures = 0
    completed = 0
    while completed < count:
        chunk = min(batch_size, count - completed)
        outcomes = np.asarray(batch_trial(rng, chunk)).astype(bool).ravel()
        if outcomes.shape[0] != chunk:
            raise ParameterError(
                f"batch trial returned {outcomes.shape[0]} outcomes for {chunk} shots"
            )
        failures, stop = scan_early_stop(outcomes, failures, max_failures)
        if stop is not None:
            pieces.append(outcomes[: stop + 1])
            return np.concatenate(pieces)
        pieces.append(outcomes)
        completed += chunk
    if not pieces:
        return np.zeros(0, dtype=bool)
    return np.concatenate(pieces)


def _run_shard(
    task: Callable[[np.random.Generator, int], np.ndarray],
    seed: np.random.SeedSequence,
    count: int,
    batch_size: int,
    max_failures: int | None,
) -> ShardOutcome:
    """Worker entry point: run one shard from its own SeedSequence child."""
    rng = np.random.default_rng(seed)
    outcomes = _collect_outcomes(task, count, rng, batch_size, max_failures)
    return ShardOutcome(words=pack_bits(outcomes), count=int(outcomes.size))


def run_sharded_outcomes(
    task: Callable[[np.random.Generator, int], np.ndarray],
    trials: int,
    seed: int | np.random.SeedSequence,
    num_shards: int = 1,
    num_workers: int = 0,
    batch_size: int = DEFAULT_SHARD_BATCH_SIZE,
    max_failures: int | None = None,
) -> list[ShardOutcome]:
    """Run a batch trial as deterministic shards, serially or on a process pool.

    Parameters
    ----------
    task:
        Picklable callable ``(rng, count) -> (count,) bool array`` marking
        failing shots (e.g. :class:`Level1ShardTask` or any bound-free batch
        trial).  Must be picklable when ``num_workers > 1``.
    trials:
        Total shots, split into balanced contiguous shards.
    seed:
        Root :class:`numpy.random.SeedSequence` (or int entropy); each shard
        consumes one spawned child, so results are independent of worker count.
    num_shards:
        Number of shards; fixed by the caller, NOT by the worker count, so the
        same ``(seed, num_shards)`` pair is reproducible on any machine.
    num_workers:
        ``0``/``1`` runs shards in-process; larger values use a process pool.
    batch_size:
        Shots per batched call inside a shard.
    max_failures:
        Optional per-shard early stop (see module docstring for how this
        composes exactly under aggregation).
    """
    seeds = spawn_shard_seeds(seed, num_shards)
    sizes = shard_sizes(trials, num_shards)
    jobs = [
        (task, shard_seed, size, batch_size, max_failures)
        for shard_seed, size in zip(seeds, sizes)
        if size > 0
    ]
    if num_workers <= 1:
        return [_run_shard(*job) for job in jobs]
    if sys.platform.startswith("linux"):
        # Fork is the cheap start method and safe on Linux.  On macOS forking
        # a process with Objective-C / threaded-BLAS state is unsafe (CPython
        # switched the macOS default to spawn for that reason), so everywhere
        # else we take the platform default; the shard tasks are fully
        # picklable, and determinism only depends on the seed-derived shard
        # plan, never on the start method.
        context = multiprocessing.get_context("fork")
    else:  # pragma: no cover - exercised on macOS/Windows only
        context = multiprocessing.get_context()
    workers = min(num_workers, max(1, len(jobs)))
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        futures = [pool.submit(_run_shard, *job) for job in jobs]
        return [future.result() for future in futures]


def aggregate_shard_outcomes(
    shards: Sequence[ShardOutcome], max_failures: int | None = None
) -> MonteCarloResult:
    """Combine shard outcomes with exact sequential early-stop semantics.

    Without ``max_failures`` the failure count is a popcount over the packed
    words; with it, the shards are walked in order and the estimate stops at
    the shot whose failure brings the running total to ``max_failures`` --
    producing exactly what one sequential run over the concatenated shard
    streams would have reported.
    """
    failures = 0
    completed = 0
    for shard in shards:
        if max_failures is None:
            failures += shard.failures
            completed += shard.count
            continue
        outcomes = shard.unpack()
        failures, stop = scan_early_stop(outcomes, failures, max_failures)
        if stop is not None:
            return MonteCarloResult(failures=failures, trials=completed + stop + 1)
        completed += outcomes.size
    return MonteCarloResult(failures=failures, trials=completed)


def estimate_failure_rate_sharded(
    task: Callable[[np.random.Generator, int], np.ndarray],
    trials: int,
    seed: int | np.random.SeedSequence,
    num_shards: int = 1,
    num_workers: int = 0,
    batch_size: int = DEFAULT_SHARD_BATCH_SIZE,
    max_failures: int | None = None,
) -> MonteCarloResult:
    """Sharded counterpart of :func:`~repro.stabilizer.estimate_failure_rate_batched`.

    With ``num_shards=1`` and ``num_workers=0`` this reproduces
    ``estimate_failure_rate_batched(task, trials, np.random.default_rng(child),
    ...)`` bit for bit (where ``child`` is the single spawned shard seed); with
    more shards the result is reproducible for a fixed ``(seed, num_shards)``
    regardless of worker count.
    """
    shards = run_sharded_outcomes(
        task,
        trials,
        seed,
        num_shards=num_shards,
        num_workers=num_workers,
        batch_size=batch_size,
        max_failures=max_failures,
    )
    return aggregate_shard_outcomes(shards, max_failures)


# ----------------------------------------------------------------------
# The Figure 7 workload as a picklable shard task
# ----------------------------------------------------------------------

#: Per-process cache of constructed experiments: building the circuits and
#: decode tables costs far more than a shard's pickle, and a pool worker may
#: execute many shards of the same sweep point.  Bounded (oldest entry
#: evicted) so long-lived processes sweeping many distinct rates do not
#: accumulate one experiment per point forever.
_EXPERIMENT_CACHE: dict = {}
_EXPERIMENT_CACHE_MAX = 8


#: Per-shot outcome flags a :class:`Level1ShardTask` can count as "failures".
TASK_METRICS = ("failure", "nontrivial_syndrome")

#: How a :class:`Level1ShardTask` derives its noise model.
TASK_NOISE_KINDS = ("uniform", "technology")


@dataclass(frozen=True)
class Level1ShardTask:
    """Picklable batch trial for the level-1 logical-gate + ECC experiment.

    Workers rebuild (and cache) the
    :class:`~repro.arq.experiments.Level1EccExperiment` from this spec, so
    only a few floats and small frozen dataclasses cross the process
    boundary.

    Attributes
    ----------
    physical_rate:
        Component failure rate of the sweep point (movement stays pinned to
        the technology parameters' expected value).  Ignored for
        ``noise_kind="technology"``.
    parameters:
        Technology parameter set supplying the pinned movement rate (and,
        for technology noise, every rate).
    mapper:
        Layout mapper charging movement to two-qubit gates.
    backend:
        Batched engine selection forwarded to the experiment.
    noise_kind:
        ``"uniform"`` sweeps all component rates together (movement pinned);
        ``"technology"`` applies the parameter set's rates verbatim.
    verified_ancilla / max_preparation_attempts:
        Forwarded to the experiment (Figure 6 preparation semantics).
    metric:
        Which per-shot flag the task reports as a "failure": the logical
        ``"failure"`` (threshold experiments) or ``"nontrivial_syndrome"``
        (Section 4.1.1 syndrome-rate measurements).
    """

    physical_rate: float
    parameters: IonTrapParameters = EXPECTED_PARAMETERS
    mapper: LayoutMapper = field(default_factory=LayoutMapper)
    backend: str = "auto"
    noise_kind: str = "uniform"
    verified_ancilla: bool = True
    max_preparation_attempts: int = 20
    metric: str = "failure"

    def __post_init__(self) -> None:
        if self.noise_kind not in TASK_NOISE_KINDS:
            raise ParameterError(
                f"noise_kind must be one of {TASK_NOISE_KINDS}, got {self.noise_kind!r}"
            )
        if self.metric not in TASK_METRICS:
            raise ParameterError(
                f"metric must be one of {TASK_METRICS}, got {self.metric!r}"
            )

    def _experiment(self):
        experiment = _EXPERIMENT_CACHE.get(self)
        if experiment is None:
            from repro.arq.experiments import (
                Level1EccExperiment,
                _noise_for_rate,
                _noise_from_parameters,
            )

            if self.noise_kind == "technology":
                noise = _noise_from_parameters(self.parameters)
            else:
                noise = _noise_for_rate(self.physical_rate, self.parameters)
            experiment = Level1EccExperiment(
                noise=noise,
                mapper=self.mapper,
                backend=self.backend,
                verified_ancilla=self.verified_ancilla,
                max_preparation_attempts=self.max_preparation_attempts,
            )
            while len(_EXPERIMENT_CACHE) >= _EXPERIMENT_CACHE_MAX:
                _EXPERIMENT_CACHE.pop(next(iter(_EXPERIMENT_CACHE)))
            _EXPERIMENT_CACHE[self] = experiment
        return experiment

    def __call__(self, rng: np.random.Generator, count: int) -> np.ndarray:
        experiment = self._experiment()
        if self.metric == "failure":
            return experiment.run_trial_batch(rng, count)
        return experiment.run_trial_batch_detailed(rng, count)[self.metric]

    def run_single(self, rng: np.random.Generator) -> bool:
        """One per-shot trial on the scalar tableau (the slow oracle path)."""
        return bool(self._experiment().run_trial_detailed(rng)[self.metric])
