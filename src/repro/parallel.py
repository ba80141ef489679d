"""The library's process substrate: supervised jobs and Monte-Carlo shards.

**Supervision.**  :func:`supervise` runs independent ``(fault_key, fn,
args)`` jobs -- Monte-Carlo shards here, sweep points in
:mod:`repro.explore.supervisor` -- and is the only place in the library
that starts a process pool.  It is a generator: each job's terminal
outcome is yielded the moment it resolves, and closing the generator
kills the pool.  With ``workers <= 1`` the jobs run in-process
under the :class:`RetryPolicy`'s retry and backoff.  Otherwise they run on
a fork pool (:func:`fork_context`) with streaming harvest, per-attempt
timeouts (a hung job's pool is killed and respawned; innocent in-flight
jobs are re-queued uncharged), bounded retry with deterministic backoff,
and crash quarantine: after a pool break the in-flight jobs re-run one at
a time, so only a job that crashes *alone* is charged.  A job that
exhausts its retries resolves to a failed :class:`JobOutcome` instead of
aborting the batch (``docs/robustness.md`` has the full contract).
Every charged failed attempt -- a crash, a timeout or the job's own
exception, in the pool or in-process -- is logged at WARNING on the
``repro`` logger, saying whether it is re-queued or terminal; quarantines
are logged at INFO.  The fault sites of :mod:`repro.faults` live
in the one worker entry, keyed on the job's fault key:
:data:`~repro.faults.WORKER_CRASH` and :data:`~repro.faults.WORKER_HANG`
fire only inside pool workers, :data:`~repro.faults.POINT_TRANSIENT` on
both paths.

**Sharding.**  A Monte-Carlo estimate of ``trials`` shots is split into
``num_shards`` contiguous shards, each drawing its randomness from its own
child of one root :class:`numpy.random.SeedSequence` (the spawn protocol
numpy recommends for parallel streams), and the shards run as supervised
jobs.  Because the shard plan -- sizes, seeds, chunking, per-shard early
stop -- is a pure function of ``(trials, seed, num_shards, batch_size,
max_failures)``, the aggregated result is **bit-for-bit identical** no
matter how many worker processes executed it, or how often a crashed shard
was retried: ``num_workers=0`` (in-process) and ``num_workers=8`` produce
the same failure counts, the same trial counts and the same sweep curves.

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

import logging
import multiprocessing
import sys
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro import faults
from repro.arq.mapper import LayoutMapper
from repro.exceptions import ParameterError, QLAError
from repro.iontrap.parameters import EXPECTED_PARAMETERS, IonTrapParameters
from repro.stabilizer.monte_carlo import MonteCarloResult, outcome_chunks, scan_early_stop
from repro.stabilizer.packed import pack_bits, popcount, unpack_bits

__all__ = [
    "fork_context",
    "PointTimeoutError",
    "WorkerCrashError",
    "RetryPolicy",
    "JobOutcome",
    "supervise",
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

_LOG = logging.getLogger("repro")


def fork_context():
    """The start method of every worker process the library spawns.

    Fork is cheap and safe on Linux.  On macOS forking a process with
    Objective-C / threaded-BLAS state is unsafe, so elsewhere this is the
    platform default; determinism never depends on the start method.
    """
    if sys.platform.startswith("linux"):
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()  # pragma: no cover - non-Linux only


class PointTimeoutError(QLAError):
    """A supervised job exceeded its per-attempt wall-clock timeout."""


class WorkerCrashError(QLAError):
    """The worker process executing a supervised job died abruptly."""


@dataclass(frozen=True)
class RetryPolicy:
    """Failure-handling knobs for supervised execution.

    Attributes
    ----------
    point_timeout:
        Wall-clock budget per attempt, in seconds; ``None`` disables
        timeouts.  Only enforceable on the pooled path (a hung in-process
        job cannot be preempted).
    max_retries:
        Retries *after* the first attempt; a job runs at most
        ``max_retries + 1`` times before it fails terminally.
    backoff_base / backoff_factor / backoff_cap:
        Delay before retry ``k`` (1-based) is
        ``min(backoff_cap, backoff_base * backoff_factor**(k - 1))`` --
        deterministic bounded exponential backoff, no jitter, so faulted
        runs replay identically.
    """

    point_timeout: float | None = None
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 5.0

    def __post_init__(self) -> None:
        if self.point_timeout is not None and (
            not isinstance(self.point_timeout, (int, float)) or self.point_timeout <= 0
        ):
            raise ParameterError(
                f"point_timeout must be a positive number of seconds or None, "
                f"got {self.point_timeout!r}"
            )
        if not isinstance(self.max_retries, int) or isinstance(self.max_retries, bool) or self.max_retries < 0:
            raise ParameterError(f"max_retries must be a non-negative int, got {self.max_retries!r}")
        for name in ("backoff_base", "backoff_cap"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or value < 0:
                raise ParameterError(f"{name} must be a non-negative number, got {value!r}")
        if not isinstance(self.backoff_factor, (int, float)) or self.backoff_factor < 1.0:
            raise ParameterError(f"backoff_factor must be >= 1, got {self.backoff_factor!r}")

    def backoff(self, failed_attempts: int) -> float:
        """Delay before the retry following the given number of failures."""
        if self.backoff_base <= 0.0 or failed_attempts <= 0:
            return 0.0
        return min(self.backoff_cap, self.backoff_base * self.backoff_factor ** (failed_attempts - 1))


@dataclass(frozen=True)
class JobOutcome:
    """Terminal outcome of one supervised job: a result or a failure.

    Exactly one of ``result`` / ``error`` is meaningful (``error is None``
    on success).  ``attempts`` counts executions that were *charged* to the
    job (a pool crash with several jobs in flight charges nobody until the
    culprit is isolated); ``elapsed_seconds`` is the total wall-clock the
    supervisor spent on the job across every attempt, backoff waits
    excluded.
    """

    result: Any
    error: Exception | None
    attempts: int
    elapsed_seconds: float

    @property
    def ok(self) -> bool:
        return self.error is None


def _run_job(key: str, fn: Callable, args: tuple, attempt: int, in_worker: bool = True):
    """The one worker entry: consult the fault sites, then run ``fn(*args)``.

    Module-level so the pool can pickle it.  Crashes and hangs are only
    injected inside pool workers -- in-process they would kill or stall
    the caller itself.
    """
    if in_worker:
        faults.maybe_inject(faults.WORKER_CRASH, key, attempt)
        faults.maybe_inject(faults.WORKER_HANG, key, attempt)
    faults.maybe_inject(faults.POINT_TRANSIENT, key, attempt)
    return fn(*args)


class _Job:
    """Mutable supervision state for one job."""

    __slots__ = ("index", "key", "fn", "args", "attempts", "eligible_at", "started_at", "elapsed")

    def __init__(self, index: int, key: str, fn: Callable, args: tuple) -> None:
        self.index = index
        self.key = key
        self.fn = fn
        self.args = args
        self.attempts = 0          # charged (actually failed or completed) executions
        self.eligible_at = 0.0     # monotonic time before which the job must not resubmit
        self.started_at = 0.0      # monotonic start of the current attempt
        self.elapsed = 0.0         # accumulated wall-clock across attempts


def supervise(
    jobs: Sequence[tuple[str, Callable, tuple]],
    *,
    policy: RetryPolicy,
    workers: int = 0,
) -> Iterator[tuple[int, JobOutcome]]:
    """Run independent jobs under supervision; never raises per job.

    Parameters
    ----------
    jobs:
        ``(fault_key, fn, args)`` triples.  ``fn`` and ``args`` must be
        picklable when ``workers > 1``; ``fault_key`` names the job to the
        fault-injection sites, so it must be a pure function of the work.
    policy:
        Timeout/retry/backoff configuration.
    workers:
        ``> 1`` runs on a supervised fork pool of at most that many
        processes (required for timeouts and crash isolation); otherwise
        jobs run in-process, in order, with the same retry semantics.

    Yields ``(index, outcome)`` -- one terminal :class:`JobOutcome` per
    job, the moment it resolves.  Closing the generator kills the pool
    and abandons the remaining jobs; hold it in :func:`contextlib.closing`
    so a consumer that raises mid-iteration closes it at once.
    """
    tasks = [_Job(index, *job) for index, job in enumerate(jobs)]
    if workers > 1 and tasks:
        yield from _supervise_pool(tasks, policy, min(workers, len(tasks)))
    else:
        for job in tasks:
            yield job.index, _run_inline(job, policy)


def _outcome(job: _Job, result: Any, error: Exception | None) -> JobOutcome:
    return JobOutcome(
        result=result, error=error, attempts=job.attempts, elapsed_seconds=job.elapsed
    )


def _run_inline(job: _Job, policy: RetryPolicy) -> JobOutcome:
    """The in-process attempt loop: retry with backoff to a terminal outcome."""
    while True:
        start = time.monotonic()
        result = error = None
        try:
            result = _run_job(job.key, job.fn, job.args, job.attempts, in_worker=False)
        except Exception as caught:  # noqa: BLE001 - any failure becomes a record
            error = caught
        job.attempts += 1
        job.elapsed += time.monotonic() - start
        retry = error is not None and job.attempts <= policy.max_retries
        if error is not None:
            _log_charge(job, error, retry)
        if not retry:
            return _outcome(job, result, error)
        time.sleep(policy.backoff(job.attempts))


def _log_charge(job: _Job, error: Exception, retry: bool) -> None:
    """Log a charged failed attempt at WARNING: re-queued or terminal."""
    if not isinstance(error, (WorkerCrashError, PointTimeoutError)):
        error = f"job {job.index} raised {type(error).__name__}: {error}"
    _LOG.warning("%s; %s", error, "re-queued" if retry else "terminal (retries exhausted)")


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down even when a worker is hung: SIGKILL, then shutdown.

    The pool's manager thread reaps the killed workers; waiting (bounded)
    for it means no worker outlives the supervisor that started it.
    """
    manager = getattr(pool, "_executor_manager_thread", None)
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except Exception:  # pragma: no cover - racing an exiting worker
            pass
    pool.shutdown(wait=False, cancel_futures=True)
    if manager is not None:
        manager.join(timeout=5.0)


def _supervise_pool(
    jobs: list[_Job], policy: RetryPolicy, workers: int
) -> Iterator[tuple[int, JobOutcome]]:
    """The supervised pool loop: streaming harvest, timeouts, crash recovery."""
    context = fork_context()
    queue: deque[_Job] = deque(jobs)
    resolved: deque[tuple[int, JobOutcome]] = deque()  # harvested, not yet yielded
    in_flight: dict[object, _Job] = {}
    suspects: set[int] = set()  # job indices quarantined after a pool break
    pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)

    def respawn() -> None:
        nonlocal pool
        _kill_pool(pool)
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)

    def charge(job: _Job, result: Any, error: Exception | None, now: float) -> None:
        """Count a finished attempt; re-queue a failure with backoff or resolve."""
        job.attempts += 1
        job.elapsed += now - job.started_at
        retry = error is not None and job.attempts <= policy.max_retries
        if error is not None:
            _log_charge(job, error, retry)
        if retry:
            job.eligible_at = time.monotonic() + policy.backoff(job.attempts)
            queue.append(job)
        else:
            suspects.discard(job.index)
            resolved.append((job.index, _outcome(job, result, error)))

    def requeue_uncharged(job: _Job, now: float) -> None:
        job.elapsed += now - job.started_at
        job.eligible_at = now
        queue.append(job)

    def salvage(now: float) -> list[_Job]:
        """Empty the in-flight set: resolve finished results, return the rest."""
        rest = []
        for future, job in in_flight.items():
            if future.done() and future.exception() is None:
                charge(job, future.result(), None, now)
            else:
                rest.append(job)
        in_flight.clear()
        return rest

    try:
        while True:
            # Hand every job resolved by the last pass to the consumer.
            while resolved:
                yield resolved.popleft()
            if not (queue or in_flight):
                break
            now = time.monotonic()

            # Submit eligible jobs up to capacity.  While any suspect from a
            # pool break is unresolved, submission narrows to one job at a
            # time so the next crash unambiguously identifies its culprit.
            capacity = 1 if suspects else workers
            deferred: deque[_Job] = deque()
            while queue and len(in_flight) < capacity:
                job = queue.popleft()
                if job.eligible_at > now:
                    deferred.append(job)
                    continue
                job.started_at = time.monotonic()
                try:
                    future = pool.submit(_run_job, job.key, job.fn, job.args, job.attempts)
                except (BrokenProcessPool, RuntimeError):
                    # The pool broke between events; respawn and retry the
                    # submission on the next pass (nothing is charged).
                    queue.appendleft(job)
                    respawn()
                    break
                in_flight[future] = job
            while deferred:
                queue.appendleft(deferred.pop())

            if not in_flight:
                if queue:
                    # Everything eligible later: sleep until the first backoff
                    # deadline (bounded so new eligibility is re-checked).
                    wake = min(job.eligible_at for job in queue)
                    time.sleep(min(max(wake - time.monotonic(), 0.0), 0.05) or 0.001)
                continue

            # Wait for completions, bounded by the earliest job deadline and
            # the earliest backoff eligibility.
            timeout = None
            if policy.point_timeout is not None:
                deadline = min(job.started_at + policy.point_timeout for job in in_flight.values())
                timeout = max(deadline - time.monotonic(), 0.0)
            if queue:
                wake = max(min(job.eligible_at for job in queue) - time.monotonic(), 0.01)
                timeout = wake if timeout is None else min(timeout, wake)
            done, _ = wait(set(in_flight), timeout=timeout, return_when=FIRST_COMPLETED)

            crashed: list[_Job] = []
            now = time.monotonic()
            for future in done:
                job = in_flight.pop(future)
                error = future.exception()
                if isinstance(error, BrokenProcessPool):
                    crashed.append(job)
                else:
                    charge(job, None if error else future.result(), error, now)

            if crashed:
                # Every future the break touched failed indistinguishably; the
                # still-pending ones will surface as BrokenProcessPool on the
                # next wait, so fold them in now for one coherent decision.
                crashed += salvage(now)
                if len(crashed) == 1:
                    # A lone in-flight job is the proven culprit.
                    culprit = crashed[0]
                    error = WorkerCrashError(
                        f"worker process died while executing job {culprit.index} "
                        f"(attempt {culprit.attempts + 1})"
                    )
                    charge(culprit, None, error, now)
                else:
                    # Ambiguous: quarantine all of them, charge nobody, and
                    # re-run one at a time until the culprit crashes alone.
                    _LOG.info(
                        "worker pool broke with %d jobs in flight; quarantined "
                        "to run one at a time", len(crashed),
                    )
                    for job in crashed:
                        suspects.add(job.index)
                        requeue_uncharged(job, now)
                respawn()
                continue

            # Enforce per-attempt deadlines: fail the expired jobs, salvage
            # any already-completed results, re-queue the innocent rest
            # uncharged, and kill the pool (a hung worker ignores everything
            # short of SIGKILL).
            if policy.point_timeout is not None and in_flight:
                now = time.monotonic()
                expired = [
                    future
                    for future, job in in_flight.items()
                    if now - job.started_at >= policy.point_timeout and not future.done()
                ]
                if expired:
                    for future in expired:
                        job = in_flight.pop(future)
                        error = PointTimeoutError(
                            f"job {job.index} exceeded the per-point timeout of "
                            f"{policy.point_timeout:g}s (attempt {job.attempts + 1})"
                        )
                        charge(job, None, error, now)
                    for job in salvage(now):
                        requeue_uncharged(job, now)
                    respawn()
    finally:
        # Idle workers on the success path; possibly hung ones on error
        # paths or when the consumer closed the generator -- SIGKILL either
        # way so shutdown can never block.
        _kill_pool(pool)


#: Shots handed to a batch trial at once inside one shard.
DEFAULT_SHARD_BATCH_SIZE = 1024

#: Shards retry a crashed or failed attempt under the default policy; they
#: have no timeout.
_SHARD_POLICY = RetryPolicy()


def as_seed_sequence(
    seed: int | tuple[int, ...] | np.random.SeedSequence,
) -> np.random.SeedSequence:
    """Coerce entropy (int or tuple of ints) or pass through a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed_entropy(seed))


def seed_entropy(seed: int | tuple[int, ...]) -> int | list[int]:
    """The SeedSequence entropy of an int or a tuple/list of ints seed."""
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    if isinstance(seed, (tuple, list)) and seed and all(
        isinstance(word, (int, np.integer)) for word in seed
    ):
        return [int(word) for word in seed]
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


def _run_shard(
    task: Callable[[np.random.Generator, int], np.ndarray],
    seed: np.random.SeedSequence,
    count: int,
    batch_size: int,
    max_failures: int | None,
) -> ShardOutcome:
    """Worker entry point: run one shard from its own SeedSequence child."""
    rng = np.random.default_rng(seed)
    chunks = list(outcome_chunks(task, count, rng, max_failures, batch_size))
    outcomes = np.concatenate(chunks) if chunks else np.zeros(0, dtype=bool)
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
        ``0``/``1`` runs shards in-process; larger values use the supervised
        process pool (a crashed shard worker is quarantined and retried).
        A shard whose attempts are exhausted re-raises its own exception.
    batch_size:
        Shots per batched call inside a shard.
    max_failures:
        Optional per-shard early stop (see module docstring for how this
        composes exactly under aggregation).
    """
    if batch_size <= 0:
        raise ParameterError("batch_size must be positive")
    seeds = spawn_shard_seeds(seed, num_shards)
    sizes = shard_sizes(trials, num_shards)
    jobs = [
        (
            # The shard's fault key: its seed and its plan, so a chaos
            # profile strikes the same shards on every run.
            faults.fault_key(
                f"shard:{shard_seed.entropy}:{shard_seed.spawn_key}:"
                f"{size}:{batch_size}:{max_failures}"
            ),
            _run_shard,
            (task, shard_seed, size, batch_size, max_failures),
        )
        for shard_seed, size in zip(seeds, sizes)
        if size > 0
    ]

    shards: list[ShardOutcome | None] = [None] * len(jobs)
    with closing(supervise(jobs, policy=_SHARD_POLICY, workers=num_workers)) as outcomes:
        for index, outcome in outcomes:
            if not outcome.ok:
                raise outcome.error
            shards[index] = outcome.result
    return shards  # type: ignore[return-value]


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
