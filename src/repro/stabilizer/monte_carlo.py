"""Monte-Carlo estimation of logical failure rates.

The paper's empirical threshold study (Figure 7) estimates the failure
probability of a logical gate followed by error correction by repeatedly
simulating the noisy circuit and counting trials in which the decoded logical
state is wrong.  This module provides the generic shot-loop used by those
experiments: a caller supplies a ``trial`` callable returning True on failure,
and receives a failure-rate estimate with a binomial standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

__all__ = [
    "MonteCarloResult",
    "scan_early_stop",
    "outcome_chunks",
    "estimate_failure_rate",
    "estimate_failure_rate_batched",
]


@dataclass(frozen=True)
class MonteCarloResult:
    """Result of a Monte-Carlo failure-rate estimate.

    Attributes
    ----------
    failures:
        Number of trials that failed.
    trials:
        Total number of trials run.
    failure_rate:
        ``failures / trials``.
    standard_error:
        Binomial standard error of the failure-rate estimate.
    """

    failures: int
    trials: int

    @property
    def failure_rate(self) -> float:
        """Fraction of failing trials."""
        if self.trials == 0:
            return 0.0
        return self.failures / self.trials

    @property
    def standard_error(self) -> float:
        """Binomial standard error sqrt(p (1 - p) / n)."""
        if self.trials == 0:
            return 0.0
        p = self.failure_rate
        return float(np.sqrt(p * (1.0 - p) / self.trials))

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """The Wilson score interval of the failure rate (default 95%).

        Unlike the normal approximation, it keeps a positive width at 0 or
        ``trials`` failures.  With no trials it is the whole unit interval.
        """
        n = self.trials
        if n == 0:
            return (0.0, 1.0)
        p = self.failure_rate
        denominator = 1.0 + z * z / n
        centre = (p + z * z / (2 * n)) / denominator
        half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denominator
        return (max(0.0, centre - half), min(1.0, centre + half))


def scan_early_stop(
    outcomes: np.ndarray, failures: int, max_failures: int | None
) -> tuple[int, int | None]:
    """Advance an early-stop walk over one chunk of per-shot outcomes.

    Given the boolean ``outcomes`` of the next shots and the ``failures``
    accumulated so far, returns ``(new_failures, stop_index)``: ``stop_index``
    is the 0-based position (within this chunk) of the shot whose failure
    brings the running total to ``max_failures``, or None if the walk
    continues, in which case ``new_failures`` counts the whole chunk.

    This single helper defines the sequential early-stop semantics shared --
    bit for bit -- by :func:`outcome_chunks` and the cross-shard aggregation
    of :mod:`repro.parallel`; keeping one implementation is what makes the
    "sharded equals serial" reproducibility contract safe to rely on.
    """
    if max_failures is not None:
        running = failures + np.cumsum(outcomes)
        hit = np.flatnonzero(running >= max_failures)
        if hit.size:
            stop = int(hit[0])
            return int(running[stop]), stop
    return failures + int(np.count_nonzero(outcomes)), None


def estimate_failure_rate(
    trial: Callable[[np.random.Generator], bool],
    trials: int,
    rng: np.random.Generator | None = None,
    max_failures: int | None = None,
) -> MonteCarloResult:
    """Estimate a failure probability by repeated independent trials.

    Parameters
    ----------
    trial:
        Callable run once per shot.  It receives a random generator and must
        return True if the shot counts as a failure.
    trials:
        Maximum number of shots to run.
    rng:
        Source of randomness; a fresh default generator is used if omitted.
    max_failures:
        Optional early stop: once this many failures have been observed the
        loop terminates (useful when sweeping into the high-error regime where
        failures are plentiful and extra shots add no information).
    """
    if trials <= 0:
        return MonteCarloResult(failures=0, trials=0)
    generator = rng if rng is not None else np.random.default_rng()
    failures = 0
    completed = 0
    for _ in range(trials):
        if trial(generator):
            failures += 1
        completed += 1
        if max_failures is not None and failures >= max_failures:
            break
    return MonteCarloResult(failures=failures, trials=completed)


def outcome_chunks(
    batch_trial: Callable[[np.random.Generator, int], np.ndarray],
    trials: int,
    rng: np.random.Generator,
    max_failures: int | None = None,
    batch_size: int = 1024,
) -> Iterator[np.ndarray]:
    """Run ``trials`` shots of a batch trial in chunks, yielding each chunk's outcomes.

    Chunks hold ``min(batch_size, remaining)`` shots.  The walk stops at the
    shot whose failure brings the running total to ``max_failures``: that
    chunk is yielded cut just after it and no further chunk runs.  The one
    chunked loop behind :func:`estimate_failure_rate_batched` and the shards
    of :mod:`repro.parallel`, so a single-shard run reproduces the estimate
    shot for shot.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    failures = 0
    completed = 0
    while completed < trials:
        count = min(batch_size, trials - completed)
        outcomes = np.asarray(batch_trial(rng, count)).astype(bool).ravel()
        if outcomes.shape[0] != count:
            raise ValueError(
                f"batch_trial returned {outcomes.shape[0]} outcomes for {count} shots"
            )
        failures, stop = scan_early_stop(outcomes, failures, max_failures)
        if stop is not None:
            yield outcomes[: stop + 1]
            return
        yield outcomes
        completed += count


def estimate_failure_rate_batched(
    batch_trial: Callable[[np.random.Generator, int], np.ndarray],
    trials: int,
    rng: np.random.Generator | None = None,
    max_failures: int | None = None,
    batch_size: int = 1024,
) -> MonteCarloResult:
    """Estimate a failure probability with a vectorized batch trial.

    The batched counterpart of :func:`estimate_failure_rate`: instead of one
    shot per call, ``batch_trial(rng, count)`` runs ``count`` independent
    shots at once and returns a boolean array marking the failing ones.  Shots
    are processed in chunks of at most ``batch_size`` (see
    :func:`outcome_chunks`) and the early-stop semantics of the per-shot loop
    are preserved exactly: within a chunk the shots are consumed in order,
    and the estimate stops at the shot whose failure brings the running total
    to ``max_failures`` -- later shots in the same chunk are discarded, so
    the reported ``(failures, trials)`` pair matches what the sequential loop
    would have produced for the same per-shot outcomes.

    Parameters
    ----------
    batch_trial:
        Callable receiving ``(rng, count)`` and returning a length-``count``
        boolean (or 0/1) array; True marks a failing shot.
    trials:
        Maximum number of shots to run.
    rng:
        Source of randomness; a fresh default generator is used if omitted.
    max_failures:
        Optional early stop once this many failures have been observed.
    batch_size:
        Largest number of shots handed to ``batch_trial`` at once.
    """
    if trials <= 0:
        return MonteCarloResult(failures=0, trials=0)
    generator = rng if rng is not None else np.random.default_rng()
    failures = 0
    completed = 0
    for outcomes in outcome_chunks(batch_trial, trials, generator, max_failures, batch_size):
        failures += int(np.count_nonzero(outcomes))
        completed += outcomes.size
    return MonteCarloResult(failures=failures, trials=completed)
