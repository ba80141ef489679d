"""Supervised, fault-tolerant execution of sweep points.

:func:`execute_supervised` runs fully-bound specs as jobs on the supervised
pool of :func:`repro.parallel.supervise` (see ``docs/robustness.md``).  Each
point's fault key is the SHA-256 of its canonical spec JSON, so faulted runs
are bit-reproducible.
"""

from __future__ import annotations

from typing import Iterator

from repro import faults
from repro.api.results import RunResult
from repro.api.runner import run
from repro.api.specs import ExperimentSpec
from repro.parallel import JobOutcome, RetryPolicy, supervise

__all__ = ["execute_supervised"]


def _run_point(spec: ExperimentSpec) -> RunResult:
    """Job body of one sweep point (module-level, so the pool can pickle it)."""
    return run(spec)


def execute_supervised(
    specs: list[ExperimentSpec],
    *,
    policy: RetryPolicy,
    point_workers: int = 0,
) -> Iterator[tuple[int, JobOutcome]]:
    """Execute fully-bound (seed-pinned) point specs under supervision.

    One job per spec on :func:`~repro.parallel.supervise` with ``point_workers``
    as its ``workers`` (in-process unless ``point_workers > 1``); results
    are identical either way.  Yields ``(index, outcome)`` the moment each
    point resolves, whose ``result`` is the point's
    :class:`~repro.api.results.RunResult`; like :func:`~repro.parallel.supervise`,
    hold the generator in :func:`contextlib.closing`.
    """
    jobs = [(faults.fault_key(spec.to_json()), _run_point, (spec,)) for spec in specs]
    return supervise(jobs, policy=policy, workers=point_workers)
