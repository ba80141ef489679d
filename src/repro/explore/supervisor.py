"""Supervised, fault-tolerant execution of sweep points.

:func:`execute_supervised` runs fully-bound specs as jobs on the supervised
pool of :func:`repro.parallel.supervise` (see ``docs/robustness.md``).  Each
point's fault key is the SHA-256 of its canonical spec JSON, so faulted runs
are bit-reproducible.
"""

from __future__ import annotations

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
    on_outcome=None,
) -> list[JobOutcome]:
    """Execute fully-bound (seed-pinned) point specs under supervision.

    One job per spec on :func:`~repro.parallel.supervise` with ``point_workers``
    as its ``workers`` (in-process unless ``point_workers > 1``); results
    are identical either way.  ``on_outcome(index, outcome)`` fires the moment
    each point resolves -- the hook :func:`~repro.explore.runner.run_sweep`
    uses to persist completed points immediately.  Returns one
    :class:`~repro.parallel.JobOutcome` per spec, index-aligned, whose
    ``result`` is the point's :class:`~repro.api.results.RunResult`.
    """
    jobs = [(faults.fault_key(spec.to_json()), _run_point, (spec,)) for spec in specs]
    return supervise(
        jobs,
        policy=policy,
        workers=point_workers,
        on_outcome=on_outcome,
    )
