"""The worker loop: drain the durable queue onto the spec pipeline.

Each :class:`JobWorker` is a daemon thread that repeatedly claims the
oldest queued job from the :class:`~repro.service.store.JobStore` and
executes it on the library's existing supervised execution path:

* a **sweep** job iterates :func:`repro.explore.runner.stream_sweep` --
  supervised pool (or in-process) execution, per-point retry with backoff,
  incremental per-point cache writes -- appending each resolved point's
  :meth:`~repro.explore.runner.SweepEvent.to_dict` record to the job's
  durable event log (this is what ``GET /v1/jobs/{id}/events`` streams)
  and checking the cancellation flag between points;
* an **experiment** job is answered from the shared
  :class:`~repro.explore.cache.ResultCache` when its entry exists (the
  job's idempotency key *is* its cache key, so a resubmitted spec costs
  zero engine executions) and otherwise runs as a one-point
  :func:`~repro.explore.supervisor.execute_supervised` batch (the point
  retry a sweep point gets) with the result stored back into the cache.

**Attempt semantics.**  Claiming a job charges an attempt.  An attempt
that raises is retried -- the job is re-queued after the
:class:`~repro.parallel.RetryPolicy` backoff -- until the job's
``max_attempts`` budget is exhausted, at which point the job lands in
``failed`` with a structured error record (never wedged in ``running``).
Only job-level failures get this retry: an experiment point that exhausts
its own retries fails the job at once, with ``point_attempts`` in the
record.  Because every finished sweep point was cached *immediately*, a retried
sweep attempt recomputes only the unfinished tail; a retried experiment
attempt whose first try completed-but-failed-to-commit is a pure cache
hit.

Fault injection: :data:`repro.faults.SERVICE_WORKER` fires at the top of
an attempt (the worker dying mid-job), :data:`repro.faults.SERVICE_STORE`
fires inside the terminal result write (see
:meth:`~repro.service.store.JobStore.mark_done`).  Both are plain attempt
failures to the retry machinery, which is the point: recovery must not
care *why* an attempt died.
"""

from __future__ import annotations

import threading
import time
import traceback

from repro import faults
from repro.api.results import RunResult
from repro.api.specs import ExperimentSpec
from repro.exceptions import QLAError
from repro.explore.cache import ResultCache
from repro.explore.runner import stream_sweep
from repro.explore.supervisor import execute_supervised
from repro.explore.sweep import SweepSpec
from repro.parallel import RetryPolicy
from repro.service.metrics import ServiceMetrics
from repro.service.store import JobRecord, JobStore

__all__ = ["JobCancelled", "JobWorker"]


class JobCancelled(QLAError):
    """Raised inside a worker when a running job's cancellation flag is set."""


class _PointFailed(Exception):
    """Carries the outcome of an experiment point that exhausted its own retries."""


class JobWorker(threading.Thread):
    """One queue-draining worker thread.

    Parameters
    ----------
    store:
        The durable job queue (shared with the HTTP layer).
    cache:
        The shared result cache every execution writes through.
    metrics:
        Counter sink for ``/metrics``.
    policy:
        Retry knobs for *sweep points* (``point_timeout`` / ``max_retries``
        / ``backoff_base``) and the backoff schedule for job-level retries.
        Job-level attempt budgets come from each job's ``max_attempts``.
    poll_interval:
        Idle sleep between queue polls when no job is queued.
    coordinate:
        Execute sweep jobs with ``run_sweep(coordinate=True)``: points are
        claimed through atomic claim files next to the shared cache
        entries (see :mod:`repro.explore.distributed`), so overlapping
        sweep jobs -- in this service's worker pool, or across service
        instances sharing one cache directory -- execute each grid point
        exactly once between them.
    claim_lease_seconds:
        Claim lease length under ``coordinate=True``.
    """

    def __init__(
        self,
        store: JobStore,
        cache: ResultCache,
        metrics: ServiceMetrics,
        *,
        policy: RetryPolicy | None = None,
        poll_interval: float = 0.05,
        name: str | None = None,
        coordinate: bool = False,
        claim_lease_seconds: float = 30.0,
    ) -> None:
        super().__init__(name=name or "repro-service-worker", daemon=True)
        self.store = store
        self.cache = cache
        self.metrics = metrics
        self.policy = policy if policy is not None else RetryPolicy()
        self.poll_interval = poll_interval
        self.coordinate = coordinate
        self.claim_lease_seconds = claim_lease_seconds
        self._stop_event = threading.Event()

    def stop(self) -> None:
        """Ask the loop to exit after the current job (if any) resolves."""
        self._stop_event.set()

    @property
    def stopping(self) -> bool:
        """Whether :meth:`stop` has been requested."""
        return self._stop_event.is_set()

    def run(self) -> None:  # noqa: D102 - thread entry point
        while not self._stop_event.is_set():
            job = self.store.claim()
            if job is None:
                self._stop_event.wait(self.poll_interval)
                continue
            self.execute(job)

    # -- one attempt ---------------------------------------------------------

    def execute(self, job: JobRecord) -> None:
        """Run one claimed job attempt through to a state transition.

        Never raises: every exception becomes a retry (re-queue after
        backoff) or, once ``max_attempts`` is exhausted, a structured
        ``failed`` record.
        """
        attempt = job.attempts  # 1-based: claim already charged it
        self.metrics.record_attempt()
        self.store.append_event(
            job.id, {"type": "attempt", "attempt": attempt, "kind": job.kind}
        )
        try:
            # Fault site: the worker dies mid-job (OOM, SIGKILL of a future
            # process-based worker).  Keyed on the job's idempotency key so
            # chaos runs kill the same jobs on every replay.
            faults.maybe_inject(faults.SERVICE_WORKER, job.idempotency_key, attempt - 1)
            if job.cancel_requested:
                raise JobCancelled(f"job {job.id} was cancelled before attempt {attempt}")
            if job.kind == "sweep":
                self._execute_sweep(job)
            else:
                self._execute_experiment(job)
        except JobCancelled as cancelled:
            self.store.mark_cancelled(job.id)
            self.store.append_event(
                job.id, {"type": "cancelled", "attempt": attempt, "message": str(cancelled)}
            )
            self.metrics.record_outcome("cancelled")
        except Exception as error:  # noqa: BLE001 - any failure enters retry
            self._handle_failure(job, attempt, error)
        else:
            self.store.append_event(job.id, {"type": "done", "attempt": attempt})
            self.metrics.record_outcome("done")

    def _handle_failure(self, job: JobRecord, attempt: int, error: Exception) -> None:
        extra = {}
        if isinstance(error, _PointFailed):
            # The point already spent its own retry budget; a job-level
            # requeue would only repeat it.
            outcome = error.args[0]
            error, extra = outcome.error, {"point_attempts": outcome.attempts}
        detail = {
            "type": "attempt_failed",
            "attempt": attempt,
            "exception_type": type(error).__name__,
            "message": str(error),
        }
        if attempt < job.max_attempts and not extra:
            self.store.append_event(job.id, {**detail, "retrying": True})
            delay = self.policy.backoff(attempt)
            if delay:
                # Deterministic bounded backoff shared with the sweep
                # supervisor; interruptible so shutdown is not delayed.
                self._stop_event.wait(delay)
            self.store.requeue(job.id)
        else:
            record = {
                "exception_type": type(error).__name__,
                "message": str(error),
                "attempts": attempt,
                **extra,
                "traceback": "".join(traceback.format_exception(error, limit=10)),
            }
            self.store.mark_failed(job.id, record)
            self.store.append_event(job.id, {**detail, "type": "failed", "retrying": False})
            self.metrics.record_outcome("failed")

    # -- job kinds -----------------------------------------------------------

    def _execute_sweep(self, job: JobRecord) -> None:
        sweep = SweepSpec.from_json(job.spec_json)
        pooled = sweep.point_workers > 1
        with stream_sweep(
            sweep,
            cache=self.cache,
            point_timeout=self.policy.point_timeout if pooled else None,
            max_retries=self.policy.max_retries,
            backoff_base=self.policy.backoff_base,
            on_error="partial",
            coordinate=self.coordinate,
            claim_lease_seconds=self.claim_lease_seconds,
        ) as events:
            for event in events:
                # One durable event per resolved point, plus the
                # cancellation checkpoint: raising here closes the stream,
                # which cancels the sweep (resolved points stay cached).
                record = event.to_dict()
                self.store.append_event(job.id, {"type": "point", **record})
                self.metrics.record_point(record)
                if self.store.cancel_requested(job.id):
                    raise JobCancelled(
                        f"job {job.id} cancelled after point {event.index + 1}"
                        f"/{event.total}"
                    )
            result = events.result()
        self.store.mark_done(
            job,
            result.to_json(),
            point_errors=[
                {"coordinates": point.coordinates, **point.error.to_dict()}
                for point in result.failures()
            ],
            executed_points=result.executed,
            cached_points=result.cache_hits,
        )

    def _execute_experiment(self, job: JobRecord) -> None:
        spec = ExperimentSpec.from_json(job.spec_json)
        # The job's idempotency key doubles as the result-cache address
        # (same spec + version + resolved engine), so a resubmission -- or a
        # retry of an attempt that computed but failed to commit -- is a
        # pure cache hit with zero engine executions.
        cached: RunResult | None = self.cache.get(job.idempotency_key)
        if cached is not None:
            result = cached
            self.metrics.record_single(cached=True)
        else:
            [(_, outcome)] = execute_supervised([spec], policy=self.policy)
            if not outcome.ok:
                raise _PointFailed(outcome)
            result = outcome.result
            self.cache.put(job.idempotency_key, result)
            self.metrics.record_single(
                cached=False, wall_time_seconds=result.wall_time_seconds
            )
        self.store.append_event(
            job.id,
            {
                "type": "result",
                "cached": cached is not None,
                "cache_key": job.idempotency_key,
                "engine": result.engine,
            },
        )
        self.store.mark_done(
            job,
            result.to_json(),
            executed_points=0 if cached is not None else 1,
            cached_points=1 if cached is not None else 0,
        )
