"""The experiment service: HTTP API + durable job queue over the spec pipeline.

This package is the serving layer on top of everything below the
waterline: frozen JSON-round-trip specs (:mod:`repro.api.specs`,
:mod:`repro.explore.sweep`), the built-in execution backends, the
content-addressed :class:`~repro.explore.cache.ResultCache` (whose key
doubles as the service's idempotency token), and the fault-tolerant
supervised sweep execution of :mod:`repro.explore`.  It turns "run this
spec file" into "submit a job, poll it, stream it, get cached answers for
free" -- with **zero** new runtime dependencies (stdlib ``http.server`` +
``sqlite3``).

* :mod:`repro.service.store` -- durable SQLite job queue (WAL mode):
  ``queued -> running -> done|failed|cancelled``, idempotency-key unique
  index, append-only per-job event log, crash recovery that re-queues
  ``running`` orphans on startup.
* :mod:`repro.service.worker` -- worker threads draining the queue onto
  :func:`repro.explore.runner.run_sweep` / :func:`repro.api.run`, with
  per-point progress events, cancellation checkpoints and job-level
  retry honoring :class:`~repro.parallel.RetryPolicy`.
* :mod:`repro.service.http` -- the endpoint set on stdlib
  ``ThreadingHTTPServer`` and :class:`ExperimentService`, the composition
  root (usable in-process or via ``repro-serve``).
* :mod:`repro.service.metrics` -- counters and the Prometheus
  ``/metrics`` rendering.
* :mod:`repro.service.client` -- :class:`ServiceClient`, the stdlib HTTP
  client used by tests and examples.
* :mod:`repro.service.cli` -- the ``repro-serve`` console entry point.

Quick start (in-process)::

    from repro.service import ExperimentService, ServiceClient

    with ExperimentService(port=0) as service:    # ephemeral port
        client = ServiceClient(service.url)
        job = client.submit(sweep_spec.to_dict())
        for event in client.events(job["id"]):    # streamed per-point
            print(event)
        result = client.result_object(job["id"])  # SweepResult

Endpoint reference, job lifecycle diagram, idempotency contract and the
metrics glossary live in ``docs/service.md``.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.http import ExperimentService
from repro.service.metrics import ServiceMetrics, render_metrics
from repro.service.store import (
    JOB_STATES,
    SERVICE_DB_ENV,
    TERMINAL_STATES,
    JobRecord,
    JobStore,
    default_db_path,
    sweep_job_key,
)
from repro.service.worker import JobCancelled, JobWorker

__all__ = [
    "SERVICE_DB_ENV",
    "JOB_STATES",
    "TERMINAL_STATES",
    "default_db_path",
    "sweep_job_key",
    "JobRecord",
    "JobStore",
    "JobWorker",
    "JobCancelled",
    "ServiceMetrics",
    "render_metrics",
    "ExperimentService",
    "ServiceClient",
    "ServiceError",
]
