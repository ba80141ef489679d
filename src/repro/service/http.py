"""The HTTP layer: stdlib ``ThreadingHTTPServer`` over the job pipeline.

No new runtime dependencies -- the whole service is ``http.server`` +
``sqlite3`` + the existing spec pipeline, matching the library's
numpy-only footprint.  Endpoints (full reference with curl examples in
``docs/service.md``):

==========================================  =================================
``POST /v1/jobs``                           submit a spec (or ``{"spec":
                                            ..., "max_attempts": n}``);
                                            201 with the new job, or 200
                                            with the existing job on an
                                            idempotency-key hit
``GET /v1/jobs``                            list jobs (``?state=`` filter)
``GET /v1/jobs/{id}``                       status + attempts + structured
                                            point errors for partial sweeps
``GET /v1/jobs/{id}/result``                the stored result document
``GET /v1/jobs/{id}/events``                NDJSON event stream
                                            (``?since=<seq>``,
                                            ``?follow=0`` for a snapshot)
``DELETE /v1/jobs/{id}``                    cancel (immediate when queued,
                                            flagged when running)
``GET /healthz``                            liveness + queue depth
``GET /metrics``                            Prometheus text format
==========================================  =================================

:class:`ExperimentService` is the composition root: one durable
:class:`~repro.service.store.JobStore` (crash recovery runs in its
constructor), one shared :class:`~repro.explore.cache.ResultCache`, a
configurable number of :class:`~repro.service.worker.JobWorker` threads,
and the threading HTTP server -- all started/stopped together and usable
in-process (tests, notebooks) or via the ``repro-serve`` console script.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

import numpy as np

from repro.api.specs import ExperimentSpec
from repro.exceptions import ParameterError, QLAError
from repro.explore.cache import ResultCache, cache_key
from repro.explore.distributed import check_lease_seconds
from repro.explore.runner import resolved_engine
from repro.explore.sweep import SweepSpec
from repro.parallel import RetryPolicy
from repro.service.metrics import ServiceMetrics, render_metrics
from repro.service.store import (
    TERMINAL_STATES,
    JobRecord,
    JobStore,
    sweep_job_key,
)
from repro.service.worker import JobWorker

__all__ = ["ExperimentService"]

#: Upper bound on request bodies (a spec document, not a data upload).
_MAX_BODY_BYTES = 8 * 1024 * 1024


class ExperimentService:
    """The assembled experiment service (store + cache + workers + HTTP).

    Parameters
    ----------
    db_path:
        SQLite job database (``$REPRO_SERVICE_DB`` or
        ``<cache dir>/service/jobs.sqlite3`` by default).  Crash recovery
        runs immediately: ``running`` orphans from a previous process are
        re-queued before any worker starts.
    cache / cache_dir:
        The shared result cache instance, or a directory to build one at
        (defaults to the standard ``$REPRO_CACHE_DIR`` location).
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` / :attr:`url`).
    workers:
        Number of queue-draining worker threads.
    policy:
        :class:`~repro.parallel.RetryPolicy` for sweep points
        and job-retry backoff.
    default_max_attempts:
        Attempt budget for jobs whose submission doesn't specify one.
    coordinate:
        Run sweep jobs through the distributed claim protocol
        (:mod:`repro.explore.distributed`): overlapping sweeps -- across
        this service's worker threads, or across service instances
        sharing one cache directory -- execute each grid point exactly
        once between them.
    claim_lease_seconds:
        Claim lease length under ``coordinate=True`` (finite and positive).
    """

    def __init__(
        self,
        *,
        db_path=None,
        cache: ResultCache | None = None,
        cache_dir=None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        policy: RetryPolicy | None = None,
        default_max_attempts: int = 3,
        coordinate: bool = False,
        claim_lease_seconds: float = 30.0,
    ) -> None:
        if cache is not None and cache_dir is not None:
            raise ParameterError("pass either a cache instance or a cache_dir, not both")
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
            raise ParameterError(f"workers must be a positive int, got {workers!r}")
        if (
            not isinstance(default_max_attempts, int)
            or isinstance(default_max_attempts, bool)
            or default_max_attempts < 1
        ):
            raise ParameterError(
                f"default_max_attempts must be a positive int, got {default_max_attempts!r}"
            )
        check_lease_seconds(claim_lease_seconds)
        self.store = JobStore(db_path)
        self.cache = cache if cache is not None else ResultCache(cache_dir)
        self.metrics = ServiceMetrics()
        self.policy = policy if policy is not None else RetryPolicy()
        self.default_max_attempts = default_max_attempts
        self.recovered_jobs = self.store.recover()
        for job_id in self.recovered_jobs:
            self.store.append_event(
                job_id,
                {
                    "type": "recovered",
                    "message": "server restarted; running orphan re-queued",
                },
            )
        self._workers = [
            JobWorker(
                self.store,
                self.cache,
                self.metrics,
                policy=self.policy,
                name=f"repro-service-worker-{index}",
                coordinate=coordinate,
                claim_lease_seconds=claim_lease_seconds,
            )
            for index in range(workers)
        ]
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = self  # type: ignore[attr-defined]
        self._serve_thread = None
        self._serving = False

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0``)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should talk to."""
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}"

    def start(self) -> "ExperimentService":
        """Start the worker threads and the HTTP server (non-blocking)."""
        import threading

        for worker in self._workers:
            worker.start()
        self._serving = True
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-service-http",
            daemon=True,
        )
        self._serve_thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking variant of :meth:`start` (what ``repro-serve`` runs)."""
        for worker in self._workers:
            worker.start()
        self._serving = True
        self._httpd.serve_forever(poll_interval=0.05)

    def stop(self) -> None:
        """Stop accepting requests, stop the workers, close the store."""
        if self._serving:
            # shutdown() blocks on the serve loop acknowledging it, so it
            # must only run when a serve loop was actually entered.
            self._httpd.shutdown()
            self._serving = False
        self._httpd.server_close()
        for worker in self._workers:
            worker.stop()
        for worker in self._workers:
            if worker.is_alive():
                worker.join(timeout=10.0)
        self.store.close()

    def __enter__(self) -> "ExperimentService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- submission ----------------------------------------------------------

    def submit_document(self, document: object) -> tuple[JobRecord, bool]:
        """Turn one ``POST /v1/jobs`` body into a queued (or existing) job.

        The body is either a bare spec document (an
        :class:`~repro.api.specs.ExperimentSpec` or, recognised by its
        ``"experiment": "sweep"`` marker, a
        :class:`~repro.explore.sweep.SweepSpec`) or an envelope
        ``{"spec": <document>, "max_attempts": <n>}``.

        An experiment spec without a seed gets fresh SeedSequence entropy
        pinned *at submission* -- the job row must name one exact
        computation -- which deliberately makes seedless submissions
        non-idempotent (each draws new entropy, hence a new key).  Seeded
        specs and sweeps (whose root seed defaults to 0) dedup on their
        content key: resubmitting one returns the existing job, finished
        results included, with zero new compute.
        """
        if not isinstance(document, dict):
            raise ParameterError(
                f"a job submission must be a JSON object, got {type(document).__name__}"
            )
        max_attempts = self.default_max_attempts
        payload = document
        if "spec" in document and "experiment" not in document:
            allowed = {"spec", "max_attempts"}
            unknown = sorted(set(document) - allowed)
            if unknown:
                raise ParameterError(f"unknown job submission fields: {unknown}")
            payload = document["spec"]
            if not isinstance(payload, dict):
                raise ParameterError(
                    f"the 'spec' field must be a JSON object, got {type(payload).__name__}"
                )
            raw = document.get("max_attempts", max_attempts)
            if not isinstance(raw, int) or isinstance(raw, bool) or raw < 1:
                raise ParameterError(f"max_attempts must be a positive int, got {raw!r}")
            max_attempts = raw

        if payload.get("experiment") == "sweep":
            sweep = SweepSpec.from_dict(payload)
            key = sweep_job_key(sweep)
            kind = "sweep"
            spec_json = sweep.to_json()
        else:
            spec = ExperimentSpec.from_dict(payload)
            if spec.sampling.seed is None:
                entropy = np.random.SeedSequence().entropy
                spec = spec.with_seed(
                    tuple(int(word) for word in entropy)
                    if isinstance(entropy, (list, tuple))
                    else int(entropy)
                )
            key = cache_key(spec, engine=resolved_engine(spec))
            kind = "experiment"
            spec_json = spec.to_json()

        job, created = self.store.submit(
            idempotency_key=key,
            kind=kind,
            spec_json=spec_json,
            max_attempts=max_attempts,
        )
        if created:
            self.store.append_event(
                job.id, {"type": "submitted", "kind": kind, "idempotency_key": key}
            )
        return job, created


class _Handler(BaseHTTPRequestHandler):
    """Request handler; one instance per request, state on ``server.service``."""

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------------

    @property
    def service(self) -> ExperimentService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        # Quiet by default: the service is driven by tests and scripts; a
        # per-request stderr line is noise there and a log-injection
        # surface in shared terminals.
        pass

    def _send_json(self, status: int, document: object) -> None:
        body = json.dumps(document, indent=2).encode("utf-8") + b"\n"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_body(self) -> object | None:
        length = self.headers.get("Content-Length")
        if length is None:
            self._send_error_json(411, "Content-Length is required")
            return None
        try:
            size = int(length)
        except ValueError:
            self._send_error_json(400, f"bad Content-Length: {length!r}")
            return None
        if size < 0 or size > _MAX_BODY_BYTES:
            self._send_error_json(413, f"request body exceeds {_MAX_BODY_BYTES} bytes")
            return None
        raw = self.rfile.read(size)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as error:
            self._send_error_json(400, f"request body is not valid JSON: {error}")
            return None

    def _job_or_404(self, job_id: str) -> JobRecord | None:
        job = self.service.store.get(job_id)
        if job is None:
            self._send_error_json(404, f"no such job: {job_id}")
        return job

    # -- routing -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        parsed = urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        query = parse_qs(parsed.query)
        if parts == ["healthz"]:
            return self._get_healthz()
        if parts == ["metrics"]:
            return self._get_metrics()
        if parts[:2] == ["v1", "jobs"]:
            if len(parts) == 2:
                return self._get_jobs(query)
            if len(parts) == 3:
                return self._get_job(parts[2])
            if len(parts) == 4 and parts[3] == "result":
                return self._get_result(parts[2])
            if len(parts) == 4 and parts[3] == "events":
                return self._get_events(parts[2], query)
        self._send_error_json(404, f"no such resource: {parsed.path}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        parsed = urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        if parts != ["v1", "jobs"]:
            self._send_error_json(404, f"no such resource: {parsed.path}")
            return
        document = self._read_body()
        if document is None:
            return
        try:
            job, created = self.service.submit_document(document)
        except (ParameterError, QLAError) as error:
            self._send_error_json(422, str(error))
            return
        doc = job.to_dict()
        doc["deduplicated"] = not created
        self._send_json(201 if created else 200, doc)

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib casing
        parsed = urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        if parts[:2] != ["v1", "jobs"] or len(parts) != 3:
            self._send_error_json(404, f"no such resource: {parsed.path}")
            return
        job_id = parts[2]
        state = self.service.store.request_cancel(job_id)
        if state is None:
            self._send_error_json(404, f"no such job: {job_id}")
            return
        if state == "cancelled":
            # Queued -> cancelled directly: no worker will ever see it, so
            # the terminal event is appended here.
            self.service.store.append_event(
                job_id, {"type": "cancelled", "message": "cancelled while queued"}
            )
            self.service.metrics.record_outcome("cancelled")
        elif state == "cancelling":
            self.service.store.append_event(
                job_id, {"type": "cancel_requested"}
            )
        self._send_json(202 if state == "cancelling" else 200, {"id": job_id, "state": state})

    # -- endpoints -----------------------------------------------------------

    def _get_healthz(self) -> None:
        self._send_json(
            200,
            {
                "status": "ok",
                "uptime_seconds": self.service.metrics.uptime_seconds,
                "jobs": self.service.store.counts(),
                "recovered_jobs": len(self.service.recovered_jobs),
                "workers": len(self.service._workers),
            },
        )

    def _get_metrics(self) -> None:
        text = render_metrics(
            self.service.metrics,
            self.service.store.counts(),
            self.service.cache.stats,
        )
        body = text.encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _get_jobs(self, query: dict) -> None:
        state = query.get("state", [None])[0]
        try:
            jobs = self.service.store.list_jobs(state=state)
        except ParameterError as error:
            self._send_error_json(422, str(error))
            return
        self._send_json(200, {"jobs": [job.to_dict() for job in jobs]})

    def _get_job(self, job_id: str) -> None:
        job = self._job_or_404(job_id)
        if job is not None:
            self._send_json(200, job.to_dict(include_spec=True))

    def _get_result(self, job_id: str) -> None:
        job = self._job_or_404(job_id)
        if job is None:
            return
        text = self.service.store.result_json(job_id)
        if text is None:
            self._send_error_json(
                409, f"job {job_id} has no result yet (state: {job.state})"
            )
            return
        body = text.encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _get_events(self, job_id: str, query: dict) -> None:
        """Stream the job's event log as chunked NDJSON.

        Events already logged are replayed from ``?since=<seq>`` (default:
        all), then the stream *follows* the job -- new events are flushed
        as the worker appends them -- until the job reaches a terminal
        state and the log is drained.  ``?follow=0`` returns a snapshot of
        the current log instead.  Every line is one JSON object with a
        ``seq`` cursor for resuming.
        """
        job = self._job_or_404(job_id)
        if job is None:
            return
        try:
            since = int(query.get("since", ["-1"])[0])
        except ValueError:
            self._send_error_json(400, f"bad since cursor: {query['since'][0]!r}")
            return
        follow = query.get("follow", ["1"])[0] not in ("0", "false", "no")

        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()

        def emit(line_document: dict) -> None:
            data = json.dumps(line_document, separators=(",", ":")).encode("utf-8") + b"\n"
            self.wfile.write(f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n")
            self.wfile.flush()

        store = self.service.store
        cursor = since
        terminal_drains = 0
        try:
            while True:
                state = store.get(job_id).state
                events = store.events_since(job_id, cursor)
                saw_terminal_event = False
                for seq, payload in events:
                    emit({"seq": seq, **payload})
                    cursor = seq
                    if payload.get("type") in ("done", "failed", "cancelled"):
                        saw_terminal_event = True
                if saw_terminal_event or not follow:
                    break
                if state in TERMINAL_STATES and not events:
                    # The worker flips the state *before* appending the
                    # terminal event; allow a few empty polls of grace so
                    # the final record is never cut off (and a client
                    # resuming past the terminal event still terminates).
                    terminal_drains += 1
                    if terminal_drains >= 4:
                        break
                else:
                    terminal_drains = 0
                time.sleep(0.05)
            self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError):
            # Client went away mid-stream; it can resume from ?since=.
            self.close_connection = True
