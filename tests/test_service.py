"""The experiment service: durable job queue, HTTP API, worker loop.

Three layers of coverage:

* **store** -- the SQLite queue's lifecycle transitions, idempotent
  submission under the unique index, crash recovery, event sequencing;
* **end-to-end over HTTP** -- a sweep submitted through ``POST /v1/jobs``
  streams per-point progress and serves a result bit-for-bit equal (up to
  wall-clock times) to an in-process :func:`run_sweep`; resubmissions are
  answered by the existing job with zero new engine executions; a second
  service sharing the result cache replays the whole sweep from cache
  (``cache_misses == 0``);
* **failure injection** -- ``service.worker`` / ``service.store`` faults
  drive jobs through the retry path into ``done`` (recoverable) or a
  structured ``failed`` record (budget exhausted), never a wedged
  ``running`` row; SIGKILLing a real ``repro-serve`` process mid-sweep and
  restarting it resumes the orphaned job to the same answer.

Exact-accounting tests carry the ``no_chaos`` marker so the CI chaos
environment does not stack a second fault profile on top of the ones they
pin themselves.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro import faults
from repro.api import ExecutionSpec, ExperimentSpec, MachineSpec, NoiseSpec, SamplingSpec
from repro.api.cli import main as run_cli_main
from repro.exceptions import ParameterError
from repro.explore import ResultCache, RetryPolicy, SweepAxis, SweepSpec, run_sweep
from repro.faults import PROFILES, FaultProfile
from repro.service import (
    ExperimentService,
    JobStore,
    ServiceClient,
    ServiceError,
    sweep_job_key,
)
from repro.service.cli import main as serve_cli_main
from repro.service.metrics import ServiceMetrics, render_metrics

# ---------------------------------------------------------------------------
# spec builders (cheap desim machine runs, same as the explorer suite)


def machine_base(**machine_kwargs) -> ExperimentSpec:
    machine_kwargs.setdefault("rows", 6)
    machine_kwargs.setdefault("columns", 6)
    machine_kwargs.setdefault("workload", "adder")
    machine_kwargs.setdefault("workload_bits", 4)
    return ExperimentSpec(
        experiment="machine_sim",
        noise=NoiseSpec(kind="technology"),
        sampling=SamplingSpec(shots=0),
        execution=ExecutionSpec(backend="desim"),
        machine=MachineSpec(**machine_kwargs),
    )


def bandwidth_sweep(values=(1, 2, 3), *, seed: int = 7) -> SweepSpec:
    return SweepSpec(
        base=machine_base(),
        axes=(SweepAxis("machine.bandwidth", values),),
        seed=seed,
    )


def slow_sweep(rates=(1e-3, 1.5e-3, 2e-3, 2.5e-3, 3e-3, 3.5e-3), *, shots: int = 131072) -> SweepSpec:
    """A sweep whose points take long enough to interrupt mid-run.

    About 8 ms per point on a 2-vCPU host with the C kernel tier, whose
    native trial batch runs a 32768-shot point in about 2 ms: too short for
    a client to kill the server between two points.
    """
    base = ExperimentSpec(
        experiment="logical_failure",
        noise=NoiseSpec(kind="uniform", physical_rates=(2.0e-3,)),
        sampling=SamplingSpec(shots=shots),
    )
    return SweepSpec(
        base=base,
        axes=(SweepAxis("noise.physical_rates", tuple((rate,) for rate in rates)),),
        seed=11,
    )


def normalized(document: dict) -> dict:
    """A sweep result document minus its execution-history fields.

    Mirrors ``tests/test_explore_robust.normalized``: ``cached`` flags,
    attempt counts, wall times and the hit/miss counters describe *how* a
    run happened; bit-for-bit equality between a service answer and an
    in-process run is over everything else.
    """
    data = json.loads(json.dumps(document))
    for field in ("cache_hits", "cache_misses", "corrupt_evictions"):
        data.pop(field)
    data["sweep"].pop("point_workers", None)
    for point in data["points"]:
        point.pop("cached")
        point.pop("attempts")
        point.pop("wall_time_seconds")
        if point["result"] is not None:
            point["result"].pop("wall_time_seconds")
    return data


@pytest.fixture
def store(tmp_path) -> JobStore:
    job_store = JobStore(tmp_path / "jobs.sqlite3")
    yield job_store
    job_store.close()


@pytest.fixture
def service(tmp_path):
    svc = ExperimentService(
        db_path=tmp_path / "jobs.sqlite3",
        cache_dir=tmp_path / "cache",
        port=0,
        policy=RetryPolicy(backoff_base=0.0),
    )
    with svc:
        yield svc


@pytest.fixture
def client(service) -> ServiceClient:
    return ServiceClient(service.url)


def submit_store(store: JobStore, key: str = "key-a", **kwargs):
    kwargs.setdefault("kind", "sweep")
    kwargs.setdefault("spec_json", "{}")
    return store.submit(idempotency_key=key, **kwargs)


# ---------------------------------------------------------------------------
# the durable store


@pytest.mark.no_chaos
class TestJobStore:
    def test_submit_and_claim_lifecycle(self, store):
        job, created = submit_store(store)
        assert created
        assert job.state == "queued"
        assert job.attempts == 0
        assert not job.terminal

        claimed = store.claim()
        assert claimed.id == job.id
        assert claimed.state == "running"
        assert claimed.attempts == 1  # a claim charges an attempt

        store.mark_done(claimed, '{"ok": true}', executed_points=1, cached_points=0)
        done = store.get(job.id)
        assert done.state == "done"
        assert done.terminal
        assert done.has_result
        assert store.result_json(job.id) == '{"ok": true}'

    def test_duplicate_key_returns_existing_row(self, store):
        first, created_first = submit_store(store, "same-key")
        second, created_second = submit_store(store, "same-key")
        assert created_first and not created_second
        assert second.id == first.id

    def test_claim_order_is_submission_order(self, store):
        ids = [submit_store(store, f"key-{index}")[0].id for index in range(3)]
        assert [store.claim().id for _ in range(3)] == ids
        assert store.claim() is None

    def test_recover_requeues_running_orphans(self, store):
        job, _ = submit_store(store)
        store.claim()
        assert store.recover() == [job.id]
        requeued = store.get(job.id)
        assert requeued.state == "queued"
        assert requeued.attempts == 1  # charged attempts survive recovery

    def test_cancel_queued_is_immediate(self, store):
        job, _ = submit_store(store)
        assert store.request_cancel(job.id) == "cancelled"
        assert store.get(job.id).state == "cancelled"
        # idempotent: cancelling again just reports the terminal state
        assert store.request_cancel(job.id) == "cancelled"

    def test_cancel_running_sets_the_flag(self, store):
        job, _ = submit_store(store)
        store.claim()
        assert store.request_cancel(job.id) == "cancelling"
        assert store.get(job.id).state == "running"
        assert store.cancel_requested(job.id)

    def test_cancel_unknown_job(self, store):
        assert store.request_cancel("job-nope") is None

    def test_mark_failed_records_structured_error(self, store):
        job, _ = submit_store(store)
        store.claim()
        store.mark_failed(job.id, {"exception_type": "Boom", "message": "x", "attempts": 1})
        failed = store.get(job.id)
        assert failed.state == "failed"
        assert failed.error["exception_type"] == "Boom"
        assert not failed.has_result

    def test_event_sequences_are_dense_and_resumable(self, store):
        job, _ = submit_store(store)
        assert [store.append_event(job.id, {"n": n}) for n in range(4)] == [0, 1, 2, 3]
        assert [seq for seq, _ in store.events_since(job.id)] == [0, 1, 2, 3]
        tail = store.events_since(job.id, after=1)
        assert [payload["n"] for _, payload in tail] == [2, 3]

    def test_counts_cover_every_state(self, store):
        submit_store(store, "a")
        job_b, _ = submit_store(store, "b")
        store.request_cancel(job_b.id)
        counts = store.counts()
        assert counts == {"queued": 1, "running": 0, "done": 0, "failed": 0, "cancelled": 1}

    def test_list_jobs_state_filter_is_validated(self, store):
        with pytest.raises(ParameterError, match="unknown job state"):
            store.list_jobs(state="exploded")

    def test_submit_validation(self, store):
        with pytest.raises(ParameterError, match="kind"):
            store.submit(idempotency_key="k", kind="banana", spec_json="{}")
        with pytest.raises(ParameterError, match="max_attempts"):
            submit_store(store, max_attempts=0)

    def test_sweep_job_key_is_content_addressed(self):
        assert sweep_job_key(bandwidth_sweep()) == sweep_job_key(bandwidth_sweep())
        assert sweep_job_key(bandwidth_sweep()) != sweep_job_key(bandwidth_sweep(seed=8))


# ---------------------------------------------------------------------------
# end-to-end over HTTP


@pytest.mark.no_chaos
class TestServiceEndToEnd:
    def test_sweep_round_trip_matches_in_process_run(self, service, client, tmp_path):
        sweep = bandwidth_sweep()
        job = client.submit(sweep.to_dict())
        assert job["kind"] == "sweep"
        assert not job["deduplicated"]

        events = list(client.events(job["id"]))
        types = [event["type"] for event in events]
        assert types[0] == "submitted"
        assert types.count("point") == 3
        assert types[-1] == "done"
        points = [event for event in events if event["type"] == "point"]
        assert [event["index"] for event in points] == [0, 1, 2]
        assert all(event["total"] == 3 for event in points)
        assert all(event["ok"] for event in points)
        # the seq cursor is dense and strictly increasing
        assert [event["seq"] for event in events] == list(range(len(events)))

        document = client.wait(job["id"])
        assert document["state"] == "done"
        assert document["executed_points"] == 3
        assert document["cached_points"] == 0
        assert document["point_errors"] == []

        reference = run_sweep(sweep, cache=ResultCache(tmp_path / "reference-cache"))
        assert normalized(client.result(job["id"])) == normalized(reference.to_dict())
        remote = client.result_object(job["id"])
        assert [point.result.value for point in remote.points] == [
            point.result.value for point in reference.points
        ]

    def test_resubmission_is_deduplicated_with_zero_executions(self, service, client):
        sweep = bandwidth_sweep()
        first = client.submit(sweep.to_dict())
        client.wait(first["id"])
        stats_before = dict(service.cache.stats)

        again = client.submit(sweep.to_dict())
        assert again["deduplicated"]
        assert again["id"] == first["id"]
        assert again["state"] == "done"  # the finished job answers directly
        assert service.cache.stats == stats_before  # not even a cache read

    def test_shared_cache_replays_sweep_with_zero_misses(self, service, client, tmp_path):
        sweep = bandwidth_sweep()
        client.wait(client.submit(sweep.to_dict())["id"])

        # Fresh queue, same result cache: the job is new, every point hits.
        replay_service = ExperimentService(
            db_path=tmp_path / "jobs-replay.sqlite3", cache=service.cache, port=0
        )
        with replay_service:
            replay_client = ServiceClient(replay_service.url)
            job = replay_client.submit(sweep.to_dict())
            assert not job["deduplicated"]
            document = replay_client.wait(job["id"])
            assert document["executed_points"] == 0
            assert document["cached_points"] == 3
            result = replay_client.result(job["id"])
        assert result["cache_misses"] == 0
        assert result["cache_hits"] == 3

    def test_seeded_experiment_job_reuses_the_result_cache(self, service, client, tmp_path):
        spec = machine_base().with_seed(42)
        job = client.submit(spec.to_dict())
        assert job["kind"] == "experiment"
        document = client.wait(job["id"])
        assert document["state"] == "done"
        assert document["executed_points"] == 1
        assert document["cached_points"] == 0

        replay_service = ExperimentService(
            db_path=tmp_path / "jobs-replay.sqlite3", cache=service.cache, port=0
        )
        with replay_service:
            replay_client = ServiceClient(replay_service.url)
            replay = replay_client.wait(replay_client.submit(spec.to_dict())["id"])
            assert replay["idempotency_key"] == document["idempotency_key"]
            assert replay["executed_points"] == 0
            assert replay["cached_points"] == 1
            # Served from the cache: the identical stored document, wall
            # time included.
            assert replay_client.result(replay["id"]) == client.result(job["id"])

    def test_seedless_experiment_submissions_are_not_idempotent(self, service, client):
        spec = machine_base()
        assert spec.sampling.seed is None
        first = client.submit(spec.to_dict())
        second = client.submit(spec.to_dict())
        # Fresh entropy is pinned at each submission: distinct computations.
        assert second["id"] != first["id"]
        assert not second["deduplicated"]
        assert client.job(first["id"])["spec"]["sampling"]["seed"] is not None

    def test_max_attempts_envelope(self, service, client):
        job = client.submit(bandwidth_sweep().to_dict(), max_attempts=7)
        assert job["max_attempts"] == 7

    def test_events_snapshot_and_cursor(self, service, client):
        job = client.submit(bandwidth_sweep().to_dict())
        client.wait(job["id"])
        full = list(client.events(job["id"], follow=False))
        assert full[-1]["type"] == "done"
        resumed = list(client.events(job["id"], since=full[1]["seq"], follow=False))
        assert [event["seq"] for event in resumed] == [event["seq"] for event in full[2:]]

    def test_job_listing_and_state_filter(self, service, client):
        job = client.submit(bandwidth_sweep().to_dict())
        client.wait(job["id"])
        listed = client.jobs()
        assert [entry["id"] for entry in listed] == [job["id"]]
        assert [entry["id"] for entry in client.jobs(state="done")] == [job["id"]]
        assert client.jobs(state="failed") == []

    def test_cancel_running_sweep_lands_in_cancelled(self, service, client):
        job = client.submit(slow_sweep().to_dict())
        for event in client.events(job["id"]):
            if event["type"] == "point":
                response = client.cancel(job["id"])
                assert response["state"] in ("cancelling", "done")
                break
        document = client.wait(job["id"])
        # The worker honours the flag at the next per-point checkpoint; on
        # a fast machine the sweep may have already finished.
        assert document["state"] in ("cancelled", "done")
        if document["state"] == "cancelled":
            with pytest.raises(ServiceError) as excinfo:
                client.result(job["id"])
            assert excinfo.value.status == 409

    def test_healthz_and_metrics(self, service, client):
        client.wait(client.submit(bandwidth_sweep().to_dict())["id"])
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["jobs"]["done"] == 1
        assert health["workers"] == 1
        assert health["uptime_seconds"] > 0

        text = client.metrics_text()
        assert 'repro_service_jobs{state="done"} 1' in text
        assert 'repro_service_jobs_finished_total{outcome="done"} 1' in text
        assert 'repro_service_points_total{source="engine"} 3' in text
        assert 'repro_cache_operations_total{op="store"} 3' in text
        assert "# HELP repro_service_uptime_seconds" in text
        assert "# TYPE repro_service_job_attempts_total counter" in text

    def test_http_error_paths(self, service, client):
        with pytest.raises(ServiceError) as excinfo:
            client.job("job-missing")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"experiment": "sweep", "axes": "nope"})
        assert excinfo.value.status == 422
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"spec": bandwidth_sweep().to_dict(), "max_attempts": 0})
        assert excinfo.value.status == 422
        with pytest.raises(ServiceError) as excinfo:
            client.jobs(state="exploded")
        assert excinfo.value.status == 422
        with pytest.raises(ServiceError) as excinfo:
            client.cancel("job-missing")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client._json("GET", "/v1/nope")
        assert excinfo.value.status == 404

        request = urllib.request.Request(
            f"{service.url}/v1/jobs", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as http_error:
            urllib.request.urlopen(request, timeout=10)
        assert http_error.value.code == 400

    def test_result_before_done_is_409(self, tmp_path):
        # A service whose workers never start: the job stays queued.
        svc = ExperimentService(db_path=tmp_path / "q.sqlite3", cache_dir=tmp_path / "c", port=0)
        try:
            job, created = svc.submit_document(bandwidth_sweep().to_dict())
            assert created
            assert svc.store.result_json(job.id) is None
        finally:
            svc.store.close()

    def test_service_parameter_validation(self, tmp_path):
        with pytest.raises(ParameterError, match="not both"):
            ExperimentService(cache=ResultCache(tmp_path), cache_dir=tmp_path)
        with pytest.raises(ParameterError, match="workers"):
            ExperimentService(db_path=tmp_path / "db", cache_dir=tmp_path / "c", workers=0)
        with pytest.raises(ParameterError, match="default_max_attempts"):
            ExperimentService(
                db_path=tmp_path / "db", cache_dir=tmp_path / "c", default_max_attempts=0
            )

    def test_submission_document_validation(self, service):
        with pytest.raises(ParameterError, match="JSON object"):
            service.submit_document([1, 2, 3])
        with pytest.raises(ParameterError, match="unknown job submission fields"):
            service.submit_document({"spec": machine_base().to_dict(), "priority": 9})


# ---------------------------------------------------------------------------
# concurrency: the unique index under fire


@pytest.mark.no_chaos
class TestConcurrentSubmission:
    def test_racing_identical_submissions_converge_on_one_job(self, service, client):
        sweep = bandwidth_sweep(values=(1, 2, 3, 4))
        document = sweep.to_dict()
        n_threads, n_points = 8, 4
        barrier = threading.Barrier(n_threads)
        responses: list[dict] = [None] * n_threads

        def post(slot: int) -> None:
            barrier.wait()
            responses[slot] = client.submit(document)

        threads = [threading.Thread(target=post, args=(slot,)) for slot in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert all(response is not None for response in responses)
        assert len({response["id"] for response in responses}) == 1
        assert sum(not response["deduplicated"] for response in responses) == 1

        document = client.wait(responses[0]["id"])
        assert document["state"] == "done"
        assert document["executed_points"] == n_points
        assert document["cached_points"] == 0
        # Exactly one engine execution per point across all N submissions.
        assert service.cache.stats["misses"] == n_points
        assert service.cache.stats["stores"] == n_points
        assert client.result(document["id"])["cache_misses"] == n_points


# ---------------------------------------------------------------------------
# fault injection: service.worker / service.store sites


class TestFaultInjection:
    def test_store_write_fault_is_absorbed_by_retry(self, service, client):
        # Every job's first terminal store write is torn; the retry re-runs
        # the sweep as pure cache hits and re-commits.
        with faults.fault_profile(FaultProfile(seed=1, store=1.0, fail_attempts=1)):
            job = client.submit(bandwidth_sweep().to_dict())
            document = client.wait(job["id"])
        assert document["state"] == "done"
        assert document["attempts"] == 2
        assert document["executed_points"] == 0  # second attempt: all cached
        assert document["cached_points"] == 3
        types = [event["type"] for event in client.events(job["id"], follow=False)]
        assert "attempt_failed" in types
        assert types[-1] == "done"

    def test_worker_crash_fault_is_absorbed_by_retry(self, service, client):
        with faults.fault_profile(FaultProfile(seed=2, service=1.0, fail_attempts=1)):
            job = client.submit(bandwidth_sweep().to_dict())
            document = client.wait(job["id"])
        assert document["state"] == "done"
        assert document["attempts"] == 2

    def test_exhausted_attempts_land_in_structured_failed(self, service, client):
        # fail_attempts=-1: every attempt dies; the budget must exhaust into
        # a structured failed record, never a wedged running row.
        with faults.fault_profile(FaultProfile(seed=3, service=1.0, fail_attempts=-1)):
            job = client.submit(bandwidth_sweep().to_dict(), max_attempts=2)
            document = client.wait(job["id"])
        assert document["state"] == "failed"
        assert document["attempts"] == 2
        assert document["error"]["exception_type"] == "InjectedFault"
        assert document["error"]["attempts"] == 2
        assert "traceback" in document["error"]
        with pytest.raises(ServiceError) as excinfo:
            client.result(job["id"])
        assert excinfo.value.status == 409

    def test_exhausted_point_retries_fail_an_experiment_job_without_requeue(
        self, service, client
    ):
        # Point failures are retried by the point supervisor, not the job:
        # once the point exhausts its retries the job fails on attempt 1.
        with faults.fault_profile(PROFILES["permafail"]):
            job = client.submit(machine_base().with_seed(5).to_dict())
            document = client.wait(job["id"])
        assert document["state"] == "failed"
        assert document["attempts"] == 1
        assert document["error"]["exception_type"] == "InjectedFault"
        assert document["error"]["point_attempts"] == service.policy.max_retries + 1

    def test_chaos_profile_converges_to_terminal_states(self, service, client):
        # The CI chaos preset (transient faults fire once per key): every
        # job must converge to done within the default attempt budget.
        with faults.fault_profile(PROFILES["chaos"]):
            jobs = [
                client.submit(bandwidth_sweep(seed=seed).to_dict())["id"]
                for seed in (101, 102, 103)
            ]
            documents = [client.wait(job_id, timeout=60) for job_id in jobs]
        assert [document["state"] for document in documents] == ["done"] * 3
        assert all(document["state"] in ("done", "failed") for document in documents)


# ---------------------------------------------------------------------------
# crash recovery: in-process and against a real killed server


@pytest.mark.no_chaos
class TestCrashRecovery:
    def test_startup_recovery_requeues_and_finishes_orphans(self, tmp_path):
        db_path = tmp_path / "jobs.sqlite3"
        sweep = bandwidth_sweep()
        # Simulate a crash: a claimed (running) job whose process died.
        store = JobStore(db_path)
        job, _ = store.submit(
            idempotency_key=sweep_job_key(sweep), kind="sweep", spec_json=sweep.to_json()
        )
        store.claim()
        store.close()

        svc = ExperimentService(db_path=db_path, cache_dir=tmp_path / "cache", port=0)
        assert svc.recovered_jobs == [job.id]
        with svc:
            document = ServiceClient(svc.url).wait(job.id)
            types = [payload["type"] for _, payload in svc.store.events_since(job.id)]
        assert document["state"] == "done"
        assert document["attempts"] == 2  # the orphaned claim stays charged
        assert "recovered" in types

    def test_sigkilled_server_resumes_job_bit_for_bit(self, tmp_path):
        """Kill ``repro-serve`` mid-sweep; the restarted server must finish
        the orphaned job and serve the same answer as an uninterrupted run."""
        env = {
            **os.environ,
            "REPRO_CACHE_DIR": str(tmp_path / "cache"),
            "REPRO_SERVICE_DB": str(tmp_path / "jobs.sqlite3"),
        }
        env.pop("REPRO_FAULTS", None)  # the child must not inherit chaos

        def start_server() -> tuple[subprocess.Popen, dict]:
            process = subprocess.Popen(
                [sys.executable, "-m", "repro.service.cli", "--port", "0"],
                stdout=subprocess.PIPE,
                env=env,
                text=True,
            )
            return process, json.loads(process.stdout.readline())

        sweep = slow_sweep()
        process, info = start_server()
        try:
            client = ServiceClient(info["url"])
            job = client.submit(sweep.to_dict())
            seen = 0
            for event in client.events(job["id"]):
                if event["type"] == "point":
                    seen += 1
                    if seen >= 2:
                        break
        finally:
            process.kill()
            process.wait(timeout=30)
        assert seen == 2

        process, info = start_server()
        try:
            assert info["recovered_jobs"] == 1
            client = ServiceClient(info["url"])
            document = client.wait(job["id"], timeout=120)
            assert document["state"] == "done"
            assert document["attempts"] == 2
            # The pre-crash points were cached incrementally: the resumed
            # attempt recomputes only the tail.
            assert document["cached_points"] >= seen
            assert document["executed_points"] + document["cached_points"] == 6
            resumed = client.result(job["id"])
        finally:
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0

        reference = run_sweep(sweep, cache=ResultCache(tmp_path / "reference-cache"))
        assert normalized(resumed) == normalized(reference.to_dict())


# ---------------------------------------------------------------------------
# satellites: metrics rendering, repro-serve CLI, repro-run exit code 4


@pytest.mark.no_chaos
class TestMetricsRendering:
    def test_render_covers_every_series(self):
        metrics = ServiceMetrics()
        metrics.record_attempt()
        metrics.record_outcome("done")
        metrics.record_point({"cached": False, "ok": True, "wall_time_seconds": 0.5})
        metrics.record_point({"cached": True, "ok": True})
        metrics.record_point({"ok": False, "error": {"message": "x"}})
        text = render_metrics(
            metrics,
            {"queued": 2, "running": 1, "done": 1, "failed": 0, "cancelled": 0},
            {"hits": 4, "misses": 2, "stores": 2, "corrupt_evictions": 1},
        )
        assert text.endswith("\n")
        assert 'repro_service_jobs{state="queued"} 2' in text
        assert 'repro_service_jobs_finished_total{outcome="done"} 1' in text
        assert "repro_service_job_attempts_total 1" in text
        assert 'repro_service_points_total{source="engine"} 1' in text
        assert 'repro_service_points_total{source="cache"} 1' in text
        assert 'repro_service_points_total{source="failed"} 1' in text
        assert "repro_service_engine_seconds_total 0.5" in text
        assert 'repro_cache_operations_total{op="corrupt_eviction"} 1' in text
        # every exposed family is typed and documented
        for family in (
            "repro_service_uptime_seconds",
            "repro_service_jobs",
            "repro_service_jobs_finished_total",
            "repro_service_job_attempts_total",
            "repro_service_points_total",
            "repro_service_engine_seconds_total",
            "repro_cache_operations_total",
        ):
            assert f"# HELP {family} " in text
            assert f"# TYPE {family} " in text


@pytest.mark.no_chaos
class TestServeCLI:
    def test_startup_line_and_sigint_shutdown(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_SERVICE_DB", str(tmp_path / "jobs.sqlite3"))

        codes: list[int] = []

        def serve() -> None:
            codes.append(serve_cli_main(["--port", "0"]))

        thread = threading.Thread(target=serve)
        # Interrupt the blocking serve loop shortly after it starts: the
        # CLI must treat it like SIGINT and exit 0.  The handler is patched
        # in because raising KeyboardInterrupt across threads is unreliable.
        monkeypatch.setattr(
            "repro.service.http.ExperimentService.serve_forever",
            lambda self: (_ for _ in ()).throw(KeyboardInterrupt()),
        )
        thread.start()
        thread.join(timeout=30)
        assert codes == [0]
        startup = json.loads(capsys.readouterr().out)
        assert startup["recovered_jobs"] == 0
        assert startup["db"] == str(tmp_path / "jobs.sqlite3")

    def test_bad_startup_exits_1(self, tmp_path, monkeypatch, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        monkeypatch.setenv("REPRO_SERVICE_DB", str(blocker / "sub" / "jobs.sqlite3"))
        assert serve_cli_main(["--port", "0", "--cache-dir", str(tmp_path / "c")]) == 1
        assert "repro-serve:" in capsys.readouterr().err


#: The per-point record of ``GET /v1/jobs/{id}/events`` and ``repro-run
#: --stream``, key for key (the service adds its ``type``/``seq`` envelope).
POINT_RECORD_KEYS = {
    "index", "total", "coordinates", "cache_key", "cached",
    "ok", "attempts", "wall_time_seconds", "error",
}


def assert_point_records_match(records: list[dict], document: dict) -> None:
    """Each record equals the matching point of the final sweep document."""
    points = document["points"]
    assert sorted(record["index"] for record in records) == list(range(len(points)))
    for record in records:
        point = points[record["index"]]
        assert record["total"] == len(points)
        assert record["ok"] == (point["error"] is None)
        for field in ("coordinates", "cache_key", "cached", "attempts",
                      "wall_time_seconds", "error"):
            assert record[field] == point[field], field


@pytest.mark.no_chaos
class TestPointWireFormat:
    """The per-point record pinned for an executed and a cached pass."""

    def test_service_point_events(self, service, client, tmp_path):
        sweep = bandwidth_sweep((1, 2))
        first = client.submit(sweep.to_dict())
        client.wait(first["id"])
        replay_service = ExperimentService(
            db_path=tmp_path / "jobs-replay.sqlite3", cache=service.cache, port=0
        )
        with replay_service:
            replay_client = ServiceClient(replay_service.url)
            second = replay_client.submit(sweep.to_dict())
            replay_client.wait(second["id"])
            passes = [(client, first), (replay_client, second)]
            for cached, (owner, job) in zip((False, True), passes):
                records = [
                    event for event in owner.events(job["id"], follow=False)
                    if event["type"] == "point"
                ]
                assert len(records) == 2
                for record in records:
                    assert set(record) == POINT_RECORD_KEYS | {"type", "seq"}
                    assert record["cached"] is cached
                assert_point_records_match(records, owner.result(job["id"]))

    def test_cli_stream_lines(self, tmp_path, monkeypatch, capsys):
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(bandwidth_sweep((1, 2)).to_json())
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        for cached in (False, True):
            output = tmp_path / f"result-{cached}.json"
            assert run_cli_main([str(spec_path), "--stream", "-o", str(output)]) == 0
            lines = capsys.readouterr().out.splitlines()
            records = [json.loads(line) for line in lines]
            assert len(records) == 2
            for record in records:
                assert set(record) == POINT_RECORD_KEYS
                assert record["cached"] is cached
            assert_point_records_match(records, json.loads(output.read_text()))


@pytest.mark.no_chaos
class TestResumeExitCode:
    def test_unwritable_cache_dir_fails_resume_with_exit_4(self, tmp_path, monkeypatch, capsys):
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(bandwidth_sweep().to_json())
        # A cache dir that can never be created: its parent is a file.
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker / "cache"))

        code = run_cli_main([str(spec_path), "--resume", "--quiet"])
        captured = capsys.readouterr()
        assert code == 4
        assert "cannot --resume" in captured.err
        assert "REPRO_CACHE_DIR" in captured.err

    def test_writable_cache_dir_resumes_normally(self, tmp_path, monkeypatch):
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(bandwidth_sweep().to_json())
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert run_cli_main([str(spec_path), "--resume", "--quiet"]) == 0
