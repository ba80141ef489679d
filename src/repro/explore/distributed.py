"""Multi-worker design-space sweeps coordinated through the result cache.

The content-addressed :class:`~repro.explore.cache.ResultCache` was built
as a coordination layer: every grid point's cache key is a pure function
of its fully-bound spec, per-point seeds derive from *coordinates* (not
grid position), and entry writes are atomic.  This module cashes that in.
N worker processes -- or N hosts sharing the cache directory over a
network filesystem -- cooperate on one sweep with **no queue, no broker
and no network protocol**: the only shared state is atomic *claim files*
next to the cache entries.

The claim protocol
==================

Claims live under ``<cache dir>/claims/``, one file per cache key:

* **Acquire** creates ``<key>.claim`` with ``O_CREAT | O_EXCL`` -- the
  filesystem's atomic "exactly one winner" primitive -- containing a
  :class:`ClaimRecord` (worker identity, lease length, timestamps, reap
  generation).  Losing the race means another worker owns the point.
* **Heartbeat.**  While executing, the owner refreshes
  :attr:`ClaimRecord.heartbeat_at` every ``lease_seconds / 3`` (atomic
  tmp + ``os.replace``).  A claim whose heartbeat is older than its lease
  is *stale*: its owner is presumed dead.
* **Reap.**  A stale claim is stolen in three steps: rename the claim
  file to a unique tombstone (atomic; exactly one renamer can win because
  a second rename of the same source fails), *verify* the renamed record
  really is the stale one (a faster reaper may have reaped and re-created
  a live claim between our read and our rename -- that successor is
  restored with a no-clobber ``os.link`` and the reap backs off), then
  re-acquire with ``O_EXCL`` at ``generation + 1``.  The generation
  counter is what lets the fault harness kill *first* claimants
  deterministically while their reapers survive
  (:data:`repro.faults.EXPLORE_CLAIM`).
* **Release** deletes the claim -- but only after the point's result has
  landed in the cache, so no waiter can acquire a released claim and find
  the work missing.

**Safety does not depend on mutual exclusion.**  A presumed-dead owner
that was merely slow (a *zombie*) may still finish and write its entry
concurrently with the reaper: both execute the same seed-pinned spec, both
produce bit-identical results, and the cache's atomic ``os.replace``
makes the double write invisible.  Claims are purely a *work-deduplication*
lease; correctness comes from content addressing and determinism.  The
practical requirements are a shared filesystem with atomic ``O_EXCL`` /
``rename`` (POSIX local disks, NFSv3+) and clocks that agree to within a
fraction of the lease.

Entry points
============

* :func:`repro.explore.runner.run_sweep` with ``coordinate=True`` joins a
  sweep's claim party from the calling process -- this is what lets N
  *hosts* each run ``repro-run sweep.json --coordinate`` against a shared
  ``REPRO_CACHE_DIR`` and collectively execute every point exactly once.
* :func:`run_sweep_distributed` forks ``num_workers`` local worker
  processes over one shared cache, waits for them, and merges by running
  a final coordinated pass (a pure cache replay when the workers covered
  the grid, and the crash-resume path when some of them died): the merged
  :class:`~repro.explore.runner.SweepResult` satisfies
  ``merged.value_digest() == serial.value_digest()`` -- bit-for-bit equal
  per-point specs, seeds, engines and values -- no matter how many
  workers ran, crashed, or were reaped along the way.
"""

from __future__ import annotations

import json
import logging
import os
import socket
import tempfile
import threading
import time
import uuid
from dataclasses import dataclass, replace
from pathlib import Path

from repro import faults
from repro.api.results import RunResult
from repro.api.specs import ExperimentSpec
from repro.exceptions import ParameterError, QLAError
from repro.explore.cache import ResultCache
from repro.explore.supervisor import execute_supervised
from repro.parallel import RetryPolicy, fork_context

__all__ = [
    "CLAIMS_SUBDIR",
    "DEFAULT_LEASE_SECONDS",
    "ClaimRecord",
    "ClaimStore",
    "WorkerReport",
    "DistributedSweepError",
    "DistributedRun",
    "execute_coordinated",
    "run_sweep_distributed",
]

#: Subdirectory of the cache root holding claim files.
CLAIMS_SUBDIR = "claims"

#: Default claim lease: a worker silent for this long is presumed dead.
DEFAULT_LEASE_SECONDS = 30.0

#: Environment flag marking a process as a distributed sweep worker.  The
#: :data:`repro.faults.EXPLORE_CLAIM` site (SIGKILL after claiming) is only
#: consulted when this flag is set, so a chaos profile can never kill the
#: merging parent, a service thread, or a plain ``coordinate=True`` caller.
WORKER_FLAG_ENV = "_REPRO_DISTRIBUTED_WORKER"

_LOG = logging.getLogger("repro")


class DistributedSweepError(QLAError):
    """A distributed sweep could not complete (e.g. every worker failed)."""


def _default_worker_identity() -> str:
    """``host:pid:token`` -- unique per acquiring process, stable within it."""
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"


@dataclass(frozen=True)
class ClaimRecord:
    """One worker's lease on one grid point.

    Attributes
    ----------
    key:
        The cache key being claimed (the point's content address).
    worker:
        Claiming worker's identity (``host:pid:token``).
    generation:
        Reap generation: ``0`` for the first claimant of a point, and
        ``+1`` every time a stale claim is reaped.  Passed as the
        ``attempt`` to the :data:`repro.faults.EXPLORE_CLAIM` site, so a
        chaos profile with ``fail_attempts=1`` kills only first
        claimants and their reapers survive.
    claimed_at / heartbeat_at:
        Unix timestamps of acquisition and the latest lease refresh.
    lease_seconds:
        Staleness horizon: the claim is reapable once
        ``now >= heartbeat_at + lease_seconds``.
    """

    key: str
    worker: str
    generation: int
    claimed_at: float
    heartbeat_at: float
    lease_seconds: float

    _FIELDS = ("key", "worker", "generation", "claimed_at", "heartbeat_at", "lease_seconds")

    def to_json(self) -> str:
        """Canonical (sorted-key, compact) JSON; :meth:`from_json` round-trips
        exactly, and distinct records always render to distinct documents."""
        return json.dumps(
            {name: getattr(self, name) for name in self._FIELDS},
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "ClaimRecord":
        """Strictly rebuild a record (unknown/missing fields raise)."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ParameterError(f"claim record is not valid JSON: {error}") from error
        if not isinstance(data, dict):
            raise ParameterError(f"a claim record must be a JSON object, got {type(data).__name__}")
        missing = sorted(set(cls._FIELDS) - set(data))
        if missing:
            raise ParameterError(f"claim record is missing fields: {missing}")
        unknown = sorted(set(data) - set(cls._FIELDS))
        if unknown:
            raise ParameterError(f"unknown claim record fields: {unknown}")
        record = cls(**{name: data[name] for name in cls._FIELDS})
        if not isinstance(record.key, str) or not record.key:
            raise ParameterError(f"claim key must be a non-empty string, got {record.key!r}")
        if not isinstance(record.worker, str) or not record.worker:
            raise ParameterError(f"claim worker must be a non-empty string, got {record.worker!r}")
        if (
            not isinstance(record.generation, int)
            or isinstance(record.generation, bool)
            or record.generation < 0
        ):
            raise ParameterError(f"claim generation must be a non-negative int, got {record.generation!r}")
        for name in ("claimed_at", "heartbeat_at", "lease_seconds"):
            value = getattr(record, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool) or value < 0:
                raise ParameterError(f"claim {name} must be a non-negative number, got {value!r}")
        return record


class ClaimStore:
    """Atomic per-point claims in a directory shared by every worker.

    Parameters
    ----------
    directory:
        Where claim files live -- :meth:`for_cache` places them under the
        cache root's ``claims/`` subdirectory, which is what keeps one
        sweep's workers (including ones on other hosts) in one party.
    worker:
        This process's identity, stamped into every claim it writes.
    lease_seconds:
        Lease length written into new claims.  *Reading* honours each
        claim's own recorded lease, so parties with mixed settings agree
        on staleness.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        worker: str | None = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
    ) -> None:
        if not isinstance(lease_seconds, (int, float)) or lease_seconds <= 0:
            raise ParameterError(
                f"lease_seconds must be a positive number, got {lease_seconds!r}"
            )
        self.directory = Path(directory)
        self.worker = worker if worker is not None else _default_worker_identity()
        self.lease_seconds = float(lease_seconds)

    @classmethod
    def for_cache(cls, cache: ResultCache, **kwargs) -> "ClaimStore":
        """The claim store co-located with a result cache (``claims/``)."""
        return cls(cache.directory / CLAIMS_SUBDIR, **kwargs)

    def path_for(self, key: str) -> Path:
        """Where the claim file for ``key`` lives."""
        if not isinstance(key, str) or len(key) < 3:
            raise ParameterError(f"a claim key must be a hex digest, got {key!r}")
        return self.directory / f"{key}.claim"

    # -- primitive operations -------------------------------------------------

    def _write_exclusive(self, path: Path, record: ClaimRecord) -> bool:
        """Atomically create ``path`` with ``record``; False if it exists."""
        self.directory.mkdir(parents=True, exist_ok=True)
        try:
            handle = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        with os.fdopen(handle, "w") as stream:
            stream.write(record.to_json())
        return True

    def read(self, key: str) -> ClaimRecord | None:
        """The current claim on ``key``, or None (missing *or* unreadable).

        A torn or foreign-schema claim file reads as None -- the caller
        treats it like a stale claim and reaps it, exactly as the result
        cache treats corrupt entries as misses.
        """
        try:
            text = self.path_for(key).read_text()
        except OSError:
            return None
        try:
            return ClaimRecord.from_json(text)
        except ParameterError:
            return None

    def is_stale(self, record: ClaimRecord, now: float | None = None) -> bool:
        """Whether the claim's lease has lapsed (owner presumed dead)."""
        if now is None:
            now = time.time()
        return now >= record.heartbeat_at + record.lease_seconds

    def acquire(self, key: str) -> ClaimRecord | None:
        """Try to claim ``key``; returns the held record, or None if another
        worker holds a *fresh* claim.

        A stale (or unreadable) existing claim is reaped first: the file
        is renamed to a unique tombstone -- atomic, so concurrent reapers
        cannot both win -- and the re-acquisition carries
        ``generation + 1``.
        """
        path = self.path_for(key)
        now = time.time()
        fresh = ClaimRecord(
            key=key,
            worker=self.worker,
            generation=0,
            claimed_at=now,
            heartbeat_at=now,
            lease_seconds=self.lease_seconds,
        )
        if self._write_exclusive(path, fresh):
            return fresh
        current = self.read(key)
        if current is not None and not self.is_stale(current, now):
            return None
        # Stale or unreadable: reap.  Renaming to a unique tombstone is the
        # race arbiter -- the second renamer gets ENOENT and backs off.
        tombstone = self.directory / f".{key[:16]}.reaped-{uuid.uuid4().hex}"
        try:
            os.rename(path, tombstone)
        except OSError:
            return None
        # Verify the rename grabbed the claim we judged stale.  Between our
        # read and our rename a faster reaper may have reaped it *and*
        # re-created a live successor claim -- which our rename would have
        # stolen blindly, double-executing the point.  The tombstone is our
        # private snapshot of whatever we actually renamed, so judge that.
        try:
            renamed = ClaimRecord.from_json(tombstone.read_text())
        except (OSError, ParameterError):
            renamed = None  # torn/unreadable: reapable by definition
        if renamed is not None and not self.is_stale(renamed):
            # We stole a live claim: put it back.  ``os.link`` refuses to
            # clobber, so a third worker's newer claim (created while the
            # path was briefly empty) wins over the restore -- its owner
            # holds the point either way, and the displaced owner degrades
            # to the documented zombie semantics.
            try:
                os.link(tombstone, path)
            except OSError:
                pass
            try:
                os.unlink(tombstone)
            except OSError:  # pragma: no cover - tombstone cleanup is best-effort
                pass
            return None
        generation = (renamed.generation + 1) if renamed is not None else 1
        _LOG.warning(
            "reaped %s claim on %s...; re-claiming it as generation %d",
            f"stale {renamed.worker!r}" if renamed is not None else "unreadable",
            key[:12],
            generation,
        )
        try:
            os.unlink(tombstone)
        except OSError:  # pragma: no cover - tombstone cleanup is best-effort
            pass
        stolen = replace(fresh, generation=generation, claimed_at=time.time(), heartbeat_at=time.time())
        if self._write_exclusive(path, stolen):
            return stolen
        return None

    def heartbeat(self, record: ClaimRecord) -> ClaimRecord | None:
        """Refresh the lease on a held claim; None if ownership was lost.

        Losing ownership means this worker was presumed dead and reaped.
        The (still live) loser may safely finish its point -- results are
        bit-identical and cache writes atomic -- but it must stop
        touching the claim, which now belongs to the reaper.
        """
        current = self.read(record.key)
        if (
            current is None
            or current.worker != record.worker
            or current.generation != record.generation
        ):
            return None
        refreshed = replace(record, heartbeat_at=time.time())
        path = self.path_for(record.key)
        handle, temp_name = tempfile.mkstemp(dir=self.directory, prefix=".hb-", suffix=".tmp")
        try:
            with os.fdopen(handle, "w") as stream:
                stream.write(refreshed.to_json())
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        return refreshed

    def release(self, record: ClaimRecord) -> bool:
        """Delete a held claim (after its result landed in the cache).

        Only removes the file while this record still owns it; a claim
        lost to a reaper is left alone.  Returns whether a file was
        removed.
        """
        current = self.read(record.key)
        if (
            current is None
            or current.worker != record.worker
            or current.generation != record.generation
        ):
            return False
        try:
            os.unlink(self.path_for(record.key))
        except OSError:
            return False
        return True

    def cleanup_stale(self, key: str) -> bool:
        """Remove a stale claim left by a worker that died *after* caching.

        A worker killed between its cache write and its release leaves a
        claim file that no longer guards anything (the result exists).
        Any worker that resolves the point from the cache calls this to
        garbage-collect the leftover; fresh claims are never touched.
        """
        current = self.read(key)
        if current is None:
            # Either no claim, or an unreadable one: unreadable files are
            # torn writes from a dead claimant -- reap via the tombstone
            # dance so concurrent cleaners cannot collide.
            path = self.path_for(key)
            if not path.exists():
                return False
        elif not self.is_stale(current):
            return False
        tombstone = self.directory / f".{key[:16]}.reaped-{uuid.uuid4().hex}"
        try:
            os.rename(self.path_for(key), tombstone)
        except OSError:
            return False
        owner = f"stale {current.worker!r}" if current is not None else "unreadable"
        _LOG.warning("removed %s claim on %s... after its result was cached", owner, key[:12])
        try:
            os.unlink(tombstone)
        except OSError:  # pragma: no cover - tombstone cleanup is best-effort
            pass
        return True


class _HeartbeatKeeper:
    """Background thread refreshing every currently-held claim.

    Refresh cadence is a third of the store's lease, so two missed beats
    still leave headroom before the claim goes stale.  Ownership lost to
    a reaper (we were presumed dead) just drops the record from the set
    -- see :meth:`ClaimStore.heartbeat` for why that is safe.
    """

    def __init__(self, claims: ClaimStore) -> None:
        self.claims = claims
        self._held: dict[str, ClaimRecord] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def add(self, record: ClaimRecord) -> None:
        with self._lock:
            self._held[record.key] = record

    def remove(self, key: str) -> ClaimRecord | None:
        with self._lock:
            return self._held.pop(key, None)

    def __enter__(self) -> "_HeartbeatKeeper":
        self._thread = threading.Thread(
            target=self._loop, name="repro-claim-heartbeat", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.claims.lease_seconds)

    def _loop(self) -> None:
        interval = self.claims.lease_seconds / 3.0
        while not self._stop.wait(interval):
            with self._lock:
                records = list(self._held.values())
            for record in records:
                try:
                    refreshed = self.claims.heartbeat(record)
                except OSError:  # pragma: no cover - transient FS error: retry next beat
                    continue
                with self._lock:
                    if record.key in self._held:
                        if refreshed is None:
                            del self._held[record.key]
                        else:
                            self._held[record.key] = refreshed


def _in_worker_process() -> bool:
    return os.environ.get(WORKER_FLAG_ENV) == "1"


def _maybe_die(site_key: str, generation: int) -> None:
    """Consult the ``explore.claim`` kill site (distributed workers only)."""
    if _in_worker_process():
        faults.maybe_inject(faults.EXPLORE_CLAIM, site_key, generation)


def execute_coordinated(
    specs: list[ExperimentSpec],
    keys: list[str],
    *,
    cache: ResultCache,
    policy: RetryPolicy,
    point_workers: int = 0,
    registry=None,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    poll_interval: float = 0.05,
    worker: str | None = None,
    on_executed=None,
    on_cached=None,
) -> None:
    """Resolve a batch of cache misses cooperatively through claim files.

    For every position, exactly one of the two callbacks fires:

    * ``on_executed(position, outcome)`` -- this process claimed the point
      and executed it (the caller persists ``outcome.result`` to the cache
      *before* this function releases the claim, which is why release
      happens via the callback return);
    * ``on_cached(position, result)`` -- another worker executed the point
      and its entry appeared in the cache while we waited.

    The loop interleaves claiming and waiting: each pass tries to claim a
    chunk of unresolved points (up to the pool width), executes what it
    won, then re-scans -- points held by live workers resolve from the
    cache, points whose owner's lease lapsed are reaped and re-executed
    here.  Termination needs no global barrier: every unresolved point is
    either being executed by a live worker (its entry will appear) or has
    a reapable claim (we will execute it ourselves).
    """
    if on_executed is None or on_cached is None:
        raise ParameterError("execute_coordinated needs on_executed and on_cached callbacks")
    if len(specs) != len(keys):
        raise ParameterError("specs and keys must be index-aligned")
    claims = ClaimStore.for_cache(cache, worker=worker, lease_seconds=lease_seconds)
    pending: list[int] = list(range(len(specs)))
    width = max(1, point_workers)

    def resolve_from_cache(position: int) -> bool:
        key = keys[position]
        if key not in cache:
            return False
        result = cache.get(key)
        if result is None:
            # Corrupt entry, evicted on read: fall back to claiming.
            return False
        claims.cleanup_stale(key)
        on_cached(position, result)
        return True

    with _HeartbeatKeeper(claims) as keeper:
        while pending:
            batch: list[int] = []
            held: dict[int, ClaimRecord] = {}
            progressed = False
            for position in list(pending):
                if resolve_from_cache(position):
                    pending.remove(position)
                    progressed = True
                    continue
                if len(batch) >= width:
                    continue
                record = claims.acquire(keys[position])
                if record is None:
                    continue
                if resolve_from_cache(position):
                    # The entry landed between our cache check and our
                    # acquire: the previous owner caches *before* releasing,
                    # so a key whose claim we could win may already be done.
                    # Without this re-check we would re-execute it.
                    claims.release(record)
                    pending.remove(position)
                    progressed = True
                    continue
                # Fault site: a distributed worker dies right after
                # claiming, leaving a stale claim for the lease machinery
                # to reap.  Keyed on the cache key, gated on generation.
                _maybe_die(keys[position], record.generation)
                keeper.add(record)
                held[position] = record
                batch.append(position)

            if batch:
                progressed = True
                outcomes = execute_supervised(
                    [specs[position] for position in batch],
                    policy=policy,
                    point_workers=point_workers,
                    registry=registry,
                )
                for position, outcome in zip(batch, outcomes):
                    # The caller's callback caches the result; only then is
                    # the claim released, so a waiter can never acquire a
                    # released claim and find the entry missing.
                    on_executed(position, outcome)
                    # Fault site, second consult: the worker dies *after*
                    # the cache write but before releasing -- waiters must
                    # resolve from the cache and GC the leftover claim.
                    _maybe_die(f"{keys[position]}/release", held[position].generation)
                    record = keeper.remove(keys[position])
                    if record is not None:
                        claims.release(record)
                    pending.remove(position)

            if pending and not progressed:
                time.sleep(poll_interval)


@dataclass(frozen=True)
class WorkerReport:
    """One distributed worker's accounting, read back from its report file.

    ``executed`` counts the grid points this worker's engine ran;
    ``resolved_cached`` counts points it resolved from entries written by
    someone else (pre-existing or sibling workers); ``failed`` counts
    points that exhausted their retries inside this worker.  A worker
    that died (SIGKILL, chaos injection) leaves no report:
    ``survived=False`` and zeroed counters.
    """

    worker_index: int
    survived: bool
    exit_code: int | None
    executed: int = 0
    resolved_cached: int = 0
    failed: int = 0


@dataclass(frozen=True)
class DistributedRun:
    """The outcome of :func:`run_sweep_distributed`.

    Attributes
    ----------
    result:
        The merged :class:`~repro.explore.runner.SweepResult` -- produced
        by the parent's final coordinated pass, so it is a pure cache
        replay when the workers covered the grid and the crash-resume
        path otherwise.  Its :meth:`~repro.explore.runner.SweepResult.value_digest`
        equals a serial run's.
    workers:
        Per-worker accounting (dead workers report ``survived=False``).
    """

    result: object
    workers: tuple[WorkerReport, ...]

    @property
    def executed_by_workers(self) -> int:
        """Engine executions summed over surviving workers' reports."""
        return sum(report.executed for report in self.workers)

    @property
    def surviving_workers(self) -> int:
        return sum(1 for report in self.workers if report.survived)


def _worker_main(
    sweep_json: str,
    cache_dir: str,
    worker_index: int,
    report_path: str,
    lease_seconds: float,
    max_retries: int,
    backoff_base: float,
    poll_interval: float,
) -> None:
    """Entry point of one forked distributed worker process."""
    # Mark the process so the explore.claim kill site arms itself (and
    # propagates to any grandchildren this worker might fork).
    os.environ[WORKER_FLAG_ENV] = "1"
    from dataclasses import replace as dc_replace

    from repro.explore.runner import run_sweep
    from repro.explore.sweep import SweepSpec

    sweep = SweepSpec.from_json(sweep_json)
    # Each worker is its own parallelism unit: points execute in-process,
    # and the claim party provides the fan-out.
    if sweep.point_workers:
        sweep = dc_replace(sweep, point_workers=0)
    result = run_sweep(
        sweep,
        cache=ResultCache(cache_dir),
        coordinate=True,
        claim_lease_seconds=lease_seconds,
        claim_poll_interval=poll_interval,
        max_retries=max_retries,
        backoff_base=backoff_base,
        on_error="partial",
    )
    executed = sum(1 for point in result.points if not point.cached and point.ok)
    report = {
        "worker_index": worker_index,
        "executed": executed,
        "resolved_cached": result.cache_hits,
        "failed": result.failed,
    }
    # Atomic single write: a worker killed mid-run leaves no report at all,
    # never a torn one.
    handle, temp_name = tempfile.mkstemp(
        dir=os.path.dirname(report_path), prefix=".report-", suffix=".tmp"
    )
    with os.fdopen(handle, "w") as stream:
        stream.write(json.dumps(report))
    os.replace(temp_name, report_path)


def run_sweep_distributed(
    sweep,
    *,
    num_workers: int = 4,
    cache: ResultCache | None = None,
    registry=None,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    max_retries: int = 2,
    backoff_base: float = 0.05,
    poll_interval: float = 0.05,
    on_error: str = "partial",
    progress=None,
    stream=None,
) -> DistributedRun:
    """Execute a sweep with ``num_workers`` processes over one shared cache.

    Workers are forked, coordinate purely through claim files in the
    cache directory (see the module docstring for the protocol), and cache
    every completed point immediately.  The parent then runs a final
    coordinated pass over the same cache: with healthy workers that pass
    is a pure replay (``merged.result.cache_misses == 0``); if workers
    died it is the crash-resume path -- stale claims are reaped and the
    uncovered tail executes in the parent -- so the merge *always*
    completes the grid.  Leftover stale claims (workers killed between
    caching and releasing) are garbage-collected before merging.

    The merged result is bit-for-bit equal to a serial
    :func:`~repro.explore.runner.run_sweep` of the same sweep --
    ``value_digest()`` compares per-point specs, seeds, engines, values
    and errors, excluding only wall-clock and cache-accounting fields
    that legitimately differ between any two runs.

    Parameters mirror :func:`~repro.explore.runner.run_sweep` where they
    overlap; ``registry`` must be None (a custom registry cannot cross
    the fork), and worker processes execute their claimed points
    in-process (per-point parallelism comes from the worker count).
    """
    from repro.explore.runner import run_sweep
    from repro.explore.sweep import SweepSpec

    if not isinstance(sweep, SweepSpec):
        raise ParameterError(
            f"run_sweep_distributed() takes a SweepSpec, got {type(sweep).__name__}"
        )
    if registry is not None:
        raise ParameterError(
            "run_sweep_distributed cannot ship a custom registry to worker "
            "processes; pass registry=None or use run_sweep(coordinate=True)"
        )
    if not isinstance(num_workers, int) or isinstance(num_workers, bool) or num_workers < 1:
        raise ParameterError(f"num_workers must be a positive int, got {num_workers!r}")
    the_cache = cache if cache is not None else ResultCache()
    the_cache.directory.mkdir(parents=True, exist_ok=True)

    context = fork_context()
    sweep_json = sweep.to_json()
    reports_dir = Path(tempfile.mkdtemp(prefix="repro-dist-", dir=the_cache.directory))
    processes = []
    report_paths = []
    for index in range(num_workers):
        report_path = reports_dir / f"worker-{index}.json"
        report_paths.append(report_path)
        process = context.Process(
            target=_worker_main,
            args=(
                sweep_json,
                str(the_cache.directory),
                index,
                str(report_path),
                lease_seconds,
                max_retries,
                backoff_base,
                poll_interval,
            ),
            name=f"repro-dist-worker-{index}",
        )
        process.start()
        processes.append(process)

    reports = []
    for index, process in enumerate(processes):
        process.join()
        report_path = report_paths[index]
        if report_path.exists():
            data = json.loads(report_path.read_text())
            reports.append(
                WorkerReport(
                    worker_index=index,
                    survived=True,
                    exit_code=process.exitcode,
                    executed=data["executed"],
                    resolved_cached=data["resolved_cached"],
                    failed=data["failed"],
                )
            )
        else:
            reports.append(
                WorkerReport(worker_index=index, survived=False, exit_code=process.exitcode)
            )
    for report_path in report_paths:
        try:
            report_path.unlink()
        except OSError:
            pass
    try:
        reports_dir.rmdir()
    except OSError:  # pragma: no cover - a straggler file: leave the dir
        pass

    # Merge = one coordinated pass by the parent: pure replay when the
    # workers covered the grid, crash-resume (reap + execute the tail)
    # when they did not.  The parent is not flagged as a worker, so the
    # explore.claim kill site cannot fire here.
    merged = run_sweep(
        sweep,
        cache=the_cache,
        coordinate=True,
        claim_lease_seconds=lease_seconds,
        claim_poll_interval=poll_interval,
        max_retries=max_retries,
        backoff_base=backoff_base,
        on_error=on_error,
        progress=progress,
        stream=stream,
    )
    # GC any stale claims left by workers killed after caching a point.
    claims = ClaimStore.for_cache(the_cache, lease_seconds=lease_seconds)
    for point in merged.points:
        claims.cleanup_stale(point.cache_key)
    return DistributedRun(result=merged, workers=tuple(reports))
