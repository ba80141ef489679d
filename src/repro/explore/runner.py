"""Execute a design-space sweep through :func:`repro.api.run`, via the result cache.

:func:`run_sweep` is to :class:`~repro.explore.sweep.SweepSpec` what
:func:`repro.api.run` is to a single spec.  For every grid point it:

1. resolves the engine the point's spec will execute on (a pure function of
   the spec -- see :func:`resolved_engine`),
2. computes the point's content address with
   :func:`~repro.explore.cache.cache_key`,
3. answers from the :class:`~repro.explore.cache.ResultCache` when the entry
   exists, and otherwise executes the point through :func:`repro.api.run`
   and stores the result.

Only the cache misses cost engine time: re-running an identical sweep
performs **zero** engine executions, and growing one axis computes only the
new points (per-point seeds depend on coordinates, not grid position).

:func:`stream_sweep` yields each point as it resolves, in the caller's
thread; :func:`run_sweep` drains the same pipeline to its result.

Execution is **fault-tolerant** (see :mod:`repro.explore.supervisor` and
``docs/robustness.md``): misses run under a supervised process pool (or
in-process with the same retry semantics), every finished point is cached
*immediately* -- so a crashed or interrupted sweep resumes from the cache
for free -- hung points are cancelled by a per-point timeout, failed
attempts are retried with bounded exponential backoff, and dead worker
pools are respawned.  A point that exhausts its retries degrades to a
structured :class:`SweepPointError` inside a *partial* result instead of
aborting the sweep; pass ``on_error="raise"`` to make any failure raise
:class:`SweepExecutionError` after the surviving points have been cached.

Like every worker knob in the library, the fan-out (and any retries) can
never change results, because each point's spec carries its own pinned
seed.  Results travel between processes as the same provenance JSON the
cache stores.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import closing
from dataclasses import dataclass, replace
from typing import Generator

from repro.api.results import RunResult
from repro.api.runner import resolved_engine
from repro.api.specs import ExperimentSpec
from repro.exceptions import ParameterError, QLAError
from repro.explore.analysis import pareto_front, point_row, tidy_rows
from repro.explore.cache import ResultCache, cache_key, put_or_warn
from repro.explore.distributed import check_lease_seconds, execute_coordinated
from repro.explore.supervisor import execute_supervised
from repro.explore.sweep import SweepPoint, SweepSpec
from repro.parallel import JobOutcome, RetryPolicy

# resolved_engine is re-exported here because cache keys embed its answer;
# the implementation lives next to run() in repro.api.runner so the dispatch
# rules and the cache addressing can never drift apart.
__all__ = [
    "SweepPointError",
    "SweepExecutionError",
    "SweepPointResult",
    "SweepResult",
    "SweepEvent",
    "SweepStream",
    "resolved_engine",
    "run_sweep",
    "stream_sweep",
]


def _json_coordinates(coordinates: dict[str, object]) -> dict[str, object]:
    """A point's coordinates as JSON values (tuple values become lists)."""
    return {
        path: list(value) if isinstance(value, tuple) else value
        for path, value in coordinates.items()
    }


class SweepExecutionError(QLAError):
    """Raised by ``on_error="raise"`` when any sweep point fails terminally.

    The partial :class:`SweepResult` -- every completed point included and
    already cached -- is attached as :attr:`result`, so strict callers can
    still inspect or persist what succeeded.
    """

    def __init__(self, message: str, result: "SweepResult") -> None:
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class SweepPointError:
    """Structured record of one grid point's terminal failure.

    Attributes
    ----------
    exception_type:
        Class name of the final exception (``"PointTimeoutError"``,
        ``"WorkerCrashError"``, ``"SimulationError"``, ...).
    message:
        The final exception's message.
    attempts:
        Executions charged to the point before giving up
        (``max_retries + 1`` when retries were exhausted).
    elapsed_seconds:
        Total wall-clock spent on the point across all attempts.
    """

    exception_type: str
    message: str
    attempts: int
    elapsed_seconds: float

    def to_dict(self) -> dict:
        """JSON-ready form (:meth:`from_dict` round-trips exactly)."""
        return {
            "exception_type": self.exception_type,
            "message": self.message,
            "attempts": self.attempts,
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_dict(cls, data: object) -> "SweepPointError":
        """Strictly rebuild a point error from a JSON mapping."""
        if not isinstance(data, dict):
            raise ParameterError(f"a point error must be a JSON object, got {type(data).__name__}")
        required = {"exception_type", "message", "attempts", "elapsed_seconds"}
        missing = sorted(required - set(data))
        if missing:
            raise ParameterError(f"point error is missing fields: {missing}")
        unknown = sorted(set(data) - required)
        if unknown:
            raise ParameterError(f"unknown point error fields: {unknown}")
        return cls(
            exception_type=data["exception_type"],
            message=data["message"],
            attempts=data["attempts"],
            elapsed_seconds=data["elapsed_seconds"],
        )


@dataclass(frozen=True)
class SweepPointResult:
    """One grid point's outcome, with its cache identity.

    Attributes
    ----------
    coordinates:
        The point's axis coordinates (axis path -> value).
    spec:
        The fully-bound per-point spec that ran (seed pinned).
    result:
        The provenance-carrying :class:`~repro.api.results.RunResult`, or
        ``None`` when the point failed terminally.
    cache_key:
        The point's content address (spec + library version + engine).
    cached:
        Whether the result was answered from the cache (True) or executed
        by an engine during this sweep (False).
    error:
        The structured :class:`SweepPointError` when the point exhausted
        its retries; ``None`` on success.
    attempts:
        Executions this sweep charged to the point (``0`` for cache hits).
    wall_time_seconds:
        Wall-clock this sweep spent executing the point, summed over every
        attempt (``0.0`` for cache hits) -- the column that makes slow
        grid regions visible without re-running anything.
    """

    coordinates: dict[str, object]
    spec: ExperimentSpec
    result: RunResult | None
    cache_key: str
    cached: bool
    error: SweepPointError | None = None
    attempts: int = 0
    wall_time_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the point carries a result (True) or a failure record."""
        return self.error is None

    def __post_init__(self) -> None:
        if (self.result is None) == (self.error is None):
            raise ParameterError(
                "a sweep point carries exactly one of a result or an error"
            )


@dataclass(frozen=True)
class SweepResult:
    """The outcome of one :func:`run_sweep` call (possibly partial).

    Attributes
    ----------
    sweep:
        Echo of the executed sweep description.
    points:
        One :class:`SweepPointResult` per grid point, in grid order --
        failed points included, carrying :class:`SweepPointError` records
        instead of results.
    cache_hits / cache_misses:
        How many points were answered from the cache versus handed to an
        engine; ``cache_misses`` counts execution *attempts were made for*
        (completed and failed alike).
    corrupt_evictions:
        Cache entries found corrupt (truncated JSON, foreign schema) and
        evicted during this sweep's reads; each one was recomputed.
    """

    sweep: SweepSpec
    points: tuple[SweepPointResult, ...]
    cache_hits: int
    cache_misses: int
    corrupt_evictions: int = 0

    @property
    def executed(self) -> int:
        """Points handed to an engine this sweep (== cache misses)."""
        return self.cache_misses

    @property
    def completed(self) -> int:
        """Points carrying a result (cache hits included)."""
        return sum(1 for point in self.points if point.ok)

    @property
    def failed(self) -> int:
        """Points that exhausted their retries and carry an error record."""
        return sum(1 for point in self.points if not point.ok)

    def failures(self) -> tuple[SweepPointResult, ...]:
        """The failed points, in grid order."""
        return tuple(point for point in self.points if not point.ok)

    def __len__(self) -> int:
        return len(self.points)

    def rows(self) -> list[dict]:
        """Tidy analysis rows -- one flat dictionary per grid point."""
        return tidy_rows(self)

    def to_dict(self) -> dict:
        """JSON-ready form: sweep echo, per-point results, cache counters."""
        return {
            "sweep": self.sweep.to_dict(),
            "points": [
                {
                    "coordinates": _json_coordinates(point.coordinates),
                    "cache_key": point.cache_key,
                    "cached": point.cached,
                    "result": None if point.result is None else point.result.to_dict(),
                    "error": None if point.error is None else point.error.to_dict(),
                    "attempts": point.attempts,
                    "wall_time_seconds": point.wall_time_seconds,
                }
                for point in self.points
            ],
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "corrupt_evictions": self.corrupt_evictions,
        }

    def to_json(self, indent: int | None = None) -> str:
        """Serialize the full sweep outcome (what ``repro-run`` prints)."""
        return json.dumps(self.to_dict(), indent=indent)

    def value_digest(self) -> str:
        """SHA-256 over the sweep's *value content* -- the bit-for-bit contract.

        Two runs of the same sweep are equivalent exactly when their value
        digests match: the digest covers every point's coordinates, cache
        key (itself a hash of the bound spec, library version and resolved
        engine), the full result payload, and any error's type and message
        -- everything that is a pure function of the sweep description.
        It deliberately excludes the fields that legitimately differ
        between two correct runs of identical work: wall-clock times,
        retry/attempt counts, and cache hit/miss accounting (whether a
        point was computed here or replayed from the cache does not change
        its value).

        This is the equality a claim party is held to: every member of N
        ``run_sweep(..., coordinate=True)`` processes on one cache returns
        a result whose ``value_digest()`` equals a serial
        ``run_sweep(...).value_digest()``, regardless of party size, claim
        interleaving, or crashed-and-reaped members.
        """
        payload = []
        for point in self.points:
            result_dict = None
            if point.result is not None:
                result_dict = point.result.to_dict()
                result_dict.pop("wall_time_seconds", None)
            error_dict = None
            if point.error is not None:
                error_dict = {
                    "exception_type": point.error.exception_type,
                    "message": point.error.message,
                }
            payload.append(
                {
                    "coordinates": _json_coordinates(point.coordinates),
                    "cache_key": point.cache_key,
                    "result": result_dict,
                    "error": error_dict,
                }
            )
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, data: object) -> "SweepResult":
        """Strictly rebuild a sweep result from a dictionary.

        Accepts the pre-1.4 schema too (no ``error`` / ``attempts`` /
        ``wall_time_seconds`` / ``corrupt_evictions`` fields): the new
        per-point fields default to a clean, instantaneous success.
        """
        if not isinstance(data, dict):
            raise ParameterError(f"a sweep result must be a JSON object, got {type(data).__name__}")
        required = {"sweep", "points", "cache_hits", "cache_misses"}
        missing = sorted(required - set(data))
        if missing:
            raise ParameterError(f"sweep result is missing fields: {missing}")
        unknown = sorted(set(data) - required - {"corrupt_evictions"})
        if unknown:
            raise ParameterError(f"unknown sweep result fields: {unknown}")
        sweep = SweepSpec.from_dict(data["sweep"])
        grid = {tuple(sorted(p.coordinates.items())): p for p in sweep.points()}
        point_keys = {"coordinates", "cache_key", "cached", "result",
                      "error", "attempts", "wall_time_seconds"}
        points = []
        for entry in data["points"]:
            if not isinstance(entry, dict):
                raise ParameterError(
                    f"a sweep result point must be a JSON object, got {type(entry).__name__}"
                )
            unknown = sorted(set(entry) - point_keys)
            if unknown:
                raise ParameterError(f"unknown sweep result point fields: {unknown}")
            coordinates = {
                path: tuple(value) if isinstance(value, list) else value
                for path, value in entry["coordinates"].items()
            }
            marker = tuple(sorted(coordinates.items()))
            if marker not in grid:
                raise ParameterError(
                    f"sweep result contains a point outside its own grid: {coordinates!r}"
                )
            result_data = entry.get("result")
            error_data = entry.get("error")
            result = None if result_data is None else RunResult.from_dict(result_data)
            error = None if error_data is None else SweepPointError.from_dict(error_data)
            points.append(
                SweepPointResult(
                    coordinates=coordinates,
                    spec=result.spec if result is not None else grid[marker].spec,
                    result=result,
                    cache_key=entry["cache_key"],
                    cached=entry["cached"],
                    error=error,
                    attempts=entry.get("attempts", 0),
                    wall_time_seconds=entry.get("wall_time_seconds", 0.0),
                )
            )
        return cls(
            sweep=sweep,
            points=tuple(points),
            cache_hits=data["cache_hits"],
            cache_misses=data["cache_misses"],
            corrupt_evictions=data.get("corrupt_evictions", 0),
        )

    @classmethod
    def from_json(cls, text: str) -> "SweepResult":
        """Parse a JSON document produced by :meth:`to_json`."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ParameterError(f"sweep result is not valid JSON: {error}") from error
        return cls.from_dict(data)


def run_sweep(sweep: SweepSpec, **options) -> SweepResult:
    """Execute a design-space sweep, answering from the cache where possible.

    Parameters
    ----------
    sweep:
        The sweep description; its grid, per-point seeds and cache keys are
        all pure functions of this object (plus the library version).
    cache:
        The result cache to consult and fill; defaults to a
        :class:`~repro.explore.cache.ResultCache` at the standard location
        (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``).  Every completed
        point is stored the moment it finishes, so an interrupted sweep
        resumes from the cache with only the unfinished tail re-executed.
    use_cache:
        Default True.  Set False to bypass caching entirely -- every point
        executes and nothing is read or written on disk.
    point_timeout:
        Per-point wall-clock budget in seconds (default None); a point that
        exceeds it is cancelled (its worker killed) and retried.  Requires
        pooled execution (``sweep.point_workers > 1``) -- an in-process
        point cannot be preempted.
    max_retries:
        Retries after each point's first attempt (default 2), with bounded
        exponential backoff (``backoff_base * 2**k``, capped at 5 s)
        between attempts.
    backoff_base:
        First retry delay in seconds (default 0.05; ``0`` disables the
        backoff wait).
    on_error:
        ``"partial"`` (default) records points that exhaust their retries
        as :class:`SweepPointError` entries inside a partial result;
        ``"raise"`` raises :class:`SweepExecutionError` instead -- after
        every surviving point has been executed and cached.
    coordinate:
        Default False.  Join this sweep's *claim party*: before executing a
        cache miss, atomically claim it through a claim file next to the
        cache entry (see :mod:`repro.explore.distributed`), skip points
        claimed by other live workers (their results are awaited from the
        cache), and reap claims whose lease lapsed.  N processes -- or N
        hosts sharing the cache directory -- each calling ``run_sweep``
        with ``coordinate=True`` collectively execute every point exactly
        once and each return the complete, identical result.  Requires
        ``use_cache=True``.
    claim_lease_seconds:
        Claim lease length under ``coordinate=True`` (default 30): a
        claimant silent for this long is presumed dead and its point is
        reaped.  Must be finite and positive.
    claim_poll_interval:
        How long a coordinating worker sleeps when every unresolved
        point is claimed by live peers (default 0.05 s).

    Returns
    -------
    SweepResult
        Per-point results in grid order plus exact hit/miss, failure and
        corrupt-eviction accounting; ``result.executed`` is the number of
        points handed to an engine.

    To watch the points land instead of waiting for the whole grid, iterate
    :func:`stream_sweep`, which takes the same keyword arguments.
    """
    return SweepStream(_sweep_events(sweep, **options)).result()


def _sweep_events(
    sweep: SweepSpec,
    *,
    cache: ResultCache | None = None,
    use_cache: bool = True,
    point_timeout: float | None = None,
    max_retries: int = 2,
    backoff_base: float = 0.05,
    on_error: str = "partial",
    coordinate: bool = False,
    claim_lease_seconds: float = 30.0,
    claim_poll_interval: float = 0.05,
) -> Generator[SweepEvent, None, SweepResult]:
    """The sweep itself: one :class:`SweepEvent` per point as it resolves.

    Cache hits resolve first, then executions (and, under ``coordinate``,
    points landed by peers) as they finish; every executed point is
    cached before it is yielded.  Returns the :class:`SweepResult` (see
    :func:`run_sweep` for the arguments).
    """
    if not isinstance(sweep, SweepSpec):
        raise ParameterError(f"run_sweep() takes a SweepSpec, got {type(sweep).__name__}")
    if on_error not in ("partial", "raise"):
        raise ParameterError(f"on_error must be 'partial' or 'raise', got {on_error!r}")
    if coordinate and not use_cache:
        raise ParameterError(
            "coordinate=True requires use_cache=True: claim files live next to "
            "the cache entries the workers coordinate over"
        )
    check_lease_seconds(claim_lease_seconds)
    policy = RetryPolicy(
        point_timeout=point_timeout, max_retries=max_retries, backoff_base=backoff_base
    )
    if point_timeout is not None and sweep.point_workers <= 1:
        raise ParameterError(
            "point_timeout requires pooled execution (sweep.point_workers > 1): "
            "an in-process point cannot be preempted"
        )
    the_cache: ResultCache | None = None
    if use_cache:
        the_cache = cache if cache is not None else ResultCache()
    evictions_before = the_cache.corrupt_evictions if the_cache is not None else 0

    points = sweep.points()
    keys = [
        cache_key(pt.spec, engine=resolved_engine(pt.spec)) for pt in points
    ]
    resolved: dict[int, SweepPointResult] = {}

    to_run: list[int] = []
    for index, (pt, key) in enumerate(zip(points, keys)):
        cached = the_cache.get(key) if the_cache is not None else None
        if cached is None:
            to_run.append(index)
            continue
        resolved[index] = _point_result(pt, key, cached)
        yield SweepEvent(index=index, total=len(points), point=resolved[index])

    if to_run:
        specs = [points[index].spec for index in to_run]
        if coordinate:
            resolutions = execute_coordinated(
                specs,
                [keys[index] for index in to_run],
                cache=the_cache,
                policy=policy,
                point_workers=sweep.point_workers,
                lease_seconds=claim_lease_seconds,
                poll_interval=claim_poll_interval,
            )
        else:
            resolutions = execute_supervised(
                specs, policy=policy, point_workers=sweep.point_workers
            )
        # Each point is cached the moment it finishes, so a crash of this
        # process loses nothing but the in-flight tail.  The claim loop
        # stores its own points: it must do so before releasing the claim.
        storing = the_cache is not None and not coordinate
        with closing(resolutions):
            for position, resolution in resolutions:
                index = to_run[position]
                if storing and resolution.ok:
                    storing = put_or_warn(the_cache, keys[index], resolution.result)
                resolved[index] = _point_result(points[index], keys[index], resolution)
                yield SweepEvent(index=index, total=len(points), point=resolved[index])

    point_results = tuple(resolved[index] for index in range(len(points)))
    result = SweepResult(
        sweep=sweep,
        points=point_results,
        cache_hits=sum(1 for p in point_results if p.cached),
        cache_misses=sum(1 for p in point_results if not p.cached),
        corrupt_evictions=(
            the_cache.corrupt_evictions - evictions_before if the_cache is not None else 0
        ),
    )
    if result.failed and on_error == "raise":
        worst = result.failures()[0]
        raise SweepExecutionError(
            f"{result.failed} of {len(result)} sweep points failed "
            f"(first: {worst.coordinates!r} -> {worst.error.exception_type}: "
            f"{worst.error.message}); completed points are cached",
            result,
        )
    return result


def _point_result(
    point: SweepPoint, key: str, resolution: JobOutcome | RunResult
) -> SweepPointResult:
    """A grid point's record: a cached result, or the outcome of executing it."""
    if isinstance(resolution, RunResult):
        return SweepPointResult(
            coordinates=point.coordinates,
            spec=resolution.spec,
            result=resolution,
            cache_key=key,
            cached=True,
        )
    error = None
    if not resolution.ok:
        error = SweepPointError(
            exception_type=type(resolution.error).__name__,
            message=str(resolution.error),
            attempts=resolution.attempts,
            elapsed_seconds=resolution.elapsed_seconds,
        )
    return SweepPointResult(
        coordinates=point.coordinates,
        spec=point.spec if error is not None else resolution.result.spec,
        result=resolution.result,
        cache_key=key,
        cached=False,
        error=error,
        attempts=resolution.attempts,
        wall_time_seconds=resolution.elapsed_seconds,
    )


@dataclass(frozen=True)
class SweepEvent:
    """One resolved grid point, streamed the moment it lands.

    Attributes
    ----------
    index / total:
        The point's grid position and the grid size -- points stream in
        *resolution* order (cache hits first, then executions as they
        finish), not grid order.
    point:
        The full :class:`SweepPointResult`.
    row:
        The point's tidy analysis row (:func:`~repro.explore.analysis.point_row`).
    pareto:
        The running Pareto front over every *successful* point streamed so
        far, as tidy rows -- filled when :func:`stream_sweep` was given
        objectives, ``()`` otherwise.  The final event's front is the
        sweep's front.
    """

    index: int
    total: int
    point: SweepPointResult
    row: dict | None = None
    pareto: tuple[dict, ...] = ()

    def to_dict(self) -> dict:
        """The JSON-ready progress record of the point.

        What the experiment service appends to a job's event log (``GET
        /v1/jobs/{id}/events``) and ``repro-run --stream`` prints: keys
        ``index``, ``total``, ``coordinates``, ``cache_key``, ``cached``,
        ``ok``, ``attempts``, ``wall_time_seconds`` and ``error``.
        """
        point = self.point
        return {
            "index": self.index,
            "total": self.total,
            "coordinates": _json_coordinates(point.coordinates),
            "cache_key": point.cache_key,
            "cached": point.cached,
            "ok": point.ok,
            "attempts": point.attempts,
            "wall_time_seconds": point.wall_time_seconds,
            "error": None if point.error is None else point.error.to_dict(),
        }


class SweepStream:
    """Consumer iterator over a sweep's points as they land.

    Produced by :func:`stream_sweep`.  The sweep runs in the consuming
    thread: each ``next()`` advances it to the next resolved point and
    returns its :class:`SweepEvent`, enriched with the point's tidy row
    and -- when objectives were given -- the running Pareto front.  After
    exhaustion, :meth:`result` returns the complete :class:`SweepResult`;
    an execution error propagates out of the iteration *and* out of
    :meth:`result`.

    The stream is also a context manager: leaving the ``with`` block --
    normally or by an exception -- closes it, which cancels the sweep at
    once (its worker processes are killed; already-resolved points are
    cached, so a cancelled sweep resumes from the cache like a crashed
    one).
    """

    def __init__(
        self, events: Generator[SweepEvent, None, SweepResult], minimize=(), maximize=()
    ) -> None:
        self._events = events
        self._minimize = tuple(minimize)
        self._maximize = tuple(maximize)
        self._rows: list[dict] = []
        self._result: SweepResult | None = None
        self._error: Exception | None = None
        self._closed = False

    def _advance(self) -> SweepEvent:
        """The next raw event; StopIteration once the sweep ended or was closed."""
        if self._error is not None:
            raise self._error
        if self._closed or self._result is not None:
            raise StopIteration
        try:
            return next(self._events)
        except StopIteration as end:
            self._result = end.value
            raise StopIteration from None
        except Exception as error:
            self._error = error
            raise

    def __iter__(self):
        return self

    def __next__(self) -> SweepEvent:
        event = self._advance()
        row = point_row(event.point)
        if event.point.ok:
            self._rows.append(row)
        front: tuple[dict, ...] = ()
        if self._minimize or self._maximize:
            front = tuple(
                pareto_front(self._rows, minimize=self._minimize, maximize=self._maximize)
            )
        return replace(event, row=row, pareto=front)

    def __enter__(self) -> "SweepStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Stop consuming; cancels the rest of the sweep at once."""
        self._closed = True
        self._events.close()

    def result(self) -> SweepResult:
        """The complete :class:`SweepResult`, running the rest of the sweep first."""
        try:
            while True:
                self._advance()
        except StopIteration:
            pass
        if self._result is None:
            raise SweepExecutionError(
                "sweep stream was closed before the sweep completed; "
                "resolved points are cached -- re-run to resume",
                result=None,  # type: ignore[arg-type]
            )
        return self._result


def stream_sweep(
    sweep: SweepSpec,
    *,
    minimize=(),
    maximize=(),
    **options,
) -> SweepStream:
    """Iterate a sweep's points as they land.

    The streaming counterpart of :func:`run_sweep` -- same keyword
    arguments (``cache``, ``coordinate``, ``max_retries``, ...), but
    instead of blocking until the grid is done it returns a
    :class:`SweepStream` yielding one :class:`SweepEvent` per resolved
    point, each carrying the point's tidy row and, when ``minimize`` /
    ``maximize`` objectives are given, the running Pareto front over the
    points so far (the design-space picture *while it fills in*).  The
    sweep advances only while the stream is iterated (or drained by
    :meth:`SweepStream.result`).

    >>> with stream_sweep(sweep, minimize=("makespan_seconds",)) as events:
    ...     for event in events:
    ...         redraw(event.pareto)          # doctest: +SKIP
    ...     result = events.result()

    Works composed with distribution: a worker fleet fills the shared
    cache while a ``coordinate=True`` stream yields every point exactly
    once, whether executed locally or landed by a peer.
    """
    return SweepStream(_sweep_events(sweep, **options), minimize, maximize)
