"""Content-addressed on-disk cache for experiment results.

Every executed :class:`~repro.api.results.RunResult` can be stored under a
key that is a pure function of *what was computed*:

    key = SHA-256(canonical spec JSON + library version + engine name)

The canonical spec JSON is the sorted-key, compact rendering of
:meth:`ExperimentSpec.to_dict`, which includes the materialized seed -- so a
key names one exact, bit-reproducible computation.  The library version is
baked in because engine results are only guaranteed bit-stable within a
version (see the cross-version note in ``docs/migration.md``); bumping the
version therefore invalidates every cached entry automatically, with no
stamp files or TTLs.  The resolved engine name is included for the same
reason: a spec requesting ``backend="auto"`` is only reproducible together
with the engine it resolved to.

The cache directory defaults to ``~/.cache/repro`` and is overridden by the
``REPRO_CACHE_DIR`` environment variable.  Entries are one JSON file per key
(two-character fan-out subdirectories), written atomically via a temporary
file and :func:`os.replace`, so a crashed writer can never leave a torn
entry under the final name.  Reads are corruption-tolerant: a truncated or
otherwise unreadable entry counts as a miss (and is removed), never an
error -- the caller recomputes and overwrites it.

Determinism of the key::

    >>> from repro.api import ExperimentSpec, NoiseSpec, SamplingSpec
    >>> spec = ExperimentSpec(
    ...     experiment="syndrome_rate",
    ...     noise=NoiseSpec(kind="technology"),
    ...     sampling=SamplingSpec(shots=0, seed=1),
    ... )
    >>> cache_key(spec, engine="none", version="1.3.0") == cache_key(
    ...     spec, engine="none", version="1.3.0")
    True
    >>> cache_key(spec, engine="none", version="1.3.0") == cache_key(
    ...     spec, engine="none", version="9.9.9")
    False
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import threading
import warnings
from pathlib import Path

from repro import faults
from repro.api.results import RunResult
from repro.api.specs import ExperimentSpec
from repro.exceptions import ParameterError

__all__ = ["CACHE_DIR_ENV", "default_cache_dir", "cache_key", "ResultCache", "put_or_warn"]

#: Environment variable overriding the cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


def cache_key(spec: ExperimentSpec, *, engine: str, version: str | None = None) -> str:
    """The content address of one experiment execution.

    Parameters
    ----------
    spec:
        The fully-bound spec (seed included) that runs.
    engine:
        The concrete engine the spec resolves to (the
        ``RunResult.engine`` the run will record) -- ``"auto"`` requests are
        keyed by their resolution, not the request.
    version:
        Library version to key under; defaults to the running
        ``repro.__version__``.  A version bump changes every key, which is
        the cache's invalidation rule.
    """
    if version is None:
        import repro

        version = repro.__version__
    payload = {
        "spec": spec.to_dict(),
        "engine": engine,
        "library_version": version,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """Content-addressed store of :class:`~repro.api.results.RunResult` JSON.

    Parameters
    ----------
    directory:
        Cache root; defaults to :func:`default_cache_dir`.  Created lazily on
        the first store, so constructing a cache never touches the disk.

    Attributes
    ----------
    hits / misses / stores:
        Monotone counters of this instance's traffic (a corrupt or
        unreadable entry counts as a miss).  Counter updates are guarded
        by a lock, so one cache instance can be shared by the experiment
        service's worker loop and HTTP threads without losing counts.
    corrupt_evictions:
        How many entries were found corrupt on read (truncated JSON,
        foreign schema) and evicted; each such read also counts as a miss.
        Surfaced per-sweep as ``SweepResult.corrupt_evictions`` -- a
        nonzero value on healthy storage usually means a torn write from a
        crashed process, which the next read heals automatically.
    """

    def __init__(self, directory: str | os.PathLike | None = None) -> None:
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt_evictions = 0
        # Counter updates must be atomic: the service shares one cache
        # instance between its worker loop and every HTTP thread, and a
        # bare `+=` under concurrency silently drops increments.
        self._counter_lock = threading.Lock()

    def path_for(self, key: str) -> Path:
        """Where the entry for ``key`` lives (two-character fan-out)."""
        if not isinstance(key, str) or len(key) < 3:
            raise ParameterError(f"a cache key must be a hex digest, got {key!r}")
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> RunResult | None:
        """The cached result for ``key``, or None on a miss.

        A missing file is a plain miss.  An unreadable file -- truncated
        JSON, a foreign schema, a permission error -- is also a miss: the
        corrupt entry is deleted (best effort) so the recomputed result can
        take its place, and the caller never sees an exception.
        """
        path = self.path_for(key)
        try:
            text = path.read_text()
        except OSError:
            with self._counter_lock:
                self.misses += 1
            return None
        try:
            result = RunResult.from_json(text)
        except (ParameterError, KeyError, TypeError, ValueError):
            # Torn write from a crashed process, or an entry written by an
            # incompatible tool (valid JSON, foreign value schema -- those
            # surface as KeyError/TypeError/ValueError from the value
            # reconstruction): recompute rather than crash.
            try:
                path.unlink()
            except OSError:
                pass
            with self._counter_lock:
                self.misses += 1
                self.corrupt_evictions += 1
            return None
        with self._counter_lock:
            self.hits += 1
        return result

    def put(self, key: str, result: RunResult) -> Path:
        """Store ``result`` under ``key`` atomically and return its path.

        The JSON is written to a temporary file in the destination directory
        and moved into place with :func:`os.replace`, so concurrent writers
        and crashes can only ever race complete entries.
        """
        if not isinstance(result, RunResult):
            raise ParameterError(f"can only cache RunResult values, got {type(result).__name__}")
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, temp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w") as stream:
                stream.write(result.to_json())
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        with self._counter_lock:
            self.stores += 1
        if faults.should_fire(faults.CACHE_CORRUPT, key):
            # Fault injection (REPRO_FAULTS / repro.faults): truncate the
            # entry we just committed, simulating a torn write that survived
            # the atomic rename -- e.g. a power loss after replace but before
            # the data blocks hit disk.  The next get() must evict and heal.
            path.write_text(result.to_json()[: max(1, len(result.to_json()) // 3)])
        return path

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def __len__(self) -> int:
        """Entries currently on disk under this cache root."""
        if not self.directory.exists():
            return 0
        return sum(1 for _ in self.directory.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry under the cache root; returns the count removed."""
        removed = 0
        if not self.directory.exists():
            return removed
        for entry in self.directory.glob("*/*.json"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    @property
    def stats(self) -> dict[str, int]:
        """A consistent snapshot of this instance's traffic counters."""
        with self._counter_lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "corrupt_evictions": self.corrupt_evictions,
            }


def put_or_warn(cache: ResultCache, key: str, result: RunResult) -> bool:
    """Store a finished sweep point; an unwritable cache warns and returns False.

    An unwritable cache (read-only ``REPRO_CACHE_DIR``, full disk) must not
    discard a finished sweep: the caller keeps its uncached results and
    stops storing after the first False, so a sweep warns once.
    """
    try:
        cache.put(key, result)
    except OSError as error:
        message = (
            f"result cache at {cache.directory} is not writable "
            f"({error}); sweep results were computed but not cached"
        )
        logging.getLogger("repro").warning("%s", message)
        warnings.warn(message, RuntimeWarning, stacklevel=2)
        return False
    return True
