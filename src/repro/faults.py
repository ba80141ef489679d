"""Deterministic, seed-controlled fault injection for robustness testing.

The recovery machinery of the library (the supervised worker pool of
:mod:`repro.parallel` with retry, backoff and per-point timeouts, and
crash-resume from the result cache -- see ``docs/robustness.md``) is
only trustworthy if its invariants can be *proved* under failure.  This
module is the tool that makes failure reproducible: every injection
decision is a pure function of ``(profile seed, site, key)``, so a faulted
run can be replayed bit for bit, and a test can predict exactly which
sweep points will crash, hang, fail transiently, or find their cache entry
corrupted.

Fault **sites** are the places the library consults the harness:

================== ====================================================
:data:`WORKER_CRASH`    SIGKILL the pool worker executing a supervised job
                        -- a sweep point or a Monte-Carlo shard
                        (exercises ``BrokenProcessPool`` recovery).
:data:`WORKER_HANG`     sleep :attr:`FaultProfile.hang_seconds` inside the
                        worker before executing (exercises per-point
                        timeouts).
:data:`POINT_TRANSIENT` raise :class:`InjectedFault` from point execution
                        (exercises retry with backoff).
:data:`CACHE_CORRUPT`   truncate a result-cache entry just after it is
                        written (exercises corruption-tolerant reads and
                        ``corrupt_evictions`` accounting).
:data:`KERNEL_NATIVE`   report the compiled-C fused kernel tier as
                        unavailable (exercises the pure-numpy fallback
                        path).
:data:`SERVICE_WORKER`  kill a service worker's job execution mid-job
                        (exercises the durable queue's attempt
                        accounting and requeue-on-crash recovery).
:data:`SERVICE_STORE`   fail the job store's terminal result write
                        (exercises the worker's retry of a computed but
                        uncommitted job).
:data:`DESIM_LINK`      degrade selected stochastic-interconnect
                        transfers with forced extra failed EPR
                        generation attempts (exercises the link layer's
                        stall accounting; never raises, and inert for
                        deterministic link configurations).
:data:`EXPLORE_CLAIM`   SIGKILL a coordinated sweep process right after
                        it writes a claim file (exercises stale-lease
                        reaping and crash-resume of the shared-cache
                        claim protocol -- see
                        :mod:`repro.explore.distributed`; only consulted
                        in processes flagged expendable, which only the
                        test harness does).
================== ====================================================

A :class:`FaultProfile` holds one rate per site plus the shared knobs.  A
profile activates in one of two ways:

* the ``REPRO_FAULTS`` environment variable -- either a named preset
  (``REPRO_FAULTS=chaos``) or a ``key=value`` spec
  (``REPRO_FAULTS="transient=1.0,fail_attempts=-1,seed=3"``).  The
  environment propagates to forked pool workers automatically, which is
  what lets a profile SIGKILL a worker from inside.
* programmatically, via :func:`set_profile` / the :func:`fault_profile`
  context manager.  A programmatic setting (including ``None``) always
  beats the environment; :func:`no_faults` is the idiom tests use to pin
  the no-fault contract while a chaos profile is active in CI.

Determinism::

    >>> from repro.faults import FaultProfile, should_fire
    >>> profile = FaultProfile(seed=7, transient=0.5)
    >>> first = should_fire("point.transient", "deadbeef", profile=profile)
    >>> first == should_fire("point.transient", "deadbeef", profile=profile)
    True
    >>> FaultProfile.parse("transient=0.5,seed=7") == profile
    True

``fail_attempts`` bounds *which attempts* of a selected key fire: the
default ``1`` makes a selected point fail only on its first attempt (so a
single retry recovers it); ``-1`` means every attempt fails (a permanent
fault, for testing retry exhaustion and nonzero CLI exits).
"""

from __future__ import annotations

import hashlib
import logging
import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

from repro.exceptions import ParameterError

__all__ = [
    "FAULTS_ENV",
    "WORKER_CRASH",
    "WORKER_HANG",
    "POINT_TRANSIENT",
    "CACHE_CORRUPT",
    "KERNEL_NATIVE",
    "SERVICE_WORKER",
    "SERVICE_STORE",
    "DESIM_LINK",
    "EXPLORE_CLAIM",
    "SITES",
    "PROFILES",
    "InjectedFault",
    "FaultProfile",
    "active_profile",
    "profile_override",
    "set_profile",
    "fault_profile",
    "no_faults",
    "fault_key",
    "should_fire",
    "maybe_inject",
]

#: Environment variable activating a fault profile (preset name or spec).
FAULTS_ENV = "REPRO_FAULTS"

_LOG = logging.getLogger("repro")

WORKER_CRASH = "worker.crash"
WORKER_HANG = "worker.hang"
POINT_TRANSIENT = "point.transient"
CACHE_CORRUPT = "cache.corrupt"
KERNEL_NATIVE = "kernel.native"
SERVICE_WORKER = "service.worker"
SERVICE_STORE = "service.store"
DESIM_LINK = "desim.link"
EXPLORE_CLAIM = "explore.claim"

#: Fault site -> the :class:`FaultProfile` rate field that controls it.
SITES: dict[str, str] = {
    WORKER_CRASH: "crash",
    WORKER_HANG: "hang",
    POINT_TRANSIENT: "transient",
    CACHE_CORRUPT: "corrupt",
    KERNEL_NATIVE: "kernel",
    SERVICE_WORKER: "service",
    SERVICE_STORE: "store",
    DESIM_LINK: "link",
    EXPLORE_CLAIM: "claim",
}


class InjectedFault(RuntimeError):
    """An artificial failure raised by the fault-injection harness.

    Deliberately *not* a :class:`~repro.exceptions.QLAError`: an injected
    fault models an arbitrary runtime failure (OOM, a flaky dependency, a
    cosmic ray), and the recovery machinery must not need to know it came
    from the harness.
    """


@dataclass(frozen=True)
class FaultProfile:
    """One deterministic fault-injection configuration.

    Attributes
    ----------
    seed:
        Root of every injection decision; two runs with the same profile
        make identical decisions at every site.
    crash / hang / transient / corrupt / kernel / service / store / link / claim:
        Per-site selection rates in ``[0, 1]``: the fraction of keys each
        site fires for.  Selection is by key hash, so the *same* keys are
        selected on every run.  ``service`` and ``store`` drive the
        experiment service's sites (worker death mid-job, job-store
        result-write failure -- see :mod:`repro.service`); ``link``
        drives the stochastic interconnect's degradation site
        (:mod:`repro.desim.links`); ``claim`` kills flagged coordinated
        sweep processes right after they claim a grid point
        (:mod:`repro.explore.distributed` -- the ``attempt`` passed to
        the site is the claim's reap *generation*, so under the default
        ``fail_attempts=1`` only the first claimant of a selected point
        dies and the reaping worker survives).
    fail_attempts:
        How many leading attempts of a selected key fire: ``1`` (default)
        fails only the first attempt, so one retry recovers; ``-1`` fails
        every attempt (a permanent fault).  Ignored by sites with no
        attempt notion (cache corruption, kernel availability).
    hang_seconds:
        How long :data:`WORKER_HANG` sleeps before the point proceeds.
    """

    seed: int = 0
    crash: float = 0.0
    hang: float = 0.0
    transient: float = 0.0
    corrupt: float = 0.0
    kernel: float = 0.0
    service: float = 0.0
    store: float = 0.0
    link: float = 0.0
    claim: float = 0.0
    fail_attempts: int = 1
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ParameterError(f"fault profile seed must be a non-negative int, got {self.seed!r}")
        for name in ("crash", "hang", "transient", "corrupt", "kernel", "service", "store", "link", "claim"):
            rate = getattr(self, name)
            if not isinstance(rate, (int, float)) or isinstance(rate, bool) or not 0.0 <= rate <= 1.0:
                raise ParameterError(f"fault rate {name!r} must be in [0, 1], got {rate!r}")
        if not isinstance(self.fail_attempts, int) or isinstance(self.fail_attempts, bool) or self.fail_attempts < -1 or self.fail_attempts == 0:
            raise ParameterError(
                f"fail_attempts must be a positive int or -1 (every attempt), got {self.fail_attempts!r}"
            )
        if not isinstance(self.hang_seconds, (int, float)) or self.hang_seconds < 0:
            raise ParameterError(f"hang_seconds must be non-negative, got {self.hang_seconds!r}")

    @classmethod
    def parse(cls, text: str) -> "FaultProfile":
        """Build a profile from a ``REPRO_FAULTS`` value.

        The value is either a preset name from :data:`PROFILES`
        (``"chaos"``) or a comma-separated ``key=value`` spec over the
        profile's fields (``"crash=1.0,fail_attempts=1,seed=7"``).
        Unknown keys and malformed values raise
        :class:`~repro.exceptions.ParameterError`.
        """
        if not isinstance(text, str) or not text.strip():
            raise ParameterError(f"a fault profile spec must be a non-empty string, got {text!r}")
        text = text.strip()
        if text in PROFILES:
            return PROFILES[text]
        known = {spec_field.name: spec_field for spec_field in fields(cls)}
        values: dict[str, object] = {}
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ParameterError(
                    f"bad fault profile item {item!r}; expected key=value or a "
                    f"preset name from {sorted(PROFILES)}"
                )
            key, _, raw = item.partition("=")
            key = key.strip()
            if key not in known:
                raise ParameterError(
                    f"unknown fault profile field {key!r}; expected one of {sorted(known)}"
                )
            try:
                if key in ("seed", "fail_attempts"):
                    values[key] = int(raw)
                else:
                    values[key] = float(raw)
            except ValueError:
                raise ParameterError(f"bad value for fault profile field {key!r}: {raw!r}") from None
        return cls(**values)

    def to_spec(self) -> str:
        """The profile as a ``key=value`` string :meth:`parse` round-trips."""
        parts = []
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if value != spec_field.default:
                parts.append(f"{spec_field.name}={value}")
        return ",".join(parts) or f"seed={self.seed}"

    def with_(self, **changes) -> "FaultProfile":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **changes)


#: Named presets usable directly as ``REPRO_FAULTS`` values.
PROFILES: dict[str, FaultProfile] = {
    # The CI chaos gate: a quarter of sweep points fail transiently on
    # their first attempt (one retry recovers them), a quarter of cache
    # writes are torn (the corruption-tolerant reader recomputes them),
    # a quarter of service jobs lose their worker mid-job and a quarter
    # lose their first terminal job-store write (the durable queue must
    # requeue and converge in both cases), and a quarter of stochastic
    # interconnect transfers absorb forced extra failed generation
    # attempts (the link layer degrades deterministically, never crashes),
    # and a quarter of flagged coordinated sweep processes die right after
    # claiming a point (stale-lease reaping must recover the claim exactly
    # once).
    "chaos": FaultProfile(
        seed=20050, transient=0.25, corrupt=0.25, service=0.25, store=0.25,
        link=0.25, claim=0.25, fail_attempts=1,
    ),
    # Every point's first worker attempt is SIGKILLed: the supervised pool
    # must respawn and retry everything exactly once.
    "crashy": FaultProfile(seed=20051, crash=1.0, fail_attempts=1),
    # Every attempt of every point fails: retries exhaust, the sweep
    # degrades to a fully-failed partial result and repro-run exits nonzero.
    "permafail": FaultProfile(seed=20052, transient=1.0, fail_attempts=-1),
}


_UNSET = object()
_override: object = _UNSET


def set_profile(profile: FaultProfile | None) -> None:
    """Install a process-wide profile override (``None`` disables faults).

    The override beats the ``REPRO_FAULTS`` environment until
    :func:`clear_profile` restores environment control.  Forked pool
    workers inherit the override that was in effect when they spawned.
    """
    global _override
    if profile is not None and not isinstance(profile, FaultProfile):
        raise ParameterError(f"set_profile takes a FaultProfile or None, got {type(profile).__name__}")
    _override = profile


def clear_profile() -> None:
    """Drop any programmatic override; ``REPRO_FAULTS`` applies again."""
    global _override
    _override = _UNSET


@contextmanager
def fault_profile(profile: FaultProfile | None):
    """Context manager form of :func:`set_profile` (restores on exit)."""
    global _override
    previous = _override
    set_profile(profile)
    try:
        yield profile
    finally:
        _override = previous


def no_faults():
    """Disable fault injection inside the ``with`` block.

    The idiom for tests that pin exact no-fault accounting (cache
    hit/miss counts, zero-execution replays) while a chaos profile is
    active in the environment.
    """
    return fault_profile(None)


def active_profile() -> FaultProfile | None:
    """The profile in effect: programmatic override, else ``REPRO_FAULTS``."""
    if _override is not _UNSET:
        return _override  # type: ignore[return-value]
    text = os.environ.get(FAULTS_ENV)
    if not text or not text.strip():
        return None
    return _parse_cached(text)


def profile_override() -> object:
    """The programmatic override in effect, as a hashable cache-key part.

    A :class:`FaultProfile`, or None inside :func:`no_faults`; a fixed
    sentinel while ``REPRO_FAULTS`` decides.  With the raw ``REPRO_FAULTS``
    value it determines :func:`active_profile`.
    """
    return _override


_PARSE_CACHE: dict[str, FaultProfile] = {}


def _parse_cached(text: str) -> FaultProfile:
    profile = _PARSE_CACHE.get(text)
    if profile is None:
        profile = FaultProfile.parse(text)
        _PARSE_CACHE[text] = profile
    return profile


def fault_key(text: str) -> str:
    """A stable injection key for arbitrary text (hex SHA-256).

    Sweep points key their faults on the canonical JSON of their
    fully-bound spec, so the *same* points are selected in every process
    and on every run.
    """
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _draw(seed: int, site: str, key: str) -> float:
    digest = hashlib.sha256(f"{seed}:{site}:{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def should_fire(
    site: str, key: str, attempt: int = 0, *, profile: FaultProfile | None = None
) -> bool:
    """Whether ``site`` fires for ``key`` on the given attempt.

    Pure and deterministic: the decision hashes ``(seed, site, key)`` into
    a uniform variate compared against the site's rate, then gates on
    ``attempt < fail_attempts``.  Passing ``profile`` pins the decision to
    that profile; otherwise :func:`active_profile` is consulted (and
    ``False`` is returned when no profile is active).
    """
    if site not in SITES:
        raise ParameterError(f"unknown fault site {site!r}; expected one of {sorted(SITES)}")
    the_profile = profile if profile is not None else active_profile()
    if the_profile is None:
        return False
    rate = getattr(the_profile, SITES[site])
    if rate <= 0.0:
        return False
    if the_profile.fail_attempts >= 0 and attempt >= the_profile.fail_attempts:
        return False
    return _draw(the_profile.seed, site, key) < rate


def maybe_inject(site: str, key: str, attempt: int = 0) -> None:
    """Perform the ``site`` fault for ``key`` if the active profile selects it.

    * :data:`WORKER_CRASH` / :data:`EXPLORE_CLAIM` -- SIGKILL the calling
      process (only reachable from pool worker processes and from
      coordinated sweep processes flagged expendable, respectively; the
      in-process execution path never consults either site).
    * :data:`WORKER_HANG` -- sleep :attr:`FaultProfile.hang_seconds`, then
      return (the point proceeds; a per-point timeout is what kills it).
    * every other site -- raise :class:`InjectedFault`.

    No-op when no profile is active or the decision does not fire.  A
    fault that fires is logged at WARNING on the ``repro`` logger first.
    """
    profile = active_profile()
    if profile is None or not should_fire(site, key, attempt, profile=profile):
        return
    _LOG.warning("injecting %s fault (key=%s..., attempt=%d)", site, key[:12], attempt)
    if site in (WORKER_CRASH, EXPLORE_CLAIM):
        os.kill(os.getpid(), signal.SIGKILL)
    if site == WORKER_HANG:
        time.sleep(profile.hang_seconds)
        return
    raise InjectedFault(
        f"injected {site} fault (key={key[:12]}..., attempt={attempt})"
    )
