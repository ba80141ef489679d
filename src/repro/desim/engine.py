"""Deterministic discrete-event simulation engine.

The machine simulator replays compiled circuits over the QLA array as a
sequence of timed events -- gate starts and completions, ancilla-factory
productions, EPR deliveries.  This module provides the engine underneath: a
heap-based event queue over an **integer cycle clock**, in the style
NetSquid-like quantum-network simulators use, with two hard guarantees:

* **Total, insertion-independent ordering.**  Events execute in ascending
  ``(time, priority, sequence)`` order.  Two events with distinct
  ``(time, priority)`` keys execute in key order no matter in which order they
  were scheduled; events with equal keys execute in the order they were
  scheduled (FIFO), which keeps a fixed program deterministic.
* **Seeded randomness.**  The engine owns a single :class:`numpy.random.Generator`
  derived from the same ``SeedSequence`` spawning discipline as
  :mod:`repro.parallel`, so an identically-seeded simulation produces a
  bit-identical event history (and therefore a bit-identical trace digest).

Times are integer cycles; the mapping from cycles to seconds belongs to the
machine model (:mod:`repro.desim.machine`), not to the engine.
"""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np

from repro.exceptions import DesimError
from repro.parallel import as_seed_sequence

__all__ = ["Event", "DiscreteEventSimulator"]


class Event:
    """One scheduled callback.

    Events order by ``(time, priority, seq)``; ``seq`` is the engine-assigned
    scheduling sequence number that makes the order total.  A cancelled event
    stays in the heap but is skipped when popped.
    """

    __slots__ = ("time", "priority", "seq", "callback", "cancelled")

    def __init__(self, time: int, priority: int, seq: int, callback: Callable[[], None]) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    @property
    def key(self) -> tuple[int, int, int]:
        """The total-order key of the event."""
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self.key < other.key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"Event(time={self.time}, priority={self.priority}, seq={self.seq}{state})"


class DiscreteEventSimulator:
    """Heap-based event queue with an integer cycle clock.

    Parameters
    ----------
    seed:
        Root entropy of the simulation's random generator (an int, a tuple of
        ints, or a ready :class:`numpy.random.SeedSequence`), spawned exactly
        like a one-shard plan of :mod:`repro.parallel`.  ``None`` draws fresh
        OS entropy -- fine for exploration, but a replayable run should pin it.
    """

    def __init__(
        self, seed: int | tuple[int, ...] | np.random.SeedSequence | None = None
    ) -> None:
        # Heap entries are ``(time, priority, seq, event)``: ``seq`` is
        # unique, so entries compare as plain int tuples, in event order.
        self._heap: list[tuple[int, int, int, Event]] = []
        self._now = 0
        self._seq = 0
        self._processed = 0
        # The root SeedSequence is retained so subsystems (the stochastic
        # link layer) can spawn their own independent generators on demand.
        # The engine's generator is child 0 -- exactly the stream the seeded
        # engine has always used, so existing trace digests are unchanged.
        self._root = np.random.SeedSequence() if seed is None else as_seed_sequence(seed)
        self.rng = np.random.default_rng(self._root.spawn(1)[0])

    def spawn_rng(self) -> np.random.Generator:
        """An independent generator derived from the simulation's root seed.

        Each call yields the next child of the root ``SeedSequence`` (the
        engine's own :attr:`rng` is child 0), so subsystems that consume
        randomness -- the stochastic link layer -- get streams that are
        reproducible for a fixed seed yet independent of the engine's, and
        of each other's, draw order.
        """
        return np.random.default_rng(self._root.spawn(1)[0])

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def events_pending(self) -> int:
        """Number of events still in the queue (cancelled ones included)."""
        return len(self._heap)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule_at(self, time: int, callback: Callable[[], None], priority: int = 0) -> Event:
        """Schedule ``callback`` to run at an absolute cycle.

        The time must be an integer not earlier than :attr:`now` -- the clock
        never runs backwards.
        """
        if not isinstance(time, (int, np.integer)):
            raise DesimError(f"event times are integer cycles, got {type(time).__name__}")
        time = int(time)
        if time < self._now:
            raise DesimError(f"cannot schedule at cycle {time}; the clock is already at {self._now}")
        priority = int(priority)
        event = Event(time, priority, self._seq, callback)
        heapq.heappush(self._heap, (time, priority, self._seq, event))
        self._seq += 1
        return event

    def schedule(self, delay: int, callback: Callable[[], None], priority: int = 0) -> Event:
        """Schedule ``callback`` to run ``delay`` cycles from now."""
        if not isinstance(delay, (int, np.integer)):
            raise DesimError(f"event delays are integer cycles, got {type(delay).__name__}")
        if delay < 0:
            raise DesimError(f"event delay cannot be negative, got {delay}")
        return self.schedule_at(self._now + int(delay), callback, priority)

    @staticmethod
    def cancel(event: Event) -> None:
        """Mark a scheduled event as cancelled (it will be skipped)."""
        event.cancelled = True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Execute the single next non-cancelled event; False when drained."""
        while self._heap:
            event = heapq.heappop(self._heap)[3]
            if event.cancelled:
                continue
            self._now = event.time
            self._processed += 1
            event.callback()
            return True
        return False

    def run(self, until: int | None = None) -> int:
        """Run events in order until the queue drains (or past ``until``).

        With ``until`` set, events strictly after that cycle stay queued and
        the clock is advanced to ``until`` exactly.  Returns the final clock.
        """
        if until is not None and until < self._now:
            raise DesimError(f"cannot run until cycle {until}; the clock is already at {self._now}")
        heap = self._heap
        while heap:
            time, _, _, event = heap[0]
            if event.cancelled:
                heapq.heappop(heap)
                continue
            if until is not None and time > until:
                self._now = until
                return self._now
            heapq.heappop(heap)
            self._now = time
            self._processed += 1
            event.callback()
        if until is not None:
            self._now = max(self._now, until)
        return self._now
