"""Stochastic interconnect links: heralded EPR generation, purification, repeaters.

The deterministic machine replay treats every EPR transfer the greedy
Section 5 scheduler places as a guaranteed delivery at the start of its
served window.  This module is the physical-realism layer underneath that
abstraction: a :class:`LinkModel` realizes each scheduled transfer as a
pipeline of *heralded generation attempts* (success probability per
attempt), *entanglement-pumping purification rounds* (the Bennett/Deutsch
maps of :mod:`repro.teleport.purification`, retried from scratch when a
round fails) and *entanglement swapping* over the route's channel segments
(the Figure 8 repeater arrangement, optionally subdivided further for
multi-chip arrays).  Every delivered pair carries a Werner fidelity
degraded by channel transport (:func:`~repro.teleport.epr.werner_fidelity_after_depolarizing`)
and by memory wait while sibling segments catch up.

Determinism contract
--------------------
All randomness comes from **one** generator spawned from the simulator's
root :class:`~numpy.random.SeedSequence`, consumed in a fixed order (see
:meth:`LinkModel.realize`), so the trace digest remains a bit-exact
determinism fingerprint of ``(spec, seed)``.  A :attr:`LinkParameters.is_deterministic`
configuration (success probability 1, base fidelity 1, no channel or
memory error) short-circuits the whole pipeline: the replay takes the
original scheduled-delivery path, consumes no randomness and emits no link
events, so its trace digest is **bit-identical** to the pre-link simulator.

Timing model
------------
Cycle costs default to the machine's own quantities (a ``0`` in
:class:`LinkParameters` means "derive from the machine"): one generation
attempt occupies a channel lane for one transfer slot
(``MachineTimings.transfer_cycles`` -- the elementary pair halves are
shuttled through the same lane a deterministic transfer would use), one
purification round streams a fresh sacrificial pair (another lane slot)
plus a local two-qubit purification operation, and one swapping level
costs a two-qubit Bell measurement.  Under the tight Figure 9 channel
policy (one transfer per lane per window) each purification round
therefore consumes a full bandwidth window -- exactly why makespan grows
as the base fidelity falls below the purification threshold.

The fault-injection site :data:`~repro.faults.DESIM_LINK` degrades
selected transfers deterministically (forced extra failed generation
attempts); it only applies in stochastic mode and never raises, so a
chaos profile perturbs link accounting without crashing a replay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import faults
from repro.desim.engine import DiscreteEventSimulator
from repro.exceptions import DesimError
from repro.teleport.epr import werner_fidelity_after_depolarizing
from repro.teleport.purification import (
    bennett_purification_map,
    deutsch_purification_map,
    pumping_fixpoint_fidelity,
    purification_rounds_needed,
)
from repro.teleport.repeater import ConnectionTimeModel, RepeaterChain

__all__ = [
    "PURIFICATION_PROTOCOLS",
    "LinkParameters",
    "LinkActivity",
    "LinkModel",
    "ConnectionSimReport",
    "simulate_connection",
]

#: Purification protocols a link may pump with.
PURIFICATION_PROTOCOLS = ("bennett", "deutsch")

#: Forced failed generation attempts charged to a fault-selected transfer.
_FAULT_EXTRA_ATTEMPTS = 4

#: Safety cap on pumping restarts per segment (a restart happens when a
#: purification round fails); any physical regime converges in a handful.
_MAX_RESTARTS = 100_000


def _purify_map(protocol: str):
    return bennett_purification_map if protocol == "bennett" else deutsch_purification_map


def _swap_fold(fidelities: list[float]) -> float:
    """End-to-end fidelity of swapping the segments' pairs together, in order."""
    delivered = fidelities[0]
    for fidelity in fidelities[1:]:
        delivered = delivered * fidelity + (1.0 - delivered) * (1.0 - fidelity) / 3.0
    return float(delivered)


@dataclass(frozen=True)
class LinkParameters:
    """Physical configuration of the interconnect's EPR links.

    Attributes
    ----------
    attempt_success_probability:
        Probability that one heralded generation attempt yields a pair.
    base_fidelity:
        Werner fidelity of a freshly generated pair, before transport.
    target_fidelity:
        Fidelity each channel segment's pair is pumped to before swapping
        (no purification happens when the elementary fidelity already
        meets it).
    purification_protocol:
        ``"bennett"`` (the paper's choice) or ``"deutsch"``.
    repeater_segments:
        Repeater segments per route hop.  ``1`` is the on-chip Figure 8
        arrangement (one segment per inter-island channel); larger values
        model subdivided long links, e.g. the photonic interconnect
        between the dies of a :class:`~repro.layout.multichip.MultiChipPartition`.
    channel_error_per_hop:
        Depolarizing probability one hop of transport inflicts on a pair,
        split evenly over the hop's repeater segments.
    memory_decay_per_cycle:
        Depolarizing probability per cycle a finished pair waits in memory
        for its sibling segments.
    attempt_cycles / purify_cycles / swap_cycles:
        Cycle costs of one generation attempt, one purification operation
        and one swapping level; ``0`` (the default) derives them from the
        machine timings (lane transfer slot / two-qubit gate -- see the
        module docstring).
    """

    attempt_success_probability: float = 1.0
    base_fidelity: float = 1.0
    target_fidelity: float = 1.0
    purification_protocol: str = "bennett"
    repeater_segments: int = 1
    channel_error_per_hop: float = 0.0
    memory_decay_per_cycle: float = 0.0
    attempt_cycles: int = 0
    purify_cycles: int = 0
    swap_cycles: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.attempt_success_probability <= 1.0:
            raise DesimError(
                f"attempt success probability must be in (0, 1], got {self.attempt_success_probability}"
            )
        if not 0.25 <= self.base_fidelity <= 1.0:
            raise DesimError(f"base fidelity must be in [0.25, 1], got {self.base_fidelity}")
        if not 0.25 <= self.target_fidelity <= 1.0:
            raise DesimError(f"target fidelity must be in [0.25, 1], got {self.target_fidelity}")
        if self.purification_protocol not in PURIFICATION_PROTOCOLS:
            raise DesimError(
                f"unknown purification protocol {self.purification_protocol!r}; "
                f"expected one of {PURIFICATION_PROTOCOLS}"
            )
        if self.repeater_segments < 1:
            raise DesimError("a link needs at least one repeater segment per hop")
        if not 0.0 <= self.channel_error_per_hop < 1.0:
            raise DesimError(f"channel error per hop must be in [0, 1), got {self.channel_error_per_hop}")
        if not 0.0 <= self.memory_decay_per_cycle < 1.0:
            raise DesimError(
                f"memory decay per cycle must be in [0, 1), got {self.memory_decay_per_cycle}"
            )
        for name in ("attempt_cycles", "purify_cycles", "swap_cycles"):
            if getattr(self, name) < 0:
                raise DesimError(f"{name} cannot be negative (0 derives from the machine)")
        if self.pumping_rounds() is None:
            fixpoint = pumping_fixpoint_fidelity(
                self.elementary_fidelity, protocol=self.purification_protocol
            )
            raise DesimError(
                f"target fidelity {self.target_fidelity} is unreachable: pumping "
                f"{self.purification_protocol} pairs of elementary fidelity "
                f"{self.elementary_fidelity:.6f} converges to {fixpoint:.6f}"
            )

    @property
    def is_deterministic(self) -> bool:
        """True when the link reduces to today's scheduled-delivery model.

        Generation always succeeds, pairs are perfect and nothing decays,
        so no purification is needed and no randomness is consumed -- the
        replay takes the original code path and its trace digest is
        bit-identical to the pre-link simulator.
        """
        return (
            self.attempt_success_probability == 1.0
            and self.base_fidelity == 1.0
            and self.channel_error_per_hop == 0.0
            and self.memory_decay_per_cycle == 0.0
        )

    @property
    def elementary_fidelity(self) -> float:
        """Fidelity of a freshly distributed segment pair, after transport."""
        error = 1.0 - (1.0 - self.channel_error_per_hop) ** (1.0 / self.repeater_segments)
        return werner_fidelity_after_depolarizing(self.base_fidelity, error)

    def pumping_rounds(self) -> int | None:
        """Successful pumping rounds each segment needs (None: unreachable)."""
        return purification_rounds_needed(
            initial_fidelity=self.elementary_fidelity,
            target_fidelity=self.target_fidelity,
            elementary_fidelity=self.elementary_fidelity,
            protocol=self.purification_protocol,
        )

    def pumping_table(self) -> tuple[tuple[float, ...], float]:
        """Each pumping round's success probability, and the pumped fidelity.

        Round ``k`` purifies the data pair of streak ``k`` with a fresh
        elementary pair.  A failed round restarts from the elementary
        fidelity, so every finished segment ends at the returned fidelity
        after exactly :meth:`pumping_rounds` rounds.
        """
        purify = _purify_map(self.purification_protocol)
        elementary = fidelity = self.elementary_fidelity
        successes = []
        for _ in range(self.pumping_rounds() or 0):
            fidelity, success = purify(fidelity, elementary)
            successes.append(success)
        return tuple(successes), fidelity

    def pumped_fidelity(self) -> float:
        """Segment fidelity after the required pumping rounds succeed."""
        return self.pumping_table()[1]


@dataclass(frozen=True)
class LinkActivity:
    """What one scheduled transfer cost on the stochastic interconnect.

    Attributes
    ----------
    demand_id / window / requested_window:
        The transfer's identity and its served/requested scheduler windows.
    scheduled_cycle:
        Delivery cycle of the deterministic model (start of the served
        window).
    anchor_cycle:
        When the consuming operation's data dependencies resolved -- the
        demand-driven anchor of the pipeline (pairs cannot be stockpiled
        arbitrarily early; they decay in memory, so generation is timed
        against consumption).  The pipeline's deadline is
        ``max(scheduled_cycle, anchor_cycle)``.
    start_cycle / ready_cycle:
        When the link pipeline started streaming (one window ahead of the
        deadline, clamped at zero) and when the pair actually became
        available.
    segments:
        Channel segments generated in parallel (route hops times
        ``repeater_segments``).
    generation_attempts / generation_cycles:
        Heralded attempts spent on data pairs (restarts and injected
        faults included) and their lane occupancy.
    purification_rounds / purification_failures / purification_cycles:
        Successful pumping rounds summed over segments, failed rounds
        (each destroys the data pair and restarts its segment), and the
        cycles spent on sacrificial pairs plus purification operations.
    swap_levels:
        Entanglement-swapping levels folding the segments together.
    delivered_fidelity:
        End-to-end Werner fidelity of the delivered pair.
    generation_stall / purification_stall:
        The cycles by which the pipeline overran its deadline, attributed
        tail-first: overrun is charged to purification-plus-swapping work
        up to the critical segment's share, the remainder to generation.
    faulted:
        True when the :data:`~repro.faults.DESIM_LINK` site selected this
        transfer for deterministic degradation.
    """

    demand_id: int
    window: int
    requested_window: int
    scheduled_cycle: int
    anchor_cycle: int
    start_cycle: int
    ready_cycle: int
    segments: int
    generation_attempts: int
    generation_cycles: int
    purification_rounds: int
    purification_failures: int
    purification_cycles: int
    swap_levels: int
    delivered_fidelity: float
    generation_stall: int
    purification_stall: int
    faulted: bool


class LinkModel:
    """Realizes scheduled transfers as stochastic link pipelines.

    Parameters
    ----------
    parameters:
        The link's physical configuration.
    rng:
        Generator spawned from the simulation's root seed sequence; the
        model is the only consumer, and draws happen in a fixed order.
    window_cycles / transfer_cycles / gate_cycles:
        Machine quantities resolving the ``0`` defaults of
        :class:`LinkParameters`: the EPR scheduling window, one lane
        transfer slot, and one local two-qubit operation.
    """

    def __init__(
        self,
        parameters: LinkParameters,
        rng: np.random.Generator,
        *,
        window_cycles: int,
        transfer_cycles: int,
        gate_cycles: int,
    ) -> None:
        self.parameters = parameters
        self.rng = rng
        self._window_cycles = window_cycles
        self._attempt_cycles = parameters.attempt_cycles or transfer_cycles
        self._purify_cycles = parameters.purify_cycles or gate_cycles
        self._swap_cycles = parameters.swap_cycles or gate_cycles
        self._round_success, self._segment_fidelity = parameters.pumping_table()
        # Without memory decay every segment delivers the same fidelity, so
        # the swap fold depends only on the segment count.
        self._delivered: dict[int, float] = {}
        # Resolved once: the fault profile cannot change inside a replay.
        self._fault_profile = faults.active_profile()

    def realize(
        self, demand_id: int, window: int, requested_window: int, hops: int, anchor_cycle: int = 0
    ) -> LinkActivity:
        """Run the full link pipeline behind one scheduled transfer.

        The transfer is demand ``demand_id``, requested for
        ``requested_window`` and served in ``window`` over a route of
        ``hops`` channel hops.  ``anchor_cycle`` is when the consuming
        operation's data dependencies resolved.  The pipeline's deadline is
        the later of the scheduler's nominal delivery and the anchor (a
        pair delivered before its consumer is ready just waits -- and
        decays -- in memory, so generation is timed against consumption,
        one window ahead of the deadline); only cycles past the deadline
        count as stall.

        Segment by segment it draws the data pair's attempts (``geometric``,
        only when the success probability is below 1), then per pumping
        round the sacrificial pair's attempts (likewise) and the outcome
        (``random``, only when the round can fail).  A failed round destroys
        the data pair and restarts the segment (Figure 8's pumping keeps
        one data pair alive).
        """
        params = self.parameters
        segments = max(1, hops * params.repeater_segments)
        scheduled = window * self._window_cycles
        deadline = max(scheduled, anchor_cycle)
        start = max(0, deadline - self._window_cycles)

        profile = self._fault_profile
        faulted = profile is not None and faults.should_fire(
            faults.DESIM_LINK,
            faults.fault_key(f"{faults.DESIM_LINK}:{demand_id}:{window}"),
            profile=profile,
        )
        # Forced failed attempts delay segment 0's data pair.
        forced = _FAULT_EXTRA_ATTEMPTS if faulted else 0

        p = params.attempt_success_probability
        geometric = self.rng.geometric if p < 1.0 else None
        random = self.rng.random
        round_success = self._round_success
        attempts = 0
        generation_cycles = 0
        purification_cycles = 0
        failures = 0
        durations: list[int] = []
        longest = -1
        critical_pump = 0
        for _ in range(segments):
            data_draws = forced
            forced = 0
            pair_draws = 0  # sacrificial pairs
            tried = 0
            for _restart in range(_MAX_RESTARTS):
                data_draws += int(geometric(p)) if geometric else 1
                for success in round_success:
                    tried += 1
                    pair_draws += int(geometric(p)) if geometric else 1
                    if success < 1.0 and random() >= success:
                        failures += 1
                        break
                else:
                    break
            else:  # pragma: no cover - requires absurd parameters
                raise DesimError(
                    "purification never converged; the pumping success probability is "
                    "pathologically low for these link parameters"
                )
            seg_gen = data_draws * self._attempt_cycles
            seg_pump = pair_draws * self._attempt_cycles + tried * self._purify_cycles
            attempts += data_draws + pair_draws
            generation_cycles += seg_gen
            purification_cycles += seg_pump
            duration = seg_gen + seg_pump
            if duration > longest:
                longest = duration
                critical_pump = seg_pump
            durations.append(duration)

        decay = params.memory_decay_per_cycle
        if decay > 0.0:  # each pair decays while it waits for the slowest segment
            errors = [1.0 - (1.0 - decay) ** (longest - duration) for duration in durations]
            delivered = _swap_fold(
                [werner_fidelity_after_depolarizing(self._segment_fidelity, e) for e in errors]
            )
        else:
            delivered = self._delivered.get(segments)
            if delivered is None:
                delivered = _swap_fold([self._segment_fidelity] * segments)
                self._delivered[segments] = delivered
        swap_levels = (segments - 1).bit_length()  # ceil(log2(segments))
        swap_cycles = swap_levels * self._swap_cycles
        ready = max(deadline, start + longest + swap_cycles)

        overflow = ready - deadline
        purification_stall = min(overflow, critical_pump + swap_cycles)
        return LinkActivity(
            demand_id=demand_id,
            window=window,
            requested_window=requested_window,
            scheduled_cycle=scheduled,
            anchor_cycle=anchor_cycle,
            start_cycle=start,
            ready_cycle=ready,
            segments=segments,
            generation_attempts=attempts,
            generation_cycles=generation_cycles,
            purification_rounds=len(round_success) * segments,
            purification_failures=failures,
            purification_cycles=purification_cycles,
            swap_levels=swap_levels,
            delivered_fidelity=delivered,
            generation_stall=overflow - purification_stall,
            purification_stall=purification_stall,
            faulted=faulted,
        )


# ----------------------------------------------------------------------
# Event-level connection builder (cross-validates ConnectionTimeModel)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ConnectionSimReport:
    """One event-simulated long-range connection (the Figure 9 quantity).

    Attributes
    ----------
    num_segments / purification_rounds / swap_levels:
        Chain structure: segments, recurrence rounds per segment, swap
        levels -- identical to the analytic
        :class:`~repro.teleport.repeater.ConnectionEstimate` fields.
    round_failures:
        Failed purification rounds that were retried (0 when unseeded).
    connection_cycles / connection_seconds:
        End-to-end connection time on the event clock.
    final_fidelity:
        End-to-end pair fidelity after all swaps.
    """

    num_segments: int
    purification_rounds: int
    swap_levels: int
    round_failures: int
    connection_cycles: int
    connection_seconds: float
    final_fidelity: float


def simulate_connection(
    model: ConnectionTimeModel,
    total_distance_cells: int,
    island_separation_cells: int,
    *,
    seed: int | tuple[int, ...] | np.random.SeedSequence | None = None,
    cycle_time_seconds: float = 1.0e-6,
) -> ConnectionSimReport:
    """Event-simulate one long-range connection at the model's constants.

    The three stages of Section 4.2 run as discrete events: serial segment
    setup, per-segment Bennett recurrence purification (in parallel across
    segments; with a ``seed``, each round succeeds with the map's success
    probability and is retried on failure), then the logarithmic swapping
    schedule and the fixed base overhead.  Unseeded, no round ever fails,
    so the result must match
    :meth:`~repro.teleport.repeater.ConnectionTimeModel.connection_time`
    up to cycle quantization -- the cross-validation pinned in
    ``tests/test_desim_links.py``.
    """
    if cycle_time_seconds <= 0.0:
        raise DesimError("cycle time must be positive")
    estimate = model.estimate(total_distance_cells, island_separation_cells)
    if not estimate.feasible:
        raise DesimError(
            f"connection over {total_distance_cells} cells at separation "
            f"{island_separation_cells} cannot meet the error budget"
        )
    num_segments = estimate.num_segments
    rounds_needed = estimate.purification_rounds
    elementary = model.elementary_fidelity(island_separation_cells)
    chain = RepeaterChain(num_segments=num_segments, elementary_fidelity=elementary)

    def to_cycles(seconds: float) -> int:
        return max(0, round(seconds / cycle_time_seconds))

    setup_cycles = to_cycles(model.segment_setup_time)
    round_cycles = max(1, to_cycles(model.round_time(island_separation_cells)))
    swap_cycles = to_cycles(model.swap_op_time)
    base_cycles = to_cycles(model.base_overhead_time)

    sim = DiscreteEventSimulator(seed=seed)
    stochastic = seed is not None
    failures = 0
    done = 0
    finish = {"cycle": 0}

    def purify_segment(index: int, fidelity: float, streak: int) -> None:
        nonlocal failures, done
        if streak >= rounds_needed:
            done += 1
            if done == num_segments:
                finish["cycle"] = sim.now + estimate.swap_levels * swap_cycles + base_cycles
            return
        new_fidelity, success = bennett_purification_map(fidelity)
        if stochastic and success < 1.0 and float(sim.rng.random()) >= success:
            failures += 1
            sim.schedule(round_cycles, lambda: purify_segment(index, fidelity, streak))
            return
        sim.schedule(round_cycles, lambda: purify_segment(index, new_fidelity, streak + 1))

    def start_purification() -> None:
        for index in range(num_segments):
            purify_segment(index, elementary, 0)

    # Serial segment setup: the classical control processor configures one
    # segment after another before any purification streaming starts.
    sim.schedule(num_segments * setup_cycles, start_purification)
    sim.run()
    cycles = finish["cycle"]
    return ConnectionSimReport(
        num_segments=num_segments,
        purification_rounds=rounds_needed,
        swap_levels=estimate.swap_levels,
        round_failures=failures,
        connection_cycles=cycles,
        connection_seconds=cycles * cycle_time_seconds,
        final_fidelity=chain.chain_fidelity(chain.purified_segment_fidelity(rounds_needed)),
    )
