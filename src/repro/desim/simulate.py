"""Cycle-level replay of a compiled circuit on the QLA machine model.

This is the executable machine model the analytic layers only approximate:
the compiled program's operations become timed processes on the
:class:`~repro.desim.engine.DiscreteEventSimulator`, serialized by their
per-qubit data dependencies; multi-qubit gates with remote operands wait for
EPR deliveries placed by the greedy Section 5 scheduler (deferred deliveries
are the communication stalls bandwidth 2 is shown to avoid); Toffoli-class
gates first obtain an ancilla block from a capacity-limited factory pool.
Every step is recorded in a :class:`~repro.desim.trace.SimulationTrace` whose
SHA-256 digest is the determinism fingerprint of the run.

EPR timing convention: a demand requested for window ``w`` and served in
window ``w' >= w`` has its pairs streamed/purified during the *preceding*
error-correction window and is therefore available at the **start** of window
``w'`` (cycle ``w' * window_cycles``).  A transfer served in its own window
thus never delays its gate -- "fully overlapped" schedules produce zero stall
cycles -- while each deferral window shows up as one window of stall
exposure.  Unserved demands become available only after the scheduling
horizon and are counted separately.

With a stochastic link configuration (:class:`~repro.desim.links.LinkParameters`
on the machine model), each scheduled transfer is additionally realized as a
heralded-generation / purification / swapping pipeline.  Realization is
*demand-driven*: EPR pairs decay in memory, so they cannot be stockpiled
arbitrarily early -- the pipeline for an operation's transfers is timed
when the operation's data dependencies resolve, starting one window ahead
of the later of the scheduler's nominal delivery cycle and that
dependency-ready time, and may overrun it; the overrun feeds straight into
the same stall accounting, split into generation and purification stalls.
The deterministic configuration takes the original code path untouched --
same trace records, same digest, no randomness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.compiled import CompiledCircuit, Opcode, compile_circuit
from repro.desim.engine import DiscreteEventSimulator
from repro.desim.links import LinkActivity, LinkModel
from repro.desim.machine import QLAMachineModel
from repro.desim.metrics import MachineSimMetrics, critical_path_cycles
from repro.desim.resources import CycleResource
from repro.desim.trace import SimulationTrace
from repro.desim.workload import MachineWorkload, build_workload
from repro.network.scheduler import ScheduleResult

Node = tuple[int, int]

__all__ = ["MachineSimReport", "simulate_workload", "simulate_circuit"]


@dataclass
class MachineSimReport:
    """Everything one replay produced.

    Attributes
    ----------
    machine / workload:
        The inputs of the run.
    schedule:
        The greedy scheduler's placement of the workload's EPR demands.
    trace:
        The structured event trace.
    metrics:
        Condensed summary statistics.
    op_start / op_finish:
        Per-operation start and completion cycles, in program order.
    """

    machine: QLAMachineModel
    workload: MachineWorkload
    schedule: ScheduleResult
    trace: SimulationTrace
    metrics: MachineSimMetrics
    op_start: tuple[int, ...]
    op_finish: tuple[int, ...]

    @property
    def trace_digest(self) -> str:
        """SHA-256 digest of the canonical trace -- the determinism fingerprint."""
        return self.trace.digest()

    def to_value(self) -> dict:
        """JSON-ready summary (the ``machine_sim`` experiment's result value)."""
        value = dict(self.metrics.to_dict())
        value["trace_records"] = len(self.trace)
        value["trace_digest"] = self.trace_digest
        value["bandwidth"] = self.machine.topology.bandwidth
        value["level"] = self.machine.timings.level
        value["workload"] = self.workload.program.name
        return value


def simulate_workload(
    machine: QLAMachineModel,
    workload: MachineWorkload,
    seed: int | tuple[int, ...] | np.random.SeedSequence | None = None,
) -> MachineSimReport:
    """Replay a bound workload cycle-by-cycle and return the full report."""
    sim = DiscreteEventSimulator(seed=seed)
    trace = SimulationTrace()
    window_cycles = machine.timings.window_cycles
    ops = workload.ops
    num_ops = len(ops)

    # ------------------------------------------------------------------
    # EPR distribution: one static greedy schedule over all windows.
    # ------------------------------------------------------------------
    demands = workload.demands
    schedule = machine.scheduler().schedule(demands)
    horizon = max(schedule.num_windows, workload.num_windows)
    activities: list[LinkActivity] = []
    link_model: LinkModel | None = None
    if not machine.link.is_deterministic:
        # The link layer's generator is spawned from the simulation's root
        # seed *after* the engine's own stream (child 1).  Transfers are
        # realized inside the event loop, in event order and by sorted
        # demand id within each operation -- a total order -- so a fixed
        # seed yields a bit-identical noisy trace while the engine's draws
        # (the ancilla jitter stream) stay exactly what they were.
        link_model = LinkModel(
            machine.link,
            sim.spawn_rng(),
            window_cycles=window_cycles,
            transfer_cycles=machine.timings.transfer_cycles,
            gate_cycles=machine.timings.two_qubit_gate_cycles,
        )
    # The transfers by served window, then demand id, read off the columns.
    demand_ids = np.array([demand.demand_id for demand in demands], dtype=np.int64)
    served_ids = demand_ids[schedule.transfer_demand]
    order = np.lexsort((served_ids, schedule.transfer_window))
    served = served_ids[order].tolist()
    served_windows = schedule.transfer_window[order].tolist()
    requested_windows = schedule.demand_window[schedule.transfer_demand[order]].tolist()
    served_hops = schedule.transfer_hops[order].tolist()
    ends = schedule.transfer_ends()[order].tolist()
    for window, demand_id, requested, hops, (source, destination) in zip(
        served_windows, served, requested_windows, served_hops, ends
    ):
        trace.emit(
            window * window_cycles,
            "epr_transfer",
            f"demand{demand_id}",
            window=window,
            requested=requested,
            hops=hops,
            source=source,
            destination=destination,
        )
    for demand in sorted(schedule.unserved, key=lambda d: d.demand_id):
        trace.emit(
            horizon * window_cycles,
            "epr_unserved",
            f"demand{demand.demand_id}",
            requested=demand.window,
        )

    epr_ready = [0] * num_ops
    if link_model is None:
        served_window = dict(zip(served, served_windows))
        for op in ops:
            if op.demand_ids:
                latest = max(served_window.get(d, horizon) for d in op.demand_ids)
                epr_ready[op.index] = latest * window_cycles
    else:  # a realized link reads its transfer off the sorted columns
        transfer_of = dict(zip(served, zip(served_windows, requested_windows, served_hops)))

    # ------------------------------------------------------------------
    # Dependency DAG: per-qubit chains over the flat program.
    # ------------------------------------------------------------------
    pending = [0] * num_ops
    successors: list[list[int]] = [[] for _ in range(num_ops)]
    last_writer: list[int | None] = [None] * workload.program.num_qubits
    for op in ops:
        preds = {last_writer[q] for q in op.qubits if last_writer[q] is not None}
        pending[op.index] = len(preds)
        for pred in preds:
            successors[pred].append(op.index)
        for q in op.qubits:
            last_writer[q] = op.index

    dep_ready = [0] * num_ops
    start = [0] * num_ops
    finish = [0] * num_ops
    epr_stall = [0] * num_ops
    exposed_stall = [0] * num_ops
    ancilla_wait = [0] * num_ops
    factory = CycleResource(sim, "ancilla_factory", machine.num_ancilla_factories)

    def _realize_links(i: int) -> None:
        # Demand-driven link realization: pairs decay in memory, so the
        # pipeline for this op's transfers is timed against consumption --
        # anchored at the op's dependency-ready time, never earlier than
        # one window ahead of the later of that anchor and the scheduler's
        # nominal delivery.  Each demand belongs to exactly one op, so
        # every transfer is realized exactly once.
        ready = 0
        for demand_id in sorted(ops[i].demand_ids):
            transfer = transfer_of.get(demand_id)
            if transfer is None:
                ready = max(ready, horizon * window_cycles, sim.now)
                continue
            activity = link_model.realize(demand_id, *transfer, anchor_cycle=sim.now)
            activities.append(activity)
            ready = max(ready, activity.ready_cycle)
            subject = f"demand{activity.demand_id}"
            trace.emit(
                activity.start_cycle,
                "link_generation",
                subject,
                attempts=activity.generation_attempts,
                occupancy_cycles=activity.generation_cycles,
                segments=activity.segments,
            )
            trace.emit(
                activity.start_cycle,
                "link_purification",
                subject,
                rounds=activity.purification_rounds,
                failures=activity.purification_failures,
                occupancy_cycles=activity.purification_cycles,
            )
            if activity.faulted:
                trace.emit(activity.start_cycle, "link_fault", subject)
            trace.emit(
                activity.ready_cycle,
                "link_delivery",
                subject,
                fidelity=activity.delivered_fidelity,
                generation_stall=activity.generation_stall,
                purification_stall=activity.purification_stall,
                swap_levels=activity.swap_levels,
            )
        epr_ready[i] = ready

    def _deps_done(i: int) -> None:
        dep_ready[i] = sim.now
        if link_model is not None and ops[i].demand_ids:
            _realize_links(i)
        if ops[i].needs_ancilla:
            factory.request(lambda: _factory_granted(i))
        else:
            _plan_start(i, ancilla_ready=0)

    def _factory_granted(i: int) -> None:
        jitter = 0
        if machine.ancilla_jitter_cycles:
            jitter = int(sim.rng.integers(0, machine.ancilla_jitter_cycles + 1))
        production = machine.timings.ancilla_production_cycles + jitter
        trace.emit(sim.now, "ancilla_start", f"op{i}", production=production)
        sim.schedule(production, lambda: _ancilla_ready(i))

    def _ancilla_ready(i: int) -> None:
        factory.release()
        trace.emit(sim.now, "ancilla_ready", f"op{i}")
        _plan_start(i, ancilla_ready=sim.now)

    def _plan_start(i: int, ancilla_ready: int) -> None:
        op = ops[i]
        # Scheduler lateness: how far the op's EPR deliveries slipped past its
        # requested window (the paper's communication stall).  A transfer
        # served on time contributes zero even when the op waits for the
        # window to open.  Under a stochastic link the deliveries are
        # anchored at dependency readiness, so lateness is measured against
        # the later of the nominal window and that anchor.
        if link_model is None:
            epr_stall[i] = max(0, epr_ready[i] - op.window * window_cycles)
        else:
            epr_stall[i] = max(
                0, epr_ready[i] - max(op.window * window_cycles, dep_ready[i])
            )
        # Exposed stall: lateness that actually delayed the start beyond every
        # other readiness condition (often hidden behind ancilla production).
        exposed_stall[i] = max(
            0,
            epr_ready[i] - max(dep_ready[i], op.window * window_cycles, ancilla_ready),
        )
        if op.needs_ancilla:
            ancilla_wait[i] = max(0, ancilla_ready - max(dep_ready[i], epr_ready[i]))
        begin = max(sim.now, epr_ready[i])
        if begin > sim.now:
            sim.schedule_at(begin, lambda: _start_op(i))
        else:
            _start_op(i)

    def _start_op(i: int) -> None:
        op = ops[i]
        start[i] = sim.now
        trace.emit(
            sim.now,
            "op_start",
            f"op{i}",
            opcode=Opcode(op.opcode).name,
            qubits=list(op.qubits),
            window=op.window,
        )
        sim.schedule(op.duration_cycles, lambda: _finish_op(i))

    def _finish_op(i: int) -> None:
        finish[i] = sim.now
        trace.emit(sim.now, "op_complete", f"op{i}")
        for succ in successors[i]:
            pending[succ] -= 1
            # Events run in time order, so the final decrement happens at the
            # latest predecessor's completion: sim.now *is* dep_ready.
            if pending[succ] == 0:
                _deps_done(succ)

    for i in range(num_ops):
        if pending[i] == 0:
            sim.schedule(0, lambda i=i: _deps_done(i))
    sim.run()
    # The callbacks above call each other through closure cells, a reference
    # cycle that holds the whole replay; emptying one cell frees the replay
    # on return instead of at the next full garbage collection.
    del _deps_done

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    makespan = max(finish, default=0)
    metrics = MachineSimMetrics(
        makespan_cycles=makespan,
        makespan_seconds=machine.timings.seconds(makespan),
        critical_path_cycles=critical_path_cycles(workload),
        stall_cycles=int(sum(epr_stall)),
        exposed_stall_cycles=int(sum(exposed_stall)),
        ancilla_wait_cycles=int(sum(ancilla_wait)),
        num_ops=num_ops,
        num_windows=workload.num_windows,
        epr_demands=len(workload.demands),
        epr_deferred=schedule.deferred_count,
        epr_unserved=len(schedule.unserved_demand),
        aggregate_edge_utilization=schedule.mean_edge_utilization(),
        peak_edge_utilization=schedule.max_edge_utilization(),
        ancilla_factory_occupancy=factory.occupancy(makespan),
        link_generation_attempts=int(sum(a.generation_attempts for a in activities)),
        link_purification_rounds=int(sum(a.purification_rounds for a in activities)),
        link_mean_delivered_fidelity=(
            float(sum(a.delivered_fidelity for a in activities) / len(activities))
            if activities
            else 1.0
        ),
        link_generation_stall_cycles=int(sum(a.generation_stall for a in activities)),
        link_purification_stall_cycles=int(sum(a.purification_stall for a in activities)),
    )
    return MachineSimReport(
        machine=machine,
        workload=workload,
        schedule=schedule,
        trace=trace,
        metrics=metrics,
        op_start=tuple(start),
        op_finish=tuple(finish),
    )


def simulate_circuit(
    circuit: Circuit | CompiledCircuit,
    machine: QLAMachineModel,
    seed: int | tuple[int, ...] | np.random.SeedSequence | None = None,
    placement: dict[int, Node] | None = None,
) -> MachineSimReport:
    """Compile (if needed), bind and replay a circuit on a machine model."""
    program = (
        circuit
        if isinstance(circuit, CompiledCircuit)
        else compile_circuit(circuit, allow_timing_only=True)
    )
    workload = build_workload(program, machine, placement=placement)
    return simulate_workload(machine, workload, seed=seed)
