"""Tests for the discrete-event QLA machine simulator (repro.desim).

Covers the engine's ordering/determinism contracts, the resource primitives,
the timing-only compilation path, the end-to-end machine replay (bit-identical
traces for identical seeds, bandwidth-2 vs bandwidth-1 stalls) and the
cross-validation of the event-driven latency against the analytic
:mod:`repro.qecc.latency` model.
"""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np
import pytest

from repro.api import (
    ExecutionSpec,
    ExperimentSpec,
    MachineSpec,
    NoiseSpec,
    RunResult,
    SamplingSpec,
    default_registry,
    run,
)
from repro.api.runner import resolved_engine
from repro.circuits.circuit import Circuit
from repro.circuits.compiled import Opcode, compile_circuit, require_simulable
from repro.circuits.arithmetic import ripple_carry_adder_circuit
from repro.desim import (
    CycleResource,
    DiscreteEventSimulator,
    LinkParameters,
    QLAMachineModel,
    SimulationTrace,
    adder_workload_circuit,
    build_workload,
    critical_path_cycles,
    simulate_circuit,
    toffoli_layer_circuit,
)
from repro.desim import trace as trace_module
from repro.exceptions import DesimError, ParameterError, SimulationError
from repro.qecc.latency import EccLatencyModel
from repro.stabilizer import fused as fused_module


# ----------------------------------------------------------------------
# Event engine
# ----------------------------------------------------------------------


class TestEventEngine:
    def test_execution_order_is_total_and_insertion_independent(self):
        """Events with distinct (time, priority) run in key order however scheduled."""
        keys = [(time, priority) for time in (0, 3, 5, 9, 12) for priority in (-1, 0, 2)]
        shuffler = random.Random(99)
        baseline: list[tuple[int, int]] | None = None
        for _trial in range(5):
            order = list(keys)
            shuffler.shuffle(order)
            sim = DiscreteEventSimulator(seed=0)
            log: list[tuple[int, int]] = []
            for time, priority in order:
                sim.schedule_at(
                    time,
                    lambda t=time, p=priority: log.append((t, p)),
                    priority=priority,
                )
            sim.run()
            assert log == sorted(keys)
            if baseline is None:
                baseline = log
            assert log == baseline

    def test_equal_keys_run_in_scheduling_order(self):
        sim = DiscreteEventSimulator(seed=0)
        log: list[str] = []
        for name in ("a", "b", "c"):
            sim.schedule_at(4, lambda n=name: log.append(n))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_clock_advances_and_counts(self):
        sim = DiscreteEventSimulator(seed=0)
        sim.schedule(10, lambda: None)
        sim.schedule(3, lambda: sim.schedule(2, lambda: None))
        assert sim.run() == 10
        assert sim.events_processed == 3
        assert sim.now == 10

    def test_run_until_leaves_future_events_queued(self):
        sim = DiscreteEventSimulator(seed=0)
        fired: list[int] = []
        sim.schedule_at(5, lambda: fired.append(5))
        sim.schedule_at(50, lambda: fired.append(50))
        assert sim.run(until=20) == 20
        assert fired == [5]
        assert sim.events_pending == 1
        sim.run()
        assert fired == [5, 50]

    def test_cancelled_events_are_skipped(self):
        sim = DiscreteEventSimulator(seed=0)
        fired: list[int] = []
        event = sim.schedule_at(5, lambda: fired.append(5))
        sim.schedule_at(6, lambda: fired.append(6))
        sim.cancel(event)
        sim.run()
        assert fired == [6]

    def test_invalid_times_rejected(self):
        sim = DiscreteEventSimulator(seed=0)
        with pytest.raises(DesimError):
            sim.schedule(-1, lambda: None)
        with pytest.raises(DesimError):
            sim.schedule_at(1.5, lambda: None)
        sim.schedule_at(10, lambda: None)
        sim.run()
        with pytest.raises(DesimError):
            sim.schedule_at(3, lambda: None)

    def test_seeded_rng_is_deterministic(self):
        draws_a = DiscreteEventSimulator(seed=42).rng.integers(0, 1 << 30, size=8)
        draws_b = DiscreteEventSimulator(seed=42).rng.integers(0, 1 << 30, size=8)
        assert (draws_a == draws_b).all()


# ----------------------------------------------------------------------
# Resources
# ----------------------------------------------------------------------


class TestCycleResource:
    def test_fifo_grants_under_contention(self):
        sim = DiscreteEventSimulator(seed=0)
        resource = CycleResource(sim, "pool", capacity=1)
        log: list[str] = []

        def hold(name: str, cycles: int):
            def granted():
                log.append(f"{name}@{sim.now}")
                sim.schedule(cycles, resource.release)

            return granted

        resource.request(hold("first", 5))
        resource.request(hold("second", 5))
        resource.request(hold("third", 5))
        sim.run()
        assert log == ["first@0", "second@5", "third@10"]

    def test_occupancy_accounting(self):
        sim = DiscreteEventSimulator(seed=0)
        resource = CycleResource(sim, "pool", capacity=2)
        resource.request(lambda: sim.schedule(10, resource.release))
        resource.request(lambda: sim.schedule(5, resource.release))
        sim.run()
        # 15 unit-cycles over 2 units * 10 cycles.
        assert resource.occupancy(10) == pytest.approx(0.75)

    def test_over_release_raises(self):
        sim = DiscreteEventSimulator(seed=0)
        resource = CycleResource(sim, "pool", capacity=1)
        with pytest.raises(DesimError):
            resource.release()


# ----------------------------------------------------------------------
# Trace
# ----------------------------------------------------------------------


class TestSimulationTrace:
    def test_digest_reflects_records(self):
        trace = SimulationTrace()
        trace.emit(0, "op_start", "op0", qubits=[0, 1])
        digest_one = trace.digest()
        trace.emit(5, "op_complete", "op0")
        assert trace.digest() != digest_one
        assert trace.counts() == {"op_start": 1, "op_complete": 1}

    def test_canonical_jsonl(self):
        trace = SimulationTrace()
        trace.emit(3, "epr_transfer", "demand0", window=1, hops=2)
        line = json.loads(trace.to_jsonl())
        assert line == {
            "cycle": 3, "kind": "epr_transfer", "subject": "demand0",
            "window": 1, "hops": 2,
        }


def _json_dumps_jsonl(records: list[dict]) -> str:
    """The canonical serialization, spelled with ``json.dumps`` per record."""
    return "\n".join(json.dumps(record, sort_keys=True, separators=(",", ":")) for record in records)


#: One record of every kind the simulator emits, with its payload types,
#: then JSON edge cases.
_CONTRACT_RECORDS = (
    ("epr_transfer", "demand3", dict(window=4, requested=2, hops=7, source=[0, 5], destination=[3, 1])),
    ("epr_unserved", "demand9", dict(requested=11)),
    ("link_generation", "demand3", dict(attempts=12, occupancy_cycles=3400, segments=4)),
    ("link_purification", "demand3", dict(rounds=2, failures=1, occupancy_cycles=880)),
    ("link_fault", "demand3", {}),
    (
        "link_delivery",
        "demand3",
        dict(fidelity=0.9612345678901234, generation_stall=17, purification_stall=0, swap_levels=2),
    ),
    ("ancilla_start", "op5", dict(production=1234567)),
    ("ancilla_ready", "op5", {}),
    ("op_start", "op5", dict(opcode="TOFFOLI", qubits=[3, 4, 5], window=6)),
    ("op_complete", "op5", {}),
    # Desim kinds whose payload the per-kind templates must leave to the encoder.
    (
        "link_delivery",
        "demand4",
        dict(fidelity=np.float64(0.9612345678901234), generation_stall=0, purification_stall=3,
             swap_levels=1),
    ),
    ("epr_unserved", "demand10", dict(requested=True)),
    ("op_complete", 'op"6\\\t', {}),
    ("op_start", "op7", dict(opcode="CNOT", qubits=[1, False], window=2)),
    ("epr_transfer", "demand5", dict(window=1, hops=0)),
    ("edge_bool_none", "x", dict(flag=True, other=False, nothing=None)),
    ("edge_floats", "x", dict(tenth=0.1, tiny=1e-300, negative=-2.5)),
    ("edge_text", "qubit ψ → état", dict(label="Größe ✓", empty="")),
    ("edge_nested", "x", dict(nested=[[1, [2, []]], ["a", None]], pairs=[[0, 1], [2, 3]])),
    ("edge_key_order", "x", dict(attempts=3, zeta=1, alpha=[1])),
)


class TestTraceEncodingContract:
    """``to_jsonl`` and ``digest`` equal a per-record ``json.dumps`` reference."""

    def test_every_payload_type_and_edge_case(self):
        trace = SimulationTrace()
        expected = []
        for cycle, (kind, subject, data) in enumerate(_CONTRACT_RECORDS):
            trace.emit(cycle, kind, subject, **data)
            expected.append({"cycle": cycle, "kind": kind, "subject": subject, **data})
        reference = _json_dumps_jsonl(expected)
        assert trace.to_jsonl() == reference
        assert trace.digest() == hashlib.sha256(reference.encode("utf-8")).hexdigest()
        assert [record.to_dict() for record in trace.records] == expected
        assert [record.to_dict() for record in trace] == expected
        # A payload key that sorts before ``cycle`` comes first on its line.
        assert trace.to_jsonl().splitlines()[-1].startswith('{"alpha":[1],"attempts":3,"cycle":')
        assert "\\u00df" in trace.to_jsonl()  # ensure_ascii, as json.dumps

    def test_records_read_back_as_sorted_trace_records(self):
        trace = SimulationTrace()
        trace.emit(7, "op_start", "op0", window=1, qubits=[0], opcode="H")
        (record,) = trace.records
        assert (record.cycle, record.kind, record.subject) == (7, "op_start", "op0")
        assert record.data == (("opcode", "H"), ("qubits", [0]), ("window", 1))
        assert trace.filter("op_start") == (record,) and trace.filter("op_complete") == ()

    def test_only_records_outside_their_schema_reach_the_encoder(self, monkeypatch):
        encoded = []

        def encode(line: dict) -> str:
            encoded.append(line["subject"])
            return json.dumps(line, sort_keys=True, separators=(",", ":"))

        monkeypatch.setattr(trace_module, "_ENCODE_LINE", encode)
        link = LinkParameters(
            attempt_success_probability=0.9, base_fidelity=0.95, target_fidelity=0.96
        )
        machine = QLAMachineModel.build(rows=5, columns=5, bandwidth=1, level=1, link=link)
        trace = simulate_circuit(adder_workload_circuit(4), machine, seed=11).trace
        assert trace.to_jsonl() and encoded == []
        contract = SimulationTrace()
        for kind, subject, data in _CONTRACT_RECORDS:
            contract.emit(0, kind, subject, **data)
        contract.to_jsonl()
        # The five desim records after the first ten, and the non-desim kinds.
        assert sorted(encoded) == sorted(subject for _, subject, _ in _CONTRACT_RECORDS[10:])

    @pytest.mark.parametrize("noisy", [False, True])
    def test_simulator_traces_match_the_reference(self, noisy):
        link = LinkParameters(
            attempt_success_probability=0.9, base_fidelity=0.95, target_fidelity=0.96
        ) if noisy else None
        machine = QLAMachineModel.build(rows=5, columns=5, bandwidth=1, level=1, link=link)
        report = simulate_circuit(adder_workload_circuit(4), machine, seed=11)
        records = [record.to_dict() for record in report.trace.records]
        assert report.trace.to_jsonl() == _json_dumps_jsonl(records)
        kinds = set(report.trace.counts())
        assert {"epr_transfer", "ancilla_start", "op_start", "op_complete"} <= kinds
        if noisy:
            assert {"link_generation", "link_purification", "link_delivery"} <= kinds


# ----------------------------------------------------------------------
# Timing-only compilation
# ----------------------------------------------------------------------


class TestTimingOnlyCompilation:
    def test_adder_compiles_for_timing_but_not_for_simulation(self):
        circuit = ripple_carry_adder_circuit(2)
        with pytest.raises(SimulationError, match="not Clifford"):
            compile_circuit(circuit)
        program = compile_circuit(circuit, allow_timing_only=True)
        assert not program.is_simulable
        assert int(Opcode.TOFFOLI) in set(program.opcodes.tolist())
        with pytest.raises(SimulationError, match="machine simulator"):
            require_simulable(program)

    def test_three_qubit_operands_are_recorded(self):
        circuit = Circuit(3)
        circuit.toffoli(2, 0, 1)
        program = compile_circuit(circuit, allow_timing_only=True)
        assert program.operands(0) == (2, 0, 1)

    def test_clifford_programs_stay_simulable(self):
        circuit = Circuit(2)
        circuit.h(0).cnot(0, 1).measure(0, "m")
        program = compile_circuit(circuit, allow_timing_only=True)
        assert program.is_simulable
        require_simulable(program)  # no raise

    def test_batch_executor_rejects_timing_only_programs(self):
        from repro.arq.simulator import BatchedNoisyCircuitExecutor
        import numpy as np

        circuit = Circuit(3)
        circuit.toffoli(0, 1, 2)
        program = compile_circuit(circuit, allow_timing_only=True)
        executor = BatchedNoisyCircuitExecutor()
        with pytest.raises(SimulationError, match="machine simulator"):
            executor.run(program, 8, np.random.default_rng(0))


# ----------------------------------------------------------------------
# Machine replay: determinism
# ----------------------------------------------------------------------


def _small_machine(bandwidth: int = 2, level: int = 1, **kwargs) -> QLAMachineModel:
    return QLAMachineModel.build(
        rows=5, columns=5, bandwidth=bandwidth, level=level, **kwargs
    )


#: The 64-bit Shor adder replayed on a 20x20 level-2 array, with the values
#: ``perfbench/pinned.json`` records for the ``shor-adder`` workload: the
#: congestion search fires 170 times at bandwidth 1, so every tie-break of
#: the router and every scheduler placement shows in the digest.  Both
#: kernel tiers (the C schedule and its Python twin) must reproduce them.
ADDER_64_PINS = {
    1: {
        "trace_digest": "8347ea16eaaa1c0303557ecdf2a22bfaa825549b0e270aea8a5c4c249c0cf425",
        "epr_deferred": 67,
    },
    2: {
        "trace_digest": "61d81949d5a3e03ac470a70062e8c8862f155635772c2778e676056edbbb1901",
        "epr_deferred": 10,
    },
}


class TestPinnedAdderReplays:
    @pytest.mark.parametrize("tier", fused_module.KERNEL_TIERS)
    @pytest.mark.parametrize("bandwidth", [1, 2])
    def test_64_bit_adder_replay_is_pinned(self, bandwidth, tier, monkeypatch):
        if tier == "cext" and fused_module._cext_kernel() is None:
            pytest.skip("no C kernel on this host")
        monkeypatch.setenv("REPRO_FUSED_KERNEL", tier)
        events = []
        original = DiscreteEventSimulator.run

        def counting(self, *args, **kwargs):
            clock = original(self, *args, **kwargs)
            events.append(self.events_processed)
            return clock

        monkeypatch.setattr(DiscreteEventSimulator, "run", counting)
        spec = ExperimentSpec(
            experiment="machine_sim",
            noise=NoiseSpec(kind="technology", parameters="expected"),
            sampling=SamplingSpec(shots=0, seed=1),
            execution=ExecutionSpec(backend="desim"),
            machine=MachineSpec(
                rows=20, columns=20, bandwidth=bandwidth, level=2, workload="adder",
                workload_bits=64,
            ),
        )
        value = run(spec).value
        pinned = ADDER_64_PINS[bandwidth]
        assert value["trace_digest"] == pinned["trace_digest"]
        assert value["epr_deferred"] == pinned["epr_deferred"]
        assert value["trace_records"] == 2292
        assert events == [1082]


def _per_dictionary_utilization(schedule) -> tuple:
    """Per-edge utilization and peaks and the replay's two utilization metrics,
    by the formulas that read the per-window load dictionaries."""
    capacity = schedule.capacity_per_edge
    denominator = capacity * max(1, schedule.num_windows)
    totals: dict = {}
    peaks: dict = {}
    for load in schedule.edge_load.values():
        for edge, used in load.items():
            totals[edge] = totals.get(edge, 0) + used
            fraction = used / capacity
            if fraction > peaks.get(edge, 0.0):
                peaks[edge] = fraction
    utilization = {edge: used / denominator for edge, used in sorted(totals.items())}
    peaks = dict(sorted(peaks.items()))
    loaded = [value for value in utilization.values() if value > 0.0]
    aggregate = float(sum(loaded) / len(loaded)) if loaded else 0.0
    peak = float(max(peaks.values())) if peaks else 0.0
    return utilization, peaks, aggregate, peak


class TestUtilizationColumns:
    """Utilization read off the schedule's columns equals the per-dictionary formulas, bit for bit."""

    @pytest.mark.parametrize("tier", fused_module.KERNEL_TIERS)
    @pytest.mark.parametrize(
        "bits, bandwidth, link",
        [(64, 1, None), (64, 2, None), (128, 1, None), (128, 2, None), (4, 1, "fig9")],
    )
    def test_utilization_is_bit_equal(self, bits, bandwidth, link, tier, monkeypatch):
        if tier == "cext" and fused_module._cext_kernel() is None:
            pytest.skip("no C kernel on this host")
        monkeypatch.setenv("REPRO_FUSED_KERNEL", tier)
        if link is None:
            machine = QLAMachineModel.build(rows=20, columns=20, bandwidth=bandwidth, level=2)
            circuit = adder_workload_circuit(bits)
        else:  # one noisy cell of the Figure 9 grid
            machine = QLAMachineModel.build(
                rows=10, columns=10, bandwidth=bandwidth, level=2, num_ancilla_factories=64,
                transfers_per_lane_per_window=1, max_deferral_windows=0,
                link=LinkParameters(base_fidelity=0.95, target_fidelity=0.96),
            )
            circuit = adder_workload_circuit(bits, parallel=7)
        report = simulate_circuit(circuit, machine, seed=2005)
        schedule = report.schedule
        utilization, peaks, aggregate, peak = _per_dictionary_utilization(schedule)
        assert list(schedule.edge_utilization().items()) == list(utilization.items())
        assert list(schedule.peak_edge_utilization().items()) == list(peaks.items())
        assert report.metrics.aggregate_edge_utilization.hex() == aggregate.hex()
        assert report.metrics.peak_edge_utilization.hex() == peak.hex()
        assert 0.0 < aggregate <= peak <= 1.0


class TestReplayDeterminism:
    def test_identical_seeds_give_bit_identical_traces(self):
        circuit = adder_workload_circuit(4)
        machine = _small_machine(ancilla_jitter_cycles=64)
        first = simulate_circuit(circuit, machine, seed=123)
        second = simulate_circuit(circuit, machine, seed=123)
        assert first.trace_digest == second.trace_digest
        assert first.trace.to_jsonl() == second.trace.to_jsonl()
        assert first.metrics == second.metrics

    def test_different_seeds_change_the_jittered_trace(self):
        circuit = adder_workload_circuit(4)
        machine = _small_machine(ancilla_jitter_cycles=512)
        first = simulate_circuit(circuit, machine, seed=1)
        second = simulate_circuit(circuit, machine, seed=2)
        assert first.trace_digest != second.trace_digest

    def test_without_jitter_the_trace_is_seed_independent(self):
        circuit = adder_workload_circuit(4)
        machine = _small_machine()
        assert (
            simulate_circuit(circuit, machine, seed=1).trace_digest
            == simulate_circuit(circuit, machine, seed=2).trace_digest
        )


# ----------------------------------------------------------------------
# Machine replay: cross-validation against the analytic latency model
# ----------------------------------------------------------------------


class TestAnalyticCrossValidation:
    @pytest.mark.parametrize("level", [1, 2])
    def test_single_qubit_chain_matches_ecc_latency(self, level):
        steps = 12
        latency = EccLatencyModel()
        machine = QLAMachineModel.build(rows=1, columns=1, bandwidth=2, level=level)
        circuit = Circuit(1, name="chain")
        for _ in range(steps):
            circuit.h(0)
        report = simulate_circuit(circuit, machine, seed=0)
        analytic_seconds = steps * latency.logical_gate_time(level, two_qubit=False)
        measured_seconds = report.metrics.makespan_seconds
        assert measured_seconds == pytest.approx(analytic_seconds, rel=0.05)
        assert report.metrics.stall_cycles == 0
        assert report.metrics.makespan_cycles == report.metrics.critical_path_cycles

    def test_two_qubit_chain_matches_ecc_latency(self):
        steps = 10
        latency = EccLatencyModel()
        machine = QLAMachineModel.build(rows=1, columns=2, bandwidth=2, level=1)
        circuit = Circuit(2, name="cnot_chain")
        for _ in range(steps):
            circuit.cnot(0, 1)
        report = simulate_circuit(circuit, machine, seed=0)
        analytic_seconds = steps * latency.logical_gate_time(1, two_qubit=True)
        assert report.metrics.makespan_seconds == pytest.approx(analytic_seconds, rel=0.05)
        # One neighbouring tile, ample bandwidth: everything on time.
        assert report.metrics.epr_demands == steps
        assert report.metrics.epr_deferred == 0
        assert report.metrics.stall_cycles == 0

    def test_serial_toffoli_chain_matches_the_papers_21_steps(self):
        """A dependent Toffoli chain costs 15 prep + 6 completion windows each."""
        gates = 5
        machine = QLAMachineModel.build(rows=1, columns=3, bandwidth=2, level=2)
        circuit = Circuit(3, name="toffoli_chain")
        for _ in range(gates):
            circuit.toffoli(0, 1, 2)
        report = simulate_circuit(circuit, machine, seed=0)
        expected = gates * 21 * machine.timings.window_cycles
        assert report.metrics.makespan_cycles == pytest.approx(expected, rel=0.05)

    def test_critical_path_matches_simulation_without_contention(self):
        machine = _small_machine()
        circuit = adder_workload_circuit(4)
        program = compile_circuit(circuit, allow_timing_only=True)
        workload = build_workload(program, machine)
        report = simulate_circuit(program, machine, seed=0)
        # The event replay can only add waiting on top of the DP bound.
        assert report.metrics.makespan_cycles >= critical_path_cycles(workload)
        assert report.metrics.makespan_cycles == pytest.approx(
            critical_path_cycles(workload), rel=0.05
        )


# ----------------------------------------------------------------------
# Machine replay: bandwidth and stalls (the Section 5 result)
# ----------------------------------------------------------------------


class TestBandwidthStalls:
    def test_bandwidth_two_avoids_the_stalls_bandwidth_one_suffers(self):
        circuit = toffoli_layer_circuit(64, toffolis_per_layer=21, layers=10, seed=2005)

        def replay(bandwidth: int):
            machine = QLAMachineModel.build(
                rows=8, columns=8, bandwidth=bandwidth, level=2
            )
            return simulate_circuit(circuit, machine, seed=9)

        narrow = replay(1)
        wide = replay(2)
        assert narrow.metrics.stall_cycles > wide.metrics.stall_cycles
        assert narrow.metrics.epr_deferred > 0
        assert wide.metrics.epr_deferred == 0
        assert wide.metrics.stall_cycles == 0
        # Extra bandwidth halves the per-channel utilization.
        assert wide.metrics.aggregate_edge_utilization < narrow.metrics.aggregate_edge_utilization

    def test_workload_must_fit_the_array(self):
        machine = QLAMachineModel.build(rows=2, columns=2, bandwidth=2, level=1)
        with pytest.raises(DesimError, match="grow the array"):
            simulate_circuit(adder_workload_circuit(4), machine)

    def test_explicit_colocated_placement_suppresses_traffic(self):
        machine = QLAMachineModel.build(rows=1, columns=1, bandwidth=1, level=1)
        circuit = Circuit(2)
        circuit.cnot(0, 1).cnot(0, 1)
        placement = {0: (0, 0), 1: (0, 0)}
        report = simulate_circuit(circuit, machine, seed=0, placement=placement)
        assert report.metrics.epr_demands == 0


# ----------------------------------------------------------------------
# The machine_sim experiment spec
# ----------------------------------------------------------------------


def _machine_sim_spec(**machine_kwargs) -> ExperimentSpec:
    machine_kwargs.setdefault("rows", 5)
    machine_kwargs.setdefault("columns", 5)
    machine_kwargs.setdefault("level", 1)
    machine_kwargs.setdefault("workload", "adder")
    machine_kwargs.setdefault("workload_bits", 4)
    return ExperimentSpec(
        experiment="machine_sim",
        noise=NoiseSpec(kind="technology"),
        sampling=SamplingSpec(shots=0, seed=7),
        execution=ExecutionSpec(backend="desim"),
        machine=MachineSpec(**machine_kwargs),
    )


class TestMachineSimSpec:
    def test_spec_constants_stay_in_sync_with_desim(self):
        """specs.py deliberately avoids importing the simulator; pin the copies."""
        from repro.api.specs import MACHINE_WORKLOADS
        from repro.desim import WORKLOAD_KINDS

        assert MACHINE_WORKLOADS == WORKLOAD_KINDS
        # MachineSpec.workload_qubits hardcodes the adder register layout.
        for bits, parallel in ((4, 1), (8, 3)):
            spec = MachineSpec(
                rows=12, columns=12, workload="adder",
                workload_bits=bits, workload_parallel=parallel,
            )
            assert (
                spec.workload_qubits
                == adder_workload_circuit(bits, parallel).num_qubits
            )

    def test_run_returns_desim_provenance(self):
        result = run(_machine_sim_spec())
        assert result.backend == "desim"
        assert result.engine == "desim"
        assert result.value["workload"].startswith("ripple_adder")
        assert result.value["makespan_cycles"] > 0

    def test_same_spec_json_replays_bit_identically(self):
        first = run(_machine_sim_spec(ancilla_jitter_cycles=64))
        second = run(ExperimentSpec.from_json(first.spec_json))
        assert second.value["trace_digest"] == first.value["trace_digest"]
        assert second.value == first.value

    def test_result_json_round_trip(self):
        result = run(_machine_sim_spec())
        restored = RunResult.from_json(result.to_json())
        assert restored.value == result.value
        assert restored.spec == result.spec

    def test_machine_defaults_applied_when_omitted(self):
        spec = ExperimentSpec(
            experiment="machine_sim",
            noise=NoiseSpec(kind="technology"),
            sampling=SamplingSpec(shots=0, seed=1),
        )
        assert spec.machine == MachineSpec()
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_validation_rejects_bad_machine_sim_specs(self):
        with pytest.raises(ParameterError, match="technology"):
            ExperimentSpec(
                experiment="machine_sim",
                noise=NoiseSpec(kind="uniform", physical_rates=(1e-3,)),
                sampling=SamplingSpec(shots=0, seed=0),
            )
        with pytest.raises(ParameterError, match="shots=0"):
            ExperimentSpec(
                experiment="machine_sim",
                noise=NoiseSpec(kind="technology"),
                sampling=SamplingSpec(shots=16, seed=0),
            )
        with pytest.raises(ParameterError, match="num_shards"):
            ExperimentSpec(
                experiment="machine_sim",
                noise=NoiseSpec(kind="technology"),
                sampling=SamplingSpec(shots=0, seed=0),
                execution=ExecutionSpec(backend="desim", num_shards=4),
            )
        with pytest.raises(ParameterError, match="only applies to machine_sim"):
            ExperimentSpec(
                experiment="syndrome_rate",
                noise=NoiseSpec(kind="technology"),
                sampling=SamplingSpec(shots=0, seed=0),
                machine=MachineSpec(),
            )
        with pytest.raises(ParameterError, match="needs"):
            MachineSpec(rows=2, columns=2, workload="adder", workload_bits=8)

    def test_runner_rejects_foreign_backends(self):
        spec = ExperimentSpec(
            experiment="machine_sim",
            noise=NoiseSpec(kind="technology"),
            sampling=SamplingSpec(shots=0, seed=0),
            execution=ExecutionSpec(backend="frame"),
        )
        with pytest.raises(ParameterError, match="desim"):
            run(spec)

    def test_desim_strategy_refuses_monte_carlo_estimates(self):
        for experiment, noise in (
            ("logical_failure", NoiseSpec(physical_rates=(1e-3,))),
            ("threshold_sweep", NoiseSpec(physical_rates=(1e-3,))),
            ("syndrome_rate", NoiseSpec(kind="technology")),
        ):
            spec = ExperimentSpec(
                experiment=experiment,
                noise=noise,
                sampling=SamplingSpec(shots=64, seed=0),
                execution=ExecutionSpec(backend="desim"),
            )
            assert resolved_engine(spec) == "desim"
            with pytest.raises(ParameterError, match="machine_sim"):
                run(spec)

    def test_desim_never_auto_selected_for_shots(self):
        strategy, engine = default_registry().resolve("auto", num_shards=1)
        assert strategy.name != "desim"
        assert engine == "frame"


# ----------------------------------------------------------------------
# CLI pipe safety
# ----------------------------------------------------------------------


class TestCliPipeSafety:
    def test_output_written_when_quiet_stdout_is_closed(self, tmp_path, monkeypatch):
        import io
        import sys as _sys
        from repro.api import cli

        spec_path = tmp_path / "spec.json"
        out_path = tmp_path / "result.json"
        spec_path.write_text(_machine_sim_spec().to_json())

        closed = io.StringIO()
        closed.close()
        monkeypatch.setattr(_sys, "stdout", closed)
        code = cli.main([str(spec_path), "-o", str(out_path), "--quiet"])
        assert code == 0
        result = RunResult.from_json(out_path.read_text())
        assert result.backend == "desim"

    def test_unquiet_print_survives_closed_stdout(self, tmp_path, monkeypatch):
        import io
        import sys as _sys
        from repro.api import cli

        spec_path = tmp_path / "spec.json"
        out_path = tmp_path / "result.json"
        spec_path.write_text(_machine_sim_spec().to_json())
        closed = io.StringIO()
        closed.close()
        monkeypatch.setattr(_sys, "stdout", closed)
        assert cli.main([str(spec_path), "-o", str(out_path)]) == 0
        assert out_path.exists()

    def test_example_machine_sim_is_a_valid_spec(self, capsys):
        from repro.api import cli

        assert cli.main(["--example", "machine_sim"]) == 0
        printed = capsys.readouterr().out
        spec = ExperimentSpec.from_json(printed)
        assert spec.experiment == "machine_sim"
        assert spec.machine is not None
