"""Tests for the circuit IR: gates, circuits and DAG scheduling."""

from __future__ import annotations

import pytest

from repro.circuits import Circuit, CircuitDag, Gate, OpKind, schedule_asap
from repro.circuits.dag import parallelism_profile
from repro.exceptions import CircuitError


class TestGateConstruction:
    def test_named_gate_arity_checked(self):
        with pytest.raises(CircuitError):
            Gate.gate("CNOT", 0)
        with pytest.raises(CircuitError):
            Gate.gate("H", 0, 1)

    def test_unknown_gate_rejected(self):
        with pytest.raises(CircuitError):
            Gate.gate("FOO", 0)

    def test_repeated_qubits_rejected(self):
        with pytest.raises(CircuitError):
            Gate.cnot(1, 1)

    def test_negative_qubit_rejected(self):
        with pytest.raises(CircuitError):
            Gate.x(-1)

    def test_clifford_classification(self):
        assert Gate.h(0).is_clifford
        assert Gate.cnot(0, 1).is_clifford
        assert not Gate.t(0).is_clifford
        assert not Gate.toffoli(0, 1, 2).is_clifford
        assert Gate.measure(0).is_clifford

    def test_shifted_moves_all_qubits(self):
        op = Gate.cnot(0, 1).shifted(5)
        assert op.qubits == (5, 6)

    def test_remapped_uses_mapping(self):
        op = Gate.cnot(0, 1).remapped({0: 3, 1: 7})
        assert op.qubits == (3, 7)

    def test_remapped_missing_qubit_raises(self):
        with pytest.raises(CircuitError):
            Gate.x(0).remapped({1: 2})

    def test_measure_and_prepare_kinds(self):
        assert Gate.measure(0).kind is OpKind.MEASURE
        assert Gate.measure_x(0).kind is OpKind.MEASURE_X
        assert Gate.prepare(0).kind is OpKind.PREPARE


class TestCircuit:
    def test_fluent_builders_append_ops(self):
        circuit = Circuit(3)
        circuit.h(0).cnot(0, 1).toffoli(0, 1, 2).measure(2)
        assert len(circuit) == 4
        assert circuit.gate_count() == 3
        assert circuit.measurement_count() == 1

    def test_rejects_out_of_range_qubits(self):
        circuit = Circuit(2)
        with pytest.raises(CircuitError):
            circuit.h(2)

    def test_rejects_zero_qubits(self):
        with pytest.raises(CircuitError):
            Circuit(0)

    def test_add_qubits_grows_register(self):
        circuit = Circuit(2)
        first_new = circuit.add_qubits(3)
        assert first_new == 2
        assert circuit.num_qubits == 5
        circuit.h(4)  # must not raise

    def test_count_ops_histogram(self):
        circuit = Circuit(2).h(0).h(1).cnot(0, 1)
        counts = circuit.count_ops()
        assert counts["H"] == 2
        assert counts["CNOT"] == 1

    def test_gate_count_by_name(self):
        circuit = Circuit(2).h(0).cnot(0, 1).x(1)
        assert circuit.gate_count("CNOT") == 1
        assert circuit.gate_count("H", "X") == 2

    def test_two_qubit_gate_count(self):
        circuit = Circuit(3).h(0).cnot(0, 1).toffoli(0, 1, 2)
        assert circuit.two_qubit_gate_count() == 2

    def test_is_clifford(self):
        assert Circuit(2).h(0).cnot(0, 1).is_clifford()
        assert not Circuit(2).t(0).is_clifford()

    def test_compose_with_mapping(self):
        inner = Circuit(2).cnot(0, 1)
        outer = Circuit(4)
        outer.compose(inner, qubit_map={0: 2, 1: 3})
        assert outer.operations[0].qubits == (2, 3)

    def test_compose_identity_mapping_checks_bounds(self):
        inner = Circuit(3).h(2)
        outer = Circuit(2)
        with pytest.raises(CircuitError):
            outer.compose(inner)

    def test_remapped_produces_new_circuit(self):
        circuit = Circuit(2).cnot(0, 1)
        remapped = circuit.remapped({0: 1, 1: 0}, num_qubits=2)
        assert remapped.operations[0].qubits == (1, 0)
        assert circuit.operations[0].qubits == (0, 1)

    def test_copy_is_independent(self):
        circuit = Circuit(1).h(0)
        clone = circuit.copy()
        circuit.x(0)
        assert len(clone) == 1

    def test_qubits_used(self):
        circuit = Circuit(5).h(0).cnot(2, 4)
        assert circuit.qubits_used() == {0, 2, 4}


class TestScheduling:
    def test_depth_of_serial_chain(self):
        circuit = Circuit(1).h(0).x(0).z(0)
        assert circuit.depth() == 3

    def test_depth_of_parallel_layer(self):
        circuit = Circuit(3).h(0).h(1).h(2)
        assert circuit.depth() == 1

    def test_schedule_asap_layers(self):
        circuit = Circuit(3).h(0).h(1).cnot(0, 1).h(2)
        layers = schedule_asap(circuit)
        assert len(layers) == 2
        assert len(layers[0]) == 3  # the two H's and the H on qubit 2
        assert layers[1][0].name == "CNOT"

    def test_parallelism_profile(self):
        circuit = Circuit(2).h(0).h(1).cnot(0, 1)
        assert parallelism_profile(schedule_asap(circuit)) == [2, 1]

    def test_dag_layers_match_schedule_asap_depth(self):
        circuit = Circuit(4)
        circuit.h(0).cnot(0, 1).cnot(1, 2).cnot(2, 3).measure(3)
        dag = CircuitDag(circuit)
        assert dag.depth() == len(schedule_asap(circuit))

    def test_dag_edges_follow_qubit_dependencies(self):
        circuit = Circuit(2).h(0).cnot(0, 1).x(1)
        dag = CircuitDag(circuit)
        assert (0, 1) in dag.edges
        assert (1, 2) in dag.edges
        assert (0, 2) not in dag.edges

    def test_critical_path_duration_weighted(self):
        circuit = Circuit(2).h(0).cnot(0, 1).h(1)
        dag = CircuitDag(circuit)

        def duration(op):
            return 10.0 if op.name == "CNOT" else 1.0

        assert dag.critical_path_duration(duration) == pytest.approx(12.0)

    def test_empty_circuit_depth_zero(self):
        circuit = Circuit(2)
        assert circuit.depth() == 0
        assert CircuitDag(circuit).critical_path_duration(lambda op: 1.0) == 0.0
