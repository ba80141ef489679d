"""Tests for the ARQ tool-chain: mapping, pulse schedules, noisy execution,
and the threshold / syndrome-rate experiments."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import CircuitSpec, ExperimentSpec, NoiseSpec, SamplingSpec, run
from repro.arq import (
    LayoutMapper,
    Level1EccExperiment,
    NoisyCircuitExecutor,
    build_pulse_schedule,
)
from repro.arq.experiments import _noise_for_rate, _noise_from_parameters
from repro.circuits import Circuit
from repro.circuits.library import bell_pair_circuit
from repro.exceptions import LayoutError, ParameterError, SimulationError
from repro.iontrap.operations import PhysicalOperationType
from repro.iontrap.parameters import EXPECTED_PARAMETERS
from repro.pauli import PauliString
from repro.qecc import steane_encode_zero_circuit
from repro.stabilizer import NoiselessModel, OperationNoise


def _sweep_spec(rates, shots, seed=0) -> ExperimentSpec:
    return ExperimentSpec(
        experiment="threshold_sweep",
        noise=NoiseSpec(kind="uniform", physical_rates=tuple(rates)),
        sampling=SamplingSpec(shots=shots, seed=seed),
    )


def _syndrome_spec(level, shots=0) -> ExperimentSpec:
    return ExperimentSpec(
        experiment="syndrome_rate",
        noise=NoiseSpec(kind="technology"),
        circuit=CircuitSpec(level=level),
        sampling=SamplingSpec(shots=shots, seed=0),
    )


class TestLayoutMapper:
    def test_two_qubit_gates_get_movement(self):
        mapper = LayoutMapper()
        circuit = Circuit(2).h(0).cnot(0, 1)
        mapped = mapper.map_circuit(circuit)
        assert mapped.operations[0].movement is None
        assert mapped.operations[1].movement is not None
        assert mapped.operations[1].movement.cells == 12
        assert mapped.operations[1].moved_qubit == 1

    def test_totals_accumulate(self):
        mapper = LayoutMapper()
        circuit = Circuit(3).cnot(0, 1).cnot(1, 2).cnot(0, 2)
        mapped = mapper.map_circuit(circuit)
        assert mapped.movement_operations() == 3
        assert mapped.total_cells_moved() == 36
        assert mapped.total_corner_turns() == 6

    def test_measurement_movement_optional(self):
        circuit = Circuit(1).measure(0)
        assert LayoutMapper().map_circuit(circuit).operations[0].movement is None
        mapped = LayoutMapper(measurement_move_cells=5).map_circuit(circuit)
        assert mapped.operations[0].movement.cells == 5

    def test_corner_turn_bound_enforced(self):
        with pytest.raises(LayoutError):
            LayoutMapper(corner_turns=3)

    def test_negative_distance_rejected(self):
        with pytest.raises(LayoutError):
            LayoutMapper(two_qubit_move_cells=-1)


class TestPulseSchedule:
    def test_schedule_contains_all_operation_kinds(self):
        circuit = Circuit(2)
        circuit.prepare(0).prepare(1).h(0).cnot(0, 1).measure(1)
        schedule = build_pulse_schedule(LayoutMapper().map_circuit(circuit))
        kinds = {event.operation.kind for event in schedule.events}
        assert PhysicalOperationType.PREPARE in kinds
        assert PhysicalOperationType.SINGLE_GATE in kinds
        assert PhysicalOperationType.DOUBLE_GATE in kinds
        assert PhysicalOperationType.MEASURE in kinds
        assert PhysicalOperationType.MOVE in kinds

    def test_makespan_respects_dependencies(self):
        circuit = Circuit(1).h(0).measure(0)
        schedule = build_pulse_schedule(LayoutMapper().map_circuit(circuit))
        assert schedule.makespan_seconds == pytest.approx(
            EXPECTED_PARAMETERS.single_gate_time + EXPECTED_PARAMETERS.measure_time
        )

    def test_parallel_gates_overlap(self):
        serial = Circuit(1).h(0).measure(0)
        parallel = Circuit(2).h(0).h(1).measure(0).measure(1)
        serial_span = build_pulse_schedule(LayoutMapper().map_circuit(serial)).makespan_seconds
        parallel_span = build_pulse_schedule(LayoutMapper().map_circuit(parallel)).makespan_seconds
        assert parallel_span == pytest.approx(serial_span)

    def test_expected_error_count_positive_for_ecc_circuit(self):
        from repro.qecc.syndrome import full_error_correction_circuit

        circuit, _, _ = full_error_correction_circuit()
        schedule = build_pulse_schedule(LayoutMapper().map_circuit(circuit))
        assert schedule.expected_error_count() > 0
        assert schedule.total_busy_time() > 0
        assert schedule.makespan_seconds < schedule.total_busy_time()

    def test_level1_ecc_makespan_order_of_magnitude(self):
        # The physical schedule of one ECC cycle should sit in the
        # sub-millisecond-to-few-millisecond range that Equation 1 predicts.
        from repro.qecc.syndrome import full_error_correction_circuit

        circuit, _, _ = full_error_correction_circuit()
        schedule = build_pulse_schedule(LayoutMapper().map_circuit(circuit))
        assert 1e-4 < schedule.makespan_seconds < 1e-2


class TestNoisyExecutor:
    def test_noiseless_execution_reproduces_ideal_results(self, rng):
        executor = NoisyCircuitExecutor(noise=NoiselessModel())
        circuit = bell_pair_circuit()
        result = executor.run(circuit, rng)
        assert result.error_count == 0
        assert result.tableau.expectation(PauliString.from_label("XX")) == 1

    def test_measurement_labels_collected(self, rng):
        circuit = Circuit(1).prepare(0).x(0).measure(0, label="out")
        result = NoisyCircuitExecutor().run(circuit, rng)
        assert result.measurements["out"] == 1
        assert result.bits(["out"]) == [1]

    def test_missing_label_raises(self, rng):
        circuit = Circuit(1).measure(0)
        result = NoisyCircuitExecutor().run(circuit, rng)
        with pytest.raises(SimulationError):
            result.bits(["nope"])

    def test_unlabelled_measurements_get_indexed_keys(self, rng):
        circuit = Circuit(1).measure(0)
        result = NoisyCircuitExecutor().run(circuit, rng)
        assert "m0" in result.measurements

    def test_non_clifford_gate_rejected(self, rng):
        circuit = Circuit(1).t(0)
        with pytest.raises(SimulationError):
            NoisyCircuitExecutor().run(circuit, rng)

    def test_certain_gate_noise_flips_results(self, rng):
        noise = OperationNoise(p_measure=1.0)
        circuit = Circuit(1).prepare(0).measure(0, label="out")
        result = NoisyCircuitExecutor(noise=noise).run(circuit, rng)
        assert result.measurements["out"] == 1
        assert result.error_count >= 1

    def test_movement_noise_requires_mapper(self, rng):
        noise = OperationNoise(p_move_per_cell=1.0)
        circuit = Circuit(2).cnot(0, 1).measure(1, label="out")
        without_mapper = NoisyCircuitExecutor(noise=noise)
        with_mapper = NoisyCircuitExecutor(noise=noise, mapper=LayoutMapper())
        errors_without = sum(
            without_mapper.run(circuit, np.random.default_rng(s)).error_count for s in range(10)
        )
        errors_with = sum(
            with_mapper.run(circuit, np.random.default_rng(s)).error_count for s in range(10)
        )
        assert errors_without == 0
        assert errors_with == 10

    def test_small_tableau_rejected(self, rng):
        from repro.stabilizer import StabilizerTableau

        executor = NoisyCircuitExecutor()
        circuit = Circuit(3).h(2)
        with pytest.raises(SimulationError):
            executor.run(circuit, rng, tableau=StabilizerTableau(2, rng=rng))

    def test_pre_initialised_tableau_is_used(self, rng):
        from repro.stabilizer import StabilizerTableau

        tableau = StabilizerTableau(7, rng=rng)
        NoisyCircuitExecutor().run(steane_encode_zero_circuit(), rng, tableau=tableau)
        from repro.qecc import steane_code

        assert tableau.expectation(steane_code().logical_z()) == 1


class TestExperiments:
    def test_zero_noise_never_fails(self):
        params = EXPECTED_PARAMETERS.with_uniform_failure(0.0, keep_movement=False)
        experiment = Level1EccExperiment(noise=_noise_for_rate(0.0, params))
        rng = np.random.default_rng(3)
        assert not any(experiment.run_trial(rng) for _ in range(25))

    def test_trial_reports_all_fields(self):
        experiment = Level1EccExperiment(noise=_noise_from_parameters(EXPECTED_PARAMETERS))
        outcome = experiment.run_trial_detailed(np.random.default_rng(0))
        assert set(outcome) == {"failure", "nontrivial_syndrome", "verification_passed"}

    def test_high_noise_fails_often(self):
        experiment = Level1EccExperiment(noise=_noise_for_rate(0.05, EXPECTED_PARAMETERS))
        rng = np.random.default_rng(5)
        failures = sum(experiment.run_trial(rng) for _ in range(40))
        assert failures > 5

    def test_failure_rate_increases_with_physical_rate(self):
        rng = np.random.default_rng(11)
        rates = []
        for p in (2e-3, 2e-2):
            experiment = Level1EccExperiment(noise=_noise_for_rate(p, EXPECTED_PARAMETERS))
            failures = sum(experiment.run_trial(rng) for _ in range(150))
            rates.append(failures / 150)
        assert rates[1] > rates[0]

    def test_threshold_sweep_structure(self):
        result = run(_sweep_spec([2e-3, 4e-3], shots=60, seed=2)).value
        assert len(result.level1) == 2
        assert len(result.level2_rates) == 2
        assert result.concatenation_coefficient > 0
        assert result.pseudothreshold > 0
        band = result.threshold
        assert 0.0 <= band.lower and (band.upper is None or band.lower <= band.upper)

    def test_threshold_sweep_validation(self):
        with pytest.raises(ParameterError):
            _sweep_spec([], shots=10)
        with pytest.raises(ParameterError):
            _sweep_spec([1e-3], shots=0)

    def test_syndrome_rate_analytic_estimates(self):
        level1 = run(_syndrome_spec(1)).value
        level2 = run(_syndrome_spec(2)).value
        # Movement-dominated rates in the 1e-4 .. 2e-3 range, level 2 larger.
        assert 5e-5 < level1["analytic"] < 1e-3
        assert 5e-4 < level2["analytic"] < 5e-3
        assert level2["analytic"] > level1["analytic"]

    def test_syndrome_rate_monte_carlo_option(self):
        result = run(_syndrome_spec(1, shots=30)).value
        assert "measured" in result
        assert 0.0 <= result["measured"] <= 1.0

    def test_syndrome_rate_invalid_level(self):
        with pytest.raises(ParameterError):
            _syndrome_spec(0)
