"""Cross-validation of the batched engine against the scalar tableau.

The batched engine (:class:`~repro.stabilizer.fused.PauliFrameBatch`, the
compiled circuit IR and
:class:`~repro.arq.simulator.BatchedNoisyCircuitExecutor` on its default
engine) must be indistinguishable from the per-shot path:
deterministic-outcome circuits must agree *exactly* lane for lane, and noisy
Monte-Carlo estimates must agree statistically (within three binomial
standard errors) on the Steane syndrome-extraction workload.  The small,
single-word batches here complement the word-spanning batches of
``test_stabilizer_packed.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arq import (
    BatchedNoisyCircuitExecutor,
    LayoutMapper,
    NoisyCircuitExecutor,
)
from repro.arq.experiments import Level1EccExperiment, _noise_for_rate
from repro.circuits import Circuit, Gate, Opcode, compile_circuit
from repro.exceptions import SimulationError
from repro.iontrap.parameters import EXPECTED_PARAMETERS
from repro.pauli import PauliString
from repro.qecc.decoder import LookupDecoder
from repro.qecc.syndrome import full_error_correction_circuit
from repro.stabilizer import (
    NoiselessModel,
    OperationNoise,
    PauliFrameBatch,
    StabilizerTableau,
    estimate_failure_rate_batched,
)


def _random_clifford_circuit(num_qubits: int, depth: int, seed: int) -> Circuit:
    rng = np.random.default_rng(seed)
    circuit = Circuit(num_qubits)
    one_qubit = ("H", "S", "SDG", "X", "Y", "Z")
    two_qubit = ("CNOT", "CZ", "SWAP")
    for _ in range(depth):
        if num_qubits >= 2 and rng.random() < 0.4:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.append(Gate.gate(str(rng.choice(two_qubit)), int(a), int(b)))
        else:
            circuit.append(
                Gate.gate(str(rng.choice(one_qubit)), int(rng.integers(num_qubits)))
            )
    return circuit


class TestCompiledCircuit:
    def test_flattens_operations_and_labels(self):
        circuit = Circuit(3).prepare(0).h(0).cnot(0, 1).measure(0, label="a").measure(1)
        program = compile_circuit(circuit)
        assert program.num_operations == 5
        assert program.num_measurements == 2
        assert program.measurement_labels == ("a", "m4")
        assert program.opcodes[0] == Opcode.PREPARE
        assert program.opcodes[2] == Opcode.CNOT
        assert program.qubit1[2] == 1
        assert program.qubit1[1] == -1

    def test_movement_exposure_baked_in_from_mapper(self):
        mapper = LayoutMapper()
        circuit = Circuit(2).h(0).cnot(0, 1)
        program = compile_circuit(circuit, mapper=mapper)
        expected = mapper.two_qubit_move_cells + mapper.corner_turns + mapper.splits
        assert program.movement_exposure[0] == 0
        assert program.movement_exposure[1] == expected
        assert program.moved_qubit[1] == 1

    def test_non_clifford_gate_rejected(self):
        with pytest.raises(SimulationError):
            compile_circuit(Circuit(1).t(0))

    def test_duplicate_measurement_label_rejected(self):
        circuit = Circuit(2).measure(0, label="dup").measure(1, label="dup")
        with pytest.raises(SimulationError):
            compile_circuit(circuit)


def _run_on(state: PauliFrameBatch, circuit: Circuit, seed: int = 0):
    return BatchedNoisyCircuitExecutor().run(
        circuit, state.batch_size, np.random.default_rng(seed), tableau=state
    )


class TestBatchTableauAgainstScalar:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_expectations_match_scalar(self, seed):
        circuit = _random_clifford_circuit(num_qubits=4, depth=40, seed=seed)
        scalar = StabilizerTableau(4)
        for operation in circuit:
            scalar.apply_gate(operation.name, operation.qubits)
        batch = PauliFrameBatch(4, 6)
        _run_on(batch, circuit)
        rng = np.random.default_rng(seed)
        for _ in range(20):
            x = rng.integers(0, 2, size=4).astype(np.uint8)
            z = rng.integers(0, 2, size=4).astype(np.uint8)
            pauli = PauliString(x, z)
            assert (batch.expectation(pauli) == scalar.expectation(pauli)).all()

    def test_measurement_collapse_repeats_and_reset(self):
        circuit = (
            Circuit(2)
            .h(0)
            .cnot(0, 1)
            .measure(0, label="first")
            .measure(1, label="partner")
            .measure(0, label="again")
            .prepare(0)
            .measure(0, label="reset")
        )
        outcomes = _run_on(PauliFrameBatch(2, 500), circuit, seed=5).measurements
        first = outcomes["first"]
        # Bell state: qubit 1 must agree with qubit 0, and re-measurement of a
        # collapsed qubit is deterministic.
        assert (outcomes["partner"] == first).all()
        assert (outcomes["again"] == first).all()
        # Roughly half the lanes should read 1 (random outcomes are per-lane).
        assert 0.35 < first.mean() < 0.65
        assert (outcomes["reset"] == 0).all()

    def test_measure_x_on_plus_state_is_deterministic(self):
        circuit = Circuit(1).h(0).measure_x(0, label="m")
        assert (_run_on(PauliFrameBatch(1, 32), circuit).measurements["m"] == 0).all()

    def test_from_tableau_broadcasts_state(self):
        scalar = StabilizerTableau(3)
        scalar.h(0)
        scalar.cnot(0, 1)
        batch = PauliFrameBatch.from_tableau(scalar, 4, rng=np.random.default_rng(0))
        for lane in range(4):
            assert [str(g) for g in batch.lane(lane).stabilizer_generators()] == [
                str(g) for g in scalar.stabilizer_generators()
            ]


class TestBatchedExecutor:
    def test_deterministic_circuit_matches_per_shot_exactly(self):
        circuit = (
            Circuit(3)
            .prepare(0)
            .x(0)
            .measure(0, label="one")
            .prepare(1)
            .measure(1, label="zero")
        )
        scalar = NoisyCircuitExecutor().run(circuit, np.random.default_rng(0))
        batch = BatchedNoisyCircuitExecutor().run(circuit, 50, np.random.default_rng(1))
        assert (batch.measurements["one"] == scalar.measurements["one"]).all()
        assert (batch.measurements["zero"] == scalar.measurements["zero"]).all()

    def test_bell_pair_correlations_per_lane(self):
        circuit = Circuit(2).h(0).cnot(0, 1).measure(0, label="a").measure(1, label="b")
        result = BatchedNoisyCircuitExecutor().run(circuit, 400, np.random.default_rng(2))
        assert (result.measurements["a"] == result.measurements["b"]).all()
        assert 0.35 < result.measurements["a"].mean() < 0.65

    def test_bits_stacks_labels_in_order(self):
        circuit = Circuit(2).prepare(0).x(0).measure(0, label="a").measure(1, label="b")
        result = BatchedNoisyCircuitExecutor().run(circuit, 8, np.random.default_rng(0))
        stacked = result.bits(["a", "b"])
        assert stacked.shape == (8, 2)
        assert (stacked[:, 0] == 1).all()
        assert (stacked[:, 1] == 0).all()

    def test_missing_label_raises(self):
        circuit = Circuit(1).measure(0)
        result = BatchedNoisyCircuitExecutor().run(circuit, 4, np.random.default_rng(0))
        with pytest.raises(SimulationError):
            result.bits(["nope"])

    def test_certain_measurement_noise_flips_every_lane(self):
        noise = OperationNoise(p_measure=1.0)
        circuit = Circuit(1).prepare(0).measure(0, label="out")
        result = BatchedNoisyCircuitExecutor(noise=noise).run(
            circuit, 16, np.random.default_rng(0)
        )
        assert (result.measurements["out"] == 1).all()
        assert (result.error_count >= 1).all()

    def test_movement_noise_requires_mapper(self):
        noise = OperationNoise(p_move_per_cell=1.0)
        circuit = Circuit(2).cnot(0, 1).measure(1, label="out")
        without = BatchedNoisyCircuitExecutor(noise=noise).run(
            circuit, 32, np.random.default_rng(0)
        )
        with_mapper = BatchedNoisyCircuitExecutor(noise=noise, mapper=LayoutMapper()).run(
            circuit, 32, np.random.default_rng(0)
        )
        assert (without.error_count == 0).all()
        assert (with_mapper.error_count >= 1).all()

    def test_noiseless_ecc_cycle_reports_trivial_syndromes(self):
        circuit, x_extraction, z_extraction = full_error_correction_circuit()
        executor = BatchedNoisyCircuitExecutor(noise=NoiselessModel())
        from repro.qecc.encoder import steane_encode_zero_circuit

        batch = 32
        rng = np.random.default_rng(4)
        state = PauliFrameBatch(circuit.num_qubits, batch, rng=rng)
        executor.run(
            steane_encode_zero_circuit(num_qubits=circuit.num_qubits), batch, rng, tableau=state
        )
        result = executor.run(circuit, batch, rng, tableau=state)
        code = LookupDecoder().code
        for extraction in (x_extraction, z_extraction):
            bits = result.bits(extraction.ancilla_measurement_labels)
            check = code.hz if extraction.error_type == "X" else code.hx
            syndromes = (bits.astype(np.int64) @ check.T.astype(np.int64)) % 2
            assert not syndromes.any(), extraction.error_type

    @pytest.mark.parametrize("batch", [8, 70])
    def test_custom_declared_model_reaches_every_lane(self, batch):
        from repro.stabilizer import NoiseModel, PauliChannel

        class AlwaysXAfterGates(NoiseModel):
            """Declares only a certain X after every gate."""

            def gate_channel(self, name, qubits):
                return PauliChannel(1.0, (qubits[0],), ("X",))

        circuit = Circuit(1).prepare(0).z(0).measure(0, label="out")
        scalar = NoisyCircuitExecutor(noise=AlwaysXAfterGates()).run(
            circuit, np.random.default_rng(0)
        )
        result = BatchedNoisyCircuitExecutor(noise=AlwaysXAfterGates()).run(
            circuit, batch, np.random.default_rng(0)
        )
        assert scalar.measurements["out"] == 1 and scalar.error_count == 1
        assert (result.measurements["out"] == 1).all()
        assert (result.error_count == 1).all()


class TestReviewRegressions:
    def test_cache_cannot_serve_stale_program_after_circuit_is_freed(self):
        # Same-length short-lived circuits stress id reuse: a cache keyed by
        # id(circuit) eventually serves the previous circuit's program.  With
        # weak keys the entry dies with its circuit, so every run must reflect
        # the circuit actually passed in.
        executor = BatchedNoisyCircuitExecutor()
        per_shot = NoisyCircuitExecutor(mapper=LayoutMapper())
        rng = np.random.default_rng(0)
        for iteration in range(12):
            if iteration % 2 == 0:
                circuit = Circuit(1).prepare(0).x(0).measure(0, label="m")
                expected = 1
            else:
                circuit = Circuit(1).prepare(0).z(0).measure(0, label="m")
                expected = 0
            assert (executor.run(circuit, 8, rng).measurements["m"] == expected).all()
            assert per_shot.run(circuit, rng).measurements["m"] == expected
            del circuit

    def test_identity_gate_noise_matches_per_shot_semantics(self):
        # The per-shot executor charges p_single after every one-qubit gate,
        # including the identity (idle-location error accounting); the batched
        # engine must do the same.
        noise = OperationNoise(p_single=1.0)
        circuit = Circuit(1).prepare(0)
        for _ in range(10):
            circuit.append(Gate.gate("I", 0))
        scalar = NoisyCircuitExecutor(noise=noise).run(circuit, np.random.default_rng(0))
        batched = BatchedNoisyCircuitExecutor(noise=noise).run(
            circuit, 16, np.random.default_rng(1)
        )
        assert scalar.error_count == 10
        assert (batched.error_count == 10).all()

    def test_custom_crosstalk_terms_outside_operands_supported(self):
        # A custom model may declare errors on neighbours of the operands;
        # both engines apply them.
        from repro.stabilizer import NoiseModel, PauliChannel

        class NeighbourFlip(NoiseModel):
            def gate_channel(self, name, qubits):
                return PauliChannel(1.0, (qubits[0] + 1,), ("X",))

        circuit = Circuit(2).prepare(0).prepare(1).z(0).measure(1, label="n")
        scalar = NoisyCircuitExecutor(noise=NeighbourFlip()).run(
            circuit, np.random.default_rng(0)
        )
        batched = BatchedNoisyCircuitExecutor(noise=NeighbourFlip()).run(
            circuit, 8, np.random.default_rng(1)
        )
        assert scalar.measurements["n"] == 1
        assert (batched.measurements["n"] == 1).all()


class TestDuplicateLabelGuards:
    def test_per_shot_executor_raises_on_duplicate_label(self):
        circuit = Circuit(2).measure(0, label="dup").measure(1, label="dup")
        with pytest.raises(SimulationError):
            NoisyCircuitExecutor().run(circuit, np.random.default_rng(0))


class TestMappedCircuitCache:
    def test_mapping_happens_once_per_circuit(self):
        calls = []

        class CountingMapper(LayoutMapper):
            def map_circuit(self, circuit):
                calls.append(id(circuit))
                return super().map_circuit(circuit)

        executor = NoisyCircuitExecutor(noise=NoiselessModel(), mapper=CountingMapper())
        circuit = Circuit(2).cnot(0, 1).measure(0, label="m")
        for seed in range(5):
            executor.run(circuit, np.random.default_rng(seed))
        assert len(calls) == 1

    def test_cache_invalidated_when_circuit_grows(self):
        calls = []

        class CountingMapper(LayoutMapper):
            def map_circuit(self, circuit):
                calls.append(len(circuit))
                return super().map_circuit(circuit)

        executor = NoisyCircuitExecutor(noise=NoiselessModel(), mapper=CountingMapper())
        circuit = Circuit(2).cnot(0, 1)
        executor.run(circuit, np.random.default_rng(0))
        circuit.measure(0, label="late")
        executor.run(circuit, np.random.default_rng(1))
        assert calls == [1, 2]


class TestBatchedMonteCarlo:
    def test_counts_match_binomial_draw(self):
        def batch_trial(rng, count):
            return rng.random(count) < 0.5

        result = estimate_failure_rate_batched(
            batch_trial, trials=4000, rng=np.random.default_rng(0), batch_size=512
        )
        assert result.trials == 4000
        assert abs(result.failure_rate - 0.5) < 5 * result.standard_error

    def test_early_stop_matches_sequential_semantics(self):
        def batch_trial(rng, count):
            return np.ones(count, dtype=bool)

        result = estimate_failure_rate_batched(
            batch_trial,
            trials=1000,
            rng=np.random.default_rng(0),
            max_failures=10,
            batch_size=64,
        )
        assert result.failures == 10
        assert result.trials == 10

    def test_early_stop_mid_chunk(self):
        pattern = np.zeros(100, dtype=bool)
        pattern[[3, 7, 20, 55]] = True
        cursor = {"at": 0}

        def batch_trial(rng, count):
            start = cursor["at"]
            cursor["at"] += count
            return pattern[start : start + count]

        result = estimate_failure_rate_batched(
            batch_trial, trials=100, max_failures=3, batch_size=40
        )
        # The sequential loop would stop right at shot index 20 (third failure).
        assert result.failures == 3
        assert result.trials == 21

    def test_zero_trials(self):
        result = estimate_failure_rate_batched(lambda rng, count: np.ones(count), trials=0)
        assert result.trials == 0


class TestSteaneCrossValidation:
    """Batched vs per-shot agreement on the Figure 7 level-1 workload."""

    def test_zero_noise_never_fails_batched(self):
        params = EXPECTED_PARAMETERS.with_uniform_failure(0.0, keep_movement=False)
        experiment = Level1EccExperiment(noise=_noise_for_rate(0.0, params))
        outcome = experiment.run_trial_batch_detailed(np.random.default_rng(3), 64)
        assert not outcome["failure"].any()
        assert outcome["verification_passed"].all()

    def test_noisy_failure_rates_within_three_sigma(self):
        rate = 1.0e-2  # high enough for meaningful statistics at modest shots
        experiment = Level1EccExperiment(noise=_noise_for_rate(rate, EXPECTED_PARAMETERS))

        batched_trials = 3000
        rng_batched = np.random.default_rng(2024)
        batched_failures = 0
        for _ in range(batched_trials // 750):
            batched_failures += int(experiment.run_trial_batch(rng_batched, 750).sum())

        per_shot_trials = 700
        rng_scalar = np.random.default_rng(2025)
        per_shot_failures = sum(
            experiment.run_trial(rng_scalar) for _ in range(per_shot_trials)
        )

        p_batched = batched_failures / batched_trials
        p_scalar = per_shot_failures / per_shot_trials
        combined_se = np.sqrt(
            p_batched * (1 - p_batched) / batched_trials
            + p_scalar * (1 - p_scalar) / per_shot_trials
        )
        assert abs(p_batched - p_scalar) <= 3.0 * combined_se + 1e-12

    def test_detailed_outcome_fields(self):
        experiment = Level1EccExperiment(
            noise=_noise_for_rate(2e-3, EXPECTED_PARAMETERS)
        )
        outcome = experiment.run_trial_batch_detailed(np.random.default_rng(0), 32)
        assert set(outcome) == {"failure", "nontrivial_syndrome", "verification_passed"}
        for value in outcome.values():
            assert value.shape == (32,)
            assert value.dtype == bool
