"""Cross-validation of the bit-packed engine against the scalar oracle.

:class:`~repro.stabilizer.packed.PackedBatchTableau` must be physically
indistinguishable from the scalar
:class:`~repro.stabilizer.tableau.StabilizerTableau`: deterministic-outcome
circuits agree *exactly* lane for lane (including ragged batch sizes not
divisible by 64), and noisy Monte-Carlo estimates on the Steane level-1
workload agree within three binomial standard errors.  The fused kernel tier
is pinned against the packed engine bit for bit, and the word-level helpers
(pack/unpack, popcount with its lookup-table fallback) are pinned here too.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.stabilizer.packed as packed_module
from repro.arq import BatchedNoisyCircuitExecutor, LayoutMapper, NoisyCircuitExecutor
from repro.arq.experiments import Level1EccExperiment, _noise_for_rate
from repro.arq.simulator import create_batch_tableau, resolve_backend
from repro.circuits import Circuit, Gate
from repro.exceptions import SimulationError
from repro.iontrap.parameters import EXPECTED_PARAMETERS
from repro.pauli import PauliString
from repro.stabilizer import (
    FusedPackedBatchTableau,
    NoiselessModel,
    OperationNoise,
    PackedBatchTableau,
    StabilizerTableau,
    lane_mask_words,
    pack_bits,
    popcount,
    unpack_bits,
)

#: Deliberately ragged batch sizes: below one word, word-aligned, and odd tails.
RAGGED_BATCHES = (1, 63, 64, 65, 130)


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


class TestWordHelpers:
    def test_pack_unpack_roundtrip_ragged(self):
        rng = np.random.default_rng(0)
        for batch in RAGGED_BATCHES:
            bits = rng.integers(0, 2, size=(3, batch)).astype(np.uint8)
            words = pack_bits(bits)
            assert words.dtype == np.uint64
            assert words.shape == (3, (batch + 63) // 64)
            assert np.array_equal(unpack_bits(words, batch), bits)

    def test_popcount_matches_bit_sums(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, size=(5, 200)).astype(np.uint8)
        words = pack_bits(bits)
        assert popcount(words).sum() == bits.sum()
        assert np.array_equal(popcount(words).sum(axis=-1), bits.sum(axis=-1))

    def test_popcount_lookup_table_fallback(self, monkeypatch):
        # Older numpy has no bitwise_count; the LUT path must agree exactly.
        words = np.random.default_rng(2).integers(
            0, np.iinfo(np.uint64).max, size=17, dtype=np.uint64, endpoint=True
        )
        native = popcount(words)
        monkeypatch.setattr(packed_module, "HAVE_BITWISE_COUNT", False)
        assert np.array_equal(packed_module.popcount(words), native)

    def test_lane_mask_words(self):
        assert popcount(lane_mask_words(64)).sum() == 64
        assert popcount(lane_mask_words(65)).sum() == 65
        mask = lane_mask_words(70)
        assert mask.shape == (2,)
        assert unpack_bits(mask, 128).sum() == 70


class TestPackedAgainstScalar:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("batch", [4, 70])
    def test_random_clifford_generators_match_every_lane(self, seed, batch):
        circuit = _random_clifford_circuit(num_qubits=5, depth=60, seed=seed)
        scalar = StabilizerTableau(5)
        packed = PackedBatchTableau(5, batch)
        for operation in circuit:
            scalar.apply_gate(operation.name, operation.qubits)
            packed.apply_gate(operation.name, operation.qubits)
        for lane in (0, batch // 2, batch - 1):
            extracted = packed.lane(lane)
            assert [str(g) for g in extracted.stabilizer_generators()] == [
                str(g) for g in scalar.stabilizer_generators()
            ]
            assert [str(g) for g in extracted.destabilizer_generators()] == [
                str(g) for g in scalar.destabilizer_generators()
            ]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_expectations_match_scalar(self, seed):
        circuit = _random_clifford_circuit(num_qubits=4, depth=40, seed=seed)
        scalar = StabilizerTableau(4)
        packed = PackedBatchTableau(4, 66)
        for operation in circuit:
            scalar.apply_gate(operation.name, operation.qubits)
            packed.apply_gate(operation.name, operation.qubits)
        rng = np.random.default_rng(seed)
        for _ in range(20):
            x = rng.integers(0, 2, size=4).astype(np.uint8)
            z = rng.integers(0, 2, size=4).astype(np.uint8)
            pauli = PauliString(x, z)
            assert (packed.expectation(pauli) == scalar.expectation(pauli)).all()

    def test_pauli_injection_matches_scalar(self):
        circuit = _random_clifford_circuit(num_qubits=4, depth=30, seed=9)
        scalar = StabilizerTableau(4)
        packed = PackedBatchTableau(4, 3)
        for operation in circuit:
            scalar.apply_gate(operation.name, operation.qubits)
            packed.apply_gate(operation.name, operation.qubits)
        pauli = PauliString.from_label("XYZI")
        scalar.apply_pauli(pauli)
        packed.apply_pauli(pauli)
        for lane in range(3):
            assert [str(g) for g in packed.lane(lane).stabilizer_generators()] == [
                str(g) for g in scalar.stabilizer_generators()
            ]

    def test_per_lane_pauli_bits_match_scalar(self):
        circuit = _random_clifford_circuit(num_qubits=4, depth=30, seed=5)
        batch_size = 70
        packed = PackedBatchTableau(4, batch_size)
        for operation in circuit:
            packed.apply_gate(operation.name, operation.qubits)
        rng = np.random.default_rng(3)
        x_bits = rng.integers(0, 2, size=(batch_size, 4)).astype(np.uint8)
        z_bits = rng.integers(0, 2, size=(batch_size, 4)).astype(np.uint8)
        packed.apply_pauli_bits(x_bits, z_bits)
        for lane in (0, 33, 63, 64, 69):
            scalar = StabilizerTableau(4)
            for operation in circuit:
                scalar.apply_gate(operation.name, operation.qubits)
            scalar.apply_pauli(PauliString(x_bits[lane], z_bits[lane]))
            assert [str(g) for g in packed.lane(lane).stabilizer_generators()] == [
                str(g) for g in scalar.stabilizer_generators()
            ]

    def test_from_tableau_broadcasts_state(self):
        scalar = StabilizerTableau(3)
        scalar.h(0)
        scalar.cnot(0, 1)
        packed = PackedBatchTableau.from_tableau(scalar, 66, rng=np.random.default_rng(0))
        for lane in (0, 64, 65):
            assert [str(g) for g in packed.lane(lane).stabilizer_generators()] == [
                str(g) for g in scalar.stabilizer_generators()
            ]

    def test_copy_is_independent(self):
        packed = PackedBatchTableau(2, 10)
        clone = packed.copy()
        clone.x(0)
        assert (packed.measure(0) == 0).all()
        assert (clone.measure(0) == 1).all()


class TestPackedMeasurement:
    @pytest.mark.parametrize("batch", RAGGED_BATCHES)
    def test_bell_collapse_and_reset_ragged(self, batch):
        packed = PackedBatchTableau(2, batch, rng=np.random.default_rng(batch))
        packed.h(0)
        packed.cnot(0, 1)
        first = packed.measure(0)
        assert first.shape == (batch,)
        # Collapsed lanes re-measure deterministically and stay correlated.
        assert np.array_equal(packed.measure(1), first)
        assert np.array_equal(packed.measure(0), first)
        packed.reset(0)
        assert (packed.measure(0) == 0).all()

    def test_random_outcome_fractions(self):
        packed = PackedBatchTableau(1, 4096, rng=np.random.default_rng(0))
        packed.h(0)
        outcomes = packed.measure(0)
        assert 0.45 < outcomes.mean() < 0.55

    def test_measure_x_on_plus_state_is_deterministic(self):
        packed = PackedBatchTableau(1, 70)
        packed.h(0)
        assert (packed.measure_x(0) == 0).all()

    def test_measure_x_on_minus_state(self):
        packed = PackedBatchTableau(1, 70)
        packed.x(0)
        packed.h(0)  # |-> state
        assert (packed.measure_x(0) == 1).all()

    def test_reset_after_x_flip(self):
        packed = PackedBatchTableau(2, 65)
        packed.x(1)
        packed.reset(1)
        assert (packed.measure(1) == 0).all()

    def test_ghz_outcomes_identical_across_register(self):
        packed = PackedBatchTableau(3, 200, rng=np.random.default_rng(8))
        packed.h(0)
        packed.cnot(0, 1)
        packed.cnot(1, 2)
        first = packed.measure(0)
        assert np.array_equal(packed.measure(1), first)
        assert np.array_equal(packed.measure(2), first)

    def test_mixed_random_and_deterministic_lanes(self):
        # Lane-dependent Pauli flips make outcome values differ per lane while
        # the measurement stays deterministic; a following H makes it random.
        batch = 130
        packed = PackedBatchTableau(1, batch, rng=np.random.default_rng(4))
        flips = np.zeros((batch, 1), dtype=np.uint8)
        flips[::3, 0] = 1
        packed.apply_pauli_bits(flips, np.zeros_like(flips))
        outcomes = packed.measure(0)
        assert np.array_equal(outcomes, flips[:, 0])

    def test_invalid_lane_and_qubit_indices(self):
        packed = PackedBatchTableau(2, 5)
        with pytest.raises(SimulationError):
            packed.lane(5)
        with pytest.raises(SimulationError):
            packed.h(2)
        with pytest.raises(SimulationError):
            packed.cnot(1, 1)


class TestRandomizedCrossValidation:
    """Randomized fuzz of the phase arithmetic against the scalar oracle.

    Deterministic measurement outcomes exercise the mod-4 bit-plane phase
    accumulation with arbitrary destabilizer products; this fuzz caught a
    sign-encoding bug (-1 contributions entered the reduction as 2 mod 4
    instead of 3) that every hand-written circuit in this file missed.  Lanes
    are diversified with per-lane random Pauli errors so sign bits differ
    across the packed words.
    """

    ONE_QUBIT = ("H", "S", "SDG", "X", "Y", "Z")
    TWO_QUBIT = ("CNOT", "CZ", "SWAP")

    @pytest.mark.parametrize("block", range(4))
    def test_deterministic_outcomes_match_scalar_oracle(self, block):
        checked = 0
        for seed in range(block * 20, block * 20 + 20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 6))
            batch = 67
            packed = PackedBatchTableau(n, batch, rng=np.random.default_rng(seed + 1))
            for _ in range(3):
                for _ in range(25):
                    if rng.random() < 0.4:
                        a, b = map(int, rng.choice(n, 2, replace=False))
                        packed.apply_gate(str(rng.choice(self.TWO_QUBIT)), (a, b))
                    else:
                        packed.apply_gate(
                            str(rng.choice(self.ONE_QUBIT)), (int(rng.integers(n)),)
                        )
                x_bits = rng.integers(0, 2, (batch, n)).astype(np.uint8)
                z_bits = rng.integers(0, 2, (batch, n)).astype(np.uint8)
                packed.apply_pauli_bits(x_bits, z_bits)
                qubit = int(rng.integers(n))
                # Extract oracle lanes *before* the measurement mutates state.
                oracles = {lane: packed.lane(lane) for lane in (0, 1, 33, 64, 66)}
                outcomes = packed.measure(qubit)
                for lane, oracle in oracles.items():
                    result = oracle.measure(qubit)
                    if result.deterministic:
                        assert outcomes[lane] == result.value, (seed, lane, qubit)
                        checked += 1
        assert checked > 50  # the fuzz must actually exercise deterministic paths

    @staticmethod
    def _random_measured_circuit(seed: int) -> Circuit:
        """A random Clifford circuit interleaved with prepare/measure ops."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        circuit = Circuit(n)
        for qubit in range(n):
            circuit.prepare(qubit)
        measured = 0
        for _ in range(int(rng.integers(20, 60))):
            roll = rng.random()
            if roll < 0.35 and n >= 2:
                a, b = map(int, rng.choice(n, 2, replace=False))
                circuit.append(
                    Gate.gate(str(rng.choice(("CNOT", "CZ", "SWAP"))), a, b)
                )
            elif roll < 0.7:
                circuit.append(
                    Gate.gate(
                        str(rng.choice(("H", "S", "SDG", "X", "Y", "Z", "I"))),
                        int(rng.integers(n)),
                    )
                )
            elif roll < 0.8:
                circuit.prepare(int(rng.integers(n)))
            elif roll < 0.9:
                circuit.measure(int(rng.integers(n)), label=f"m{measured}")
                measured += 1
            else:
                circuit.measure_x(int(rng.integers(n)), label=f"m{measured}")
                measured += 1
        for qubit in range(n):
            circuit.measure(qubit, label=f"final{qubit}")
        return circuit

    @pytest.mark.parametrize("batch", RAGGED_BATCHES)
    def test_fused_tier_matches_packed_bit_for_bit(self, batch):
        """Random circuits + random noise: packed and fused agree exactly.

        Not a statistical check -- both engines draw the same noise (one
        noise block for the built-in models) and the same measurement words, so
        every measurement word, error count and final tableau plane
        (ghost lanes included) must be identical on the same seed.
        """
        for seed in range(6):
            circuit = self._random_measured_circuit(seed=1000 + seed)
            rng = np.random.default_rng(seed)
            if seed % 3 == 0:
                noise = NoiselessModel()
            else:
                noise = OperationNoise(
                    p_single=float(rng.uniform(0, 0.08)),
                    p_double=float(rng.uniform(0, 0.08)),
                    p_measure=float(rng.uniform(0, 0.05)),
                    p_prepare=float(rng.uniform(0, 0.05)),
                    p_move_per_cell=float(rng.uniform(0, 0.01)),
                )
            mapper = LayoutMapper() if seed % 2 else None
            packed = BatchedNoisyCircuitExecutor(
                noise=noise, mapper=mapper, backend="packed"
            ).run(circuit, batch, np.random.default_rng(77 + seed))
            fused = BatchedNoisyCircuitExecutor(
                noise=noise, mapper=mapper, backend="packed-fused"
            ).run(circuit, batch, np.random.default_rng(77 + seed))
            assert isinstance(fused.tableau, FusedPackedBatchTableau)
            assert set(packed.measurements) == set(fused.measurements)
            for label in packed.measurements:
                assert np.array_equal(
                    packed.measurements[label], fused.measurements[label]
                ), (seed, batch, label)
            assert np.array_equal(packed.error_count, fused.error_count), (seed, batch)
            # Full final state equality, ghost bits of the ragged word included.
            assert np.array_equal(packed.tableau._x, fused.tableau._x), (seed, batch)
            assert np.array_equal(packed.tableau._z, fused.tableau._z), (seed, batch)
            assert np.array_equal(packed.tableau._r, fused.tableau._r), (seed, batch)


class TestPackedExecutor:
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
        batch = BatchedNoisyCircuitExecutor(backend="packed").run(
            circuit, 70, np.random.default_rng(1)
        )
        assert isinstance(batch.tableau, PackedBatchTableau)
        assert (batch.measurements["one"] == scalar.measurements["one"]).all()
        assert (batch.measurements["zero"] == scalar.measurements["zero"]).all()

    def test_auto_backend_selection(self):
        assert resolve_backend("auto", 1) == "packed-fused"
        assert resolve_backend("packed", 1) == "packed"
        assert resolve_backend("packed-fused", 1) == "packed-fused"
        for name in ("uint8", "simd"):
            with pytest.raises(SimulationError):
                resolve_backend(name, 64)
        for batch in (8, 64):
            assert isinstance(create_batch_tableau("auto", 2, batch), FusedPackedBatchTableau)
        plain = create_batch_tableau("packed", 2, 8)
        assert type(plain) is PackedBatchTableau

    def test_executor_rejects_conflicting_tableau_and_backend(self):
        circuit = Circuit(1).measure(0)
        state = FusedPackedBatchTableau(1, 8)
        with pytest.raises(SimulationError):
            BatchedNoisyCircuitExecutor(backend="packed").run(
                circuit, 8, np.random.default_rng(0), tableau=state
            )

    def test_executor_follows_passed_tableau_type(self):
        circuit = Circuit(1).x(0).measure(0, label="m")
        state = PackedBatchTableau(1, 8, rng=np.random.default_rng(0))
        result = BatchedNoisyCircuitExecutor().run(
            circuit, 8, np.random.default_rng(0), tableau=state
        )
        assert result.tableau is state
        assert (result.measurements["m"] == 1).all()

    def test_certain_measurement_noise_flips_every_lane(self):
        noise = OperationNoise(p_measure=1.0)
        circuit = Circuit(1).prepare(0).measure(0, label="out")
        result = BatchedNoisyCircuitExecutor(noise=noise, backend="packed").run(
            circuit, 70, np.random.default_rng(0)
        )
        assert (result.measurements["out"] == 1).all()
        assert (result.error_count >= 1).all()

    def test_movement_noise_requires_mapper(self):
        noise = OperationNoise(p_move_per_cell=1.0)
        circuit = Circuit(2).cnot(0, 1).measure(1, label="out")
        without = BatchedNoisyCircuitExecutor(noise=noise, backend="packed").run(
            circuit, 70, np.random.default_rng(0)
        )
        with_mapper = BatchedNoisyCircuitExecutor(
            noise=noise, mapper=LayoutMapper(), backend="packed"
        ).run(circuit, 70, np.random.default_rng(0))
        assert (without.error_count == 0).all()
        assert (with_mapper.error_count >= 1).all()

    def test_identity_gate_noise_matches_per_shot_semantics(self):
        noise = OperationNoise(p_single=1.0)
        circuit = Circuit(1).prepare(0)
        for _ in range(10):
            circuit.append(Gate.gate("I", 0))
        result = BatchedNoisyCircuitExecutor(noise=noise, backend="packed").run(
            circuit, 66, np.random.default_rng(1)
        )
        assert (result.error_count == 10).all()

    def test_custom_scalar_noise_model_falls_back_through_packed_hooks(self):
        from repro.pauli import PauliTerm
        from repro.stabilizer import NoiseModel

        class AlwaysXAfterGates(NoiseModel):
            """Scalar hooks only: packed hooks must pack the batch fallback."""

            def sample_gate_error(self, name, qubits, rng):
                return [PauliTerm(qubit=qubits[0], letter="X")]

            def sample_preparation_error(self, qubit, rng):
                return []

            def measurement_flip(self, rng):
                return False

            def sample_movement_error(self, qubit, num_cells, rng):
                return []

        circuit = Circuit(1).prepare(0).z(0).measure(0, label="out")
        result = BatchedNoisyCircuitExecutor(
            noise=AlwaysXAfterGates(), backend="packed"
        ).run(circuit, 70, np.random.default_rng(0))
        assert (result.measurements["out"] == 1).all()
        assert (result.error_count == 1).all()

    @pytest.mark.parametrize("batch", [1, 65])
    def test_packed_matches_per_shot_on_deterministic_programs(self, batch):
        circuit = (
            Circuit(4)
            .h(0)
            .cnot(0, 1)
            .cnot(0, 2)
            .cnot(0, 3)
            .cnot(0, 1)
            .cnot(0, 2)
            .cnot(0, 3)
            .h(0)
            .measure(0, label="a")
            .prepare(1)
            .x(1)
            .measure(1, label="b")
        )
        scalar = NoisyCircuitExecutor().run(circuit, np.random.default_rng(0))
        packed = BatchedNoisyCircuitExecutor(backend="packed").run(
            circuit, batch, np.random.default_rng(0)
        )
        for label in ("a", "b"):
            assert (packed.measurements[label] == scalar.measurements[label]).all()


class TestSteaneCrossValidation:
    """Packed vs fused vs per-shot agreement on the Figure 7 level-1 workload."""

    def test_zero_noise_never_fails_packed(self):
        params = EXPECTED_PARAMETERS.with_uniform_failure(0.0, keep_movement=False)
        experiment = Level1EccExperiment(
            noise=_noise_for_rate(0.0, params), backend="packed"
        )
        outcome = experiment.run_trial_batch_detailed(np.random.default_rng(3), 70)
        assert not outcome["failure"].any()
        assert outcome["verification_passed"].all()

    def test_noiseless_ecc_cycle_reports_trivial_syndromes_packed(self):
        from repro.qecc.decoder import LookupDecoder
        from repro.qecc.encoder import steane_encode_zero_circuit
        from repro.qecc.syndrome import full_error_correction_circuit

        circuit, x_extraction, z_extraction = full_error_correction_circuit()
        executor = BatchedNoisyCircuitExecutor(noise=NoiselessModel(), backend="packed")
        batch = 70
        rng = np.random.default_rng(4)
        state = PackedBatchTableau(circuit.num_qubits, batch, rng=rng)
        executor.run(
            steane_encode_zero_circuit(num_qubits=circuit.num_qubits),
            batch,
            rng,
            tableau=state,
        )
        result = executor.run(circuit, batch, rng, tableau=state)
        code = LookupDecoder().code
        for extraction in (x_extraction, z_extraction):
            bits = result.bits(extraction.ancilla_measurement_labels)
            check = code.hz if extraction.error_type == "X" else code.hx
            syndromes = (bits.astype(np.int64) @ check.T.astype(np.int64)) % 2
            assert not syndromes.any(), extraction.error_type

    def test_noisy_failure_rates_within_three_sigma_of_fused(self):
        rate = 1.0e-2  # high enough for meaningful statistics at modest shots
        trials = 3000
        estimates = {}
        for backend, seed in (("packed-fused", 2024), ("packed", 2025)):
            experiment = Level1EccExperiment(
                noise=_noise_for_rate(rate, EXPECTED_PARAMETERS), backend=backend
            )
            rng = np.random.default_rng(seed)
            failures = 0
            for _ in range(trials // 750):
                failures += int(experiment.run_trial_batch(rng, 750).sum())
            estimates[backend] = failures / trials
        p_fused = estimates["packed-fused"]
        p_packed = estimates["packed"]
        combined_se = np.sqrt(
            p_fused * (1 - p_fused) / trials + p_packed * (1 - p_packed) / trials
        )
        assert abs(p_fused - p_packed) <= 3.0 * combined_se + 1e-12, estimates

    def test_noisy_failure_rate_within_three_sigma_of_per_shot(self):
        rate = 1.0e-2
        experiment = Level1EccExperiment(
            noise=_noise_for_rate(rate, EXPECTED_PARAMETERS), backend="packed"
        )
        packed_trials = 2250
        rng_packed = np.random.default_rng(11)
        packed_failures = sum(
            int(experiment.run_trial_batch(rng_packed, 750).sum())
            for _ in range(packed_trials // 750)
        )
        per_shot_trials = 500
        rng_scalar = np.random.default_rng(12)
        per_shot_failures = sum(
            experiment.run_trial(rng_scalar) for _ in range(per_shot_trials)
        )
        p_packed = packed_failures / packed_trials
        p_scalar = per_shot_failures / per_shot_trials
        combined_se = np.sqrt(
            p_packed * (1 - p_packed) / packed_trials
            + p_scalar * (1 - p_scalar) / per_shot_trials
        )
        assert abs(p_packed - p_scalar) <= 3.0 * combined_se + 1e-12

    def test_ragged_batch_detailed_outcome_fields(self):
        experiment = Level1EccExperiment(
            noise=_noise_for_rate(2e-3, EXPECTED_PARAMETERS), backend="packed"
        )
        outcome = experiment.run_trial_batch_detailed(np.random.default_rng(0), 70)
        assert set(outcome) == {"failure", "nontrivial_syndrome", "verification_passed"}
        for value in outcome.values():
            assert value.shape == (70,)
            assert value.dtype == bool
