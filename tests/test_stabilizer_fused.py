"""The fused native kernel tier: tiers, opcode coverage, and replay contracts.

Three things are pinned here:

* kernel-tier selection (``REPRO_FUSED_KERNEL``), the logged numpy
  fallback, and the numpy kernel's exact agreement with the active tier;
* the IR <-> kernel opcode contract: every opcode the fused kernel claims to
  support is exercised against the packed engine, and timing-only opcodes are
  rejected with a clear :class:`SimulationError` rather than mis-executed;
* the reproducibility contract: a seeded :class:`ExperimentSpec` replays bit
  for bit across the ``"packed"`` and ``"packed-fused"`` engines and across
  shard counts;
* the noise-block contract: both engines consume the same sparse noise block
  for the built-in models (and the same hooks for custom ones), so seeded
  Level-1 batches agree bit for bit at every batch size and on both kernel
  tiers, and noiseless runs keep their v1.8 measurement stream.

The randomized packed-vs-fused fuzz lives with the other cross-validation
oracles in ``test_stabilizer_packed.py``.
"""

from __future__ import annotations

import hashlib
import logging

import numpy as np
import pytest

from repro.api import (
    ExecutionSpec,
    ExperimentSpec,
    NoiseSpec,
    SamplingSpec,
    default_registry,
    run,
)
from repro.arq import BatchedNoisyCircuitExecutor, LayoutMapper
from repro.arq.experiments import Level1EccExperiment, _noise_for_rate
from repro.arq.simulator import create_batch_tableau
from repro.circuits import Circuit, Gate
from repro.circuits.compiled import Opcode, compile_circuit
from repro.exceptions import SimulationError
from repro.iontrap.parameters import EXPECTED_PARAMETERS
from repro.pauli import PauliString
from repro.qecc.encoder import steane_encode_zero_circuit
from repro.qecc.syndrome import full_error_correction_circuit
from repro.stabilizer import (
    DepolarizingNoise,
    FusedPackedBatchTableau,
    NoiselessModel,
    OperationNoise,
    PackedBatchTableau,
    kernel_tier,
)
from repro.stabilizer import fused as fused_module
from repro.stabilizer.fused import (
    KERNEL_TIERS,
    SUPPORTED_OPCODES,
    execute_fused,
    noise_block,
)

RAGGED_BATCHES = (1, 63, 64, 65, 130)

NOISE = OperationNoise(
    p_single=0.02, p_double=0.04, p_measure=0.01, p_prepare=0.02, p_move_per_cell=0.002
)


def _all_opcode_circuit() -> Circuit:
    """One circuit containing every opcode the fused kernel supports."""
    circuit = Circuit(3)
    for qubit in range(3):
        circuit.prepare(qubit)
    circuit.append(Gate.gate("I", 0))
    circuit.h(0)
    circuit.s(1)
    circuit.append(Gate.gate("SDG", 1))
    circuit.x(2)
    circuit.y(0)
    circuit.z(1)
    circuit.cnot(0, 1)
    circuit.cz(1, 2)
    circuit.swap(0, 2)
    circuit.measure(0, label="mz")
    circuit.measure_x(1, label="mx")
    circuit.prepare(2)
    circuit.measure(2, label="reset")
    return circuit


def _run_both(circuit, batch, seed, noise=NOISE, mapper=None):
    packed = BatchedNoisyCircuitExecutor(
        noise=noise, mapper=mapper, backend="packed"
    ).run(circuit, batch, np.random.default_rng(seed))
    fused = BatchedNoisyCircuitExecutor(
        noise=noise, mapper=mapper, backend="packed-fused"
    ).run(circuit, batch, np.random.default_rng(seed))
    return packed, fused


def _assert_identical(packed, fused):
    assert set(packed.measurements) == set(fused.measurements)
    for label in packed.measurements:
        assert np.array_equal(packed.measurements[label], fused.measurements[label]), label
    assert np.array_equal(packed.error_count, fused.error_count)
    assert np.array_equal(packed.tableau._x, fused.tableau._x)
    assert np.array_equal(packed.tableau._z, fused.tableau._z)
    assert np.array_equal(packed.tableau._r, fused.tableau._r)


class TestKernelTiers:
    def test_active_tier_is_valid(self):
        assert kernel_tier() in KERNEL_TIERS

    def test_native_probe_matches_tier(self, monkeypatch):
        monkeypatch.delenv("REPRO_FUSED_KERNEL", raising=False)
        monkeypatch.setattr(fused_module, "_TIER_CACHE", {})
        native = fused_module._cext_kernel() is not None
        assert kernel_tier() == ("cext" if native else "numpy")

    def test_numpy_tier_forcible(self, monkeypatch):
        monkeypatch.setenv("REPRO_FUSED_KERNEL", "numpy")
        monkeypatch.setattr(fused_module, "_TIER_CACHE", {})
        assert kernel_tier() == "numpy"

    def test_unknown_tier_rejected(self, monkeypatch):
        monkeypatch.setattr(fused_module, "_TIER_CACHE", {})
        for name in ("fortran", "numba"):
            monkeypatch.setenv("REPRO_FUSED_KERNEL", name)
            with pytest.raises(SimulationError, match=name):
                kernel_tier()

    @staticmethod
    def _fail_cext_probe(monkeypatch, reason="no C compiler found (test)"):
        monkeypatch.setattr(fused_module, "_TIER_CACHE", {})
        monkeypatch.setattr(fused_module, "_CEXT_FN", None)
        monkeypatch.setattr(fused_module, "_CEXT_ERROR", reason)

    def test_forcing_unavailable_tier_raises(self, monkeypatch):
        # A forced tier must fail loudly instead of silently running a
        # different kernel.
        self._fail_cext_probe(monkeypatch)
        monkeypatch.setenv("REPRO_FUSED_KERNEL", "cext")
        with pytest.raises(SimulationError, match="no C compiler found"):
            kernel_tier()

    def test_auto_fallback_to_numpy_is_logged_once(self, monkeypatch, caplog):
        self._fail_cext_probe(monkeypatch, reason="cc: command failed (test)")
        monkeypatch.delenv("REPRO_FUSED_KERNEL", raising=False)
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert kernel_tier() == "numpy"
            assert kernel_tier() == "numpy"
        warnings = [r for r in caplog.records if r.name == "repro"]
        assert len(warnings) == 1
        assert warnings[0].levelno == logging.WARNING
        assert "cc: command failed (test)" in warnings[0].getMessage()

    def test_numpy_fallback_matches_active_tier(self, monkeypatch):
        """The vectorized fallback and the active tier are interchangeable."""
        circuit = _all_opcode_circuit()
        reference = BatchedNoisyCircuitExecutor(
            noise=NOISE, backend="packed-fused"
        ).run(circuit, 130, np.random.default_rng(8))
        monkeypatch.setenv("REPRO_FUSED_KERNEL", "numpy")
        monkeypatch.setattr(fused_module, "_TIER_CACHE", {})
        fallback = BatchedNoisyCircuitExecutor(
            noise=NOISE, backend="packed-fused"
        ).run(circuit, 130, np.random.default_rng(8))
        _assert_identical(reference, fallback)


class TestOpcodeCoverage:
    def test_coverage_circuit_exercises_every_supported_opcode(self):
        """Guard: the all-opcode circuit really contains the full kernel ISA."""
        program = compile_circuit(_all_opcode_circuit())
        seen = set(int(op) for op in np.unique(program.opcodes))
        assert seen == set(SUPPORTED_OPCODES)

    @pytest.mark.parametrize("batch", RAGGED_BATCHES)
    def test_every_opcode_matches_packed(self, batch):
        packed, fused = _run_both(_all_opcode_circuit(), batch, seed=21)
        _assert_identical(packed, fused)

    @pytest.mark.parametrize(
        "timing_gate",
        [
            lambda c: c.toffoli(0, 1, 2),
            lambda c: c.t(0),
            lambda c: c.tdg(1),
        ],
    )
    def test_timing_only_opcodes_rejected(self, timing_gate):
        circuit = Circuit(3)
        timing_gate(circuit)
        circuit.measure(0, label="m")
        program = compile_circuit(circuit, allow_timing_only=True)
        state = FusedPackedBatchTableau(3, 64, rng=np.random.default_rng(0))
        with pytest.raises(SimulationError, match="timing-only"):
            execute_fused(program, 64, np.random.default_rng(0), state, NOISE)

    def test_plan_rejects_unsupported_opcodes_directly(self):
        """Defense in depth: the kernel plan re-checks the opcode set."""
        circuit = Circuit(3).toffoli(0, 1, 2)
        program = compile_circuit(circuit, allow_timing_only=True)
        with pytest.raises(SimulationError, match="TOFFOLI"):
            fused_module._plan_for(program)

    def test_kernel_arrays_are_contiguous_int32(self):
        program = compile_circuit(_all_opcode_circuit())
        arrays = program.kernel_arrays()
        assert len(arrays) == 6
        for array in arrays:
            assert array.dtype == np.int32
            assert array.flags["C_CONTIGUOUS"]
        opcodes, qubit0, qubit1, exposure, moved, slots = arrays
        assert np.array_equal(opcodes, program.opcodes)
        assert np.array_equal(slots, program.measurement_slot)


class TestFusedState:
    def test_lane_uniformity_preserved_after_fused_run(self):
        """The packed invariant the kernel relies on survives the kernel."""
        _, fused = _run_both(_all_opcode_circuit(), 130, seed=4)
        for plane in (fused.tableau._x, fused.tableau._z):
            first = plane[:, :, :1] != 0
            expected = np.where(first, np.uint64(0xFFFFFFFFFFFFFFFF), np.uint64(0))
            assert np.array_equal(plane, np.broadcast_to(expected, plane.shape))

    def test_expectation_override_matches_packed(self):
        circuit = (
            Circuit(3).prepare(0).prepare(1).prepare(2).h(0).cnot(0, 1).cnot(1, 2)
        )
        packed, fused = _run_both(circuit, 70, seed=11)
        assert isinstance(fused.tableau, FusedPackedBatchTableau)
        for label in ("ZZI", "IZZ", "XXX", "ZII", "XYY", "YXY", "ZZZ"):
            observable = PauliString.from_label(label)
            assert np.array_equal(
                packed.tableau.expectation(observable),
                fused.tableau.expectation(observable),
            ), label

    def test_expectation_override_validation_matches_packed(self):
        state = FusedPackedBatchTableau(2, 8, rng=np.random.default_rng(0))
        with pytest.raises(SimulationError, match="acts on"):
            state.expectation(PauliString.from_label("ZZZ"))

    def test_copy_preserves_fused_type(self):
        state = FusedPackedBatchTableau(2, 8, rng=np.random.default_rng(0))
        clone = state.copy()
        assert type(clone) is FusedPackedBatchTableau
        clone.h(0)
        assert np.array_equal(state._x, FusedPackedBatchTableau(2, 8)._x)

    def test_executor_routes_passed_fused_tableau(self):
        circuit = Circuit(1).x(0).measure(0, label="m")
        state = FusedPackedBatchTableau(1, 8, rng=np.random.default_rng(0))
        result = BatchedNoisyCircuitExecutor().run(
            circuit, 8, np.random.default_rng(0), tableau=state
        )
        assert result.tableau is state
        assert (result.measurements["m"] == 1).all()

    def test_fused_backend_conflicts_with_plain_packed_tableau(self):
        circuit = Circuit(1).measure(0)
        state = PackedBatchTableau(1, 8, rng=np.random.default_rng(0))
        with pytest.raises(SimulationError, match="conflicts"):
            BatchedNoisyCircuitExecutor(backend="packed-fused").run(
                circuit, 8, np.random.default_rng(0), tableau=state
            )


def _sweep_spec(backend: str, num_shards: int = 1) -> ExperimentSpec:
    return ExperimentSpec(
        experiment="threshold_sweep",
        noise=NoiseSpec(kind="uniform", physical_rates=(2.0e-3, 1.0e-2)),
        sampling=SamplingSpec(shots=512, seed=77, batch_size=128),
        execution=ExecutionSpec(backend=backend, num_shards=num_shards, num_workers=0),
    )


class TestSeededReplay:
    def test_spec_replays_bit_for_bit_across_engines(self):
        """The acceptance contract: packed and fused runs are interchangeable."""
        packed = run(_sweep_spec("packed"))
        fused = run(_sweep_spec("packed-fused"))
        assert fused.engine == "packed-fused"
        assert fused.value == packed.value

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_spec_replays_bit_for_bit_at_every_shard_count(self, num_shards):
        """Shard tasks pin the fused engine and still match packed exactly.

        (Different shard counts are deliberately different seed-spawn plans;
        the invariant is engine interchangeability within each plan, plus the
        worker-count independence pinned by the api suite.)
        """
        packed = run(_sweep_spec("packed", num_shards=num_shards))
        fused = run(_sweep_spec("packed-fused", num_shards=num_shards))
        assert fused.value == packed.value
        replay = run(ExperimentSpec.from_json(fused.spec_json))
        assert replay.value == fused.value

    def test_registry_diagnostics_name_every_backend(self):
        """A capability mismatch lists each backend with its excluding flag."""
        registry = default_registry()
        description = registry.describe_exclusions(num_qubits=21)
        for name in registry.names():
            assert f"{name!r}" in description
        assert "supports_batching=False" in description
        assert "supports_sharding=True" in description

    def test_explicit_capability_mismatch_error_lists_backends(self):
        registry = default_registry()
        from repro.api import BackendCapabilities
        from repro.stabilizer.monte_carlo import MonteCarloResult

        class TinyBackend:
            name = "tiny-fused-test"
            capabilities = BackendCapabilities(supports_batching=True, max_qubits=4)

            def estimate(self, task, shots, **kwargs):
                return MonteCarloResult(failures=0, trials=shots)

        registry.register(TinyBackend())
        try:
            with pytest.raises(SimulationError, match="'packed-fused'"):
                registry.resolve(
                    "tiny-fused-test", shots=100, batch_size=64, num_qubits=21
                )
        finally:
            registry.unregister("tiny-fused-test")


LEVEL1_BATCHES = (1, 63, 64, 65, 4096)

#: Measurement + sign-word digests of a noiseless Steane preparation and ECC
#: cycle (seed 20261017), recorded with v1.8.0.  A noiseless run draws only
#: measurement words, in schedule order, so the noise block must not move them.
NOISELESS_DIGESTS = {
    1: "32f2f2b9281a75268511a0cc95e3eac940fa607f8bf92b8e90e16d010883f2a4",
    65: "d1c1395bb1e412f981310b7b5e6356f38f0fe9358f3c80bf0c01251e3f32d11d",
    130: "ee8d819b6556adfa42dd8f7e5c7593501a3ca2310f5b0e4ca41e3caa3a3f6a13",
}


class _HookedNoise(OperationNoise):
    """A custom ``OperationNoise`` subclass: sampled through its hooks."""


@pytest.fixture(params=KERNEL_TIERS)
def tier(request, monkeypatch):
    """Run the test on each kernel tier this host has."""
    if request.param == "cext" and fused_module._cext_kernel() is None:
        pytest.skip("no C kernel on this host")
    monkeypatch.setenv("REPRO_FUSED_KERNEL", request.param)
    monkeypatch.setattr(fused_module, "_TIER_CACHE", {})
    assert kernel_tier() == request.param
    return request.param


def _ecc_circuit():
    circuit, _, _ = full_error_correction_circuit(data_offset=0, num_qubits=21, verified=True)
    return circuit


def _assert_level1_identical(noise, batch, seed):
    """Level-1 batches and the noisy ECC cycle agree bit for bit across engines."""
    outcomes = [
        Level1EccExperiment(noise=noise, backend=backend).run_trial_batch_detailed(
            np.random.default_rng(seed), batch
        )
        for backend in ("packed", "packed-fused")
    ]
    for key in outcomes[0]:
        assert np.array_equal(outcomes[0][key], outcomes[1][key]), key
    _assert_identical(*_run_both(_ecc_circuit(), batch, seed, noise=noise, mapper=LayoutMapper()))


class TestNoiseBlockParity:
    @pytest.mark.parametrize("rate", [4.0e-3, 0.3])
    @pytest.mark.parametrize("batch", LEVEL1_BATCHES)
    def test_level1_batches_bit_for_bit(self, tier, batch, rate):
        _assert_level1_identical(_noise_for_rate(rate, EXPECTED_PARAMETERS), batch, seed=batch)

    @pytest.mark.parametrize("batch", [1, 65, 4096])
    def test_custom_operation_noise_subclass_bit_for_bit(self, tier, batch):
        noise = _HookedNoise(
            p_single=0.05, p_double=0.1, p_measure=0.05, p_prepare=0.05, p_move_per_cell=0.01
        )
        program = compile_circuit(_ecc_circuit(), mapper=LayoutMapper())
        assert noise_block(program, noise, batch, np.random.default_rng(0)) is None
        _assert_level1_identical(noise, batch, seed=7)

    def test_block_is_shared_by_both_engines(self):
        """Same seed, same block: the engines' error counts are the block's."""
        noise = DepolarizingNoise(0.3)
        program = compile_circuit(_ecc_circuit(), mapper=LayoutMapper())
        block = noise_block(program, noise, 130, np.random.default_rng(5))
        packed, fused = _run_both(program, 130, seed=5, noise=noise)
        assert np.array_equal(block.error_count, packed.error_count)
        assert np.array_equal(block.error_count, fused.error_count)

    @pytest.mark.parametrize("backend", ["packed", "packed-fused"])
    @pytest.mark.parametrize("batch", sorted(NOISELESS_DIGESTS))
    def test_noiseless_run_digest_is_pinned(self, backend, batch):
        rng = np.random.default_rng(20261017)
        state = create_batch_tableau(backend, 21, batch, rng=rng)
        executor = BatchedNoisyCircuitExecutor(
            noise=NoiselessModel(), mapper=LayoutMapper(), backend=backend
        )
        executor.run(steane_encode_zero_circuit(num_qubits=21), batch, rng, tableau=state)
        result = executor.run(_ecc_circuit(), batch, rng, tableau=state)
        digest = hashlib.sha256()
        for label in sorted(result.measurements):
            digest.update(label.encode())
            digest.update(result.measurements[label].tobytes())
        digest.update(state._r.tobytes())
        assert digest.hexdigest() == NOISELESS_DIGESTS[batch]
