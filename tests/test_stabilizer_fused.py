"""The fused frame kernel: tiers, opcode coverage, and replay contracts.

Four things are pinned here:

* kernel-tier selection (``REPRO_FUSED_KERNEL``), the logged numpy
  fallback, and the numpy kernel's exact agreement with the active tier;
* the IR <-> kernel opcode contract: every opcode the kernel claims to
  support is exercised, and timing-only opcodes are rejected with a clear
  :class:`SimulationError` rather than mis-executed;
* the reproducibility contract: a seeded :class:`ExperimentSpec` replays its
  recorded values bit for bit, at every shard count;
* the golden contract: seeded Level-1 batches, noisy ECC cycles, custom
  noise models and noiseless runs reproduce their recorded digests on both
  kernel tiers.  The digests were recorded from v1.9.0's engines
  (``tests/data/fused_v1_9_golden.json``); Level-1 batches in which a lane
  retries its ancilla verification were re-pinned at v1.11.0, when pooled
  retries changed their bits but not their law
  (``tests/data/level1_v1_11_golden.json``), and the custom-model
  ("hooked") entries at v1.12.0, when every model started declaring its
  noise as Pauli channels (``tests/data/noise_law_v1_12_golden.json``).
  Every frame-engine digest was re-pinned at v1.13.0, when the kernel began
  sampling each run's noise and measurement words from one 64-bit seed
  (``tests/data/frame_v1_13_golden.json`` overlays them all).

The randomized fuzz against recorded outputs lives with the other
cross-validation oracles in ``test_stabilizer_packed.py``.
"""

from __future__ import annotations

import hashlib
import json
import logging
from pathlib import Path

import numpy as np
import pytest

from repro import faults
from repro.api import (
    ExecutionSpec,
    ExperimentSpec,
    NoiseSpec,
    SamplingSpec,
    run,
)
from repro.arq import BatchedNoisyCircuitExecutor, LayoutMapper
from repro.arq.experiments import Level1EccExperiment, _noise_for_rate
from repro.arq.simulator import create_batch_tableau
from repro.circuits import Circuit, Gate
from repro.circuits.compiled import compile_circuit
from repro.exceptions import SimulationError
from repro.iontrap.parameters import EXPECTED_PARAMETERS
from repro.pauli import PauliString
from repro.qecc.encoder import steane_encode_zero_circuit
from repro.qecc.syndrome import full_error_correction_circuit
from repro.stabilizer import (
    DepolarizingNoise,
    NoiselessModel,
    OperationNoise,
    PauliFrameBatch,
    StabilizerTableau,
    kernel_tier,
)
from repro.stabilizer import fused as fused_module
from repro.stabilizer.fused import (
    KERNEL_TIERS,
    SUPPORTED_OPCODES,
    execute_fused,
)

RAGGED_BATCHES = (1, 63, 64, 65, 130)

NOISE = OperationNoise(
    p_single=0.02, p_double=0.04, p_measure=0.01, p_prepare=0.02, p_move_per_cell=0.002
)



#: The overlays of ``fused_v1_9_golden.json``, oldest first, with the
#: sections each re-pins.
GOLDEN_OVERLAYS = (
    ("level1_v1_11_golden.json", ("level1", "hooked", "spec_sweeps")),
    ("noise_law_v1_12_golden.json", ("hooked", "hooked_ecc")),
    (
        "frame_v1_13_golden.json",
        (
            "level1",
            "ecc",
            "hooked",
            "hooked_ecc",
            "opcodes",
            "opcodes_seed8_130",
            "randomized",
            "expectations",
            "spec_sweeps",
            "noiseless",
        ),
    ),
)


def load_golden() -> dict:
    """The v1.9.0 digests, overlaid by the entries re-pinned since."""
    data = Path(__file__).parent / "data"
    golden = json.loads((data / "fused_v1_9_golden.json").read_text())
    for name, sections in GOLDEN_OVERLAYS:
        overlay = json.loads((data / name).read_text())
        for section in sections:
            entries = overlay[section]
            golden[section] = (
                {**golden.get(section, {}), **entries} if isinstance(entries, dict) else entries
            )
    return golden


#: Digests of the recorded engines' outputs on the workloads below.
GOLDEN = load_golden()


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


def _run(circuit, batch, seed, noise=NOISE, mapper=None):
    return BatchedNoisyCircuitExecutor(noise=noise, mapper=mapper).run(
        circuit, batch, np.random.default_rng(seed)
    )


def run_digest(result, digest=None) -> str:
    """SHA-256 over a batched run's labelled outcomes and per-lane error counts."""
    digest = digest if digest is not None else hashlib.sha256()
    for label in sorted(result.measurements):
        digest.update(label.encode())
        digest.update(np.asarray(result.measurements[label], dtype=np.uint8).tobytes())
    digest.update(np.asarray(result.error_count, dtype=np.int64).tobytes())
    return digest.hexdigest()


def outcome_digest(outcome: dict[str, np.ndarray]) -> str:
    """SHA-256 over the flags of ``run_trial_batch_detailed``."""
    digest = hashlib.sha256()
    for key in sorted(outcome):
        digest.update(key.encode())
        digest.update(np.asarray(outcome[key], dtype=np.uint8).tobytes())
    return digest.hexdigest()


def _assert_identical(first, second):
    assert set(first.measurements) == set(second.measurements)
    for label in first.measurements:
        assert np.array_equal(first.measurements[label], second.measurements[label]), label
    assert np.array_equal(first.error_count, second.error_count)
    assert np.array_equal(first.tableau.frame_x, second.tableau.frame_x)
    assert np.array_equal(first.tableau.frame_z, second.tableau.frame_z)
    assert first.tableau.reference is second.tableau.reference


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
        monkeypatch.setattr(fused_module, "_CEXT_LIBRARY", None)
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

    def test_a_changed_kernel_variable_is_honoured(self, monkeypatch):
        """The tier cache is keyed on the variable: no cache reset needed."""
        monkeypatch.setenv("REPRO_FUSED_KERNEL", "numpy")
        assert kernel_tier() == "numpy"
        monkeypatch.setenv("REPRO_FUSED_KERNEL", "fortran")
        with pytest.raises(SimulationError, match="fortran"):
            kernel_tier()
        monkeypatch.setenv("REPRO_FUSED_KERNEL", "numpy")
        assert kernel_tier() == "numpy"

    def test_a_changed_fault_profile_is_honoured(self, monkeypatch):
        """Setting REPRO_FAULTS mid-process re-resolves the tier, every call
        while its kernel rate is nonzero; clearing it restores the cache."""
        monkeypatch.delenv("REPRO_FUSED_KERNEL", raising=False)
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        native = kernel_tier()
        cached = dict(fused_module._TIER_CACHE)
        monkeypatch.setenv("REPRO_FAULTS", "kernel=1.0,fail_attempts=-1")
        assert kernel_tier() == kernel_tier() == "numpy"
        assert fused_module._TIER_CACHE == cached
        monkeypatch.setenv("REPRO_FAULTS", "crash=1.0")
        assert kernel_tier() == native
        monkeypatch.delenv("REPRO_FAULTS")
        assert kernel_tier() == native
        # A programmatic profile beats the environment, cache included.
        with faults.fault_profile(faults.FaultProfile(kernel=1.0, fail_attempts=-1)):
            assert kernel_tier() == "numpy"
        assert kernel_tier() == native

    def test_numpy_fallback_matches_active_tier(self, monkeypatch):
        """The numpy fallback and the active tier are interchangeable."""
        circuit = _all_opcode_circuit()
        reference = _run(circuit, 130, seed=8)
        monkeypatch.setenv("REPRO_FUSED_KERNEL", "numpy")
        monkeypatch.setattr(fused_module, "_TIER_CACHE", {})
        fallback = _run(circuit, 130, seed=8)
        _assert_identical(reference, fallback)
        assert run_digest(fallback) == GOLDEN["opcodes_seed8_130"]


class TestOpcodeCoverage:
    def test_coverage_circuit_exercises_every_supported_opcode(self):
        """Guard: the all-opcode circuit really contains the full kernel ISA."""
        program = compile_circuit(_all_opcode_circuit())
        seen = set(int(op) for op in np.unique(program.opcodes))
        assert seen == set(SUPPORTED_OPCODES)

    @pytest.mark.parametrize("batch", RAGGED_BATCHES)
    def test_every_opcode_matches_packed(self, batch):
        """Every opcode reproduces its recorded outputs."""
        result = _run(_all_opcode_circuit(), batch, seed=21)
        assert run_digest(result) == GOLDEN["opcodes"][str(batch)]

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
        state = PauliFrameBatch(3, 64, rng=np.random.default_rng(0))
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
        """Noise and measurements change only signs: every lane keeps the
        reference's X/Z planes."""
        state = _run(_all_opcode_circuit(), 130, seed=4).tableau
        for lane in (0, 63, 64, 129):
            extracted = state.lane(lane)
            assert np.array_equal(extracted._x, state.reference._x)
            assert np.array_equal(extracted._z, state.reference._z)

    def test_expectation_override_matches_packed(self):
        circuit = (
            Circuit(3).prepare(0).prepare(1).prepare(2).h(0).cnot(0, 1).cnot(1, 2)
        )
        state = _run(circuit, 70, seed=11).tableau
        assert isinstance(state, PauliFrameBatch)
        digest = hashlib.sha256()
        for label in ("ZZI", "IZZ", "XXX", "ZII", "XYY", "YXY", "ZZZ"):
            observable = PauliString.from_label(label)
            values = state.expectation(observable)
            for lane in (0, 64, 69):
                assert values[lane] == state.lane(lane).expectation(observable), label
            digest.update(label.encode())
            digest.update(values.astype(np.int8).tobytes())
        assert digest.hexdigest() == GOLDEN["expectations"]

    def test_expectation_override_validation_matches_packed(self):
        state = PauliFrameBatch(2, 8, rng=np.random.default_rng(0))
        with pytest.raises(SimulationError, match="acts on"):
            state.expectation(PauliString.from_label("ZZZ"))
        with pytest.raises(SimulationError, match="acts on"):
            state.frame_parity(PauliString.from_label("ZZZ"))

    def test_copy_preserves_fused_type(self):
        state = PauliFrameBatch(2, 8, rng=np.random.default_rng(0))
        clone = state.copy()
        assert type(clone) is PauliFrameBatch
        one, zero = np.ones((1, 1), dtype=np.uint64), np.zeros((1, 1), dtype=np.uint64)
        clone.inject_pauli_words((0,), one, zero)
        assert not state.frame_x.any()
        assert clone.frame_x[0, 0] == 1

    def test_executor_routes_passed_fused_tableau(self):
        circuit = Circuit(1).x(0).measure(0, label="m")
        state = PauliFrameBatch(1, 8, rng=np.random.default_rng(0))
        result = BatchedNoisyCircuitExecutor().run(
            circuit, 8, np.random.default_rng(0), tableau=state
        )
        assert result.tableau is state
        assert (result.measurements["m"] == 1).all()

    def test_fused_backend_conflicts_with_plain_packed_tableau(self):
        """A passed state the frame engine cannot run is rejected up front."""
        circuit = Circuit(1).measure(0)
        state = StabilizerTableau(1, rng=np.random.default_rng(0))
        with pytest.raises(SimulationError, match="conflicts"):
            BatchedNoisyCircuitExecutor().run(
                circuit, 8, np.random.default_rng(0), tableau=state
            )


def _sweep_spec(backend: str, num_shards: int = 1) -> ExperimentSpec:
    return ExperimentSpec(
        experiment="threshold_sweep",
        noise=NoiseSpec(kind="uniform", physical_rates=(2.0e-3, 1.0e-2)),
        sampling=SamplingSpec(shots=512, seed=77, batch_size=128),
        execution=ExecutionSpec(backend=backend, num_shards=num_shards, num_workers=0),
    )


def _level1_counts(result) -> list[list[int]]:
    return [[point.failures, point.trials] for point in result.value.level1]


class TestSeededReplay:
    def test_spec_replays_bit_for_bit_across_engines(self):
        """The acceptance contract: the frame engine replays the recorded values."""
        frame = run(_sweep_spec("frame"))
        auto = run(_sweep_spec("auto"))
        assert frame.engine == auto.engine == "frame"
        assert _level1_counts(frame) == GOLDEN["spec_sweeps"]["1"]
        assert auto.value == frame.value

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_spec_replays_bit_for_bit_at_every_shard_count(self, num_shards):
        """Shard tasks pin the frame engine and match the recorded values exactly.

        (Different shard counts are deliberately different seed-spawn plans;
        the invariant is agreement with the recorded values within each plan,
        plus the worker-count independence pinned by the api suite.)
        """
        result = run(_sweep_spec("frame", num_shards=num_shards))
        assert _level1_counts(result) == GOLDEN["spec_sweeps"][str(num_shards)]
        replay = run(ExperimentSpec.from_json(result.spec_json))
        assert replay.value == result.value


LEVEL1_BATCHES = (1, 63, 64, 65, 4096)

#: Batch sizes of the noiseless Steane preparation and ECC cycle (seed
#: 20261017) whose measurement digests ``GOLDEN["noiseless"]`` pins.
NOISELESS_BATCHES = (1, 65, 130)


class _HookedNoise(OperationNoise):
    """A custom ``OperationNoise`` subclass that declares nothing of its own."""


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


def _assert_level1_golden(noise, batch, seed, level1_digest, ecc_digest):
    """Level-1 batches and the noisy ECC cycle reproduce their recorded digests."""
    outcome = Level1EccExperiment(noise=noise).run_trial_batch_detailed(
        np.random.default_rng(seed), batch
    )
    assert outcome_digest(outcome) == level1_digest
    result = _run(_ecc_circuit(), batch, seed, noise=noise, mapper=LayoutMapper())
    assert run_digest(result) == ecc_digest


class TestNoiseBlockParity:
    @pytest.mark.parametrize("rate", [4.0e-3, 0.3])
    @pytest.mark.parametrize("batch", LEVEL1_BATCHES)
    def test_level1_batches_bit_for_bit(self, tier, batch, rate):
        key = f"{batch}-{rate!r}"
        _assert_level1_golden(
            _noise_for_rate(rate, EXPECTED_PARAMETERS),
            batch,
            batch,
            GOLDEN["level1"][key],
            GOLDEN["ecc"][key],
        )

    @pytest.mark.parametrize("batch", [1, 65, 4096])
    def test_custom_operation_noise_subclass_bit_for_bit(self, tier, batch):
        rates = dict(
            p_single=0.05, p_double=0.1, p_measure=0.05, p_prepare=0.05, p_move_per_cell=0.01
        )
        noise, base = _HookedNoise(**rates), OperationNoise(**rates)
        # A subclass that overrides nothing declares and samples exactly like
        # its base class.
        program = compile_circuit(_ecc_circuit(), mapper=LayoutMapper())
        plan = fused_module._plan_for(program)
        template = fused_module._template_for(plan, (noise,))
        expected = fused_module._template_for(plan, (base,))
        assert template is not expected
        for name in ("p", "pre_inj", "post_inj", "inj_qubit", "event_code", "code_xz"):
            assert np.array_equal(getattr(template, name), getattr(expected, name)), name
        for drawn, recorded in zip(template.sample(batch, 0), expected.sample(batch, 0)):
            assert np.array_equal(drawn, recorded)
        words = _run(program, batch, 3, noise=noise).outcome_words
        assert np.array_equal(words, _run(program, batch, 3, noise=base).outcome_words)
        _assert_level1_golden(
            noise, batch, 7, GOLDEN["hooked"][str(batch)], GOLDEN["hooked_ecc"][str(batch)]
        )

    def test_failures_are_shared_by_both_tiers(self, monkeypatch):
        """Same seed, same failures: both kernel tiers count the sampler's failures."""
        noise = DepolarizingNoise(0.3)
        program = compile_circuit(_ecc_circuit(), mapper=LayoutMapper())
        template = fused_module._template_for(fused_module._plan_for(program), (noise,))
        _, lane, _ = template.sample(130, np.random.default_rng(5).bit_generator.random_raw())
        results = [_run(program, 130, seed=5, noise=noise)]
        monkeypatch.setenv("REPRO_FUSED_KERNEL", "numpy")
        monkeypatch.setattr(fused_module, "_TIER_CACHE", {})
        results.append(_run(program, 130, seed=5, noise=noise))
        for result in results:
            assert np.array_equal(np.bincount(lane, minlength=130), result.error_count)
        _assert_identical(*results)

    @pytest.mark.parametrize("batch", NOISELESS_BATCHES)
    def test_noiseless_run_digest_is_pinned(self, batch):
        """Noiseless runs keep their recorded measurement stream."""
        rng = np.random.default_rng(20261017)
        state = create_batch_tableau(21, batch, rng=rng)
        executor = BatchedNoisyCircuitExecutor(noise=NoiselessModel(), mapper=LayoutMapper())
        executor.run(steane_encode_zero_circuit(num_qubits=21), batch, rng, tableau=state)
        result = executor.run(_ecc_circuit(), batch, rng, tableau=state)
        digest = hashlib.sha256()
        for label in sorted(result.measurements):
            digest.update(label.encode())
            digest.update(result.measurements[label].tobytes())
        assert digest.hexdigest() == GOLDEN["noiseless"][str(batch)]
