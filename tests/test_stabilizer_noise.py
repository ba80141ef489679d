"""Tests for the Pauli noise models and the Monte-Carlo harness.

The frame engine's sampler of the declared channels is tested in
``test_stabilizer_sampler.py``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.arq import BatchedNoisyCircuitExecutor, LayoutMapper, NoisyCircuitExecutor
from repro.circuits import Circuit
from repro.circuits.compiled import compile_circuit
from repro.exceptions import ParameterError
from repro.qecc.syndrome import full_error_correction_circuit
from repro.stabilizer import (
    DepolarizingNoise,
    MonteCarloResult,
    NoiseModel,
    NoiselessModel,
    OperationNoise,
    PauliChannel,
    estimate_failure_rate,
)
from repro.stabilizer import fused as fused_module


class TestNoiselessModel:
    def test_declares_no_errors(self):
        model = NoiselessModel()
        assert model.gate_channel("CNOT", (0, 1)) is None
        assert model.preparation_channel(0) is None
        assert model.movement_channel(0, 100) is None
        assert model.measurement_flip_probability() is None


class TestOperationNoise:
    def test_probability_validation(self):
        with pytest.raises(ParameterError):
            OperationNoise(p_single=1.5)
        with pytest.raises(ParameterError):
            OperationNoise(p_measure=-0.1)

    def test_zero_rate_gates_are_still_declared(self):
        model = OperationNoise()
        assert model.gate_channel("H", (0,)) == PauliChannel(0.0, (0,), ("X", "Y", "Z"))
        assert model.gate_channel("CNOT", (0, 1)).p == 0.0

    def test_single_qubit_gate_channel(self):
        channel = OperationNoise(p_single=0.25).gate_channel("H", (3,))
        assert channel == PauliChannel(0.25, (3,), ("X", "Y", "Z"))

    def test_two_qubit_channel_lists_the_15_non_identity_pairs(self):
        channel = OperationNoise(p_double=0.5).gate_channel("CNOT", (2, 5))
        assert channel.p == 0.5 and channel.qubits == (2, 5)
        assert len(set(channel.letters)) == 15 and "II" not in channel.letters
        assert set(channel.letters) == {a + b for a in "IXYZ" for b in "IXYZ"} - {"II"}

    def test_measurement_flip_probability(self):
        assert OperationNoise(p_measure=0.125).measurement_flip_probability() == 0.125

    def test_preparation_error_is_x(self):
        channel = OperationNoise(p_prepare=1.0).preparation_channel(4)
        assert channel == PauliChannel(1.0, (4,), ("X",))

    def test_movement_error_accumulates_with_distance(self):
        model = OperationNoise(p_move_per_cell=0.01)
        short, long = model.movement_channel(0, 1), model.movement_channel(0, 50)
        assert short.p == pytest.approx(0.01)
        assert long.p == pytest.approx(1 - 0.99**50)
        assert long.letters == ("X", "Y", "Z")

    def test_movement_error_zero_cells(self):
        assert OperationNoise(p_move_per_cell=1.0).movement_channel(0, 0) is None
        assert OperationNoise().movement_channel(0, 10) is None

    def test_idle_noise_is_not_declared(self):
        assert not hasattr(OperationNoise(), "idle_channel")
        with pytest.raises(TypeError):
            OperationNoise(p_memory_per_second=0.1)

    def test_empirical_single_qubit_rate(self):
        executor = NoisyCircuitExecutor(noise=OperationNoise(p_single=0.3))
        circuit = Circuit(1).h(0)
        rng = np.random.default_rng(0)
        hits = sum(executor.run(circuit, rng).error_count for _ in range(3000))
        assert 0.27 < hits / 3000 < 0.33


class TestScalarOracleGolden:
    """The per-shot oracle keeps the built-in models' draws of v1.11.1, bit for bit."""

    GOLDEN = json.loads(
        (Path(__file__).parent / "data" / "scalar_oracle_v1_11_golden.json").read_text()
    )

    @staticmethod
    def _digest(executor, circuit, shots, seed):
        """Every shot's labelled outcomes and error count, then one more draw."""
        rng = np.random.default_rng(seed)
        digest = hashlib.sha256()
        for _ in range(shots):
            result = executor.run(circuit, rng)
            for label in sorted(result.measurements):
                digest.update(label.encode())
                digest.update(bytes([result.measurements[label]]))
            digest.update(np.int64(result.error_count).tobytes())
        digest.update(np.int64(rng.integers(2**62)).tobytes())
        return digest.hexdigest()

    def test_mapped_steane_ecc_under_all_five_rates(self):
        circuit, _, _ = full_error_correction_circuit(data_offset=0, num_qubits=21, verified=True)
        noise = OperationNoise(
            p_single=0.03, p_double=0.05, p_measure=0.02, p_prepare=0.03, p_move_per_cell=0.005
        )
        executor = NoisyCircuitExecutor(noise, LayoutMapper())
        assert self._digest(executor, circuit, 40, 2024) == self.GOLDEN["steane_ecc_mapped"]

    def test_zero_rate_gates_still_draw(self):
        circuit = Circuit(3)
        for qubit in range(3):
            circuit.prepare(qubit)
        circuit.h(0).cnot(0, 1).s(2).x(1).cz(1, 2).h(2)
        circuit.measure(0, label="a").measure(1, label="b").measure_x(2, label="c")
        noise = OperationNoise(p_single=0.0, p_double=0.1, p_measure=0.05, p_prepare=0.05)
        digest = self._digest(NoisyCircuitExecutor(noise), circuit, 300, 7)
        assert digest == self.GOLDEN["p_single_zero"]


class TestRemovedHooks:
    @pytest.mark.parametrize(
        "hook, declaration",
        [
            ("sample_gate_error", "gate_channel"),
            ("sample_gate_error_batch", "gate_channel"),
            ("sample_preparation_error_packed", "preparation_channel"),
            ("measurement_flip", "measurement_flip_probability"),
            ("measurement_flip_packed", "measurement_flip_probability"),
            ("sample_movement_error_batch", "movement_channel"),
        ],
    )
    @pytest.mark.parametrize("base", [NoiseModel, OperationNoise])
    def test_defining_a_removed_hook_fails_at_class_creation(self, base, hook, declaration):
        with pytest.raises(TypeError, match=f"override {declaration}"):
            type("OldStyleNoise", (base,), {hook: lambda self, *args: []})

    @pytest.mark.parametrize(
        "hook", ["idle_channel", "sample_idle_error", "sample_idle_error_batch", "sample_idle_error_packed"]
    )
    @pytest.mark.parametrize("base", [NoiseModel, OperationNoise])
    def test_declaring_idle_noise_fails_at_class_creation(self, base, hook):
        with pytest.raises(TypeError, match="neither engine samples idle noise"):
            type("IdleNoise", (base,), {hook: lambda self, *args: None})

    def test_declaring_subclasses_are_accepted(self):
        class Declared(OperationNoise):
            def gate_channel(self, name, qubits):
                return None

        assert Declared(p_single=0.5).gate_channel("H", (0,)) is None


class TestDepolarizingNoise:
    def test_sets_all_rates(self):
        model = DepolarizingNoise(0.01)
        assert model.p_single == model.p_double == model.p_measure == 0.01
        assert model.p_move_per_cell == 0.01

    def test_movement_override(self):
        model = DepolarizingNoise(0.01, p_move_per_cell=1e-6)
        assert model.p_move_per_cell == 1e-6
        assert model.p_single == 0.01

    def test_rejects_invalid_probability(self):
        with pytest.raises(ParameterError):
            DepolarizingNoise(2.0)


class TestMonteCarlo:
    def test_failure_rate_and_error(self):
        result = MonteCarloResult(failures=10, trials=100)
        assert result.failure_rate == pytest.approx(0.1)
        assert result.standard_error == pytest.approx(np.sqrt(0.1 * 0.9 / 100))

    def test_zero_trials(self):
        result = MonteCarloResult(failures=0, trials=0)
        assert result.failure_rate == 0.0
        assert result.standard_error == 0.0

    def test_confidence_interval_clipped_to_unit_range(self):
        result = MonteCarloResult(failures=0, trials=10)
        low, high = result.confidence_interval()
        assert low == 0.0 and high <= 1.0

    def test_confidence_interval_is_wilson(self):
        low, high = MonteCarloResult(failures=10, trials=100).confidence_interval()
        assert (low, high) == pytest.approx((0.05523, 0.17437), abs=1e-5)
        low, high = MonteCarloResult(failures=100, trials=100).confidence_interval()
        assert 0.9 < low < 1.0 and high == pytest.approx(1.0)

    def test_zero_failures_give_a_positive_upper_bound(self):
        low, high = MonteCarloResult(failures=0, trials=1000).confidence_interval()
        assert low == 0.0
        assert high == pytest.approx(1.96**2 / (1000 + 1.96**2))
        assert MonteCarloResult(failures=0, trials=0).confidence_interval() == (0.0, 1.0)

    def test_estimate_failure_rate_counts_correctly(self, rng):
        result = estimate_failure_rate(lambda g: g.random() < 0.5, trials=2000, rng=rng)
        assert result.trials == 2000
        assert 0.45 < result.failure_rate < 0.55

    def test_estimate_with_always_failing_trial(self, rng):
        result = estimate_failure_rate(lambda g: True, trials=50, rng=rng)
        assert result.failure_rate == 1.0

    def test_early_stop_on_max_failures(self, rng):
        result = estimate_failure_rate(lambda g: True, trials=1000, rng=rng, max_failures=10)
        assert result.failures == 10
        assert result.trials == 10

    def test_zero_trials_requested(self, rng):
        result = estimate_failure_rate(lambda g: True, trials=0, rng=rng)
        assert result.trials == 0


def _wilson(successes: int, trials: int, z: float = 4.0) -> tuple[float, float]:
    """Wilson score interval; z = 4 keeps fixed-seed checks far from flaky."""
    phat = successes / trials
    denominator = 1.0 + z * z / trials
    centre = (phat + z * z / (2 * trials)) / denominator
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return centre - half / denominator, centre + half / denominator


class _CrosstalkNoise(NoiseModel):
    """A custom model whose gate failures spread over three qubits.

    A gate on ``q`` fails with probability ``p`` and then leaves one of the
    27 strings of X, Y and Z on ``q``, ``q + 1`` and ``q + 2`` (mod ``n``),
    drawn uniformly; a measurement flips with probability ``p_flip``.
    """

    LETTERS = tuple("".join(word) for word in itertools.product("XYZ", repeat=3))

    def __init__(self, n: int, p: float, p_flip: float) -> None:
        self.n, self.p, self.p_flip = n, p, p_flip

    def gate_channel(self, name, qubits):
        support = tuple((qubits[0] + j) % self.n for j in range(3))
        return PauliChannel(self.p, support, self.LETTERS)

    def measurement_flip_probability(self):
        return self.p_flip


def _crosstalk_circuit() -> Circuit:
    circuit = Circuit(5)
    for qubit in range(5):
        circuit.prepare(qubit)
    circuit.h(0).cnot(0, 1).s(2).cnot(2, 3).h(4).cz(3, 4).x(1)
    for qubit in range(4):
        circuit.measure(qubit, label=f"m{qubit}")
    return circuit.measure_x(4, label="x4")


@pytest.fixture(params=fused_module.KERNEL_TIERS)
def tier(request, monkeypatch):
    """Run the test on each kernel tier this host has."""
    if request.param == "cext" and fused_module._cext_kernel() is None:
        pytest.skip("no C kernel on this host")
    monkeypatch.setenv("REPRO_FUSED_KERNEL", request.param)
    monkeypatch.setattr(fused_module, "_TIER_CACHE", {})
    return request.param


class TestThreeQubitChannels:
    """Channels on three-qubit supports: template-local letter-code rows."""

    def test_crosstalk_model_agrees_with_scalar_oracle(self, tier, monkeypatch):
        widths = []
        run_kernel = fused_module._run_kernel

        def spying(tier, W, B, seed, plan, reference, template, *args):
            widths.append(template.code_xz.shape)
            return run_kernel(tier, W, B, seed, plan, reference, template, *args)

        monkeypatch.setattr(fused_module, "_run_kernel", spying)
        noise = _CrosstalkNoise(5, p=0.3, p_flip=0.05)
        circuit = _crosstalk_circuit()
        batch = 2000
        frame = BatchedNoisyCircuitExecutor(noise=noise).run(
            circuit, batch, np.random.default_rng(31)
        )
        # The shared rows, padded to three qubits, then the 27 local letters.
        assert widths == [(len(fused_module._CODE_XZ) + 27, 3)]
        rng = np.random.default_rng(32)
        shots = [NoisyCircuitExecutor(noise=noise).run(circuit, rng) for _ in range(1500)]
        for label in frame.measurements:
            frame_ones = int(frame.measurements[label].sum())
            scalar_ones = sum(shot.measurements[label] for shot in shots)
            frame_low, frame_high = _wilson(frame_ones, batch)
            scalar_low, scalar_high = _wilson(scalar_ones, len(shots))
            assert frame_low <= scalar_high and scalar_low <= frame_high, (
                label, frame_ones, scalar_ones
            )
        frame_errors = int(frame.error_count.sum())
        scalar_errors = sum(shot.error_count for shot in shots)
        # Events per lane: 7 failable gates and 5 flips, each counted once.
        events = 12
        frame_low, frame_high = _wilson(frame_errors, events * batch)
        scalar_low, scalar_high = _wilson(scalar_errors, events * len(shots))
        assert frame_low <= scalar_high and scalar_low <= frame_high

    def test_templates_are_cached_per_attribute_values(self):
        plan = fused_module._plan_for(compile_circuit(_crosstalk_circuit()))

        def template(noise):
            return fused_module._template_for(plan, (noise,))

        first = template(_CrosstalkNoise(5, 0.3, 0.05))
        again = template(_CrosstalkNoise(5, 0.3, 0.05))
        other = template(_CrosstalkNoise(5, 0.2, 0.05))
        assert first is again and other is not first
        # Unhashable attribute values: declared afresh, never cached.
        unhashable = _CrosstalkNoise(5, 0.3, 0.05)
        unhashable.notes = []
        cached = len(plan.template_cache)
        fresh = template(unhashable)
        assert fresh is not first and len(plan.template_cache) == cached
        assert np.array_equal(fresh.code_xz, first.code_xz)


class _ScalarGateOverride(OperationNoise):
    """Declares an X after every gate, with every built-in rate at 0."""

    def gate_channel(self, name, qubits):
        return PauliChannel(1.0, (qubits[0],), ("X",))


class TestDeclaredNoiseLaw:
    def test_gate_override_reaches_the_frame_engine(self, tier):
        noise = _ScalarGateOverride(p_single=0.0, p_double=0.0, p_measure=0.0, p_prepare=0.0)
        circuit = Circuit(1).x(0).measure(0, label="m")
        rng = np.random.default_rng(0)
        scalar = [NoisyCircuitExecutor(noise=noise).run(circuit, rng) for _ in range(64)]
        assert all(shot.measurements["m"] == 0 for shot in scalar)
        frame = BatchedNoisyCircuitExecutor(noise=noise).run(circuit, 256, rng)
        assert not frame.measurements["m"].any()
        assert (frame.error_count == 1).all()
