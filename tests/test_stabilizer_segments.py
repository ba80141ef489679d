"""Segmented runs: several ``(program, noise)`` segments in one kernel call.

A run of segments must draw and produce exactly what its segments produce
as separate :func:`execute_fused` calls on the same generator: the same
outcome words (one segment's slots after another's), frames, per-lane error
counts, final reference and generator state.  The segments here put random
measurements in the middle and last segments, so the interleaving of noise
blocks and measurement words is checked, and cover built-in, noiseless and
custom models on both kernel tiers.  The custom models declare alphabets
of their own, so the merge of per-template letter-code tables is covered.
"""

from __future__ import annotations

import copy
import itertools

import numpy as np
import pytest

from repro.arq import BatchedNoisyCircuitExecutor, LayoutMapper
from repro.circuits import Circuit
from repro.circuits.compiled import compile_circuit
from repro.exceptions import SimulationError
from repro.stabilizer import (
    DepolarizingNoise,
    NoiselessModel,
    OperationNoise,
    PauliChannel,
    PauliFrameBatch,
    kernel_tier,
)
from repro.stabilizer import fused as fused_module
from repro.stabilizer.fused import execute_fused

BATCHES = (1, 65, 130)

NOISE = OperationNoise(
    p_single=0.05, p_double=0.1, p_measure=0.05, p_prepare=0.05, p_move_per_cell=0.01
)


class _CrosstalkNoise(OperationNoise):
    """A gate leaves one of the 27 X/Y/Z strings on its qubit and the next two."""

    LETTERS = tuple("".join(word) for word in itertools.product("XYZ", repeat=3))

    def gate_channel(self, name, qubits):
        support = tuple((qubits[0] + j) % 4 for j in range(3))
        return PauliChannel(self.p_single, support, self.LETTERS)


class _PairNoise(OperationNoise):
    """A gate leaves XX or ZZ on its first qubit and the next: a two-letter alphabet."""

    def gate_channel(self, name, qubits):
        return PauliChannel(self.p_double, (qubits[0], (qubits[0] + 1) % 4), ("XX", "ZZ"))


@pytest.fixture(params=fused_module.KERNEL_TIERS)
def tier(request, monkeypatch):
    """Run the test on each kernel tier this host has."""
    if request.param == "cext" and fused_module._cext_kernel() is None:
        pytest.skip("no C kernel on this host")
    monkeypatch.setenv("REPRO_FUSED_KERNEL", request.param)
    monkeypatch.setattr(fused_module, "_TIER_CACHE", {})
    assert kernel_tier() == request.param
    return request.param


def _programs():
    """Three segments on four qubits; the middle and last measure at random."""
    first = Circuit(4, name="first")
    for qubit in range(4):
        first.prepare(qubit)
    first.x(2).cnot(2, 3).measure(3, label="d0")
    middle = Circuit(4, name="middle")
    middle.h(0).cnot(0, 1).measure(1, label="r0").measure_x(2, label="r1")
    middle.s(3).swap(2, 3).measure(0, label="r2")
    last = Circuit(4, name="last")
    last.cz(0, 2).h(1).cnot(1, 3).measure(0, label="e0").measure_x(1, label="e1")
    last.prepare(2).h(2).measure(2, label="e2")
    mapper = LayoutMapper()
    return [compile_circuit(circuit, mapper=mapper) for circuit in (first, middle, last)]


def _separate(segments, batch, rng):
    """The segments as separate calls: ``(words, error_count, state)``."""
    state = PauliFrameBatch(4, batch, rng=rng)
    words, errors = [], np.zeros(batch, dtype=np.int64)
    for program, noise in segments:
        out, count = execute_fused(program, batch, rng, state, noise)
        words.append(out)
        errors += count
    return np.concatenate(words), errors, state


MODELS = {
    "built-in": (NOISE, DepolarizingNoise(0.08), NOISE),
    "noiseless-middle": (NOISE, NoiselessModel(), DepolarizingNoise(0.2)),
    "crosstalk-middle": (NOISE, _CrosstalkNoise(p_single=0.2, p_measure=0.1), NOISE),
    "custom": (_PairNoise(p_prepare=0.2, p_double=0.3), _CrosstalkNoise(p_single=0.3), NOISE),
}


class TestSegmentedRun:
    @pytest.mark.parametrize("models", sorted(MODELS))
    @pytest.mark.parametrize("batch", BATCHES)
    def test_run_equals_its_segments_as_separate_calls(self, tier, models, batch):
        segments = list(zip(_programs(), MODELS[models]))
        for seed in range(3):
            rng = np.random.default_rng([seed, batch])
            twin = copy.deepcopy(rng)
            state = PauliFrameBatch(4, batch, rng=rng)
            words, errors = execute_fused(segments, batch, rng, state)
            expected_words, expected_errors, expected = _separate(segments, batch, twin)
            assert np.array_equal(words, expected_words)
            assert np.array_equal(errors, expected_errors)
            assert np.array_equal(state.frame_x, expected.frame_x)
            assert np.array_equal(state.frame_z, expected.frame_z)
            for plane in ("_x", "_z", "_r"):
                assert np.array_equal(
                    getattr(state.reference, plane), getattr(expected.reference, plane)
                )
            # The same draws, in the same order: the generators agree after.
            assert rng.bit_generator.state == twin.bit_generator.state

    def test_middle_segment_draws_words_between_the_blocks(self):
        """Guard: the middle and last segments really measure at random."""
        programs = _programs()
        plan = fused_module._plan_for(*programs)
        state = PauliFrameBatch(4, 8, rng=np.random.default_rng(0))
        bounds = fused_module._reference_for(plan, state).draw_bounds
        assert bounds[1] == bounds[0] == 0 and 0 < bounds[2] < bounds[3]

    def test_one_kernel_call_and_one_reference_pass(self, monkeypatch):
        calls, passes = [], []
        run_kernel, reference_pass = fused_module._run_kernel, fused_module._reference_pass

        def counting_kernel(*args):
            calls.append(args[2].opcodes.size)
            return run_kernel(*args)

        def counting_pass(plan, start):
            passes.append(plan.opcodes.size)
            return reference_pass(plan, start)

        monkeypatch.setattr(fused_module, "_run_kernel", counting_kernel)
        monkeypatch.setattr(fused_module, "_reference_pass", counting_pass)
        monkeypatch.setattr(fused_module, "_REFERENCE_CACHE", {})
        programs = _programs()
        segments = list(zip(programs, MODELS["built-in"]))
        rng = np.random.default_rng(4)
        execute_fused(segments, 70, rng, PauliFrameBatch(4, 70, rng=rng))
        total = sum(program.opcodes.size for program in programs)
        assert calls == [total] and passes == [total]

    def test_custom_code_tables_are_merged(self, monkeypatch):
        """Guard: each custom template brings its own table, offset in the merge."""
        tables = []
        run_kernel = fused_module._run_kernel

        def spying(tier, W, plan, reference, block, *args):
            tables.append(block.code_xz)
            return run_kernel(tier, W, plan, reference, block, *args)

        monkeypatch.setattr(fused_module, "_run_kernel", spying)
        segments = list(zip(_programs(), MODELS["custom"]))
        rng = np.random.default_rng(1)
        execute_fused(segments, 70, rng, PauliFrameBatch(4, 70, rng=rng))
        shared = fused_module._CODE_XZ
        # Shared rows plus two pair letters, shared rows plus 27 crosstalk
        # letters, then the built-in segment's shared rows.
        assert tables[0].shape == (3 * len(shared) + 2 + 27, 3)

    def test_noise_goes_in_the_segments(self):
        segments = list(zip(_programs(), MODELS["built-in"]))
        rng = np.random.default_rng(0)
        with pytest.raises(SimulationError, match="segment"):
            execute_fused(segments, 8, rng, PauliFrameBatch(4, 8, rng=rng), NOISE)
        with pytest.raises(SimulationError, match="at least one segment"):
            execute_fused([], 8, rng, PauliFrameBatch(4, 8, rng=rng))


class TestExecutorSegments:
    def test_executor_labels_follow_the_segments(self):
        first = Circuit(2).prepare(0).h(0).measure(0, label="a")
        second = Circuit(2).cnot(0, 1).measure(1, label="b")
        executor = BatchedNoisyCircuitExecutor(noise=NOISE, mapper=LayoutMapper())
        rng = np.random.default_rng(3)
        twin = copy.deepcopy(rng)
        result = executor.run([(first, NoiselessModel()), (second, NOISE)], 130, rng)
        assert result.labels == ("a", "b")
        # A Circuit segment compiles against the executor's mapper, as a
        # single circuit does.
        state = PauliFrameBatch(2, 130, rng=twin)
        BatchedNoisyCircuitExecutor(noise=NoiselessModel()).run(first, 130, twin, tableau=state)
        second_run = executor.run(second, 130, twin, tableau=state)
        assert np.array_equal(result.measurements["b"], second_run.measurements["b"])
        assert np.array_equal(result.tableau.frame_x, state.frame_x)
