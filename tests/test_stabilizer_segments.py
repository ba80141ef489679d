"""Segmented runs: several ``(program, noise)`` segments in one kernel call.

A run of segments concatenates its programs into one kernel program with one
reference pass and one noise template, in which each operation declares its
channels from its own segment's model.  So a run whose segments share one
model is exactly the one program that concatenates them, bit for bit, and in
a run of different models each segment's events are the ones its model
declares for it alone.  The segments here put random measurements in the
middle and last segments and cover built-in, noiseless and custom models --
whose alphabets add letter-code rows of their own -- on both kernel tiers.
A run takes one value from its generator, whatever its segments.
"""

from __future__ import annotations

import copy
import itertools

import numpy as np
import pytest

from repro.arq import BatchedNoisyCircuitExecutor, LayoutMapper
from repro.circuits import Circuit
from repro.circuits.compiled import CompiledCircuit, compile_circuit
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


def _concatenated(programs) -> CompiledCircuit:
    """One program running ``programs`` one after the other."""
    offsets = np.cumsum([0] + [program.num_measurements for program in programs])
    return CompiledCircuit(
        num_qubits=max(program.num_qubits for program in programs),
        opcodes=np.concatenate([program.opcodes for program in programs]),
        qubit0=np.concatenate([program.qubit0 for program in programs]),
        qubit1=np.concatenate([program.qubit1 for program in programs]),
        movement_exposure=np.concatenate([program.movement_exposure for program in programs]),
        moved_qubit=np.concatenate([program.moved_qubit for program in programs]),
        measurement_slot=np.concatenate(
            [
                np.where(program.measurement_slot >= 0, program.measurement_slot + offset, -1)
                for program, offset in zip(programs, offsets.tolist())
            ]
        ),
        measurement_labels=sum((program.measurement_labels for program in programs), ()),
        name="concatenated",
    )


def _declared(template, k: int) -> tuple:
    """The events before and after operation ``k``: probability, support, letters."""
    events = []
    for e in (int(template.pre_inj[k]), int(template.post_inj[k])):
        if e < 0:
            events.append(None)
            continue
        start, end = int(template.inj_start[e]), int(template.inj_start[e + 1])
        code = int(template.event_code[e])
        letters = template.code_xz[code : code + int(template.event_letters[e]), : end - start]
        events.append(
            (float(template.p[e]), tuple(template.inj_qubit[start:end].tolist()), letters.tolist())
        )
    return tuple(events)


def _run(segments, batch, rng):
    state = PauliFrameBatch(4, batch, rng=rng)
    words, errors = execute_fused(segments, batch, rng, state)
    return words, errors, state


MODELS = {
    "built-in": (NOISE, DepolarizingNoise(0.08), NOISE),
    "noiseless-middle": (NOISE, NoiselessModel(), DepolarizingNoise(0.2)),
    "crosstalk-middle": (NOISE, _CrosstalkNoise(p_single=0.2, p_measure=0.1), NOISE),
    "custom": (_PairNoise(p_prepare=0.2, p_double=0.3), _CrosstalkNoise(p_single=0.3), NOISE),
}


class TestSegmentedRun:
    @pytest.mark.parametrize("noise", [NOISE, _CrosstalkNoise(p_single=0.2, p_measure=0.1)])
    @pytest.mark.parametrize("batch", BATCHES)
    def test_run_equals_the_concatenated_program(self, tier, noise, batch):
        programs = _programs()
        segments = [(program, noise) for program in programs]
        for seed in range(3):
            words, errors, state = _run(segments, batch, np.random.default_rng([seed, batch]))
            rng = np.random.default_rng([seed, batch])
            expected = PauliFrameBatch(4, batch, rng=rng)
            expected_words, expected_errors = execute_fused(
                _concatenated(programs), batch, rng, expected, noise
            )
            assert np.array_equal(words, expected_words)
            assert np.array_equal(errors, expected_errors)
            assert np.array_equal(state.frame_x, expected.frame_x)
            assert np.array_equal(state.frame_z, expected.frame_z)
            assert state.reference is expected.reference

    @pytest.mark.parametrize("models", sorted(MODELS))
    def test_each_segment_declares_from_its_own_model(self, models):
        programs = _programs()
        run_template = fused_module._template_for(
            fused_module._plan_for(*programs), MODELS[models]
        )
        first = 0
        for program, model in zip(programs, MODELS[models]):
            own = fused_module._template_for(fused_module._plan_for(program), (model,))
            for k in range(program.num_operations):
                assert _declared(run_template, first + k) == _declared(own, k), (models, k)
            first += program.num_operations

    @pytest.mark.parametrize("models", sorted(MODELS))
    @pytest.mark.parametrize("batch", BATCHES)
    def test_both_tiers_give_the_same_run(self, monkeypatch, models, batch):
        if fused_module._cext_kernel() is None:
            pytest.skip("no C kernel on this host")
        segments = list(zip(_programs(), MODELS[models]))
        runs = []
        for tier in fused_module.KERNEL_TIERS:
            monkeypatch.setenv("REPRO_FUSED_KERNEL", tier)
            runs.append(_run(segments, batch, np.random.default_rng(batch)))
        (words, errors, state), (numpy_words, numpy_errors, numpy_state) = runs
        assert np.array_equal(words, numpy_words)
        assert np.array_equal(errors, numpy_errors)
        assert np.array_equal(state.frame_x, numpy_state.frame_x)
        assert np.array_equal(state.frame_z, numpy_state.frame_z)

    @pytest.mark.parametrize("segments", [1, 3])
    def test_a_run_takes_one_generator_value(self, segments):
        run = list(zip(_programs(), MODELS["custom"]))[:segments]
        rng = np.random.default_rng(6)
        twin = copy.deepcopy(rng)
        _run(run, 70, rng)
        twin.bit_generator.random_raw()
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_one_kernel_call_and_one_reference_pass(self, monkeypatch):
        calls, passes = [], []
        run_kernel, reference_pass = fused_module._run_kernel, fused_module._reference_pass

        def counting_kernel(*args):
            calls.append(args[4].opcodes.size)
            return run_kernel(*args)

        def counting_pass(plan, start):
            passes.append(plan.opcodes.size)
            return reference_pass(plan, start)

        monkeypatch.setattr(fused_module, "_run_kernel", counting_kernel)
        monkeypatch.setattr(fused_module, "_reference_pass", counting_pass)
        monkeypatch.setattr(fused_module, "_REFERENCE_CACHE", {})
        programs = _programs()
        _run(list(zip(programs, MODELS["built-in"])), 70, np.random.default_rng(4))
        total = sum(program.opcodes.size for program in programs)
        assert calls == [total] and passes == [total]

    def test_custom_alphabets_share_one_code_table(self):
        """Guard: each custom alphabet adds its letters to the run's table once."""
        template = fused_module._template_for(
            fused_module._plan_for(*_programs()), MODELS["custom"]
        )
        # The shared rows, then two pair letters and 27 crosstalk letters.
        assert template.code_xz.shape == (len(fused_module._CODE_XZ) + 2 + 27, 3)

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
        words, _ = execute_fused(
            [(executor.compile(first), NoiselessModel()), (executor.compile(second), NOISE)],
            130,
            twin,
            state,
        )
        assert np.array_equal(result.outcome_words, words)
        assert np.array_equal(result.tableau.frame_x, state.frame_x)
