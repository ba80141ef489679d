"""Noisy execution of circuits on the stabilizer backend.

This is the execution core of ARQ: every operation of a (mapped) circuit is
applied to a CHP tableau, followed by Pauli errors sampled from the Pauli
channels the technology noise model declares -- gate errors after gates,
preparation errors after resets, classical flips on measurement outcomes, and
movement-induced depolarisation before two-qubit gates whose operands had to
be shuttled together.
Measurement outcomes are collected by label so that syndrome post-processing
(decoding, verification checks) can run exactly as the classical control
system would run it.

Two executors share those semantics:

* :class:`NoisyCircuitExecutor` runs one shot at a time on a scalar
  :class:`~repro.stabilizer.tableau.StabilizerTableau`; circuits are mapped
  once and the mapping cached, so repeated shots of the same circuit pay no
  per-shot mapping cost.
* :class:`BatchedNoisyCircuitExecutor` runs ``B`` independent noisy shots
  simultaneously as bit-packed Pauli frames
  (:class:`~repro.stabilizer.fused.PauliFrameBatch`), one kernel call per
  compiled circuit (:mod:`repro.circuits.compiled`) or per run of several
  circuits, each under its own noise model -- the engine behind the
  Monte-Carlo experiments.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.arq.mapper import LayoutMapper, MappedCircuit
from repro.circuits import Circuit
from repro.circuits.compiled import CompiledCircuit, compile_circuit
from repro.circuits.gate import OpKind
from repro.exceptions import SimulationError
from repro.pauli import PauliString, PauliTerm
from repro.stabilizer import (
    NoiseModel,
    NoiselessModel,
    PauliFrameBatch,
    StabilizerTableau,
    execute_fused,
    unpack_bits,
)
from repro.stabilizer.noise import PauliChannel, check_channel, flip_probability

__all__ = [
    "create_batch_tableau",
    "ExecutionResult",
    "BatchExecutionResult",
    "NoisyCircuitExecutor",
    "BatchedNoisyCircuitExecutor",
]


def create_batch_tableau(
    num_qubits: int,
    batch_size: int,
    rng: np.random.Generator | None = None,
) -> PauliFrameBatch:
    """Create the all-|0> batched state: ``batch_size`` Pauli frames."""
    return PauliFrameBatch(num_qubits, batch_size, rng=rng)


@dataclass
class ExecutionResult:
    """Outcome of one noisy circuit execution.

    Attributes
    ----------
    tableau:
        Final stabilizer state (measured qubits collapsed).
    measurements:
        Measurement outcomes keyed by operation label; unlabeled measurements
        are keyed by ``"m<index>"`` where index is the operation position.
    error_count:
        Number of Pauli error events injected during the run.
    """

    tableau: StabilizerTableau
    measurements: dict[str, int] = field(default_factory=dict)
    error_count: int = 0

    def bits(self, labels: list[str] | tuple[str, ...]) -> list[int]:
        """Measurement outcomes for a list of labels, in order."""
        missing = [label for label in labels if label not in self.measurements]
        if missing:
            raise SimulationError(f"missing measurement labels: {missing}")
        return [self.measurements[label] for label in labels]


@dataclass
class BatchExecutionResult:
    """Outcome of a batched noisy circuit execution (``B`` lanes at once).

    Attributes
    ----------
    tableau:
        Final batched state.
    outcome_words:
        ``(M, W)`` uint64 measurement outcomes, one row per measurement slot,
        64 lanes per word.
    labels:
        The label of each measurement slot.  Unlabeled measurements are keyed
        ``"m<index>"`` exactly like the per-shot executor.
    error_count:
        ``(B,)`` int64 array counting Pauli error events injected per lane.
    """

    tableau: PauliFrameBatch
    outcome_words: np.ndarray
    labels: tuple[str, ...]
    error_count: np.ndarray

    @cached_property
    def measurements(self) -> dict[str, np.ndarray]:
        """Outcomes keyed by label, each a ``(B,)`` uint8 array (unpacked on first use)."""
        batch_size = self.tableau.batch_size
        return {
            label: unpack_bits(self.outcome_words[slot], batch_size)
            for slot, label in enumerate(self.labels)
        }

    def bits(self, labels: list[str] | tuple[str, ...]) -> np.ndarray:
        """Per-lane outcomes for a list of labels as a ``(B, len(labels))`` array."""
        missing = [label for label in labels if label not in self.measurements]
        if missing:
            raise SimulationError(f"missing measurement labels: {missing}")
        return np.stack([self.measurements[label] for label in labels], axis=1)


class NoisyCircuitExecutor:
    """Execute circuits on a stabilizer tableau under a Pauli noise model.

    Parameters
    ----------
    noise:
        The noise model (defaults to noiseless execution).
    mapper:
        Layout mapper supplying movement budgets for two-qubit gates; pass
        None to execute without movement noise (pure circuit-level noise).
    """

    def __init__(
        self,
        noise: NoiseModel | None = None,
        mapper: LayoutMapper | None = None,
    ) -> None:
        self._noise = noise if noise is not None else NoiselessModel()
        self._mapper = mapper
        # Cache of mapped circuits keyed (weakly) by circuit identity.
        # Monte-Carlo loops run the same Circuit object for every shot;
        # re-mapping it each time costs O(ops) per shot for an identical
        # result.  Weak keys make entries die with their circuit, so a freed
        # circuit's reused memory address can never resurrect a stale entry
        # and the cache cannot grow without bound.  The operation count is
        # stored alongside so a circuit mutated after mapping (the Circuit
        # API allows appends) is transparently re-mapped.
        self._mapped_cache: weakref.WeakKeyDictionary[Circuit, tuple[int, MappedCircuit]] = (
            weakref.WeakKeyDictionary()
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self,
        circuit: Circuit,
        rng: np.random.Generator,
        tableau: StabilizerTableau | None = None,
    ) -> ExecutionResult:
        """Run a circuit once and return the execution result.

        Parameters
        ----------
        circuit:
            The circuit to execute.
        rng:
            Random generator for both measurement randomness and noise.
        tableau:
            Optional pre-initialised state (e.g. an ideally prepared logical
            qubit); a fresh all-|0> register is created when omitted.
        """
        state = tableau if tableau is not None else StabilizerTableau(circuit.num_qubits, rng=rng)
        if state.num_qubits < circuit.num_qubits:
            raise SimulationError(
                f"tableau has {state.num_qubits} qubits but the circuit needs "
                f"{circuit.num_qubits}"
            )
        mapped = self._mapped_circuit(circuit)
        result = ExecutionResult(tableau=state)

        operations = mapped.operations if mapped is not None else None
        for index, operation in enumerate(circuit):
            movement = None
            moved_qubit = None
            if operations is not None:
                movement = operations[index].movement
                moved_qubit = operations[index].moved_qubit

            if movement is not None and moved_qubit is not None:
                exposure = movement.cells + movement.corner_turns + movement.splits
                channel = self._noise.movement_channel(moved_qubit, exposure)
                self._inject(state, channel, rng, result)

            if operation.kind is OpKind.PREPARE:
                state.reset(operation.qubits[0])
                channel = self._noise.preparation_channel(operation.qubits[0])
                self._inject(state, channel, rng, result)
            elif operation.kind is OpKind.MEASURE:
                outcome = state.measure(operation.qubits[0]).value
                outcome = self._maybe_flip(outcome, rng, result)
                self._record(result, operation.label, index, outcome)
            elif operation.kind is OpKind.MEASURE_X:
                outcome = state.measure_x(operation.qubits[0]).value
                outcome = self._maybe_flip(outcome, rng, result)
                self._record(result, operation.label, index, outcome)
            else:
                if not operation.is_clifford:
                    raise SimulationError(
                        f"gate {operation.name} is not Clifford; ARQ simulates the "
                        "stabilizer subset of circuits only"
                    )
                state.apply_gate(operation.name, operation.qubits)
                channel = self._noise.gate_channel(operation.name, operation.qubits)
                self._inject(state, channel, rng, result)
        return result

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _mapped_circuit(self, circuit: Circuit) -> MappedCircuit | None:
        if self._mapper is None:
            return None
        cached = self._mapped_cache.get(circuit)
        if cached is not None and cached[0] == len(circuit):
            return cached[1]
        mapped = self._mapper.map_circuit(circuit)
        self._mapped_cache[circuit] = (len(circuit), mapped)
        return mapped

    @staticmethod
    def _record(result: ExecutionResult, label: str, index: int, outcome: int) -> None:
        key = label if label else f"m{index}"
        if key in result.measurements:
            raise SimulationError(
                f"duplicate measurement label {key!r}; labels must be unique so "
                "syndrome bookkeeping cannot silently overwrite outcomes"
            )
        result.measurements[key] = outcome

    def _maybe_flip(self, outcome: int, rng: np.random.Generator, result: ExecutionResult) -> int:
        p = flip_probability(self._noise)
        if p is not None and rng.random() < p:
            result.error_count += 1
            return outcome ^ 1
        return outcome

    @staticmethod
    def _inject(
        state: StabilizerTableau,
        channel: PauliChannel | None,
        rng: np.random.Generator,
        result: ExecutionResult,
    ) -> None:
        """Sample one declared channel for this shot and apply its Pauli.

        The shot fails with probability ``p`` and then takes one of the
        channel's letters uniformly -- one uniform draw, then one integer
        draw when there is a choice -- independently of the frame engine's
        block sampler, which it cross-checks.
        """
        if channel is None:
            return
        check_channel(channel)
        for qubit in channel.qubits:
            if qubit >= state.num_qubits:
                raise SimulationError(
                    f"noise model emitted qubit {qubit} outside register of size "
                    f"{state.num_qubits}"
                )
        if not rng.random() < channel.p:
            return
        letters = channel.letters
        letter = letters[int(rng.integers(len(letters)))] if len(letters) > 1 else letters[0]
        terms = [
            PauliTerm(qubit=qubit, letter=single)
            for qubit, single in zip(channel.qubits, letter)
            if single != "I"
        ]
        state.apply_pauli(PauliString.from_terms(terms, num_qubits=state.num_qubits))
        result.error_count += 1


class BatchedNoisyCircuitExecutor:
    """Execute ``B`` independent noisy shots of a circuit simultaneously.

    The executor compiles each circuit once (movement exposure from the layout
    mapper baked in, see :func:`repro.circuits.compiled.compile_circuit`) and
    then runs the whole program on a
    :class:`~repro.stabilizer.fused.PauliFrameBatch` in one kernel call
    (:func:`~repro.stabilizer.fused.execute_fused`): every gate, reset,
    measurement and noise record acts on 64 lanes per machine word.

    Semantics match :class:`NoisyCircuitExecutor` lane for lane: movement
    errors precede the operation that required the shuttle, gate/preparation
    errors follow the ideal operation, measurement outcomes may be classically
    flipped, and results are collected under the same labels.

    Parameters
    ----------
    noise:
        The noise model of a single-circuit run (defaults to noiseless
        execution); a run of segments names one per segment.  Every model,
        built-in or custom, is sampled from its declared Pauli channels
        inside the kernel, from one seed per run.
    mapper:
        Layout mapper supplying movement budgets; None disables movement noise.
    """

    def __init__(
        self,
        noise: NoiseModel | None = None,
        mapper: LayoutMapper | None = None,
    ) -> None:
        self._noise = noise if noise is not None else NoiselessModel()
        self._mapper = mapper
        # Weak keys for the same reason as the per-shot mapped-circuit cache:
        # entries die with their circuit, so id reuse cannot serve a stale
        # compiled program and the cache stays bounded.
        self._compiled_cache: weakref.WeakKeyDictionary[
            Circuit, tuple[int, CompiledCircuit]
        ] = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def compile(self, circuit: Circuit) -> CompiledCircuit:
        """Compile (and cache) a circuit against this executor's mapper."""
        cached = self._compiled_cache.get(circuit)
        if cached is not None and cached[0] == len(circuit):
            return cached[1]
        compiled = compile_circuit(circuit, mapper=self._mapper)
        self._compiled_cache[circuit] = (len(circuit), compiled)
        return compiled

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self,
        circuit: (
            Circuit | CompiledCircuit | Sequence[tuple[Circuit | CompiledCircuit, NoiseModel]]
        ),
        batch_size: int,
        rng: np.random.Generator,
        tableau: PauliFrameBatch | None = None,
    ) -> BatchExecutionResult:
        """Run ``batch_size`` independent noisy shots of a circuit.

        Parameters
        ----------
        circuit:
            The circuit to execute under this executor's noise model, either
            a :class:`Circuit` (compiled and cached on first use) or an
            already-compiled program; or a run given as ordered ``(circuit,
            noise)`` segments, each under its own noise model.  The segments
            run in one kernel call, as one program that concatenates them;
            their measurement slots follow one another.
        batch_size:
            Number of independent lanes to simulate.
        rng:
            Random generator of the run: it gives the one 64-bit seed from
            which the kernel draws the run's noise and measurement words.
        tableau:
            Optional pre-initialised batched state; a fresh all-|0> batch is
            created when omitted.  Its batch size must equal ``batch_size``.
        """
        if isinstance(circuit, (Circuit, CompiledCircuit)):
            segments = ((circuit, self._noise),)
        else:
            segments = tuple(circuit)
        programs = tuple(
            each if isinstance(each, CompiledCircuit) else self.compile(each)
            for each, _ in segments
        )
        if batch_size <= 0:
            raise SimulationError("batch_size must be positive")
        if tableau is None:
            num_qubits = max(program.num_qubits for program in programs)
            state = create_batch_tableau(num_qubits, batch_size, rng=rng)
        elif not isinstance(tableau, PauliFrameBatch):
            raise SimulationError(
                f"a pre-initialised {type(tableau).__name__} conflicts with the "
                "batched engine; pass a PauliFrameBatch"
            )
        else:
            state = tableau
        if state.batch_size != batch_size:
            raise SimulationError(
                f"tableau batch size {state.batch_size} does not match requested "
                f"batch size {batch_size}"
            )
        outcome_words, error_count = execute_fused(
            tuple(zip(programs, (noise for _, noise in segments))), batch_size, rng, state
        )
        labels = programs[0].measurement_labels
        for program in programs[1:]:
            labels += program.measurement_labels
        return BatchExecutionResult(
            tableau=state,
            outcome_words=outcome_words,
            labels=labels,
            error_count=error_count,
        )
