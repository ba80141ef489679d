"""Compiled circuit intermediate representation for batched execution.

Interpreting a :class:`~repro.circuits.circuit.Circuit` one
:class:`~repro.circuits.gate.Operation` object at a time is fine for a single
shot, but Monte-Carlo experiments run the *same* circuit tens of thousands of
times: re-dispatching on Python objects (and re-running the layout mapper)
every shot dominates the runtime.  This module flattens a circuit **once**
into contiguous numpy arrays -- one opcode, two operand slots, a movement
exposure and a measurement slot per operation -- so that an executor can drive
a whole batch of simulations with a single integer-indexed loop over
operations and zero per-shot Python-object traffic.

Movement is baked in at compile time: when a
:class:`~repro.arq.mapper.LayoutMapper` is supplied, the per-operation
movement budgets it would attach are reduced to a single integer exposure
(cells + corner turns + splits, the quantity the noise model consumes) stored
alongside the opcode.  Measurement labels are resolved to dense slot indices
so results can be collected into arrays instead of per-shot dictionaries.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.gate import OpKind
from repro.exceptions import SimulationError


class Opcode(enum.IntEnum):
    """Integer opcodes of the compiled IR.

    The unitary opcodes match the gate set of the stabilizer tableau; the
    remaining three cover state preparation and the two measurement bases.
    """

    I = 0
    H = 1
    S = 2
    SDG = 3
    X = 4
    Y = 5
    Z = 6
    CNOT = 7
    CZ = 8
    SWAP = 9
    PREPARE = 10
    MEASURE = 11
    MEASURE_X = 12
    # Timing-only opcodes (compiled with ``allow_timing_only=True``): legal
    # workloads for the cycle-level machine simulator, rejected by the
    # stabilizer executors because they are not Clifford operations.
    TOFFOLI = 13
    CCZ = 14
    T = 15
    TDG = 16


#: Gate-name to opcode table (gate names are already upper-case in the IR).
_GATE_OPCODES: dict[str, Opcode] = {
    "I": Opcode.I,
    "H": Opcode.H,
    "S": Opcode.S,
    "SDG": Opcode.SDG,
    "S_DAG": Opcode.SDG,
    "X": Opcode.X,
    "Y": Opcode.Y,
    "Z": Opcode.Z,
    "CNOT": Opcode.CNOT,
    "CX": Opcode.CNOT,
    "CZ": Opcode.CZ,
    "SWAP": Opcode.SWAP,
}

#: Opcodes that consume a second operand.
TWO_QUBIT_OPCODES: frozenset[int] = frozenset(
    {int(Opcode.CNOT), int(Opcode.CZ), int(Opcode.SWAP)}
)

#: Opcodes that produce a measurement outcome.
MEASUREMENT_OPCODES: frozenset[int] = frozenset(
    {int(Opcode.MEASURE), int(Opcode.MEASURE_X)}
)

#: Non-Clifford opcodes the timing-only compilation path may emit.  Programs
#: containing them replay on the discrete-event machine simulator
#: (:mod:`repro.desim`) but are rejected by the stabilizer executors.
TIMING_ONLY_OPCODES: frozenset[int] = frozenset(
    {int(Opcode.TOFFOLI), int(Opcode.CCZ), int(Opcode.T), int(Opcode.TDG)}
)

#: Opcodes that consume a third operand.
THREE_QUBIT_OPCODES: frozenset[int] = frozenset(
    {int(Opcode.TOFFOLI), int(Opcode.CCZ)}
)

#: Gate-name table of the timing-only opcodes.
_TIMING_ONLY_GATE_OPCODES: dict[str, Opcode] = {
    "TOFFOLI": Opcode.TOFFOLI,
    "CCX": Opcode.TOFFOLI,
    "CCZ": Opcode.CCZ,
    "T": Opcode.T,
    "TDG": Opcode.TDG,
    "T_DAG": Opcode.TDG,
}


@dataclass(frozen=True)
class CompiledCircuit:
    """A circuit flattened into parallel numpy arrays.

    Attributes
    ----------
    num_qubits:
        Register size the compiled program expects.
    opcodes:
        ``(ops,)`` int16 array of :class:`Opcode` values in program order.
    qubit0, qubit1:
        ``(ops,)`` int32 operand arrays; ``qubit1`` is ``-1`` for one-operand
        operations.
    qubit2:
        ``(ops,)`` int32 third-operand array for the timing-only three-qubit
        opcodes (``-1`` elsewhere), or ``None`` for programs compiled before
        the timing-only path existed / without three-qubit gates.
    movement_exposure:
        ``(ops,)`` int32 array: cells + corner turns + splits of the ballistic
        movement preceding the operation (0 when no movement is charged).
    moved_qubit:
        ``(ops,)`` int32 array: the operand that physically travels, ``-1``
        when no movement is charged.
    measurement_slot:
        ``(ops,)`` int32 array mapping measurement operations to dense result
        slots (``-1`` for non-measurements).
    measurement_labels:
        One label per measurement slot, in slot order.  Unlabeled measurements
        get ``"m<index>"`` keys exactly like the per-shot executor.
    name:
        Name of the source circuit (for reporting).
    """

    num_qubits: int
    opcodes: np.ndarray
    qubit0: np.ndarray
    qubit1: np.ndarray
    movement_exposure: np.ndarray
    moved_qubit: np.ndarray
    measurement_slot: np.ndarray
    measurement_labels: tuple[str, ...]
    qubit2: np.ndarray | None = None
    name: str = ""

    @property
    def num_operations(self) -> int:
        """Number of operations in the compiled program."""
        return int(self.opcodes.shape[0])

    @property
    def num_measurements(self) -> int:
        """Number of measurement result slots."""
        return len(self.measurement_labels)

    @cached_property
    def is_simulable(self) -> bool:
        """True when every opcode is executable on the stabilizer engines.

        Computed once per program: the opcode arrays never change.
        """
        return not np.isin(self.opcodes, list(TIMING_ONLY_OPCODES)).any()

    @cached_property
    def content_digest(self) -> bytes:
        """SHA-256 of what a kernel reads: register, operations, movement and slots.

        Computed once per program; equal programs compiled separately share
        it, so caches keyed on it serve rebuilt experiments.  Labels and the
        name are not part of it.
        """
        digest = hashlib.sha256(np.array([self.num_qubits, self.num_measurements]).tobytes())
        for array in self.kernel_arrays():
            digest.update(array.tobytes())
        return digest.digest()

    def kernel_arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The program as contiguous int32 arrays for a native kernel.

        Returns ``(opcodes, qubit0, qubit1, movement_exposure, moved_qubit,
        measurement_slot)``, each C-contiguous int32 so the fused C kernel
        (through ctypes) can walk them without per-element conversion.  The
        views share memory with the originals whenever dtypes already match.
        """
        return (
            np.ascontiguousarray(self.opcodes, dtype=np.int32),
            np.ascontiguousarray(self.qubit0, dtype=np.int32),
            np.ascontiguousarray(self.qubit1, dtype=np.int32),
            np.ascontiguousarray(self.movement_exposure, dtype=np.int32),
            np.ascontiguousarray(self.moved_qubit, dtype=np.int32),
            np.ascontiguousarray(self.measurement_slot, dtype=np.int32),
        )

    def operands(self, index: int) -> tuple[int, ...]:
        """The operand qubits of one operation, in slot order."""
        qubits = [int(self.qubit0[index])]
        q1 = int(self.qubit1[index])
        if q1 >= 0:
            qubits.append(q1)
        if self.qubit2 is not None:
            q2 = int(self.qubit2[index])
            if q2 >= 0:
                qubits.append(q2)
        return tuple(qubits)

    def __len__(self) -> int:
        return self.num_operations


def require_simulable(program: CompiledCircuit) -> None:
    """Reject programs with timing-only opcodes before a stabilizer run.

    The machine simulator replays such programs cycle-by-cycle without
    tracking quantum state; the tableau executors cannot, so they fail fast
    with a pointer at the right tool instead of an opaque opcode error.
    """
    if not program.is_simulable:
        raise SimulationError(
            f"circuit {program.name!r} contains non-Clifford timing-only operations "
            "(TOFFOLI/CCZ/T); it can be replayed on the machine simulator "
            "(repro.desim) but not executed on the stabilizer engines"
        )


def compile_circuit(
    circuit: Circuit, mapper=None, *, allow_timing_only: bool = False
) -> CompiledCircuit:
    """Compile a circuit (and optionally its layout mapping) to the flat IR.

    Parameters
    ----------
    circuit:
        The circuit to compile.  Every gate must be Clifford; non-Clifford
        gates raise :class:`~repro.exceptions.SimulationError`, matching the
        per-shot executor.
    mapper:
        Optional :class:`~repro.arq.mapper.LayoutMapper`.  When given, the
        circuit is mapped **once** and each operation's movement budget is
        reduced to the integer exposure the noise model consumes; per-shot
        re-mapping disappears entirely.
    allow_timing_only:
        Accept the known non-Clifford gates (TOFFOLI, CCZ, T, TDG) as
        timing-only opcodes.  The resulting program replays on the
        discrete-event machine simulator (:mod:`repro.desim`) -- which only
        needs operand and duration information -- but is rejected by the
        stabilizer executors via :func:`require_simulable`.

    Raises
    ------
    SimulationError
        On non-Clifford gates (unless ``allow_timing_only`` covers them) or
        duplicate measurement labels (duplicate labels would silently corrupt
        syndrome bookkeeping downstream).
    """
    count = len(circuit)
    opcodes = np.zeros(count, dtype=np.int16)
    qubit0 = np.zeros(count, dtype=np.int32)
    qubit1 = np.full(count, -1, dtype=np.int32)
    qubit2 = np.full(count, -1, dtype=np.int32)
    movement_exposure = np.zeros(count, dtype=np.int32)
    moved_qubit = np.full(count, -1, dtype=np.int32)
    measurement_slot = np.full(count, -1, dtype=np.int32)
    labels: list[str] = []
    seen_labels: set[str] = set()

    mapped = mapper.map_circuit(circuit) if mapper is not None else None

    for index, operation in enumerate(circuit):
        if operation.kind is OpKind.PREPARE:
            opcodes[index] = Opcode.PREPARE
            qubit0[index] = operation.qubits[0]
        elif operation.kind in (OpKind.MEASURE, OpKind.MEASURE_X):
            opcodes[index] = (
                Opcode.MEASURE if operation.kind is OpKind.MEASURE else Opcode.MEASURE_X
            )
            qubit0[index] = operation.qubits[0]
            label = operation.label if operation.label else f"m{index}"
            if label in seen_labels:
                raise SimulationError(
                    f"duplicate measurement label {label!r} at operation {index}; "
                    "labels must be unique for syndrome bookkeeping"
                )
            seen_labels.add(label)
            measurement_slot[index] = len(labels)
            labels.append(label)
        else:
            if not operation.is_clifford:
                timing_opcode = _TIMING_ONLY_GATE_OPCODES.get(operation.name)
                if not allow_timing_only or timing_opcode is None:
                    raise SimulationError(
                        f"gate {operation.name} is not Clifford; ARQ simulates the "
                        "stabilizer subset of circuits only (compile with "
                        "allow_timing_only=True for a machine-simulation replay)"
                    )
                opcodes[index] = timing_opcode
            else:
                try:
                    opcodes[index] = _GATE_OPCODES[operation.name]
                except KeyError as exc:  # pragma: no cover - CLIFFORD_GATES covers all
                    raise SimulationError(
                        f"gate {operation.name!r} has no compiled opcode"
                    ) from exc
            qubit0[index] = operation.qubits[0]
            if len(operation.qubits) >= 2:
                qubit1[index] = operation.qubits[1]
            if len(operation.qubits) >= 3:
                qubit2[index] = operation.qubits[2]

        if mapped is not None:
            plan = mapped.operations[index]
            if plan.movement is not None and plan.moved_qubit is not None:
                movement_exposure[index] = (
                    plan.movement.cells + plan.movement.corner_turns + plan.movement.splits
                )
                moved_qubit[index] = plan.moved_qubit

    return CompiledCircuit(
        num_qubits=circuit.num_qubits,
        opcodes=opcodes,
        qubit0=qubit0,
        qubit1=qubit1,
        qubit2=qubit2,
        movement_exposure=movement_exposure,
        moved_qubit=moved_qubit,
        measurement_slot=measurement_slot,
        measurement_labels=tuple(labels),
        name=circuit.name,
    )
