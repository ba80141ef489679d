"""Dependency-DAG construction and ASAP scheduling for circuits.

The paper's latency models (error-correction latency, Toffoli time-steps,
modular-exponentiation depth) are all expressed in terms of parallel
time-steps: operations touching disjoint qubits execute simultaneously.  This
module derives those time-steps from a circuit by building the standard
operation-dependency DAG and levelising it (ASAP scheduling), and can also
weight the critical path with per-operation durations supplied by the
technology layer.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.circuits.circuit import Circuit
from repro.circuits.gate import Operation


class CircuitDag:
    """Dependency DAG of a circuit.

    Nodes are operation indices (position in the circuit); an edge ``u -> v``
    means operation ``v`` must wait for operation ``u`` because they share a
    qubit.  Only the most recent operation on each qubit generates an edge, so
    the graph is the usual sparse "last-writer" dependency structure.  Every
    edge points forward in the circuit, so circuit order is a topological
    order.
    """

    def __init__(self, circuit: Circuit) -> None:
        self._circuit = circuit
        self._operations: list[Operation] = list(circuit)
        self._predecessors: list[list[int]] = []
        last_op_on_qubit: dict[int, int] = {}
        for index, operation in enumerate(self._operations):
            preds: list[int] = []
            for qubit in operation.qubits:
                previous = last_op_on_qubit.get(qubit)
                if previous is not None and previous not in preds:
                    preds.append(previous)
                last_op_on_qubit[qubit] = index
            self._predecessors.append(preds)

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Dependency edges ``(u, v)``, grouped by ``v`` in circuit order."""
        return [(u, v) for v, preds in enumerate(self._predecessors) for u in preds]

    @property
    def circuit(self) -> Circuit:
        """The circuit this DAG was built from."""
        return self._circuit

    def operation(self, index: int) -> Operation:
        """The operation stored at DAG node ``index``."""
        return self._operations[index]

    def layers(self) -> list[list[Operation]]:
        """ASAP layers: each inner list holds operations that can run in parallel."""
        level: list[int] = []
        result: list[list[Operation]] = []
        for preds, operation in zip(self._predecessors, self._operations):
            lvl = 1 + max((level[p] for p in preds), default=-1)
            level.append(lvl)
            if lvl == len(result):
                result.append([])
            result[lvl].append(operation)
        return result

    def depth(self) -> int:
        """Number of ASAP layers."""
        return len(self.layers())

    def critical_path_duration(
        self, duration_of: Callable[[Operation], float]
    ) -> float:
        """Length of the longest path when each operation has a real duration.

        ``duration_of`` maps an operation to its execution time (in seconds,
        or any consistent unit); the result is the weighted critical-path
        length, i.e. the minimum wall-clock time of the circuit with unlimited
        parallelism.
        """
        finish: list[float] = []
        for preds, operation in zip(self._predecessors, self._operations):
            start = max((finish[p] for p in preds), default=0.0)
            finish.append(start + duration_of(operation))
        return max(finish, default=0.0)


def schedule_asap(circuit: Circuit) -> list[list[Operation]]:
    """Greedy as-soon-as-possible layering of a circuit.

    Equivalent to :meth:`CircuitDag.layers` but implemented directly with a
    per-qubit frontier, which is faster for the long, narrow circuits produced
    by the error-correction machinery.
    """
    qubit_frontier: dict[int, int] = {}
    layers: list[list[Operation]] = []
    for operation in circuit:
        earliest = 0
        for qubit in operation.qubits:
            earliest = max(earliest, qubit_frontier.get(qubit, 0))
        while len(layers) <= earliest:
            layers.append([])
        layers[earliest].append(operation)
        for qubit in operation.qubits:
            qubit_frontier[qubit] = earliest + 1
    return layers


def parallelism_profile(layers: Sequence[Sequence[Operation]]) -> list[int]:
    """Number of operations in each ASAP layer (a simple parallelism metric)."""
    return [len(layer) for layer in layers]
