"""Pauli noise models for the stabilizer simulator.

The paper's simulations inject an error after every physical operation with a
probability taken from the technology table (Table 1): single-qubit gates,
two-qubit gates, measurement, ballistic movement (per cell) and idle memory.
Errors are modelled as uniformly random non-identity Pauli operators on the
qubits touched by the operation (standard depolarizing noise), which is the
conventional choice for stabilizer-level fault-tolerance studies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ParameterError
from repro.pauli import PauliTerm
from repro.stabilizer.packed import pack_bits

_ONE_QUBIT_ERRORS = ("X", "Y", "Z")
_TWO_QUBIT_ERRORS = tuple(
    (a, b)
    for a in ("I", "X", "Y", "Z")
    for b in ("I", "X", "Y", "Z")
    if not (a == "I" and b == "I")
)

#: Symplectic (x, z) bits of each Pauli letter.
_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}

#: Symplectic bit tables of the depolarizing error alphabets, indexed the same
#: way as the tuples above so scalar and batched sampling agree letter-for-letter.
_ONE_QUBIT_X = np.array([_LETTER_BITS[l][0] for l in _ONE_QUBIT_ERRORS], dtype=np.uint8)
_ONE_QUBIT_Z = np.array([_LETTER_BITS[l][1] for l in _ONE_QUBIT_ERRORS], dtype=np.uint8)
_TWO_QUBIT_X = np.array(
    [[_LETTER_BITS[a][0], _LETTER_BITS[b][0]] for a, b in _TWO_QUBIT_ERRORS], dtype=np.uint8
)
_TWO_QUBIT_Z = np.array(
    [[_LETTER_BITS[a][1], _LETTER_BITS[b][1]] for a, b in _TWO_QUBIT_ERRORS], dtype=np.uint8
)


def _scatter_terms_batch(
    per_lane_terms: list[list[PauliTerm]], qubits: tuple[int, ...]
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]:
    """Scatter scalar-hook Pauli terms for every lane into batch bit arrays.

    The support starts from the operation's own qubits and grows to cover any
    extra qubits the terms touch (custom models may emit crosstalk errors on
    neighbours of the operands, which the per-shot executor supports too).
    """
    support = list(qubits)
    position = {q: j for j, q in enumerate(support)}
    for terms in per_lane_terms:
        for term in terms:
            if term.qubit not in position:
                position[term.qubit] = len(support)
                support.append(term.qubit)
    batch_size = len(per_lane_terms)
    x_bits = np.zeros((batch_size, len(support)), dtype=np.uint8)
    z_bits = np.zeros((batch_size, len(support)), dtype=np.uint8)
    events = np.zeros(batch_size, dtype=np.int64)
    for lane, terms in enumerate(per_lane_terms):
        if not terms:
            continue
        events[lane] = 1
        for term in terms:
            xi, zi = _LETTER_BITS[term.letter]
            j = position[term.qubit]
            x_bits[lane, j] ^= xi
            z_bits[lane, j] ^= zi
    return tuple(support), x_bits, z_bits, events


def _check_probability(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ParameterError(f"{name} must be a probability in [0, 1], got {value}")
    return float(value)


class NoiseModel:
    """Interface for per-operation Pauli noise.

    Subclasses override the ``sample_*`` hooks; every hook returns the Pauli
    errors to apply *after* the ideal operation (the standard circuit-level
    noise convention).
    """

    def sample_gate_error(
        self, name: str, qubits: tuple[int, ...], rng: np.random.Generator
    ) -> list[PauliTerm]:
        """Pauli error terms to apply after a gate ``name`` on ``qubits``."""
        raise NotImplementedError

    def sample_preparation_error(
        self, qubit: int, rng: np.random.Generator
    ) -> list[PauliTerm]:
        """Pauli error terms to apply after preparing ``qubit`` in |0>."""
        raise NotImplementedError

    def measurement_flip(self, rng: np.random.Generator) -> bool:
        """Whether a measurement outcome is classically flipped."""
        raise NotImplementedError

    def sample_movement_error(
        self, qubit: int, num_cells: int, rng: np.random.Generator
    ) -> list[PauliTerm]:
        """Pauli error terms accumulated while moving an ion ``num_cells`` cells."""
        raise NotImplementedError

    def sample_idle_error(
        self, qubit: int, duration_seconds: float, rng: np.random.Generator
    ) -> list[PauliTerm]:
        """Pauli error terms accumulated while a qubit idles for a duration."""
        raise NotImplementedError

    # -- batched sampling ---------------------------------------------------
    #
    # These hooks draw the noise of one operation for all B lanes in a single
    # call; the packed hooks below pack their lane axis.  Each returns
    # ``(support, x_bits, z_bits, events)``:
    # ``support`` is the tuple of register qubits the error may touch (the
    # operands, possibly extended by crosstalk neighbours), the symplectic bit
    # arrays have shape ``(B, len(support))`` and ``events`` is an ``(B,)``
    # array counting error events per lane (matching the per-shot executor's
    # ``error_count`` bookkeeping: one event per operation that failed).
    #
    # The base-class implementations fall back to looping the scalar hooks,
    # so any custom noise model works with the batched engine out of the box;
    # ``OperationNoise`` overrides them with single-RNG-call vectorized
    # versions, which its subclasses inherit.  The batched engine never calls
    # these hooks for the exact built-in classes (or any noiseless model):
    # those are sampled as one sparse noise block per run
    # (:func:`repro.stabilizer.fused.noise_block`).

    @property
    def is_noiseless(self) -> bool:
        """True when every hook is guaranteed to return no errors.

        The batched engine never calls the hooks of such models (used for
        ideal state preparation inside experiments).
        """
        return False

    def sample_gate_error_batch(
        self, name: str, qubits: tuple[int, ...], batch_size: int, rng: np.random.Generator
    ) -> tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]:
        """Gate errors for all lanes: ``(support, x_bits, z_bits, events)``."""
        per_lane = [self.sample_gate_error(name, qubits, rng) for _ in range(batch_size)]
        return _scatter_terms_batch(per_lane, qubits)

    def sample_preparation_error_batch(
        self, qubit: int, batch_size: int, rng: np.random.Generator
    ) -> tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]:
        """Preparation errors for all lanes: ``(support, x_bits, z_bits, events)``."""
        per_lane = [self.sample_preparation_error(qubit, rng) for _ in range(batch_size)]
        return _scatter_terms_batch(per_lane, (qubit,))

    def measurement_flip_batch(
        self, batch_size: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-lane classical measurement flips as an ``(B,)`` bool array."""
        return np.array(
            [self.measurement_flip(rng) for _ in range(batch_size)], dtype=bool
        )

    def sample_movement_error_batch(
        self, qubit: int, num_cells: int, batch_size: int, rng: np.random.Generator
    ) -> tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]:
        """Movement errors for all lanes: ``(support, x_bits, z_bits, events)``."""
        per_lane = [
            self.sample_movement_error(qubit, num_cells, rng) for _ in range(batch_size)
        ]
        return _scatter_terms_batch(per_lane, (qubit,))

    # -- packed (word-parallel) sampling ------------------------------------
    #
    # The batched engine consumes noise as uint64 word masks over the
    # batch axis: each hook returns ``(support, x_words, z_words, event_words)``
    # where the symplectic word arrays have shape ``(len(support), W)`` with
    # ``W = ceil(batch_size / 64)`` and ``event_words`` is a ``(W,)`` mask of
    # lanes in which the operation failed (one event per failed operation,
    # matching the per-shot executor's ``error_count`` bookkeeping).
    #
    # The base-class implementations draw through the ``*_batch`` hooks and
    # pack the lane axis, so every noise model -- including custom subclasses
    # that only implement the scalar hooks -- works with the batched engine
    # unmodified.

    def sample_gate_error_packed(
        self, name: str, qubits: tuple[int, ...], batch_size: int, rng: np.random.Generator
    ) -> tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]:
        """Gate errors for all lanes as packed word masks."""
        support, x_bits, z_bits, events = self.sample_gate_error_batch(
            name, qubits, batch_size, rng
        )
        return _pack_batch_masks(support, x_bits, z_bits, events)

    def sample_preparation_error_packed(
        self, qubit: int, batch_size: int, rng: np.random.Generator
    ) -> tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]:
        """Preparation errors for all lanes as packed word masks."""
        support, x_bits, z_bits, events = self.sample_preparation_error_batch(
            qubit, batch_size, rng
        )
        return _pack_batch_masks(support, x_bits, z_bits, events)

    def measurement_flip_packed(
        self, batch_size: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-lane classical measurement flips as a ``(W,)`` uint64 word mask."""
        return pack_bits(self.measurement_flip_batch(batch_size, rng))

    def sample_movement_error_packed(
        self, qubit: int, num_cells: int, batch_size: int, rng: np.random.Generator
    ) -> tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]:
        """Movement errors for all lanes as packed word masks."""
        support, x_bits, z_bits, events = self.sample_movement_error_batch(
            qubit, num_cells, batch_size, rng
        )
        return _pack_batch_masks(support, x_bits, z_bits, events)


def _pack_batch_masks(
    support: tuple[int, ...], x_bits: np.ndarray, z_bits: np.ndarray, events: np.ndarray
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]:
    """Pack per-lane ``(B, k)`` symplectic bits into ``(k, W)`` uint64 words."""
    x_words = pack_bits(np.ascontiguousarray(x_bits.T))
    z_words = pack_bits(np.ascontiguousarray(z_bits.T))
    event_words = pack_bits(events != 0)
    return support, x_words, z_words, event_words


class NoiselessModel(NoiseModel):
    """A noise model that never produces errors (useful for functional tests)."""

    def sample_gate_error(self, name, qubits, rng):  # noqa: D102 - interface docs
        return []

    def sample_preparation_error(self, qubit, rng):  # noqa: D102
        return []

    def measurement_flip(self, rng):  # noqa: D102
        return False

    def sample_movement_error(self, qubit, num_cells, rng):  # noqa: D102
        return []

    def sample_idle_error(self, qubit, duration_seconds, rng):  # noqa: D102
        return []

    @property
    def is_noiseless(self):  # noqa: D102
        return True


def _no_errors_batch(
    batch_size: int, support: tuple[int, ...]
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]:
    zeros = np.zeros((batch_size, len(support)), dtype=np.uint8)
    return support, zeros, zeros.copy(), np.zeros(batch_size, dtype=np.int64)


def _depolarize_one(qubit: int, rng: np.random.Generator) -> list[PauliTerm]:
    letter = _ONE_QUBIT_ERRORS[int(rng.integers(0, 3))]
    return [PauliTerm(qubit=qubit, letter=letter)]


def _depolarize_two(
    qubit_a: int, qubit_b: int, rng: np.random.Generator
) -> list[PauliTerm]:
    letters = _TWO_QUBIT_ERRORS[int(rng.integers(0, len(_TWO_QUBIT_ERRORS)))]
    terms = []
    if letters[0] != "I":
        terms.append(PauliTerm(qubit=qubit_a, letter=letters[0]))
    if letters[1] != "I":
        terms.append(PauliTerm(qubit=qubit_b, letter=letters[1]))
    return terms


@dataclass
class OperationNoise(NoiseModel):
    """Depolarizing noise with independent rates per operation category.

    This mirrors Table 1 of the paper: each category of physical operation has
    its own failure probability.  Movement failure is per cell traversed and
    memory (idle) failure is per second, matching the units used in the paper.

    Attributes
    ----------
    p_single:
        Failure probability of a one-qubit gate.
    p_double:
        Failure probability of a two-qubit gate.
    p_measure:
        Probability that a measurement reports the wrong classical value.
    p_prepare:
        Failure probability of a |0> preparation (modelled as a possible X flip).
    p_move_per_cell:
        Failure probability per cell of ballistic movement.
    p_memory_per_second:
        Failure probability per second of idling.
    """

    p_single: float = 0.0
    p_double: float = 0.0
    p_measure: float = 0.0
    p_prepare: float = 0.0
    p_move_per_cell: float = 0.0
    p_memory_per_second: float = 0.0

    def __post_init__(self) -> None:
        self.p_single = _check_probability("p_single", self.p_single)
        self.p_double = _check_probability("p_double", self.p_double)
        self.p_measure = _check_probability("p_measure", self.p_measure)
        self.p_prepare = _check_probability("p_prepare", self.p_prepare)
        self.p_move_per_cell = _check_probability("p_move_per_cell", self.p_move_per_cell)
        self.p_memory_per_second = _check_probability(
            "p_memory_per_second", self.p_memory_per_second
        )

    # -- sampling hooks -----------------------------------------------------

    def sample_gate_error(self, name, qubits, rng):  # noqa: D102 - see base class
        if len(qubits) == 1:
            if rng.random() < self.p_single:
                return _depolarize_one(qubits[0], rng)
            return []
        if len(qubits) == 2:
            if rng.random() < self.p_double:
                return _depolarize_two(qubits[0], qubits[1], rng)
            return []
        # Wider gates are not physical primitives in the QLA model; treat each
        # qubit as independently exposed to the two-qubit rate.
        terms: list[PauliTerm] = []
        for qubit in qubits:
            if rng.random() < self.p_double:
                terms.extend(_depolarize_one(qubit, rng))
        return terms

    def sample_preparation_error(self, qubit, rng):  # noqa: D102
        if rng.random() < self.p_prepare:
            return [PauliTerm(qubit=qubit, letter="X")]
        return []

    def measurement_flip(self, rng):  # noqa: D102
        return bool(rng.random() < self.p_measure)

    def sample_movement_error(self, qubit, num_cells, rng):  # noqa: D102
        if num_cells <= 0 or self.p_move_per_cell == 0.0:
            return []
        p_total = 1.0 - (1.0 - self.p_move_per_cell) ** num_cells
        if rng.random() < p_total:
            return _depolarize_one(qubit, rng)
        return []

    def sample_idle_error(self, qubit, duration_seconds, rng):  # noqa: D102
        if duration_seconds <= 0.0 or self.p_memory_per_second == 0.0:
            return []
        p_total = 1.0 - (1.0 - self.p_memory_per_second) ** duration_seconds
        if rng.random() < p_total:
            return _depolarize_one(qubit, rng)
        return []

    # -- vectorized batch hooks ---------------------------------------------

    def sample_gate_error_batch(self, name, qubits, batch_size, rng):  # noqa: D102
        if len(qubits) == 1:
            return _depolarize_one_batch(self.p_single, qubits, batch_size, rng)
        if len(qubits) == 2:
            return _depolarize_two_batch(self.p_double, qubits, batch_size, rng)
        # Wider gates: each qubit independently exposed to the two-qubit rate,
        # all failures of one operation counted as a single error event.
        x_bits = np.zeros((batch_size, len(qubits)), dtype=np.uint8)
        z_bits = np.zeros((batch_size, len(qubits)), dtype=np.uint8)
        any_fail = np.zeros(batch_size, dtype=bool)
        for j, qubit in enumerate(qubits):
            _, xj, zj, ev = _depolarize_one_batch(self.p_double, (qubit,), batch_size, rng)
            x_bits[:, j] = xj[:, 0]
            z_bits[:, j] = zj[:, 0]
            any_fail |= ev.astype(bool)
        return qubits, x_bits, z_bits, any_fail.astype(np.int64)

    def sample_preparation_error_batch(self, qubit, batch_size, rng):  # noqa: D102
        fail = rng.random(batch_size) < self.p_prepare
        x_bits = fail[:, None].astype(np.uint8)
        z_bits = np.zeros((batch_size, 1), dtype=np.uint8)
        return (qubit,), x_bits, z_bits, fail.astype(np.int64)

    def measurement_flip_batch(self, batch_size, rng):  # noqa: D102
        if self.p_measure == 0.0:
            return np.zeros(batch_size, dtype=bool)
        return rng.random(batch_size) < self.p_measure

    def sample_movement_error_batch(self, qubit, num_cells, batch_size, rng):  # noqa: D102
        if num_cells <= 0 or self.p_move_per_cell == 0.0:
            return _no_errors_batch(batch_size, (qubit,))
        p_total = 1.0 - (1.0 - self.p_move_per_cell) ** num_cells
        return _depolarize_one_batch(p_total, (qubit,), batch_size, rng)


def _depolarize_one_batch(
    probability: float, support: tuple[int, ...], batch_size: int, rng: np.random.Generator
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]:
    """Single-qubit depolarizing draw for a whole batch (two RNG calls total)."""
    if probability == 0.0:
        return _no_errors_batch(batch_size, support)
    fail = rng.random(batch_size) < probability
    letters = rng.integers(0, 3, size=batch_size)
    fail_u8 = fail.astype(np.uint8)
    x_bits = (fail_u8 * _ONE_QUBIT_X[letters])[:, None]
    z_bits = (fail_u8 * _ONE_QUBIT_Z[letters])[:, None]
    return support, x_bits, z_bits, fail.astype(np.int64)


def _depolarize_two_batch(
    probability: float, support: tuple[int, ...], batch_size: int, rng: np.random.Generator
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]:
    """Two-qubit depolarizing draw for a whole batch (two RNG calls total)."""
    if probability == 0.0:
        return _no_errors_batch(batch_size, support)
    fail = rng.random(batch_size) < probability
    pairs = rng.integers(0, len(_TWO_QUBIT_ERRORS), size=batch_size)
    fail_u8 = fail.astype(np.uint8)[:, None]
    x_bits = fail_u8 * _TWO_QUBIT_X[pairs]
    z_bits = fail_u8 * _TWO_QUBIT_Z[pairs]
    return support, x_bits, z_bits, fail.astype(np.int64)


class DepolarizingNoise(OperationNoise):
    """A single-parameter depolarizing model: every operation fails with rate ``p``.

    This is the model used for the Figure 7 sweep, where the paper varies all
    component failure rates together (holding movement at its expected value,
    which callers express by passing ``p_move_per_cell`` explicitly).
    """

    def __init__(self, p: float, p_move_per_cell: float | None = None) -> None:
        super().__init__(
            p_single=p,
            p_double=p,
            p_measure=p,
            p_prepare=p,
            p_move_per_cell=p if p_move_per_cell is None else p_move_per_cell,
            p_memory_per_second=0.0,
        )
        self.p = _check_probability("p", p)
