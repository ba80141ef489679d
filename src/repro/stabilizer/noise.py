"""Pauli noise models for the stabilizer simulator.

The paper's simulations inject an error after every physical operation with a
probability taken from the technology table (Table 1): single-qubit gates,
two-qubit gates, measurement and ballistic movement (per cell).  Idle
memory errors are not simulated: at the paper's rates they are negligible
beside the operation errors, and neither engine samples them.
Errors are modelled as uniformly random non-identity Pauli operators on the
qubits touched by the operation (standard depolarizing noise), which is the
conventional choice for stabilizer-level fault-tolerance studies.

A model *declares* that law once, as one :class:`PauliChannel` per operation
site, and never samples it itself.  Both engines read the same declarations:
the per-shot oracle (:class:`~repro.arq.simulator.NoisyCircuitExecutor`)
draws each channel shot by shot, and the Pauli-frame engine
(:mod:`repro.stabilizer.fused`) turns a program's channels into one template
and samples every lane at once -- the way Stim samples declared noise
channels (Gidney 2021).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

from repro.exceptions import ParameterError, SimulationError

_ONE_QUBIT_ERRORS = ("X", "Y", "Z")
_TWO_QUBIT_ERRORS = tuple(
    a + b for a in "IXYZ" for b in "IXYZ" if not (a == "I" and b == "I")
)


class PauliChannel(NamedTuple):
    """One error event: with probability ``p``, a Pauli on ``qubits``.

    ``qubits`` is the channel's support, which may reach past the
    operation's operands (crosstalk).  ``letters`` lists equally likely Pauli
    strings over that support, one letter per support qubit: a failure
    applies one of them, drawn uniformly (``("X", "Y", "Z")``, the 15
    non-identity two-qubit pairs, or ``("X",)`` for a preparation).  A
    failure counts as one error event, whatever its weight.
    """

    p: float
    qubits: tuple[int, ...]
    letters: tuple[str, ...]


def check_channel(channel: PauliChannel) -> None:
    """Raise :class:`SimulationError` unless ``channel`` is a well-formed declaration.

    The probability must lie in [0, 1], every support qubit must be a
    nonnegative index, and every letter string must have one letter from
    ``IXYZ`` per support qubit and not be all identity.  The engines check
    the upper end of the register themselves.
    """
    p, qubits, letters = channel
    if not 0.0 <= p <= 1.0:
        raise SimulationError(f"noise channel probability {p} is outside [0, 1]")
    for qubit in qubits:
        if qubit < 0:
            raise SimulationError(f"noise model emitted qubit {qubit} outside the register")
    bad = _bad_letter(tuple(letters), len(qubits))
    if bad is not None:
        raise SimulationError(
            f"noise channel letter {bad!r} is not a non-identity Pauli string "
            f"over the {len(qubits)}-qubit support {qubits}"
        )


def flip_probability(noise: NoiseModel) -> float | None:
    """The measurement flip probability ``noise`` declares, checked like a channel's."""
    p = noise.measurement_flip_probability()
    if p is not None and not 0.0 <= p <= 1.0:
        raise SimulationError(f"measurement flip probability {p} is outside [0, 1]")
    return p


@functools.lru_cache(maxsize=256)
def _bad_letter(letters: tuple[str, ...], width: int) -> str | None:
    """The first malformed letter string of an alphabet (cached: alphabets repeat)."""
    if not letters:
        return "(none)"
    for letter in letters:
        if (
            not isinstance(letter, str)
            or len(letter) != width
            or set(letter) - set("IXYZ")
            or set(letter) <= {"I"}
        ):
            return letter
    return None


def _check_probability(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ParameterError(f"{name} must be a probability in [0, 1], got {value}")
    return float(value)


#: Idle noise, which neither engine samples: the reason to name when a model
#: tries to declare it.
_NO_IDLE_NOISE = "neither engine samples idle noise; fold it into another declaration"

#: The removed noise hooks (the sampling hooks of v1.11 and older, and the
#: idle declaration of v1.12), each with what to do instead.
_REMOVED_HOOKS = {
    hook + suffix: instead
    for hook, instead in (
        ("sample_gate_error", "override gate_channel()"),
        ("sample_preparation_error", "override preparation_channel()"),
        ("measurement_flip", "override measurement_flip_probability()"),
        ("sample_movement_error", "override movement_channel()"),
        ("sample_idle_error", _NO_IDLE_NOISE),
    )
    for suffix in ("", "_batch", "_packed")
}
_REMOVED_HOOKS["idle_channel"] = _NO_IDLE_NOISE


class NoiseModel:
    """Interface for per-operation Pauli noise, declared as Pauli channels.

    Subclasses override the declaration methods.  Each names the error event
    that follows one operation (movement errors precede the operation that
    needed the shuttle): a :class:`PauliChannel`, or None for no event.  The
    base class declares nothing, which is noiseless execution.

    A declaration must be a pure function of the model's instance attributes
    and of the operation: both engines sample whatever is declared, and the
    Pauli-frame engine caches a program's declarations per model class and
    attribute values.  A channel of probability zero is still declared; the
    per-shot oracle draws it (and it never fails), the frame engine drops it.
    Defining one of the sampling hooks of v1.11 (``sample_*_error``,
    ``measurement_flip`` or their ``_batch``/``_packed`` forms) raises
    :class:`TypeError` naming the declaration to override instead; so does
    an ``idle_channel``, since neither engine samples idle noise.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for name in vars(cls):
            if name in _REMOVED_HOOKS:
                raise TypeError(
                    f"{cls.__name__}.{name} is a removed noise hook: "
                    f"{_REMOVED_HOOKS[name]} (see docs/migration.md)"
                )

    def gate_channel(self, name: str, qubits: tuple[int, ...]) -> PauliChannel | None:
        """The error after a gate ``name`` on ``qubits``."""
        return None

    def preparation_channel(self, qubit: int) -> PauliChannel | None:
        """The error after preparing ``qubit`` in |0>."""
        return None

    def measurement_flip_probability(self) -> float | None:
        """Probability that a measurement outcome is classically flipped (None: never)."""
        return None

    def movement_channel(self, qubit: int, cells: int) -> PauliChannel | None:
        """The error accumulated while moving ``qubit`` through ``cells`` cells."""
        return None


class NoiselessModel(NoiseModel):
    """A noise model that declares no errors (useful for functional tests)."""


@dataclass
class OperationNoise(NoiseModel):
    """Depolarizing noise with independent rates per operation category.

    This mirrors Table 1 of the paper: each category of physical operation has
    its own failure probability.  Movement failure is per cell traversed,
    matching the units used in the paper.

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
    """

    p_single: float = 0.0
    p_double: float = 0.0
    p_measure: float = 0.0
    p_prepare: float = 0.0
    p_move_per_cell: float = 0.0

    def __post_init__(self) -> None:
        self.p_single = _check_probability("p_single", self.p_single)
        self.p_double = _check_probability("p_double", self.p_double)
        self.p_measure = _check_probability("p_measure", self.p_measure)
        self.p_prepare = _check_probability("p_prepare", self.p_prepare)
        self.p_move_per_cell = _check_probability("p_move_per_cell", self.p_move_per_cell)

    # -- declarations -------------------------------------------------------

    def gate_channel(self, name, qubits):  # noqa: D102 - see base class
        # Clifford gates act on one or two qubits.
        if len(qubits) == 1:
            return PauliChannel(self.p_single, qubits, _ONE_QUBIT_ERRORS)
        return PauliChannel(self.p_double, qubits, _TWO_QUBIT_ERRORS)

    def preparation_channel(self, qubit):  # noqa: D102
        return PauliChannel(self.p_prepare, (qubit,), ("X",))

    def measurement_flip_probability(self):  # noqa: D102
        return self.p_measure

    def movement_channel(self, qubit, cells):  # noqa: D102
        if cells <= 0 or self.p_move_per_cell == 0.0:
            return None
        p_total = 1.0 - (1.0 - self.p_move_per_cell) ** cells
        return PauliChannel(p_total, (qubit,), _ONE_QUBIT_ERRORS)


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
        )
        self.p = _check_probability("p", p)
