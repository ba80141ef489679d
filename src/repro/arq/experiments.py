"""The paper's empirical architecture studies (Figure 7 and Section 4.1.1).

Two experiments are reproduced here:

* **Logical-gate failure rate vs physical failure rate (Figure 7).**  A single
  transversal logical gate followed by a full Steane error-correction cycle is
  mapped onto the QLA tile layout and simulated under depolarizing noise, with
  the movement failure rate pinned to its expected (Table 1) value while all
  other component failure rates are swept -- exactly the experimental procedure
  of Section 4.1.3.  Level 1 is simulated exactly with the stabilizer backend;
  the level-2 curve is obtained from the standard concatenation map
  ``p_2 = A p_1^2`` with the coefficient ``A`` fitted to the level-1 data
  (exact level-2 simulation of the 300+-ion tile is possible with the same
  machinery but far too slow for routine benchmarking; the substitution is
  recorded in DESIGN.md).

* **Non-trivial-syndrome rate (Section 4.1.1).**  With the expected technology
  parameters the probability that a syndrome extraction reports an error is
  dominated by ballistic-movement noise; the paper measures 3.35e-4 at level 1
  and 7.92e-4 at level 2.  Both an analytic estimate (from the per-operation
  failure budget of the mapped circuit) and a Monte-Carlo measurement are
  provided.

Both run through :func:`repro.api.run` (experiments ``"threshold_sweep"`` and
``"syndrome_rate"``); this module holds the experiment itself and the seeded
sweep driver behind the spec runner.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.arq.mapper import LayoutMapper
from repro.arq.simulator import (
    BatchedNoisyCircuitExecutor,
    NoisyCircuitExecutor,
    create_batch_tableau,
)
from repro.circuits import Circuit
from repro.circuits.compiled import compile_circuit
from repro.circuits.gate import OpKind
from repro.exceptions import ParameterError
from repro.iontrap.parameters import IonTrapParameters, EXPECTED_PARAMETERS
from repro.pauli import PauliString
from repro.qecc.decoder import LookupDecoder
from repro.qecc.encoder import steane_encode_zero_circuit
from repro.qecc.steane import SteaneCode, steane_code
from repro.qecc.syndrome import full_error_correction_circuit, syndrome_from_ancilla_bits
from repro.qecc.threshold import (
    ThresholdEstimate,
    estimate_threshold_crossing,
    fit_concatenation_coefficient,
)
from repro.stabilizer import (
    MonteCarloResult,
    NoiselessModel,
    OperationNoise,
    StabilizerTableau,
)
from repro.stabilizer.fused import (
    LookupDecodeTables,
    _level1_batch,
    _ResolvedAttempt,
    kernel_tier,
    lookup_decode,
)

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "Level1EccExperiment",
    "ThresholdSweepResult",
    "sweep_result_from_level1",
    "analytic_syndrome_rate",
]

#: Default number of Monte-Carlo lanes simulated at once by the batched path.
DEFAULT_BATCH_SIZE = 1024

#: The per-lane flags of a trial batch, in the rows of the native call's buffer.
_FLAGS = ("failure", "nontrivial_syndrome", "verification_passed")


def _noise_for_rate(
    component_failure_rate: float, parameters: IonTrapParameters
) -> OperationNoise:
    """Sweep noise model: all component rates equal, movement pinned to expected."""
    return OperationNoise(
        p_single=component_failure_rate,
        p_double=component_failure_rate,
        p_measure=component_failure_rate,
        p_prepare=component_failure_rate,
        p_move_per_cell=parameters.movement_failure_per_cell,
    )


def _noise_from_parameters(parameters: IonTrapParameters) -> OperationNoise:
    """Noise model matching a technology parameter set exactly."""
    return OperationNoise(
        p_single=parameters.single_gate_failure,
        p_double=parameters.double_gate_failure,
        p_measure=parameters.measure_failure,
        p_prepare=parameters.measure_failure,
        p_move_per_cell=parameters.movement_failure_per_cell,
    )


@dataclass
class Level1EccExperiment:
    """One logical gate + error correction on a level-1 QLA block.

    Parameters
    ----------
    noise:
        Noise model applied during the logical gate and the error-correction
        cycle (state preparation before the gate is ideal: the experiment
        measures the gate + ECC failure probability, not the encoder's).
    mapper:
        Layout mapper charging movement to two-qubit gates.
    code:
        The error-correcting code (Steane).
    verified_ancilla:
        Whether ancilla blocks are verified before use (the QLA design does).
    """

    noise: OperationNoise
    mapper: LayoutMapper = field(default_factory=LayoutMapper)
    code: SteaneCode = field(default_factory=steane_code)
    verified_ancilla: bool = True
    max_preparation_attempts: int = 20

    def __post_init__(self) -> None:
        self._decoder = LookupDecoder(self.code)
        n = self.code.num_physical_qubits
        self._register_size = 3 * n if self.verified_ancilla else 2 * n
        self._prep_circuit = steane_encode_zero_circuit(num_qubits=self._register_size)
        gate_circuit = Circuit(self._register_size, name="logical_x")
        for qubit in range(n):
            gate_circuit.x(qubit)
        self._gate_circuit = gate_circuit
        ecc_circuit, x_extraction, z_extraction = full_error_correction_circuit(
            data_offset=0,
            num_qubits=self._register_size,
            verified=self.verified_ancilla,
            code=self.code,
        )
        self._ecc_circuit = ecc_circuit
        self._x_extraction = x_extraction
        self._z_extraction = z_extraction
        self._ideal_executor = NoisyCircuitExecutor(noise=NoiselessModel(), mapper=None)
        self._noisy_executor = NoisyCircuitExecutor(noise=self.noise, mapper=self.mapper)
        self._batch_executor = BatchedNoisyCircuitExecutor(noise=self.noise, mapper=self.mapper)
        # One batched attempt is one run of three segments: the ideal
        # preparation of the logical |0> (no movement, no noise), then the
        # noisy logical gate and ECC cycle.
        self._attempt_segments = (
            (compile_circuit(self._prep_circuit), NoiselessModel()),
            (self._batch_executor.compile(gate_circuit), self.noise),
            (self._batch_executor.compile(ecc_circuit), self.noise),
        )
        self._embedded_x_stabilizers = [
            self._embedded(generator) for generator in self.code.x_stabilizers()
        ]
        self._embedded_z_stabilizers = [
            self._embedded(generator) for generator in self.code.z_stabilizers()
        ]
        self._embedded_logical_z = self._embedded(self.code.logical_z())
        # Reference signs of the Z stabilizers and logical Z, as
        # lookup_decode takes them, per reference state.
        self._reference_signs: weakref.WeakKeyDictionary[StabilizerTableau, int] = (
            weakref.WeakKeyDictionary()
        )
        # The lanes of each attempt of the last trial batch, first attempt first.
        self._attempt_widths: tuple[int, ...] = ()

    @functools.cached_property
    def _decode_tables(self) -> LookupDecodeTables:
        """The batched decode's tables, built on the first batched attempt.

        A syndrome bit is the XOR of the outcome slots its check selects; the
        X syndrome's lookup correction and the ideal recovery act on the
        data block's frame X words, since the logical Z readout and the Z
        stabilizers that decide its X correction are Z-type (the frame Z
        words and every Z correction never reach a flag).
        """
        labels = [
            label for program, _ in self._attempt_segments for label in program.measurement_labels
        ]
        slot_of = {label: slot for slot, label in enumerate(labels)}
        groups = [
            (extraction.error_type, extraction.ancilla_measurement_labels)
            for extraction in (self._x_extraction, self._z_extraction)
        ]
        if self.verified_ancilla:
            groups += [
                (extraction.error_type, extraction.verification_measurement_labels)
                for extraction in (self._x_extraction, self._z_extraction)
                if extraction.verification_measurement_labels
            ]
        # Rows: X syndromes, Z syndromes, then the verification syndromes.
        rows = [
            [slot_of[labels[qubit]] for qubit in np.flatnonzero(check)]
            for error_type, labels in groups
            for check in (self.code.hz if error_type == "X" else self.code.hx)
        ]
        return LookupDecodeTables(
            rows,
            reported=self.code.hz.shape[0] + self.code.hx.shape[0],
            correction_table=self._decoder.correction_table("X"),
            checks=[np.flatnonzero(pauli.z).tolist() for pauli in self.code.z_stabilizers()],
            logical=np.flatnonzero(self.code.logical_z().z).tolist(),
        )

    @functools.cached_property
    def _resolved_attempt(self) -> _ResolvedAttempt:
        """An attempt's plan, reference pass, noise template, decode tables and
        signs, resolved on the first native trial batch.

        The noise model's channels are declared then: a model changed in
        place afterwards reaches the Python twin's runs but not the native
        ones.
        """
        return _ResolvedAttempt(
            self._attempt_segments, self._register_size, self._decode_tables, self._signs_for
        )

    def _signs_for(self, reference: StabilizerTableau) -> int:
        """The decode's reference signs: bit ``c`` of Z stabilizer ``c``, then logical Z.

        Negative when the reference leaves any stabilizer or the logical
        operator random (a state outside the code space), so that no lane
        reads 1, matching the per-shot early return.
        """
        signs = self._reference_signs.get(reference)
        if signs is None:
            values = [
                reference.expectation(pauli)
                for pauli in (
                    *self._embedded_x_stabilizers,
                    *self._embedded_z_stabilizers,
                    self._embedded_logical_z,
                )
            ]
            k = len(self._embedded_x_stabilizers)
            signs = sum(1 << c for c, value in enumerate(values[k:]) if value == -1)
            signs = self._reference_signs[reference] = signs if all(values) else -1
        return signs

    # ------------------------------------------------------------------
    # Trials
    # ------------------------------------------------------------------

    def run_trial(self, rng: np.random.Generator) -> bool:
        """Run one shot; True means the logical gate + ECC failed."""
        outcome = self.run_trial_detailed(rng)
        return outcome["failure"]

    def run_trial_detailed(self, rng: np.random.Generator) -> dict[str, bool]:
        """Run one accepted shot and report failure plus syndrome-trivia flags.

        Shots whose ancilla verification fails are discarded and re-run, up to
        :attr:`max_preparation_attempts` times -- the "Start Over" branch of the
        Figure 6 preparation circuit.  A fault-tolerant machine restarts only
        the ancilla preparation; re-running the whole shot is an equivalent
        rejection-sampling of the accepted-preparation ensemble.
        """
        for _ in range(max(1, self.max_preparation_attempts)):
            outcome = self._single_attempt(rng)
            if outcome["verification_passed"]:
                return outcome
        return outcome

    def _single_attempt(self, rng: np.random.Generator) -> dict[str, bool]:
        n = self.code.num_physical_qubits
        tableau = StabilizerTableau(self._register_size, rng=rng)
        # Ideal preparation of the logical |0>.
        self._ideal_executor.run(self._prep_circuit, rng, tableau=tableau)
        # Noisy transversal logical X: the state should become |1>_L.
        self._noisy_executor.run(self._gate_circuit, rng, tableau=tableau)
        # Noisy error-correction cycle.
        result = self._noisy_executor.run(self._ecc_circuit, rng, tableau=tableau)

        # Ancilla verification: a non-trivial parity check on either
        # verification block means the preparation must start over.
        verification_passed = True
        if self.verified_ancilla:
            verification_passed = self._verification_passed(result)

        # Decode the extracted syndromes exactly as the control system would.
        x_bits = result.bits(self._x_extraction.ancilla_measurement_labels)
        z_bits = result.bits(self._z_extraction.ancilla_measurement_labels)
        x_syndrome = syndrome_from_ancilla_bits(x_bits, "X", self.code)
        z_syndrome = syndrome_from_ancilla_bits(z_bits, "Z", self.code)
        x_correction = self._decoder.correction_for_syndrome(x_syndrome, "X", strict=False)
        z_correction = self._decoder.correction_for_syndrome(z_syndrome, "Z", strict=False)
        self._apply_data_pauli(tableau, x_correction)
        self._apply_data_pauli(tableau, z_correction)

        # Ideal recovery + readout: any residual correctable error is removed,
        # then the logical value is checked.  A wrong logical value (or a state
        # outside the code space) counts as a logical failure.
        failure = not self._ideal_recovery_says_one(tableau)
        nontrivial = bool(np.any(x_syndrome) or np.any(z_syndrome))
        return {
            "failure": failure,
            "nontrivial_syndrome": nontrivial,
            "verification_passed": verification_passed,
        }

    # ------------------------------------------------------------------
    # Batched trials
    # ------------------------------------------------------------------

    def run_trial_batch(self, rng: np.random.Generator, batch_size: int) -> np.ndarray:
        """Run ``batch_size`` independent shots at once; ``(B,)`` bool failures."""
        return self.run_trial_batch_detailed(rng, batch_size)["failure"]

    def run_trial_batch_detailed(
        self, rng: np.random.Generator, batch_size: int
    ) -> dict[str, np.ndarray]:
        """Batched :meth:`run_trial_detailed`: per-lane outcome arrays.

        The first attempt runs all ``batch_size`` lanes.  The ``m`` lanes
        whose ancilla verification fails then share one pooled retry of
        about ``1.15 m / a + 8`` lanes, ``a`` being the first attempt's
        acceptance fraction (never wider than ``batch_size`` or than the
        pending lanes' remaining attempts).  The pool is handed out in order
        (:func:`_hand_out`): each pending lane takes pool lanes until one
        passes or it has made :attr:`max_preparation_attempts` attempts, and
        keeps the last one's flags; a lane cut off by the pool's end carries
        its count into the next pool.  Pool lanes are iid and each lane's
        start in the pool is a stopping time of the earlier lanes' outcomes,
        so every lane has the per-shot path's law: the first passing attempt
        among at most that many iid attempts, else the last of them.

        On the C kernel tier the whole batch is one native call
        (:func:`repro.stabilizer.fused._level1_batch`) that draws each
        attempt's seed from ``rng`` as the Python loop does; otherwise, and
        when the ``kernel.native`` fault site fires, the Python loop runs.
        Both give the same flags, the same attempt widths (kept in
        ``_attempt_widths``) and leave ``rng`` in the same state.
        """
        if batch_size <= 0:
            raise ParameterError("batch_size must be positive")
        limit = max(1, self.max_preparation_attempts)
        if kernel_tier() == "cext":
            flags, self._attempt_widths = _level1_batch(
                self._resolved_attempt, batch_size, limit, rng
            )
            return dict(zip(_FLAGS, flags))
        return self._retry_loop(rng, batch_size, limit)

    def _retry_loop(
        self, rng: np.random.Generator, batch_size: int, limit: int
    ) -> dict[str, np.ndarray]:
        """The Python twin of the native trial batch: one :meth:`_batch_attempt` per attempt."""
        outcome = self._batch_attempt(rng, batch_size)
        widths = [batch_size]
        pending = np.flatnonzero(~outcome["verification_passed"])
        attempts = np.ones(pending.size, dtype=np.int64)
        accepted = 1.0 - pending.size / batch_size
        while pending.size and limit > 1:
            budgets = limit - attempts
            width = min(batch_size, int(budgets.sum()))
            if accepted > 0:
                # Room for every pending lane to pass at the measured rate,
                # with a margin, so a second pool is rarely needed.
                width = min(width, math.ceil(1.15 * pending.size / accepted) + 8)
            pool = self._batch_attempt(rng, width)
            widths.append(width)
            starts, ends = _hand_out(pool["verification_passed"], budgets)
            served = pending[: ends.size]
            for key, flags in outcome.items():
                flags[served] = pool[key][ends]
            attempts[: ends.size] += ends - starts + 1
            keep = np.ones(pending.size, dtype=bool)
            keep[: ends.size] = ~pool["verification_passed"][ends] & (
                attempts[: ends.size] < limit
            )
            pending, attempts = pending[keep], attempts[keep]
        self._attempt_widths = tuple(widths)
        return outcome

    def _batch_attempt(self, rng: np.random.Generator, batch_size: int) -> dict[str, np.ndarray]:
        state = create_batch_tableau(self._register_size, batch_size, rng=rng)
        # Ideal preparation of the logical |0>, then noisy gate + ECC cycle.
        words = self._batch_executor.run(
            self._attempt_segments, batch_size, rng, tableau=state
        ).outcome_words
        failure, nontrivial, passed = lookup_decode(
            self._decode_tables, self._signs_for(state.reference), words, state
        )
        return {
            "failure": failure,
            "nontrivial_syndrome": nontrivial,
            "verification_passed": passed,
        }

    def _verification_passed(self, result) -> bool:
        """True if both ancilla verification blocks report a trivial parity check."""
        for extraction in (self._x_extraction, self._z_extraction):
            labels = extraction.verification_measurement_labels
            if not labels:
                continue
            bits = result.bits(labels)
            syndrome = syndrome_from_ancilla_bits(bits, extraction.error_type, self.code)
            if np.any(syndrome):
                return False
        return True

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _embedded(self, pauli: PauliString) -> PauliString:
        """Embed a code-block Pauli into the full register (data block first)."""
        n = self.code.num_physical_qubits
        x = np.zeros(self._register_size, dtype=np.uint8)
        z = np.zeros(self._register_size, dtype=np.uint8)
        x[:n] = pauli.x
        z[:n] = pauli.z
        return PauliString(x, z)

    def _apply_data_pauli(self, tableau: StabilizerTableau, correction) -> None:
        if correction.is_identity():
            return
        tableau.apply_pauli(self._embedded(correction))

    def _ideal_recovery_says_one(self, tableau: StabilizerTableau) -> bool:
        """Ideal decode: correct any residual single-qubit error, read logical Z."""
        # Measure all stabilizer generators ideally.
        x_syndrome = []
        for generator in self._embedded_x_stabilizers:
            value = tableau.expectation(generator)
            if value == 0:
                return False
            x_syndrome.append(0 if value == 1 else 1)
        z_syndrome = []
        for generator in self._embedded_z_stabilizers:
            value = tableau.expectation(generator)
            if value == 0:
                return False
            z_syndrome.append(0 if value == 1 else 1)
        x_correction = self._decoder.correction_for_syndrome(z_syndrome, "X", strict=False)
        z_correction = self._decoder.correction_for_syndrome(x_syndrome, "Z", strict=False)
        self._apply_data_pauli(tableau, x_correction)
        self._apply_data_pauli(tableau, z_correction)
        logical_value = tableau.expectation(self._embedded_logical_z)
        return logical_value == -1


def _hand_out(passed: np.ndarray, budgets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deal a retry pool out to pending lanes in order: ``(starts, ends)``.

    Pending lane ``i`` takes pool lanes ``starts[i]..ends[i]``: up to and
    including the first one whose verification ``passed``, but no more than
    ``budgets[i]`` of them and none past the pool's end.  Only the lanes that
    got a pool lane are listed; the last of them may be cut off by the end.
    """
    width = passed.size
    passes = np.flatnonzero(passed)
    starts, ends = [], []
    start, lane = 0, 0
    while start < width and lane < budgets.size:
        # Uncapped, the lanes from ``lane`` on end at the successive passes
        # from ``start``, and the one after the last pass at the pool's end.
        stops = passes[np.searchsorted(passes, start) :]
        if stops.size == 0 or stops[-1] < width - 1:
            stops = np.append(stops, width - 1)
        stops = stops[: budgets.size - lane]
        firsts = np.concatenate(([start], stops[:-1] + 1))
        over = np.flatnonzero(stops - firsts >= budgets[lane : lane + stops.size])
        if over.size == 0:
            starts.append(firsts)
            ends.append(stops)
            break
        # The first lane whose budget runs out keeps its last allowed attempt.
        capped = int(over[0])
        starts.append(firsts[: capped + 1])
        ends.append(np.append(stops[:capped], firsts[capped] + budgets[lane + capped] - 1))
        start = int(ends[-1][-1]) + 1
        lane += capped + 1
    return np.concatenate(starts), np.concatenate(ends)


@dataclass(frozen=True)
class ThresholdSweepResult:
    """Result of the Figure 7 sweep.

    Attributes
    ----------
    physical_rates:
        Swept component failure rates.
    level1:
        Monte-Carlo results of the level-1 experiment at each rate.
    level1_rates:
        Level-1 logical failure rates (convenience copy).
    level2_rates:
        Level-2 logical failure rates from the concatenation map.
    concatenation_coefficient:
        Fitted ``A`` in ``p_1 = A p^2``.
    threshold:
        Crossing of the level-1 and level-2 curves (the empirical threshold);
        its ``threshold`` is None, with a one-sided bound, when the curves do
        not cross in the swept range.
    seed_entropy:
        Entropy of the root :class:`numpy.random.SeedSequence` the sweep was
        run from, or None when assembled without one.  Re-running with
        ``seed=np.random.SeedSequence(seed_entropy)`` and the same
        ``num_shards`` reproduces the sweep bit for bit (on any worker count).
    num_shards:
        Shard count of the deterministic shard plan (1 for unsharded sweeps).
    """

    physical_rates: tuple[float, ...]
    level1: tuple[MonteCarloResult, ...]
    level1_rates: tuple[float, ...]
    level2_rates: tuple[float, ...]
    concatenation_coefficient: float
    threshold: ThresholdEstimate
    seed_entropy: int | tuple[int, ...] | None = None
    num_shards: int = 1

    @property
    def pseudothreshold(self) -> float:
        """The fitted pseudothreshold ``1/A`` -- the physical rate at which one
        level of encoding stops helping.  This is the statistically robust
        version of the curve-crossing estimate and the quantity compared with
        the paper's ``(2.1 +/- 1.8) x 10^-3``."""
        return 1.0 / self.concatenation_coefficient


def sweep_result_from_level1(
    physical_rates: Sequence[float],
    level1_results: Sequence[MonteCarloResult],
    seed_entropy: int | tuple[int, ...] | None = None,
    num_shards: int = 1,
) -> ThresholdSweepResult:
    """Assemble a :class:`ThresholdSweepResult` from per-point level-1 estimates.

    The back half of the threshold-sweep driver: fits the concatenation
    coefficient, derives the level-2 curve, and locates the threshold
    crossing.
    """
    level1_rates = [result.failure_rate for result in level1_results]
    # Fit the concatenation coefficient on slightly regularised rates (the
    # "rule of half": (failures + 1/2) / (trials + 1)) so that sweep points
    # with zero observed failures still contribute a finite upper bound and a
    # short low-noise sweep cannot crash the fit.
    fit_rates = [
        (result.failures + 0.5) / (result.trials + 1.0) for result in level1_results
    ]
    coefficient = fit_concatenation_coefficient(physical_rates, fit_rates, level=1)
    level2_rates = [coefficient * rate**2 for rate in level1_rates]
    level1_errors = [result.standard_error for result in level1_results]
    level2_errors = [
        2.0 * coefficient * rate * err for rate, err in zip(level1_rates, level1_errors)
    ]
    threshold = estimate_threshold_crossing(
        physical_rates,
        level1_rates,
        level2_rates,
        errors_level_a=level1_errors,
        errors_level_b=level2_errors,
    )
    return ThresholdSweepResult(
        physical_rates=tuple(physical_rates),
        level1=tuple(level1_results),
        level1_rates=tuple(level1_rates),
        level2_rates=tuple(level2_rates),
        concatenation_coefficient=coefficient,
        threshold=threshold,
        seed_entropy=seed_entropy,
        num_shards=num_shards,
    )


def _seeded_threshold_sweep(
    strategy,
    physical_rates: Sequence[float],
    trials: int,
    seed: int | tuple[int, ...] | np.random.SeedSequence,
    *,
    parameters: IonTrapParameters = EXPECTED_PARAMETERS,
    mapper: LayoutMapper | None = None,
    num_shards: int = 1,
    num_workers: int = 0,
    batch_size: int = DEFAULT_BATCH_SIZE,
    max_failures: int | None = None,
    verified_ancilla: bool = True,
    max_preparation_attempts: int = 20,
) -> ThresholdSweepResult:
    """The seeded Figure 7 sweep behind the spec runner's ``threshold_sweep``.

    ``strategy`` is the execution strategy the runner resolved for the spec
    (anything with the ``estimate`` method of :mod:`repro.api.registry`'s
    strategies).  The root SeedSequence spawns one child per sweep point,
    and every point runs the shared deterministic shard plan of
    :mod:`repro.parallel` -- so a fixed ``(seed, num_shards)`` reproduces
    bit for bit on any worker count.
    """
    from repro.parallel import Level1ShardTask, as_seed_sequence

    the_mapper = mapper if mapper is not None else LayoutMapper()
    root = as_seed_sequence(seed)
    entropy = root.entropy
    seed_entropy = tuple(entropy) if isinstance(entropy, (list, tuple)) else entropy
    point_seeds = root.spawn(len(physical_rates))
    level1_results = []
    for rate, point_seed in zip(physical_rates, point_seeds):
        task = Level1ShardTask(
            physical_rate=float(rate),
            parameters=parameters,
            mapper=the_mapper,
            verified_ancilla=verified_ancilla,
            max_preparation_attempts=max_preparation_attempts,
        )
        level1_results.append(
            strategy.estimate(
                task,
                trials,
                seed=point_seed,
                batch_size=batch_size,
                max_failures=max_failures,
                num_shards=num_shards,
                num_workers=num_workers,
            )
        )
    return sweep_result_from_level1(
        physical_rates, level1_results, seed_entropy=seed_entropy, num_shards=num_shards
    )


def analytic_syndrome_rate(
    level: int,
    parameters: IonTrapParameters = EXPECTED_PARAMETERS,
    mapper: LayoutMapper | None = None,
) -> float:
    """Analytic non-trivial-syndrome rate (Section 4.1.1).

    Counts the expected number of error events that can flip the measured
    syndrome during one error-correction cycle: movement, two-qubit-gate and
    measurement errors on the ``7^level`` ions taking part in the two
    transversal data/ancilla interactions of the cycle.
    """
    if level < 1:
        raise ParameterError("syndrome rates are defined for level >= 1")
    the_mapper = mapper if mapper is not None else LayoutMapper()
    block = 7**level
    exposure_cells = (
        the_mapper.two_qubit_move_cells + the_mapper.corner_turns + the_mapper.splits
    )
    per_ion = (
        exposure_cells * parameters.movement_failure_per_cell
        + parameters.double_gate_failure
        + parameters.measure_failure
    )
    return 2.0 * block * per_ion  # two extractions (X and Z) per cycle
