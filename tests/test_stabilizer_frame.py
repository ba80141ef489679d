"""Contracts of the Pauli-frame engine beyond the recorded v1.9 digests.

* the C kernel tier equals the numpy tier bit for bit -- outcome words,
  error counts, frames and reference -- on random noisy circuits, custom
  noise models included;
* the engine agrees with the scalar per-shot oracle within Wilson intervals
  at ragged and full-word batch sizes, and with a binding retry cap;
* pooled verification retries hand their lanes out in order, keep a capped
  lane's last outcome, carry a cut-off lane's count into the next pool and
  never run a call wider than the batch -- scripted on the Python retry
  loop, whose every hand-out the C routine ``repro_hand_out`` reproduces;
* a Level-1 trial batch in one native call (``repro_level1_batch``) gives
  the Python retry loop's flags and attempt widths and leaves the caller's
  generator in the same state, for every numpy bit generator; a
  ``kernel.native`` fault runs the Python loop;
* the noiseless reference pass runs once per program content and input
  reference, so rebuilt experiments reuse it;
* programs are checked once: ``is_simulable`` is computed once per program
  and ``require_simulable`` runs once per executor run; a malformed noise
  declaration is rejected by both engines before anything is sampled;
* the packed-word decode (corrections and ideal recovery) agrees with the
  dense correction tables and the scalar ideal recovery lane by lane, and
  its C routine gives the numpy twin's flags bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import pytest

import repro.arq.experiments as experiments_module
import repro.circuits.compiled as compiled_module
from repro import faults
from repro.arq import BatchedNoisyCircuitExecutor, LayoutMapper, NoisyCircuitExecutor
from repro.arq.experiments import Level1EccExperiment, _hand_out, _noise_for_rate
from repro.arq.simulator import create_batch_tableau
from repro.circuits import Circuit, Gate, compile_circuit
from repro.exceptions import SimulationError
from repro.iontrap.parameters import EXPECTED_PARAMETERS
from repro.stabilizer import (
    NoiseModel,
    NoiselessModel,
    OperationNoise,
    PauliChannel,
    PauliFrameBatch,
    num_words,
    pack_bits,
    unpack_bits,
)
from repro.parallel import Level1ShardTask
from repro.stabilizer import fused as fused_module

RAGGED_BATCHES = (1, 63, 64, 65, 130)


@dataclass
class _CrosstalkNoise(OperationNoise):
    """A custom alphabet: a one-qubit gate may spill onto the next qubit (mod ``n``)."""

    n: int = 2

    def gate_channel(self, name, qubits):
        if len(qubits) == 2:
            return super().gate_channel(name, qubits)
        support = (qubits[0], (qubits[0] + 1) % self.n)
        return PauliChannel(self.p_single, support, ("XX", "ZZ", "YI"))


def _random_noisy_circuit(seed: int) -> Circuit:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    circuit = Circuit(n)
    for qubit in range(n):
        circuit.prepare(qubit)
    for index in range(int(rng.integers(30, 70))):
        roll = rng.random()
        if roll < 0.35:
            a, b = map(int, rng.choice(n, 2, replace=False))
            circuit.append(Gate.gate(str(rng.choice(("CNOT", "CZ", "SWAP"))), a, b))
        elif roll < 0.7:
            name = str(rng.choice(("H", "S", "SDG", "X", "Y", "Z", "I")))
            circuit.append(Gate.gate(name, int(rng.integers(n))))
        elif roll < 0.8:
            circuit.prepare(int(rng.integers(n)))
        elif roll < 0.9:
            circuit.measure(int(rng.integers(n)), label=f"z{index}")
        else:
            circuit.measure_x(int(rng.integers(n)), label=f"x{index}")
    return circuit


def _use_tier(monkeypatch, tier: str) -> None:
    monkeypatch.setenv("REPRO_FUSED_KERNEL", tier)
    monkeypatch.setattr(fused_module, "_TIER_CACHE", {})


def _native() -> None:
    if fused_module._cext_kernel() is None:
        pytest.skip("no C kernel on this host")


class TestTierParity:
    @pytest.mark.parametrize("batch", RAGGED_BATCHES)
    def test_c_tier_equals_numpy_tier(self, monkeypatch, batch):
        if fused_module._cext_kernel() is None:
            pytest.skip("no C kernel on this host")
        for seed in range(8):
            circuit = _random_noisy_circuit(500 + seed)
            noise = OperationNoise(
                p_single=0.05, p_double=0.08, p_measure=0.03, p_prepare=0.04, p_move_per_cell=0.01
            )
            if seed % 2:
                noise = _CrosstalkNoise(**vars(noise), n=circuit.num_qubits)
            runs = []
            for tier in ("cext", "numpy"):
                _use_tier(monkeypatch, tier)
                runs.append(
                    BatchedNoisyCircuitExecutor(noise=noise, mapper=LayoutMapper()).run(
                        circuit, batch, np.random.default_rng(seed)
                    )
                )
            native, fallback = runs
            assert np.array_equal(native.outcome_words, fallback.outcome_words), seed
            assert np.array_equal(native.error_count, fallback.error_count), seed
            assert np.array_equal(native.tableau.frame_x, fallback.tableau.frame_x), seed
            assert np.array_equal(native.tableau.frame_z, fallback.tableau.frame_z), seed
            assert native.tableau.reference is fallback.tableau.reference


def _wilson(successes: int, trials: int, z: float = 3.5) -> tuple[float, float]:
    p = successes / trials
    denominator = 1.0 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denominator
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denominator
    return centre - half, centre + half


#: Level-1 rate of the oracle comparison: ~10% failures, ~75% syndromes, and
#: ~75% of preparations rejected by verification.
ORACLE_RATE = 2.0e-2


@functools.cache
def _scalar_counts(attempts: int) -> tuple[dict[str, int], int]:
    """Per-shot oracle counts of the Level-1 flags at :data:`ORACLE_RATE`."""
    experiment = Level1EccExperiment(
        noise=_noise_for_rate(ORACLE_RATE, EXPECTED_PARAMETERS),
        max_preparation_attempts=attempts,
    )
    rng = np.random.default_rng(404)
    shots = [experiment.run_trial_detailed(rng) for _ in range(200)]
    return {key: sum(shot[key] for shot in shots) for key in shots[0]}, len(shots)


class TestScalarAgreement:
    @pytest.mark.parametrize(
        "batch, attempts",
        [pytest.param(batch, 20, id=str(batch)) for batch in (1, 63, 64, 65, 4096)]
        # Two attempts at a ~75% rejection rate: the cap binds on most lanes.
        + [pytest.param(4096, 2, id="capped")],
    )
    def test_frame_engine_agrees_with_scalar_oracle(self, batch, attempts):
        counts, trials = _scalar_counts(attempts)
        experiment = Level1EccExperiment(
            noise=_noise_for_rate(ORACLE_RATE, EXPECTED_PARAMETERS),
            max_preparation_attempts=attempts,
        )
        rng = np.random.default_rng(batch)
        calls = max(1, (512 if batch == 1 else 4096) // batch)
        outcomes = [experiment.run_trial_batch_detailed(rng, batch) for _ in range(calls)]
        for key, count in counts.items():
            frame = sum(int(outcome[key].sum()) for outcome in outcomes)
            frame_low, frame_high = _wilson(frame, calls * batch)
            scalar_low, scalar_high = _wilson(count, trials)
            assert frame_low <= scalar_high and scalar_low <= frame_high, (key, frame, count)


class _ScriptedAttempts:
    """Stands in for ``_batch_attempt``: returns scripted flags, call by call.

    Each script entry is a string with one letter per lane: ``p``/``P``
    passes verification, ``f``/``F`` fails it, and an upper-case letter sets
    the lane's ``failure`` flag, so the attempt a lane kept can be told apart.
    """

    def __init__(self, *script: str) -> None:
        self.script = list(script)
        self.widths: list[int] = []

    def __call__(self, rng, batch_size: int) -> dict[str, np.ndarray]:
        self.widths.append(batch_size)
        lanes = self.script.pop(0)[:batch_size]
        assert len(lanes) == batch_size, (lanes, batch_size)
        return {
            "failure": np.array([lane.isupper() for lane in lanes]),
            "nontrivial_syndrome": np.zeros(batch_size, dtype=bool),
            "verification_passed": np.array([lane in "Pp" for lane in lanes]),
        }


def _native_hand_out(passed: np.ndarray, budgets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_hand_out`` through the C routine ``repro_hand_out``."""
    passed = np.ascontiguousarray(passed, dtype=np.uint8)
    budgets = np.ascontiguousarray(budgets, dtype=np.int64)
    starts, ends = np.zeros((2, budgets.size), dtype=np.int64)
    served = fused_module._cext_kernel().repro_hand_out(
        passed.size,
        passed.ctypes.data,
        budgets.size,
        budgets.ctypes.data,
        starts.ctypes.data,
        ends.ctypes.data,
    )
    return starts[:served], ends[:served]


def _scripted_run(monkeypatch, attempts: int, batch: int, *script: str):
    """Run the Python retry loop on scripted attempts: ``(outcome, widths)``.

    Where the C kernel is available, every hand-out of the run is also dealt
    by ``repro_hand_out``, which must agree.
    """
    _use_tier(monkeypatch, "numpy")
    scripted = _ScriptedAttempts(*script)
    experiment = Level1EccExperiment(
        noise=_noise_for_rate(ORACLE_RATE, EXPECTED_PARAMETERS),
        max_preparation_attempts=attempts,
    )
    monkeypatch.setattr(experiment, "_batch_attempt", scripted)
    if fused_module._cext_kernel() is not None:

        def both(passed, budgets):
            starts, ends = _hand_out(passed, budgets)
            native = _native_hand_out(passed, budgets)
            assert np.array_equal(native[0], starts) and np.array_equal(native[1], ends)
            return starts, ends

        monkeypatch.setattr(experiments_module, "_hand_out", both)
    outcome = experiment.run_trial_batch_detailed(np.random.default_rng(0), batch)
    assert not scripted.script, "unused script entries"
    assert experiment._attempt_widths == tuple(scripted.widths)
    return outcome, scripted.widths


def _letters(outcome) -> str:
    """The script letter each lane's final flags correspond to."""
    return "".join(
        ("P" if failed else "p") if passed else ("F" if failed else "f")
        for failed, passed in zip(outcome["failure"], outcome["verification_passed"])
    )


class TestPooledRetries:
    def test_lanes_take_pool_attempts_in_order_and_keep_the_capped_one(self, monkeypatch):
        # Lanes 1, 3 and 5 are rejected.  Lane 1 takes pool lanes 0 and 1,
        # reaching the cap of three attempts on 1, whose outcome it keeps;
        # lane 3 passes on pool lane 2, lane 5 on 4 after a rejection on 3.
        outcome, widths = _scripted_run(monkeypatch, 3, 6, "pfpfpf", "fFpfPf")
        assert _letters(outcome) == "pFpppP"
        assert widths == [6, 6]
        # A lane whose pool ends on its capped attempt keeps that one too.
        outcome, widths = _scripted_run(monkeypatch, 3, 4, "pFpf", "fPfF")
        assert _letters(outcome) == "pPpF"
        assert widths == [4, 4]

    def test_a_cut_off_lane_carries_its_count_into_the_next_pool(self, monkeypatch):
        # Every lane is rejected at first.  Lane 0 takes the whole first pool
        # and is cut off at its end with five attempts, so the next pool's
        # lane 0 is its sixth and last: it keeps that rejection, and lanes
        # 1-3 take the passing pool lanes after it.
        outcome, widths = _scripted_run(monkeypatch, 6, 4, "ffff", "ffff", "FPpP")
        assert _letters(outcome) == "FPpP"
        assert widths == [4, 4, 4]

    def test_pool_width_follows_the_first_acceptance(self, monkeypatch):
        # 60 of 64 lanes pass the first attempt (a = 0.9375): four pending
        # lanes get a pool of ceil(1.15 * 4 / a) + 8 = 13 lanes.  Lanes 0
        # and 1 pass in it, lane 2 is cut off by its end and lane 3 gets
        # nothing, so the next pool holds ceil(1.15 * 2 / a) + 8 = 11.
        outcome, widths = _scripted_run(
            monkeypatch, 20, 64, "ffff" + "p" * 60, "P" + "f" * 10 + "pf", "pP" + "f" * 9
        )
        assert widths == [64, 13, 11]
        assert _letters(outcome)[:4] == "PppP"

    def test_one_attempt_makes_one_call(self, monkeypatch):
        outcome, widths = _scripted_run(monkeypatch, 1, 5, "FfPpf")
        assert widths == [5]
        assert _letters(outcome) == "FfPpf"

    @pytest.mark.parametrize("rate", [4.0e-3, 2.0e-2, 0.3])
    @pytest.mark.parametrize("tier", fused_module.KERNEL_TIERS)
    def test_no_call_is_wider_than_the_batch(self, monkeypatch, rate, tier):
        if tier == "cext":
            _native()
        _use_tier(monkeypatch, tier)
        experiment = Level1EccExperiment(noise=_noise_for_rate(rate, EXPECTED_PARAMETERS))
        spied = []
        attempt = experiment._batch_attempt

        def spying(rng, batch_size):
            spied.append(batch_size)
            return attempt(rng, batch_size)

        monkeypatch.setattr(experiment, "_batch_attempt", spying)
        for batch in (1, 65, 1000):
            spied.clear()
            experiment.run_trial_batch_detailed(np.random.default_rng(batch), batch)
            # The native call reports its attempts; the Python loop's are
            # the calls it made.
            widths = list(experiment._attempt_widths)
            assert spied == ([] if tier == "cext" else widths), (spied, widths)
            assert widths[0] == batch and max(widths) <= batch, widths
            # A wholly rejected first attempt still gives at most a batch
            # per pending lane's remaining attempts.
            assert sum(widths[1:]) <= 19 * batch, widths

    @pytest.mark.parametrize("seed", range(4))
    def test_the_c_hand_out_equals_the_python_hand_out(self, seed):
        _native()
        rng = np.random.default_rng(seed)
        for width in (1, 2, 9, 64, 300):
            for _ in range(25):
                passed = rng.random(width) < rng.choice((0.05, 0.5, 0.95))
                budgets = rng.integers(1, rng.choice((2, 4, 20)), size=int(rng.integers(1, 40)))
                expected = _hand_out(passed, budgets)
                native = _native_hand_out(passed, budgets)
                assert np.array_equal(native[0], expected[0]), (passed, budgets)
                assert np.array_equal(native[1], expected[1]), (passed, budgets)


#: The numpy bit generators whose state the native trial batch draws from.
BIT_GENERATORS = (
    np.random.PCG64,
    np.random.PCG64DXSM,
    np.random.Philox,
    np.random.MT19937,
    np.random.SFC64,
)

#: Batch sizes of the tier comparison: ragged, whole-word and a full batch.
TIER_BATCHES = (1, 31, 63, 64, 65, 512, 4096)


def _same_state(first, second) -> bool:
    """Equal ``bit_generator.state`` dicts (MT19937's holds an array)."""
    if isinstance(first, dict):
        return first.keys() == second.keys() and all(
            _same_state(first[key], second[key]) for key in first
        )
    if isinstance(first, np.ndarray):
        return np.array_equal(first, second)
    return first == second


def _tier_runs(monkeypatch, run, generator, seed):
    """``run(rng)`` on each kernel tier from equal generators: per tier, the
    result and the generator's state after the call."""
    results = {}
    for tier in fused_module.KERNEL_TIERS:
        _use_tier(monkeypatch, tier)
        rng = np.random.Generator(generator(seed))
        results[tier] = run(rng), rng.bit_generator.state
    return results


class TestTrialBatchTiers:
    def _compare(self, monkeypatch, experiment, batch, generator, seed):
        """The native batch equals the Python loop; returns the attempt widths."""

        def run(rng):
            outcome = experiment.run_trial_batch_detailed(rng, batch)
            return outcome, experiment._attempt_widths

        calls = []
        # The class's method: an experiment compared again keeps one spy.
        attempt = functools.partial(Level1EccExperiment._batch_attempt, experiment)

        def spying(rng, width):
            calls.append(fused_module.kernel_tier())
            return attempt(rng, width)

        monkeypatch.setattr(experiment, "_batch_attempt", spying)
        runs = _tier_runs(monkeypatch, run, generator, seed)
        (native, native_widths), native_state = runs["cext"]
        (python, python_widths), python_state = runs["numpy"]
        for key, flags in python.items():
            assert native[key].shape == (batch,) and native[key].dtype == bool
            assert np.array_equal(native[key], flags), (key, batch, generator.__name__)
        assert native_widths == python_widths, (batch, generator.__name__)
        assert _same_state(native_state, python_state), (batch, generator.__name__)
        # The Python loop made one call per attempt; the native one none.
        assert calls == ["numpy"] * len(python_widths)
        return native_widths

    @pytest.mark.parametrize("rate", [1.0e-3, 4.0e-3, 0.3])
    @pytest.mark.parametrize("attempts", [1, 2, 20])
    def test_native_batch_equals_python_loop(self, monkeypatch, rate, attempts):
        _native()
        experiment = Level1EccExperiment(
            noise=_noise_for_rate(rate, EXPECTED_PARAMETERS), max_preparation_attempts=attempts
        )
        widths = [
            self._compare(
                monkeypatch, experiment, batch, BIT_GENERATORS[i % len(BIT_GENERATORS)], batch
            )
            for i, batch in enumerate(TIER_BATCHES)
        ]
        if attempts < 20:
            # One pool holds an attempt for every pending lane.
            assert max(map(len, widths)) <= attempts, widths
        if rate == 0.3 and attempts > 1:
            # Nearly every preparation is rejected: pool after pool, until
            # most lanes reach the cap.
            assert max(map(len, widths)) >= min(attempts, 10), widths
            outcome = experiment.run_trial_batch_detailed(np.random.default_rng(0), 4096)
            assert outcome["verification_passed"].mean() < 0.5

    @pytest.mark.parametrize("generator", BIT_GENERATORS, ids=lambda g: g.__name__)
    def test_every_bit_generator_gives_the_same_stream(self, monkeypatch, generator):
        _native()
        experiment = Level1EccExperiment(noise=_noise_for_rate(2.0e-2, EXPECTED_PARAMETERS))
        for batch in (65, 512):
            widths = self._compare(monkeypatch, experiment, batch, generator, 11)
            assert len(widths) >= 2, widths

    def test_a_pool_one_lane_narrower_than_the_batch(self, monkeypatch):
        # Seed 33 rejects enough of 32 lanes at p = 1e-2 that the margin
        # term, ceil(1.15 m / a) + 8, is 31: one below the batch.
        _native()
        experiment = Level1EccExperiment(noise=_noise_for_rate(1.0e-2, EXPECTED_PARAMETERS))
        widths = self._compare(monkeypatch, experiment, 32, np.random.PCG64, 33)
        assert widths[:2] == (32, 31), widths

    def test_a_numpy_integer_batch_size_runs_on_both_tiers(self, monkeypatch):
        _native()
        experiment = Level1EccExperiment(noise=_noise_for_rate(2.0e-2, EXPECTED_PARAMETERS))
        widths = self._compare(monkeypatch, experiment, np.int64(70), np.random.PCG64, 3)
        assert widths[0] == 70

    def test_unverified_ancillas_make_one_attempt(self, monkeypatch):
        _native()
        experiment = Level1EccExperiment(
            noise=_noise_for_rate(0.3, EXPECTED_PARAMETERS), verified_ancilla=False
        )
        for i, batch in enumerate(TIER_BATCHES):
            generator = BIT_GENERATORS[i % len(BIT_GENERATORS)]
            assert self._compare(monkeypatch, experiment, batch, generator, i) == (batch,)

    def test_the_syndrome_metric_is_equal_on_both_tiers(self, monkeypatch):
        _native()
        task = Level1ShardTask(physical_rate=4.0e-3, metric="nontrivial_syndrome")
        for batch in (63, 512):
            runs = _tier_runs(monkeypatch, lambda rng: task(rng, batch), np.random.PCG64, batch)
            (native, native_state), (python, python_state) = runs["cext"], runs["numpy"]
            assert native.any() and np.array_equal(native, python)
            assert _same_state(native_state, python_state)

    def test_an_injected_native_fault_runs_the_python_loop(self, monkeypatch):
        _native()
        experiment = Level1EccExperiment(noise=_noise_for_rate(2.0e-2, EXPECTED_PARAMETERS))
        _use_tier(monkeypatch, "cext")
        expected = experiment.run_trial_batch_detailed(np.random.default_rng(4), 130)
        expected_widths = experiment._attempt_widths
        monkeypatch.delenv("REPRO_FUSED_KERNEL")

        def refuse(*args, **kwargs):
            raise AssertionError("the native trial batch ran under a kernel.native fault")

        monkeypatch.setattr(experiments_module, "_level1_batch", refuse)
        calls = []
        attempt = experiment._batch_attempt

        def counting(rng, width):
            calls.append(width)
            return attempt(rng, width)

        monkeypatch.setattr(experiment, "_batch_attempt", counting)
        with faults.fault_profile(faults.FaultProfile(seed=0, kernel=1.0)):
            outcome = experiment.run_trial_batch_detailed(np.random.default_rng(4), 130)
        assert tuple(calls) == experiment._attempt_widths == expected_widths
        for key, flags in expected.items():
            assert np.array_equal(outcome[key], flags), key


class TestReferencePass:
    def test_rebuilt_experiments_reuse_the_reference_pass(self, monkeypatch):
        calls = []
        original = fused_module._reference_pass

        def counting(plan, start):
            calls.append(plan.opcodes.shape[0])
            return original(plan, start)

        monkeypatch.setattr(fused_module, "_reference_pass", counting)
        monkeypatch.setattr(fused_module, "_REFERENCE_CACHE", {})
        noise = _noise_for_rate(4.0e-3, EXPECTED_PARAMETERS)
        for seed in range(3):
            Level1EccExperiment(noise=noise).run_trial_batch_detailed(
                np.random.default_rng(seed), 64
            )
        # One pass over an attempt's preparation, logical gate and ECC cycle,
        # however many experiments compile their own copies of the programs.
        programs = Level1EccExperiment(noise=noise)._attempt_segments
        assert calls == [sum(program.opcodes.size for program, _ in programs)]

    def test_random_outcomes_are_the_drawn_words(self):
        circuit = Circuit(2).h(0).cnot(0, 1).measure(0, label="a").measure(1, label="b")
        program = compile_circuit(circuit)
        rng = np.random.default_rng(9)
        state = PauliFrameBatch(2, 130, rng=rng)
        words, _ = fused_module.execute_fused(program, 130, rng, state, NoiselessModel())
        # Word w of the run's only random measurement: counter w of stream 0
        # under the run's seed.
        seed = np.random.default_rng(9).bit_generator.random_raw()
        key = fused_module._stream_key(seed, fused_module._MEASURE_STREAM)
        expected = fused_module._np_draws(key, np.arange(3, dtype=np.uint64))[None]
        assert np.array_equal(words[0], expected[0])
        assert np.array_equal(words[1], expected[0])
        # The reference took outcome 0; the lanes that drew 1 carry it in
        # their frames.
        assert np.array_equal(state.frame_x[0], expected[0])

    def test_preparation_clears_the_frame_x_bit(self):
        state = PauliFrameBatch(1, 70)
        flips = np.zeros((1, 70), dtype=np.uint8)
        flips[0, ::2] = 1
        state.inject_pauli_words((0,), pack_bits(flips), pack_bits(flips))
        BatchedNoisyCircuitExecutor().run(
            Circuit(1).prepare(0), 70, np.random.default_rng(0), tableau=state
        )
        assert not state.frame_x.any()


class TestProgramChecks:
    @pytest.mark.parametrize(
        "channel, match",
        [
            (PauliChannel(1.5, (0,), ("X",)), "outside \\[0, 1\\]"),
            (PauliChannel(-0.1, (0,), ("X",)), "outside \\[0, 1\\]"),
            (PauliChannel(0.1, (0, 2), ("XX",)), "outside register of size 2"),
            (PauliChannel(0.1, (-1,), ("X",)), "outside the register"),
            (PauliChannel(0.1, (0,), ("XX",)), "1-qubit support"),
            (PauliChannel(0.1, (0, 1), ("X", "Z")), "2-qubit support"),
            (PauliChannel(0.1, (0,), ("Q",)), "'Q'"),
            (PauliChannel(0.1, (0, 1), ("XI", "II")), "'II'"),
            (PauliChannel(0.0, (0,), ("I",)), "'I'"),
        ],
    )
    @pytest.mark.parametrize("engine", ["scalar", "frame"])
    def test_malformed_declarations_are_rejected(self, engine, channel, match):
        class BadNoise(NoiseModel):
            def gate_channel(self, name, qubits):
                return channel

        circuit = Circuit(2).h(0).measure(0)
        with pytest.raises(SimulationError, match=match):
            if engine == "scalar":
                NoisyCircuitExecutor(noise=BadNoise()).run(circuit, np.random.default_rng(0))
            else:
                BatchedNoisyCircuitExecutor(noise=BadNoise()).run(
                    circuit, 130, np.random.default_rng(0)
                )

    @pytest.mark.parametrize("engine", ["scalar", "frame"])
    def test_flip_probability_outside_the_unit_interval_is_rejected(self, engine):
        class BadFlips(NoiseModel):
            def measurement_flip_probability(self):
                return 1.5

        circuit = Circuit(1).measure(0)
        with pytest.raises(SimulationError, match="flip probability"):
            if engine == "scalar":
                NoisyCircuitExecutor(noise=BadFlips()).run(circuit, np.random.default_rng(0))
            else:
                BatchedNoisyCircuitExecutor(noise=BadFlips()).run(
                    circuit, 8, np.random.default_rng(0)
                )

    def test_is_simulable_is_computed_once_per_program(self, monkeypatch):
        program = compile_circuit(Circuit(2).h(0).cnot(0, 1))
        calls = []
        isin = np.isin

        def counting(*args, **kwargs):
            calls.append(1)
            return isin(*args, **kwargs)

        monkeypatch.setattr(compiled_module.np, "isin", counting)
        assert all(program.is_simulable for _ in range(3))
        assert len(calls) == 1

    def test_require_simulable_runs_once_per_run(self, monkeypatch):
        calls = []
        original = fused_module.require_simulable

        def counting(program):
            calls.append(program.name)
            return original(program)

        monkeypatch.setattr(fused_module, "require_simulable", counting)
        BatchedNoisyCircuitExecutor().run(Circuit(1).h(0).measure(0), 8, np.random.default_rng(0))
        assert len(calls) == 1


class TestPackedDecode:
    def test_correction_words_match_the_dense_tables(self):
        experiment = Level1EccExperiment(noise=_noise_for_rate(0.0, EXPECTED_PARAMETERS))
        batch = 200
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, size=(3, batch)).astype(np.uint8)
        index = (bits * np.array([[4], [2], [1]])).sum(axis=0)
        tables = experiment._decode_tables
        hits = tables.value_hits(pack_bits(bits))
        # Only X corrections reach the logical Z readout, so only they have words.
        table = experiment._decoder.correction_table("X")
        corrections = tables.x_corrections(hits)
        assert np.array_equal(unpack_bits(corrections, batch), table[index].T)

    def test_ideal_recovery_on_words_matches_the_scalar_recovery(self):
        experiment = Level1EccExperiment(noise=_noise_for_rate(0.05, EXPECTED_PARAMETERS))
        batch = 130
        rng = np.random.default_rng(3)
        state = create_batch_tableau(21, batch, rng=rng)
        # The preparation and gate segments of an attempt, without the ECC cycle.
        segments = experiment._attempt_segments[:2]
        experiment._batch_executor.run(segments, batch, rng, tableau=state)
        says_one = unpack_bits(
            experiment._decode_tables.ideal_recovery_says_one(
                experiment._signs_for(state.reference), state.frame_x[:7]
            ),
            batch,
        )
        assert 0 < says_one.sum() < batch
        for lane in range(0, batch, 7):
            assert says_one[lane] == experiment._ideal_recovery_says_one(state.lane(lane)), lane


def _sparse_words(rng, shape, density_halvings: int) -> np.ndarray:
    """Random uint64 words with about ``2**-density_halvings`` of their bits set."""
    words = rng.integers(0, 2**64, size=shape, dtype=np.uint64)
    for _ in range(density_halvings):
        words &= rng.integers(0, 2**64, size=shape, dtype=np.uint64)
    return words


class TestDecodeTiers:
    @pytest.mark.parametrize("verified", [True, False], ids=["verified", "unverified"])
    @pytest.mark.parametrize("batch", RAGGED_BATCHES + (4096,))
    def test_c_decode_equals_numpy_decode(self, monkeypatch, batch, verified):
        if fused_module._cext_kernel() is None:
            pytest.skip("no C kernel on this host")
        experiment = Level1EccExperiment(
            noise=_noise_for_rate(0.0, EXPECTED_PARAMETERS), verified_ancilla=verified
        )
        tables = experiment._decode_tables
        slots = sum(program.num_measurements for program, _ in experiment._attempt_segments)
        rng = np.random.default_rng(batch)
        # -1: a reference outside the code space; the rest cover every sign
        # of the three Z stabilizers and the logical.
        for signs in (-1, 0, 5, 8, 15):
            for halvings in (0, 3, 6):
                words = _sparse_words(rng, (slots, num_words(batch)), halvings)
                state = PauliFrameBatch(experiment._register_size, batch)
                state.frame_x[:] = _sparse_words(rng, state.frame_x.shape, 2)
                flags = {}
                for tier in ("cext", "numpy"):
                    _use_tier(monkeypatch, tier)
                    flags[tier] = fused_module.lookup_decode(tables, signs, words, state)
                assert flags["cext"].shape == (3, batch)
                assert np.array_equal(flags["cext"], flags["numpy"]), (signs, halvings)
                if signs < 0:
                    assert flags["cext"][0].all()
                if not verified:
                    assert flags["cext"][2].all()

    def test_the_c_attempt_makes_no_numpy_decode_call(self, monkeypatch):
        if fused_module._cext_kernel() is None:
            pytest.skip("no C kernel on this host")
        experiment = Level1EccExperiment(noise=_noise_for_rate(2.0e-2, EXPECTED_PARAMETERS))
        _use_tier(monkeypatch, "numpy")
        expected = experiment._batch_attempt(np.random.default_rng(5), 130)

        def refuse(*args, **kwargs):
            raise AssertionError("the numpy decode ran on the C tier")

        _use_tier(monkeypatch, "cext")
        monkeypatch.setattr(fused_module, "lookup_decode_numpy", refuse)
        monkeypatch.setattr(fused_module._WordParity, "__call__", refuse)
        monkeypatch.setattr(fused_module, "unpack_bits", refuse)
        monkeypatch.setattr(np, "stack", refuse)
        outcome = experiment._batch_attempt(np.random.default_rng(5), 130)
        for key, flags in expected.items():
            assert np.array_equal(outcome[key], flags), key

    def test_the_c_attempt_takes_each_address_once(self, monkeypatch):
        if fused_module._cext_kernel() is None:
            pytest.skip("no C kernel on this host")
        experiment = Level1EccExperiment(noise=_noise_for_rate(2.0e-2, EXPECTED_PARAMETERS))
        _use_tier(monkeypatch, "numpy")
        expected = experiment._batch_attempt(np.random.default_rng(5), 130)
        _use_tier(monkeypatch, "cext")
        experiment._batch_attempt(np.random.default_rng(5), 130)  # builds the caches
        taken = []
        original = fused_module._address

        def recording(array):
            taken.append(original(array))
            return taken[-1]

        monkeypatch.setattr(fused_module, "_address", recording)
        outcome = experiment._batch_attempt(np.random.default_rng(5), 130)
        # The outcome words, both frames, the error counts and the flags.
        assert len(taken) == len(set(taken)) == 5
        for key, flags in expected.items():
            assert np.array_equal(outcome[key], flags), key

    def test_decode_tables_are_built_on_the_first_batched_attempt(self):
        experiment = Level1EccExperiment(noise=_noise_for_rate(2.0e-2, EXPECTED_PARAMETERS))
        assert "_decode_tables" not in vars(experiment)
        experiment.run_trial_batch_detailed(np.random.default_rng(0), 8)
        assert isinstance(vars(experiment)["_decode_tables"], fused_module.LookupDecodeTables)
