"""Contracts of the Pauli-frame engine beyond the recorded v1.9 digests.

* the C kernel tier equals the numpy tier bit for bit -- outcome words,
  error counts, frames and reference -- on random noisy circuits, custom
  noise models included;
* the engine agrees with the scalar per-shot oracle within Wilson intervals
  at ragged and full-word batch sizes, and with a binding retry cap;
* pooled verification retries hand their lanes out in order, keep a capped
  lane's last outcome, carry a cut-off lane's count into the next pool and
  never run a call wider than the batch;
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

import repro.circuits.compiled as compiled_module
from repro.arq import BatchedNoisyCircuitExecutor, LayoutMapper, NoisyCircuitExecutor
from repro.arq.experiments import Level1EccExperiment, _noise_for_rate
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


def _scripted_run(monkeypatch, attempts: int, batch: int, *script: str):
    scripted = _ScriptedAttempts(*script)
    experiment = Level1EccExperiment(
        noise=_noise_for_rate(ORACLE_RATE, EXPECTED_PARAMETERS),
        max_preparation_attempts=attempts,
    )
    monkeypatch.setattr(experiment, "_batch_attempt", scripted)
    outcome = experiment.run_trial_batch_detailed(np.random.default_rng(0), batch)
    assert not scripted.script, "unused script entries"
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
    def test_no_call_is_wider_than_the_batch(self, monkeypatch, rate):
        experiment = Level1EccExperiment(noise=_noise_for_rate(rate, EXPECTED_PARAMETERS))
        widths = []
        attempt = experiment._batch_attempt

        def spying(rng, batch_size):
            widths.append(batch_size)
            return attempt(rng, batch_size)

        monkeypatch.setattr(experiment, "_batch_attempt", spying)
        for batch in (1, 65, 1000):
            widths.clear()
            experiment.run_trial_batch_detailed(np.random.default_rng(batch), batch)
            assert widths[0] == batch and max(widths) <= batch, widths
            # A wholly rejected first attempt still gives at most a batch
            # per pending lane's remaining attempts.
            assert sum(widths[1:]) <= 19 * batch, widths


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
