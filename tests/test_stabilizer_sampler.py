"""The frame kernel's noise sampler: one seed per run, geometric gaps per class.

Pinned here:

* the C and numpy tiers agree bit for bit on random programs under the
  built-in models and custom two- and three-qubit alphabets, at ragged batch
  sizes and at probabilities from 1e-9 to 1, including runs that pass whole
  threshold tables (a draw at or past the last threshold) many times;
* the law: per-event failure counts, the lanes of each failure set and the
  letters of each alphabet fall within Wilson intervals of independent
  Bernoulli lanes with uniform letters -- also with a two-entry gap table,
  which makes nearly every failure follow a table pass;
* ghost lanes past the batch never receive noise, and ``p = 1`` fails
  every real lane;
* a run takes exactly one 64-bit value from its generator, and a pooled
  sweep replays its recorded serial values;
* plans and noise templates are keyed on program content, so separately
  built experiments share them.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.api import ExecutionSpec, ExperimentSpec, NoiseSpec, SamplingSpec, run
from repro.arq import BatchedNoisyCircuitExecutor, LayoutMapper
from repro.arq.experiments import Level1EccExperiment, _noise_for_rate
from repro.circuits import Circuit, Gate
from repro.circuits.compiled import Opcode, compile_circuit
from repro.iontrap.parameters import EXPECTED_PARAMETERS
from repro.qecc.syndrome import full_error_correction_circuit
from repro.stabilizer import (
    DepolarizingNoise,
    NoiseModel,
    NoiselessModel,
    OperationNoise,
    PauliChannel,
)
from repro.stabilizer import fused as fused_module

RAGGED_BATCHES = (1, 63, 64, 65, 130)

PROBABILITIES = (1e-9, 1e-3, 0.3, 0.5, 1.0)


def _wilson(successes: int, trials: int, z: float = 4.0) -> tuple[float, float]:
    """Wilson score interval; z = 4 keeps fixed-seed checks far from flaky."""
    phat = successes / trials
    denominator = 1.0 + z * z / trials
    centre = (phat + z * z / (2 * trials)) / denominator
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return centre - half / denominator, centre + half / denominator


def _within(count: int, trials: int, p: float) -> bool:
    low, high = _wilson(count, trials)
    return low <= p <= high


class _Alphabet(NoiseModel):
    """Every gate fails with probability ``p`` and applies one of ``letters``.

    A one-letter alphabet of width one spans the gate's first qubit; wider
    letters span it and the next qubits (mod ``n``).  Measurements flip with
    probability ``p_flip``.
    """

    def __init__(self, p: float, letters: tuple[str, ...], n: int, p_flip: float = 0.0) -> None:
        self.p, self.letters, self.n, self.p_flip = p, letters, n, p_flip

    def gate_channel(self, name, qubits):
        support = tuple((qubits[0] + j) % self.n for j in range(len(self.letters[0])))
        return PauliChannel(self.p, support, self.letters)

    def measurement_flip_probability(self):
        return self.p_flip


PAIR_LETTERS = ("XX", "ZZ", "YI")
TRIPLE_LETTERS = tuple("".join(word) for word in itertools.product("XYZ", repeat=3))


def _random_circuit(seed: int) -> Circuit:
    """Random Clifford gates, preparations and measurements on 3 to 6 qubits."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
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


def _model(kind: str, p: float, n: int) -> NoiseModel:
    if kind == "operation":
        return OperationNoise(
            p_single=p, p_double=p / 2, p_measure=p / 3, p_prepare=p, p_move_per_cell=p / 4
        )
    if kind == "depolarizing":
        return DepolarizingNoise(p)
    return _Alphabet(p, PAIR_LETTERS if kind == "pair" else TRIPLE_LETTERS, n, p_flip=p / 2)


def _runs_on_both_tiers(monkeypatch, circuit, noise, batch, seed):
    """The executor's results on the C tier and on the numpy tier."""
    results = []
    for tier in ("cext", "numpy"):
        monkeypatch.setenv("REPRO_FUSED_KERNEL", tier)
        results.append(
            BatchedNoisyCircuitExecutor(noise=noise, mapper=LayoutMapper()).run(
                circuit, batch, np.random.default_rng(seed)
            )
        )
    return results


def _assert_same_run(first, second, context):
    assert np.array_equal(first.outcome_words, second.outcome_words), context
    assert np.array_equal(first.error_count, second.error_count), context
    assert np.array_equal(first.tableau.frame_x, second.tableau.frame_x), context
    assert np.array_equal(first.tableau.frame_z, second.tableau.frame_z), context


def _table_passes(template, batch: int, seed: int) -> int:
    """How many draws of a run pass a whole threshold table."""
    passes = 0
    table = template.thresholds.shape[1]
    for c, events in enumerate(template.class_events.tolist()):
        key = fused_module._stream_key(seed, fused_module._GAP_STREAM + c)
        end, position, counter = events * batch, -1, 0
        while position < end:
            draws = fused_module._np_draws(key, np.arange(counter, counter + 4096, dtype=np.uint64))
            gaps = np.searchsorted(template.thresholds[c], draws >> np.uint64(1), side="right")
            positions = position + np.cumsum(np.where(gaps == table, table, gaps + 1))
            passes += int(np.count_nonzero((gaps == table) & (positions - table < end)))
            position, counter = int(positions[-1]), counter + 4096
    return passes


@pytest.fixture
def small_table(monkeypatch):
    """A two-entry gap table: nearly every failure follows a table pass."""
    monkeypatch.setattr(fused_module, "_GAP_TABLE", 2)
    monkeypatch.setattr(fused_module, "_PLAN_CACHE", {})


@pytest.fixture
def native():
    if fused_module._cext_kernel() is None:
        pytest.skip("no C kernel on this host")


class TestTierParity:
    @pytest.mark.parametrize("p", PROBABILITIES)
    @pytest.mark.parametrize("kind", ["operation", "depolarizing", "pair", "triple"])
    def test_c_tier_equals_numpy_tier(self, native, monkeypatch, kind, p):
        for seed, batch in enumerate(RAGGED_BATCHES):
            circuit = _random_circuit(100 * seed + len(kind))
            noise = _model(kind, p, circuit.num_qubits)
            native_run, numpy_run = _runs_on_both_tiers(monkeypatch, circuit, noise, batch, seed)
            _assert_same_run(native_run, numpy_run, (kind, p, batch))

    def test_tiers_agree_through_many_table_passes(self, native, monkeypatch):
        circuit = _random_circuit(7)
        noise = _model("operation", 1e-9, circuit.num_qubits)
        program = compile_circuit(circuit, mapper=LayoutMapper())
        template = fused_module._template_for(fused_module._plan_for(program), (noise,))
        batch = 4096
        seed = np.random.default_rng(3).bit_generator.random_raw()
        # Each class's keys are nearly all passed a table at a time.
        assert _table_passes(template, batch, seed) >= 100
        _assert_same_run(*_runs_on_both_tiers(monkeypatch, circuit, noise, batch, 3), batch)

    @pytest.mark.parametrize("p", [0.3, 0.5])
    def test_tiers_agree_with_a_two_entry_table(self, native, monkeypatch, small_table, p):
        circuit = _random_circuit(11)
        noise = _model("triple", p, circuit.num_qubits)
        program = compile_circuit(circuit, mapper=LayoutMapper())
        template = fused_module._template_for(fused_module._plan_for(program), (noise,))
        assert template.thresholds.shape[1] == 2
        seed = np.random.default_rng(5).bit_generator.random_raw()
        assert _table_passes(template, 130, seed) >= 100
        _assert_same_run(*_runs_on_both_tiers(monkeypatch, circuit, noise, 130, 5), p)


def _small_program():
    """One event of every kind: preparation, one- and two-qubit gate, flip."""
    circuit = Circuit(2).prepare(0).prepare(1).h(0).cnot(0, 1)
    return compile_circuit(circuit.measure(0, label="a").measure(1, label="b"))


def _template(program, noise):
    return fused_module._template_for(fused_module._plan_for(program), (noise,))


def _event_lanes(template, batch: int, seed: int) -> np.ndarray:
    """``(events, B)`` bool: the lanes each event failed in."""
    event, lane, _ = template.sample(batch, seed)
    failed = np.zeros((template.p.size, batch), dtype=bool)
    failed[event, lane] = True
    return failed


class TestLaw:
    NOISE = OperationNoise(p_single=0.05, p_double=0.1, p_measure=0.02, p_prepare=0.03)

    @pytest.mark.parametrize("table", ["full", "two-entry"])
    def test_failure_counts_and_letters_within_wilson_intervals(self, request, table):
        if table == "two-entry":
            request.getfixturevalue("small_table")
        template = _template(_small_program(), self.NOISE)
        batch, seeds = 256, 200
        # Events in program order: prepare 0, prepare 1, H, CNOT, two flips.
        rates = (0.03, 0.03, 0.05, 0.1, 0.02, 0.02)
        assert template.p.tolist() == list(rates)
        failures = np.zeros(len(rates), dtype=np.int64)
        one_qubit = np.zeros(3, dtype=np.int64)  # X, Y, Z
        two_qubit = np.zeros(16, dtype=np.int64)  # symplectic (x0, z0, x1, z1) code
        for seed in range(seeds):
            event, lane, code = template.sample(batch, seed)
            assert np.unique(event * batch + lane).size == event.size
            failures += np.bincount(event, minlength=len(rates))
            xz = template.code_xz[code]
            # Preparation errors are X flips only.
            assert (xz[event < 2, 0] == 1).all()
            h = event == 2
            one_qubit += np.bincount(xz[h, 0] - 1, minlength=3)[[0, 2, 1]]
            cnot = xz[event == 3]
            symplectic = 8 * (cnot[:, 0] & 1) + 4 * (cnot[:, 0] >> 1)
            symplectic += 2 * (cnot[:, 1] & 1) + (cnot[:, 1] >> 1)
            two_qubit += np.bincount(symplectic, minlength=16)
        trials = batch * seeds
        for rate, count in zip(rates, failures):
            assert _within(int(count), trials, rate), (rate, count, trials)
        for count in one_qubit:
            assert _within(int(count), int(one_qubit.sum()), 1 / 3), one_qubit
        assert two_qubit[0] == 0  # a failure is never the identity pair
        for count in two_qubit[1:]:
            assert _within(int(count), int(two_qubit.sum()), 1 / 15), two_qubit

    @pytest.mark.parametrize("count", [2, 4])
    def test_failing_lanes_are_a_uniform_subset(self, count):
        """Given its number of failures, an event's lane set is uniform."""
        batch, wanted = 5, 20000
        circuit = Circuit(1)
        for _ in range(4000):
            circuit.x(0)
        template = _template(compile_circuit(circuit), _Alphabet(0.5, ("X",), 1))
        subsets = {s: i for i, s in enumerate(itertools.combinations(range(batch), count))}
        frequency = np.zeros(len(subsets), dtype=np.int64)
        seed = 0
        while frequency.sum() < wanted:
            failed = _event_lanes(template, batch, seed)
            rows = failed[failed.sum(axis=1) == count][: wanted - int(frequency.sum())]
            for row in rows:
                frequency[subsets[tuple(np.flatnonzero(row).tolist())]] += 1
            seed += 1
        for observed in frequency:
            assert _within(int(observed), wanted, 1 / len(subsets)), frequency

    @pytest.mark.parametrize("batch", [65, 130])
    def test_every_lane_fails_at_the_event_rate(self, batch):
        circuit = Circuit(2)
        for _ in range(500):
            circuit.cnot(0, 1)
        template = _template(compile_circuit(circuit), OperationNoise(p_double=0.05))
        lanes = sum(_event_lanes(template, batch, seed).sum(axis=0) for seed in range(40))
        trials = 500 * 40
        for count in lanes.tolist():
            assert _within(count, trials, 0.05), lanes

    def test_three_qubit_letters_are_uniform(self):
        circuit = Circuit(3)
        for _ in range(300):
            circuit.h(0)
        template = _template(compile_circuit(circuit), _Alphabet(0.3, TRIPLE_LETTERS, 3))
        letters = np.zeros(len(TRIPLE_LETTERS), dtype=np.int64)
        for seed in range(30):
            event, _, code = template.sample(256, seed)
            letters += np.bincount(code - template.event_code[event], minlength=letters.size)
        for count in letters.tolist():
            assert _within(count, int(letters.sum()), 1 / len(TRIPLE_LETTERS)), letters

    def test_letter_redraws_keep_letters_exact(self):
        """Letters near 2**31 reject about a quarter of the draws; all land uniform."""
        letters = 3 * 2**29 + 1
        counters = np.arange(20000, dtype=np.uint64)
        key = fused_module._stream_key(17, fused_module._LETTER_STREAM)
        drawn = fused_module._np_letters(
            key, counters.copy(), np.full(counters.size, letters, dtype=np.uint64), 20000
        )
        # Lemire's method, one counter at a time, against the same stream.
        expected = []
        for counter in counters.tolist():
            while True:
                value = int(fused_module._np_draws(key, np.array([counter], dtype=np.uint64))[0])
                product = (value >> 32) * letters
                if product & 0xFFFFFFFF >= 2**32 % letters:
                    break
                counter += 20000
            expected.append(product >> 32)
        assert drawn.tolist() == expected
        # Four equal bins of the letters are equally likely.
        bins = np.bincount(drawn * 4 // letters, minlength=4)
        for count in bins.tolist():
            assert _within(count, counters.size, 0.25), bins

    def test_template_holds_no_zero_probability_events(self):
        circuit, _, _ = full_error_correction_circuit(data_offset=0, num_qubits=21, verified=True)
        program = compile_circuit(circuit, mapper=LayoutMapper())
        assert program.movement_exposure.max() > 0
        template = _template(program, OperationNoise(p_single=0.01, p_prepare=0.02))
        assert (template.p > 0.0).all()
        resets = {int(Opcode.PREPARE), int(Opcode.MEASURE), int(Opcode.MEASURE_X)}
        opcodes = program.opcodes.tolist()
        singles = sum(
            1 for op, q1 in zip(opcodes, program.qubit1.tolist()) if q1 < 0 and op not in resets
        )
        assert template.p.size == opcodes.count(int(Opcode.PREPARE)) + singles

    @pytest.mark.parametrize("noise", [OperationNoise(), NoiselessModel()])
    def test_zero_rates_declare_no_events(self, noise):
        circuit, _, _ = full_error_correction_circuit(data_offset=0, num_qubits=21, verified=True)
        program = compile_circuit(circuit, mapper=LayoutMapper())
        template = _template(program, noise)
        assert template.p.size == 0 and template.class_events.size == 0
        result = BatchedNoisyCircuitExecutor(noise=noise).run(
            program, 130, np.random.default_rng(0)
        )
        assert not result.error_count.any()


@pytest.fixture(params=fused_module.KERNEL_TIERS)
def tier(request, monkeypatch):
    """Run the test on each kernel tier this host has."""
    if request.param == "cext" and fused_module._cext_kernel() is None:
        pytest.skip("no C kernel on this host")
    monkeypatch.setenv("REPRO_FUSED_KERNEL", request.param)
    return request.param


class TestLanes:
    @pytest.mark.parametrize("batch", [5, 130])
    def test_error_count_is_the_per_lane_event_count(self, tier, batch):
        noise = DepolarizingNoise(0.3)
        circuit, _, _ = full_error_correction_circuit(data_offset=0, num_qubits=21, verified=True)
        program = compile_circuit(circuit, mapper=LayoutMapper())
        template = _template(program, noise)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            result = BatchedNoisyCircuitExecutor(noise=noise).run(program, batch, rng)
            run_seed = np.random.default_rng(seed).bit_generator.random_raw()
            expected = _event_lanes(template, batch, run_seed).sum(axis=0)
            assert np.array_equal(result.error_count, expected)

    @pytest.mark.parametrize("batch", [1, 63, 65, 130])
    def test_certain_failures_hit_every_real_lane_and_no_ghost(self, tier, batch):
        # Deterministic outcomes only, so nothing but noise reaches a frame.
        circuit = Circuit(3).prepare(0).prepare(1).prepare(2)
        circuit.x(0).cnot(0, 1).z(2).cnot(1, 2).x(1)
        circuit.measure(0, label="a").measure(1, label="b").measure(2, label="c")
        noise = _Alphabet(1.0, ("X",), 3, p_flip=1.0)
        result = BatchedNoisyCircuitExecutor(noise=noise).run(
            circuit, batch, np.random.default_rng(batch)
        )
        gates, measurements = 5, 3
        assert (result.error_count == gates + measurements).all()
        for label, outcomes in result.measurements.items():
            assert (outcomes == outcomes[0]).all(), label
        # Lanes past the batch sit in the top bits of the last frame word.
        padding = fused_module.num_words(batch) * 64 - batch
        if padding:
            for words in (result.tableau.frame_x, result.tableau.frame_z):
                assert not (words[:, -1] >> np.uint64(64 - padding)).any()


class TestDraws:
    @pytest.mark.parametrize(
        "noise", [NoiselessModel(), DepolarizingNoise(0.2)], ids=["noiseless", "noisy"]
    )
    def test_a_run_takes_one_64_bit_value(self, noise):
        circuit, _, _ = full_error_correction_circuit(data_offset=0, num_qubits=21, verified=True)
        rng = np.random.default_rng(21)
        twin = copy.deepcopy(rng)
        BatchedNoisyCircuitExecutor(noise=noise).run(circuit, 70, rng)
        twin.bit_generator.random_raw()
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_pooled_sweep_replays_the_recorded_serial_values(self):
        spec = ExperimentSpec(
            experiment="threshold_sweep",
            noise=NoiseSpec(kind="uniform", physical_rates=(2.0e-3, 1.0e-2)),
            sampling=SamplingSpec(shots=512, seed=77, batch_size=128),
            execution=ExecutionSpec(backend="frame", num_shards=4, num_workers=2),
        )
        golden = json.loads(
            (Path(__file__).parent / "data" / "frame_v1_13_golden.json").read_text()
        )
        counts = [[point.failures, point.trials] for point in run(spec).value.level1]
        assert counts == golden["spec_sweeps"]["4"]


class TestContentKeys:
    def test_rebuilt_experiments_share_plans_and_templates(self, monkeypatch):
        built = []

        class Counting(fused_module._NoiseTemplate):
            __slots__ = ()

            def __init__(self, plan, models):
                built.append(plan)
                super().__init__(plan, models)

        monkeypatch.setattr(fused_module, "_NoiseTemplate", Counting)
        monkeypatch.setattr(fused_module, "_PLAN_CACHE", {})
        templates = []
        for seed in range(2):
            # A fresh experiment compiles its own programs, as one rebuilt
            # after an experiment-cache eviction does.
            experiment = Level1EccExperiment(noise=_noise_for_rate(4.0e-3, EXPECTED_PARAMETERS))
            experiment.run_trial_batch_detailed(np.random.default_rng(seed), 64)
            programs, models = zip(*experiment._attempt_segments)
            plan = fused_module._plan_for(*programs)
            templates.append(fused_module._template_for(plan, models))
        assert len(built) == 1
        assert templates[0] is templates[1]

    def test_equal_programs_compiled_apart_share_a_digest(self):
        circuit = Circuit(2).prepare(0).h(0).cnot(0, 1).measure(1, label="m")
        one, two = compile_circuit(circuit), compile_circuit(circuit)
        assert one is not two and one.content_digest == two.content_digest
        other = compile_circuit(Circuit(2).prepare(0).h(1).cnot(0, 1).measure(1, label="m"))
        assert other.content_digest != one.content_digest
