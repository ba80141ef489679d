"""The benchmark's four workloads: inputs made from the seed, one op, output checks.

One op is one public call (``repro.api.run`` or ``repro.explore.run_sweep``)
of well under a second; only the calls are timed, and output checks run
after the clock stops.  Ops are short because the host's speed varies from
one second to the next: the fastest of many short ops repeats from run to
run, while the median of a few long ones does not.  Simulated results are
never metrics: a change that only speeds up the simulator must leave every
check passing.

* Monte-Carlo ops are checked statistically: ``trials == shots``, and the
  failure count must not lie in a binomial tail of probability below
  :data:`CHECK_ALPHA` at any rate inside the Wilson interval of a high-shot
  reference at the same physical rate (``pinned.json``).  The check
  survives a change of engine or noise stream, which a bit-exact pin would
  not.  One op has too few shots to catch an engine that never fails, so
  the run's estimates are also pooled per engine and checked once at the
  end (:meth:`Workload.pooled_checks`).
* Machine-simulator ops are deterministic and checked exactly against pinned
  trace digests and counts.

Each op gets a private, empty ``REPRO_CACHE_DIR`` so no earlier run can turn
a cold op into a cache hit.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import shutil
import tempfile
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import repro.api
import repro.explore
from repro.api import ExecutionSpec, ExperimentSpec, MachineSpec, NoiseSpec, SamplingSpec
from repro.explore import FIG9_MACHINE, ResultCache, SweepAxis, SweepSpec

from env import WORK

PINNED_PATH = Path(__file__).with_name("pinned.json")

#: Half-width of the reference's Wilson interval, in standard errors.
WILSON_Z = 5.0

#: Smallest binomial tail probability an observed failure count may have.
#: A run makes hundreds of checks and a comparison of two commits dozens
#: of runs, so a 3-sigma test would fail now and then by chance.
CHECK_ALPHA = 1e-7


@dataclass
class OpResult:
    """Timing and verdict of one op."""

    #: Which of the round's ops this is, e.g. ``"shots=32 p=0.001"``; ops of
    #: one kind do the same work.
    kind: str
    seconds: float
    #: Shots run (Monte-Carlo) or logical ops replayed (machine simulator).
    work: int
    #: Engine the op resolved to, e.g. ``"uint8"``.
    engine: str
    #: Failed output checks; empty when the op is correct.
    errors: list[str]
    #: Warm replays that followed the op (sweep workload only).
    warm_seconds: list[float] = field(default_factory=list)


def load_pinned() -> dict:
    """The pinned reference outputs written by ``pin.py``."""
    return json.loads(PINNED_PATH.read_text())


def rate_key(rate: float) -> str:
    """Key of a physical rate in ``pinned.json``."""
    return format(rate, "g")


def wilson(failures: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson score interval of a binomial proportion."""
    if trials <= 0:
        return 0.0, 1.0
    p = failures / trials
    denominator = 1.0 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denominator
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denominator
    return max(0.0, centre - half), min(1.0, centre + half)


def binomial_tail(failures: int, trials: int, rate: float) -> float:
    """Probability of a count at least as far from ``trials * rate`` as ``failures``, one-sided.

    Exact where it matters (counts in a tail); any count on the near side of
    the mean gets 1.
    """
    mean = trials * rate
    if rate <= 0.0 or rate >= 1.0:
        return 1.0 if failures == round(mean) else 0.0
    if failures > mean:
        counts = range(failures, trials + 1)
    elif failures < mean:
        counts = range(failures, -1, -1)
    else:
        return 1.0
    log_norm = math.lgamma(trials + 1)
    log_p, log_q = math.log(rate), math.log1p(-rate)
    total = 0.0
    for count in counts:
        term = math.exp(
            log_norm - math.lgamma(count + 1) - math.lgamma(trials - count + 1)
            + count * log_p + (trials - count) * log_q
        )
        total += term
        if term <= total * 1e-12:  # terms shrink monotonically away from the mean
            break
    return min(1.0, total)


def check_rate(rate: float, failures: int, trials: int, shots: int, pinned: dict) -> list[str]:
    """Output check of one Monte-Carlo estimate against its pinned reference."""
    errors = []
    if trials != shots:
        errors.append(f"p={rate}: {trials} trials for {shots} shots")
    reference = pinned["reference_rates"][rate_key(rate)]
    low, high = wilson(reference["failures"], reference["trials"])
    # Test against the most favourable reference rate: the top of its
    # interval for a high count, the bottom for a low one.
    if failures > trials * high:
        tail = binomial_tail(failures, trials, high)
    elif failures < trials * low:
        tail = binomial_tail(failures, trials, low)
    else:
        tail = 1.0
    if tail < CHECK_ALPHA:
        errors.append(
            f"p={rate}: {failures}/{trials} failures has tail probability {tail:.2g} "
            f"against the reference rate interval [{low:.5f}, {high:.5f}]"
        )
    return errors


def poisson_tail(count: int, mean: float) -> float:
    """One-sided Poisson tail probability of ``count``, as :func:`binomial_tail` does it.

    A sum of binomial counts at small rates has thinner tails than the
    Poisson count of the same mean, so the test errs towards passing.
    """
    if mean <= 0.0:
        return 1.0 if count == 0 else 0.0
    if count > mean:
        counts = itertools.count(count)
    elif count < mean:
        counts = range(count, -1, -1)
    else:
        return 1.0
    total = 0.0
    for k in counts:
        term = math.exp(k * math.log(mean) - mean - math.lgamma(k + 1))
        total += term
        if term <= total * 1e-12:
            break
    return min(1.0, total)


def check_total(engine: str, tallies: dict[float, tuple[int, int]], pinned: dict) -> list[str]:
    """Output check of one engine's failures over every rate it ran, pooled."""
    failures = low = high = 0
    for rate, (count, trials) in tallies.items():
        reference = pinned["reference_rates"][rate_key(rate)]
        rate_low, rate_high = wilson(reference["failures"], reference["trials"])
        failures += count
        low += trials * rate_low
        high += trials * rate_high
    if failures > high:
        tail = poisson_tail(failures, high)
    elif failures < low:
        tail = poisson_tail(failures, low)
    else:
        tail = 1.0
    if tail < CHECK_ALPHA:
        return [
            f"{engine}: {failures} failures over {len(tallies)} rates has tail probability "
            f"{tail:.2g} against the reference interval [{low:.1f}, {high:.1f}]"
        ]
    return []


@contextmanager
def private_cache():
    """A fresh, empty result-cache directory, exported as ``REPRO_CACHE_DIR``."""
    directory = tempfile.mkdtemp(prefix="cache-", dir=WORK / "tmp")
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = directory
    try:
        yield directory
    finally:
        if previous is not None:
            os.environ["REPRO_CACHE_DIR"] = previous
        shutil.rmtree(directory, ignore_errors=True)


class Workload:
    """A seeded stream of ops, issued in rounds.

    Every round holds one op of each kind, so every kind is timed about
    equally often wherever the time budget happens to end.
    """

    name = ""
    stresses = ""

    def __init__(self, seed: int, pinned: dict) -> None:
        self.rng = np.random.default_rng(seed)
        self.pinned = pinned
        #: Span counters while a round is traced (``Tracer.counts``), or None.
        self.counts: dict[str, int] | None = None
        #: Monte-Carlo ``[failures, trials]`` per (engine, physical rate) over the run.
        self.tallies: dict[tuple[str, float], list[int]] = defaultdict(lambda: [0, 0])

    def _seed(self) -> int:
        return int(self.rng.integers(2**63))

    def round(self) -> list:
        """The next round of ops."""
        raise NotImplementedError

    def first_op(self):
        """The op a fresh interpreter runs to time ``setup_s``."""
        return self.round()[0]

    def warmup(self) -> list:
        """Ops run untimed before measuring, so lazy set-up is done."""
        return [self.first_op()]

    def run(self, op) -> OpResult:
        """Execute one op in a private cache directory and check its output."""
        with private_cache() as directory:
            return self._run(op, directory)

    def _run(self, op, directory: str) -> OpResult:
        raise NotImplementedError

    def check_estimate(self, engine: str, rate: float, failures: int, trials: int, shots: int) -> list[str]:
        """Check one Monte-Carlo estimate and add it to the run's pooled tallies."""
        tally = self.tallies[engine, rate]
        tally[0] += failures
        tally[1] += trials
        return check_rate(rate, failures, trials, shots, self.pinned)

    def pooled_checks(self) -> tuple[int, list[str]]:
        """Check the run's estimates pooled per engine: ``(checks made, failed checks)``.

        Each (engine, rate) pool gets the per-op check, and each engine's
        pools together get one check of their total failure count.
        """
        by_engine: dict[str, dict[float, tuple[int, int]]] = defaultdict(dict)
        checks, errors = 0, []
        for (engine, rate), (failures, trials) in sorted(self.tallies.items()):
            by_engine[engine][rate] = (failures, trials)
            checks += 1
            errors += [f"{engine} pooled: {error}" for error in
                       check_rate(rate, failures, trials, trials, self.pinned)]
        for engine, tallies in by_engine.items():
            checks += 1
            errors += check_total(engine, tallies, self.pinned)
        return checks, errors


class Fig7Wide(Workload):
    """Figure 7 threshold sweep in full 4096-lane batches, one batch per rate."""

    name = "fig7-wide"
    stresses = "stabilizer (execute_fused) and arq decode"
    RATES = (0.002, 0.004, 0.006, 0.008)
    SHOTS = 4096
    BATCH = 4096

    def round(self) -> list:
        return [
            ExperimentSpec(
                experiment="threshold_sweep",
                noise=NoiseSpec(kind="uniform", physical_rates=self.RATES),
                sampling=SamplingSpec(shots=self.SHOTS, seed=self._seed(), batch_size=self.BATCH),
                execution=ExecutionSpec(num_shards=1),
            )
        ]

    def _run(self, spec, directory) -> OpResult:
        start = perf_counter()
        result = repro.api.run(spec)
        seconds = perf_counter() - start
        errors = []
        for rate, estimate in zip(self.RATES, result.value.level1):
            errors += self.check_estimate(
                result.engine, rate, estimate.failures, estimate.trials, self.SHOTS
            )
        return OpResult("threshold_sweep", seconds, self.SHOTS * len(self.RATES), result.engine, errors)


class Fig7Narrow(Workload):
    """Single small logical-failure points, interleaved across rates and sizes."""

    name = "fig7-narrow"
    stresses = "api resolve, arq experiment build and executor overhead"
    RATES = (0.001, 0.002, 0.003, 0.004, 0.006, 0.008)
    SHOTS = (32, 128, 512)

    def _spec(self, shots: int, rate: float) -> ExperimentSpec:
        return ExperimentSpec(
            experiment="logical_failure",
            noise=NoiseSpec(kind="uniform", physical_rates=(rate,)),
            sampling=SamplingSpec(shots=shots, seed=self._seed()),
        )

    def round(self) -> list:
        kinds = [(shots, rate) for shots in self.SHOTS for rate in self.RATES]
        return [self._spec(*kinds[i]) for i in self.rng.permutation(len(kinds))]

    def first_op(self):
        # A fixed kind, so setup_s does not depend on which kind the seed
        # shuffles to the front (32-shot points cost five times more).
        return self._spec(128, 0.004)

    def warmup(self) -> list:
        # One whole round, so both engines (uint8 and fused) have run once.
        return self.round()

    def _run(self, spec, directory) -> OpResult:
        start = perf_counter()
        result = repro.api.run(spec)
        seconds = perf_counter() - start
        shots = spec.sampling.shots
        errors = self.check_estimate(
            result.engine,
            spec.noise.physical_rates[0],
            result.value.failures,
            result.value.trials,
            shots,
        )
        kind = f"shots={shots} p={rate_key(spec.noise.physical_rates[0])}"
        return OpResult(kind, seconds, shots, result.engine, errors)


def adder_spec(bits: int, bandwidth: int, seed: int) -> ExperimentSpec:
    """A Shor ripple-carry adder replay on a 20x20 level-2 array."""
    return ExperimentSpec(
        experiment="machine_sim",
        noise=NoiseSpec(kind="technology", parameters="expected"),
        sampling=SamplingSpec(shots=0, seed=seed),
        execution=ExecutionSpec(backend="desim"),
        machine=MachineSpec(
            rows=20, columns=20, bandwidth=bandwidth, level=2, workload="adder", workload_bits=bits
        ),
    )


#: Value fields of an adder replay that must equal their pinned values.
ADDER_CHECKED = (
    "trace_digest",
    "makespan_cycles",
    "stall_cycles",
    "exposed_stall_cycles",
    "epr_deferred",
    "epr_unserved",
    "epr_demands",
    "num_ops",
    "trace_records",
)


class ShorAdder(Workload):
    """Shor adder replays at bandwidth 1 and 2: 64-bit timed, 128-bit as warm-up."""

    name = "shor-adder"
    stresses = "network (GreedyEprScheduler.schedule, routing)"
    #: Width of the timed adder: a 64-bit replay takes a fraction of a
    #: second, so a run times dozens; a 128-bit one takes seconds.
    BITS = 64
    #: Width of the paper's Shor-128 adder, replayed and checked untimed.
    FULL_BITS = 128
    BANDWIDTHS = (1, 2)

    def round(self) -> list:
        # The seed only reaches the sampling seed, which the deterministic
        # replay ignores: one pinned digest checks every op.
        return [adder_spec(self.BITS, bandwidth, self._seed()) for bandwidth in self.BANDWIDTHS]

    def first_op(self):
        return adder_spec(self.BITS, 2, self._seed())

    def warmup(self) -> list:
        return [adder_spec(self.FULL_BITS, bandwidth, self._seed()) for bandwidth in self.BANDWIDTHS]

    def _run(self, spec, directory) -> OpResult:
        events_before = self.counts["desim.events"] if self.counts is not None else 0
        start = perf_counter()
        result = repro.api.run(spec)
        seconds = perf_counter() - start
        bits, bandwidth = spec.machine.workload_bits, spec.machine.bandwidth
        expected = self.pinned["shor_adder"][str(bits)][str(bandwidth)]
        value = result.value
        label = f"{bits}-bit adder, bandwidth {bandwidth}"
        errors = [
            f"{label}: {name} = {value.get(name)!r}, pinned {expected[name]!r}"
            for name in ADDER_CHECKED
            if value.get(name) != expected[name]
        ]
        if self.counts is not None:
            events = self.counts["desim.events"] - events_before
            if events != expected["events"]:
                errors.append(f"{label}: {events} events, pinned {expected['events']}")
        kind = f"bits={bits} bandwidth={bandwidth}"
        return OpResult(kind, seconds, int(value["num_ops"]), result.engine, errors)


#: The Figure 9 grid: bandwidth x elementary link fidelity x purification protocol.
FIG9_BANDWIDTHS = (1, 2, 4)
FIG9_FIDELITIES = (1.0, 0.95, 0.94)
FIG9_PROTOCOLS = ("bennett", "deutsch")
FIG9_CELLS = tuple((bandwidth, fidelity) for bandwidth in FIG9_BANDWIDTHS for fidelity in FIG9_FIDELITIES)
FIG9_SWEEP_SEED = 2005


def cell_key(bandwidth: int, fidelity: float) -> str:
    """Key of a Figure 9 cell in ``pinned.json``."""
    return f"bandwidth={bandwidth} fidelity={fidelity:g}"


def fig9_sweep(bandwidth: int, fidelity: float, rng: np.random.Generator | None = None) -> SweepSpec:
    """One cell of the Figure 9 grid: both purification protocols at one bandwidth and fidelity.

    ``rng`` shuffles the order of the protocols.  Per-point seeds derive
    from coordinates, never from grid position, so every order replays the
    same points, and the nine cells together replay the 18-point grid.
    """
    base = ExperimentSpec(
        experiment="machine_sim",
        noise=NoiseSpec(kind="technology", parameters="expected"),
        sampling=SamplingSpec(shots=0, seed=None),
        execution=ExecutionSpec(backend="desim"),
        machine=MachineSpec(link_target_fidelity=0.96, **FIG9_MACHINE),
    )
    protocols = FIG9_PROTOCOLS
    if rng is not None:
        protocols = tuple(protocols[i] for i in rng.permutation(len(protocols)))
    axes = (
        SweepAxis(path="machine.bandwidth", values=(bandwidth,)),
        SweepAxis(path="machine.link_base_fidelity", values=(fidelity,)),
        SweepAxis(path="machine.link_purification_protocol", values=protocols),
    )
    return SweepSpec(base=base, axes=axes, seed=FIG9_SWEEP_SEED)


def grid_digest(result) -> str:
    """SHA-256 over every point's coordinates and value, independent of grid order."""
    rows = sorted(
        json.dumps({"coordinates": point.coordinates, "value": point.result.value}, sort_keys=True)
        for point in result.points
    )
    return hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()


class Fig9Sweep(Workload):
    """Cold coordinated sweeps of the Figure 9 grid, one 2-point cell per op, then warm replays."""

    name = "fig9-sweep"
    stresses = "desim event loop and links, explore cache and claims"
    WARM_REPLAYS = 5

    def round(self) -> list:
        return [fig9_sweep(*FIG9_CELLS[i], self.rng) for i in self.rng.permutation(len(FIG9_CELLS))]

    def first_op(self):
        return fig9_sweep(2, 0.95, self.rng)

    def _run(self, sweep, directory) -> OpResult:
        cache = ResultCache(directory)
        start = perf_counter()
        cold = repro.explore.run_sweep(sweep, cache=cache, coordinate=True)
        seconds = perf_counter() - start
        warm_seconds = []
        warm_results = []
        for _ in range(self.WARM_REPLAYS):
            start = perf_counter()
            warm_results.append(repro.explore.run_sweep(sweep, cache=cache, coordinate=True))
            warm_seconds.append(perf_counter() - start)

        kind = cell_key(sweep.axes[0].values[0], sweep.axes[1].values[0])
        points = len(cold.points)
        expected = self.pinned["fig9_sweep"][kind]
        label = f"{kind} cold sweep"
        errors = []
        if points != expected["points"] or cold.cache_misses != points or cold.executed != points:
            errors.append(f"{label}: {points} points, {cold.cache_misses} misses, {cold.executed} executed")
        if cold.failed:
            errors.append(f"{label}: {cold.failed} points failed")
        else:
            digest = grid_digest(cold)
            if digest != expected["grid_digest"]:
                errors.append(f"{label}: grid digest {digest[:12]}, pinned {expected['grid_digest'][:12]}")
        cold_digest = cold.value_digest()
        for warm in warm_results:
            if warm.executed or warm.cache_hits != points:
                errors.append(f"warm replay: {warm.executed} executed, {warm.cache_hits} hits")
            if warm.value_digest() != cold_digest:
                errors.append("warm replay: value digest differs from the cold sweep")
        engines = sorted({point.result.engine for point in cold.points if point.ok})
        if len(engines) > 1:
            errors.append(f"{label}: points resolved to several engines {engines}")
        work = sum(int(point.result.value["num_ops"]) for point in cold.points if point.ok)
        return OpResult(kind, seconds, work, ",".join(engines), errors, warm_seconds)


WORKLOADS = {cls.name: cls for cls in (Fig7Wide, Fig7Narrow, ShorAdder, Fig9Sweep)}
