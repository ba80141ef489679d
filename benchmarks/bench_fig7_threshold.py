"""Figure 7 and Section 4.1.1: the empirical threshold of the QLA logical qubit.

The paper maps a single logical one-qubit gate followed by recursive error
correction onto the Figure 5 tile, fixes the movement failure rate at its
expected value, sweeps the remaining component failure rates and finds that
the level-1 and level-2 logical failure curves cross at
p_th = (2.1 +/- 1.8) x 10^-3.  It also reports non-trivial-syndrome rates of
3.35e-4 (level 1) and 7.92e-4 (level 2) at the expected parameters.

The reproduction simulates level 1 exactly with the stabilizer backend and
obtains the level-2 curve from the fitted concatenation map (see DESIGN.md);
the threshold is reported both as the curve crossing and as the fitted
pseudothreshold 1/A, the statistically robust estimator.
"""

from __future__ import annotations

import pytest

from repro.api import (
    CircuitSpec,
    ExecutionSpec,
    ExperimentSpec,
    NoiseSpec,
    SamplingSpec,
    run,
)
from repro.core.report import format_table

#: Paper values for comparison.
PAPER_THRESHOLD = 2.1e-3
PAPER_THRESHOLD_BAND = (0.3e-3, 3.9e-3)
PAPER_SYNDROME_RATE_L1 = 3.35e-4
PAPER_SYNDROME_RATE_L2 = 7.92e-4

#: Sweep configuration: the bit-packed engine makes 16k shots per point a
#: few-second run, and the tighter statistics keep the monotonicity and
#: threshold-band assertions far from the shot-noise floor.
SWEEP_RATES = (1.0e-3, 1.5e-3, 2.0e-3, 2.5e-3)
TRIALS = 16384
SEED = 2005


def _run_sweep():
    spec = ExperimentSpec(
        experiment="threshold_sweep",
        noise=NoiseSpec(kind="uniform", physical_rates=SWEEP_RATES),
        sampling=SamplingSpec(shots=TRIALS, seed=SEED),
        execution=ExecutionSpec(backend="auto"),
    )
    return run(spec).value


@pytest.mark.benchmark(group="figure7", min_rounds=1, max_time=0.0, warmup=False)
def test_figure7_threshold_sweep(benchmark):
    result = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)

    # Level-1 logical failure rates grow with the physical rate and sit in the
    # 1e-4 .. 1e-2 band of Figure 7's y axis.
    assert len(result.level1_rates) == len(SWEEP_RATES)
    assert result.level1_rates[-1] >= result.level1_rates[0]
    assert 0.0 <= max(result.level1_rates) < 2e-2

    # The fitted pseudothreshold lands inside the paper's quoted band.
    assert PAPER_THRESHOLD_BAND[0] < result.pseudothreshold < PAPER_THRESHOLD_BAND[1]
    # The curve-crossing estimate (noisier) stays within the same decade.
    assert result.threshold.threshold is not None, (
        f"no level-1/level-2 crossing in the swept range: {result.threshold}"
    )
    assert 1e-4 < result.threshold.threshold < 1e-2

    rows = [
        {
            "physical rate": rate,
            "level-1 failure": l1,
            "level-2 failure (concat.)": l2,
            "trials": TRIALS,
        }
        for rate, l1, l2 in zip(
            result.physical_rates, result.level1_rates, result.level2_rates
        )
    ]
    print()
    print(format_table(rows))
    print(
        f"pseudothreshold 1/A = {result.pseudothreshold:.2e} "
        f"(paper: {PAPER_THRESHOLD:.1e} +/- 1.8e-3)"
    )
    print(f"curve crossing      = {result.threshold.threshold:.2e}")


def _syndrome_rate(level: int) -> dict[str, float]:
    spec = ExperimentSpec(
        experiment="syndrome_rate",
        noise=NoiseSpec(kind="technology"),
        circuit=CircuitSpec(level=level),
        sampling=SamplingSpec(shots=0, seed=0),
    )
    return run(spec).value


@pytest.mark.benchmark(group="figure7", min_rounds=1, max_time=0.0, warmup=False)
def test_section_4_1_1_syndrome_rates(benchmark):
    def estimates():
        return _syndrome_rate(1), _syndrome_rate(2)

    level1, level2 = benchmark.pedantic(estimates, rounds=1, iterations=1)

    # Movement-dominated rates of the right magnitude (a few 1e-4), with the
    # level-2 rate a small multiple of the level-1 rate, as in the paper.
    assert level1["analytic"] == pytest.approx(PAPER_SYNDROME_RATE_L1, rel=1.0)
    assert level2["analytic"] == pytest.approx(PAPER_SYNDROME_RATE_L2, rel=1.0)
    assert 1.5 < level2["analytic"] / level1["analytic"] < 10.0

    print()
    print(
        f"non-trivial syndrome rate, level 1: {level1['analytic']:.2e} "
        f"(paper {PAPER_SYNDROME_RATE_L1:.2e})"
    )
    print(
        f"non-trivial syndrome rate, level 2: {level2['analytic']:.2e} "
        f"(paper {PAPER_SYNDROME_RATE_L2:.2e})"
    )
