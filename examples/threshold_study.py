"""Figure 7 study: empirical threshold of the QLA logical qubit.

Maps one transversal logical gate plus a full Steane error-correction cycle
onto the tile layout, sweeps the component failure rate (movement pinned at
the Table 1 expected value) and Monte-Carlo-estimates the level-1 logical
failure rate; the level-2 curve follows from the fitted concatenation map.

Run with::

    python examples/threshold_study.py [trials_per_point] [--per-shot]
        [--workers N] [--seed ENTROPY]

The whole study is one declarative :class:`repro.ExperimentSpec` executed by
:func:`repro.run`: ``backend="auto"`` picks the bit-packed vectorized
engine, the sweep follows a deterministic SeedSequence shard plan, and the
returned result carries its spec echo -- re-running with the same ``--seed``
(any ``--workers`` count, serial or pooled) reproduces the numbers bit for
bit, and ``repro-run`` can replay the printed spec from the command line.
Pass ``--per-shot`` to run the slow scalar oracle instead (then lower the
trial count).
"""

from __future__ import annotations

import argparse

from repro import (
    CircuitSpec,
    ExecutionSpec,
    ExperimentSpec,
    NoiseSpec,
    SamplingSpec,
    run,
)
from repro.core.report import format_table

#: Shards per sweep point: fixed (not tied to the worker count) so results
#: are reproducible on any machine.
NUM_SHARDS = 8


def _crossing(estimate) -> str:
    """The crossing with its band, or the one-sided bound when there is none."""
    if estimate.threshold is not None:
        return f"{estimate.threshold:.2e} [{estimate.lower:.2e}, {estimate.upper:.2e}]"
    if estimate.upper is not None:
        return f"none in the swept range (below {estimate.upper:.2e})"
    if estimate.lower > 0.0:
        return f"none in the swept range (above {estimate.lower:.2e})"
    return "none: no failures observed"


def main(trials: int, use_batched: bool, workers: int, seed: int) -> None:
    rates = (1.0e-3, 1.5e-3, 2.0e-3, 2.5e-3)
    execution = (
        ExecutionSpec(backend="auto", num_shards=NUM_SHARDS, num_workers=workers)
        if use_batched
        else ExecutionSpec(backend="scalar")
    )
    spec = ExperimentSpec(
        experiment="threshold_sweep",
        noise=NoiseSpec(kind="uniform", physical_rates=rates),
        sampling=SamplingSpec(shots=trials, seed=seed),
        execution=execution,
    )
    print(
        f"Sweeping physical failure rates {list(rates)} with {trials} trials per "
        f"point (backend {execution.backend!r}, seed {seed}, "
        f"{execution.num_shards} shards, {execution.num_workers} workers) ..."
    )
    result = run(spec)
    sweep = result.value

    rows = [
        {
            "physical rate": rate,
            "level-1 failure": f"{l1:.2e}",
            "level-1 std err": f"{mc.standard_error:.1e}",
            "level-2 failure": f"{l2:.2e}",
        }
        for rate, l1, l2, mc in zip(
            sweep.physical_rates, sweep.level1_rates, sweep.level2_rates, sweep.level1
        )
    ]
    print(format_table(rows))
    print()
    print(f"fitted concatenation coefficient A : {sweep.concatenation_coefficient:,.0f}")
    print(f"pseudothreshold 1/A                : {sweep.pseudothreshold:.2e}")
    print(f"level-1/level-2 curve crossing     : {_crossing(sweep.threshold)}")
    print("paper's empirical threshold        : 2.1e-03 +/- 1.8e-03")
    print(
        f"executed by                        : backend {result.backend!r} "
        f"(engine {result.engine!r}) in {result.wall_time_seconds:.1f}s, "
        f"repro v{result.library_version}"
    )
    print(
        f"reproduce bit-for-bit with         : --seed {result.seed_entropy} "
        f"({result.num_shards} shards, any worker count) -- or save "
        "result.spec_json and run it with repro-run"
    )

    print()
    print("Non-trivial syndrome rates at the expected technology parameters:")
    for level in (1, 2):
        estimate = run(
            ExperimentSpec(
                experiment="syndrome_rate",
                noise=NoiseSpec(kind="technology"),
                circuit=CircuitSpec(level=level),
                sampling=SamplingSpec(shots=0, seed=0),
            )
        ).value
        paper = 3.35e-4 if level == 1 else 7.92e-4
        print(f"  level {level}: {estimate['analytic']:.2e} (paper {paper:.2e})")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trials", nargs="?", type=int, default=None,
                        help="Monte-Carlo trials per sweep point")
    parser.add_argument("--per-shot", action="store_true",
                        help="use the slow scalar oracle instead of the batched engine")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the sharded sweep (default 1)")
    parser.add_argument("--seed", type=int, default=7,
                        help="SeedSequence entropy; same seed => same results")
    args = parser.parse_args()
    default_trials = 600 if args.per_shot else 8192
    main(
        args.trials if args.trials is not None else default_trials,
        use_batched=not args.per_shot,
        workers=args.workers,
        seed=args.seed,
    )
