"""Adaptive threshold refinement vs. a uniform grid, at equal resolution.

Localizes where the ``logical_failure`` rate crosses a target along the
physical-error-rate axis twice:

* **adaptive** -- :func:`repro.explore.refine`: a coarse grid, then
  bracket-midpoint zooming with variance-guided shot boosts.  Each round
  executes one midpoint (plus the occasional boost); everything else is a
  cache hit thanks to coordinate-derived seeds.
* **uniform** -- a flat grid over the same span whose spacing equals the
  final adaptive bracket width, i.e. the grid a non-adaptive sweep needs
  for the *same* localization.

Both must agree on the crossing estimate (within the coarse grid's
bracket) while the adaptive pass uses a fraction of the engine
executions -- the saving grows as ``2**rounds / rounds``.  Results are
written to ``BENCH_adaptive_sweep.json`` at the repository root.  Run
under pytest (``pytest benchmarks/bench_adaptive_sweep.py``) or directly
(``python benchmarks/bench_adaptive_sweep.py [--smoke]``); ``--smoke``
drops one zoom round to CI scale while keeping every assertion.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

try:  # the CI smoke job runs this file directly with only numpy installed
    import pytest
except ImportError:  # pragma: no cover - direct execution without pytest
    pytest = None

from repro.api import ExperimentSpec, NoiseSpec, SamplingSpec
from repro.explore import ResultCache, SweepAxis, SweepSpec, refine, run_sweep

SEED = 20260807
SHOTS = 128
TARGET = 0.05
AXIS = "noise.physical_rates"
COARSE = (0.002, 0.009, 0.016, 0.023, 0.03)

#: The adaptive pass must use at most this fraction of the uniform grid's
#: engine executions.  Conservative: at 4 rounds the measured ratio is
#: ~0.36 (12 vs 33); the floor must hold with smoke's 3 rounds too.
MAX_EXECUTION_FRACTION = 0.70

_OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_adaptive_sweep.json"


def _base_spec() -> ExperimentSpec:
    return ExperimentSpec(
        experiment="logical_failure",
        noise=NoiseSpec(kind="uniform", physical_rates=(COARSE[0],)),
        sampling=SamplingSpec(shots=SHOTS, batch_size=64),
    )


def _sweep(values) -> SweepSpec:
    return SweepSpec(
        base=_base_spec(),
        axes=(SweepAxis(path=AXIS, values=tuple(values)),),
        seed=SEED,
    )


def _crossing_estimate(rows: list[dict]) -> tuple[float, tuple[float, float]] | None:
    """Linear-interpolated crossing of TARGET over tidy rows, plus bracket."""
    points = sorted((row[AXIS], row["failure_rate"]) for row in rows)
    for (x_lo, y_lo), (x_hi, y_hi) in zip(points, points[1:]):
        if (y_lo - TARGET) * (y_hi - TARGET) <= 0 and y_lo != y_hi:
            fraction = (TARGET - y_lo) / (y_hi - y_lo)
            return x_lo + fraction * (x_hi - x_lo), (x_lo, x_hi)
    return None


def _run_benchmark(smoke: bool = False) -> dict[str, object]:
    rounds = 3 if smoke else 4
    with tempfile.TemporaryDirectory(prefix="repro-bench-adaptive-") as tmp:
        cache = ResultCache(tmp)

        start = time.perf_counter()
        adaptive = refine(
            _sweep(COARSE),
            axis=AXIS,
            metric="failure_rate",
            target=TARGET,
            rounds=rounds,
            cache=cache,
        )
        adaptive_seconds = time.perf_counter() - start
        low, high = adaptive.bracket
        width = high - low

        # The uniform grid buying the same localization: spacing == the
        # final adaptive bracket width, across the same coarse span.  A
        # fresh cache, so its cache_misses count is its execution count.
        span = COARSE[-1] - COARSE[0]
        steps = round(span / width)
        uniform_values = [COARSE[0] + span * i / steps for i in range(steps + 1)]
        start = time.perf_counter()
        uniform = run_sweep(_sweep(uniform_values), cache=ResultCache(Path(tmp) / "uniform"))
        uniform_seconds = time.perf_counter() - start
        uniform_crossing = _crossing_estimate(
            [row for row in uniform.rows() if not row.get("failed")]
        )

    report = {
        "smoke": smoke,
        "target": TARGET,
        "rounds": rounds,
        "shots": SHOTS,
        "adaptive": {
            "seconds": adaptive_seconds,
            "executions": adaptive.total_executed,
            "estimate": adaptive.estimate,
            "bracket": [low, high],
            "bracket_width": width,
            "per_round": [
                {
                    "grid_size": len(r.axis_values),
                    "executed": r.executed,
                    "cache_hits": r.cache_hits,
                    "boosts": len(r.boosts),
                    "bracket": list(r.bracket) if r.bracket else None,
                }
                for r in adaptive.rounds
            ],
        },
        "uniform": {
            "seconds": uniform_seconds,
            "executions": uniform.cache_misses,
            "grid_size": len(uniform_values),
            "estimate": uniform_crossing[0] if uniform_crossing else None,
            "bracket": list(uniform_crossing[1]) if uniform_crossing else None,
        },
        "execution_fraction": adaptive.total_executed / uniform.cache_misses,
        "max_execution_fraction": MAX_EXECUTION_FRACTION,
    }
    if not smoke:
        _OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def _check(report: dict[str, object]) -> None:
    adaptive, uniform = report["adaptive"], report["uniform"]
    # Both strategies found a crossing ...
    assert adaptive["estimate"] is not None, adaptive
    assert uniform["estimate"] is not None, uniform
    # ... and agree on where it is, to within the coarse bracket the
    # adaptive pass started from (sampling noise moves both estimates).
    coarse_step = COARSE[1] - COARSE[0]
    disagreement = abs(adaptive["estimate"] - uniform["estimate"])
    assert disagreement <= coarse_step, (
        f"adaptive {adaptive['estimate']:.6f} vs uniform "
        f"{uniform['estimate']:.6f}: off by {disagreement:.6f} "
        f"(> coarse step {coarse_step})"
    )
    # The seed-reuse contract: after round 0 each round executes exactly
    # its midpoint, so sweeps cost rounds-1 executions beyond the grid.
    later = report["adaptive"]["per_round"][1:]
    assert all(r["executed"] == 1 for r in later), later
    # The headline: same localization, a fraction of the executions.
    assert report["execution_fraction"] <= report["max_execution_fraction"], (
        f"adaptive used {adaptive['executions']} executions vs uniform "
        f"{uniform['executions']} -- fraction "
        f"{report['execution_fraction']:.2f} exceeds "
        f"{report['max_execution_fraction']}"
    )


if pytest is not None:

    @pytest.mark.benchmark(group="adaptive-sweep", min_rounds=1, max_time=0.0, warmup=False)
    def test_adaptive_sweep_benchmark(benchmark):
        report = benchmark.pedantic(_run_benchmark, kwargs={"smoke": True}, rounds=1, iterations=1)
        _check(report)
        print()
        print(
            f"adaptive sweep: estimate {report['adaptive']['estimate']:.5f} "
            f"in {report['adaptive']['executions']} executions vs uniform "
            f"{report['uniform']['estimate']:.5f} in "
            f"{report['uniform']['executions']} "
            f"({report['execution_fraction']:.0%} of the grid)"
        )


if __name__ == "__main__":
    smoke_mode = "--smoke" in sys.argv[1:]
    result = _run_benchmark(smoke=smoke_mode)
    _check(result)
    print(json.dumps(result, indent=2))
    if smoke_mode:
        print(
            "smoke benchmark passed: adaptive refinement matches the uniform "
            "threshold estimate with fewer executions",
            file=sys.stderr,
        )
