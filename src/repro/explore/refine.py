"""Adaptive sweep refinement: zoom the grid, spend shots where they matter.

A uniform grid answers "where does the failure rate cross the target?" by
brute force: enough points everywhere that two of them straddle the
crossing closely.  :func:`refine` gets the same localization for a
fraction of the engine executions by iterating two moves the paper's
threshold methodology implies:

* **Grid zoom.**  Run a coarse sweep, find the *bracket* -- the adjacent
  pair of axis values where the monitored metric crosses the target --
  and insert the bracket's midpoint into the axis for the next round.
  Because per-point seeds and cache keys derive from *coordinates*
  (:func:`~repro.explore.sweep.point_seed`), every previous round's
  point re-resolves as a pure cache hit: each round executes exactly the
  new midpoints.  This is the **seed-reuse contract**: refining a grid
  can never re-execute or perturb a coarse point.
* **Variance-guided shots.**  A sampled failure rate ``p`` over ``n``
  shots carries binomial noise ``sqrt(p(1-p)/n)``.  Where that noise is
  large relative to the distance from the target -- i.e. where it could
  flip which grid interval brackets the crossing -- :func:`refine`
  re-runs just those points with ``shot_factor`` times the shots (same
  pinned per-point seed, so the boosted run is itself deterministic and
  cached) and uses the sharper estimate for bracket selection.

Both moves route every execution through the content-addressed
:class:`~repro.explore.cache.ResultCache`, so a refinement is resumable
and repeatable for free, and a party of ``--coordinate`` processes
(:mod:`repro.explore.distributed`) can fill the same cache concurrently.

The final threshold estimate is the linear interpolation of the metric
across the last bracket.  ``benchmarks/bench_adaptive_sweep.py`` measures
the payoff: equal threshold-localization error at a fraction of the
uniform grid's engine executions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.api.results import RunResult
from repro.api.runner import resolved_engine, run
from repro.api.specs import ExperimentSpec
from repro.exceptions import ParameterError
from repro.explore.cache import ResultCache, cache_key
from repro.explore.runner import SweepResult, run_sweep
from repro.explore.sweep import SweepSpec

__all__ = [
    "binomial_stderr",
    "BoostedPoint",
    "RefinementRound",
    "RefinementResult",
    "refine",
]


def binomial_stderr(failures: int, trials: int) -> float:
    """Standard error of a sampled failure rate, Laplace-smoothed.

    Plain ``sqrt(p(1-p)/n)`` collapses to zero at ``p in {0, 1}``, which
    would make an all-success point look infinitely certain after one
    shot.  Smoothing with the rule of succession ``(failures+1)/(trials+2)``
    keeps the estimate honest at the extremes while converging to the
    plain formula as ``n`` grows.
    """
    if trials <= 0:
        return math.inf
    smoothed = (failures + 1) / (trials + 2)
    return math.sqrt(smoothed * (1.0 - smoothed) / trials)


@dataclass(frozen=True)
class BoostedPoint:
    """One variance-guided shot boost: which point, and what it bought.

    ``cached`` is True when the boosted spec was already in the result
    cache (a previous refinement bought it); only uncached boosts cost
    engine time.
    """

    axis_value: object
    shots: int
    estimate_before: float
    estimate_after: float
    stderr_before: float
    stderr_after: float
    cached: bool


@dataclass(frozen=True)
class RefinementRound:
    """One zoom iteration's accounting.

    Attributes
    ----------
    axis_values:
        The refined axis's grid for this round (previous rounds' values
        plus the new midpoints).
    executed / cache_hits:
        Engine executions versus cache replays in this round's sweep --
        after round 0, ``executed`` counts exactly the inserted midpoints
        (the seed-reuse contract, asserted by the test suite).
    boosts:
        Shot boosts performed this round.
    bracket:
        The ``(low value, high value)`` axis interval straddling the
        target after this round, or ``None`` when the metric never
        crosses it.
    estimate:
        Linear-interpolation crossing estimate from this round's bracket.
    """

    axis_values: tuple
    executed: int
    cache_hits: int
    boosts: tuple[BoostedPoint, ...]
    bracket: tuple[object, object] | None
    estimate: float | None


@dataclass(frozen=True)
class RefinementResult:
    """The outcome of :func:`refine`.

    Attributes
    ----------
    rounds:
        Per-round accounting, coarse first.
    sweep:
        The final (fully refined) sweep description.
    result:
        The final round's :class:`~repro.explore.runner.SweepResult`.
    estimate:
        The threshold/crossing estimate from the last bracketed round
        (``None`` when the metric never crossed the target anywhere).
    total_executed:
        Engine executions across every round, sweeps and shot boosts
        alike -- the number the adaptive benchmark compares against a
        uniform grid.
    """

    rounds: tuple[RefinementRound, ...]
    sweep: SweepSpec
    result: SweepResult
    estimate: float | None
    total_executed: int

    @property
    def bracket(self) -> tuple[object, object] | None:
        """The final round's bracketing interval."""
        return self.rounds[-1].bracket if self.rounds else None


def _cached_run(
    spec: ExperimentSpec,
    cache: ResultCache | None,
) -> tuple[RunResult, bool]:
    """Run one bound spec through the content-addressed cache.

    Returns ``(result, executed)`` -- ``executed`` is False on a cache
    hit.  This is how shot-boosted specs (off the sweep grid, so not
    covered by :func:`~repro.explore.runner.run_sweep`) still get
    resumability and cross-run reuse.
    """
    key = None
    if cache is not None:
        key = cache_key(spec, engine=resolved_engine(spec))
        hit = cache.get(key)
        if hit is not None:
            return hit, False
    result = run(spec)
    if cache is not None:
        cache.put(key, result)
    return result, True


def _boosted_spec(spec: ExperimentSpec, shot_factor: int) -> ExperimentSpec:
    """The same bound point with ``shot_factor`` times the shots.

    The pinned per-point seed is kept: the boosted run is exactly as
    deterministic and cacheable as the original, and because the seed
    derives from coordinates the boost commutes with grid growth.
    """
    data = spec.to_dict()
    data["sampling"]["shots"] = spec.sampling.shots * shot_factor
    return ExperimentSpec.from_dict(data)


def _metric_value(row: dict, metric: str) -> float:
    if metric not in row:
        raise ParameterError(
            f"refinement metric {metric!r} is not a column of the sweep's rows; "
            f"available: {sorted(row)}"
        )
    return float(row[metric])


def _find_bracket(
    values: list, estimates: dict, target: float
) -> tuple[object, object] | None:
    """The first adjacent pair whose metric estimates straddle ``target``."""
    for low, high in zip(values, values[1:]):
        if low not in estimates or high not in estimates:
            continue
        y_low, y_high = estimates[low], estimates[high]
        if (y_low - target) * (y_high - target) <= 0 and y_low != y_high:
            return (low, high)
    return None


def _interpolate(bracket, estimates, target: float) -> float:
    low, high = bracket
    y_low, y_high = estimates[low], estimates[high]
    fraction = (target - y_low) / (y_high - y_low)
    return float(low) + fraction * (float(high) - float(low))


def refine(
    sweep: SweepSpec,
    *,
    axis: str,
    metric: str,
    target: float,
    rounds: int = 3,
    shot_factor: int = 4,
    boost_rule: str = "bracket",
    cache: ResultCache | None = None,
    use_cache: bool = True,
    coordinate: bool = False,
    max_retries: int = 2,
    backoff_base: float = 0.05,
) -> RefinementResult:
    """Localize where ``metric`` crosses ``target`` along ``axis``, cheaply.

    Starting from the given (coarse) sweep, each round:

    1. runs the sweep through the cache (previous rounds' points are pure
       hits -- only new midpoints execute),
    2. optionally sharpens noisy estimates by re-running selected points
       with ``shot_factor`` times the shots (``boost_rule="bracket"``
       boosts the current bracket's endpoints when their binomial noise
       overlaps the target; ``"variance"`` boosts the highest-stderr
       point unconditionally; ``"none"`` disables boosting),
    3. finds the bracket -- the adjacent axis values whose estimates
       straddle the target -- and inserts its midpoint into the axis for
       the next round via
       :meth:`~repro.explore.sweep.SweepSpec.with_axis_values`.

    After ``rounds`` zooms the crossing is localized to within
    ``initial bracket width / 2**rounds`` using executions proportional to
    ``rounds`` instead of ``2**rounds`` -- the saving
    ``benchmarks/bench_adaptive_sweep.py`` records.

    The refined axis's values must be numeric and strictly increasing.
    ``metric`` names a tidy-row column (``"failure_rate"``,
    ``"makespan_seconds"``, ...); when the rows carry ``failures`` and
    ``trials`` columns (the ``logical_failure`` experiment), boosting uses
    exact binomial standard errors, otherwise boosting is skipped.
    ``coordinate=True`` routes every sweep round through the distributed
    claim party, so a refinement can be driven from one process while a
    worker fleet shares the execution load.
    """
    if boost_rule not in ("bracket", "variance", "none"):
        raise ParameterError(
            f"boost_rule must be 'bracket', 'variance' or 'none', got {boost_rule!r}"
        )
    if not isinstance(rounds, int) or isinstance(rounds, bool) or rounds < 1:
        raise ParameterError(f"rounds must be a positive int, got {rounds!r}")
    if not isinstance(shot_factor, int) or isinstance(shot_factor, bool) or shot_factor < 2:
        raise ParameterError(f"shot_factor must be an int >= 2, got {shot_factor!r}")
    axis_paths = [a.path for a in sweep.axes]
    if axis not in axis_paths:
        raise ParameterError(f"sweep has no axis {axis!r}; its axes are {sorted(axis_paths)}")
    if len(sweep.axes) != 1:
        raise ParameterError(
            "refine() zooms a one-axis sweep; slice multi-axis sweeps into "
            "per-combination refinements with SweepSpec.with_axis_values"
        )
    values = list(next(a for a in sweep.axes if a.path == axis).values)
    if len(values) < 2:
        raise ParameterError(f"axis {axis!r} needs at least two values to bracket a crossing")
    try:
        ordered = all(float(a) < float(b) for a, b in zip(values, values[1:]))
    except (TypeError, ValueError):
        raise ParameterError(f"axis {axis!r} values must be numeric to refine") from None
    if not ordered:
        raise ParameterError(f"axis {axis!r} values must be strictly increasing to refine")

    the_cache = cache if (cache is not None or not use_cache) else ResultCache()
    sweep_kwargs = dict(
        cache=the_cache,
        use_cache=use_cache,
        coordinate=coordinate,
        max_retries=max_retries,
        backoff_base=backoff_base,
    )

    round_records: list[RefinementRound] = []
    current = sweep
    total_executed = 0
    result: SweepResult | None = None
    # Boosted estimates survive across rounds: once a point's rate was
    # sharpened, later brackets keep using the sharp value.
    boosted_estimates: dict[object, float] = {}

    for _ in range(rounds):
        result = run_sweep(current, **sweep_kwargs)
        total_executed += result.cache_misses
        rows = {row[axis]: row for row in result.rows() if not row.get("failed")}
        estimates = {
            value: boosted_estimates.get(value, _metric_value(row, metric))
            for value, row in rows.items()
        }
        values = list(next(a for a in current.axes if a.path == axis).values)

        boosts: list[BoostedPoint] = []
        if boost_rule != "none":
            boosts = _boost_noisy_points(
                current,
                result,
                axis=axis,
                target=target,
                values=values,
                estimates=estimates,
                boost_rule=boost_rule,
                shot_factor=shot_factor,
                cache=the_cache if use_cache else None,
            )
            for boost in boosts:
                boosted_estimates[boost.axis_value] = boost.estimate_after
                estimates[boost.axis_value] = boost.estimate_after
                if not boost.cached:
                    total_executed += 1

        bracket = _find_bracket(values, estimates, target)
        estimate = _interpolate(bracket, estimates, target) if bracket else None
        round_records.append(
            RefinementRound(
                axis_values=tuple(values),
                executed=result.cache_misses,
                cache_hits=result.cache_hits,
                boosts=tuple(boosts),
                bracket=bracket,
                estimate=estimate,
            )
        )
        if bracket is None:
            break
        midpoint = (float(bracket[0]) + float(bracket[1])) / 2.0
        if midpoint in (float(v) for v in values):
            break
        refined = sorted({*(float(v) for v in values), midpoint})
        current = current.with_axis_values(axis, refined)

    assert result is not None  # rounds >= 1 guarantees one sweep ran
    last = round_records[-1]
    return RefinementResult(
        rounds=tuple(round_records),
        sweep=current,
        result=result,
        estimate=last.estimate,
        total_executed=total_executed,
    )


def _boost_noisy_points(
    sweep: SweepSpec,
    result: SweepResult,
    *,
    axis: str,
    target: float,
    values: list,
    estimates: dict,
    boost_rule: str,
    shot_factor: int,
    cache: ResultCache | None,
) -> list[BoostedPoint]:
    """Apply the shot-boost rule; returns the boosts performed.

    Only points whose rows expose ``failures`` / ``trials`` (binomially
    sampled metrics) are boostable -- deterministic metrics have zero
    sampling variance and nothing to buy.
    """
    rows = {row[axis]: row for row in result.rows() if not row.get("failed")}
    bracket = _find_bracket(values, estimates, target)
    candidates: list[tuple[object, float]] = []  # (axis value, stderr)
    for value, row in rows.items():
        if "failures" not in row or "trials" not in row:
            continue
        stderr = binomial_stderr(int(row["failures"]), int(row["trials"]))
        if boost_rule == "variance":
            candidates.append((value, stderr))
        else:  # bracket rule: endpoints whose noise band covers the target
            if bracket is not None and value in bracket:
                if abs(estimates[value] - target) <= 2.0 * stderr:
                    candidates.append((value, stderr))
    if not candidates:
        return []
    if boost_rule == "variance":
        candidates = [max(candidates, key=lambda item: item[1])]

    boosts = []
    point_by_value = {
        point.coordinates[axis]: point for point in sweep.points()
    }
    for value, stderr_before in candidates:
        spec = _boosted_spec(point_by_value[value].spec, shot_factor)
        boosted, executed = _cached_run(spec, cache)
        sharp_rate = boosted.value.failure_rate
        boosts.append(
            BoostedPoint(
                axis_value=value,
                shots=spec.sampling.shots,
                estimate_before=estimates[value],
                estimate_after=float(sharp_rate),
                stderr_before=stderr_before,
                stderr_after=binomial_stderr(
                    int(boosted.value.failures), int(boosted.value.trials)
                ),
                cached=not executed,
            )
        )
    return boosts
