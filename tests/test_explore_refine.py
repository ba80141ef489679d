"""Adaptive refinement and streaming results.

Covers the three contracts ``docs/sweeps.md`` promises on top of plain
sweeps:

* **Seed reuse** -- refining a grid (inserting midpoints, boosting shots)
  never re-executes or perturbs a coarse point: after round 0 each round
  executes exactly its new midpoints, and a warm re-refinement executes
  nothing at all.
* **Value digests** -- :meth:`SweepResult.value_digest` hashes what the
  sweep *computed* (specs, seeds, engines, values, errors) and ignores
  how it was computed (wall time, cache accounting), which is the
  bit-for-bit equality every member of a coordinated claim party is
  tested against.
* **Streaming** -- :func:`stream_sweep` yields every point exactly once
  as it resolves, with tidy rows and a running Pareto front; closing the
  stream cancels the sweep at once and the finished prefix stays cached.
"""

from __future__ import annotations

import math

import pytest

from repro.api.specs import (
    ExecutionSpec,
    ExperimentSpec,
    MachineSpec,
    NoiseSpec,
    SamplingSpec,
)
from repro.exceptions import ParameterError
from repro.explore.analysis import pareto_front
from repro.explore.cache import ResultCache
from repro.explore.refine import binomial_stderr, refine
from repro.explore.runner import (
    SweepExecutionError,
    run_sweep,
    stream_sweep,
)
from repro.explore.sweep import SweepAxis, SweepSpec


def machine_base() -> ExperimentSpec:
    return ExperimentSpec(
        experiment="machine_sim",
        noise=NoiseSpec(kind="technology"),
        sampling=SamplingSpec(shots=0),
        execution=ExecutionSpec(backend="desim"),
        machine=MachineSpec(rows=6, columns=6, workload="adder", workload_bits=4),
    )


def machine_sweep(seed: int = 7) -> SweepSpec:
    return SweepSpec(
        base=machine_base(),
        axes=(SweepAxis(path="machine.bandwidth", values=(1, 2, 3, 4, 6, 8)),),
        seed=seed,
    )


def failure_base(shots: int = 128) -> ExperimentSpec:
    return ExperimentSpec(
        experiment="logical_failure",
        noise=NoiseSpec(kind="uniform", physical_rates=(2.0e-3,)),
        sampling=SamplingSpec(shots=shots, batch_size=64),
    )


def failure_sweep(values=(0.002, 0.009, 0.016, 0.023, 0.03), seed: int = 11) -> SweepSpec:
    return SweepSpec(
        base=failure_base(),
        axes=(SweepAxis(path="noise.physical_rates", values=values),),
        seed=seed,
    )


AXIS = "noise.physical_rates"


@pytest.fixture
def cache(tmp_path) -> ResultCache:
    return ResultCache(tmp_path / "cache")


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory) -> ResultCache:
    """One cache for the refine tests that don't assert cold accounting.

    Refinements of the same sweep are content-addressed, so sharing the
    cache across tests only turns repeat executions into replays -- every
    value-level assertion is unaffected by definition.
    """
    return ResultCache(tmp_path_factory.mktemp("refine-shared") / "cache")


class TestBinomialStderr:
    def test_matches_the_smoothed_formula(self):
        # (1+1)/(98+2) = 0.02 smoothed rate over 98 trials.
        assert binomial_stderr(1, 98) == pytest.approx(math.sqrt(0.02 * 0.98 / 98))

    def test_no_trials_means_no_information(self):
        assert binomial_stderr(0, 0) == math.inf
        assert binomial_stderr(5, -1) == math.inf

    def test_never_collapses_to_zero_certainty(self):
        # Plain sqrt(p(1-p)/n) is 0 at p=0; the smoothed version is not.
        assert binomial_stderr(0, 1000) > 0
        assert binomial_stderr(1000, 1000) > 0

    def test_shrinks_with_more_trials(self):
        coarse = binomial_stderr(5, 100)
        sharp = binomial_stderr(20, 400)
        assert sharp < coarse


class TestValueDigest:
    def test_identical_runs_digest_equal_across_caches(self, tmp_path):
        sweep = machine_sweep()
        a = run_sweep(sweep, cache=ResultCache(tmp_path / "a"))
        b = run_sweep(sweep, cache=ResultCache(tmp_path / "b"))
        assert a.value_digest() == b.value_digest()

    @pytest.mark.no_chaos
    def test_digest_ignores_cache_accounting(self, cache):
        # A warm replay is all cache hits with different wall times --
        # the digest must not see any of that.
        sweep = machine_sweep()
        cold = run_sweep(sweep, cache=cache)
        warm = run_sweep(sweep, cache=cache)
        assert warm.cache_misses == 0 and cold.cache_misses == len(cold.points)
        assert warm.value_digest() == cold.value_digest()

    def test_digest_sees_the_seed(self, tmp_path):
        a = run_sweep(machine_sweep(seed=1), cache=ResultCache(tmp_path / "a"))
        b = run_sweep(machine_sweep(seed=2), cache=ResultCache(tmp_path / "b"))
        assert a.value_digest() != b.value_digest()


class TestStreamCallback:
    def test_stream_sees_every_point_exactly_once(self, cache):
        sweep = machine_sweep()
        with stream_sweep(sweep, cache=cache) as stream:
            events = list(stream)
            result = stream.result()
        assert len(events) == len(result.points)
        assert {event.index for event in events} == set(range(len(result.points)))
        assert all(event.total == len(result.points) for event in events)
        assert [result.points[event.index] for event in events] == [
            event.point for event in events
        ]
        # Without objectives there is no front to maintain.
        assert all(event.pareto == () for event in events)

    @pytest.mark.no_chaos
    def test_cached_points_stream_too(self, cache):
        sweep = machine_sweep()
        run_sweep(sweep, cache=cache)
        with stream_sweep(sweep, cache=cache) as stream:
            events = list(stream)
        assert len(events) == len(sweep.points())
        assert all(event.point.cached for event in events)


class TestSweepStream:
    def test_iterates_enriched_events_and_returns_the_result(self, cache):
        sweep = machine_sweep()
        with stream_sweep(
            sweep, minimize=("makespan_seconds", "stall_cycles"), cache=cache
        ) as stream:
            events = list(stream)
            result = stream.result()
        assert len(events) == len(sweep.points())
        assert all(event.row is not None for event in events)
        assert all(event.row["experiment"] == "machine_sim" for event in events)
        # The running front is always non-empty and the last one is the
        # full sweep's front.
        assert all(event.pareto for event in events)
        final_front = pareto_front(
            [r for r in result.rows() if not r.get("failed")],
            minimize=("makespan_seconds", "stall_cycles"),
        )
        assert list(events[-1].pareto) == final_front
        serial = run_sweep(sweep, cache=cache)
        assert result.value_digest() == serial.value_digest()

    @pytest.mark.no_chaos
    def test_close_cancels_and_the_prefix_stays_cached(self, cache):
        sweep = machine_sweep(seed=9)
        stream = stream_sweep(sweep, cache=cache)
        consumed = [next(stream), next(stream)]
        stream.close()
        with pytest.raises(SweepExecutionError, match="closed before"):
            stream.result()
        # The consumed points were cached before they streamed: a re-run
        # resumes instead of starting over.
        replay = run_sweep(sweep, cache=cache)
        assert replay.cache_hits >= len(consumed)
        assert replay.completed == len(sweep.points())


class TestWithAxisValues:
    def test_grows_an_axis_in_place(self):
        sweep = machine_sweep()
        grown = sweep.with_axis_values("machine.bandwidth", (1, 2, 3, 4, 5, 6, 8))
        assert [a.values for a in grown.axes] == [(1, 2, 3, 4, 5, 6, 8)]
        assert grown.seed == sweep.seed and grown.base == sweep.base

    def test_deduplicates_keeping_first_occurrence(self):
        sweep = machine_sweep()
        grown = sweep.with_axis_values("machine.bandwidth", (2, 1, 2, 1, 3))
        assert next(a.values for a in grown.axes) == (2, 1, 3)

    def test_unknown_axis_raises(self):
        with pytest.raises(ParameterError):
            machine_sweep().with_axis_values("machine.level", (1, 2))


class TestRefine:
    @pytest.mark.no_chaos
    def test_zooms_boosts_and_reuses_the_cache(self, cache):
        result = refine(
            failure_sweep(),
            axis=AXIS,
            metric="failure_rate",
            target=0.05,
            rounds=4,
            cache=cache,
        )
        # Round 0 executes the coarse grid; every later round executes
        # exactly its inserted midpoint -- the seed-reuse contract.
        assert result.rounds[0].executed == 5
        for later in result.rounds[1:]:
            assert later.executed == 1
            assert later.cache_hits == len(later.axis_values) - 1
        # Each zoom halves the bracket.
        widths = [r.bracket[1] - r.bracket[0] for r in result.rounds if r.bracket]
        for wide, narrow in zip(widths, widths[1:]):
            assert narrow == pytest.approx(wide / 2)
        # The estimate interpolates inside the final bracket.
        low, high = result.bracket
        assert low <= result.estimate <= high
        # Fewer executions than the uniform grid reaching the same
        # localization: matching the final bracket width uniformly over
        # the coarse span takes (span / width) + 1 points.
        span = 0.03 - 0.002
        uniform_equivalent = span / (high - low) + 1
        assert result.total_executed < uniform_equivalent / 2

    @pytest.mark.no_chaos
    def test_warm_refinement_executes_nothing(self, cache):
        kwargs = dict(axis=AXIS, metric="failure_rate", target=0.05, rounds=3, cache=cache)
        cold = refine(failure_sweep(), **kwargs)
        warm = refine(failure_sweep(), **kwargs)
        assert warm.total_executed == 0
        assert warm.estimate == cold.estimate
        assert warm.bracket == cold.bracket
        assert all(r.executed == 0 for r in warm.rounds)
        assert all(b.cached for r in warm.rounds for b in r.boosts)

    def test_boosted_points_use_more_shots_with_pinned_seeds(self, shared_cache):
        result = refine(
            failure_sweep(),
            axis=AXIS,
            metric="failure_rate",
            target=0.05,
            rounds=2,
            shot_factor=4,
            cache=shared_cache,
        )
        boosts = [b for r in result.rounds for b in r.boosts]
        assert boosts, "the bracket rule should boost noisy endpoints here"
        assert all(b.shots == 128 * 4 for b in boosts)
        assert all(b.stderr_after < b.stderr_before for b in boosts)

    def test_variance_rule_boosts_the_noisiest_point(self, shared_cache):
        result = refine(
            failure_sweep(),
            axis=AXIS,
            metric="failure_rate",
            target=0.05,
            rounds=1,
            boost_rule="variance",
            cache=shared_cache,
        )
        assert len(result.rounds[0].boosts) == 1

    @pytest.mark.no_chaos
    def test_none_rule_never_boosts(self, cache):
        result = refine(
            failure_sweep(),
            axis=AXIS,
            metric="failure_rate",
            target=0.05,
            rounds=2,
            boost_rule="none",
            cache=cache,
        )
        assert all(not r.boosts for r in result.rounds)
        # Without boosts the cost is exactly grid + midpoints.
        assert result.total_executed == 5 + (len(result.rounds) - 1)

    def test_no_crossing_means_no_bracket_and_an_honest_none(self, shared_cache):
        # The failure rate never reaches 90% on these rates: refine must
        # stop after the first round and say so instead of inventing a
        # threshold.
        result = refine(
            failure_sweep(),
            axis=AXIS,
            metric="failure_rate",
            target=0.9,
            rounds=3,
            cache=shared_cache,
        )
        assert result.estimate is None
        assert result.bracket is None
        assert len(result.rounds) == 1

    def test_rejects_bad_arguments(self, cache):
        good = dict(axis=AXIS, metric="failure_rate", target=0.05, cache=cache)
        with pytest.raises(ParameterError, match="boost_rule"):
            refine(failure_sweep(), **good, boost_rule="always")
        with pytest.raises(ParameterError, match="rounds"):
            refine(failure_sweep(), **good, rounds=0)
        with pytest.raises(ParameterError, match="shot_factor"):
            refine(failure_sweep(), **good, shot_factor=1)
        with pytest.raises(ParameterError, match="no axis"):
            refine(failure_sweep(), axis="machine.bandwidth", metric="failure_rate",
                   target=0.05, cache=cache)
        with pytest.raises(ParameterError, match="strictly increasing"):
            refine(failure_sweep(values=(0.03, 0.002)), **good)
        with pytest.raises(ParameterError, match="at least two"):
            refine(failure_sweep(values=(0.002,)), **good)
        two_axis = SweepSpec(
            base=machine_base(),
            axes=(
                SweepAxis(path="machine.bandwidth", values=(1, 2)),
                SweepAxis(path="machine.level", values=(1, 2)),
            ),
            seed=3,
        )
        with pytest.raises(ParameterError, match="one-axis"):
            refine(two_axis, axis="machine.bandwidth", metric="makespan_seconds",
                   target=1.0, cache=cache)
        with pytest.raises(ParameterError, match="numeric"):
            refine(
                SweepSpec(
                    base=machine_base(),
                    axes=(SweepAxis(path="machine.workload", values=("adder", "ghz")),),
                    seed=3,
                ),
                axis="machine.workload",
                metric="makespan_seconds",
                target=1.0,
                cache=cache,
            )

    def test_unknown_metric_names_the_available_columns(self, shared_cache):
        with pytest.raises(ParameterError, match="available"):
            refine(
                failure_sweep(),
                axis=AXIS,
                metric="fidelity",
                target=0.05,
                rounds=1,
                cache=shared_cache,
            )
