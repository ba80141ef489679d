"""Fault-tolerant sweep execution: retries, timeouts, crash recovery, resume.

Every fault here is injected by the deterministic harness (`repro.faults`),
so each scenario replays identically: the same points crash, hang, or fail
transiently on every run, which is what lets the resume test demand
bit-for-bit equality with a clean run.

The whole module is marked ``no_chaos``: these tests pin their *own* fault
profiles (including "none"), so the CI chaos environment must not stack a
second profile on top.
"""

from __future__ import annotations

import json

import pytest

from repro import faults
from repro.api import ExecutionSpec, ExperimentSpec, MachineSpec, NoiseSpec, SamplingSpec
from repro.api.cli import main as cli_main
from repro.exceptions import ParameterError
from repro.explore import (
    PointTimeoutError,
    ResultCache,
    RetryPolicy,
    SweepAxis,
    SweepExecutionError,
    SweepPointError,
    SweepResult,
    SweepSpec,
    WorkerCrashError,
    execute_supervised,
    run_sweep,
    tidy_rows,
)
from repro.faults import FaultProfile

pytestmark = pytest.mark.no_chaos


def machine_base(**machine_kwargs) -> ExperimentSpec:
    machine_kwargs.setdefault("rows", 6)
    machine_kwargs.setdefault("columns", 6)
    machine_kwargs.setdefault("workload", "adder")
    machine_kwargs.setdefault("workload_bits", 4)
    return ExperimentSpec(
        experiment="machine_sim",
        noise=NoiseSpec(kind="technology"),
        sampling=SamplingSpec(shots=0),
        execution=ExecutionSpec(backend="desim"),
        machine=MachineSpec(**machine_kwargs),
    )


def bandwidth_sweep(values=(1, 2), *, point_workers: int = 0, seed: int = 3) -> SweepSpec:
    return SweepSpec(
        base=machine_base(),
        axes=(SweepAxis("machine.bandwidth", values),),
        seed=seed,
        point_workers=point_workers,
    )


@pytest.fixture
def cache(tmp_path) -> ResultCache:
    return ResultCache(tmp_path / "cache")


def normalized(result: SweepResult) -> dict:
    """A sweep result's dictionary with the execution-history fields removed.

    ``cached``/``attempts``/wall times and the hit/miss counters describe
    *how* a run happened, not *what* it computed; bit-for-bit resume
    equality is over everything else (values, specs, seeds, cache keys,
    error records).
    """
    data = result.to_dict()
    for field in ("cache_hits", "cache_misses", "corrupt_evictions"):
        data.pop(field)
    # The worker fan-out is an execution knob too: serial and pooled runs
    # of the same grid must agree on everything below.
    data["sweep"].pop("point_workers", None)
    for point in data["points"]:
        point.pop("cached")
        point.pop("attempts")
        point.pop("wall_time_seconds")
        if point["result"] is not None:
            point["result"].pop("wall_time_seconds")
    return data


class TestRetryPolicy:
    def test_backoff_is_bounded_exponential(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, backoff_cap=0.35)
        assert policy.backoff(0) == 0.0
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.35)  # capped
        assert policy.backoff(9) == pytest.approx(0.35)

    def test_zero_base_disables_backoff(self):
        assert RetryPolicy(backoff_base=0.0).backoff(5) == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"point_timeout": 0},
            {"point_timeout": -1.0},
            {"max_retries": -1},
            {"backoff_base": -0.1},
            {"backoff_factor": 0.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            RetryPolicy(**kwargs)


class TestSchema:
    def test_point_error_round_trips(self):
        error = SweepPointError(
            exception_type="InjectedFault", message="boom", attempts=3, elapsed_seconds=0.5
        )
        assert SweepPointError.from_dict(error.to_dict()) == error

    def test_point_error_from_dict_is_strict(self):
        with pytest.raises(ParameterError, match="missing fields"):
            SweepPointError.from_dict({"exception_type": "X"})
        with pytest.raises(ParameterError, match="unknown point error fields"):
            SweepPointError.from_dict(
                {
                    "exception_type": "X",
                    "message": "m",
                    "attempts": 1,
                    "elapsed_seconds": 0.0,
                    "extra": 1,
                }
            )

    def test_sweep_point_carries_exactly_one_of_result_or_error(self, cache):
        result = run_sweep(bandwidth_sweep((1,)), cache=cache)
        point = result.points[0]
        with pytest.raises(ParameterError, match="exactly one"):
            dataclass_replace(point, error=point_error())
        with pytest.raises(ParameterError, match="exactly one"):
            dataclass_replace(point, result=None)

    def test_pre_1_4_sweep_result_documents_still_parse(self, cache):
        result = run_sweep(bandwidth_sweep(), cache=cache)
        data = result.to_dict()
        # Strip every 1.4 field, leaving the schema PR 5 wrote.
        data.pop("corrupt_evictions")
        for point in data["points"]:
            for field in ("error", "attempts", "wall_time_seconds"):
                point.pop(field)
        parsed = SweepResult.from_dict(data)
        assert parsed.corrupt_evictions == 0
        assert all(p.ok and p.attempts == 0 and p.wall_time_seconds == 0.0 for p in parsed.points)
        assert [p.result.value for p in parsed.points] == [p.result.value for p in result.points]

    def test_unknown_point_fields_rejected(self, cache):
        data = run_sweep(bandwidth_sweep((1,)), cache=cache).to_dict()
        data["points"][0]["surprise"] = 1
        with pytest.raises(ParameterError, match="unknown sweep result point fields"):
            SweepResult.from_dict(data)


def point_error() -> SweepPointError:
    return SweepPointError(exception_type="X", message="m", attempts=1, elapsed_seconds=0.0)


def dataclass_replace(instance, **changes):
    import dataclasses

    return dataclasses.replace(instance, **changes)


class TestTransientRetries:
    def test_retries_absorb_first_attempt_failures(self, cache):
        with faults.fault_profile(FaultProfile(seed=1, transient=1.0, fail_attempts=1)):
            result = run_sweep(bandwidth_sweep(), cache=cache, backoff_base=0.0)
        assert result.failed == 0 and result.completed == 2
        assert [p.attempts for p in result.points] == [2, 2]

    def test_retried_results_match_unfaulted_results(self, tmp_path):
        clean = run_sweep(bandwidth_sweep(), cache=ResultCache(tmp_path / "a"))
        with faults.fault_profile(FaultProfile(seed=1, transient=1.0, fail_attempts=1)):
            faulted = run_sweep(
                bandwidth_sweep(), cache=ResultCache(tmp_path / "b"), backoff_base=0.0
            )
        assert normalized(clean) == normalized(faulted)

    def test_pooled_retries_match_serial_retries(self, tmp_path):
        profile = FaultProfile(seed=1, transient=1.0, fail_attempts=1)
        with faults.fault_profile(profile):
            serial = run_sweep(
                bandwidth_sweep(), cache=ResultCache(tmp_path / "a"), backoff_base=0.0
            )
            pooled = run_sweep(
                bandwidth_sweep(point_workers=2),
                cache=ResultCache(tmp_path / "b"),
                backoff_base=0.0,
            )
        assert normalized(serial) == normalized(pooled)


class TestPartialResults:
    def test_exhausted_retries_become_structured_errors(self, cache):
        with faults.fault_profile(faults.PROFILES["permafail"]):
            result = run_sweep(cache=cache, sweep=bandwidth_sweep(), max_retries=1, backoff_base=0.0)
        assert result.completed == 0 and result.failed == 2
        for point in result.points:
            assert not point.ok and point.result is None
            assert point.error.exception_type == "InjectedFault"
            assert point.error.attempts == 2  # 1 try + 1 retry
            assert "point.transient" in point.error.message
        assert result.failures() == result.points

    def test_partial_result_json_round_trips(self, cache):
        # One permanently-failing point among successes: rates below pick
        # exactly one of the two points (verified by the assertion).
        profile = FaultProfile(seed=2, transient=0.5, fail_attempts=-1)
        with faults.fault_profile(profile):
            result = run_sweep(bandwidth_sweep(), cache=cache, max_retries=1, backoff_base=0.0)
        assert result.failed == 1 and result.completed == 1
        parsed = SweepResult.from_json(result.to_json())
        assert parsed.to_dict() == result.to_dict()
        # Failed points keep their spec (rebuilt from the grid), so a
        # repaired rerun knows exactly what to execute.
        failed = parsed.failures()[0]
        assert failed.spec == result.failures()[0].spec

    def test_on_error_raise_still_caches_survivors(self, cache):
        profile = FaultProfile(seed=2, transient=0.5, fail_attempts=-1)
        with faults.fault_profile(profile):
            with pytest.raises(SweepExecutionError, match="1 of 2 sweep points failed") as info:
                run_sweep(
                    bandwidth_sweep(), cache=cache, max_retries=0, backoff_base=0.0,
                    on_error="raise",
                )
        partial = info.value.result
        assert partial.failed == 1 and partial.completed == 1
        # The survivor was cached before the raise: a clean rerun only
        # executes the previously-failed point.
        resumed = run_sweep(bandwidth_sweep(), cache=cache)
        assert resumed.cache_hits == 1 and resumed.executed == 1 and resumed.failed == 0

    def test_on_error_validation(self, cache):
        with pytest.raises(ParameterError, match="on_error"):
            run_sweep(bandwidth_sweep(), cache=cache, on_error="explode")

    def test_point_timeout_requires_pooled_execution(self, cache):
        with pytest.raises(ParameterError, match="point_timeout requires pooled"):
            run_sweep(bandwidth_sweep(), cache=cache, point_timeout=1.0)

    def test_failed_rows_in_tidy_rows(self, cache):
        with faults.fault_profile(FaultProfile(seed=2, transient=0.5, fail_attempts=-1)):
            result = run_sweep(bandwidth_sweep(), cache=cache, max_retries=0, backoff_base=0.0)
        rows = tidy_rows(result)
        failed = [row for row in rows if row["failed"]]
        ok = [row for row in rows if not row["failed"]]
        assert len(failed) == 1 and len(ok) == 1
        assert failed[0]["error_type"] == "InjectedFault"
        assert "machine.bandwidth" in failed[0]
        assert "makespan_cycles" not in failed[0]
        assert ok[0]["point_wall_seconds"] > 0.0
        assert ok[0]["attempts"] == 1


class TestIncrementalCaching:
    def test_completed_points_are_cached_before_the_sweep_ends(self, cache):
        seen = []

        class Spy(ResultCache):
            def put(self, key, result):
                path = super().put(key, result)
                seen.append(len(self))
                return path

        spy = Spy(cache.directory)
        run_sweep(bandwidth_sweep((1, 2, 4)), cache=spy)
        # Each store happened against a cache holding only the previous
        # points -- not batched at the end.
        assert seen == [1, 2, 3]

    def test_interrupted_sweep_resumes_from_cache(self, cache):
        # A permanent crash on one point models an operator killing a stuck
        # sweep: the other points' results are already on disk.
        profile = FaultProfile(seed=2, transient=0.5, fail_attempts=-1)
        with faults.fault_profile(profile):
            interrupted = run_sweep(
                bandwidth_sweep(), cache=cache, max_retries=0, backoff_base=0.0
            )
        assert interrupted.completed == 1
        resumed = run_sweep(bandwidth_sweep(), cache=cache)
        assert resumed.failed == 0
        assert resumed.cache_hits == 1
        assert resumed.executed == 1  # only the unfinished tail re-ran


class TestCrashRecovery:
    def test_sigkilled_workers_are_respawned_and_retried(self, cache):
        # Every point's first pooled attempt SIGKILLs its worker.
        with faults.fault_profile(faults.PROFILES["crashy"]):
            result = run_sweep(
                bandwidth_sweep((1, 2, 4), point_workers=2), cache=cache, backoff_base=0.0
            )
        assert result.failed == 0 and result.completed == 3
        assert all(p.attempts == 2 for p in result.points)

    def test_permanent_crasher_fails_terminally_with_crash_error(self, cache):
        # One point SIGKILLs on every attempt; the supervisor must isolate
        # it (charging no innocent neighbours) and fail it alone.
        profile = FaultProfile(seed=2, crash=0.4, fail_attempts=-1)
        sweep = bandwidth_sweep((1, 2, 4), point_workers=2)
        selected = [
            faults.should_fire(
                faults.WORKER_CRASH,
                faults.fault_key(pt.spec.to_json()),
                profile=profile,
            )
            for pt in sweep.points()
        ]
        assert selected.count(True) == 1, "profile seed must select exactly one point"
        with faults.fault_profile(profile):
            result = run_sweep(sweep, cache=cache, max_retries=1, backoff_base=0.0)
        assert result.failed == 1 and result.completed == 2
        failure = result.failures()[0]
        assert failure.error.exception_type == "WorkerCrashError"
        assert failure.error.attempts == 2
        assert [p.ok for p in result.points] == [not s for s in selected]

    def test_resume_after_worker_death_is_bit_for_bit(self, tmp_path):
        """The ISSUE's acceptance scenario.

        A sweep whose pool worker is SIGKILLed mid-run (and whose stricken
        point exhausts its retries) is re-run against the same cache; the
        resumed result must equal a never-faulted run bit for bit -- same
        cache keys, same specs/seeds, same values, same error-free
        accounting -- with only the unfinished tail re-executed.
        """
        sweep = bandwidth_sweep((1, 2, 4), point_workers=2)
        clean = run_sweep(sweep, cache=ResultCache(tmp_path / "clean"))

        crash_cache = ResultCache(tmp_path / "crash")
        profile = FaultProfile(seed=2, crash=0.4, fail_attempts=-1)
        with faults.fault_profile(profile):
            interrupted = run_sweep(sweep, cache=crash_cache, max_retries=1, backoff_base=0.0)
        assert interrupted.failed == 1 and interrupted.completed == 2

        resumed = run_sweep(sweep, cache=crash_cache)
        assert normalized(resumed) == normalized(clean)
        assert [p.cache_key for p in resumed.points] == [p.cache_key for p in clean.points]
        assert [p.result.value for p in resumed.points] == [p.result.value for p in clean.points]
        # Only the previously-failed point re-ran; the survivors were hits.
        assert resumed.executed == 1 and resumed.cache_hits == 2
        assert [p.cached for p in resumed.points] == [p.ok for p in interrupted.points]


class TestTimeouts:
    def test_hung_worker_is_killed_and_retried(self, cache):
        # First attempt of every point hangs far beyond the timeout; the
        # supervisor kills the pool and the retry (attempt 1, past
        # fail_attempts=1) proceeds normally.
        profile = FaultProfile(seed=9, hang=1.0, hang_seconds=30.0, fail_attempts=1)
        with faults.fault_profile(profile):
            result = run_sweep(
                bandwidth_sweep((1, 2), point_workers=2),
                cache=cache,
                point_timeout=1.0,
                backoff_base=0.0,
            )
        assert result.failed == 0 and result.completed == 2
        assert all(p.attempts == 2 for p in result.points)
        # The hang shows up in the per-point wall clock (>= one timeout).
        assert all(p.wall_time_seconds >= 1.0 for p in result.points)

    @pytest.mark.parametrize("coordinate", [False, True])
    def test_permanent_hang_times_out_terminally(self, cache, coordinate):
        # A lone cache miss still runs on the pool, so its timeout holds
        # under claim coordination too.
        profile = FaultProfile(seed=9, hang=1.0, hang_seconds=30.0, fail_attempts=-1)
        with faults.fault_profile(profile):
            result = run_sweep(
                bandwidth_sweep((1,), point_workers=2),
                cache=cache,
                point_timeout=0.5,
                max_retries=1,
                backoff_base=0.0,
                coordinate=coordinate,
            )
        assert result.failed == 1
        error = result.failures()[0].error
        assert error.exception_type == "PointTimeoutError"
        assert "exceeded the per-point timeout" in error.message
        assert error.attempts == 2


class TestSupervisorDirect:
    def test_outcomes_are_index_aligned_and_streamed(self):
        specs = [pt.spec for pt in bandwidth_sweep((1, 2)).points()]
        streamed = list(execute_supervised(specs, policy=RetryPolicy(backoff_base=0.0)))
        assert sorted(index for index, _ in streamed) == [0, 1]
        outcomes = [outcome for _, outcome in sorted(streamed)]
        assert all(o.ok for o in outcomes)
        assert [o.result.spec for o in outcomes] == specs
        assert all(o.attempts == 1 and o.elapsed_seconds > 0 for o in outcomes)

    def test_exception_types_survive_supervision(self):
        specs = [pt.spec for pt in bandwidth_sweep((1,)).points()]
        with faults.fault_profile(faults.PROFILES["permafail"]):
            [(_, outcome)] = execute_supervised(
                specs, policy=RetryPolicy(max_retries=0, backoff_base=0.0)
            )
        assert not outcome.ok
        assert isinstance(outcome.error, faults.InjectedFault)

    def test_error_classes_are_qla_errors(self):
        from repro.exceptions import QLAError

        assert issubclass(PointTimeoutError, QLAError)
        assert issubclass(WorkerCrashError, QLAError)


class TestCorruptionAccounting:
    def test_corrupt_entries_are_evicted_recomputed_and_surfaced(self, cache):
        # Every store is torn; the next sweep finds only corrupt entries.
        with faults.fault_profile(FaultProfile(seed=2, corrupt=1.0)):
            first = run_sweep(bandwidth_sweep(), cache=cache)
        assert first.corrupt_evictions == 0  # nothing to read yet
        second = run_sweep(bandwidth_sweep(), cache=cache)
        assert second.corrupt_evictions == 2
        assert second.cache_hits == 0 and second.executed == 2
        # The recomputation healed the cache.
        third = run_sweep(bandwidth_sweep(), cache=cache)
        assert third.cache_hits == 2 and third.corrupt_evictions == 0
        assert [p.result.value for p in second.points] == [p.result.value for p in third.points]

    def test_corrupt_evictions_round_trip(self, cache):
        with faults.fault_profile(FaultProfile(seed=2, corrupt=1.0)):
            run_sweep(bandwidth_sweep(), cache=cache)
        result = run_sweep(bandwidth_sweep(), cache=cache)
        assert SweepResult.from_json(result.to_json()).corrupt_evictions == 2


class TestRobustCli:
    def write_sweep(self, tmp_path, sweep) -> str:
        path = tmp_path / "sweep.json"
        path.write_text(sweep.to_json())
        return str(path)

    def test_failing_sweep_exits_3_with_summary(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        spec_path = self.write_sweep(tmp_path, bandwidth_sweep())
        out_path = tmp_path / "result.json"
        with faults.fault_profile(faults.PROFILES["permafail"]):
            code = cli_main([spec_path, "--max-retries", "0", "-o", str(out_path), "--quiet"])
        assert code == 3
        err = capsys.readouterr().err
        assert "2 of 2 sweep points failed" in err
        assert "InjectedFault" in err
        # The partial result was still written.
        payload = json.loads(out_path.read_text())
        assert sum(1 for p in payload["points"] if p["error"] is not None) == 2

    def test_on_error_raise_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        spec_path = self.write_sweep(tmp_path, bandwidth_sweep())
        with faults.fault_profile(faults.PROFILES["permafail"]):
            code = cli_main([spec_path, "--max-retries", "0", "--on-error", "raise", "--quiet"])
        assert code == 1
        assert "sweep points failed" in capsys.readouterr().err

    def test_resume_reports_restored_points(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        spec_path = self.write_sweep(tmp_path, bandwidth_sweep())
        assert cli_main([spec_path, "--quiet"]) == 0
        capsys.readouterr()
        assert cli_main([spec_path, "--resume", "--quiet"]) == 0
        err = capsys.readouterr().err
        assert "resumed 2 of 2 points from the cache; executed 0" in err

    def test_resume_conflicts_with_no_cache(self, tmp_path, capsys):
        spec_path = self.write_sweep(tmp_path, bandwidth_sweep())
        assert cli_main([spec_path, "--resume", "--no-cache", "--quiet"]) == 2
        assert "--resume needs the cache" in capsys.readouterr().err

    def test_sweep_flags_rejected_for_single_experiments(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        spec = ExperimentSpec(
            experiment="syndrome_rate",
            noise=NoiseSpec(kind="technology"),
            sampling=SamplingSpec(shots=0, seed=1),
        )
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        assert cli_main([str(path), "--resume", "--quiet"]) == 2
        assert "--resume" in capsys.readouterr().err
        assert cli_main([str(path), "--point-timeout", "1", "--quiet"]) == 2
        assert "--point-timeout" in capsys.readouterr().err
        assert cli_main([str(path), "--quiet"]) == 0
