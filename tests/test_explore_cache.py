"""The content-addressed result cache: keys, accounting, tolerance, invalidation."""

from __future__ import annotations

import dataclasses
import json
import logging

import pytest

import repro
from repro.api import (
    ExecutionSpec,
    ExperimentSpec,
    MachineSpec,
    NoiseSpec,
    SamplingSpec,
    run,
)
from repro.exceptions import ParameterError
from repro.explore import (
    ResultCache,
    SweepAxis,
    SweepSpec,
    cache_key,
    default_cache_dir,
    resolved_engine,
    run_sweep,
)


def machine_spec(seed: int | None = 7, **machine_kwargs) -> ExperimentSpec:
    machine_kwargs.setdefault("rows", 6)
    machine_kwargs.setdefault("columns", 6)
    machine_kwargs.setdefault("workload", "adder")
    machine_kwargs.setdefault("workload_bits", 4)
    return ExperimentSpec(
        experiment="machine_sim",
        noise=NoiseSpec(kind="technology"),
        sampling=SamplingSpec(shots=0, seed=seed),
        execution=ExecutionSpec(backend="desim"),
        machine=MachineSpec(**machine_kwargs),
    )


def small_sweep(point_workers: int = 0) -> SweepSpec:
    return SweepSpec(
        base=machine_spec(seed=None),
        axes=(SweepAxis("machine.bandwidth", (1, 2)),),
        seed=7,
        point_workers=point_workers,
    )


@pytest.fixture
def cache(tmp_path) -> ResultCache:
    return ResultCache(tmp_path / "cache")


class TestCacheKey:
    def test_key_is_deterministic(self):
        spec = machine_spec()
        assert cache_key(spec, engine="desim") == cache_key(spec, engine="desim")

    def test_key_depends_on_spec_engine_and_version(self):
        spec = machine_spec()
        baseline = cache_key(spec, engine="desim", version="1.0")
        assert cache_key(machine_spec(seed=8), engine="desim", version="1.0") != baseline
        assert cache_key(spec, engine="uint8", version="1.0") != baseline
        assert cache_key(spec, engine="desim", version="2.0") != baseline

    def test_default_version_is_the_library_version(self):
        spec = machine_spec()
        assert cache_key(spec, engine="desim") == cache_key(
            spec, engine="desim", version=repro.__version__
        )


def logical_failure_spec(backend: str, num_shards: int = 1) -> ExperimentSpec:
    return ExperimentSpec(
        experiment="logical_failure",
        noise=NoiseSpec(physical_rates=(1e-3,)),
        sampling=SamplingSpec(shots=512, seed=11),
        execution=ExecutionSpec(backend=backend, num_shards=num_shards),
    )


#: ``(spec, resolved engine, cache key at version "pinned")``, recorded at
#: v1.12.0.  Existing caches stay valid only while these never move.
PINNED_CACHE_KEYS = {
    "auto": (
        logical_failure_spec("auto"),
        "frame",
        "186cb27503690c7d069ca89eddc02cfbae05aeca85e7209c7b9e367087b33bde",
    ),
    "frame": (
        logical_failure_spec("frame"),
        "frame",
        "2a5aef36b236cf9435072efa9ea4d57fbcf1bf9b0c7364f515881387d61e3c81",
    ),
    "scalar": (
        logical_failure_spec("scalar"),
        "scalar",
        "69a17082f8efa07552a3d041e208ff36673c6879f98a8c238b328167bbb95f63",
    ),
    "auto-4-shards": (
        logical_failure_spec("auto", num_shards=4),
        "frame",
        "53476538604d8a862a6c2fa8cfb8acd4d35da776ebdafb3dabb4c8ce1c4dd186",
    ),
    "syndrome-analytic": (
        ExperimentSpec(
            experiment="syndrome_rate",
            noise=NoiseSpec(kind="technology"),
            sampling=SamplingSpec(shots=0, seed=11),
        ),
        "none",
        "ef9d4adb0deb91e5d3c9bdba91f102d7e158303e4d84bc1a6da1f44234063859",
    ),
    "machine-sim": (
        machine_spec(),
        "desim",
        "d5997d2f1aed5a519f1c91c2fef666814d133e0f68e01ca1377c0b4bdd019a74",
    ),
}


@pytest.mark.parametrize("label", sorted(PINNED_CACHE_KEYS))
def test_resolved_engine_and_cache_key_are_pinned(label):
    spec, engine, key = PINNED_CACHE_KEYS[label]
    assert resolved_engine(spec) == engine
    assert cache_key(spec, engine=resolved_engine(spec), version="pinned") == key


# Pins exact cache accounting (hits/misses/cached flags), which
# injected corruption legitimately changes: run fault-free even
# under the CI chaos profile.
@pytest.mark.no_chaos
class TestCacheStore:
    def test_round_trip_and_accounting(self, cache):
        spec = machine_spec()
        result = run(spec)
        key = cache_key(spec, engine=result.engine)
        assert cache.get(key) is None
        assert cache.misses == 1
        cache.put(key, result)
        assert key in cache and len(cache) == 1
        cached = cache.get(key)
        assert cached is not None
        assert cached.to_json() == result.to_json()
        assert cache.stats == {"hits": 1, "misses": 1, "stores": 1, "corrupt_evictions": 0}

    def test_corrupt_entry_is_a_miss_not_a_crash(self, cache):
        spec = machine_spec()
        result = run(spec)
        key = cache_key(spec, engine=result.engine)
        cache.put(key, result)
        # Truncate the entry mid-document, as a crashed writer would.
        path = cache.path_for(key)
        path.write_text(result.to_json()[: len(result.to_json()) // 2])
        assert cache.get(key) is None
        assert cache.misses == 1
        assert cache.corrupt_evictions == 1
        assert not path.exists()  # the torn entry was cleaned up
        # A recompute overwrites it and the next read hits.
        cache.put(key, result)
        assert cache.get(key) is not None

    def test_foreign_json_is_also_tolerated(self, cache):
        spec = machine_spec()
        result = run(spec)
        key = cache_key(spec, engine=result.engine)
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"not": "a result"}))
        assert cache.get(key) is None

    def test_valid_json_with_foreign_value_schema_is_a_miss(self, cache):
        """All result fields present but a foreign value payload: miss, not crash."""
        spec = ExperimentSpec(
            experiment="threshold_sweep",
            noise=NoiseSpec(kind="uniform", physical_rates=(1e-3,)),
            sampling=SamplingSpec(shots=64, seed=1, batch_size=64),
        )
        key = cache_key(spec, engine="uint8")
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps(
                {
                    "spec": spec.to_dict(),
                    "value": {},  # reconstruction raises KeyError, not ParameterError
                    "backend": "uint8",
                    "engine": "uint8",
                    "seed_entropy": 1,
                    "num_shards": 1,
                    "wall_time_seconds": 0.0,
                    "library_version": repro.__version__,
                }
            )
        )
        assert cache.get(key) is None
        assert cache.misses == 1 and not path.exists()

    def test_clear_removes_entries(self, cache):
        result = run(machine_spec())
        cache.put(cache_key(result.spec, engine=result.engine), result)
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.clear() == 0  # idempotent on an empty root

    def test_put_rejects_non_results(self, cache):
        with pytest.raises(ParameterError, match="RunResult"):
            cache.put("ab" * 32, {"value": 1})
        with pytest.raises(ParameterError, match="hex digest"):
            cache.path_for("xy")

    def test_default_directory_honours_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"
        assert ResultCache().directory == tmp_path / "override"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert default_cache_dir().name == "repro"


# Pins exact cache accounting (hits/misses/cached flags), which
# injected corruption legitimately changes: run fault-free even
# under the CI chaos profile.
@pytest.mark.no_chaos
class TestSweepCaching:
    def test_identical_rerun_performs_zero_engine_executions(self, cache):
        """The headline acceptance contract of the explorer."""
        sweep = small_sweep()
        first = run_sweep(sweep, cache=cache)
        assert first.cache_misses == 2 and first.cache_hits == 0
        second = run_sweep(sweep, cache=cache)
        assert second.executed == 0
        assert second.cache_hits == 2 and second.cache_misses == 0
        assert all(point.cached for point in second.points)
        # The replayed values are bit-identical to the first run's.
        for a, b in zip(first.points, second.points):
            assert a.result.to_json() == b.result.to_json()

    def test_growing_an_axis_only_computes_the_new_points(self, cache):
        run_sweep(small_sweep(), cache=cache)
        grown = dataclasses.replace(
            small_sweep(), axes=(SweepAxis("machine.bandwidth", (1, 2, 4)),)
        )
        result = run_sweep(grown, cache=cache)
        assert result.cache_hits == 2 and result.cache_misses == 1
        fresh = [p for p in result.points if not p.cached]
        assert [p.coordinates["machine.bandwidth"] for p in fresh] == [4]

    def test_version_bump_invalidates_the_cache(self, cache, monkeypatch):
        sweep = small_sweep()
        run_sweep(sweep, cache=cache)
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        result = run_sweep(sweep, cache=cache)
        assert result.cache_hits == 0 and result.cache_misses == 2

    def test_cached_replay_is_identical_on_a_different_worker_count(self, cache):
        """Fill the cache serially, replay it pooled: zero executions, same bits."""
        serial = run_sweep(small_sweep(), cache=cache)
        pooled = run_sweep(small_sweep(point_workers=4), cache=cache)
        assert pooled.executed == 0
        for a, b in zip(serial.points, pooled.points):
            assert a.result.to_json() == b.result.to_json()

    def test_pooled_cold_run_fills_the_cache_identically(self, tmp_path):
        cold_serial = run_sweep(small_sweep(), cache=ResultCache(tmp_path / "a"))
        cold_pooled = run_sweep(
            small_sweep(point_workers=2), cache=ResultCache(tmp_path / "b")
        )
        assert cold_pooled.executed == 2
        for a, b in zip(cold_serial.points, cold_pooled.points):
            assert a.result.value == b.result.value
            assert a.cache_key == b.cache_key

    def test_unwritable_cache_degrades_to_uncached_results(self, tmp_path):
        """An unwritable cache root must not discard a finished sweep.

        The root is a regular *file*, so every store fails with
        NotADirectoryError even when the suite runs as root (chmod-based
        read-only setups are bypassed by CAP_DAC_OVERRIDE).
        """
        root = tmp_path / "blocked"
        root.write_text("not a directory")
        with pytest.warns(RuntimeWarning, match="not cached"):
            result = run_sweep(small_sweep(), cache=ResultCache(root))
        assert result.cache_misses == 2
        assert all(not point.cached for point in result.points)
        assert root.read_text() == "not a directory"  # nothing was stored

    def test_unwritable_cache_degradation_is_logged(self, tmp_path, caplog):
        root = tmp_path / "blocked"
        root.write_text("not a directory")
        with caplog.at_level(logging.WARNING, logger="repro"):
            with pytest.warns(RuntimeWarning, match="not cached"):
                run_sweep(small_sweep(), cache=ResultCache(root))
        logged = [r for r in caplog.records if r.name == "repro" and "not writable" in r.getMessage()]
        assert len(logged) == 1
        assert logged[0].levelno == logging.WARNING
        assert "not cached" in logged[0].getMessage()

    def test_use_cache_false_never_touches_disk(self, tmp_path):
        cache = ResultCache(tmp_path / "never")
        result = run_sweep(small_sweep(), cache=cache, use_cache=False)
        assert result.cache_misses == 2
        assert not (tmp_path / "never").exists()

    def test_cache_keys_match_recorded_engines(self, cache):
        result = run_sweep(small_sweep(), cache=cache)
        for point in result.points:
            assert point.cache_key == cache_key(
                point.result.spec, engine=resolved_engine(point.result.spec)
            )
            assert point.result.engine == resolved_engine(point.result.spec)
