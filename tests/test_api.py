"""The unified experiment API: specs, registry, runner, results.

Contracts exercised here:

* spec construction validates strictly and JSON round-trips exactly,
* the fixed backend table resolves ``auto`` to the frame engine at every
  batch size and kernel tier (sharded only when ``num_shards > 1``) and
  rejects every name outside it,
* ``run(ExperimentSpec.from_json(result.spec_json))`` replays a sharded
  threshold sweep bit for bit on any worker count,
* ``from repro import *`` exposes exactly the curated ``__all__`` surface.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
from repro.api import (
    CircuitSpec,
    ExecutionSpec,
    ExperimentSpec,
    NoiseSpec,
    RunResult,
    SamplingSpec,
    default_registry,
    run,
)
from repro.api import registry as registry_module
from repro.api.cli import main as cli_main
from repro.exceptions import ParameterError, SimulationError
from repro.stabilizer import fused as fused_module

#: What ``auto`` resolves to, at every batch size and on every kernel tier.
FAST_ENGINE = "frame"


def sweep_spec(**overrides) -> ExperimentSpec:
    """A small sharded threshold-sweep spec (the acceptance workload)."""
    defaults = dict(
        experiment="threshold_sweep",
        noise=NoiseSpec(kind="uniform", physical_rates=(2.0e-3, 1.0e-2)),
        sampling=SamplingSpec(shots=512, seed=77, batch_size=128),
        execution=ExecutionSpec(backend="auto", num_shards=4, num_workers=0),
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestSpecValidation:
    def test_noise_spec_rejects_unknown_kind(self):
        with pytest.raises(ParameterError):
            NoiseSpec(kind="gaussian")

    def test_noise_spec_rejects_out_of_range_rates(self):
        with pytest.raises(ParameterError):
            NoiseSpec(physical_rates=(0.0,))
        with pytest.raises(ParameterError):
            NoiseSpec(physical_rates=(1.5,))

    def test_technology_noise_rejects_rates(self):
        with pytest.raises(ParameterError):
            NoiseSpec(kind="technology", physical_rates=(1e-3,))

    def test_unknown_parameter_set(self):
        with pytest.raises(ParameterError):
            NoiseSpec(parameters="optimistic")

    def test_circuit_spec_movement_budget_validated(self):
        with pytest.raises(Exception):
            CircuitSpec(corner_turns=5)  # LayoutMapper enforces <= 2

    def test_sampling_spec_rejects_bad_values(self):
        with pytest.raises(ParameterError):
            SamplingSpec(shots=-1)
        with pytest.raises(ParameterError):
            SamplingSpec(batch_size=0)
        with pytest.raises(ParameterError):
            SamplingSpec(max_failures=0)
        with pytest.raises(ParameterError):
            SamplingSpec(seed=-3)

    def test_execution_spec_rejects_bad_values(self):
        with pytest.raises(ParameterError):
            ExecutionSpec(num_shards=0)
        with pytest.raises(ParameterError):
            ExecutionSpec(backend="")

    def test_experiment_kind_validated(self):
        with pytest.raises(ParameterError):
            ExperimentSpec(experiment="resource_count", noise=NoiseSpec(physical_rates=(1e-3,)))

    def test_threshold_sweep_needs_rates_and_shots(self):
        with pytest.raises(ParameterError):
            ExperimentSpec(experiment="threshold_sweep", noise=NoiseSpec(physical_rates=()))
        with pytest.raises(ParameterError):
            sweep_spec(sampling=SamplingSpec(shots=0, seed=1))

    def test_logical_failure_needs_exactly_one_rate(self):
        with pytest.raises(ParameterError):
            ExperimentSpec(
                experiment="logical_failure",
                noise=NoiseSpec(physical_rates=(1e-3, 2e-3)),
            )

    def test_syndrome_rate_level2_is_analytic_only(self):
        with pytest.raises(ParameterError):
            ExperimentSpec(
                experiment="syndrome_rate",
                noise=NoiseSpec(kind="technology"),
                circuit=CircuitSpec(level=2),
                sampling=SamplingSpec(shots=100, seed=1),
            )


class TestSpecJsonRoundTrip:
    def test_round_trip_is_exact(self):
        spec = sweep_spec(
            circuit=CircuitSpec(verified_ancilla=False, two_qubit_move_cells=10),
            sampling=SamplingSpec(shots=777, seed=42, max_failures=9, batch_size=256),
        )
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_round_trip_all_kinds(self):
        specs = [
            sweep_spec(),
            ExperimentSpec(
                experiment="logical_failure",
                noise=NoiseSpec(physical_rates=(5e-3,), parameters="current"),
                sampling=SamplingSpec(shots=64, seed=1),
            ),
            ExperimentSpec(
                experiment="syndrome_rate",
                noise=NoiseSpec(kind="technology"),
                circuit=CircuitSpec(level=2),
                sampling=SamplingSpec(shots=0, seed=0),
            ),
        ]
        for spec in specs:
            assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_tuple_seed_round_trips(self):
        spec = sweep_spec(sampling=SamplingSpec(shots=64, seed=(1, 2, 3)))
        rebuilt = ExperimentSpec.from_json(spec.to_json())
        assert rebuilt.sampling.seed == (1, 2, 3)

    def test_unknown_top_level_field_rejected(self):
        data = sweep_spec().to_dict()
        data["retries"] = 3
        with pytest.raises(ParameterError, match="unknown experiment spec fields"):
            ExperimentSpec.from_dict(data)

    def test_unknown_sub_spec_field_rejected(self):
        data = sweep_spec().to_dict()
        data["sampling"]["max_shots"] = 10
        with pytest.raises(ParameterError, match="unknown sampling spec fields"):
            ExperimentSpec.from_dict(data)

    def test_malformed_json_rejected(self):
        with pytest.raises(ParameterError):
            ExperimentSpec.from_json("not json {")
        with pytest.raises(ParameterError):
            ExperimentSpec.from_json(json.dumps([1, 2]))


class TestRegistrySelection:
    def test_packed_tier_chosen_at_64_lanes(self):
        registry = default_registry()
        strategy, engine = registry.resolve("auto", num_shards=1)
        assert (strategy.name, engine) == (FAST_ENGINE, FAST_ENGINE)

    @pytest.mark.parametrize("tier", ["cext", "numpy"])
    @pytest.mark.parametrize("num_shards", [1, 4])
    @pytest.mark.parametrize("lanes", [1, 8, 63, 64, 4096])
    def test_auto_is_the_fused_engine_at_every_batch_and_tier(
        self, monkeypatch, tier, num_shards, lanes
    ):
        from repro.arq.simulator import create_batch_tableau
        from repro.stabilizer import PauliFrameBatch

        monkeypatch.setenv("REPRO_FUSED_KERNEL", tier)
        monkeypatch.setattr(fused_module, "_TIER_CACHE", {})
        monkeypatch.setattr(registry_module, "_DEFAULT_REGISTRY", None)
        # Every shard holds ``lanes`` shots, so each batch is ``lanes`` wide.
        strategy, engine = default_registry().resolve("auto", num_shards=num_shards)
        expected = "sharded" if num_shards > 1 else FAST_ENGINE
        assert (strategy.name, engine) == (expected, FAST_ENGINE)
        assert isinstance(create_batch_tableau(7, lanes), PauliFrameBatch)

    def test_sharded_only_when_shards_exceed_one(self):
        registry = default_registry()
        strategy, engine = registry.resolve("auto", num_shards=4)
        assert (strategy.name, engine) == ("sharded", FAST_ENGINE)
        strategy, _ = registry.resolve("auto", num_shards=1)
        assert strategy.name != "sharded"

    def test_explicit_engine_with_shards_runs_sharded(self):
        registry = default_registry()
        strategy, engine = registry.resolve("frame", num_shards=2)
        assert (strategy.name, engine) == ("sharded", "frame")

    def test_scalar_refuses_shards(self):
        with pytest.raises(ParameterError):
            default_registry().resolve("scalar", num_shards=2)

    def test_unknown_backend_raises(self):
        for name in ("simd", "uint8", "packed", "packed-fused"):
            with pytest.raises(SimulationError, match="'frame'"):
                default_registry().resolve(name)

    @pytest.mark.parametrize("num_shards", [1, 2])
    @pytest.mark.parametrize(
        "name, unsharded, sharded",
        [
            ("auto", ("frame", "frame"), ("sharded", "frame")),
            ("frame", ("frame", "frame"), ("sharded", "frame")),
            ("sharded", ("sharded", "frame"), ("sharded", "frame")),
            ("scalar", ("scalar", "scalar"), ParameterError),
            ("desim", ("desim", "desim"), ParameterError),
        ],
    )
    def test_builtin_table(self, name, unsharded, sharded, num_shards):
        expected = unsharded if num_shards == 1 else sharded
        if expected is ParameterError:
            with pytest.raises(ParameterError):
                default_registry().resolve(name, num_shards=num_shards)
        else:
            strategy, engine = default_registry().resolve(name, num_shards=num_shards)
            assert (strategy.name, engine) == expected


class TestSeededRng:
    """An unsharded run's generator is its seed's first spawned child."""

    @staticmethod
    def _spawned(seed):
        from repro.parallel import as_seed_sequence

        return np.random.default_rng(as_seed_sequence(seed).spawn(1)[0])

    @pytest.mark.parametrize(
        "seed", [11, 2**70 + 3, np.int64(2005), (1, 2, 3), [4, 5]], ids=repr
    )
    def test_entropy_seeds_match_the_spawned_child(self, seed):
        built = registry_module._seeded_rng(seed)
        assert built.bit_generator.state == self._spawned(seed).bit_generator.state

    @pytest.mark.parametrize("spawned_before", [0, 1])
    def test_a_seed_sequence_is_spawned_from(self, spawned_before):
        ours, reference = np.random.SeedSequence(99), np.random.SeedSequence(99)
        for sequence in (ours, reference):
            sequence.spawn(spawned_before)
        built = registry_module._seeded_rng(ours)
        assert built.bit_generator.state == self._spawned(reference).bit_generator.state
        assert ours.n_children_spawned == spawned_before + 1

    def test_bad_seeds_still_raise(self):
        for seed in ((), (1, 2.5), 1.5):
            with pytest.raises(ParameterError):
                registry_module._seeded_rng(seed)


class TestRunAndReplay:
    def test_sharded_packed_sweep_replays_bit_for_bit(self):
        result = run(sweep_spec())
        assert result.backend == "sharded"
        assert result.engine == FAST_ENGINE
        replay = run(ExperimentSpec.from_json(result.spec_json))
        assert replay.value == result.value
        assert replay.seed_entropy == result.seed_entropy

    def test_worker_count_never_changes_results(self):
        serial = run(sweep_spec(execution=ExecutionSpec(num_shards=4, num_workers=0)))
        pooled = run(sweep_spec(execution=ExecutionSpec(num_shards=4, num_workers=2)))
        assert serial.value == pooled.value

    def test_fresh_entropy_is_materialized_and_replayable(self):
        spec = sweep_spec(sampling=SamplingSpec(shots=128, seed=None, batch_size=64))
        result = run(spec)
        assert result.spec.sampling.seed is not None
        assert result.seed_entropy == result.spec.sampling.seed
        replay = run(ExperimentSpec.from_json(result.spec_json))
        assert replay.value == result.value

    def test_provenance_fields(self):
        result = run(sweep_spec())
        assert result.num_shards == 4
        assert result.wall_time_seconds > 0.0
        assert result.library_version == repro.__version__

    def test_scalar_backend_runs_threshold_sweep(self):
        result = run(
            sweep_spec(
                sampling=SamplingSpec(shots=40, seed=3),
                execution=ExecutionSpec(backend="scalar"),
            )
        )
        assert (result.backend, result.engine) == ("scalar", "scalar")
        assert all(mc.trials == 40 for mc in result.value.level1)

    def test_syndrome_rate_analytic_and_measured(self):
        analytic = run(
            ExperimentSpec(
                experiment="syndrome_rate",
                noise=NoiseSpec(kind="technology"),
                sampling=SamplingSpec(shots=0, seed=0),
            )
        )
        assert analytic.backend == "none"
        assert analytic.value["analytic"] == pytest.approx(2.1154e-4, rel=1e-3)
        measured = run(
            ExperimentSpec(
                experiment="syndrome_rate",
                noise=NoiseSpec(kind="technology"),
                sampling=SamplingSpec(shots=128, seed=5),
            )
        )
        assert set(measured.value) == {"analytic", "level", "measured", "trials"}
        assert 0.0 <= measured.value["measured"] <= 1.0
        assert measured.value["trials"] == 128.0

    def test_run_requires_a_spec(self):
        with pytest.raises(ParameterError):
            run({"experiment": "threshold_sweep"})


class TestRunResultJson:
    def test_threshold_sweep_result_round_trips(self):
        result = run(sweep_spec(sampling=SamplingSpec(shots=128, seed=9, batch_size=64)))
        rebuilt = RunResult.from_json(result.to_json())
        assert rebuilt.value == result.value
        assert rebuilt.spec == result.spec
        assert rebuilt.backend == result.backend
        assert rebuilt.engine == result.engine
        assert rebuilt.seed_entropy == result.seed_entropy

    def test_logical_failure_result_round_trips(self):
        result = run(
            ExperimentSpec(
                experiment="logical_failure",
                noise=NoiseSpec(physical_rates=(1e-2,)),
                sampling=SamplingSpec(shots=96, seed=2),
            )
        )
        rebuilt = RunResult.from_json(result.to_json())
        assert rebuilt.value == result.value

    def test_unknown_result_field_rejected(self):
        result = run(
            ExperimentSpec(
                experiment="syndrome_rate",
                noise=NoiseSpec(kind="technology"),
                sampling=SamplingSpec(shots=0, seed=0),
            )
        )
        data = result.to_dict()
        data["hostname"] = "somewhere"
        with pytest.raises(ParameterError):
            RunResult.from_dict(data)


class TestCuratedSurface:
    def test_star_import_matches_all(self):
        namespace: dict = {}
        exec("from repro import *", namespace)
        exported = {name for name in namespace if name != "__builtins__"}
        assert exported == set(repro.__all__)

    def test_star_import_leaks_no_modules(self):
        import types

        namespace: dict = {}
        exec("from repro import *", namespace)
        leaked = [
            name
            for name, value in namespace.items()
            if isinstance(value, types.ModuleType)
        ]
        assert leaked == []

    def test_api_names_reachable_from_top_level(self):
        for name in ("run", "ExperimentSpec", "NoiseSpec", "SamplingSpec",
                     "ExecutionSpec", "CircuitSpec", "RunResult",
                     "BackendRegistry", "default_registry"):
            assert hasattr(repro, name)


class TestCli:
    def test_help_names_every_backend_without_compiling(self, monkeypatch, capsys):
        def no_compile():
            raise AssertionError("--help must not build the native kernel")

        monkeypatch.setattr(fused_module, "build_kernel", no_compile)
        monkeypatch.setattr(registry_module, "build_kernel", no_compile)
        monkeypatch.setattr(registry_module, "_DEFAULT_REGISTRY", None)
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["--help"])
        assert exit_info.value.code == 0
        text = capsys.readouterr().out
        for name in ("auto", "frame", "scalar", "sharded", "desim"):
            assert name in text

    def test_cli_runs_a_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            sweep_spec(sampling=SamplingSpec(shots=64, seed=5, batch_size=64)).to_json()
        )
        out_path = tmp_path / "result.json"
        assert cli_main([str(spec_path), "-o", str(out_path), "--quiet"]) == 0
        result = RunResult.from_json(out_path.read_text())
        assert result.spec.sampling.seed == 5
        assert result.value.level1[0].trials <= 64

    def test_cli_example_prints_a_valid_spec(self, capsys):
        assert cli_main(["--example", "syndrome_rate"]) == 0
        spec = ExperimentSpec.from_json(capsys.readouterr().out)
        assert spec.experiment == "syndrome_rate"

    def test_cli_rejects_bad_spec(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"experiment": "threshold_sweep", "noise": {}, "oops": 1}))
        assert cli_main([str(bad), "--quiet"]) == 1

    def test_cli_missing_file(self, tmp_path):
        assert cli_main([str(tmp_path / "absent.json")]) == 2
